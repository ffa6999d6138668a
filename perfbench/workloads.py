"""The benchmark's workloads: seeded inputs, the timed calls into waylab, and
the outside checks of their results.

Every workload is one fixed batch of :class:`Op` (a "pass") built from the
seed.  An op's ``call`` is the only timed part; ``check`` runs afterwards,
untimed, and returns a failure reason or ``None``.  Calls look waylab's
functions up on the module at call time, so the tracer's rebinding is seen.

Sizes are stratified: the seed moves values inside fixed strata and fixes the
op order, while the largest inputs of every workload stay the same, so runs
with different seeds do the same amount of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import waylab.circuits as circuits
import waylab.cli as cli
import waylab.convert as convert
import waylab.discrimination as discrimination
import waylab.graded as graded
import waylab.models as models
from waylab.discrimination import Criterion

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "cli_digests.json"

EPS_NUM = graded.EPS_NUM
OP_DEADLINE_S = 60.0
EDGE_DEADLINE_S = 0.25


def _load_oracles():
    spec = importlib.util.spec_from_file_location("waylab_bench_oracles",
                                                  ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


@dataclass
class Op:
    """One timed call and its untimed check.

    ``edge`` marks a probe at the parameter edge: it runs in every pass under a
    short deadline and its time counts in the pass wall time, but it is not a
    workload op, so it is not in ``attempted``/``failed`` or the latency
    percentiles.  Its outcome is reported on its own.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    edge: bool = False

    @property
    def deadline_s(self) -> float:
        return EDGE_DEADLINE_S if self.edge else OP_DEADLINE_S


@dataclass
class Workload:
    batch: list[Op]
    warmup: Op
    cleanup: Callable[[], None] = lambda: None


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _nrng(*parts) -> np.random.Generator:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _late(module, name: str, *args):
    """Call ``module.name(*args)``, looking the attribute up at call time."""
    return lambda: getattr(module, name)(*args)


def _close(got: float, want: float, tol: float, what: str) -> str | None:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        return f"{what}: got {got!r}, expected {want!r} (tol {tol:g})"
    return None


def _first(*reasons):
    return next((r for r in reasons if r), None)


# ---------------------------------------------------------------------------
# closed forms, recomputed here independently of waylab.models
# ---------------------------------------------------------------------------

def _log_poisson(k: int, lam: float) -> float:
    return -lam + k * math.log(lam) - math.lgamma(k + 1)


def coherent_ud_exact(nbar: float) -> float:
    return 1.0 - math.exp(_log_poisson(math.floor(nbar), nbar))


def coherent_mle_exact(nbar: float) -> float:
    """exp(-nbar)/4 [1 + sum_{n>=1} nbar^(n-1)/(n-1)! (1 + sqrt(nbar/n))^2], in log space."""
    top = int(nbar + 40.0 * math.sqrt(nbar) + 60)
    terms = [math.exp(-nbar)]
    terms += [math.exp(_log_poisson(n - 1, nbar)) * (1.0 + math.sqrt(nbar / n)) ** 2
              for n in range(1, top)]
    return math.fsum(terms) / 4.0


def _coherent_sector_states(n: int, nbar: float):
    """Twirled e+/e- states of sector n (1 <= n <= cutoff) of the coherent model.

    The sector holds |n-1,1> and |n,0> with amplitudes +-c_{n-1} and c_n, and
    c_{n-1}/c_n = sqrt(n/nbar) whatever the truncation.
    """
    r = math.sqrt(n / nbar)
    out = []
    for sign in (1.0, -1.0):
        v = np.array([sign * r, 1.0]) / math.hypot(r, 1.0)
        out.append(np.outer(v, v))
    return out


# ---------------------------------------------------------------------------
# readout
# ---------------------------------------------------------------------------

def _log_grid(lo: float, hi: float, n: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def _check_model(closed: float, sector_picks=(), nbar: float | None = None,
                 criterion: Criterion | None = None):
    expected: dict[int, float] = {}

    def check(report) -> str | None:
        reason = _close(report.success_numeric, closed, 1e-8, "success vs closed form")
        if reason or not sector_picks:
            return reason
        sectors = {n: s for n, _, s in report.per_sector}
        top = report.result.space.charges[-1]     # |cutoff, 1>: sectors 1..top-1 hold two slots
        inner = sorted(n for n in sectors if 1 <= n < top)
        for u in sector_picks:
            n = inner[int(u * len(inner))]
            if n not in expected:
                rp, rm = _coherent_sector_states(n, nbar)
                expected[n] = (oracles.ud_grid_search(rp, rm, (0.5, 0.5))
                               if criterion is Criterion.UD
                               else oracles.mle_trace_norm_success(rp, rm, (0.5, 0.5)))
            tol = 1e-6 if criterion is Criterion.UD else 1e-9
            reason = _close(sectors.get(n, math.nan), expected[n], tol,
                            f"sector {n} success vs oracle")
            if reason:
                return reason
        return None

    return check


def _random_hermitian(nrng, d):
    a = nrng.normal(size=(d, d)) + 1j * nrng.normal(size=(d, d))
    return (a + a.conj().T) / 2.0


def _way_scenario(rng, nrng, space, kind, resource, drop: bool):
    d = space.total_dim
    evals = np.sort(nrng.uniform(-2.0, 2.0, size=d))
    evals += np.arange(d) * 0.05          # keep the spectrum well separated
    if kind == "charge_diagonal":
        matrix = np.diag(nrng.permutation(evals))
    elif kind == "conjugate":            # eigenvectors spread evenly over charges
        fourier = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d)
        phases = np.exp(1j * nrng.uniform(0, 2 * np.pi, size=d))
        u = (phases[:, None] * fourier) / math.sqrt(d)
        matrix = u @ np.diag(evals) @ u.conj().T
    else:
        _, u = np.linalg.eigh(_random_hermitian(nrng, d))
        matrix = u @ np.diag(evals) @ u.conj().T
    matrix = (matrix + matrix.conj().T) / 2.0
    prior = nrng.dirichlet(np.ones(d))
    if d > 2 and drop:                    # an eigenvalue that is never sent
        prior[rng.randrange(d)] = 0.0
        prior /= prior.sum()
    return models.WayScenario(space, graded.Observable(space, matrix),
                              tuple(float(p) for p in prior), resource)


def _way_expectation(scenario):
    """Verdict and sector weights of the twirled eigenstates, from dense pinching."""
    vals, vecs = np.linalg.eigh(scenario.observable.matrix)
    sys_labels = scenario.system.charge_labels()
    if scenario.resource is not None:
        res = scenario.resource
        labels = np.add.outer(res.space.charge_labels(), sys_labels).ravel()
    else:
        labels = sys_labels
    same = labels[:, None] == labels[None, :]
    states, weights, priors = [], [], []
    for k in range(len(vals)):
        if scenario.prior[k] <= EPS_NUM:
            continue
        vec = vecs[:, k]
        if scenario.resource is not None:
            vec = np.kron(scenario.resource.amplitudes, vec)
        rho = np.where(same, np.outer(vec, vec.conj()), 0.0)
        states.append(rho)
        weights.append({int(n): float(np.sum(np.abs(vec[labels == n]) ** 2))
                        for n in np.unique(labels)})
        priors.append(scenario.prior[k])
    if all(oracles.supports_orthogonal(a, b) for a, b in itertools.combinations(states, 2)):
        verdict = models.Verdict.PERFECT
    elif all(np.max(np.abs(states[0] - s)) <= 1e-9 for s in states[1:]):
        verdict = models.Verdict.IMPOSSIBLE
    else:
        verdict = models.Verdict.APPROXIMATE_ONLY
    total = math.fsum(priors)
    return verdict, weights, [p / total for p in priors]


def _check_way(scenario):
    verdict, weights, priors = _way_expectation(scenario)

    def check(out) -> str | None:
        got_verdict, ensemble = out
        if got_verdict is not verdict:
            return f"verdict {got_verdict.value}, expected {verdict.value}"
        if len(ensemble.items) != len(weights):
            return "wrong number of kept eigenstates"
        for (p, state), want_p, want_w in zip(ensemble.items, priors, weights):
            reason = _first(_close(p, want_p, 1e-12, "prior"), *(
                _close(state.sector_weight(n), w, 1e-10, f"sector {n} weight")
                for n, w in want_w.items()))
            if reason:
                return reason
        return None

    return check


def _check_coherent_state(nbar):
    def check(state) -> str | None:
        probs = np.abs(state.amplitudes) ** 2
        mean = float(np.dot(state.space.charge_labels(), probs))
        return _first(_close(float(probs.sum()), 1.0, 1e-10, "norm"),
                      _close(mean, nbar, 1e-6 * nbar, "mean charge"))
    return check


def _check_ladder_state(profile):
    def check(state) -> str | None:
        want = profile / np.linalg.norm(profile)
        if state.amplitudes.shape != want.shape:
            return f"dimension {state.amplitudes.shape[0]}, expected {want.shape[0]}"
        return _close(float(np.max(np.abs(state.amplitudes - want))), 0.0, 1e-12,
                      "amplitudes")
    return check


def _check_value(want):
    return lambda got: _close(got, want, 1e-8, "closed form vs log-space series")


def edge_probes() -> list[Op]:
    """Cheap calls at the parameter edges (known to fail at the seed commit)."""
    ops = []
    for nbar in (800.0, 1e4):
        ops.append(Op(f"edge.coherent_state({nbar:g})",
                      _late(graded, "coherent_state", math.sqrt(nbar)),
                      _check_coherent_state(nbar), edge=True))
        ops.append(Op(f"edge.coherent_mle_success({nbar:g})",
                      _late(models, "coherent_mle_success", nbar),
                      _check_value(coherent_mle_exact(nbar)), edge=True))
    n = np.arange(1001)
    ops.append(Op("edge.uniform_state(1000)", _late(graded, "uniform_state", 1000),
                  _check_ladder_state(np.ones(1001)), edge=True))
    ops.append(Op("edge.opt_phase_state(1000)", _late(graded, "opt_phase_state", 1000),
                  _check_ladder_state(np.sin((n + 1) * math.pi / 1002)), edge=True))
    return ops


# Expected edge-probe failures at the commit that defined this benchmark:
# coherent_state cannot truncate above nbar ~745, where exp(-nbar) underflows,
# and coherent_mle_success never returns at nbar 800 or 1e4.  All four pass
# their deadline.
EDGE_FAILURES_AT_SEED = 4


def readout(seed: int, in_process: bool = True) -> Workload:
    rng, nrng = _rng("readout", seed), _nrng("readout", seed)
    ops = []
    grid = _log_grid(0.25, 400.0, 12)
    for i, nbar in enumerate(grid):
        if 0 < i < len(grid) - 1:
            nbar *= math.exp(rng.uniform(-0.02, 0.02))
        picks = (rng.random(), rng.random())
        for crit in (Criterion.UD, Criterion.MLE):
            closed = coherent_ud_exact(nbar) if crit is Criterion.UD else coherent_mle_exact(nbar)
            ops.append(Op(f"coherent_model.{crit.value}(nbar={nbar:.4g})",
                          _late(models, "coherent_model", math.sqrt(nbar), crit),
                          _check_model(closed, picks, nbar, crit)))
    for m in (1, 2, 4, 8, 16, 32, 64, 96, 112, 128):
        ops.append(Op(f"uniform_model.ud(M={m})", _late(models, "uniform_model", m, Criterion.UD),
                      _check_model(m / (m + 1))))
        ops.append(Op(f"uniform_model.mle(M={m})", _late(models, "uniform_model", m, Criterion.MLE),
                      _check_model((2 * m + 1) / (2 * m + 2))))
        ops.append(Op(f"opt_phase_model(M={m})", _late(models, "opt_phase_model", m),
                      _check_model(math.cos(math.pi / (2 * (m + 2))) ** 2)))
    spaces = (graded.GradedSpace.qubit(), graded.GradedSpace.ladder(2),
              graded.GradedSpace((0, 1), (1, 2)), graded.GradedSpace((0, 1, 2), (1, 2, 1)))
    kinds = ("generic", "charge_diagonal", "conjugate")
    for i in range(56):
        space = spaces[i % len(spaces)]
        kind = kinds[(i // len(spaces)) % len(kinds)]
        if kind == "conjugate" and max(space.dims) > 1:
            kind = "generic"
        resource = graded.coherent_state(1.0) if i % 2 else None
        scenario = _way_scenario(rng, nrng, space, kind, resource, drop=i % 8 >= 6)
        ops.append(Op(f"way_feasibility.{kind}", _late(models, "way_feasibility", scenario),
                      _check_way(scenario)))
    rng.shuffle(ops)
    ops += edge_probes()
    warm = Op("warmup", _late(models, "coherent_model", 8.0, Criterion.UD), lambda _: None)
    return Workload(ops, warm)


# ---------------------------------------------------------------------------
# convert_sweep
# ---------------------------------------------------------------------------

def eighth_grid_canonical() -> list[dict[int, int]]:
    """Support-in-{0..4} distributions on the 1/8 grid, minimum charge at 0
    (the canonical set of the acceptance sweep), as eighths."""
    seen, out = set(), []
    for parts in itertools.product(range(9), repeat=4):
        if sum(parts) > 8:
            continue
        parts = parts + (8 - sum(parts),)
        support = [i for i, u in enumerate(parts) if u]
        lo = support[0]
        key = tuple((i - lo, u) for i, u in enumerate(parts) if u)
        if key not in seen:
            seen.add(key)
            out.append({i - lo: u for i, u in enumerate(parts) if u})
    return out


def _fractions(units: dict[int, int]) -> dict[int, Fraction]:
    total = sum(units.values())
    return {n: Fraction(u, total) for n, u in units.items() if u}


def _convolve(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def _random_units(rng, width, lo=1, hi=16, zeros=0.0):
    units = [rng.randint(lo, hi) for _ in range(width)]
    for k in range(1, width - 1):
        if rng.random() < zeros:
            units[k] = 0
    return dict(enumerate(units))


def _wide_pair(rng, width: int, kind: int):
    """A rational pair (p, q) whose source p spans ``width`` charges.

    kind 0: feasible, generic weights; 1: feasible with weights at the
    boundary (interior zeros and weights ~1e-6); 2: feasible with supports far
    apart; 3: infeasible by moving 1/4096 of p's mass to a neighbour;
    4: infeasible, independent p.
    """
    ww = max(1, width // 4)
    q = _fractions(_random_units(rng, width - ww + 1))
    if kind == 1:
        units = _random_units(rng, ww, 10_000, 100_000, zeros=0.3)
        for k in range(1, ww - 1):
            if units[k] and rng.random() < 0.3:
                units[k] = 1
        w = _fractions(units)
    else:
        w = _fractions(_random_units(rng, ww))
    p = _convolve(w, q)
    if kind == 2:
        shift = rng.randint(200, 1000)
        p = {n + shift: x for n, x in p.items()}
    elif kind == 3:
        movable = [n for n in p if p[n] >= Fraction(1, 4096) and n + 1 in p]
        n = rng.choice(movable)
        p = dict(p)
        p[n] -= Fraction(1, 4096)
        p[n + 1] += Fraction(1, 4096)
    elif kind == 4:
        p = _fractions(_random_units(rng, width))
    return p, q


def _dist(frac: dict[int, Fraction]):
    return convert.ChargeDistribution({n: float(x) for n, x in frac.items()})


def _check_convertible(p_frac, q_frac):
    memo = {}

    def check(cert) -> str | None:
        if not memo:
            memo["feasible"] = oracles.convertible_exact(p_frac, q_frac)
            memo["weights"] = (oracles.convolution_quotient(p_frac, q_frac)
                               if memo["feasible"] else None)
        if cert.feasible != memo["feasible"]:
            return f"verdict {cert.feasible}, exact oracle {memo['feasible']}"
        if cert.feasible:
            for k, wk in memo["weights"].items():
                reason = _close(cert.weights.get(k, 0.0), float(wk), 1e-6, f"weight {k}")
                if reason:
                    return reason
        return None

    return check


def _pure_from(frac, rng):
    lo, hi = min(frac), max(frac)
    space = graded.GradedSpace.ladder(hi - lo)
    amps = np.array([math.sqrt(frac.get(lo + n, 0)) for n in range(hi - lo + 1)], dtype=complex)
    amps *= np.exp(1j * np.array([rng.uniform(0, 2 * math.pi) for _ in amps]))
    return graded.PureState(space, amps / np.linalg.norm(amps))


def _check_compare(a_frac, b_frac):
    ab = oracles.convertible_exact(a_frac, b_frac)
    ba = oracles.convertible_exact(b_frac, a_frac)
    want = {(True, True): convert.Comparison.EQUIVALENT,
            (True, False): convert.Comparison.A_TO_B,
            (False, True): convert.Comparison.B_TO_A,
            (False, False): convert.Comparison.INCOMPARABLE}[(ab, ba)]
    return lambda got: None if got is want else f"{got.value}, expected {want.value}"


def convert_sweep(seed: int, in_process: bool = True) -> Workload:
    rng = _rng("convert_sweep", seed)
    canonical = [_fractions(u) for u in eighth_grid_canonical()]
    ops = []
    for _ in range(640):
        p, q = rng.choice(canonical), rng.choice(canonical)
        ops.append(Op("deterministic_convertible.grid",
                      _late(convert, "deterministic_convertible", _dist(p), _dist(q)),
                      _check_convertible(p, q)))
    for k in range(360):
        width = 10 + int(50 * (k + rng.random()) / 360)
        p, q = _wide_pair(rng, width, k % 5)
        ops.append(Op(f"deterministic_convertible.wide{k % 5}",
                      _late(convert, "deterministic_convertible", _dist(p), _dist(q)),
                      _check_convertible(p, q)))
    for _ in range(20):
        a, b = rng.choice(canonical), rng.choice(canonical)
        ops.append(Op("compare", _late(convert, "compare", _pure_from(a, rng), _pure_from(b, rng)),
                      _check_compare(a, b)))
    rng.shuffle(ops)
    return Workload(ops, ops[0])


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------

BUILDERS = {"ud": "build_ud_unitary", "mle": "build_mle_unitary",
            "repeatable": "build_repeatable_variant"}
QUBIT_INPUTS = {"e+": np.array([1.0, 1.0]) / math.sqrt(2.0),
                "e-": np.array([1.0, -1.0]) / math.sqrt(2.0),
                "0": np.array([1.0, 0.0]), "1": np.array([0.0, 1.0])}


def _povm_expectation(kind: str, m: int):
    """Outcome effects of ``discriminate`` on the model's twirled ensemble and
    the resource (x) system tensor map they live on."""
    resource = graded.uniform_state(m)
    tm, ensemble = models.twirled_pair_ensemble(resource)
    crit = Criterion.MLE if kind == "mle" else Criterion.UD
    result = discrimination.discriminate(ensemble, crit)
    return tm, np.outer(resource.amplitudes, resource.amplitudes.conj()), result.global_effects


def _circuit_group(kind: str, m: int, state: np.ndarray) -> list[Op]:
    ctx: dict = {}
    memo: dict = {}

    def build():
        ctx["model"] = getattr(circuits, BUILDERS[kind])(m)
        return ctx["model"]

    def check_build(model) -> str | None:
        u = model.unitary.matrix
        wires = {"ud": 4, "mle": 3, "repeatable": 5}[kind]
        if u.shape[0] != (m + 1) * 2 ** wires:
            return f"unitary dimension {u.shape[0]}"
        dev = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
        return _close(dev, 0.0, EPS_NUM, "unitarity deviation")

    def check_small(value) -> str | None:
        return _close(value, 0.0, EPS_NUM, "norm")

    def check_outcomes(rho):
        def check(out) -> str | None:
            if "effects" not in memo:
                memo["effects"] = _povm_expectation(kind, m)
            tm, rho_res, effects = memo["effects"]
            joint = tm.matrix(np.kron(rho_res, rho))
            total = 0.0
            for label, eff in effects.items():
                prob, post = out[label]
                total += prob
                want = float(np.real(np.trace(eff @ joint)))
                reason = _close(prob, want, 1e-9, f"P({label}) vs discriminate")
                if reason:
                    return reason
                if kind == "repeatable" and label != "fail" and prob > 1e-9:
                    eig = QUBIT_INPUTS["e+" if label == "plus" else "e-"]
                    fid = float(np.real(eig.conj() @ post @ eig))
                    reason = _close(fid, 1.0, 1e-9, f"post-state fidelity on {label}")
                    if reason:
                        return reason
            return _close(total, 1.0, 1e-10, "total probability")
        return check

    def check_noise(value) -> str | None:
        memo["noise"] = value
        return None if math.isfinite(value) and value >= 0 else f"noise {value!r}"

    def check_bound(value) -> str | None:
        if not (math.isfinite(value) and value >= 0):
            return f"bound {value!r}"
        if memo.get("noise", -1.0) < value - 1e-10:
            return f"noise {memo.get('noise')!r} below the bound {value!r}"
        return None

    ops = [Op(f"{kind}(m={m}).build", build, check_build),
           Op(f"{kind}(m={m}).verify_conservation",
              lambda: circuits.verify_conservation(ctx["model"].unitary), check_small),
           Op(f"{kind}(m={m}).verify_yanase", lambda: circuits.verify_yanase(ctx["model"]),
              check_small)]
    inputs = [(name, np.outer(v, v)) for name, v in QUBIT_INPUTS.items()]
    inputs.append(("seeded", np.outer(state, state.conj())))
    for _, rho in inputs:
        ops.append(Op(f"{kind}(m={m}).simulate_measurement",
                      (lambda rho=rho: circuits.simulate_measurement(ctx["model"], rho)),
                      check_outcomes(rho)))
    rho = inputs[-1][1]
    ops.append(Op(f"{kind}(m={m}).noise", lambda: ctx["model"].noise(rho), check_noise))

    def bound():
        try:
            return ctx["model"].noise_bound(rho)
        finally:
            ctx.clear()            # drop the model so the next group starts clean

    ops.append(Op(f"{kind}(m={m}).noise_bound", bound, check_bound))
    return ops


def circuits_workload(seed: int, in_process: bool = True) -> Workload:
    rng, nrng = _rng("circuits", seed), _nrng("circuits", seed)
    # sizes are fixed, so that every seed puts the latency percentiles on the
    # same ops; the seed draws the fifth input state and the model order
    sizes = {"ud": (2, 8, 24, 40), "mle": (2, 8, 24, 64), "repeatable": (2, 8, 20)}
    groups = []
    for kind, ms in sizes.items():
        for m in ms:
            v = nrng.normal(size=2) + 1j * nrng.normal(size=2)
            groups.append(_circuit_group(kind, m, v / np.linalg.norm(v)))
    rng.shuffle(groups)
    ops = [op for group in groups for op in group]
    warm = _circuit_group("ud", 2, QUBIT_INPUTS["e+"].astype(complex))
    return Workload(ops, _chain(warm))


def _chain(ops: list[Op]) -> Op:
    """One op that runs a dependent group of ops in order (for warm-up)."""
    def call():
        for op in ops:
            reason = op.check(op.call())
            if reason:
                raise RuntimeError(f"{op.label}: {reason}")
    return Op("warmup", call, lambda _: None)


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

CLI_POOL_SIZE = 12
CLI_FORMS = ("twirl", "convert_feasible", "convert_infeasible", "discriminate_uniform",
             "discriminate_coherent", "discriminate_opt_phase", "discriminate_effects",
             "curves_fig2", "curves_fig3", "circuit", "circuit_manifest",
             "ozawa_model", "ozawa_bound")
# forms that run twice per pass, so that a pass has 20 ops
CLI_EXTRA = ("twirl", "convert_feasible", "discriminate_uniform", "discriminate_coherent",
             "curves_fig2", "circuit", "ozawa_model")
CLI_EXIT = {"convert_infeasible": 1}     # README: exit 1 on a negative verdict


def _pairs(values):
    return [[float(np.real(z)), float(np.imag(z))] for z in values]


def _unit(nrng, d):
    v = nrng.normal(size=d) + 1j * nrng.normal(size=d)
    return v / np.linalg.norm(v)


def cli_variant(form: str, i: int) -> tuple[list[str], dict[str, str]]:
    """argv (with ``{name}`` placeholders for input files) and file contents of
    variant ``i`` of a CLI form.  Variants do not depend on the run seed, so
    their output digests can be recorded once."""
    rng, nrng = _rng("cli", form, i), _nrng("cli", form, i)
    if form == "twirl":
        charges = sorted(rng.sample(range(6), rng.randint(2, 4)))
        dims = [rng.randint(1, 2) for _ in charges]
        state = {"charges": charges, "sector_dims": dims,
                 "amplitudes": _pairs(_unit(nrng, sum(dims)))}
        return ["twirl", "{state}"], {"state": json.dumps(state)}
    if form.startswith("convert"):
        q = _fractions(_random_units(rng, rng.randint(2, 4), 1, 8))
        if form == "convert_feasible":
            p = _convolve(_fractions(_random_units(rng, rng.randint(1, 3), 1, 4)), q)
        else:                            # q wider than p: never convertible
            p = _fractions(_random_units(rng, max(q) - min(q), 1, 8))
        files = {name: json.dumps({str(n): float(x) for n, x in d.items()})
                 for name, d in (("p", p), ("q", q))}
        return ["convert", "{p}", "{q}"], files
    if form == "discriminate_uniform":
        return ["discriminate", "--resource", "uniform", "--param", str(rng.randint(1, 12)),
                "--criterion", rng.choice(("ud", "mle"))], {}
    if form == "discriminate_coherent":
        return ["discriminate", "--resource", "coherent",
                "--param", f"{rng.uniform(0.4, 2.5):.3f}",
                "--criterion", rng.choice(("ud", "mle"))], {}
    if form == "discriminate_opt_phase":
        return ["discriminate", "--resource", "opt_phase", "--param", str(rng.randint(1, 12)),
                "--criterion", "mle"], {}
    if form == "discriminate_effects":
        if rng.random() < 0.5:
            res = ["--resource", "uniform", "--param", str(rng.randint(1, 4))]
        else:
            res = ["--resource", "coherent", "--param", f"{rng.uniform(0.5, 1.2):.3f}"]
        return ["discriminate", *res, "--criterion", rng.choice(("ud", "mle")),
                "--effects"], {}
    if form == "curves_fig2":
        grid = sorted(rng.sample((0.25, 0.5, 1, 2, 3, 4, 6, 8), rng.randint(2, 4)))
        return ["curves", "--figure", "fig2", "--grid", ",".join(map(str, grid))], {}
    if form == "curves_fig3":
        grid = sorted(rng.sample((0.5, 1, 1.5, 2, 3, 4), rng.randint(2, 3)))
        return ["curves", "--figure", "fig3", "--grid", ",".join(map(str, grid))], {}
    if form == "circuit":
        return ["circuit", "--kind", rng.choice(tuple(BUILDERS)), "--m", str(rng.randint(1, 6)),
                "--input", rng.choice(tuple(QUBIT_INPUTS))], {}
    if form == "circuit_manifest":
        return ["circuit", "--kind", rng.choice(tuple(BUILDERS)), "--m", str(rng.randint(1, 3)),
                "--manifest"], {}
    if form == "ozawa_model":
        state = (rng.choice(tuple(QUBIT_INPUTS)) if rng.random() < 0.5
                 else {"amplitudes": _pairs(_unit(nrng, 2))})
        scen = {"model": {"kind": rng.choice(tuple(BUILDERS)), "m": rng.randint(1, 4)},
                "system_state": state}
        return ["ozawa", "{scenario}"], {"scenario": json.dumps(scen)}
    if form == "ozawa_bound":
        ds, da = rng.randint(2, 3), rng.randint(2, 4)
        l_mat = _random_hermitian(nrng, ds)
        scen = {"system_space": {"charges": list(range(ds)), "sector_dims": [1] * ds},
                "apparatus_space": {"charges": list(range(da)), "sector_dims": [1] * da},
                "L": [_pairs(row) for row in l_mat],
                "system_state": _pairs(_unit(nrng, ds)),
                "apparatus_state": _pairs(_unit(nrng, da))}
        return ["ozawa", "{scenario}"], {"scenario": json.dumps(scen)}
    raise ValueError(f"unknown CLI form {form!r}")


def cli_in_process(argv: list[str]) -> tuple[int, bytes]:
    """Run ``waylab.cli.main`` in this process; (exit code, stdout bytes)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode()


def cli_subprocess(argv: list[str]) -> tuple[int, bytes]:
    """Run ``python -m waylab`` in a fresh interpreter; (exit code, stdout bytes)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "waylab", *argv], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          timeout=OP_DEADLINE_S)
    return proc.returncode, proc.stdout


def _check_cli(key: str, digests: dict):
    want = digests.get(key)

    def check(out) -> str | None:
        code, stdout = out
        if want is None:
            return f"no recorded digest for {key}"
        if code != want["exit"]:
            return f"exit code {code}, expected {want['exit']}"
        if hashlib.sha256(stdout).hexdigest() != want["sha256"]:
            return "stdout differs from the recorded output"
        return None

    return check


def cli_cold(seed: int, in_process: bool = False) -> Workload:
    rng = _rng("cli_cold", seed)
    digests = json.loads(DIGESTS.read_text())
    workdir = BENCH / "out" / f"cli-inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = cli_in_process if in_process else cli_subprocess
    used: set = set()
    ops = []
    for form in CLI_FORMS + CLI_EXTRA:
        i = rng.choice([j for j in range(CLI_POOL_SIZE) if (form, j) not in used])
        used.add((form, i))
        argv, files = cli_variant(form, i)
        paths = {}
        for name, text in files.items():
            path = workdir / f"{form}-{i}-{name}.json"
            path.write_text(text)
            paths[name] = str(path)
        argv = [a.format(**paths) for a in argv]
        key = f"{form}/{i}"
        ops.append(Op(f"cli.{form}", (lambda argv=argv: runner(argv)), _check_cli(key, digests)))
    rng.shuffle(ops)

    def cleanup():
        for path in workdir.glob("*.json"):
            path.unlink()
        workdir.rmdir()

    return Workload(ops, ops[0], cleanup)


WORKLOADS = {"readout": readout, "convert_sweep": convert_sweep,
             "circuits": circuits_workload, "cli_cold": cli_cold}
