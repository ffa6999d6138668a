"""Asymmetry measures and covariant state convertibility.

For pure states, deterministic convertibility under U(1)-covariant operations
depends only on the charge distributions p and q: the source converts to the
target iff p is a mixture of integer translates of q,

    p = sum_k w_k T^(k) q,   w_k >= 0,  sum_k w_k = 1,

where T^(k) shifts a distribution's support up by k.  The mixture is a
convolution p = w * q.  Supports add under convolution, so every solution w
lives on the shifts [min p - min q, max p - max q]; on that window the
translate matrix is banded Toeplitz with full column rank, and one
least-squares solve decides the pair.  A HiGHS LP over the wider shift window
runs only when a certificate's ``residual`` is read, which is what
``waylab convert`` prints.

The verdict is the window's: feasible iff its clipped least-squares weights
reproduce p to within ``FEASIBILITY_TOL`` in L1.  Within a small factor of
that tolerance it can differ from a verdict taken from the LP, in either
direction: the least-squares fit is not the L1 optimum, and HiGHS is accurate
only to its own 1e-7 tolerances.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graded import EPS_NUM, NumericalError, PureState, _integers, _require

FEASIBILITY_TOL = 1e-8

__all__ = [
    "FEASIBILITY_TOL",
    "ChargeDistribution",
    "ConversionCertificate",
    "Comparison",
    "charge_distribution",
    "variance_measure",
    "frameness_entropy",
    "deterministic_convertible",
    "stochastic_reachable_from_uniform",
    "compare",
]


@dataclass(frozen=True)
class ChargeDistribution:
    """Probability distribution over integer charges (finite support)."""

    probs: dict[int, float]

    def __post_init__(self):
        clean: dict[int, float] = {}
        for n, p in zip(_integers(self.probs, "charge"), self.probs.values()):
            p = float(p)
            if not math.isfinite(p):
                raise ValueError(f"non-finite probability at charge {n}")
            _require(-p, EPS_NUM, f"negative probability at charge {n}")
            if p > 0.0:
                clean[n] = p
        if not clean:
            raise ValueError("distribution has empty support")
        _require(abs(math.fsum(clean.values()) - 1.0), EPS_NUM,
                 "probabilities do not sum to one")
        object.__setattr__(self, "probs", dict(sorted(clean.items())))

    def min_charge(self) -> int:
        return next(iter(self.probs))

    def max_charge(self) -> int:
        return next(reversed(self.probs))

    def as_vector(self, lo: int, hi: int) -> np.ndarray:
        """Dense probabilities on the index window lo..hi inclusive."""
        v = np.zeros(hi - lo + 1)
        for n, p in self.probs.items():
            if lo <= n <= hi:
                v[n - lo] = p
        return v


@dataclass(frozen=True)
class ConversionCertificate:
    """Outcome of a deterministic-convertibility query for the pair (p, q).

    ``weights`` (present iff feasible) are the translate weights w_k.
    ``residual`` is the best achievable L1 distance between p and a translate
    mixture of q; it is solved as an LP on first access.  The pair takes no
    part in equality or hashing, which cover the verdict and the weights.
    """

    feasible: bool
    weights: dict[int, float] | None = None
    p: ChargeDistribution | None = field(default=None, repr=False, compare=False)
    q: ChargeDistribution | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.feasible:
            if self.weights is None:
                raise ValueError("feasible certificate must carry weights")
            _require(-min(self.weights.values(), default=0.0), EPS_NUM,
                     "negative weight in certificate")
            _require(abs(math.fsum(self.weights.values()) - 1.0), EPS_NUM,
                     "weights do not sum to one")
        elif self.weights is not None:
            raise ValueError("infeasible certificate must not carry weights")

    @cached_property
    def residual(self) -> float:
        """HiGHS LP optimum of min ||p - sum_k w_k T^(k) q||_1 over the simplex.

        HiGHS stops at its own tolerances (1e-7), so near ``FEASIBILITY_TOL``
        its fit can be worse than a feasible certificate's weights; the
        residual is then the weights' L1 fit.  Raises :class:`NumericalError`
        when a feasible certificate is backed by neither, i.e. the LP and the
        weights both miss p by more than ``FEASIBILITY_TOL``.  An infeasible
        verdict is not checked: its clipped least-squares fit is not the L1
        optimum, so the LP can fit such a pair just within the tolerance.
        """
        if self.p is None or self.q is None:
            raise ValueError("certificate carries no pair to solve")
        residual = _lp_residual(self.p, self.q)
        if self.feasible and residual > FEASIBILITY_TOL:
            fit = _weights_residual(self.p, self.q, self.weights)
            _require(fit, FEASIBILITY_TOL,
                     f"convertibility solvers disagree: feasible verdict with LP "
                     f"residual {residual:.3g}; the weights' fit", NumericalError)
            residual = fit
        return residual


class Comparison(enum.Enum):
    A_TO_B = "a_to_b"
    B_TO_A = "b_to_a"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


def charge_distribution(state: PureState) -> ChargeDistribution:
    """p_n = squared norm of the state's component in sector n."""
    probs = {}
    for n in state.space.charges:
        w = float(np.sum(np.abs(state.sector_component(n)) ** 2))
        if w > 0.0:
            probs[n] = w
    return ChargeDistribution(probs)


def variance_measure(state: PureState) -> float:
    """Four times the variance of the number operator; an asymmetry monotone."""
    n, amps = state.space.charge_labels(), state.amplitudes
    mean = float(np.real(np.vdot(amps, n * amps)))
    second = float(np.real(np.vdot(amps, n * n * amps)))
    return 4.0 * max(second - mean ** 2, 0.0)


def frameness_entropy(state: PureState) -> float:
    """Shannon entropy (bits) of the charge distribution; an asymmetry monotone."""
    dist = charge_distribution(state)
    return -math.fsum(p * math.log2(p) for p in dist.probs.values() if p > 0.0)


def _translates(q: ChargeDistribution, nk: int) -> np.ndarray:
    """Banded Toeplitz matrix of ``nk`` columns; column k is q's vector moved down k rows."""
    qv = q.as_vector(q.min_charge(), q.max_charge())
    a = np.zeros((nk + qv.size - 1, nk))
    for k in range(nk):
        a[k:k + qv.size, k] = qv
    return a


def _mixture_matrix(p: ChargeDistribution, q: ChargeDistribution):
    """Translate matrix A[j, k] = q_{j-k} over every shift that overlaps p, and p
    on the same index window, which starts at min p - span q."""
    span_q = q.max_charge() - q.min_charge()
    a = _translates(q, p.max_charge() - p.min_charge() + span_q + 1)
    jlo = p.min_charge() - span_q
    return a, p.as_vector(jlo, jlo + a.shape[0] - 1)


def _lp_residual(p: ChargeDistribution, q: ChargeDistribution) -> float:
    """Best L1 fit of p by a translate mixture of q, as a bounded-variable LP in
    the standard slack formulation, solved by HiGHS."""
    # SciPy loads on the first LP solve, so that callers without one never pay for it
    from scipy.optimize import linprog

    a, pv = _mixture_matrix(p, q)
    nj, nk = a.shape
    cost = np.concatenate([np.zeros(nk), np.ones(nj)])
    a_ub = np.block([[a, -np.eye(nj)], [-a, -np.eye(nj)]])
    b_ub = np.concatenate([pv, -pv])
    a_eq = np.concatenate([np.ones(nk), np.zeros(nj)])[None, :]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * (nk + nj), method="highs")
    if not res.success:  # pragma: no cover - tiny LPs always solve
        raise NumericalError(f"LP solver failed: {res.message}")
    w = np.clip(res.x[:nk], 0.0, None)
    w /= w.sum()
    return float(np.abs(pv - a @ w).sum())


def _weights_residual(p: ChargeDistribution, q: ChargeDistribution,
                      weights: dict[int, float]) -> float:
    """L1 distance between p and the translate mixture sum_k w_k T^(k) q."""
    mix = dict.fromkeys(p.probs, 0.0)
    for k, wk in weights.items():
        for n, qn in q.probs.items():
            mix[n + k] = mix.get(n + k, 0.0) + wk * qn
    return math.fsum(abs(p.probs.get(n, 0.0) - m) for n, m in mix.items())


def deterministic_convertible(p: ChargeDistribution,
                              q: ChargeDistribution) -> ConversionCertificate:
    """Can the state with distribution p be converted deterministically to q?

    Any solution of p = w * q lies on the support-forced shift window
    [min p - min q, max p - max q], which is empty when q spans more charges
    than p.  On the window the translate matrix is banded Toeplitz with full
    column rank, so its least-squares solution is the unique candidate.  Its
    weights are clipped at zero and renormalized, and the pair is feasible iff
    they reproduce p to within ``FEASIBILITY_TOL`` in L1.  No LP runs here;
    reading the certificate's ``residual`` solves one.
    """
    span_p = p.max_charge() - p.min_charge()
    span_q = q.max_charge() - q.min_charge()
    if span_q > span_p:
        return ConversionCertificate(False, None, p, q)
    a = _translates(q, span_p - span_q + 1)
    pv = p.as_vector(p.min_charge(), p.max_charge())
    # a^T a is positive definite and a^T pv >= 0 is nonzero, so the solution
    # has a positive entry and the clipped weights a positive sum
    w = np.clip(np.linalg.lstsq(a, pv, rcond=None)[0], 0.0, None)
    w /= w.sum()
    if np.abs(pv - a @ w).sum() > FEASIBILITY_TOL:
        return ConversionCertificate(False, None, p, q)
    k0 = p.min_charge() - q.min_charge()
    weights = {k0 + k: float(wk) for k, wk in enumerate(w) if wk > 1e-12}
    return ConversionCertificate(True, weights, p, q)


def stochastic_reachable_from_uniform(max_charge: int,
                                      target: ChargeDistribution) -> bool:
    """Reachability (with some nonzero probability) from the uniform state.

    From the equal superposition over charges 0..M one can stochastically
    reach exactly the states whose support fits in a translated window of
    length M+1.
    """
    if max_charge < 0:
        raise ValueError("max_charge must be >= 0")
    return target.max_charge() - target.min_charge() <= max_charge


def compare(a: PureState, b: PureState) -> Comparison:
    """Position of two states in the deterministic-conversion partial order.

    Only the charge distributions matter for pure states; relative phases are
    ignored by construction.
    """
    pa, pb = charge_distribution(a), charge_distribution(b)
    ab = deterministic_convertible(pa, pb).feasible
    ba = deterministic_convertible(pb, pa).feasible
    if ab and ba:
        return Comparison.EQUIVALENT
    if ab:
        return Comparison.A_TO_B
    if ba:
        return Comparison.B_TO_A
    return Comparison.INCOMPARABLE
