"""Acceptance gate: one test (or a small group) per numbered criterion.

Each criterion prints a PASS/FAIL line (visible with ``pytest -s`` or on
failure).  Three sub-criteria pin reference values that are provably not the
optima of the problems they describe (the xfail reasons carry the analysis);
they are implemented exactly as stated, marked ``xfail(strict=True)``, and
each is paired with a passing companion that pins the verified value at the
same tolerance.

The full file takes a few minutes; criterion 9 sweeps all 330^2 deduplicated
distribution pairs through the LP.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_density, random_hermitian
from oracles import (convertible_exact, convolution_quotient,
                     simplex_grid_witness, supports_orthogonal)
from waylab.circuits import (PLUS_MINUS_OBSERVABLE, POINTER_VALUES,
                             build_mle_unitary, build_repeatable_variant,
                             build_ud_unitary, simulate_measurement,
                             verify_conservation, verify_yanase)
from waylab.convert import ChargeDistribution, deterministic_convertible
from waylab.discrimination import Criterion, discriminate
from waylab.graded import GradedSpace, Observable, g_twirl, tensor, uniform_state
from waylab.models import (Verdict, WayScenario, coherent_mle_success,
                           coherent_ud_success, coherent_ud_success_smooth,
                           coherent_model, opt_phase_model, ozawa_bound,
                           twirled_pair_ensemble, uniform_model, way_feasibility)

E_PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)
E_MINUS = np.array([1.0, -1.0]) / math.sqrt(2.0)
NBAR_GRID = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]


def report(criterion, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}][{tag}] {detail}")


# ---------------------------------------------------------------------------
# criterion 1: uniform resource, M = 1..30, UD and MLE, 1e-9, < 10 s
# ---------------------------------------------------------------------------

class TestCriterion1:
    def test_ud_equals_m_over_m_plus_one(self):
        t0 = time.time()
        worst = 0.0
        for m in range(1, 31):
            rep = uniform_model(m, Criterion.UD)
            worst = max(worst, abs(rep.success_numeric - m / (m + 1)))
        elapsed = time.time() - t0
        report("1(UD)", worst <= 1e-9 and elapsed < 10,
               f"max |P_UD - M/(M+1)| = {worst:.2e} over M=1..30 in {elapsed:.1f}s")
        assert worst <= 1e-9
        assert elapsed < 10

    @pytest.mark.xfail(strict=True,
                       reason="reference value is not the optimum: the two "
                              "identical edge sectors (total weight 1/(M+1)) "
                              "still win a coin flip under minimum-error "
                              "readout, so the Helstrom value is (2M+1)/(2M+2), "
                              "strictly above M/(M+1)")
    def test_mle_equals_m_over_m_plus_one_as_stated(self):
        worst = max(abs(uniform_model(m, Criterion.MLE).success_numeric - m / (m + 1))
                    for m in range(1, 31))
        report("1(MLE as stated)", worst <= 1e-9,
               f"max |P_MLE - M/(M+1)| = {worst:.2e} (target unattainable)")
        assert worst <= 1e-9

    def test_mle_equals_helstrom_closed_form(self):
        t0 = time.time()
        worst = max(abs(uniform_model(m, Criterion.MLE).success_numeric
                        - (2 * m + 1) / (2 * m + 2)) for m in range(1, 31))
        elapsed = time.time() - t0
        report("1(MLE corrected)", worst <= 1e-9 and elapsed < 10,
               f"max |P_MLE - (2M+1)/(2M+2)| = {worst:.2e} in {elapsed:.1f}s")
        assert worst <= 1e-9
        assert elapsed < 10


# ---------------------------------------------------------------------------
# criterion 2: coherent UD closed form on the nbar grid, 1e-8, < 30 s
# ---------------------------------------------------------------------------

class TestCriterion2:
    @pytest.fixture(scope="class")
    @staticmethod
    def ud_numeric():
        t0 = time.time()
        values = {nbar: coherent_model(math.sqrt(nbar), Criterion.UD).success_numeric
                  for nbar in NBAR_GRID}
        values["elapsed"] = time.time() - t0
        return values

    @pytest.mark.xfail(strict=True,
                       reason="reference value is not the optimum: the "
                              "Gamma-form curve exceeds the per-sector "
                              "conclusive sum, which telescopes exactly to "
                              "1 - exp(-nbar) nbar^floor(nbar)/floor(nbar)! "
                              "(no valid unambiguous protocol can exceed the "
                              "sector-wise optimum)")
    def test_matches_printed_gamma_form_as_stated(self, ud_numeric):
        worst = max(abs(ud_numeric[nbar] - coherent_ud_success_smooth(nbar))
                    for nbar in NBAR_GRID)
        report("2(as stated)", worst <= 1e-8,
               f"max |numeric - Gamma form| = {worst:.2e} (target unattainable)")
        assert worst <= 1e-8

    def test_matches_exact_closed_form(self, ud_numeric):
        worst = max(abs(ud_numeric[nbar] - coherent_ud_success(nbar))
                    for nbar in NBAR_GRID)
        ok = worst <= 1e-8 and ud_numeric["elapsed"] < 30
        report("2(corrected)", ok,
               f"max |numeric - exact closed form| = {worst:.2e} "
               f"in {ud_numeric['elapsed']:.1f}s")
        assert worst <= 1e-8
        assert ud_numeric["elapsed"] < 30


# ---------------------------------------------------------------------------
# criterion 3: Stirling asymptotic at nbar = 100, < 60 s
# ---------------------------------------------------------------------------

def test_criterion3_stirling_asymptotic():
    t0 = time.time()
    rep = coherent_model(10.0, Criterion.UD)
    stirling = 1.0 - 1.0 / math.sqrt(2.0 * math.pi * 100.0)
    rel = abs(rep.success_numeric - stirling) / (1.0 - rep.success_numeric)
    elapsed = time.time() - t0
    report("3", rel <= 0.02 and elapsed < 60,
           f"relative deviation {rel:.4%} at nbar=100 in {elapsed:.1f}s")
    assert rel <= 0.02
    assert elapsed < 60


# ---------------------------------------------------------------------------
# criterion 4: coherent MLE closed form (1e-8) and per-sector values (1e-10)
# ---------------------------------------------------------------------------

class TestCriterion4:
    def test_sector_sum_matches_series(self):
        worst = 0.0
        for nbar in NBAR_GRID:
            rep = coherent_model(math.sqrt(nbar), Criterion.MLE)
            worst = max(worst, abs(rep.success_numeric - coherent_mle_success(nbar)))
        report("4(series)", worst <= 1e-8, f"max |numeric - series| = {worst:.2e}")
        assert worst <= 1e-8

    def test_per_sector_closed_form(self):
        worst = 0.0
        for nbar in NBAR_GRID:
            rep = coherent_model(math.sqrt(nbar), Criterion.MLE)
            cutoff = max(c for c, _, _ in rep.per_sector) - 1
            for charge, _, success in rep.per_sector:
                if 1 <= charge <= min(50, cutoff):
                    expected = 0.5 + math.sqrt(charge * nbar) / (charge + nbar)
                    worst = max(worst, abs(success - expected))
        report("4(per-sector)", worst <= 1e-10,
               f"max per-sector deviation = {worst:.2e} for n <= 50")
        assert worst <= 1e-10


# ---------------------------------------------------------------------------
# criterion 5: matched-mean ordering and the sine-profile asymptotic
# ---------------------------------------------------------------------------

class TestCriterion5:
    @pytest.fixture(scope="class")
    @staticmethod
    def mle_by_mean():
        out = {}
        for mean_n in (1, 2, 4, 8):
            out[mean_n] = {
                "coherent": coherent_model(math.sqrt(mean_n), Criterion.MLE).success_numeric,
                "uniform": uniform_model(2 * mean_n, Criterion.MLE).success_numeric,
                "opt_phase": opt_phase_model(2 * mean_n).success_numeric,
            }
        return out

    @pytest.mark.xfail(strict=True,
                       reason="the claimed ordering does not hold at small "
                              "mean charge: the unbounded coherent resource "
                              "beats the bounded sine profile until their "
                              "error curves cross near mean 7.75 "
                              "(pi^2/(16(x+1)^2) vs ~1/(16x))")
    def test_ordering_as_stated(self, mle_by_mean):
        ok = all(v["opt_phase"] > v["coherent"] > v["uniform"]
                 for v in mle_by_mean.values())
        report("5(ordering as stated)", ok,
               "opt > coherent > uniform claimed at mean 1,2,4,8 "
               "(holds only at 8)")
        assert ok

    def test_ordering_observed(self, mle_by_mean):
        ok = all(mle_by_mean[x]["coherent"] > mle_by_mean[x]["opt_phase"]
                 > mle_by_mean[x]["uniform"] for x in (1, 2, 4))
        ok = ok and (mle_by_mean[8]["opt_phase"] > mle_by_mean[8]["coherent"]
                     > mle_by_mean[8]["uniform"])
        report("5(observed ordering)", ok,
               "coherent > opt_phase > uniform at mean 1,2,4; "
               "opt_phase > coherent > uniform at 8")
        assert ok

    def test_opt_phase_asymptotic(self):
        worst = 0.0
        for m in (10, 20, 30):
            err = 1.0 - opt_phase_model(m).success_numeric
            asym = math.pi ** 2 / (4.0 * (m + 2) ** 2)
            worst = max(worst, abs(err - asym) / asym)
        report("5(asymptotic)", worst <= 0.10,
               f"max relative asymptote deviation = {worst:.2%} for M=10,20,30")
        assert worst <= 0.10


# ---------------------------------------------------------------------------
# criterion 6: WAY feasibility vs brute-force support oracle, 200 instances
# ---------------------------------------------------------------------------

def test_criterion6_way_property_suite():
    rng = np.random.default_rng(6021023)
    checked = 0
    discrepancies = 0
    while checked < 200:
        dim = int(rng.integers(2, 5))
        space = GradedSpace.from_charge_list(rng.integers(0, 4, size=dim))
        if rng.random() < 0.25:
            # commuting case: block-diagonal Hermitian within charge sectors
            l_mat = np.zeros((dim, dim), dtype=complex)
            for n in space.charges:
                sl = space.slice_of(n)
                l_mat[sl, sl] = random_hermitian(rng, space.dim_of(n))
        else:
            l_mat = random_hermitian(rng, dim)
        vals = np.linalg.eigvalsh(l_mat)
        if dim > 1 and np.min(np.diff(vals)) < 1e-6:
            continue
        prior = rng.random(dim) * (rng.random(dim) > 0.3)
        if prior.sum() <= 0:
            prior = np.ones(dim)
        prior /= prior.sum()
        scenario = WayScenario(space, Observable(space, l_mat), tuple(prior))
        verdict, ensemble = way_feasibility(scenario)

        dense = [st.to_dense() for _, st in ensemble.items]
        nop = np.diag(space.charge_labels().astype(float))
        commutes = np.max(np.abs(l_mat @ nop - nop @ l_mat)) < 1e-10
        oracle = all(supports_orthogonal(a, b)
                     for i, a in enumerate(dense) for b in dense[i + 1:])
        if commutes and not oracle:
            raise AssertionError("commuting observable must twirl to orthogonal supports")
        if (verdict is Verdict.PERFECT) != oracle:
            discrepancies += 1
        checked += 1
    report("6", discrepancies == 0,
           f"{checked} random instances, {discrepancies} oracle discrepancies")
    assert discrepancies == 0


# ---------------------------------------------------------------------------
# criterion 7: circuit verification, M = 1..10
# ---------------------------------------------------------------------------

class TestCriterion7:
    def test_structure_and_statistics(self):
        rng = np.random.default_rng(70707)
        worst_struct = 0.0
        worst_stats = 0.0
        for m in range(1, 11):
            resource = uniform_state(m)
            tm = tensor(resource.space, GradedSpace.qubit())
            _, ensemble = twirled_pair_ensemble(resource)
            res_ref = np.outer(resource.amplitudes, resource.amplitudes.conj())
            for builder, criterion in ((build_ud_unitary, Criterion.UD),
                                       (build_mle_unitary, Criterion.MLE)):
                model = builder(m)
                u = model.unitary.matrix
                worst_struct = max(
                    worst_struct,
                    float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))),
                    verify_conservation(model.unitary),
                    verify_yanase(model))
                povm = discriminate(ensemble, criterion).global_effects
                for _ in range(50):
                    rho_sys = random_density(rng, 2)
                    joint = tm.matrix(np.kron(res_ref, rho_sys))
                    twirled = g_twirl(joint, tm.space).to_dense()
                    outcomes = simulate_measurement(model, rho_sys)
                    for label, eff in povm.items():
                        expected = float(np.real(np.trace(eff @ twirled)))
                        worst_stats = max(worst_stats,
                                          abs(outcomes[label][0] - expected))
        report("7(structure)", worst_struct <= 1e-10,
               f"max unitarity/conservation/Yanase norm = {worst_struct:.2e}")
        report("7(statistics)", worst_stats <= 1e-9,
               f"max |circuit - POVM| probability = {worst_stats:.2e} "
               "(50 random inputs per model, M=1..10)")
        assert worst_struct <= 1e-10
        assert worst_stats <= 1e-9

    def test_repeatable_fidelity(self):
        worst = 1.0
        for m in range(1, 11):
            model = build_repeatable_variant(m)
            assert verify_conservation(model.unitary) <= 1e-10
            assert verify_yanase(model) <= 1e-10
            for vec, label in ((E_PLUS, "plus"), (E_MINUS, "minus")):
                _, post = simulate_measurement(model, np.outer(vec, vec))[label]
                worst = min(worst, float(np.real(vec.conj() @ post @ vec)))
        report("7(repeatable)", worst >= 1 - 1e-9,
               f"max success-conditioned fidelity deficit = {1 - worst:.2e}")
        assert worst >= 1 - 1e-9


# ---------------------------------------------------------------------------
# criterion 8: Ozawa inequality on random product inputs
# ---------------------------------------------------------------------------

def test_criterion8_ozawa_inequality():
    rng = np.random.default_rng(808808)
    qubit = GradedSpace.qubit()
    obs = Observable(qubit, PLUS_MINUS_OBSERVABLE)
    n_s = np.diag([0.0, 1.0])
    comm = PLUS_MINUS_OBSERVABLE @ n_s - n_s @ PLUS_MINUS_OBSERVABLE
    violations = 0
    worst_margin = np.inf
    for builder in (build_ud_unitary, build_mle_unitary, build_repeatable_variant):
        for m in range(1, 11):
            model = builder(m)
            v = model.unitary.matrix
            l_full = model.system_operator_full(PLUS_MINUS_OBSERVABLE)
            zreg = sum(POINTER_VALUES[label] * mask
                       for label, mask in model.pointer.items())
            z_full = np.diag(zreg[model.composite.kron_index % zreg.size])
            noise_op = v.conj().T @ z_full @ v - l_full
            noise_sq = noise_op @ noise_op
            app = model.apparatus
            app_rho = app.pure(*(model.init[i] for i in model.apparatus_wires())).density()
            app_n = np.diag(app.space.charge_labels().astype(float))
            var_a = (np.real(np.trace(app_n @ app_n @ app_rho))
                     - np.real(np.trace(app_n @ app_rho)) ** 2)
            # cross-check the precomputed denominator against the public op once
            probe = random_density(rng, 2)
            direct = ozawa_bound(obs, app.space, np.kron(probe, app_rho))
            for _ in range(100):
                rho = random_density(rng, 2)
                num = abs(np.trace(comm @ rho)) ** 2
                var_s = (np.real(np.trace(n_s @ n_s @ rho))
                         - np.real(np.trace(n_s @ rho)) ** 2)
                bound = num / (4.0 * var_s + 4.0 * var_a)
                noise = float(np.real(np.trace(noise_sq
                                               @ model.initial_density_full(rho))))
                worst_margin = min(worst_margin, noise - bound)
                if noise < bound - 1e-10:
                    violations += 1
            probe_num = abs(np.trace(comm @ probe)) ** 2
            probe_var = (np.real(np.trace(n_s @ n_s @ probe))
                         - np.real(np.trace(n_s @ probe)) ** 2)
            assert direct == pytest.approx(probe_num / (4 * probe_var + 4 * var_a),
                                           abs=1e-12)
    report("8", violations == 0,
           f"0 violations target; got {violations}; worst margin {worst_margin:.2e} "
           "(3 model families, M=1..10, 100 product inputs each)")
    assert violations == 0
    assert worst_margin >= -1e-10


# ---------------------------------------------------------------------------
# criterion 9: convertibility vs exhaustive oracle on the 1/8 grid
# ---------------------------------------------------------------------------

def _eighth_grid_canonical():
    """All support-in-{0..4} distributions on the 1/8 grid, deduplicated by
    translating the minimum of the support to zero."""
    seen = set()
    out = []
    for parts in itertools.product(range(9), repeat=4):
        if sum(parts) > 8:
            continue
        parts = parts + (8 - sum(parts),)
        support = [i for i, u in enumerate(parts) if u]
        lo = support[0]
        key = tuple((i - lo, u) for i, u in enumerate(parts) if u)
        if key in seen:
            continue
        seen.add(key)
        out.append({i - lo: u for i, u in enumerate(parts) if u})
    return out


class TestCriterion9:
    def test_section_examples(self):
        uniform4 = ChargeDistribution({0: .25, 1: .25, 2: .25, 3: .25})
        asbit = ChargeDistribution({0: .5, 1: .5})
        gapped = ChargeDistribution({1: .5, 3: .5})
        wide = ChargeDistribution({0: .5, 3: .5})
        results = (deterministic_convertible(uniform4, asbit).feasible,
                   deterministic_convertible(uniform4, gapped).feasible,
                   deterministic_convertible(uniform4, wide).feasible)
        report("9(examples)", results == (True, True, False),
               f"uniform4 -> asbit/gapped/wide: {results}")
        assert results == (True, True, False)

    def test_full_pair_sweep_matches_oracle(self):
        t0 = time.time()
        units = _eighth_grid_canonical()
        dists = [ChargeDistribution({n: u / 8 for n, u in d.items()}) for d in units]
        fracs = [{n: Fraction(u, 8) for n, u in d.items()} for d in units]
        floats = [{n: u / 8 for n, u in d.items()} for d in units]
        mismatches = 0
        cert_failures = 0
        witness_conflicts = 0
        feasible_count = 0
        for i, j in itertools.product(range(len(dists)), repeat=2):
            cert = deterministic_convertible(dists[i], dists[j])
            exact = convertible_exact(fracs[i], fracs[j])
            if cert.feasible != exact:
                mismatches += 1
                continue
            if cert.feasible:
                feasible_count += 1
                quotient = convolution_quotient(fracs[i], fracs[j])
                for k, wk in quotient.items():
                    got = cert.weights.get(k, 0.0)
                    if abs(got - float(wk)) > 1e-6:
                        cert_failures += 1
                        break
                # a quotient on the 1/8 grid must be found by the grid search
                if all(w.denominator <= 8 for w in quotient.values()):
                    if not simplex_grid_witness(floats[i], floats[j]):
                        witness_conflicts += 1
            else:
                if simplex_grid_witness(floats[i], floats[j]):
                    witness_conflicts += 1
        elapsed = time.time() - t0
        ok = mismatches == 0 and cert_failures == 0 and witness_conflicts == 0
        report("9(sweep)", ok,
               f"{len(dists)}^2 = {len(dists)**2} pairs in {elapsed:.0f}s: "
               f"{mismatches} oracle mismatches, {cert_failures} bad certificates, "
               f"{witness_conflicts} grid-witness conflicts "
               f"({feasible_count} feasible pairs)")
        assert mismatches == 0
        assert cert_failures == 0
        assert witness_conflicts == 0


# ---------------------------------------------------------------------------
# criterion 10: CLI determinism
# ---------------------------------------------------------------------------

def test_criterion10_cli_determinism(tmp_path):
    state = {"charges": [0, 1], "sector_dims": [1, 1],
             "amplitudes": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]}
    state_path = tmp_path / "eplus.json"
    state_path.write_text(json.dumps(state))
    cases = [
        ("twirl", str(state_path)),
        ("discriminate", "--resource", "coherent", "--param", "1.5",
         "--criterion", "mle"),
        ("curves", "--figure", "fig3", "--grid", "1,2,4"),
        ("circuit", "--kind", "ud", "--m", "4", "--input", "e+"),
    ]
    identical = True
    for case in cases:
        runs = [subprocess.run([sys.executable, "-m", "waylab", *case],
                               capture_output=True, text=True) for _ in range(2)]
        assert all(r.returncode == 0 for r in runs)
        if runs[0].stdout != runs[1].stdout or not runs[0].stdout:
            identical = False
    report("10", identical, f"{len(cases)} commands, byte-identical reruns")
    assert identical
