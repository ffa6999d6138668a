import dataclasses
import math

import numpy as np
import pytest

from conftest import random_density, random_pure
from oracles import (dense_global_effects, mle_trace_norm_success,
                     random_projective_success, ud_grid_search)
from waylab.discrimination import (Criterion, Ensemble, SectorPovm,
                                   discriminate, mle_two_states,
                                   perfect_discrimination_possible,
                                   raynal_reduce, ud_two_states)
from waylab.graded import (GradedSpace, NumericalError, coherent_state, g_twirl,
                           opt_phase_state, uniform_state)
from waylab.models import twirled_pair_ensemble

QUBIT = GradedSpace.qubit()


def coherent_sector_states(nbar, n):
    """The two projected pure states of total-charge sector n, explicitly."""
    v_p = np.array([math.sqrt(nbar), math.sqrt(n)]) / math.sqrt(nbar + n)
    v_m = np.array([math.sqrt(nbar), -math.sqrt(n)]) / math.sqrt(nbar + n)
    return np.outer(v_p, v_p), np.outer(v_m, v_m)


def twirled_qubit_pair():
    plus = np.array([1, 1]) / math.sqrt(2)
    minus = np.array([1, -1]) / math.sqrt(2)
    return Ensemble(((0.5, g_twirl(np.outer(plus, plus), QUBIT)),
                     (0.5, g_twirl(np.outer(minus, minus), QUBIT))))


class TestRaynalReduce:
    def test_uniform_resource_sectors(self):
        _, ensemble = twirled_pair_ensemble(uniform_state(2))
        sectors = {s.charge: s for s in raynal_reduce(ensemble)}
        assert set(sectors) == {0, 1, 2, 3}
        # edge sectors: identical one-dimensional projections
        for n in (0, 3):
            s = sectors[n]
            assert s.weight == pytest.approx(1.0 / 6.0)
            assert np.allclose(s.states[0], s.states[1])
        # interior sectors: orthogonal pure states
        for n in (1, 2):
            s = sectors[n]
            assert s.weight == pytest.approx(1.0 / 3.0)
            assert abs(np.trace(s.states[0] @ s.states[1])) < 1e-12

    def test_weights_sum_to_one(self):
        _, ensemble = twirled_pair_ensemble(uniform_state(4))
        assert sum(s.weight for s in raynal_reduce(ensemble)) == pytest.approx(1.0)

    def test_single_sector_passthrough(self, rng):
        sp = GradedSpace((2,), (3,))
        rho_a = random_density(rng, 3)
        rho_b = random_density(rng, 3)
        ens = Ensemble(((0.3, g_twirl(rho_a, sp)), (0.7, g_twirl(rho_b, sp))))
        (sec,) = raynal_reduce(ens)
        assert sec.charge == 2
        assert sec.weight == pytest.approx(1.0)
        assert np.allclose(sec.states[0], rho_a)
        assert sec.priors == pytest.approx((0.3, 0.7))

    def test_coherent_sector_weights(self):
        from waylab.graded import coherent_state
        alpha = 1.0
        _, ensemble = twirled_pair_ensemble(coherent_state(alpha, 1e-12))
        sectors = {s.charge: s for s in raynal_reduce(ensemble)}
        for n in range(1, 6):
            expected = 0.5 * math.exp(-1.0) * (1 / math.factorial(n)
                                               + 1 / math.factorial(n - 1))
            assert sectors[n].weight == pytest.approx(expected, abs=1e-12)

    def test_inconsistent_spaces_rejected(self):
        a = g_twirl(np.diag([1.0, 0.0]), QUBIT)
        b = g_twirl(np.diag([1.0, 0.0, 0.0]), GradedSpace.ladder(2))
        with pytest.raises(ValueError):
            Ensemble(((0.5, a), (0.5, b)))


class TestUdTwoStates:
    @pytest.mark.parametrize("nbar,n", [(1.0, 1), (1.0, 2), (1.0, 5),
                                        (4.0, 1), (4.0, 3), (4.0, 4), (4.0, 9),
                                        (0.25, 1), (6.5, 6)])
    def test_coherent_sector_success_branches(self, nbar, n):
        rho_p, rho_m = coherent_sector_states(nbar, n)
        povm, success = ud_two_states(rho_p, rho_m, (0.5, 0.5))
        expected = 2 * min(n, nbar) / (n + nbar)
        assert success == pytest.approx(expected, abs=1e-12)
        # equal priors and symmetric states: equal weights on both effects
        a = np.trace(povm.plus).real
        b = np.trace(povm.minus).real
        assert a == pytest.approx(b, abs=1e-10)

    def test_orthogonal_pure_states_perfect(self):
        v1 = np.array([1, 1]) / math.sqrt(2)
        v2 = np.array([1, -1]) / math.sqrt(2)
        povm, success = ud_two_states(np.outer(v1, v1), np.outer(v2, v2), (0.5, 0.5))
        assert success == pytest.approx(1.0)
        assert np.allclose(povm.fail, 0.0, atol=1e-12)

    def test_orthogonal_mixed_any_dimension(self, rng):
        rho_p = np.zeros((4, 4), dtype=complex)
        rho_m = np.zeros((4, 4), dtype=complex)
        rho_p[:2, :2] = random_density(rng, 2)
        rho_m[2:, 2:] = random_density(rng, 2)
        povm, success = ud_two_states(rho_p, rho_m, (0.4, 0.6))
        assert success == pytest.approx(1.0)

    def test_identical_states_all_fail(self, rng):
        rho = random_density(rng, 2)
        povm, success = ud_two_states(rho, rho, (0.5, 0.5))
        assert success == 0.0
        assert np.allclose(povm.fail, np.eye(2))

    def test_no_error_condition(self, rng):
        for _ in range(40):
            v1, v2 = random_pure(rng, 2), random_pure(rng, 2)
            rho_p, rho_m = np.outer(v1, v1.conj()), np.outer(v2, v2.conj())
            pr = rng.random()
            povm, _ = ud_two_states(rho_p, rho_m, (pr, 1 - pr))
            assert abs(np.trace(povm.plus @ rho_m)) < 1e-9
            assert abs(np.trace(povm.minus @ rho_p)) < 1e-9

    def test_povm_validity(self, rng):
        for _ in range(40):
            v1, v2 = random_pure(rng, 2), random_pure(rng, 2)
            pr = rng.random()
            povm, _ = ud_two_states(np.outer(v1, v1.conj()), np.outer(v2, v2.conj()),
                                    (pr, 1 - pr))
            total = sum(povm.effects().values())
            assert np.allclose(total, np.eye(2), atol=1e-9)

    def test_matches_grid_search(self, rng):
        for _ in range(25):
            v1, v2 = random_pure(rng, 2), random_pure(rng, 2)
            rho_p, rho_m = np.outer(v1, v1.conj()), np.outer(v2, v2.conj())
            pr = 0.2 + 0.6 * rng.random()
            _, success = ud_two_states(rho_p, rho_m, (pr, 1 - pr))
            grid = ud_grid_search(rho_p, rho_m, (pr, 1 - pr))
            assert success == pytest.approx(grid, abs=1e-6)

    def test_rejects_full_rank_overlapping(self, rng):
        rho_p = random_density(rng, 2)       # full rank almost surely
        rho_m = random_density(rng, 2)
        with pytest.raises(ValueError, match="unsupported UD structure"):
            ud_two_states(rho_p, rho_m, (0.5, 0.5))

    def test_rejects_large_overlapping(self, rng):
        rho_p = random_density(rng, 3, rank=1)
        rho_m = random_density(rng, 3, rank=1)
        with pytest.raises(ValueError, match="unsupported UD structure"):
            ud_two_states(rho_p, rho_m, (0.5, 0.5))


class TestMleTwoStates:
    @pytest.mark.parametrize("nbar,n", [(1.0, 1), (1.0, 4), (4.0, 2), (4.0, 4),
                                        (9.0, 9), (2.5, 7)])
    def test_coherent_sector_closed_form(self, nbar, n):
        rho_p, rho_m = coherent_sector_states(nbar, n)
        _, success = mle_two_states(rho_p, rho_m, (0.5, 0.5))
        assert success == pytest.approx(0.5 + math.sqrt(n * nbar) / (n + nbar),
                                        abs=1e-12)

    def test_identical_states_guess_majority(self, rng):
        rho = random_density(rng, 3)
        _, success = mle_two_states(rho, rho, (0.3, 0.7))
        assert success == pytest.approx(0.7)

    def test_orthogonal_states_perfect(self):
        _, success = mle_two_states(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                                    (0.5, 0.5))
        assert success == pytest.approx(1.0)

    def test_matches_trace_norm(self, rng):
        for dim in (2, 3, 4):
            for _ in range(15):
                rho_p, rho_m = random_density(rng, dim), random_density(rng, dim)
                pr = rng.random()
                _, success = mle_two_states(rho_p, rho_m, (pr, 1 - pr))
                assert success == pytest.approx(
                    mle_trace_norm_success(rho_p, rho_m, (pr, 1 - pr)), abs=1e-9)

    def test_beats_random_projective(self, rng):
        rho_p, rho_m = random_density(rng, 4), random_density(rng, 4)
        _, success = mle_two_states(rho_p, rho_m, (0.5, 0.5))
        best_random = random_projective_success(rho_p, rho_m, (0.5, 0.5), rng)
        assert success >= best_random - 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mle_two_states(np.eye(2) / 2, np.eye(3) / 3, (0.5, 0.5))


class TestDiscriminate:
    @pytest.mark.parametrize("m", [1, 2, 5, 12])
    def test_uniform_ud(self, m):
        _, ensemble = twirled_pair_ensemble(uniform_state(m))
        res = discriminate(ensemble, Criterion.UD)
        assert res.success_prob == pytest.approx(m / (m + 1), abs=1e-12)
        assert res.fail_prob == pytest.approx(1 / (m + 1), abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5, 12])
    def test_uniform_mle_helstrom(self, m):
        _, ensemble = twirled_pair_ensemble(uniform_state(m))
        res = discriminate(ensemble, Criterion.MLE)
        assert res.success_prob == pytest.approx((2 * m + 1) / (2 * m + 2), abs=1e-12)

    def test_coherent_ud_closed_form(self):
        from waylab.graded import coherent_state
        from waylab.models import coherent_ud_success
        _, ensemble = twirled_pair_ensemble(coherent_state(1.0, 1e-12))
        res = discriminate(ensemble, Criterion.UD)
        assert res.success_prob == pytest.approx(coherent_ud_success(1.0), abs=1e-10)
        assert res.success_prob == pytest.approx(1 - math.exp(-1.0), abs=1e-10)

    def test_global_povm_direct_sum_consistency(self):
        # evaluating the assembled global POVM on the unprojected states must
        # reproduce the weighted per-sector success
        from waylab.graded import coherent_state
        _, ensemble = twirled_pair_ensemble(coherent_state(1.3, 1e-12))
        for criterion in Criterion:
            res = discriminate(ensemble, criterion)
            direct = 0.0
            for (prior, st), label in zip(ensemble.items, ("plus", "minus")):
                eff = res.global_effects[label]
                direct += prior * np.real(np.trace(eff @ st.to_dense()))
            assert direct == pytest.approx(res.success_prob, abs=1e-9)

    def test_global_povm_complete(self):
        _, ensemble = twirled_pair_ensemble(uniform_state(3))
        for criterion in Criterion:
            res = discriminate(ensemble, criterion)
            total = sum(res.global_effects.values())
            assert np.allclose(total, np.eye(ensemble.space.total_dim), atol=1e-10)
            for eff in res.global_effects.values():
                assert np.linalg.eigvalsh(eff)[0] > -1e-10

    @pytest.mark.parametrize("criterion", list(Criterion))
    @pytest.mark.parametrize("resource", [
        uniform_state, opt_phase_state,
        lambda i: coherent_state(0.1 + 0.15 * (i - 1), 1e-12),
    ], ids=["uniform", "opt_phase", "coherent"])
    def test_global_effects_match_dense_assembly(self, resource, criterion):
        # the blockwise spare correction must reproduce the dense assembly bit
        # for bit, round-off corrections in kept sectors included
        for i in range(1, 41):
            _, ensemble = twirled_pair_ensemble(resource(i))
            res = discriminate(ensemble, criterion)
            got, want = res.global_effects, dense_global_effects(res)
            assert list(got) == list(want)
            for label in want:
                assert got[label].tobytes() == want[label].tobytes(), (i, label)

    def test_ud_no_error_globally(self):
        _, ensemble = twirled_pair_ensemble(uniform_state(4))
        res = discriminate(ensemble, Criterion.UD)
        (p_plus, rho_plus), (p_minus, rho_minus) = ensemble.items
        assert abs(np.trace(res.global_effects["plus"] @ rho_minus.to_dense())) < 1e-9
        assert abs(np.trace(res.global_effects["minus"] @ rho_plus.to_dense())) < 1e-9

    def test_success_equals_weighted_sector_sum(self):
        from waylab.graded import coherent_state
        _, ensemble = twirled_pair_ensemble(coherent_state(2.0, 1e-12))
        res = discriminate(ensemble, Criterion.MLE)
        acc = sum(w * s for _, w, s, _ in res.per_sector)
        assert acc == pytest.approx(res.success_prob, abs=1e-12)

    def test_zero_weight_sector_dropped_but_povm_complete(self):
        # no ensemble member touches charge 2; the sector is omitted from the
        # reduction yet the assembled POVM still resolves the identity there
        sp = GradedSpace.ladder(2)
        rho_a = np.diag([1.0, 0.0, 0.0]).astype(complex)
        rho_b = np.diag([0.0, 1.0, 0.0]).astype(complex)
        ens = Ensemble(((0.5, g_twirl(rho_a, sp)), (0.5, g_twirl(rho_b, sp))))
        for criterion in Criterion:
            res = discriminate(ens, criterion)
            charges = [c for c, _, _, _ in res.per_sector]
            assert 2 not in charges
            total = sum(res.global_effects.values())
            assert np.allclose(total, np.eye(3), atol=1e-12)
            assert res.success_prob == pytest.approx(1.0)
            spare = res.global_effects["fail" if criterion is Criterion.UD else "plus"]
            assert spare[2, 2] == 1.0

    def test_ud_never_beats_mle(self, rng):
        # merging the inconclusive outcome into either answer turns a UD POVM
        # into a two-outcome strategy, so the Helstrom value dominates
        from waylab.graded import coherent_state, opt_phase_state
        resources = [uniform_state(3), coherent_state(1.2, 1e-10),
                     opt_phase_state(4)]
        for resource in resources:
            _, ens = twirled_pair_ensemble(resource)
            ud = discriminate(ens, Criterion.UD).success_prob
            mle = discriminate(ens, Criterion.MLE).success_prob
            assert ud <= mle + 1e-12

    @pytest.mark.parametrize("field, match", [
        ("success_prob", "sector sum"),
        ("fail_prob", "account for 1"),
    ])
    def test_inconsistent_result_is_numerical_error(self, field, match):
        _, ensemble = twirled_pair_ensemble(uniform_state(3))
        res = discriminate(ensemble, Criterion.UD)
        with pytest.raises(NumericalError, match=match):
            dataclasses.replace(res, **{field: getattr(res, field) + 1e-6})

    def test_only_binary_supported(self):
        sp = GradedSpace.ladder(1)
        st_ = g_twirl(np.diag([1.0, 0.0]), sp)
        with pytest.raises(ValueError):
            discriminate(Ensemble(((0.4, st_), (0.3, st_), (0.3, st_))),
                         Criterion.UD)


class TestPerfectDiscrimination:
    def test_no_resource_qubit_pair(self):
        assert not perfect_discrimination_possible(twirled_qubit_pair())

    def test_number_eigenstates(self):
        ens = Ensemble(((0.5, g_twirl(np.diag([1.0, 0.0]), QUBIT)),
                        (0.5, g_twirl(np.diag([0.0, 1.0]), QUBIT))))
        assert perfect_discrimination_possible(ens)

    def test_commuting_observable_eigenstates(self, rng):
        # eigenstates of an observable commuting with N are sector-supported
        sp = GradedSpace((0, 1), (2, 1))
        u = np.zeros((3, 3), dtype=complex)
        from conftest import random_unitary
        u[:2, :2] = random_unitary(rng, 2)
        u[2, 2] = 1.0
        states = [g_twirl(np.outer(u[:, k], u[:, k].conj()), sp) for k in range(3)]
        ens = Ensemble(tuple((1 / 3, s) for s in states))
        assert perfect_discrimination_possible(ens)


class TestSectorPovm:
    def test_effects_must_be_complete(self):
        with pytest.raises(ValueError):
            SectorPovm(0, np.diag([0.5, 0.0]), np.diag([0.0, 0.5]))

    def test_effects_must_be_psd(self):
        with pytest.raises(ValueError):
            SectorPovm(0, np.diag([1.5, 1.0]), np.diag([-0.5, 0.0]))
