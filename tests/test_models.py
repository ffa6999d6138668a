import dataclasses
import math
import signal

import numpy as np
import pytest

from conftest import random_density, random_hermitian, random_pure
from oracles import coherent_mle_log_series, supports_orthogonal
from waylab.discrimination import Criterion, perfect_discrimination_possible
from waylab.graded import (BlockDiagonal, GradedSpace, NumericalError, Observable,
                           PureState, coherent_state, g_twirl, tensor, uniform_state)
from waylab.models import (ModelReport, Verdict, WayScenario, coherent_mle_success,
                           coherent_model, coherent_ud_success,
                           coherent_ud_success_smooth, noise_of_model,
                           opt_phase_mle_asymptote, opt_phase_mle_success,
                           opt_phase_model, ozawa_bound, ozawa_reference_curve,
                           stirling_ud_asymptote, twirled_pair_ensemble,
                           uniform_mle_success, uniform_model, uniform_ud_success,
                           way_feasibility)

QUBIT = GradedSpace.qubit()
E_PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)
E_MINUS = np.array([1.0, -1.0]) / math.sqrt(2.0)


class TestUniformModel:
    @pytest.mark.parametrize("m", [1, 2, 7, 10])
    def test_ud_closed_form(self, m):
        rep = uniform_model(m, Criterion.UD)
        assert rep.success_numeric == pytest.approx(m / (m + 1), abs=1e-12)
        assert rep.fail_numeric == pytest.approx(1 / (m + 1), abs=1e-12)
        assert rep.success_closed_form == uniform_ud_success(m)

    @pytest.mark.parametrize("m", [1, 2, 10])
    def test_mle_helstrom_value(self, m):
        rep = uniform_model(m, Criterion.MLE)
        assert rep.success_numeric == pytest.approx((2 * m + 1) / (2 * m + 2),
                                                    abs=1e-12)
        assert rep.success_closed_form == uniform_mle_success(m)

    def test_strictly_increasing_in_m(self):
        for criterion in Criterion:
            vals = [uniform_model(m, criterion).success_numeric for m in range(1, 12)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_mean_n(self):
        assert uniform_model(4, Criterion.UD).mean_n == pytest.approx(2.0)

    def test_rejects_m0(self):
        with pytest.raises(ValueError):
            uniform_model(0, Criterion.UD)


class TestCoherentModel:
    GRID = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]

    @pytest.mark.parametrize("nbar", GRID)
    def test_ud_exact_closed_form(self, nbar):
        rep = coherent_model(math.sqrt(nbar), Criterion.UD)
        assert abs(rep.success_numeric - coherent_ud_success(nbar)) < 1e-8

    @pytest.mark.parametrize("nbar", GRID)
    def test_mle_closed_form(self, nbar):
        rep = coherent_model(math.sqrt(nbar), Criterion.MLE)
        assert abs(rep.success_numeric - coherent_mle_success(nbar)) < 1e-8

    def test_mle_closed_form_past_underflow_returns_within_one_second(self):
        # exp(-800) underflows to zero, so no term may start from it
        def expire(signum, frame):
            raise TimeoutError("coherent_mle_success(800) still running after 1 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            value = coherent_mle_success(800.0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert value == pytest.approx(coherent_mle_log_series(800.0), abs=1e-12)

    @pytest.mark.parametrize("nbar", [700.0, 720.0, 740.0, 744.0, 800.0, 1e4])
    def test_mle_closed_form_matches_log_series_past_subnormal_start(self, nbar):
        # exp(-nbar) is subnormal above ~708 and zero above ~745; a series
        # that starts from it drifts above 1 (1.2879 at 744)
        value = coherent_mle_success(nbar)
        assert value <= 1.0
        assert value == pytest.approx(coherent_mle_log_series(nbar), abs=1e-12)

    def test_mle_closed_form_mismatch_is_numerical_error(self):
        rep = coherent_model(1.0, Criterion.MLE)
        with pytest.raises(NumericalError, match="disagree"):
            dataclasses.replace(rep, success_closed_form=rep.success_numeric + 1e-6)

    def test_ud_value_at_nbar_one(self):
        rep = coherent_model(1.0, Criterion.UD)
        assert rep.success_numeric == pytest.approx(1 - math.exp(-1.0), abs=1e-10)

    def test_smooth_form_exceeds_exact(self):
        for nbar in self.GRID:
            assert coherent_ud_success_smooth(nbar) > coherent_ud_success(nbar)

    def test_smooth_form_reference_value(self):
        # the Gamma-form curve at nbar=1: 1 - e^-1/2
        assert coherent_ud_success_smooth(1.0) == pytest.approx(
            1 - math.exp(-1.0) / 2, abs=1e-12)

    def test_increasing_in_nbar(self):
        for criterion in Criterion:
            vals = [coherent_model(math.sqrt(n), criterion).success_numeric
                    for n in self.GRID]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_stirling_asymptote_at_100(self):
        rep = coherent_model(10.0, Criterion.UD)
        target = stirling_ud_asymptote(100.0)
        rel = abs(rep.success_numeric - target) / (1 - rep.success_numeric)
        assert rel <= 0.02

    def test_per_sector_mle_closed_form(self):
        nbar = 4.0
        rep = coherent_model(2.0, Criterion.MLE)
        cutoff = max(c for c, _, _ in rep.per_sector) - 1
        for charge, _, success in rep.per_sector:
            if 1 <= charge <= cutoff:
                expected = 0.5 + math.sqrt(charge * nbar) / (charge + nbar)
                assert success == pytest.approx(expected, abs=1e-10)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            coherent_model(0.0, Criterion.UD)
        # non-finite amplitudes and mean charges are bad inputs, named in the error
        for criterion in Criterion:
            for alpha in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"got {alpha!r}") as err:
                    coherent_model(alpha, criterion)
                assert not isinstance(err.value, NumericalError)
        for closed_form in (coherent_ud_success, coherent_ud_success_smooth,
                            coherent_mle_success):
            for nbar in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"got {nbar!r}") as err:
                    closed_form(nbar)
                assert not isinstance(err.value, NumericalError)


class TestSectorNativeReadout:
    @pytest.mark.parametrize("build, closed", [
        (lambda: coherent_model(20.0, Criterion.UD), coherent_ud_success(400.0)),
        (lambda: uniform_model(300, Criterion.MLE), uniform_mle_success(300)),
    ], ids=["coherent_ud_nbar400", "uniform_mle_m300"])
    def test_no_decomposition_beyond_sector_size(self, monkeypatch, build, closed):
        # the readout twirls, checks and solves block by block: no dense
        # d x d matrix ever reaches LAPACK
        shapes = []

        def recording(fn):
            def wrapper(a, *args, **kwargs):
                shapes.append(np.shape(a))
                return fn(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "eigh", recording(np.linalg.eigh))
        report = build()
        assert shapes
        assert max(max(sh[-2:]) for sh in shapes) <= 2
        assert abs(report.success_numeric - closed) <= 1e-8


class TestOptPhaseModel:
    def test_m1_equals_uniform(self):
        assert opt_phase_model(1).success_numeric == pytest.approx(
            uniform_model(1, Criterion.MLE).success_numeric, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5, 12, 20])
    def test_exact_closed_form(self, m):
        rep = opt_phase_model(m)
        assert rep.success_numeric == pytest.approx(opt_phase_mle_success(m),
                                                    abs=1e-10)

    @pytest.mark.parametrize("m", [10, 20, 30])
    def test_asymptote_within_ten_percent(self, m):
        rep = opt_phase_model(m)
        err = 1 - rep.success_numeric
        asym_err = math.pi ** 2 / (4 * (m + 2) ** 2)
        assert abs(err - asym_err) / asym_err <= 0.10
        assert rep.asymptote == pytest.approx(opt_phase_mle_asymptote(m))

    def test_beats_uniform_at_equal_m(self):
        for m in range(2, 31):
            assert opt_phase_model(m).success_numeric > \
                uniform_model(m, Criterion.MLE).success_numeric

    def test_globally_optimal_on_bounded_support(self, rng):
        # no state on charges 0..M beats the sine profile for MLE readout
        m = 4
        best = opt_phase_model(m).success_numeric
        from waylab.discrimination import discriminate
        for _ in range(20):
            amps = np.abs(random_pure(rng, m + 1))
            amps /= np.linalg.norm(amps)
            state = PureState(GradedSpace.ladder(m), amps)
            _, ens = twirled_pair_ensemble(state)
            assert discriminate(ens, Criterion.MLE).success_prob <= best + 1e-10


class TestMatchedMeanOrdering:
    """Observed MLE ordering at matched mean charge (closed forms + numerics)."""

    @pytest.mark.parametrize("mean_n", [1, 2, 4])
    def test_coherent_beats_opt_phase_at_small_mean(self, mean_n):
        m = 2 * mean_n
        coh = coherent_model(math.sqrt(mean_n), Criterion.MLE).success_numeric
        opt = opt_phase_model(m).success_numeric
        uni = uniform_model(m, Criterion.MLE).success_numeric
        assert coh > opt > uni

    def test_opt_phase_wins_at_mean_eight(self):
        coh = coherent_model(math.sqrt(8.0), Criterion.MLE).success_numeric
        opt = opt_phase_model(16).success_numeric
        uni = uniform_model(16, Criterion.MLE).success_numeric
        assert opt > coh > uni

    def test_mean_matching_is_exact(self):
        for mean_n in (1, 2, 4, 8):
            res = coherent_state(math.sqrt(mean_n), 1e-12)
            mean = res.space.charge_labels() @ np.abs(res.amplitudes) ** 2
            assert mean == pytest.approx(mean_n, abs=1e-9)
            for state in (uniform_state(2 * mean_n),):
                mean = state.space.charge_labels() @ np.abs(state.amplitudes) ** 2
                assert mean == pytest.approx(mean_n, abs=1e-12)


class TestWayFeasibility:
    def test_qubit_no_resource_impossible(self):
        obs = Observable(QUBIT, np.array([[0.0, 1.0], [1.0, 0.0]]))
        verdict, ensemble = way_feasibility(
            WayScenario(QUBIT, obs, (0.5, 0.5)))
        assert verdict is Verdict.IMPOSSIBLE
        assert len(ensemble) == 2

    def test_commuting_observable_perfect(self):
        obs = Observable(QUBIT, np.diag([0.3, 1.7]))
        verdict, _ = way_feasibility(WayScenario(QUBIT, obs, (0.5, 0.5)))
        assert verdict is Verdict.PERFECT

    def test_prior_information_rescues_measurement(self):
        # three-level system; eigenstates |0>, (|1>+-|2>)/sqrt(2); dropping one
        # superposed eigenstate leaves orthogonal twirled supports
        space = GradedSpace.ladder(2)
        s = 1 / math.sqrt(2)
        vecs = np.array([[1, 0, 0], [0, s, s], [0, s, -s]]).T
        l_mat = vecs @ np.diag([1.0, 2.0, 3.0]) @ vecs.T
        obs = Observable(space, l_mat)
        verdict, _ = way_feasibility(WayScenario(space, obs, (0.5, 0.5, 0.0)))
        assert verdict is Verdict.PERFECT
        verdict_full, _ = way_feasibility(WayScenario(space, obs, (1/3, 1/3, 1/3)))
        assert verdict_full is Verdict.APPROXIMATE_ONLY

    def test_resource_turns_impossible_into_approximate(self):
        obs = Observable(QUBIT, np.array([[0.0, 1.0], [1.0, 0.0]]))
        scenario = WayScenario(QUBIT, obs, (0.5, 0.5), resource=uniform_state(2))
        verdict, ensemble = way_feasibility(scenario)
        assert verdict is Verdict.APPROXIMATE_ONLY
        assert not perfect_discrimination_possible(ensemble)

    @pytest.mark.parametrize("resource", [None, coherent_state(1.0)],
                             ids=["no_resource", "coherent"])
    def test_twirled_eigenstates_match_dense_pinching(self, rng, resource):
        space = GradedSpace((0, 1, 2), (1, 2, 1))
        l_mat = random_hermitian(rng, space.total_dim)
        scenario = WayScenario(space, Observable(space, l_mat), (0.25,) * 4, resource)
        _, ensemble = way_feasibility(scenario)
        _, vecs = np.linalg.eigh(scenario.observable.matrix)
        for k, (_, state) in enumerate(ensemble.items):
            vec = vecs[:, k]
            if resource is not None:
                vec = tensor(resource.space, space).pure(resource, vec).amplitudes
            dense = g_twirl(np.outer(vec, vec.conj()), state.space)
            for n in state.space.charges:
                assert state.block(n).tobytes() == dense.block(n).tobytes()

    def test_degenerate_spectrum_rejected(self):
        obs = Observable(QUBIT, np.eye(2))
        with pytest.raises(ValueError, match="degenerate"):
            way_feasibility(WayScenario(QUBIT, obs, (0.5, 0.5)))

    def test_verdict_matches_bruteforce_oracle(self, rng):
        # random small systems: perfect <=> pairwise twirled supports orthogonal
        for _ in range(60):
            dim = int(rng.integers(2, 5))
            space = GradedSpace.from_charge_list(rng.integers(0, 4, size=dim))
            l_mat = random_hermitian(rng, dim)
            if np.min(np.diff(np.linalg.eigvalsh(l_mat))) < 1e-6:
                continue
            prior = rng.random(dim) * (rng.random(dim) > 0.3)
            if prior.sum() == 0:
                prior = np.ones(dim)
            prior /= prior.sum()
            scenario = WayScenario(space, Observable(space, l_mat), tuple(prior))
            verdict, ensemble = way_feasibility(scenario)
            dense = [st.to_dense() for _, st in ensemble.items]
            oracle = all(supports_orthogonal(a, b)
                         for i, a in enumerate(dense) for b in dense[i + 1:])
            assert (verdict is Verdict.PERFECT) == oracle
            assert perfect_discrimination_possible(ensemble) == oracle


class TestOzawaBound:
    def test_commuting_observable_zero_bound(self, rng):
        obs = Observable(QUBIT, np.diag([0.5, 2.5]))
        joint = np.kron(random_density(rng, 2), random_density(rng, 3))
        bound = ozawa_bound(obs, GradedSpace.ladder(2), joint)
        assert bound == pytest.approx(0.0, abs=1e-12)

    def test_uniform_apparatus_denominator(self):
        # system |0>+i|1>, apparatus uniform ladder: denominator picks up
        # the resource variance M(M+2)/12
        m = 4
        sys_vec = np.array([1.0, 1.0j]) / math.sqrt(2)
        app = uniform_state(m)
        obs = Observable(QUBIT, np.array([[0.0, 1.0], [1.0, 0.0]]))
        joint = np.kron(np.outer(sys_vec, sys_vec.conj()), app.density())
        bound = ozawa_bound(obs, app.space, joint)
        comm_sq = 1.0  # |<[X, N]>|^2 = |2 Im(conj(a) b)|^2 = 1 for this state
        denom = 4 * 0.25 + 4 * m * (m + 2) / 12
        assert bound == pytest.approx(comm_sq / denom, abs=1e-12)

    def test_number_state_apparatus_reduces_to_system_only(self):
        sys_vec = np.array([1.0, 1.0j]) / math.sqrt(2)
        app_space = GradedSpace.ladder(3)
        app_vec = np.eye(app_space.total_dim)[app_space.slice_of(2).start]
        obs = Observable(QUBIT, np.array([[0.0, 1.0], [1.0, 0.0]]))
        joint = np.kron(np.outer(sys_vec, sys_vec.conj()),
                        np.outer(app_vec, app_vec.conj()))
        bound = ozawa_bound(obs, app_space, joint)
        assert bound == pytest.approx(1.0 / (4 * 0.25), abs=1e-12)

    def test_zero_denominator_rejected(self):
        obs = Observable(QUBIT, np.array([[0.0, 1.0], [1.0, 0.0]]))
        joint = np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="undefined"):
            ozawa_bound(obs, QUBIT, joint.astype(complex))


def one_sector(unitary):
    """A 4x4 unitary as a ``BlockDiagonal`` over one charge sector of dimension 4."""
    return BlockDiagonal(GradedSpace((0,), (4,)), {4: np.asarray(unitary)[None]})


class TestNoiseOfModel:
    def test_perfect_commuting_model_zero_noise(self):
        # swap readout of a diagonal observable: V+ (I x Z) V = L x I exactly
        dim = 2
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[2 * j + i, 2 * i + j] = 1.0
        l_mat = np.diag([0.5, -1.5])
        l_full = np.kron(l_mat, np.eye(dim))
        z = np.kron(np.ones(dim), np.diag(l_mat))  # the diagonal of I x L
        rho = np.kron(np.eye(2) / 2, np.diag([1.0, 0.0]))
        assert noise_of_model(one_sector(swap), l_full, z, rho) == pytest.approx(0.0, abs=1e-12)

    def test_uninformative_model_noise_is_variance(self):
        # identity dynamics with a null pointer: noise^2 = <L^2>, which equals
        # Var(L) on the maximally mixed input for traceless L
        l_mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        l_full = np.kron(l_mat, np.eye(2))
        rho = np.kron(np.eye(2) / 2, np.diag([1.0, 0.0]))
        noise = noise_of_model(one_sector(np.eye(4)), l_full, np.zeros(4), rho)
        var_l = 1.0
        assert noise == pytest.approx(var_l, abs=1e-12)


    def test_pointer_is_given_as_its_diagonal(self):
        l_full = np.kron(np.diag([0.5, -1.5]), np.eye(2))
        rho = np.eye(4) / 4
        with pytest.raises(ValueError, match="dimensions do not match"):
            noise_of_model(one_sector(np.eye(4)), l_full, np.eye(4), rho)


class TestReferenceCurves:
    def test_ozawa_reference_values(self):
        assert ozawa_reference_curve(1.0) == pytest.approx(0.95)
        assert ozawa_reference_curve(0.0) == pytest.approx(0.75)

    def test_report_invariant_enforced(self):
        from waylab.discrimination import discriminate
        _, ens = twirled_pair_ensemble(uniform_state(2))
        res = discriminate(ens, Criterion.UD)
        with pytest.raises(ValueError):
            ModelReport(Criterion.UD, "uniform", 2.0, 1.0,
                        res.success_prob, res.success_prob + 1e-3,
                        res.fail_prob, None, res)
