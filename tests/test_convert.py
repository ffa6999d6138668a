import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (convertible_exact, convolution_quotient, dense_number_variance,
                     simplex_grid_witness)
from waylab import convert
from waylab.convert import (FEASIBILITY_TOL, ChargeDistribution, Comparison,
                            ConversionCertificate, charge_distribution,
                            compare, deterministic_convertible,
                            frameness_entropy, stochastic_reachable_from_uniform,
                            variance_measure)
from waylab.graded import GradedSpace, NumericalError, PureState, coherent_state, uniform_state

UNIFORM4 = ChargeDistribution({0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25})


def dist(**kw):
    return ChargeDistribution({int(k): v for k, v in kw.items()})


def superposition(charges) -> PureState:
    space = GradedSpace.from_charge_list(range(max(charges) + 1))
    amps = np.zeros(space.total_dim)
    for c in charges:
        amps[space.slice_of(c).start] = 1.0
    return PureState(space, amps / np.linalg.norm(amps))


class TestChargeDistribution:
    def test_from_uniform_state(self):
        d = charge_distribution(uniform_state(3))
        assert d.probs == pytest.approx({0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25})

    def test_point_mass(self):
        sp = GradedSpace.ladder(4)
        d = charge_distribution(PureState(sp, np.eye(sp.total_dim)[sp.slice_of(2).start]))
        assert d.probs == {2: 1.0}

    def test_coherent_truncated_poisson(self):
        d = charge_distribution(coherent_state(1.0))
        for n in range(4):
            assert d.probs[n] == pytest.approx(math.exp(-1.0) / math.factorial(n),
                                               abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChargeDistribution({})
        with pytest.raises(ValueError):
            ChargeDistribution({0: 0.6, 1: 0.6})
        with pytest.raises(ValueError):
            ChargeDistribution({0: -0.2, 1: 1.2})

    def test_non_integral_charge_rejected(self):
        # once truncated, so that this became {0: 0.5, 1: 0.5}
        with pytest.raises(ValueError, match="charge must be an integer, got 0.4"):
            ChargeDistribution({0.4: 0.5, 1: 0.5})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_probability_rejected(self, bad):
        # a NaN fails every comparison, so it would otherwise drop out of the support
        with pytest.raises(ValueError, match="non-finite probability at charge 0"):
            ChargeDistribution({0: bad, 1: 1.0})


class TestMeasures:
    def test_asbit_variance_measure(self):
        assert variance_measure(uniform_state(1)) == pytest.approx(1.0)

    def test_eigenstate_measures_vanish(self):
        sp = GradedSpace.ladder(5)
        st_ = PureState(sp, np.eye(sp.total_dim)[sp.slice_of(4).start])
        assert variance_measure(st_) == pytest.approx(0.0, abs=1e-12)
        assert frameness_entropy(st_) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5, 9])
    def test_uniform_variance_closed_form(self, m):
        # discrete uniform on 0..M has variance M(M+2)/12; cross-check by sum
        direct = sum((n - m / 2) ** 2 for n in range(m + 1)) / (m + 1)
        assert direct == pytest.approx(m * (m + 2) / 12)
        assert variance_measure(uniform_state(m)) == pytest.approx(m * (m + 2) / 3)

    def test_variance_measure_equals_dense_number_operator_variance(self, rng):
        # multi-dimensional and negative-charge sectors, some amplitudes zero
        spaces = [GradedSpace((-2, 0, 3), (2, 1, 3)), GradedSpace((-5, -1), (1, 4)),
                  GradedSpace((-1, 0, 1, 2), (3, 2, 2, 1)), GradedSpace.ladder(6)]
        for space in spaces:
            for _ in range(50):
                d = space.total_dim
                amps = rng.normal(size=d) + 1j * rng.normal(size=d)
                amps *= rng.random(d) > 0.3
                if not amps.any():
                    amps[0] = 1.0
                state = PureState(space, amps / np.linalg.norm(amps))
                assert variance_measure(state) == 4 * dense_number_variance(state)

    @pytest.mark.parametrize("m", [0, 1, 3, 7])
    def test_uniform_entropy(self, m):
        assert frameness_entropy(uniform_state(m)) == pytest.approx(math.log2(m + 1))

    def test_biased_entropy(self):
        st_ = PureState(GradedSpace.qubit(), [math.sqrt(3) / 2, 0.5])
        h = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert frameness_entropy(st_) == pytest.approx(h)
        assert h == pytest.approx(0.8113, abs=1e-4)


class TestDeterministicConvertible:
    def test_uniform_to_asbit(self):
        cert = deterministic_convertible(UNIFORM4, dist(**{"0": 0.5, "1": 0.5}))
        assert cert.feasible
        assert cert.weights == pytest.approx({0: 0.5, 2: 0.5})

    def test_uniform_to_gapped_pair(self):
        cert = deterministic_convertible(UNIFORM4, dist(**{"1": 0.5, "3": 0.5}))
        assert cert.feasible
        assert cert.weights == pytest.approx({-1: 0.5, 0: 0.5})

    def test_uniform_to_wide_pair_infeasible(self):
        cert = deterministic_convertible(UNIFORM4, dist(**{"0": 0.5, "3": 0.5}))
        assert not cert.feasible
        assert cert.weights is None
        assert cert.residual > 1e-3

    def test_self_conversion(self):
        for d in (UNIFORM4, dist(**{"2": 0.125, "3": 0.875})):
            cert = deterministic_convertible(d, d)
            assert cert.feasible
            assert cert.weights == pytest.approx({0: 1.0})

    def test_disjoint_supports_same_shape(self):
        p = dist(**{"7": 0.3, "8": 0.7})
        q = dist(**{"0": 0.3, "1": 0.7})
        cert = deterministic_convertible(p, q)
        assert cert.feasible
        assert cert.weights == pytest.approx({7: 1.0})

    def test_certificate_reproduces_p(self):
        cert = deterministic_convertible(UNIFORM4, dist(**{"0": 0.5, "1": 0.5}))
        mix = {}
        for k, w in cert.weights.items():
            for n, prob in {0: 0.5, 1: 0.5}.items():
                mix[n + k] = mix.get(n + k, 0.0) + w * prob
        for n, prob in UNIFORM4.probs.items():
            assert mix.pop(n) == pytest.approx(prob, abs=1e-9)
        assert all(abs(v) < 1e-9 for v in mix.values())

    @given(st.integers(-6, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_translation_invariance(self, shift, data):
        supp_p = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=4,
                                    unique=True))
        supp_q = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=3,
                                    unique=True))
        raw_p = {n: 1.0 / len(supp_p) for n in supp_p}
        raw_q = {n: 1.0 / len(supp_q) for n in supp_q}
        p, q = ChargeDistribution(raw_p), ChargeDistribution(raw_q)
        before = deterministic_convertible(p, q).feasible
        after = deterministic_convertible(
            ChargeDistribution({n + shift: v for n, v in raw_p.items()}),
            ChargeDistribution({n + shift: v for n, v in raw_q.items()})).feasible
        assert before == after

    def test_transitivity_on_random_feasible_chains(self, rng):
        # p = w1*q and q = w2*r are feasible by construction; then p -> r must be
        for _ in range(25):
            r = _random_dist(rng, max_support=3)
            q = _random_mixture_of_translates(rng, r)
            p = _random_mixture_of_translates(rng, q)
            assert deterministic_convertible(p, q).feasible
            assert deterministic_convertible(q, r).feasible
            assert deterministic_convertible(p, r).feasible

    def test_monotonicity_of_measures_on_feasible_pairs(self, rng):
        for _ in range(25):
            q = _random_dist(rng, max_support=4)
            p = _random_mixture_of_translates(rng, q)
            assert _dist_variance(p) >= _dist_variance(q) - 1e-9
            assert _dist_entropy(p) >= _dist_entropy(q) - 1e-9

    def test_matches_exact_oracle_on_eighth_grid_sample(self, rng):
        dists = _eighth_grid_distributions()
        idx = rng.integers(0, len(dists), size=(300, 2))
        for i, j in idx:
            p_f = {n: Fraction(v, 8) for n, v in dists[i].items()}
            q_f = {n: Fraction(v, 8) for n, v in dists[j].items()}
            p = ChargeDistribution({n: v / 8 for n, v in dists[i].items()})
            q = ChargeDistribution({n: v / 8 for n, v in dists[j].items()})
            want = convertible_exact(p_f, q_f)
            got = deterministic_convertible(p, q).feasible
            assert got == want, (dists[i], dists[j])

    def test_grid_witness_agrees_when_found(self, rng):
        dists = _eighth_grid_distributions()
        idx = rng.integers(0, len(dists), size=(120, 2))
        for i, j in idx:
            p = {n: v / 8 for n, v in dists[i].items()}
            q = {n: v / 8 for n, v in dists[j].items()}
            if simplex_grid_witness(p, q):
                assert deterministic_convertible(
                    ChargeDistribution(p), ChargeDistribution(q)).feasible


def _fractions(units):
    total = sum(units)
    return {n: Fraction(u, total) for n, u in enumerate(units) if u}


def _convolve(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


@st.composite
def _units(draw, n, interior, ends=st.integers(1, 16)):
    """n unit counts: drawn from ``ends`` at both ends, ``interior`` between."""
    outer = draw(st.lists(ends, min_size=min(n, 2), max_size=min(n, 2)))
    inner = draw(st.lists(interior, min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
    return outer[:1] + inner + outer[1:]


@st.composite
def wide_pairs(draw):
    """A rational pair (p, q) whose source p spans up to 60 charges.

    kind 0: feasible, generic weights; 1: feasible, weights at the boundary
    (interior zeros and weights ~1e-6); 2: feasible, supports far apart;
    3: infeasible by moving 1/4096 of p's mass to a neighbour; 4: independent p;
    5: infeasible, as q divides p but the quotient has a negative weight.
    """
    width, kind = draw(st.integers(2, 60)), draw(st.integers(0, 5))
    ww = max(1, width // 4)
    q = _fractions(draw(_units(width - ww + 1, st.integers(1, 16))))
    if kind == 1:
        big = st.integers(10_000, 100_000)
        w = _fractions(draw(_units(ww, st.one_of(st.just(0), st.just(1), big), big)))
    elif kind == 5:
        # a neighbour weight of at least 20 keeps every p_n positive against -q_n
        units = draw(_units(max(ww, 3), st.integers(20, 40), st.integers(20, 40)))
        units[draw(st.integers(1, len(units) - 2))] = -1
        w = _fractions(units)
    else:
        w = _fractions(draw(_units(ww, st.integers(1, 16))))
    p = _convolve(w, q)
    if kind == 2:
        shift = draw(st.integers(200, 1000))
        p = {n + shift: x for n, x in p.items()}
    elif kind == 3:
        movable = sorted(n for n in p if p[n] >= Fraction(1, 4096) and n + 1 in p)
        n = draw(st.sampled_from(movable))
        p[n] -= Fraction(1, 4096)
        p[n + 1] += Fraction(1, 4096)
    elif kind == 4:
        p = _fractions(draw(_units(width, st.integers(0, 16))))
    return p, q


class TestWindowAgainstLp:
    """The window solve's verdict and weights against the exact quotient, and
    its verdict against the LP residual."""

    @given(wide_pairs())
    @settings(max_examples=150, deadline=None)
    def test_window_solve_matches_oracles_and_lp(self, pair):
        p_frac, q_frac = pair
        cert = deterministic_convertible(
            ChargeDistribution({n: float(x) for n, x in p_frac.items()}),
            ChargeDistribution({n: float(x) for n, x in q_frac.items()}))
        assert cert.feasible == convertible_exact(p_frac, q_frac)
        if cert.feasible:
            quotient = convolution_quotient(p_frac, q_frac)
            assert set(cert.weights) <= set(quotient)
            for k, wk in quotient.items():
                assert abs(cert.weights.get(k, 0.0) - float(wk)) <= 1e-6, k
        assert (cert.residual <= FEASIBILITY_TOL) == cert.feasible


def _eighth_grid_distributions():
    out = []

    def rec(rem, parts):
        if len(parts) == 4:
            parts = parts + [rem]
            d = {n: u for n, u in enumerate(parts) if u}
            out.append(d)
            return
        for u in range(rem + 1):
            rec(rem - u, parts + [u])

    rec(8, [])
    return out


def _random_dist(rng, max_support):
    size = rng.integers(1, max_support + 1)
    support = rng.choice(np.arange(5), size=size, replace=False)
    w = rng.random(size) + 0.05
    w /= w.sum()
    return ChargeDistribution({int(n): float(x) for n, x in zip(support, w)})


def _random_mixture_of_translates(rng, q):
    nshifts = rng.integers(1, 4)
    shifts = rng.choice(np.arange(-3, 4), size=nshifts, replace=False)
    w = rng.random(nshifts) + 0.05
    w /= w.sum()
    mix = {}
    for k, wk in zip(shifts, w):
        for n, prob in q.probs.items():
            mix[int(n + k)] = mix.get(int(n + k), 0.0) + float(wk) * prob
    return ChargeDistribution(mix)


def _dist_variance(d):
    mean = sum(n * p for n, p in d.probs.items())
    return 4 * sum((n - mean) ** 2 * p for n, p in d.probs.items())


def _dist_entropy(d):
    return -sum(p * math.log2(p) for p in d.probs.values() if p > 0)


class TestStochasticReachability:
    def test_window_fits(self):
        assert stochastic_reachable_from_uniform(3, dist(**{"0": 0.5, "3": 0.5}))

    def test_window_too_small(self):
        assert not stochastic_reachable_from_uniform(3, dist(**{"0": 0.5, "4": 0.5}))

    def test_distant_point_mass(self):
        assert stochastic_reachable_from_uniform(3, dist(**{"7": 1.0}))

    @given(st.integers(0, 8), st.lists(st.integers(0, 12), min_size=1, max_size=5,
                                       unique=True))
    @settings(max_examples=80, deadline=None)
    def test_matches_span_rule(self, m, support):
        target = ChargeDistribution({n: 1.0 / len(support) for n in support})
        assert stochastic_reachable_from_uniform(m, target) == \
            (max(support) - min(support) <= m)


class TestCompare:
    def test_uniform_beats_asbit(self):
        assert compare(uniform_state(3), uniform_state(1)) is Comparison.A_TO_B

    def test_self_equivalent(self):
        st_ = uniform_state(2)
        assert compare(st_, st_) is Comparison.EQUIVALENT

    def test_asbit_vs_wide_pair_incomparable(self):
        assert compare(uniform_state(1), superposition([0, 3])) is Comparison.INCOMPARABLE

    def test_reverse_direction(self):
        assert compare(uniform_state(1), uniform_state(3)) is Comparison.B_TO_A

    def test_phases_ignored(self):
        sp = GradedSpace.ladder(1)
        plus = PureState(sp, np.array([1, 1]) / math.sqrt(2))
        minus = PureState(sp, np.array([1, -1]) / math.sqrt(2))
        assert compare(plus, minus) is Comparison.EQUIVALENT


class TestCertificateInvariants:
    def test_feasible_requires_weights(self):
        with pytest.raises(ValueError):
            ConversionCertificate(True, None)

    def test_infeasible_rejects_weights(self):
        with pytest.raises(ValueError):
            ConversionCertificate(False, {0: 1.0})

    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            ConversionCertificate(True, {0: 0.4})

    def test_lp_contradicting_a_feasible_verdict_is_numerical_error(self):
        cert = ConversionCertificate(True, {0: 1.0}, UNIFORM4, dist(**{"0": 0.5, "3": 0.5}))
        with pytest.raises(NumericalError, match="solvers disagree"):
            cert.residual

    def test_infeasible_verdict_is_not_checked_against_the_lp(self):
        # the LP fits this pair exactly; an infeasible verdict reads its residual
        cert = ConversionCertificate(False, None, UNIFORM4, dist(**{"0": 0.5, "1": 0.5}))
        assert cert.residual <= FEASIBILITY_TOL

    def test_weights_back_a_feasible_verdict_the_lp_fits_worse(self, monkeypatch):
        monkeypatch.setattr(convert, "_lp_residual", lambda p, q: 2 * FEASIBILITY_TOL)
        p = ChargeDistribution({0: 0.5 - 1e-9, 1: 0.5 + 1e-9})
        cert = ConversionCertificate(True, {0: 1.0}, p, dist(**{"0": 0.5, "1": 0.5}))
        assert cert.residual == pytest.approx(2e-9, rel=1e-6)

    def test_equality_and_hash_ignore_the_pair(self):
        a = deterministic_convertible(UNIFORM4, dist(**{"0": 0.5, "1": 0.5}))
        assert a == ConversionCertificate(True, dict(a.weights))
        b = deterministic_convertible(UNIFORM4, dist(**{"0": 0.5, "3": 0.5}))
        assert b == ConversionCertificate(False)
        assert hash(b) == hash(ConversionCertificate(False))


class TestToleranceBand:
    """Pairs within a small factor of FEASIBILITY_TOL, where the window's
    least-squares fit and the LP's can land on either side of it.  Here
    q = (0.9, 0.1) and p = q/2 + (T q)/2 with mass d moved from charge 0 to
    charge 2; the exact L1 optimum is 16d/9, the window's fit is ~1.86d and,
    with SciPy's HiGHS at its default tolerances, the LP's is ~2d."""

    Q = ChargeDistribution({0: 0.9, 1: 0.1})

    @classmethod
    def _p(cls, d):
        return ChargeDistribution({0: 0.45 - d, 1: 0.5, 2: 0.05 + d})

    def test_window_fit_within_tolerance_is_feasible(self):
        cert = deterministic_convertible(self._p(5e-9), self.Q)
        assert cert.feasible
        assert cert.weights.keys() == {0, 1}
        assert cert.residual <= FEASIBILITY_TOL

    def test_window_fit_above_tolerance_is_infeasible_not_an_error(self):
        # the exact optimum 16d/9 = 9.8e-9 is within tolerance; the window's
        # clipped least-squares fit, 1.02e-8, is not
        cert = deterministic_convertible(self._p(5.5e-9), self.Q)
        assert not cert.feasible
        assert cert.residual < 2 * FEASIBILITY_TOL

    def test_residual_is_solved_once(self):
        cert = deterministic_convertible(UNIFORM4, dist(**{"0": 0.5, "3": 0.5}))
        assert "residual" not in vars(cert)
        first = cert.residual
        assert vars(cert)["residual"] == first
        assert cert.residual is first

    def test_residual_needs_the_pair(self):
        with pytest.raises(ValueError, match="no pair"):
            ConversionCertificate(True, {0: 1.0}).residual
