import math
import time
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_pure
from oracles import (coherent_amplitudes_resumming, composite_order,
                     opt_phase_norm_squared_inverse)
from waylab.graded import (EPS_NUM, BlockDiagonal, BlockState, CompositeSpace,
                           GradedSpace, NumericalError, Observable, PureState,
                           coherent_state, g_twirl, opt_phase_state, tensor,
                           uniform_state)
from waylab import serialize
from waylab.circuits import ConservingUnitary
from waylab.convert import ConversionCertificate
from waylab.discrimination import Ensemble
from waylab.models import WayScenario

E_PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)
QUBIT = GradedSpace.qubit()


class TestGradedSpace:
    def test_basic_invariants(self):
        sp = GradedSpace((0, 1, 3), (1, 2, 1))
        assert sp.total_dim == 4
        assert {n: sp.dim_of(n) for n in sp.charges} == {0: 1, 1: 2, 3: 1}
        assert list(sp.charge_labels()) == [0, 1, 1, 3]
        assert sp.slice_of(1) == slice(1, 3)

    def test_rejects_bad_charges(self):
        with pytest.raises(ValueError):
            GradedSpace((1, 0), (1, 1))
        with pytest.raises(ValueError):
            GradedSpace((0, 0), (1, 1))
        with pytest.raises(ValueError):
            GradedSpace((0,), (0,))

    def test_from_charge_list(self):
        sp = GradedSpace.from_charge_list([2, 0, 2, 1])
        assert sp.charges == (0, 1, 2)
        assert sp.dims == (1, 1, 2)

    def test_sector_lookups(self):
        sp = GradedSpace((-1, 2, 5), (2, 1, 3))
        assert [sp.dim_of(n) for n in sp.charges] == [2, 1, 3]
        assert sp.slice_of(5) == slice(3, 6)
        for lookup in (sp.dim_of, sp.slice_of):
            with pytest.raises(ValueError, match="charge 0 not present in space"):
                lookup(0)


class TestNumberOperator:
    """N is read as the label vector ``charge_labels()``, its diagonal."""

    def test_qubit(self):
        assert np.array_equal(np.diag(QUBIT.charge_labels()), np.diag([0.0, 1.0]))

    def test_three_level(self):
        sp = GradedSpace.ladder(2)
        assert np.array_equal(np.diag(sp.charge_labels()), np.diag([0.0, 1.0, 2.0]))

    def test_tensor_of_qubits_additive(self):
        tm = tensor(QUBIT, QUBIT)
        assert np.array_equal(np.diag(tm.space.charge_labels()),
                              np.diag([0.0, 1.0, 1.0, 2.0]))


class TestTensor:
    def test_qubit_qubit_dims(self):
        tm = tensor(QUBIT, QUBIT)
        assert tm.space.charges == (0, 1, 2)
        assert tm.space.dims == (1, 2, 1)

    def test_ladder_times_qubit(self):
        m = 4
        tm = tensor(GradedSpace.ladder(m), QUBIT)
        assert tm.space.charges == tuple(range(m + 2))
        assert tm.space.dims == (1,) + (2,) * m + (1,)

    def test_trivial_identity(self):
        sp = GradedSpace((0, 2), (2, 1))
        tm = tensor(sp, GradedSpace.ladder(0))
        assert tm.space.charges == sp.charges
        assert tm.space.dims == sp.dims
        assert np.array_equal(tm.kron_index, np.arange(sp.total_dim))

    def test_charge_additivity_of_index_map(self, rng):
        a = GradedSpace((0, 1, 2), (2, 1, 2))
        b = GradedSpace((0, 3), (1, 2))
        tm = tensor(a, b)
        la, lb = a.charge_labels(), b.charge_labels()
        ia, ib = np.unravel_index(tm.kron_index, tm.wire_dims)
        assert np.array_equal(tm.space.charge_labels(), la[ia] + lb[ib])

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=4),
           st.lists(st.integers(0, 5), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_charge_additivity_random_spaces(self, ca, cb):
        a, b = GradedSpace.from_charge_list(ca), GradedSpace.from_charge_list(cb)
        tm = tensor(a, b)
        la, lb = a.charge_labels(), b.charge_labels()
        ia, ib = np.unravel_index(tm.kron_index, tm.wire_dims)
        assert np.array_equal(tm.space.charge_labels(), la[ia] + lb[ib])
        assert tm.space.total_dim == a.total_dim * b.total_dim

    @given(st.lists(st.lists(st.integers(-3, 4), min_size=1, max_size=4),
                    min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_composite_order_matches_nested_loop_reference(self, chain):
        wires = [GradedSpace.from_charge_list(labels) for labels in chain]
        comp = CompositeSpace.of(wires)
        charges, dims, index = composite_order([(w.charges, w.dims) for w in wires])
        assert comp.space.charges == charges
        assert comp.space.dims == dims
        assert comp.kron_index.tolist() == index

    def test_operator_promotion_consistent(self, rng):
        a, b = GradedSpace.ladder(2), QUBIT
        tm = tensor(a, b)
        va, vb = random_pure(rng, 3), random_pure(rng, 2)
        oa = rng.normal(size=(3, 3))
        ob = rng.normal(size=(2, 2))
        left = tm.promote(oa, ob) @ tm.pure(va, vb).amplitudes
        right = tm.vector(np.kron(oa @ va, ob @ vb))
        assert np.allclose(left, right)


def _projector(space, n):
    """P_n as a dense matrix, from the sector's slice."""
    p = np.zeros((space.total_dim,) * 2)
    p[space.slice_of(n), space.slice_of(n)] = np.eye(space.dim_of(n))
    return p


class TestSectorProjector:
    """P_n is read as the basis slice ``slice_of(n)``."""

    def test_qubit_projectors(self):
        assert np.array_equal(_projector(QUBIT, 0), np.diag([1.0, 0.0]))
        assert np.array_equal(_projector(QUBIT, 1), np.diag([0.0, 1.0]))

    def test_rank_two_sector(self):
        tm = tensor(QUBIT, QUBIT)
        p1 = _projector(tm.space, 1)
        assert np.trace(p1).real == 2.0
        assert np.allclose(p1 @ p1, p1)

    def test_unknown_charge_rejected(self):
        with pytest.raises(ValueError):
            QUBIT.slice_of(7)

    def test_complete_and_orthogonal(self):
        sp = GradedSpace((0, 1, 2), (2, 3, 1))
        projs = [_projector(sp, n) for n in sp.charges]
        assert np.allclose(sum(projs), np.eye(sp.total_dim))
        for i, p in enumerate(projs):
            for j, q in enumerate(projs):
                expected = p if i == j else np.zeros_like(p)
                assert np.allclose(p @ q, expected)


class TestGTwirl:
    def test_plus_state_maximally_mixed(self):
        bs = g_twirl(np.outer(E_PLUS, E_PLUS), QUBIT)
        assert np.allclose(bs.block(0), [[0.5]])
        assert np.allclose(bs.block(1), [[0.5]])

    def test_number_eigenstate_fixed(self):
        rho = np.diag([0.0, 1.0]).astype(complex)
        bs = g_twirl(rho, QUBIT)
        assert np.allclose(bs.to_dense(), rho)

    def test_uniform_resource_m2_matches_eigenbranch_form(self):
        # twirl(|Psi_2> x |e+>) = edge part + (1/3) sum of the branch projectors
        m = 2
        tm = tensor(GradedSpace.ladder(m), QUBIT)
        psi = tm.pure(uniform_state(m), E_PLUS)
        bs = g_twirl(psi.density(), tm.space)
        expected = np.zeros((tm.space.total_dim,) * 2, dtype=complex)
        c = 1.0 / (2 * (m + 1))
        expected[0, 0] = c                      # |0,0>
        expected[-1, -1] = c                    # |M,1>
        for n in range(1, m + 1):
            sl = tm.space.slice_of(n)
            expected[sl, sl] = np.full((2, 2), 1.0 / (2 * (m + 1)))
        assert np.allclose(bs.to_dense(), expected, atol=1e-12)

    @pytest.mark.parametrize("resource", [
        coherent_state(0.5), coherent_state(3.0), coherent_state(20.0),
        uniform_state(1), uniform_state(7), opt_phase_state(1), opt_phase_state(9),
    ], ids=["coherent-0.5", "coherent-3", "coherent-20", "uniform-1", "uniform-7",
            "opt_phase-1", "opt_phase-9"])
    def test_pure_twirl_equals_dense_twirl(self, resource):
        # bit for bit, on the resource alone and on resource (x) e+-
        tm = tensor(resource.space, QUBIT)
        e_minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
        for psi in (resource, tm.pure(resource, E_PLUS), tm.pure(resource, e_minus)):
            dense = g_twirl(psi.density(), psi.space)
            blocks = psi.twirl()
            for n in psi.space.charges:
                assert blocks.block(n).tobytes() == dense.block(n).tobytes()

    def test_pure_twirl_equals_dense_twirl_on_wide_sectors(self, rng):
        tm = tensor(GradedSpace((0, 1, 2), (1, 2, 1)), QUBIT)
        assert max(tm.space.dims) > 1
        for _ in range(20):
            psi = PureState(tm.space, random_pure(rng, tm.space.total_dim))
            dense = g_twirl(psi.density(), tm.space)
            blocks = psi.twirl()
            for n in tm.space.charges:
                assert blocks.block(n).tobytes() == dense.block(n).tobytes()

    def test_idempotent(self, rng):
        sp = GradedSpace((0, 1, 2), (2, 2, 1))
        rho = random_density(rng, sp.total_dim)
        once = g_twirl(rho, sp)
        twice = g_twirl(once.to_dense(), sp)
        for n in sp.charges:
            assert np.array_equal(once.block(n), twice.block(n))

    def test_trace_and_psd_preserved(self, rng):
        sp = GradedSpace((0, 2, 3), (2, 1, 3))
        rho = random_density(rng, sp.total_dim)
        bs = g_twirl(rho, sp)
        assert abs(sum(bs.sector_weight(n) for n in sp.charges) - 1.0) < 1e-12
        for n in sp.charges:
            assert np.linalg.eigvalsh(bs.block(n))[0] > -EPS_NUM

    @pytest.mark.parametrize("theta", [0.0, math.pi / 7, 1.3, 2 * math.pi * 0.9])
    def test_invariant_under_group_action(self, rng, theta):
        sp = GradedSpace((0, 1, 3), (1, 2, 2))
        rho = random_density(rng, sp.total_dim)
        u = np.diag(np.exp(1j * theta * sp.charge_labels()))
        direct = g_twirl(rho, sp)
        rotated = g_twirl(u @ rho @ u.conj().T, sp)
        for n in sp.charges:
            assert np.allclose(direct.block(n), rotated.block(n), atol=1e-12)

    def test_commutes_with_sector_projection(self, rng):
        sp = GradedSpace((0, 1, 2), (1, 2, 2))
        rho = random_density(rng, sp.total_dim)
        bs = g_twirl(rho, sp)
        dense = bs.to_dense()
        for n in sp.charges:
            p = _projector(sp, n)
            assert np.allclose(p @ dense @ p, dense * 0 + _embed(sp, n, bs.block(n)))

    def test_rejects_invalid_density(self):
        with pytest.raises(ValueError):
            g_twirl(np.diag([0.7, 0.7]), QUBIT)       # trace 1.4
        with pytest.raises(ValueError):
            g_twirl(np.diag([1.5, -0.5]), QUBIT)      # not PSD


def _embed(space, n, block):
    out = np.zeros((space.total_dim,) * 2, dtype=complex)
    out[space.slice_of(n), space.slice_of(n)] = block
    return out


class TestStates:
    def test_coherent_mean_matches_alpha_squared(self):
        alpha, tail = 1.3, 1e-12
        st_ = coherent_state(alpha, tail)
        cutoff = st_.space.charges[-1]
        mean = st_.space.charge_labels() @ np.abs(st_.amplitudes) ** 2
        assert abs(mean - alpha ** 2) < 10 * tail * cutoff

    def test_uniform_trivial(self):
        assert np.allclose(uniform_state(0).amplitudes, [1.0])

    def test_uniform_asbit(self):
        assert np.allclose(uniform_state(1).amplitudes, [1 / math.sqrt(2)] * 2)

    def test_uniform_m3(self):
        assert np.allclose(uniform_state(3).amplitudes, [0.5] * 4)

    def test_coherent_vacuum(self):
        st_ = coherent_state(0.0)
        assert st_.space.charges == (0,)
        assert np.allclose(st_.amplitudes, [1.0])

    def test_coherent_ground_weight(self):
        st_ = coherent_state(1.0, 1e-12)
        assert abs(abs(st_.amplitudes[0]) ** 2 - math.exp(-1.0)) < 1e-10

    def test_coherent_cutoff_minimal(self):
        # cutoff is the smallest C with Poisson tail below tail_mass
        tail = 1e-6
        st_ = coherent_state(2.0, tail)
        c = st_.space.charges[-1]
        lam = 4.0
        pmf = [math.exp(-lam)]
        for n in range(1, c + 2):
            pmf.append(pmf[-1] * lam / n)
        assert 1.0 - sum(pmf[:c + 1]) < tail
        assert 1.0 - sum(pmf[:c]) >= tail

    def test_coherent_rejects_bad_args(self):
        for alpha in (-1.0, math.nan, math.inf):
            # a bad input, not an internal failure, and the message names it
            with pytest.raises(ValueError, match=f"got {alpha!r}") as err:
                coherent_state(alpha)
            assert not isinstance(err.value, NumericalError)
        with pytest.raises(ValueError):
            coherent_state(1.0, 0.0)

    def test_coherent_cutoff_minimal_at_largest_normal_start(self):
        # exp(-708) is still a normal float; the Poisson masses are summed in
        # 40-digit decimals, as float log-space terms lose ~1e-13 here
        tail, lam = 1e-12, Decimal(708)
        st_ = coherent_state(math.sqrt(708.0), tail)
        c = st_.space.charges[-1]
        with localcontext() as ctx:
            ctx.prec = 40
            pmf = [(-lam).exp()]
            for n in range(1, c + 1):
                pmf.append(pmf[-1] * lam / n)
            assert 1 - sum(pmf) < tail
            assert 1 - sum(pmf[:c]) >= tail

    @pytest.mark.parametrize("nbar", [0.0, 1e-3, 0.5, 2.0, 10.0, 50.0, 150.0, 300.0,
                                      450.0, 600.0, 700.0, 708.0])
    def test_coherent_matches_resumming_reference(self, nbar):
        # the running exact sum must place the same cutoff and give the same
        # amplitude bits as re-summing the whole pmf at every step.  Besides
        # two plain tails, try one on which the loop test holds with equality
        # and the float above it, so that a sum one ulp off moves the cutoff
        alpha = math.sqrt(nbar)
        lam = alpha * alpha
        pmf = [math.exp(-lam)]
        for n in range(1, len(coherent_amplitudes_resumming(alpha, 1e-9)) - 1):
            pmf.append(pmf[-1] * lam / n)
        edge = 1.0 - math.fsum(pmf)
        for tail in (1e-12, 1e-6, edge, math.nextafter(edge, 1.0)):
            if not 0.0 < tail < 1.0:
                continue
            want = coherent_amplitudes_resumming(alpha, tail)
            got = coherent_state(alpha, tail).amplitudes
            assert len(got) == len(want), tail
            assert got.tobytes() == want.astype(complex).tobytes(), tail

    @pytest.mark.parametrize("nbar", [720.0, 744.0, 800.0, 900.0, 1e4])
    def test_coherent_subnormal_start_fails_at_once(self, nbar):
        # from a subnormal or zero exp(-nbar) the recursion misplaces the
        # cutoff (nbar 744 kept mean 733.8) or never converges (nbar 720)
        t0 = time.perf_counter()
        with pytest.raises(NumericalError, match="smallest normal float"):
            coherent_state(math.sqrt(nbar))
        assert time.perf_counter() - t0 < 0.5

    def test_opt_phase_m0_and_m1(self):
        assert np.allclose(opt_phase_state(0).amplitudes, [1.0])
        assert np.allclose(opt_phase_state(1).amplitudes, [1 / math.sqrt(2)] * 2)

    def test_opt_phase_m2(self):
        amps = opt_phase_state(2).amplitudes
        assert np.allclose(amps, [0.5, 1 / math.sqrt(2), 0.5])

    @pytest.mark.parametrize("m", range(61))
    def test_opt_phase_printed_normalization_agrees(self, m):
        amps = np.sin((np.arange(m + 1) + 1) * math.pi / (m + 2))
        numeric = float(np.sum(amps ** 2))
        printed = opt_phase_norm_squared_inverse(m)
        assert printed == pytest.approx(numeric, abs=1e-10)
        assert printed == pytest.approx((m + 2) / 2.0, abs=1e-10)

    def test_pure_state_norm_enforced(self):
        # the message names how far <psi|psi> was from one, and the tolerance
        with pytest.raises(ValueError, match=r"^state is not normalized within tolerance: "
                                             r"1 exceeds tolerance 1e-10$"):
            PureState(QUBIT, [1.0, 1.0])

    def test_pure_state_that_constructs_twirls(self):
        # the check is on <psi|psi>, the trace that the twirl's blocks sum to
        with pytest.raises(ValueError, match="^state is not normalized within tolerance"):
            PureState(QUBIT, E_PLUS * (1 + 0.9e-10))
        twirled = PureState(QUBIT, E_PLUS * (1 + 4e-11)).twirl()
        assert twirled.sector_weight(0) == pytest.approx(0.5)

    def test_observable_hermiticity_enforced(self):
        with pytest.raises(ValueError):
            Observable(QUBIT, [[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("build", [
    lambda: PureState(QUBIT, [math.nan, 1.0]),
    lambda: Observable(QUBIT, [[math.nan, 0.0], [0.0, 1.0]]),
    lambda: BlockState(QUBIT, {1: np.array([[[math.nan]], [[1.0]]])}),
    lambda: g_twirl(np.array([[math.nan, 0.0], [0.0, 1.0]]), QUBIT),
    lambda: Ensemble(((math.nan, uniform_state(1).twirl()), (1.0, uniform_state(1).twirl()))),
    lambda: WayScenario(QUBIT, Observable(QUBIT, np.diag([0.0, 1.0])), (math.nan, 1.0)),
    lambda: ConversionCertificate(True, {0: math.nan}),
    lambda: ConservingUnitary(QUBIT, {1: np.array([[[math.nan]], [[1.0]]])}),
], ids=["PureState", "Observable", "BlockState", "g_twirl", "Ensemble", "WayScenario",
        "ConversionCertificate", "ConservingUnitary"])
def test_nan_fails_the_tolerance_check(build):
    # every ordering comparison with NaN is false, so `err > tol` alone would pass it
    with pytest.raises(ValueError, match="nan exceeds tolerance"):
        build()


@pytest.mark.parametrize("build, held, array", [
    (lambda a: PureState(QUBIT, a), lambda o: o.amplitudes, np.array([1.0 + 0j, 0.0])),
    (lambda a: Observable(QUBIT, a), lambda o: o.matrix, np.eye(2, dtype=complex)),
    (lambda a: BlockState(QUBIT, {1: a}), lambda o: o.stacks[1],
     np.array([[[0.5 + 0j]], [[0.5]]])),
    (lambda a: ConservingUnitary(QUBIT, {1: a}), lambda o: o.stacks[1],
     np.ones((2, 1, 1), dtype=complex)),
], ids=["PureState", "Observable", "BlockState", "ConservingUnitary"])
def test_constructors_leave_the_callers_array_alone(build, held, array):
    # a complex contiguous input is what np.asarray and np.ascontiguousarray pass through uncopied
    obj = build(array)
    before = held(obj).copy()
    assert array.flags.writeable
    array[...] = 7.0
    assert held(obj).tobytes() == before.tobytes()
    assert not held(obj).flags.writeable


def test_a_real_stack_is_copied_once():
    # the complex cast is the one copy, frozen as it is; a cast followed by a
    # frozen copy would peak at twice the complex stack's bytes
    space = GradedSpace(tuple(range(1000)), (32,) * 1000)
    assert space.groups  # built before the trace
    real = np.random.default_rng(5).normal(size=(1000, 32, 32))
    before = real.copy()
    tracemalloc.start()
    try:
        stacks = BlockDiagonal(space, {32: real}).stacks
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * stacks[32].nbytes + real.nbytes
    assert stacks[32].flags.c_contiguous and not stacks[32].flags.writeable
    assert stacks[32].tobytes() == before.astype(complex).tobytes()
    assert real.flags.writeable and real.tobytes() == before.tobytes()


class TestBlockState:
    def test_validation(self):
        with pytest.raises(ValueError, match="do not sum to one"):
            BlockState(QUBIT, {1: np.array([[[0.6]], [[0.6]]])})
        with pytest.raises(ValueError, match="block for charge 0 is not PSD"):
            BlockState(QUBIT, {1: np.array([[[-0.1]], [[1.1]]])})

    def test_missing_block_is_zero(self):
        # stacks are keyed by sector dimension; a missing one holds zeros
        bs = BlockState(GradedSpace((0, 1), (1, 2)), {1: np.array([[[1.0]]])})
        assert bs.sector_weight(1) == 0.0
        assert bs.block(1).shape == (2, 2)


class TestSerialization:
    def test_pure_state_roundtrip(self, rng):
        sp = GradedSpace((0, 1, 2), (1, 2, 1))
        st_ = PureState(sp, random_pure(rng, 4))
        back = serialize.state_from_json(serialize.state_to_json(st_))
        assert back.space.charges == sp.charges
        assert np.allclose(back.amplitudes, st_.amplitudes, atol=1e-9)

    def test_block_state_roundtrip(self, rng):
        sp = GradedSpace((0, 1), (2, 2))
        bs = g_twirl(random_density(rng, 4), sp)
        obj = serialize.block_state_to_json(bs)
        assert serialize.space_from_json(obj) == sp
        for n in sp.charges:
            back = np.array([[complex(re, im) for re, im in row]
                             for row in obj["blocks"][str(n)]])
            assert np.allclose(back, bs.block(n), atol=1e-9)

    def test_dumps_deterministic(self):
        payload = {"b": 1.0, "a": [1, 2]}
        assert serialize.dumps(payload) == serialize.dumps(dict(reversed(payload.items())))
