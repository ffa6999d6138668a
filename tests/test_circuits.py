import functools
import math
import signal
import tracemalloc

import numpy as np
import pytest

from conftest import random_density, random_pure, random_unitary
from oracles import (composite_readout_reference, dense_circuit_reference,
                     dense_kron_unitary, kron_initial_density, kron_ozawa_bound,
                     outer_product_projectors, stacked_product)
from waylab.circuits import (PLUS_MINUS_OBSERVABLE, CompositeSpace, ConservingUnitary,
                             build_mle_unitary, build_repeatable_variant,
                             build_ud_unitary, model_manifest,
                             simulate_measurement, unitarity_deviation,
                             verify_conservation, verify_yanase)
from waylab.discrimination import Criterion, discriminate
from waylab.graded import (EPS_NUM, BlockDiagonal, GradedSpace, Observable, g_twirl, tensor,
                           uniform_state)
from waylab.models import twirled_pair_ensemble

E_PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)
E_MINUS = np.array([1.0, -1.0]) / math.sqrt(2.0)

ALL_BUILDERS = (build_ud_unitary, build_mle_unitary, build_repeatable_variant)
KINDS = {"ud": build_ud_unitary, "mle": build_mle_unitary, "repeatable": build_repeatable_variant}


def rho_of(vec):
    return np.outer(vec, vec.conj())


class TestStructuralChecks:
    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_unitary_conserving_yanase(self, builder, m):
        model = builder(m)
        u = model.unitary.matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-10
        assert model.unitary.deviation == unitarity_deviation(model.unitary)  # kept, not redone
        assert verify_conservation(model.unitary) < 1e-10
        assert verify_yanase(model) < 1e-10

    def test_register_init_is_charge_eigenstate(self):
        model = build_ud_unitary(2)
        for i in model.apparatus_wires()[1:]:
            vec = model.init[i]
            labels = model.composite.wires[i].charge_labels()
            support = labels[np.abs(vec) > 1e-12]
            assert len(set(support.tolist())) == 1

    def test_nonconserving_swap_detected(self):
        # swap between a charge-{0,1} qubit and a charge-{0,2} wire is not
        # charge conserving: the commutator norm is positive, and lifting it
        # into total-charge blocks drops the entries that move charge, which
        # leaves blocks that are not unitary
        a = GradedSpace.qubit()
        b = GradedSpace((0, 2), (1, 1))
        tm = tensor(a, b)
        e = np.eye(2)
        terms = [(np.outer(e[j], e[i]), np.outer(e[i], e[j]))
                 for i in range(2) for j in range(2)]  # |i,j> -> |j,i>
        v = tm.matrix(sum(np.kron(x, y) for x, y in terms))
        n = np.diag(tm.space.charge_labels())
        assert np.linalg.norm(v @ n - n @ v, 2) > 0.5
        with pytest.raises(ValueError, match="not unitary"):
            ConservingUnitary(tm.space, tm.lift(*terms))

    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_yanase_norm_is_exactly_zero(self, builder):
        # the pointer and the apparatus charge are both diagonal in the
        # apparatus charge basis, so their commutator vanishes identically
        for m in range(1, 9):
            assert verify_yanase(builder(m)) == 0.0

    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_outcome_masks_are_the_pointer_on_the_composite_basis(self, builder):
        # the register wires trail, so in the Kronecker layout each outcome mask
        # is the register mask repeated over the other wires; gathered once
        model = builder(3)
        masks = model.outcome_masks
        assert model.outcome_masks is masks and list(masks) == list(model.pointer)
        inv = np.argsort(model.composite.kron_index)
        for label, reg in model.pointer.items():
            rest = model.composite.space.total_dim // reg.size
            assert masks[label][inv].tobytes() == np.kron(np.ones(rest), reg).tobytes()

    @pytest.mark.parametrize("builder, wires", [(build_ud_unitary, (1, 3)),
                                                (build_mle_unitary, (1, 2)),
                                                (build_repeatable_variant, (1, 3))])
    def test_derived_system_wire_and_register_count(self, builder, wires):
        model = builder(2)
        assert (model.system_wire, model.register_count) == wires


class TestDenseReference:
    """Scalings by diagonal operators agree with the dense GEMM formulas."""

    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8])
    def test_matches_dense_formulas(self, builder, m, rng):
        model = builder(m)
        ref = dense_circuit_reference(model, rho_of(E_PLUS))
        assert verify_conservation(model.unitary) == pytest.approx(
            ref["conservation"], abs=1e-12)
        assert verify_yanase(model) == pytest.approx(ref["yanase"], abs=1e-12)
        inputs = [E_PLUS, E_MINUS, np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                  random_pure(rng, 2), random_pure(rng, 2)]
        for vec in inputs:
            rho = rho_of(vec)
            ref = dense_circuit_reference(model, rho)
            assert model.noise(rho) == pytest.approx(ref["noise"], abs=1e-12)
            assert model.noise_bound(rho) == pytest.approx(ref["noise_bound"], abs=1e-12)
            got = simulate_measurement(model, rho)
            assert set(got) == set(ref["outcomes"])
            for label, (prob, post) in got.items():
                ref_prob, ref_post = ref["outcomes"][label]
                assert prob == pytest.approx(ref_prob, abs=1e-12)
                assert (post is None) == (ref_post is None)
                if post is not None:
                    np.testing.assert_allclose(post, ref_post, rtol=0, atol=1e-12)


_seeded = np.random.default_rng(13)
PINNED_INPUTS = {"e+": E_PLUS, "e-": E_MINUS, "0": np.array([1.0, 0.0]),
                 "1": np.array([0.0, 1.0]), "seeded-a": random_pure(_seeded, 2),
                 "seeded-b": random_pure(_seeded, 2)}
# cases whose printed bytes are round-off: an outcome of probability ~1e-34
# (the recorded `circuit` digests) or an mle noise of exact value 0 that prints ~1e-16
ROUNDOFF = {("ud", 6, "e+"): "circuit/5", ("repeatable", 4, "e-"): "circuit/7",
            ("ud", 6, "e-"): "circuit/10", ("repeatable", 1, "e+"): "circuit/11",
            **{("mle", m, "e+"): "zero-noise" for m in (2, 4, 5, 8, 24)}}


def pinned_cases():
    for kind in KINDS:
        for m in (*range(1, 7), 8, 12, 24):
            for name in PINNED_INPUTS:
                tag = ROUNDOFF.get((kind, m, name))
                yield pytest.param(kind, m, name, tag,
                                   id=f"{kind}-{m}-{name}" + (f"-{tag}" if tag else ""))


@functools.lru_cache(maxsize=None)
def built(kind, m):
    return KINDS[kind](m)


class TestPinnedReadout:
    """The sector readout and noise keep every bit of the dense composite-basis forms."""

    @pytest.mark.parametrize("kind, m, name, tag", pinned_cases())
    def test_bits_match_the_dense_readout(self, kind, m, name, tag):
        model = built(kind, m)
        rho = rho_of(PINNED_INPUTS[name])
        ref = composite_readout_reference(model, rho)
        got = simulate_measurement(model, rho)
        assert list(got) == list(ref["outcomes"])
        for label, (prob, post) in got.items():
            ref_prob, ref_post = ref["outcomes"][label]
            assert prob.hex() == ref_prob.hex()
            assert (post is None) == (ref_post is None)
            if post is not None:
                assert post.tobytes() == ref_post.tobytes()
        noise = model.noise(rho)
        assert noise.hex() == ref["noise"].hex()  # == with the sign of a zero
        if tag == "zero-noise":
            assert 0.0 < noise < 1e-15
        elif tag:
            assert any(0.0 < p < 1e-30 for p, _ in got.values())


class TestPinnedReadoutAtTheLargestSizes(TestPinnedReadout):
    """The same bits at the benchmark's largest models, where the products are cut most.

    The readout, the noise and the bound read only the input's support there, 82
    to 130 of 520 to 672 rows; the bound keeps the full-joint trace's bits.
    """

    LARGEST = [("ud", 40), ("mle", 64), ("repeatable", 20)]

    @pytest.mark.parametrize("name", ["e+", "e-", "seeded-a"])
    @pytest.mark.parametrize("kind, m", LARGEST)
    def test_bits_match_the_dense_readout(self, kind, m, name):
        super().test_bits_match_the_dense_readout(kind, m, name, None)

    @pytest.mark.parametrize("name", ["e+", "e-", "seeded-a"])
    @pytest.mark.parametrize("kind, m", LARGEST)
    def test_bound_bits_match_the_kronecker_trace(self, kind, m, name):
        model = built(kind, m)
        rho = rho_of(PINNED_INPUTS[name])
        apparatus = model.apparatus.pure(*(model.init[i] for i in model.apparatus_wires()))
        want = kron_ozawa_bound(Observable(model.system_space, PLUS_MINUS_OBSERVABLE), rho,
                                apparatus)
        assert model.noise_bound(rho).hex() == want.hex()


class TestScatteredInput:
    """The input is the full Kronecker product's support block, scattered into zeros."""

    INPUTS = {"e+": rho_of(E_PLUS), "e-": rho_of(E_MINUS), "0": rho_of(np.array([1.0, 0.0])),
              "1": rho_of(np.array([0.0, 1.0])),
              "seeded": rho_of(random_pure(np.random.default_rng(29), 2)),
              "mixed": random_density(np.random.default_rng(31), 2)}

    @pytest.mark.parametrize("name", INPUTS)
    @pytest.mark.parametrize("m", [1, 2, 5, 20])
    @pytest.mark.parametrize("kind", KINDS)
    def test_bits_match_the_full_kronecker_product(self, kind, m, name):
        model = built(kind, m)
        got = model.initial_density_full(self.INPUTS[name])
        want = kron_initial_density(model, self.INPUTS[name])
        _, rows = model.input_support
        assert got[np.ix_(rows, rows)].tobytes() == want[np.ix_(rows, rows)].tobytes()
        # off the support the full product holds zeros, -0.0 where a negative real
        # part meets a 0; adding +0.0 leaves every other bit as it is
        assert got.tobytes() == (want + 0.0).tobytes()


@pytest.mark.parametrize("n", [1, 4, 13])
def test_sector_slice_products_match_the_stacked_products(n, rng):
    # sectors of equal dimension that are not adjacent, and a (d, n) operand, n != d
    space = GradedSpace((0, 1, 2, 3, 4), (1, 2, 1, 2, 3))
    blocks = BlockDiagonal(space, {
        k: rng.normal(size=(len(c), k, k)) + 1j * rng.normal(size=(len(c), k, k))
        for k, (c, _) in space.groups.items()})
    x = rng.normal(size=(space.total_dim, n)) + 1j * rng.normal(size=(space.total_dim, n))
    assert (blocks @ x).tobytes() == stacked_product(blocks, x).tobytes()
    # a real or column-major operand multiplies as its C-ordered complex copy
    assert (blocks @ x.real).tobytes() == stacked_product(blocks, x.real).tobytes()
    xf = np.asfortranarray(x)
    assert (blocks @ xf).tobytes() == stacked_product(blocks, x).tobytes()


@pytest.mark.parametrize("builder", ALL_BUILDERS)
@pytest.mark.parametrize("run, bound", [
    (lambda model, rho: model.noise(rho), 3.8),
    (lambda model, rho: model.noise_bound(rho), 3.0),
    (lambda model, rho: simulate_measurement(model, rho), 1.0),
], ids=["noise", "noise_bound", "simulate_measurement"])
def test_traced_peak_within_dense_matrices(builder, run, bound):
    # the peak in units of one dense complex d x d matrix, 16 d^2 bytes
    model = builder(20)
    rho = rho_of(np.array([1.0, 1.0j]) / math.sqrt(2.0))
    run(model, rho)  # cached indices are built before the trace
    tracemalloc.start()
    try:
        run(model, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    d = model.composite.space.total_dim
    assert peak <= bound * 16 * d * d


class TestSectorBlocks:
    """The unitaries are built as total-charge blocks, never as dense matrices."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", [*range(1, 13), 16, 24])
    def test_blocks_hold_the_dense_kronecker_bits(self, kind, m):
        model = KINDS[kind](m)
        want = model.composite.matrix(dense_kron_unitary(kind, m))
        assert model.unitary.matrix.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [*range(1, 40), 64, 100, 200])
    def test_branch_projectors_hold_the_outer_product_bits(self, m):
        # the builders' controls: discriminate's effects on the uniform resource,
        # here placed in the Kronecker layout of resource (x) system
        tm, ensemble = twirled_pair_ensemble(uniform_state(m))
        inv = np.argsort(tm.kron_index)
        p_plus, p_minus, p_edge = outer_product_projectors(m)
        for criterion, want in ((Criterion.UD, (p_plus, p_minus, p_edge)),
                                (Criterion.MLE, (p_plus + p_edge, p_minus))):
            effects = discriminate(ensemble, criterion).effects
            assert len(effects) == len(want)
            for eff, proj in zip(effects.values(), want):
                got = eff.to_dense()[np.ix_(inv, inv)]
                assert got.real.tobytes() == proj.tobytes()
                assert got.imag.tobytes() == np.zeros_like(proj).tobytes()  # +0.0 throughout

    def test_lift_matches_the_blocks_of_the_dense_kronecker_product(self, rng):
        # b acts on the last wire; the composite mixes sectors of several dimensions
        comp = CompositeSpace.of([GradedSpace((0, 1, 3), (1, 2, 1)), GradedSpace.qubit(),
                                  GradedSpace((-1, 0, 2), (2, 1, 1))])
        terms = [(random_unitary(rng, 8), random_unitary(rng, 4)) for _ in range(2)]
        for used in (terms[:1], terms):
            lifted = BlockDiagonal(comp.space, comp.lift(*used))
            want = comp.matrix(sum(np.kron(a, b) for a, b in used))
            for n in comp.space.charges:
                s = comp.space.slice_of(n)
                assert lifted.block(n).tobytes() == want[s, s].tobytes()

    def test_products_match_the_dense_products(self, rng):
        space = GradedSpace((0, 1, 2, 5), (2, 3, 2, 1))

        def random_blocks():
            return BlockDiagonal(space, {k: np.stack([random_unitary(rng, k) for _ in charges])
                                         for k, (charges, _) in space.groups.items()})
        u, v = random_blocks(), random_blocks()
        rows = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        np.testing.assert_allclose((u @ v).to_dense(), u.to_dense() @ v.to_dense(),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(u @ rows, u.to_dense() @ rows, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_top_of_range_builds_and_verifies_in_blocks(self, builder):
        # one dense complex unitary at m = 1000 takes 1.0 (mle) to 16.4 (repeatable) GB
        def expire(signum, frame):
            raise TimeoutError(f"{builder.__name__}(1000) still running after 5 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        tracemalloc.start()
        try:
            model = builder(1000)
            deviation = unitarity_deviation(model.unitary)
            yanase = verify_yanase(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert deviation <= EPS_NUM
        assert yanase == 0.0
        assert peak < 160 * 2 ** 20


@pytest.mark.parametrize("rho, message", [
    (np.eye(2), "unit trace"),
    (np.array([[math.nan, 0.0], [0.0, 1.0]]), "nan exceeds tolerance"),
    (np.diag([1.5, -0.5]), "positive semidefinite"),
    (np.array([[0.5, 0.5], [0.0, 0.5]]), "Hermitian"),
    (np.eye(3) / 3, "dimension"),
], ids=["trace-2", "nan", "non-psd", "non-hermitian", "wrong-shape"])
@pytest.mark.parametrize("run", [
    lambda model, rho: simulate_measurement(model, rho),
    lambda model, rho: model.noise(rho),
    lambda model, rho: model.noise_bound(rho),
], ids=["simulate_measurement", "noise", "noise_bound"])
def test_invalid_system_state_rejected(run, rho, message):
    with pytest.raises(ValueError, match=message):
        run(build_ud_unitary(2), rho)


class TestUdCircuit:
    def test_m1_plus_input_statistics(self):
        out = simulate_measurement(build_ud_unitary(1), rho_of(E_PLUS))
        assert out["plus"][0] == pytest.approx(0.5, abs=1e-12)
        assert out["minus"][0] == pytest.approx(0.0, abs=1e-12)
        assert out["fail"][0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_no_misidentification(self, m):
        model = build_ud_unitary(m)
        assert simulate_measurement(model, rho_of(E_PLUS))["minus"][0] < 1e-12
        assert simulate_measurement(model, rho_of(E_MINUS))["plus"][0] < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_statistics_match_discrimination_povm(self, m, rng):
        model = build_ud_unitary(m)
        _, ensemble = twirled_pair_ensemble(uniform_state(m))
        res = discriminate(ensemble, Criterion.UD)
        tm = tensor(uniform_state(m).space, GradedSpace.qubit())
        for _ in range(10):
            rho_sys = random_density(rng, 2)
            outcomes = simulate_measurement(model, rho_sys)
            joint = tm.matrix(np.kron(rho_of(uniform_state(m).amplitudes), rho_sys))
            twirled = g_twirl(joint, tm.space).to_dense()
            for label, eff in res.global_effects.items():
                expected = float(np.real(np.trace(eff @ twirled)))
                assert outcomes[label][0] == pytest.approx(expected, abs=1e-9)

    def test_superposition_input_statistics(self):
        # (e+ + e-)/sqrt(2) = |0>: statistics equal the equal-prior mixture's
        model = build_ud_unitary(5)
        out = simulate_measurement(model, np.diag([1.0, 0.0]).astype(complex))
        assert out["plus"][0] == pytest.approx(5 / 12, abs=1e-12)
        assert out["minus"][0] == pytest.approx(5 / 12, abs=1e-12)
        assert out["fail"][0] == pytest.approx(1 / 6, abs=1e-12)

    def test_probabilities_sum_to_one(self, rng):
        model = build_ud_unitary(3)
        for _ in range(10):
            out = simulate_measurement(model, random_density(rng, 2))
            assert sum(p for p, _ in out.values()) == pytest.approx(1.0, abs=1e-10)

    def test_post_states_are_valid_densities(self, rng):
        model = build_ud_unitary(2)
        for _ in range(5):
            out = simulate_measurement(model, random_density(rng, 2))
            for prob, post in out.values():
                if post is None:
                    continue
                assert abs(np.trace(post).real - 1.0) < 1e-10
                assert np.max(np.abs(post - post.conj().T)) < 1e-10
                assert np.linalg.eigvalsh(post)[0] > -1e-10

    def test_plain_ud_does_not_restore_system(self):
        # the non-repeatable circuit swaps the system into the register bank;
        # the post-measurement system state is not the input eigenstate
        out = simulate_measurement(build_ud_unitary(2), rho_of(E_PLUS))
        prob, post = out["plus"]
        fidelity = float(np.real(E_PLUS.conj() @ post @ E_PLUS))
        assert fidelity < 1 - 1e-3


class TestMleCircuit:
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_success_probability(self, m):
        model = build_mle_unitary(m)
        succ = 0.5 * simulate_measurement(model, rho_of(E_PLUS))["plus"][0] \
            + 0.5 * simulate_measurement(model, rho_of(E_MINUS))["minus"][0]
        assert succ == pytest.approx((2 * m + 1) / (2 * m + 2), abs=1e-12)

    @pytest.mark.parametrize("m", [1, 3])
    def test_statistics_match_helstrom_povm(self, m, rng):
        model = build_mle_unitary(m)
        _, ensemble = twirled_pair_ensemble(uniform_state(m))
        res = discriminate(ensemble, Criterion.MLE)
        tm = tensor(uniform_state(m).space, GradedSpace.qubit())
        for _ in range(10):
            rho_sys = random_density(rng, 2)
            outcomes = simulate_measurement(model, rho_sys)
            joint = tm.matrix(np.kron(rho_of(uniform_state(m).amplitudes), rho_sys))
            for label, eff in res.global_effects.items():
                expected = float(np.real(np.trace(eff @ joint)))
                assert outcomes[label][0] == pytest.approx(expected, abs=1e-9)

    def test_pointer_map(self):
        model = build_mle_unitary(2)
        assert model.pointer["plus"][0b10] == 1.0
        assert model.pointer["plus"][0b01] == 0.0
        assert model.pointer["minus"][0b01] == 1.0
        assert model.pointer["minus"][0b10] == 0.0


class TestRepeatableVariant:
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_success_restores_eigenstate(self, m):
        model = build_repeatable_variant(m)
        for vec, label in ((E_PLUS, "plus"), (E_MINUS, "minus")):
            prob, post = simulate_measurement(model, rho_of(vec))[label]
            assert prob == pytest.approx(m / (m + 1), abs=1e-12)
            fidelity = float(np.real(vec.conj() @ post @ vec))
            assert fidelity >= 1 - 1e-9

    @pytest.mark.parametrize("m", [1, 3])
    def test_outcome_probabilities_unchanged_from_plain_ud(self, m, rng):
        plain = build_ud_unitary(m)
        rep = build_repeatable_variant(m)
        for _ in range(5):
            rho_sys = random_density(rng, 2)
            out_plain = simulate_measurement(plain, rho_sys)
            out_rep = simulate_measurement(rep, rho_sys)
            for label in out_plain:
                assert out_rep[label][0] == pytest.approx(out_plain[label][0],
                                                          abs=1e-10)

    def test_no_restoration_guarantee_on_fail(self):
        model = build_repeatable_variant(2)
        prob, post = simulate_measurement(model, rho_of(E_PLUS))["fail"]
        fidelity = float(np.real(E_PLUS.conj() @ post @ E_PLUS))
        assert fidelity < 1 - 1e-3


class TestEqSevenSectorAction:
    def test_branch_action_within_sectors(self):
        # restricted to total-charge sector n (1..M) x one-excitation register
        # subspace, the unitary acts as the quoted projector-controlled swaps
        m = 3
        model = build_ud_unitary(m)
        comp = model.composite
        v = model.unitary.matrix
        rs_tm = tensor(GradedSpace.ladder(m), GradedSpace.qubit())

        def composite_vector(rs_vec, reg_bits):
            reg = np.zeros(8)
            reg[int("".join(map(str, reg_bits)), 2)] = 1.0
            return comp.vector(np.kron(rs_vec, reg))

        for n in range(1, m + 1):
            phi_p = np.zeros(rs_tm.space.total_dim, dtype=complex)
            sl = rs_tm.space.slice_of(n)
            # basis inside sector n is (|n-1,1>, |n,0>) - build phi+- explicitly
            ia, ib = np.unravel_index(rs_tm.kron_index, rs_tm.wire_dims)
            idx = list(range(sl.start, sl.stop))
            vec_n0 = np.zeros(rs_tm.space.total_dim, dtype=complex)
            vec_n11 = np.zeros(rs_tm.space.total_dim, dtype=complex)
            for g in idx:
                if ib[g] == 0:
                    vec_n0[g] = 1.0
                else:
                    vec_n11[g] = 1.0
            phi_p = (vec_n0 + vec_n11) / math.sqrt(2)
            phi_m = (vec_n0 - vec_n11) / math.sqrt(2)
            in_p = composite_vector(phi_p, (0, 0, 1))
            in_m = composite_vector(phi_m, (0, 0, 1))
            assert np.allclose(v @ in_p, composite_vector(phi_p, (1, 0, 0)),
                               atol=1e-12)
            assert np.allclose(v @ in_m, composite_vector(phi_m, (0, 1, 0)),
                               atol=1e-12)

    def test_register_excitation_routing_is_sharp(self):
        # starting from the physical register configuration, every branch input
        # ends up supported on exactly one register configuration
        m = 2
        model = build_ud_unitary(m)
        comp = model.composite
        v = model.unitary.matrix
        inv = np.argsort(comp.kron_index)
        dims = comp.wire_dims
        reg_dim = 8
        rs_dim = dims[0] * dims[1]
        v_kron = v[np.ix_(inv, inv)].reshape(rs_dim, reg_dim, rs_dim, reg_dim)
        start = 0b001
        for rs_in in range(rs_dim):
            out = v_kron[:, :, rs_in, start]          # (rs_out, reg_out)
            reg_weights = np.sum(np.abs(out) ** 2, axis=0)
            assert np.sum(reg_weights > 1e-12) <= 2   # branch superpositions
        # and each pure branch vector routes to a single configuration
        p_plus, p_minus, p_edge = outer_product_projectors(m)
        for proj, target in ((p_plus, 0b100), (p_minus, 0b010), (p_edge, 0b001)):
            vals, vecs = np.linalg.eigh(proj)
            for col in np.where(vals > 0.5)[0]:
                vec_in = np.kron(vecs[:, col], np.eye(reg_dim)[start])
                vec_out = (v @ comp.vector(vec_in))[inv] \
                    .reshape(rs_dim, reg_dim)
                reg_weights = np.sum(np.abs(vec_out) ** 2, axis=0)
                assert reg_weights[target] == pytest.approx(1.0, abs=1e-12)


class TestOzawaInequality:
    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_noise_dominates_bound_random_inputs(self, builder, m, rng):
        model = builder(m)
        for _ in range(20):
            vec = random_pure(rng, 2)
            rho = rho_of(vec)
            assert model.noise(rho) >= model.noise_bound(rho) - 1e-10

    def test_margin_positive_for_complex_phase_input(self):
        vec = np.array([1.0, 1.0j]) / math.sqrt(2)
        for m in range(1, 11):
            model = build_ud_unitary(m)
            noise = model.noise(rho_of(vec))
            bound = model.noise_bound(rho_of(vec))
            assert noise >= bound - 1e-12
            assert noise == pytest.approx(1 / (m + 1), abs=1e-10)


class TestManifest:
    def test_manifest_shape(self):
        man = model_manifest(build_ud_unitary(2))
        assert man["kind"] == "ud"
        assert man["m"] == 2
        assert len(man["wires"]) == 5
        assert man["wires"][1]["role"] == "system"
        assert set(man["pointer_masks"]) == {"plus", "minus", "fail"}

    def test_composite_space_dims(self):
        comp = CompositeSpace.of([GradedSpace.ladder(2), GradedSpace.qubit()])
        assert comp.space.total_dim == 6
        assert comp.wire_dims == (3, 2)
