"""Explicit conserving unitary models of the optimal qubit readout.

The models couple a system qubit (conjugate observable with eigenstates
(|0> +/- |1>)/sqrt(2)) to a ladder resource and a small bank of register
qubits holding one unit of charge.  Projectors onto the twirl eigenbranches
drive register swaps, so the whole unitary is block diagonal across total
charge sectors (conservation is structural) and the pointer - which register
holds the excitation - commutes with the register charge (Yanase condition).

Wire order is (resource, system, [copy,] register qubits).  Each unitary is
a sum of Kronecker terms, lifted straight into its total-charge blocks in the
charge-major composite basis; no dense matrix is formed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .graded import (EPS_NUM, BlockDiagonal, CompositeSpace, GradedSpace, Observable,
                     _check_density, _require, uniform_state)
from .models import noise_of_model, ozawa_bound, plus_minus_eigenstates

PLUS_MINUS_OBSERVABLE = np.array([[0.0, 1.0], [1.0, 0.0]])  # |e+><e+| - |e-><e-|
POINTER_VALUES = {"plus": 1.0, "minus": -1.0, "fail": 0.0}
PROB_CUTOFF = 1e-14  # outcomes at or below this probability get no post-measurement state

__all__ = [
    "PLUS_MINUS_OBSERVABLE",
    "POINTER_VALUES",
    "CompositeSpace",
    "ConservingUnitary",
    "MeasurementModel",
    "build_ud_unitary",
    "build_mle_unitary",
    "build_repeatable_variant",
    "simulate_measurement",
    "verify_conservation",
    "verify_yanase",
    "unitarity_deviation",
    "model_manifest",
]


def unitarity_deviation(unitary: BlockDiagonal) -> float:
    """Largest entry of |U_s^dagger U_s - 1| over the sector blocks; zero for a unitary."""
    return float(np.max([np.max(np.abs(s.conj().swapaxes(1, 2) @ s - np.eye(k)))
                         for k, s in unitary.stacks.items()]))


def _pointer_diagonal(composite: CompositeSpace, pointer: dict[str, np.ndarray]) -> np.ndarray:
    """The pointer observable, valued by :data:`POINTER_VALUES`, as a composite-basis diagonal.

    The trailing wires of ``composite`` must be the register bank the pointer
    masks live on, so the register index is the Kronecker index modulo the
    bank dimension.
    """
    zreg = np.zeros(len(next(iter(pointer.values()))))
    for label, mask in pointer.items():
        zreg += POINTER_VALUES.get(label, 0.0) * mask
    return zreg[composite.kron_index % zreg.size]


class ConservingUnitary(BlockDiagonal):
    """Unitary on ``space``, held as its total-charge blocks.

    Being block diagonal, it commutes with the total charge by construction;
    only unitarity is checked, one stacked product per sector dimension.
    """

    def __post_init__(self):
        super().__post_init__()
        _require(unitarity_deviation(self), EPS_NUM, "matrix is not unitary within tolerance")

    @property
    def matrix(self) -> np.ndarray:
        """The dense unitary in the composite basis, formed on each read."""
        return self.to_dense()


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """A conserving premeasurement: wires, initial apparatus state, unitary, pointer.

    ``init`` holds one pure vector per wire, ``None`` marking the system wire
    where the input goes.  ``pointer`` maps outcome labels to diagonal 0/1
    vectors over the register-bank Kronecker basis (they partition it); the
    register wires are the trailing ``register_count`` qubit wires, a count
    read off the mask length.
    """

    kind: str
    m: int
    composite: CompositeSpace
    init: tuple[np.ndarray | None, ...]
    unitary: ConservingUnitary
    pointer: dict[str, np.ndarray]

    def __post_init__(self):
        # register bank must start in a sharp charge state (symmetric input)
        for i in range(len(self.composite.wires) - self.register_count,
                       len(self.composite.wires)):
            labels = self.composite.wires[i].charge_labels()
            support = {int(c) for c, a in zip(labels, self.init[i])
                       if abs(a) > EPS_NUM}
            if len(support) != 1:
                raise ValueError("register wire does not start in a charge eigenstate")

    @property
    def system_wire(self) -> int:
        """The wire whose ``init`` is ``None``."""
        # by identity: tuple.index(None) would compare None with the arrays
        return next(i for i, vec in enumerate(self.init) if vec is None)

    @property
    def register_count(self) -> int:
        """Number of register qubits: the pointer masks span 2**register_count entries."""
        return len(next(iter(self.pointer.values()))).bit_length() - 1

    @property
    def system_space(self) -> GradedSpace:
        return self.composite.wires[self.system_wire]

    def apparatus_wires(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.composite.wires)) if i != self.system_wire)

    @functools.cached_property
    def apparatus(self) -> CompositeSpace:
        """The composite of every wire but the system, in wire order; built once."""
        return CompositeSpace.of([self.composite.wires[i] for i in self.apparatus_wires()])

    @functools.cached_property
    def positions(self) -> np.ndarray:
        """(ds, da) composite index of |s, a>: system index s, apparatus Kronecker index a."""
        pos = np.argsort(self.composite.kron_index).reshape(self.composite.wire_dims)
        return np.moveaxis(pos, self.system_wire, 0).reshape(self.system_space.total_dim, -1)

    def system_operator_full(self, op: np.ndarray) -> np.ndarray:
        """A system-wire operator times the apparatus identity, in the composite graded basis."""
        pos, out = self.positions, np.zeros((self.composite.space.total_dim,) * 2, dtype=complex)
        out[pos[:, None], pos[None]] = np.asarray(op, dtype=complex)[..., None]
        return out

    def initial_density_full(self, system_rho: np.ndarray) -> np.ndarray:
        """rho_system (x) apparatus-init, in the composite graded basis."""
        rho = _check_density(system_rho, self.system_space.total_dim)
        return self.composite.promote(*(
            rho if i == self.system_wire else np.outer(vec, vec.conj())
            for i, vec in enumerate(self.init)))

    def noise(self, system_rho: np.ndarray) -> float:
        """Mean squared measurement noise of this model on a system input."""
        return noise_of_model(self.unitary,
                              self.system_operator_full(PLUS_MINUS_OBSERVABLE),
                              _pointer_diagonal(self.composite, self.pointer),
                              self.initial_density_full(system_rho))

    def noise_bound(self, system_rho: np.ndarray) -> float:
        """Commutator lower bound evaluated on rho_system (x) apparatus init."""
        app = self.apparatus
        app_rho = app.pure(*(self.init[i] for i in self.apparatus_wires())).density()
        joint = np.kron(_check_density(system_rho, self.system_space.total_dim), app_rho)
        return ozawa_bound(Observable(self.system_space, PLUS_MINUS_OBSERVABLE),
                           app.space, joint)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def _branch_projectors(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Twirl-eigenbranch projectors on resource (x) system, Kronecker layout.

    P_plus/P_minus project onto span{(|n,0> +/- |n-1,1>)/sqrt(2): n=1..M},
    P_edge onto span{|0,0>, |M,1>} (the two one-dimensional total-charge
    sectors where the two twirled states coincide).
    """
    dim = 2 * (m + 1)
    r = 1.0 / math.sqrt(2.0)
    h = r * r  # each entry of the outer products of (|n,0> +/- |n-1,1>)/sqrt(2)
    n0, n1 = np.arange(2, dim, 2), np.arange(1, dim - 1, 2)  # |n,0> and |n-1,1>, n = 1..M
    p_plus, p_minus, p_edge = np.zeros((3, dim, dim))
    for p, cross in ((p_plus, h), (p_minus, -h)):
        p[n0, n0] = p[n1, n1] = h
        p[n0, n1] = p[n1, n0] = cross
    p_edge[0, 0] = p_edge[-1, -1] = 1.0
    return p_plus, p_minus, p_edge


def _qubit_swap(num_wires: int, i: int, j: int) -> np.ndarray:
    """Full SWAP of register qubits i and j (0-based) on a bank of num_wires."""
    dim = 1 << num_wires
    perm = np.arange(dim)
    for idx in range(dim):
        bi = (idx >> (num_wires - 1 - i)) & 1
        bj = (idx >> (num_wires - 1 - j)) & 1
        if bi != bj:
            perm[idx] = idx ^ (1 << (num_wires - 1 - i)) ^ (1 << (num_wires - 1 - j))
    out = np.zeros((dim, dim))
    out[perm, np.arange(dim)] = 1.0
    return out


def _register_mask(num_wires: int, bits: tuple[int, ...]) -> np.ndarray:
    mask = np.zeros(1 << num_wires)
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    mask[idx] = 1.0
    return mask


def build_ud_unitary(m: int) -> MeasurementModel:
    """Unambiguous-readout circuit with three register qubits.

    The branch projectors control full register swaps: the '+' branch swaps
    registers 1,3 and the '-' branch registers 2,3, so the single excitation
    of the |001> start state ends in the register naming the outcome, and the
    two edge-sector components leave it in place (inconclusive).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    qubit = GradedSpace.qubit()
    comp = CompositeSpace.of([GradedSpace.ladder(m), qubit, qubit, qubit, qubit])
    p_plus, p_minus, p_edge = _branch_projectors(m)
    unitary = ConservingUnitary(comp.space, comp.lift(
        (p_edge, np.eye(8)), (p_minus, _qubit_swap(3, 1, 2)), (p_plus, _qubit_swap(3, 0, 2))))
    plus = _register_mask(3, (1, 0, 0))
    minus = _register_mask(3, (0, 1, 0))
    pointer = {"plus": plus, "minus": minus, "fail": np.ones(8) - plus - minus}
    init = (uniform_state(m).amplitudes, None,
            _register_mask(1, (0,)), _register_mask(1, (0,)),
            _register_mask(1, (1,)))
    return MeasurementModel("ud", m, comp, init, unitary, pointer)


def build_mle_unitary(m: int) -> MeasurementModel:
    """Minimum-error readout circuit with two register qubits.

    The Helstrom projector (the '+' branch plus the zero-eigenvalue edge
    sectors) swaps the excitation of the |01> start state into register 1;
    the '-' branch leaves it in register 2.  Pointer: 10 -> plus, 01 -> minus.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    qubit = GradedSpace.qubit()
    comp = CompositeSpace.of([GradedSpace.ladder(m), qubit, qubit, qubit])
    p_plus, p_minus, p_edge = _branch_projectors(m)
    unitary = ConservingUnitary(comp.space, comp.lift(
        (p_plus + p_edge, _qubit_swap(2, 0, 1)), (p_minus, np.eye(4))))
    plus = _register_mask(2, (1, 0))
    pointer = {"plus": plus, "minus": np.ones(4) - plus}
    init = (uniform_state(m).amplitudes, None,
            _register_mask(1, (0,)), _register_mask(1, (1,)))
    return MeasurementModel("mle", m, comp, init, unitary, pointer)


def build_repeatable_variant(m: int) -> MeasurementModel:
    """Unambiguous readout that restores the system eigenstate on success.

    A copy qubit on its own resource wire starts in (|0> + |1>)/sqrt(2).
    After the discrimination step, a register-controlled stage swaps the copy
    into the system on a '+' outcome, and on a '-' outcome first flips the
    copy's relative phase (making it the '-' eigenstate) and then swaps it in.
    On the inconclusive outcome nothing is restored.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    qubit = GradedSpace.qubit()
    comp = CompositeSpace.of([GradedSpace.ladder(m), qubit, qubit, qubit, qubit, qubit])
    p_plus, p_minus, p_edge = _branch_projectors(m)
    eye2, eye8 = np.eye(2), np.eye(8)
    v1 = BlockDiagonal(comp.space, comp.lift(
        (p_edge, np.kron(eye2, eye8)), (p_minus, np.kron(eye2, _qubit_swap(3, 1, 2))),
        (p_plus, np.kron(eye2, _qubit_swap(3, 0, 2)))))

    eye_r = np.eye(m + 1)
    swap_sc = _qubit_swap(2, 0, 1)
    phase_then_swap = swap_sc @ np.kron(eye2, np.diag([1.0, -1.0]))
    plus = _register_mask(3, (1, 0, 0))
    minus = _register_mask(3, (0, 1, 0))
    q_plus, q_minus = np.diag(plus), np.diag(minus)
    q_rest = eye8 - q_plus - q_minus
    v2 = BlockDiagonal(comp.space, comp.lift(
        (eye_r, np.kron(swap_sc, q_plus)), (eye_r, np.kron(phase_then_swap, q_minus)),
        (eye_r, np.kron(np.eye(4), q_rest))))

    pointer = {"plus": plus, "minus": minus, "fail": np.ones(8) - plus - minus}
    plus_vec, _ = plus_minus_eigenstates()
    init = (uniform_state(m).amplitudes, None, plus_vec.astype(complex),
            _register_mask(1, (0,)), _register_mask(1, (0,)),
            _register_mask(1, (1,)))
    return MeasurementModel("repeatable", m, comp, init,
                            ConservingUnitary(comp.space, (v2 @ v1).stacks), pointer)


# ---------------------------------------------------------------------------
# simulation and verification
# ---------------------------------------------------------------------------

def simulate_measurement(model: MeasurementModel, system_state: np.ndarray
                         ) -> dict[str, tuple[float, np.ndarray | None]]:
    """Run the premeasurement and read the pointer.

    Returns, per outcome label, the outcome probability and the normalized
    post-measurement reduced system state (``None`` when the outcome
    probability is numerically zero).  Probabilities sum to one.  Only the
    pointer-masked diagonal of V rho V^dagger and, for each apparatus index a,
    the system entries <s,a| . |s',a> are read.
    """
    v = model.unitary
    # the evolved state is b^dagger: two stacked products per sector dimension, on the
    # operands the dense readout used, so that every printed bit is kept
    b = v @ np.conjugate((v @ model.initial_density_full(system_state)).T, order="C")
    comp, pos = model.composite, model.positions
    diag = np.conj(np.diagonal(b))
    coherences = np.conj(b[pos[None, :, :], pos[:, None, :]])  # <s,a| . |s',a> at [s, s', a]
    out: dict[str, tuple[float, np.ndarray | None]] = {}
    for label, mask in model.pointer.items():
        keep = mask[comp.kron_index % mask.size]
        prob = float(np.real(np.sum(diag * keep)))
        if prob <= PROB_CUTOFF:
            out[label] = (max(prob, 0.0), None)
            continue
        kept = keep[pos]
        reduced = np.einsum(coherences * (kept[:, None, :] * kept[None, :, :]), [0, 1, 2], [0, 1])
        out[label] = (prob, reduced / prob)
    return out


def verify_conservation(unitary: ConservingUnitary) -> float:
    """Spectral norm of [V, N_tot]: 0.0, with no work done.

    V is held as total-charge blocks, and N_tot is constant on each, so they commute.
    """
    return 0.0


def verify_yanase(model: MeasurementModel) -> float:
    """Spectral norm of [Z_A, N_A] on the apparatus (pointer vs apparatus charge).

    Both are diagonal in the apparatus charge basis, so the commutator is the
    diagonal z n - n z, and its spectral norm is its largest entry.
    """
    app = model.apparatus
    z = _pointer_diagonal(app, model.pointer)
    n = app.space.charge_labels()
    return float(np.max(np.abs(z * n - n * z)))


def model_manifest(model: MeasurementModel) -> dict:
    """Machine-readable description of a model (spaces, init, pointer map)."""
    from .serialize import round_sig, space_to_json

    wires = []
    for i, w in enumerate(model.composite.wires):
        entry = space_to_json(w)
        entry["role"] = ("system" if i == model.system_wire
                         else "register" if i >= len(model.composite.wires) - model.register_count
                         else "resource")
        if model.init[i] is not None:
            entry["init"] = [[round_sig(z.real), round_sig(z.imag)] for z in model.init[i]]
        wires.append(entry)
    pointer = {label: [int(round(x)) for x in mask]
               for label, mask in model.pointer.items()}
    return {"kind": model.kind, "m": model.m, "total_dim": model.composite.space.total_dim,
            "wires": wires, "pointer_masks": pointer,
            "pointer_values": {k: round_sig(v) for k, v in POINTER_VALUES.items()}}
