"""Explicit conserving unitary models of the optimal qubit readout.

The models couple a system qubit (conjugate observable with eigenstates
(|0> +/- |1>)/sqrt(2)) to a ladder resource and a small bank of register
qubits holding one unit of charge.  Projectors onto the twirl eigenbranches
drive register swaps, so the whole unitary is block diagonal across total
charge sectors (conservation is structural) and the pointer - which register
holds the excitation - commutes with the register charge (Yanase condition).

Wire order is (resource, system, [copy,] register qubits).  Operators are
assembled in the plain multi-wire Kronecker layout and permuted once into the
charge-major composite basis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .graded import (EPS_NUM, CompositeSpace, GradedSpace, Observable, _freeze,
                     _require, uniform_state)
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


def unitarity_deviation(u: np.ndarray) -> float:
    """Largest entry of |U^dagger U - 1|; zero for a unitary."""
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def _commutator_norm(a: np.ndarray, n: np.ndarray) -> float:
    """Spectral norm of [A, diag(n)]; exactly 0.0, without an SVD, when they commute."""
    comm = a * n - n[:, None] * a
    return float(np.linalg.norm(comm, 2)) if comm.any() else 0.0


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


@dataclass(frozen=True, eq=False)
class ConservingUnitary:
    """Unitary on ``space`` that commutes with its total charge, diag(space.charge_labels())."""

    space: GradedSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.space.total_dim
        if m.shape != (d, d):
            raise ValueError("matrix does not match space dimension")
        _require(unitarity_deviation(m), EPS_NUM, "matrix is not unitary within tolerance")
        _require(_commutator_norm(m, self.space.charge_labels()), EPS_NUM,
                 "matrix does not conserve the total charge")
        object.__setattr__(self, "matrix", _freeze(m))


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

    def system_operator_full(self, op: np.ndarray) -> np.ndarray:
        """Promote a system-wire operator to the composite graded basis."""
        return self.composite.promote(*(
            np.asarray(op, dtype=complex) if i == self.system_wire else np.eye(d)
            for i, d in enumerate(self.composite.wire_dims)))

    def initial_density_full(self, system_rho: np.ndarray) -> np.ndarray:
        """rho_system (x) apparatus-init, in the composite graded basis."""
        rho = np.asarray(system_rho, dtype=complex)
        ds = self.system_space.total_dim
        if rho.shape != (ds, ds):
            raise ValueError("system state has wrong dimension")
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
        joint = np.kron(np.asarray(system_rho, dtype=complex), app_rho)
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

    def ket(r: int, s: int) -> np.ndarray:
        v = np.zeros(dim)
        v[2 * r + s] = 1.0
        return v

    p_plus = np.zeros((dim, dim))
    p_minus = np.zeros((dim, dim))
    for n in range(1, m + 1):
        phi_p = (ket(n, 0) + ket(n - 1, 1)) / math.sqrt(2.0)
        phi_m = (ket(n, 0) - ket(n - 1, 1)) / math.sqrt(2.0)
        p_plus += np.outer(phi_p, phi_p)
        p_minus += np.outer(phi_m, phi_m)
    p_edge = np.outer(ket(0, 0), ket(0, 0)) + np.outer(ket(m, 1), ket(m, 1))
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


def _assemble(kind: str, m: int, wires: list[GradedSpace], init: list[np.ndarray | None],
              v_kron: np.ndarray, pointer: dict[str, np.ndarray]) -> MeasurementModel:
    comp = CompositeSpace.of(wires)
    unitary = ConservingUnitary(comp.space, comp.matrix(v_kron))
    return MeasurementModel(kind=kind, m=m, composite=comp, init=tuple(init),
                            unitary=unitary, pointer=pointer)


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
    wires = [GradedSpace.ladder(m), qubit, qubit, qubit, qubit]
    p_plus, p_minus, p_edge = _branch_projectors(m)
    v_kron = (np.kron(p_edge, np.eye(8))
              + np.kron(p_minus, _qubit_swap(3, 1, 2))
              + np.kron(p_plus, _qubit_swap(3, 0, 2)))
    plus = _register_mask(3, (1, 0, 0))
    minus = _register_mask(3, (0, 1, 0))
    pointer = {"plus": plus, "minus": minus, "fail": np.ones(8) - plus - minus}
    init = [uniform_state(m).amplitudes, None,
            _register_mask(1, (0,)), _register_mask(1, (0,)),
            _register_mask(1, (1,))]
    return _assemble("ud", m, wires, init, v_kron, pointer)


def build_mle_unitary(m: int) -> MeasurementModel:
    """Minimum-error readout circuit with two register qubits.

    The Helstrom projector (the '+' branch plus the zero-eigenvalue edge
    sectors) swaps the excitation of the |01> start state into register 1;
    the '-' branch leaves it in register 2.  Pointer: 10 -> plus, 01 -> minus.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    qubit = GradedSpace.qubit()
    wires = [GradedSpace.ladder(m), qubit, qubit, qubit]
    p_plus, p_minus, p_edge = _branch_projectors(m)
    v_kron = (np.kron(p_plus + p_edge, _qubit_swap(2, 0, 1))
              + np.kron(p_minus, np.eye(4)))
    plus = _register_mask(2, (1, 0))
    pointer = {"plus": plus, "minus": np.ones(4) - plus}
    init = [uniform_state(m).amplitudes, None,
            _register_mask(1, (0,)), _register_mask(1, (1,))]
    return _assemble("mle", m, wires, init, v_kron, pointer)


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
    wires = [GradedSpace.ladder(m), qubit, qubit, qubit, qubit, qubit]
    p_plus, p_minus, p_edge = _branch_projectors(m)
    eye2, eye8 = np.eye(2), np.eye(8)
    v1 = (np.kron(p_edge, np.kron(eye2, eye8))
          + np.kron(p_minus, np.kron(eye2, _qubit_swap(3, 1, 2)))
          + np.kron(p_plus, np.kron(eye2, _qubit_swap(3, 0, 2))))

    dim_rs = 2 * (m + 1)
    eye_r = np.eye(m + 1)
    swap_sc = _qubit_swap(2, 0, 1)
    phase_then_swap = swap_sc @ np.kron(eye2, np.diag([1.0, -1.0]))
    q_plus = np.diag(_register_mask(3, (1, 0, 0)))
    q_minus = np.diag(_register_mask(3, (0, 1, 0)))
    q_rest = eye8 - q_plus - q_minus
    v2 = (np.kron(eye_r, np.kron(swap_sc, q_plus))
          + np.kron(eye_r, np.kron(phase_then_swap, q_minus))
          + np.kron(eye_r, np.kron(np.eye(4), q_rest)))
    v_kron = v2 @ v1

    plus = _register_mask(3, (1, 0, 0))
    minus = _register_mask(3, (0, 1, 0))
    pointer = {"plus": plus, "minus": minus, "fail": np.ones(8) - plus - minus}
    plus_vec, _ = plus_minus_eigenstates()
    init = [uniform_state(m).amplitudes, None, plus_vec.astype(complex),
            _register_mask(1, (0,)), _register_mask(1, (0,)),
            _register_mask(1, (1,))]
    return _assemble("repeatable", m, wires, init, v_kron, pointer)


# ---------------------------------------------------------------------------
# simulation and verification
# ---------------------------------------------------------------------------

def simulate_measurement(model: MeasurementModel, system_state: np.ndarray
                         ) -> dict[str, tuple[float, np.ndarray | None]]:
    """Run the premeasurement and read the pointer.

    Returns, per outcome label, the outcome probability and the normalized
    post-measurement reduced system state (``None`` when the outcome
    probability is numerically zero).  Probabilities sum to one.
    """
    rho = model.initial_density_full(system_state)
    v = model.unitary.matrix
    evolved = v @ rho @ v.conj().T

    comp = model.composite
    inv = np.argsort(comp.kron_index)
    dims = comp.wire_dims
    sys_i = model.system_wire
    ds = dims[sys_i]
    out: dict[str, tuple[float, np.ndarray | None]] = {}
    for label, mask in model.pointer.items():
        keep = mask[comp.kron_index % mask.size]
        selected = evolved * np.outer(keep, keep)
        prob = float(np.real(np.trace(selected)))
        if prob <= PROB_CUTOFF:
            out[label] = (max(prob, 0.0), None)
            continue
        kron_rho = selected[np.ix_(inv, inv)].reshape(*dims, *dims)
        # trace out every wire but the system
        keep_src = list(range(len(dims)))
        keep_dst = [i + len(dims) for i in keep_src]
        subs_in = keep_src + keep_dst
        for i in range(len(dims)):
            if i != sys_i:
                subs_in[len(dims) + i] = i
        reduced = np.einsum(kron_rho, subs_in, [sys_i, len(dims) + sys_i])
        out[label] = (prob, reduced.reshape(ds, ds) / prob)
    return out


def verify_conservation(unitary: ConservingUnitary) -> float:
    """Spectral norm of [V, N_tot]; zero for a charge-conserving unitary."""
    return _commutator_norm(unitary.matrix, unitary.space.charge_labels())


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
