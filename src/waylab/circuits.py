"""Explicit conserving unitary models of the optimal qubit readout.

The models couple a system qubit (conjugate observable with eigenstates
(|0> +/- |1>)/sqrt(2)) to a ladder resource and a small bank of register
qubits holding one unit of charge.  The optimal POVM of the twirled ensemble,
``discriminate``'s sector effects, drives register swaps, so the whole unitary
is block diagonal across total charge sectors (conservation is structural) and
the pointer - which register holds the excitation - commutes with the register
charge (Yanase condition).

Wire order is (resource, system, [copy,] register qubits).  Each unitary is
a sum of Kronecker terms, lifted straight into its total-charge blocks in the
charge-major composite basis; no dense matrix is formed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .graded import (EPS_NUM, BlockDiagonal, CompositeSpace, GradedSpace, NumericalError,
                     Observable, _check_density, _require, uniform_state)
from .discrimination import Criterion, discriminate
from .models import noise_of_model, ozawa_bound, plus_minus_eigenstates, twirled_pair_ensemble
from .serialize import _complex_pair, round_sig, space_to_json

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


class ConservingUnitary(BlockDiagonal):
    """Unitary on ``space``, held as its total-charge blocks.

    Being block diagonal, it commutes with the total charge by construction;
    only unitarity is checked, one stacked product per sector dimension, and
    the checked ``unitarity_deviation`` is kept as ``deviation``.
    """

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "deviation", unitarity_deviation(self))
        _require(self.deviation, EPS_NUM, "matrix is not unitary within tolerance",
                 NumericalError)

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
    read off the mask length.  Models come from the three builders
    (``build_ud_unitary``, ``build_mle_unitary``, ``build_repeatable_variant``),
    which start every register in a charge eigenstate; nothing re-checks that.
    """

    kind: str
    m: int
    composite: CompositeSpace
    init: tuple[np.ndarray | None, ...]
    unitary: ConservingUnitary
    pointer: dict[str, np.ndarray]

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
    def outcome_masks(self) -> dict[str, np.ndarray]:
        """Each outcome's pointer mask on the composite basis; gathered once."""
        register = self.composite.kron_index % (1 << self.register_count)
        return {label: mask[register] for label, mask in self.pointer.items()}

    @functools.cached_property
    def _kron_position(self) -> np.ndarray:
        """Composite index of each Kronecker basis state, one axis per wire."""
        return np.argsort(self.composite.kron_index).reshape(self.composite.wire_dims)

    @functools.cached_property
    def positions(self) -> np.ndarray:
        """(ds, da) composite index of |s, a>: system index s, apparatus Kronecker index a."""
        pos = np.moveaxis(self._kron_position, self.system_wire, 0)
        return pos.reshape(self.system_space.total_dim, -1)

    @functools.cached_property
    def input_support(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Where every input rho_system (x) apparatus-init can be nonzero.

        Returns each wire's support (all of the system wire, the nonzero ``init``
        entries elsewhere) and the composite rows of their product, in Kronecker order.
        """
        supports = tuple(np.arange(w.total_dim) if vec is None else np.flatnonzero(vec)
                         for w, vec in zip(self.composite.wires, self.init))
        return supports, self._kron_position[np.ix_(*supports)].ravel()

    def initial_density_block(self, system_rho: np.ndarray) -> np.ndarray:
        """rho_system (x) apparatus-init on ``input_support``'s rows and columns."""
        rho = _check_density(system_rho, self.system_space.total_dim)
        supports, _ = self.input_support
        # the same products, in wire order, as the full Kronecker product, on the support only
        return functools.reduce(np.kron, (
            rho if vec is None else np.outer(vec[s], vec[s].conj())
            for vec, s in zip(self.init, supports)))

    def initial_density_full(self, system_rho: np.ndarray) -> np.ndarray:
        """rho_system (x) apparatus-init, in the composite graded basis."""
        block = self.initial_density_block(system_rho)
        _, rows = self.input_support
        out = np.zeros((self.composite.space.total_dim,) * 2, dtype=complex)
        out[rows[:, None], rows] = block
        return out

    def noise(self, system_rho: np.ndarray) -> float:
        """Mean squared measurement noise of this model on a system input."""
        z = sum(POINTER_VALUES.get(label, 0.0) * keep
                for label, keep in self.outcome_masks.items())
        pos, d = self.positions, self.composite.space.total_dim
        l_full = np.zeros((d, d), dtype=complex)
        l_full[pos[:, None], pos[None]] = PLUS_MINUS_OBSERVABLE[..., None]  # L (x) 1, by index
        return noise_of_model(self.unitary, l_full, z, self.initial_density_full(system_rho))

    def noise_bound(self, system_rho: np.ndarray) -> float:
        """Commutator lower bound evaluated on rho_system (x) apparatus init."""
        return ozawa_bound(Observable(self.system_space, PLUS_MINUS_OBSERVABLE), system_rho,
                           self.apparatus.pure(*(self.init[i] for i in self.apparatus_wires())))


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def _qubit_swap(num_wires: int, i: int, j: int) -> np.ndarray:
    """SWAP of qubits i and j (0-based) of a bank of num_wires: the identity, their rows swapped."""
    eye = np.eye(1 << num_wires).reshape((2,) * (2 * num_wires))
    return eye.swapaxes(i, j).reshape(1 << num_wires, 1 << num_wires)


def _readout(m: int, criterion: Criterion, *idle: np.ndarray) -> tuple:
    """The optimal readout of the uniform resource, as composite, sector stacks, pointer, init.

    ``discriminate``'s effects control a bank of one register qubit per outcome, the
    last one starting excited: effect i swaps that excitation into register i, which
    the pointer then reads (every other configuration reads as the last outcome).
    ``idle`` are the start vectors of qubit wires between the system and the bank.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    resource = uniform_state(m)
    _, ensemble = twirled_pair_ensemble(resource)
    effects = discriminate(ensemble, criterion).effects
    r, n, qubit = len(effects), len(idle) + len(effects), GradedSpace.qubit()
    comp = CompositeSpace.of([resource.space, qubit, *(qubit,) * n])
    stacks = comp.lift(*((eff, _qubit_swap(n, n - r + i, n - 1))
                         for i, eff in enumerate(effects.values())))
    *labels, last = effects
    pointer = dict(zip(labels, np.eye(1 << r)[1 << np.arange(r - 1, 0, -1)]))
    pointer[last] = np.ones(1 << r) - sum(pointer.values())
    return comp, stacks, pointer, (resource.amplitudes, None, *idle,
                                   *np.eye(2)[[0] * (r - 1) + [1]])


def build_ud_unitary(m: int) -> MeasurementModel:
    """Unambiguous-readout circuit with three register qubits.

    The UD effects control full register swaps: the '+' effect swaps
    registers 1,3 and the '-' effect registers 2,3, so the single excitation
    of the |001> start state ends in the register naming the outcome, and the
    inconclusive effect (the two edge sectors) leaves it in place.
    """
    comp, stacks, pointer, init = _readout(m, Criterion.UD)
    return MeasurementModel("ud", m, comp, init, ConservingUnitary(comp.space, stacks), pointer)


def build_mle_unitary(m: int) -> MeasurementModel:
    """Minimum-error readout circuit with two register qubits.

    The Helstrom projector (the '+' branch plus the zero-eigenvalue edge
    sectors) swaps the excitation of the |01> start state into register 1;
    the '-' branch leaves it in register 2.  Pointer: 10 -> plus, 01 -> minus.
    """
    comp, stacks, pointer, init = _readout(m, Criterion.MLE)
    return MeasurementModel("mle", m, comp, init, ConservingUnitary(comp.space, stacks), pointer)


def build_repeatable_variant(m: int) -> MeasurementModel:
    """Unambiguous readout that restores the system eigenstate on success.

    A copy qubit on its own resource wire starts in (|0> + |1>)/sqrt(2).
    After the discrimination step, a register-controlled stage swaps the copy
    into the system on a '+' outcome, and on a '-' outcome first flips the
    copy's relative phase (making it the '-' eigenstate) and then swaps it in.
    On the inconclusive outcome nothing is restored.
    """
    plus_vec, _ = plus_minus_eigenstates()
    comp, v1, pointer, init = _readout(m, Criterion.UD, plus_vec.astype(complex))
    swap_sc, eye_r = _qubit_swap(2, 0, 1), np.eye(m + 1)
    restore = {"plus": swap_sc, "minus": swap_sc @ np.kron(np.eye(2), np.diag([1.0, -1.0])),
               "fail": np.eye(4)}  # on '-', flip the copy's phase, then swap it in
    v2 = BlockDiagonal(comp.space, comp.lift(*((eye_r, np.kron(restore[label], np.diag(mask)))
                                               for label, mask in pointer.items())))
    return MeasurementModel("repeatable", m, comp, init, ConservingUnitary(
        comp.space, (v2 @ BlockDiagonal(comp.space, v1)).stacks), pointer)


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
    v, (_, rows) = model.unitary, model.input_support
    space, d = v.space, v.space.total_dim
    # The evolved state is b^dagger with b = V (V rho)^dagger: two products per sector over
    # the dense readout's full inner dimensions, with only their columns cut.  The builders'
    # V has imaginary parts of +0.0, and on such a left factor a column cut keeps every bit.
    # V rho is formed on rho's nonzero columns, the support rows, which are also the only
    # nonzero rows of (V rho)^dagger = rho V^dagger.
    x = np.zeros((d, len(rows)), dtype=complex)
    x[rows] = model.initial_density_block(system_state)
    adjoint_rows = np.conj((v @ x).T)
    # Only b's columns within `reach` charges of each row's sector are read: its diagonal
    # and every <s,a| . |s',a>.  Each sector's rows take one band of `width` columns that
    # holds them, from column start[i] on, and V multiplies (V rho)^dagger on that band.
    sys_charges, charges = model.system_space.charges, np.array(space.charges)
    reach = sys_charges[-1] - sys_charges[0]
    offsets = np.cumsum((0, *space.dims))
    first = offsets[np.searchsorted(charges, charges - reach)]
    width = np.max(offsets[np.searchsorted(charges, charges + reach, side="right")] - first)
    start = np.repeat(np.minimum(first, d - width), space.dims)
    operand = np.zeros((d, width), dtype=complex)
    operand[rows] = np.take_along_axis(adjoint_rows, start[rows, None] + np.arange(width), 1)
    band = v @ operand  # band[i, j] = b[i, start[i] + j]
    pos = model.positions
    diag = np.conj(band[np.arange(d), np.arange(d) - start])
    # <s,a| . |s',a> at [s, s', a]
    coherences = np.conj(band[pos[None, :, :], pos[:, None, :] - start[pos[None, :, :]]])
    out: dict[str, tuple[float, np.ndarray | None]] = {}
    for label, keep in model.outcome_masks.items():
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
    """Spectral norm of [Z_A, N_A] on the apparatus: 0.0, with no work done.

    The pointer is held as masks over register basis states, each a charge
    eigenstate, so Z_A is diagonal in a charge basis and commutes with N_A.
    """
    return 0.0


def model_manifest(model: MeasurementModel) -> dict:
    """Machine-readable description of a model (spaces, init, pointer map)."""
    wires = []
    for i, w in enumerate(model.composite.wires):
        entry = space_to_json(w)
        entry["role"] = ("system" if i == model.system_wire
                         else "register" if i >= len(model.composite.wires) - model.register_count
                         else "resource")
        if model.init[i] is not None:
            entry["init"] = [_complex_pair(z) for z in model.init[i]]
        wires.append(entry)
    pointer = {label: [int(round(x)) for x in mask]
               for label, mask in model.pointer.items()}
    return {"kind": model.kind, "m": model.m, "total_dim": model.composite.space.total_dim,
            "wires": wires, "pointer_masks": pointer,
            "pointer_values": {k: round_sig(v) for k, v in POINTER_VALUES.items()}}
