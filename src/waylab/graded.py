"""Charge-graded Hilbert spaces and the linear algebra that lives on them.

A U(1) conservation law splits a finite Hilbert space into charge sectors
H = ⊕_n H_n of the number operator N.  Everything downstream (twirling,
sector-wise discrimination, conserving circuits) works in a basis ordered by
total charge, so that symmetric (twirled) states are literally block diagonal
and conservation of a unitary is a visible block structure.

Conventions
-----------
* Charges are integers, listed strictly increasing.  Basis vectors are grouped
  by charge ("charge-major" ordering); the index layout inside a sector is an
  arbitrary but fixed labelling 0..dim-1.
* Values keep read-only copies of their arrays (``writeable=False``); every
  operation returns fresh values, so concurrent use is safe.
* ``EPS_NUM`` is the global numerical tolerance for hermiticity / positivity /
  normalization checks.  Every tolerance check in the package goes through
  ``_require``, which fails on NaN and names the value and the tolerance.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

EPS_NUM = 1e-10


def _require(err: float, tol: float, what: str, exc: type[Exception] = ValueError) -> None:
    """Raise ``exc`` naming ``err`` and ``tol`` unless ``err <= tol``, so a NaN fails too."""
    if not err <= tol:
        raise exc(f"{what}: {err:.3g} exceeds tolerance {tol:g}")


__all__ = [
    "EPS_NUM",
    "NumericalError",
    "GradedSpace",
    "PureState",
    "Observable",
    "BlockDiagonal",
    "BlockState",
    "CompositeSpace",
    "tensor",
    "g_twirl",
    "uniform_state",
    "coherent_state",
    "opt_phase_state",
]


class NumericalError(ValueError):
    """An internal check or a numerical method failed on a valid input.

    A ``ValueError``, so callers that catch bad input catch this too; the
    ``waylab`` command tells the two apart and exits 3 for this one.
    """


def _freeze(a: np.ndarray, dtype=None) -> np.ndarray:
    """A read-only C-ordered copy of ``a``, cast to ``dtype`` in the same single copy."""
    a = np.array(a, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GradedSpace:
    """A finite direct sum of integer charge sectors.

    ``charges`` are strictly increasing integers; ``dims[i]`` is the dimension
    of the sector with charge ``charges[i]``.
    """

    charges: tuple[int, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.charges) != len(self.dims) or not self.charges:
            raise ValueError("charges and dims must be non-empty and aligned")
        if any(d <= 0 for d in self.dims):
            raise ValueError("sector dimensions must be positive")
        if any(b <= a for a, b in zip(self.charges, self.charges[1:])):
            raise ValueError("charges must be strictly increasing")

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @functools.cached_property
    def _sectors(self) -> dict[int, tuple[int, int]]:
        """charge -> (offset, dim), built once so that sector lookups are O(1)."""
        offsets = itertools.accumulate(self.dims, initial=0)
        return {n: (off, d) for n, off, d in zip(self.charges, offsets, self.dims)}

    @functools.cached_property
    def groups(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Sector dimension k -> charges and (S, k) basis indices of its S sectors, by charge."""
        dims, charges = np.array(self.dims), np.array(self.charges, dtype=np.int64)
        offsets = np.cumsum(dims) - dims
        return {k: (_freeze(charges[dims == k]), _freeze(offsets[dims == k, None] + np.arange(k)))
                for k in sorted(set(self.dims))}

    def _sector(self, n: int) -> tuple[int, int]:
        try:
            return self._sectors[n]
        except KeyError:
            raise ValueError(f"charge {n} not present in space") from None

    def dim_of(self, n: int) -> int:
        return self._sector(n)[1]

    def slice_of(self, n: int) -> slice:
        off, d = self._sector(n)
        return slice(off, off + d)

    def charge_labels(self) -> np.ndarray:
        """Charge of every basis vector, in basis order."""
        return _freeze(np.repeat(self.charges, self.dims).astype(np.int64))

    @staticmethod
    def qubit() -> "GradedSpace":
        return GradedSpace((0, 1), (1, 1))

    @staticmethod
    def ladder(max_charge: int) -> "GradedSpace":
        """One-dimensional sectors for every charge 0..max_charge."""
        if max_charge < 0:
            raise ValueError("max_charge must be >= 0")
        return GradedSpace(tuple(range(max_charge + 1)), (1,) * (max_charge + 1))

    @staticmethod
    def from_charge_list(labels) -> "GradedSpace":
        """Space whose basis carries the given (unsorted) integer charges."""
        labels = np.asarray(labels).astype(np.int64)
        if not labels.size:
            raise ValueError("empty charge list")
        charges, dims = np.unique(labels, return_counts=True)
        return GradedSpace(tuple(charges.tolist()), tuple(dims.tolist()))


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector over the graded basis of ``space``."""

    space: GradedSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _freeze(self.amplitudes, complex)
        if amps.shape != (self.space.total_dim,):
            raise ValueError("amplitude vector does not match space dimension")
        # the squared norm, which the twirl's blocks sum to, not the norm
        _require(abs(np.vdot(amps, amps).real - 1.0), EPS_NUM,
                 "state is not normalized within tolerance")
        object.__setattr__(self, "amplitudes", amps)

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def sector_component(self, n: int) -> np.ndarray:
        return self.amplitudes[self.space.slice_of(n)]

    def twirl(self) -> "BlockState":
        """The G-twirl of this state: the rank-1 block v_n v_n^dagger of every sector.

        Entry for entry the blocks of ``g_twirl(self.density(), self.space)``,
        without the dense density: a unit vector is PSD with unit trace by
        construction, so no dense check is needed.
        """
        vs = {k: self.amplitudes[idx] for k, (_, idx) in self.space.groups.items()}
        return BlockState(self.space, {k: v[:, :, None] * v.conj()[:, None, :]
                                       for k, v in vs.items()})


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator on a graded space."""

    space: GradedSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = _freeze(self.matrix, complex)
        d = self.space.total_dim
        if m.shape != (d, d):
            raise ValueError("matrix does not match space dimension")
        _require(np.max(np.abs(m - m.conj().T)), EPS_NUM,
                 "matrix is not Hermitian within tolerance")
        object.__setattr__(self, "matrix", m)


def _check_density(rho: np.ndarray, dim: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError("density matrix does not match space dimension")
    _require(np.max(np.abs(rho - rho.conj().T)), EPS_NUM,
             "density matrix is not Hermitian within tolerance")
    _require(abs(np.trace(rho).real - 1.0), EPS_NUM, "density matrix does not have unit trace")
    _require(-np.linalg.eigvalsh(rho)[0], EPS_NUM,
             "density matrix is not positive semidefinite")
    return rho


@dataclass(frozen=True, eq=False)
class BlockDiagonal:
    """An operator that is block diagonal over the charge sectors of ``space``.

    ``stacks[k]`` holds the (S, k, k) blocks of the S sectors of dimension k,
    in charge order (the order of ``space.groups[k]``), so that one stacked
    LAPACK call serves every sector of one dimension.  A dimension missing
    from ``stacks`` is zero.
    """

    space: GradedSpace
    stacks: dict[int, np.ndarray]

    def __post_init__(self):
        groups = self.space.groups
        unknown = set(self.stacks) - set(groups)
        if unknown:
            raise ValueError(f"stacks for sector dimensions {sorted(unknown)} not in space")
        checked: dict[int, np.ndarray] = {}
        for k, (charges, _) in groups.items():
            shape = (len(charges), k, k)
            s = self.stacks.get(k, np.zeros(shape))
            if np.shape(s) != shape:
                raise ValueError(f"stack of dimension {k} has shape {np.shape(s)}, not {shape}")
            checked[k] = _freeze(s, complex)
        object.__setattr__(self, "stacks", checked)

    def block(self, n: int) -> np.ndarray:
        k = self.space.dim_of(n)
        return self.stacks[k][np.searchsorted(self.space.groups[k][0], n)]

    def to_dense(self) -> np.ndarray:
        d = self.space.total_dim
        out = np.zeros((d, d), dtype=complex)
        for k, (_, idx) in self.space.groups.items():
            out[idx[:, :, None], idx[:, None, :]] = self.stacks[k]
        return out

    def __matmul__(self, other):
        """Stack by stack with a ``BlockDiagonal`` on the same space, else on dense (d, n) rows."""
        if isinstance(other, BlockDiagonal):
            return BlockDiagonal(self.space, {k: s @ other.stacks[k]
                                              for k, s in self.stacks.items()})
        out = np.empty(other.shape, dtype=complex)
        for k, (_, idx) in self.space.groups.items():
            out[idx] = self.stacks[k] @ other[idx]
        return out


def _trace(a: np.ndarray) -> np.ndarray:
    """The real traces of an (S, k, k) stack."""
    return np.trace(a, axis1=1, axis2=2).real


def _require_blocks(errs: np.ndarray, charges: np.ndarray, what: str,
                    exc: type[Exception] = ValueError) -> None:
    """``_require`` on the worst of a stack's per-sector errors, naming its charge."""
    if len(errs):
        i = int(np.argmax(errs))  # the first NaN, if there is one
        _require(errs[i], EPS_NUM, f"block for charge {charges[i]} {what}", exc)


@dataclass(frozen=True, eq=False)
class BlockState(BlockDiagonal):
    """Density operator stored as Hermitian PSD blocks, one per charge sector.

    This is the canonical form of any G-twirled state: coherences between
    sectors are identically zero, so only the diagonal blocks are kept.  The
    checks run as one stacked call per sector dimension.
    """

    def __post_init__(self):
        super().__post_init__()
        for k, s in self.stacks.items():
            charges = self.space.groups[k][0]
            _require_blocks(np.max(np.abs(s - s.conj().swapaxes(1, 2)), axis=(1, 2)),
                            charges, "is not Hermitian")
            _require_blocks(-np.linalg.eigvalsh(s)[:, 0], charges, "is not PSD")
        total = math.fsum(t for s in self.stacks.values() for t in _trace(s).tolist())
        _require(abs(total - 1.0), EPS_NUM, "block traces do not sum to one")

    def sector_weight(self, n: int) -> float:
        return float(np.trace(self.block(n)).real)


@dataclass(frozen=True, eq=False)
class CompositeSpace:
    """A chain of graded wires under charge addition, in charge-major order.

    The composite basis is ordered by total charge; inside a total-charge
    sector, by the composite index of all wires but the last, then by the last
    wire's index.  ``kron_index[g]`` is the flat multi-wire Kronecker index of
    composite basis vector ``g``.
    """

    wires: tuple[GradedSpace, ...]
    space: GradedSpace
    kron_index: np.ndarray

    @staticmethod
    def of(wires: tuple[GradedSpace, ...] | list[GradedSpace]) -> "CompositeSpace":
        wires = tuple(wires)
        if not wires:
            raise ValueError("need at least one wire")
        labels = wires[0].charge_labels()
        index = np.arange(wires[0].total_dim, dtype=np.int64)
        # one stable sort per wire: a single sort over all wires at once would
        # not keep the earlier wires' composite order inside a sector
        for wire in wires[1:]:
            d = wire.total_dim
            total = np.add.outer(labels, wire.charge_labels()).ravel()
            order = np.argsort(total, kind="stable")
            labels = total[order]
            index = np.add.outer(index * d, np.arange(d)).ravel()[order]
        return CompositeSpace(wires, GradedSpace.from_charge_list(labels), _freeze(index))

    @property
    def wire_dims(self) -> tuple[int, ...]:
        return tuple(w.total_dim for w in self.wires)

    def vector(self, kron_vec: np.ndarray) -> np.ndarray:
        return np.asarray(kron_vec, dtype=complex)[self.kron_index]

    def matrix(self, kron_mat: np.ndarray) -> np.ndarray:
        m = np.asarray(kron_mat, dtype=complex)
        return m[np.ix_(self.kron_index, self.kron_index)]

    def lift(self, *terms: tuple[np.ndarray, np.ndarray]) -> dict[int, np.ndarray]:
        """Sector stacks of sum_t kron(a_t, b_t), where b_t acts on the trailing wires.

        Entries a_t[i, i'] * b_t[j, j'] are summed in term order, as in ``matrix``
        of the dense sum.  Entries between sectors are dropped: they vanish
        when the sum conserves the charge.
        """
        def blocks(idx: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
            i, j = divmod(self.kron_index[idx], len(b))
            return a[i[:, :, None], i[:, None, :]] * b[j[:, :, None], j[:, None, :]]

        return {k: functools.reduce(np.add, (blocks(idx, a, b) for a, b in terms))
                for k, (_, idx) in self.space.groups.items()}

    def pure(self, *factors: PureState | np.ndarray) -> PureState:
        """The product state of one vector per wire."""
        vec = functools.reduce(np.kron, (
            f.amplitudes if isinstance(f, PureState) else np.asarray(f, dtype=complex)
            for f in factors))
        return PureState(self.space, self.vector(vec))

    def promote(self, *ops: np.ndarray) -> np.ndarray:
        """Lift the product of one operator per wire into the composite basis."""
        return self.matrix(functools.reduce(np.kron, ops))


def tensor(a: GradedSpace, b: GradedSpace) -> CompositeSpace:
    """Tensor two graded spaces under charge addition.

    Sector dimensions of the composite follow the convolution
    dim(n) = sum_{n_a + n_b = n} dim_a(n_a) * dim_b(n_b).
    """
    return CompositeSpace.of((a, b))


def g_twirl(rho: np.ndarray, space: GradedSpace) -> BlockState:
    """Average a state over the U(1) group action.

    For integer charges the group average equals the pinching
    sum_n P_n rho P_n, i.e. dropping every coherence between different total
    charge sectors; the result is returned in block form.  Twirling is exact
    (block extraction), hence idempotent.
    """
    rho = _check_density(rho, space.total_dim)
    return BlockState(space, {k: rho[idx[:, :, None], idx[:, None, :]]
                              for k, (_, idx) in space.groups.items()})


def uniform_state(max_charge: int) -> PureState:
    """Equal superposition of the number states 0..max_charge.

    The maximally asymmetric state on its support: it tops both the variance
    and entropy asymmetry measures among states confined to these sectors.
    """
    if max_charge < 0:
        raise ValueError("max_charge must be >= 0")
    amps = np.full(max_charge + 1, 1.0 / math.sqrt(max_charge + 1))
    return PureState(GradedSpace.ladder(max_charge), amps)


def coherent_state(alpha: float, tail_mass: float = 1e-12) -> PureState:
    """Zero-phase coherent state, truncated by Poisson tail mass.

    The cutoff is the smallest C such that the discarded Poisson(alpha^2) mass
    beyond C is below ``tail_mass``; the kept amplitudes are renormalized so
    the state is exactly unit norm.  Raises :class:`NumericalError` when
    exp(-alpha^2) is not a normal float (alpha^2 above ~708).
    """
    if not 0.0 <= alpha < math.inf:  # NaN fails too
        raise ValueError(f"alpha must be finite and >= 0, got {alpha!r}")
    if not 0 < tail_mass < 1:
        raise ValueError("tail_mass must be in (0, 1)")
    lam = alpha * alpha
    pmf = [math.exp(-lam)]
    # the recursion carries the first term's relative error into every term,
    # so a subnormal start (lam above ~708) would misplace the cutoff
    if pmf[0] < sys.float_info.min:
        raise NumericalError(
            f"coherent state with mean charge {lam:g}: exp(-{lam:g}) is below the "
            "smallest normal float, so the Poisson truncation cannot be placed")
    # the kept mass is held exactly, in units of the smallest subnormal 2**-1074;
    # int division rounds correctly, so kept / _SUBNORMAL_UNITS equals
    # math.fsum(pmf) bit for bit without re-summing the list
    kept = _subnormal_units(pmf[0])
    while 1.0 - kept / _SUBNORMAL_UNITS >= tail_mass:
        pmf.append(pmf[-1] * lam / len(pmf))
        if pmf[-1] == 0.0:  # the terms underflowed: nothing more can be added
            raise NumericalError("truncation did not converge")
        kept += _subnormal_units(pmf[-1])
    amps = np.sqrt(np.array(pmf))
    amps /= np.linalg.norm(amps)
    return PureState(GradedSpace.ladder(len(pmf) - 1), amps)


_SUBNORMAL_UNITS = 1 << 1074


def _subnormal_units(x: float) -> int:
    """x as an exact integer multiple of 2**-1074 (for 0 <= x <= 1)."""
    num, den = x.as_integer_ratio()
    return num * (_SUBNORMAL_UNITS // den)


def opt_phase_state(max_charge: int) -> PureState:
    """Sine-profile state that is optimal for two-hypothesis MLE readout.

    Amplitudes are proportional to sin((n+1) pi / (M+2)) on charges n = 0..M,
    the top eigenvector of the nearest-neighbour coupling on the charge
    ladder.  Normalization is numerical.
    """
    if max_charge < 0:
        raise ValueError("max_charge must be >= 0")
    n = np.arange(max_charge + 1)
    amps = np.sin((n + 1) * math.pi / (max_charge + 2))
    amps /= np.linalg.norm(amps)
    return PureState(GradedSpace.ladder(max_charge), amps)
