"""Optimal two-state discrimination of block-diagonal (twirled) states.

Because twirled states are block diagonal across total-charge sectors, the
optimal POVM for either criterion decomposes sector by sector (Raynal
reduction): solve each projected two-state problem, then direct-sum the
per-sector effects back into a global measurement.

Supported criteria:

* ``UD``  - unambiguous discrimination: zero misidentification, explicit
  inconclusive outcome, conclusive probability maximized.
* ``MLE`` - minimum-error (Helstrom) discrimination: two outcomes, success
  probability (1 + ||p+ rho+ - p- rho-||_1) / 2, optimal POVM projective.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .graded import EPS_NUM, BlockState, GradedSpace, NumericalError, _require

SUPPORT_RANK_TOL = 1e-9
WEIGHT_CUTOFF = 1e-15  # sectors at or below this ensemble weight are dropped

__all__ = [
    "Criterion",
    "Ensemble",
    "SectorPovm",
    "SectorReduction",
    "DiscriminationResult",
    "raynal_reduce",
    "ud_two_states",
    "mle_two_states",
    "discriminate",
    "perfect_discrimination_possible",
    "support_projector",
]


class Criterion(enum.Enum):
    UD = "ud"
    MLE = "mle"


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Finite ensemble {(prior, block state)} on a common graded space."""

    items: tuple[tuple[float, BlockState], ...]

    def __post_init__(self):
        if not self.items:
            raise ValueError("empty ensemble")
        priors = [p for p, _ in self.items]
        _require(-min(priors), EPS_NUM, "negative prior")
        _require(abs(math.fsum(priors) - 1.0), EPS_NUM, "priors do not sum to one")
        first = self.items[0][1].space
        for _, st in self.items[1:]:
            if st.space.charges != first.charges or st.space.dims != first.dims:
                raise ValueError("ensemble states live on inconsistent spaces")

    @property
    def space(self) -> GradedSpace:
        return self.items[0][1].space

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True, eq=False)
class SectorPovm:
    """Named effects of a two-state measurement within one charge sector."""

    plus: np.ndarray
    minus: np.ndarray
    fail: np.ndarray | None = None

    def __post_init__(self):
        # the solvers build PSD effects; only their completeness is checked
        total = sum(self.effects().values())
        _require(np.max(np.abs(total - np.eye(self.plus.shape[0]))), EPS_NUM,
                 "POVM effects do not sum to the identity")

    def effects(self) -> dict[str, np.ndarray]:
        out = {"plus": self.plus, "minus": self.minus}
        if self.fail is not None:
            out["fail"] = self.fail
        return out


@dataclass(frozen=True, eq=False)
class SectorReduction:
    """One sector of a block-diagonal ensemble, renormalized.

    ``priors`` are the within-sector conditional priors; ``states`` the
    trace-one projected states (a zero matrix marks an ensemble member with no
    mass in this sector).
    """

    charge: int
    weight: float
    priors: tuple[float, ...]
    states: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class DiscriminationResult:
    criterion: Criterion
    success_prob: float
    fail_prob: float | None
    per_sector: tuple[tuple[int, float, float, SectorPovm], ...]
    """(charge, sector weight, sector success, sector POVM) per kept sector."""
    space: GradedSpace

    def __post_init__(self):
        acc = math.fsum(w * s for _, w, s, _ in self.per_sector)
        _require(abs(acc - self.success_prob), EPS_NUM,
                 "success probability does not match its sector sum", NumericalError)
        if self.criterion is Criterion.UD:
            # UD has no misidentification, so success and failure exhaust 1
            _require(abs(self.success_prob + self.fail_prob - 1.0), 1e-9,
                     "UD success and failure do not account for 1", NumericalError)

    @property
    def global_effects(self) -> dict[str, np.ndarray]:
        """The global POVM: the direct sum of the sector effects, as dense matrices.

        Sectors dropped for zero weight never fire; they are parked in the
        inconclusive effect (UD) or with the plus projector (MLE tie
        convention).  Every sector's spare effect takes eye - (plus + minus
        [+ fail]), so a dropped sector's spare block is the identity and a kept
        one's absorbs its round-off gap.
        """
        ud = self.criterion is Criterion.UD
        labels = ("plus", "minus", "fail") if ud else ("plus", "minus")
        spare = "fail" if ud else "plus"
        dim = self.space.total_dim
        out = {lab: np.zeros((dim, dim), dtype=complex) for lab in labels}
        povms = {n: povm for n, _, _, povm in self.per_sector}
        for n in self.space.charges:
            sl = self.space.slice_of(n)
            if n in povms:
                for lab, eff in povms[n].effects().items():
                    out[lab][sl, sl] = eff
            covered = sum(out[lab][sl, sl] for lab in labels)
            out[spare][sl, sl] += np.eye(sl.stop - sl.start) - covered
        return out


def raynal_reduce(ensemble: Ensemble) -> list[SectorReduction]:
    """Split a block-diagonal ensemble into independent per-sector problems.

    The sector weight is sum_k p_k tr(P_n rho_k P_n); sectors with (numerically)
    zero weight are dropped, as no measurement ever sees them.
    """
    space = ensemble.space
    out = []
    for n in space.charges:
        traces = [st.sector_weight(n) for _, st in ensemble.items]
        weight = math.fsum(p * t for (p, _), t in zip(ensemble.items, traces))
        if weight <= WEIGHT_CUTOFF:
            continue
        priors = []
        states = []
        for (p, st), t in zip(ensemble.items, traces):
            priors.append(p * t / weight)
            if t > WEIGHT_CUTOFF:
                states.append(st.block(n) / t)
            else:
                states.append(np.zeros_like(st.block(n)))
        out.append(SectorReduction(n, weight, tuple(priors), tuple(states)))
    return out


def support_projector(rho: np.ndarray) -> np.ndarray:
    """Projector onto the support (range) of a PSD matrix."""
    return _support_of(*np.linalg.eigh(rho))


def _support_of(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Projector onto the eigenvectors of an ``eigh`` result above the rank tolerance."""
    keep = vecs[:, vals > SUPPORT_RANK_TOL]
    return keep @ keep.conj().T


def ud_two_states(rho_plus: np.ndarray, rho_minus: np.ndarray,
                  priors: tuple[float, float]) -> tuple[SectorPovm, float]:
    """Optimal unambiguous discrimination of two states.

    Handled cases: identical states (all mass to the inconclusive outcome),
    orthogonal supports (perfect discrimination by support projectors, any
    dimension), and 2x2 states with one-dimensional kernels.  For the latter
    the no-error condition forces effects a |x+><x+| and b |x-><x-| with
    |x+-> spanning ker(rho_-+); the weights (a, b) are optimized over the
    region where the inconclusive effect stays PSD.

    Anything else is rejected: optimal UD beyond these structures is a
    semidefinite program this module deliberately does not contain.
    """
    rp = np.asarray(rho_plus, dtype=complex)
    rm = np.asarray(rho_minus, dtype=complex)
    if rp.shape != rm.shape or rp.shape[0] != rp.shape[1]:
        raise ValueError("states must be square matrices of equal dimension")
    p_plus, p_minus = priors
    dim = rp.shape[0]
    eye = np.eye(dim)

    if np.max(np.abs(rp - rm)) <= EPS_NUM:
        zero = np.zeros_like(rp)
        return SectorPovm(zero, zero, eye.astype(complex)), 0.0

    # one eigh per state serves both its support and, in 2x2, its kernel
    (vals_p, vecs_p), (vals_m, vecs_m) = np.linalg.eigh(rp), np.linalg.eigh(rm)
    sp, sm = _support_of(vals_p, vecs_p), _support_of(vals_m, vecs_m)
    if np.max(np.abs(sp @ sm)) <= EPS_NUM:
        fail = eye - sp - sm
        fail[np.abs(fail) < 1e-15] = 0.0
        povm = SectorPovm(sp, sm, fail)
        success = p_plus * float(np.real(np.trace(sp @ rp))) \
            + p_minus * float(np.real(np.trace(sm @ rm)))
        return povm, success

    if dim != 2:
        raise ValueError(
            "unsupported UD structure: non-orthogonal states of dimension "
            f"{dim} (only 2x2 states with one-dimensional kernels are solved)")
    if not (vals_m[0] <= SUPPORT_RANK_TOL < vals_m[1]
            and vals_p[0] <= SUPPORT_RANK_TOL < vals_p[1]):
        raise ValueError(
            "unsupported UD structure: a 2x2 state without a one-dimensional kernel")
    chi_plus, chi_minus = vecs_m[:, 0], vecs_p[:, 0]  # span ker(rho_-), ker(rho_+)

    k_plus = np.outer(chi_plus, chi_plus.conj())
    k_minus = np.outer(chi_minus, chi_minus.conj())
    alpha = float(np.real(chi_plus.conj() @ rp @ chi_plus))
    beta = float(np.real(chi_minus.conj() @ rm @ chi_minus))
    s = abs(np.vdot(chi_plus, chi_minus)) ** 2

    # The inconclusive effect I - a k+ - b k- is PSD iff a, b <= 1 and
    # det = 1 - a - b + a b (1 - s) >= 0; the optimum of the linear objective
    # p+ a alpha + p- b beta sits on the det = 0 curve b(a) = (1-a)/(1-a(1-s)),
    # where d/da vanishes at (1 - a(1-s))^2 = s p- beta / (p+ alpha).
    def b_of(a: float) -> float:
        return (1.0 - a) / (1.0 - a * (1.0 - s))

    candidates = [0.0, 1.0]
    if p_plus * alpha > 0.0:
        ratio = s * p_minus * beta / (p_plus * alpha)
        a_star = (1.0 - math.sqrt(ratio)) / (1.0 - s)
        candidates.append(min(1.0, max(0.0, a_star)))
    best_a, best_val = 0.0, -1.0
    for a in candidates:
        val = p_plus * a * alpha + p_minus * b_of(a) * beta
        if val > best_val:
            best_a, best_val = a, val
    a_opt = best_a
    b_opt = b_of(a_opt)

    eff_plus = a_opt * k_plus
    eff_minus = b_opt * k_minus
    fail = eye - eff_plus - eff_minus
    # clip the tiny negative eigenvalue that roundoff leaves on the det=0 boundary
    vals, vecs = np.linalg.eigh(fail)
    fail = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
    povm = SectorPovm(eff_plus, eff_minus, fail)
    return povm, float(best_val)


def mle_two_states(rho_plus: np.ndarray, rho_minus: np.ndarray,
                   priors: tuple[float, float]) -> tuple[SectorPovm, float]:
    """Minimum-error (Helstrom) discrimination of two states.

    The optimal POVM is projective: P+ projects onto the nonnegative
    eigenspace of p+ rho+ - p- rho- (zero eigenvalues counted as plus, which
    leaves the success probability unchanged), P- is its complement.
    """
    rp = np.asarray(rho_plus, dtype=complex)
    rm = np.asarray(rho_minus, dtype=complex)
    if rp.shape != rm.shape or rp.shape[0] != rp.shape[1]:
        raise ValueError("states must be square matrices of equal dimension")
    p_plus, p_minus = priors
    delta = p_plus * rp - p_minus * rm
    vals, vecs = np.linalg.eigh(delta)
    keep = vecs[:, vals >= 0.0]
    proj_plus = keep @ keep.conj().T
    proj_minus = np.eye(rp.shape[0]) - proj_plus
    success = p_plus * float(np.real(np.trace(rp @ proj_plus))) \
        + p_minus * float(np.real(np.trace(rm @ proj_minus)))
    return SectorPovm(proj_plus, proj_minus), success


def discriminate(ensemble: Ensemble, criterion: Criterion) -> DiscriminationResult:
    """Optimal discrimination of a binary block-diagonal ensemble.

    Reduces to the charge sectors and optimizes each with the requested
    criterion.  The result keeps the sector effects; its ``global_effects``
    direct-sums them on access.  Per-sector results are assembled in charge
    order, so the output does not depend on evaluation order.
    """
    if len(ensemble) != 2:
        raise ValueError("only binary ensembles are supported")
    sectors = raynal_reduce(ensemble)

    per_sector = []
    success = 0.0
    fail = 0.0
    solver = ud_two_states if criterion is Criterion.UD else mle_two_states
    for sec in sectors:
        povm, sec_success = solver(sec.states[0], sec.states[1],
                                   (sec.priors[0], sec.priors[1]))
        success += sec.weight * sec_success
        if criterion is Criterion.UD:
            sec_fail = math.fsum(
                pr * float(np.real(np.trace(povm.fail @ st)))
                for pr, st in zip(sec.priors, sec.states))
            fail += sec.weight * sec_fail
        per_sector.append((sec.charge, sec.weight, sec_success, povm))

    return DiscriminationResult(
        criterion=criterion,
        success_prob=success,
        fail_prob=fail if criterion is Criterion.UD else None,
        per_sector=tuple(per_sector),
        space=ensemble.space,
    )


def perfect_discrimination_possible(ensemble: Ensemble) -> bool:
    """Whether the ensemble states can be told apart without error.

    True iff every pair of states (with positive prior) has orthogonal
    support, checked sector by sector through support projectors.
    """
    space = ensemble.space
    states = [st for p, st in ensemble.items if p > EPS_NUM]
    for n in space.charges:
        projs = [support_projector(st.block(n)) for st in states]
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                if np.max(np.abs(projs[i] @ projs[j])) > EPS_NUM:
                    return False
    return True
