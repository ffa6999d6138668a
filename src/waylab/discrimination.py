"""Optimal two-state discrimination of block-diagonal (twirled) states.

Because twirled states are block diagonal across total-charge sectors, the
optimal POVM for either criterion decomposes sector by sector (Raynal
reduction): solve each projected two-state problem, then direct-sum the
per-sector effects back into a global measurement.  The sectors of one
dimension k are solved together: each solver takes (S, k, k) stacks of the two
states and (S,) arrays of their priors, and returns its effects as (S, k, k)
stacks by outcome label, with the (S,) success probabilities.

Supported criteria:

* ``UD``  - unambiguous discrimination: zero misidentification, explicit
  inconclusive outcome, conclusive probability maximized.
* ``MLE`` - minimum-error (Helstrom) discrimination: two outcomes, success
  probability (1 + ||p+ rho+ - p- rho-||_1) / 2, optimal POVM projective.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graded import (EPS_NUM, BlockDiagonal, BlockState, GradedSpace, NumericalError,
                     _require, _require_blocks, _trace)

SUPPORT_RANK_TOL = 1e-9
WEIGHT_CUTOFF = 1e-15  # sectors at or below this ensemble weight are dropped

__all__ = [
    "Criterion",
    "Ensemble",
    "SectorReduction",
    "DiscriminationResult",
    "raynal_reduce",
    "ud_two_states",
    "mle_two_states",
    "discriminate",
    "perfect_discrimination_possible",
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
class SectorReduction:
    """The S kept sectors of one dimension k of a block-diagonal ensemble, renormalized.

    ``charges`` and ``weights`` are (S,) arrays in charge order; per member,
    ``priors`` are (S,) conditional priors and ``states`` (S, k, k) trace-one
    states (a zero block where the member has no mass).
    """

    charges: np.ndarray
    weights: np.ndarray
    priors: tuple[np.ndarray, ...]
    states: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class DiscriminationResult:
    criterion: Criterion
    success_prob: float
    fail_prob: float | None
    per_sector: tuple[tuple[int, float, float], ...]
    """(charge, sector weight, sector success) per kept sector, in charge order."""
    effects: dict[str, BlockDiagonal]
    """Sector effects per outcome label; a sector dropped for zero weight holds zeros."""
    space: GradedSpace

    def __post_init__(self):
        acc = math.fsum(w * s for _, w, s in self.per_sector)
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
        spare = "fail" if self.criterion is Criterion.UD else "plus"
        stacks = {lab: dict(eff.stacks) for lab, eff in self.effects.items()}
        for k in self.space.groups:
            covered = sum(st[k] for st in stacks.values())
            stacks[spare][k] = stacks[spare][k] + (np.eye(k) - covered)
        return {lab: BlockDiagonal(self.space, st).to_dense() for lab, st in stacks.items()}


def raynal_reduce(ensemble: Ensemble) -> list[SectorReduction]:
    """Split a block-diagonal ensemble into independent sector problems, one per dimension.

    The sector weight is sum_k p_k tr(P_n rho_k P_n); sectors with (numerically)
    zero weight are dropped, as no measurement ever sees them.
    """
    priors = np.array([p for p, _ in ensemble.items])[:, None]
    out = []
    for k, (charges, _) in ensemble.space.groups.items():
        stacks = [st.stacks[k] for _, st in ensemble.items]
        traces = np.array([_trace(s) for s in stacks])  # (members, S)
        weights = np.array([math.fsum(col) for col in (priors * traces).T.tolist()])
        kept = weights > WEIGHT_CUTOFF
        w, t = weights[kept], traces[:, kept]
        # a member with no mass in a sector gets a zero block there
        states = tuple(np.divide(s[kept], ti[:, None, None], out=np.zeros_like(s[kept]),
                                 where=(ti > WEIGHT_CUTOFF)[:, None, None])
                       for s, ti in zip(stacks, t))
        out.append(SectorReduction(charges[kept], w, tuple(priors * t / w), states))
    return out


def _projectors(vecs: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Per matrix of an (S, k, k) ``eigh`` vector stack, v v^dagger of the columns ``keep`` marks.

    Sectors that keep the same columns share one stacked matmul.
    """
    out = np.zeros(vecs.shape, dtype=complex)
    for pattern in np.unique(keep, axis=0):
        rows = (keep == pattern).all(axis=1)
        v = vecs[rows][:, :, pattern]
        out[rows] = v @ v.conj().swapaxes(1, 2)
    return out


def _check_stacks(rho_plus, rho_minus, p_plus, p_minus) -> tuple[np.ndarray, ...]:
    rp, rm = np.asarray(rho_plus, dtype=complex), np.asarray(rho_minus, dtype=complex)
    pp, pm = np.asarray(p_plus, dtype=float), np.asarray(p_minus, dtype=float)
    if not (rp.shape == rm.shape and rp.ndim == 3 and rp.shape[1] == rp.shape[2]
            and pp.shape == pm.shape == rp.shape[:1]):
        raise ValueError("states must be (S, k, k) stacks of equal shape, priors (S,) arrays")
    return rp, rm, pp, pm


def ud_two_states(rho_plus: np.ndarray, rho_minus: np.ndarray, p_plus: np.ndarray,
                  p_minus: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Optimal unambiguous discrimination of two states, with a ``fail`` outcome.

    Handled cases: identical states (all mass to the inconclusive outcome),
    orthogonal supports (perfect discrimination by support projectors, any
    dimension), and 2x2 states with one-dimensional kernels.  For the latter
    the no-error condition forces effects a |x+><x+| and b |x-><x-| with
    |x+-> spanning ker(rho_-+); the weights (a, b) are optimized over the
    region where the inconclusive effect stays PSD.

    Anything else is rejected: optimal UD beyond these structures is a
    semidefinite program this module deliberately does not contain.
    """
    rp, rm, p_plus, p_minus = _check_stacks(rho_plus, rho_minus, p_plus, p_minus)
    eye = np.eye(rp.shape[1])
    plus, minus, fail = np.zeros_like(rp), np.zeros_like(rp), np.zeros_like(rp)
    success = np.zeros(len(rp))

    same = np.max(np.abs(rp - rm), axis=(1, 2)) <= EPS_NUM
    fail[same] = eye

    # one eigh per state serves both its support and, in 2x2, its kernel
    (vals_p, vecs_p), (vals_m, vecs_m) = np.linalg.eigh(rp), np.linalg.eigh(rm)
    sp = _projectors(vecs_p, vals_p > SUPPORT_RANK_TOL)
    sm = _projectors(vecs_m, vals_m > SUPPORT_RANK_TOL)
    orth = ~same & (np.max(np.abs(sp @ sm), axis=(1, 2)) <= EPS_NUM)
    fail_orth = eye - sp - sm
    fail_orth[np.abs(fail_orth) < 1e-15] = 0.0
    plus[orth], minus[orth], fail[orth] = sp[orth], sm[orth], fail_orth[orth]
    success[orth] = (p_plus * _trace(sp @ rp) + p_minus * _trace(sm @ rm))[orth]

    kern = ~same & ~orth
    if not kern.any():
        return {"plus": plus, "minus": minus, "fail": fail}, success
    if len(eye) != 2:
        raise ValueError(
            "unsupported UD structure: non-orthogonal states of dimension "
            f"{len(eye)} (only 2x2 states with one-dimensional kernels are solved)")
    vals = np.concatenate((vals_p[kern], vals_m[kern]))
    if not np.all((vals[:, 0] <= SUPPORT_RANK_TOL) & (SUPPORT_RANK_TOL < vals[:, 1])):
        raise ValueError(
            "unsupported UD structure: a 2x2 state without a one-dimensional kernel")
    # span ker(rho_-) and ker(rho_+); as column views, which np.vdot below relies on
    chi_plus, chi_minus = vecs_m[kern][:, :, 0], vecs_p[kern][:, :, 0]
    pp, pm = p_plus[kern], p_minus[kern]

    alpha = ((chi_plus.conj()[:, None, :] @ rp[kern]) @ chi_plus[:, :, None]).real[:, 0, 0]
    beta = ((chi_minus.conj()[:, None, :] @ rm[kern]) @ chi_minus[:, :, None]).real[:, 0, 0]
    s = np.array([abs(np.vdot(a, b)) ** 2 for a, b in zip(chi_plus, chi_minus)])

    # The inconclusive effect I - a k+ - b k- is PSD iff a, b <= 1 and
    # det = 1 - a - b + a b (1 - s) >= 0; the optimum of the linear objective
    # p+ a alpha + p- b beta sits on the det = 0 curve b(a) = (1-a)/(1-a(1-s)),
    # where d/da vanishes at (1 - a(1-s))^2 = s p- beta / (p+ alpha).
    def b_of(a):
        return (1.0 - a) / (1.0 - a * (1.0 - s))

    # candidates 0, 1 and a* (where p+ alpha > 0), in this order; a later one
    # must be strictly better.  Lanes without a* are computed, then discarded
    best_a, best_val = np.zeros(len(s)), np.full(len(s), -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        a_star = (1.0 - np.sqrt(s * pm * beta / (pp * alpha))) / (1.0 - s)
        a_star = np.minimum(1.0, np.fmax(0.0, a_star))  # min(1, max(0, a*)): NaN gives 0
        for a, ok in ((0.0, True), (1.0, True), (a_star, pp * alpha > 0.0)):
            val = pp * a * alpha + pm * b_of(a) * beta
            better = ok & (val > best_val)
            best_a, best_val = np.where(better, a, best_a), np.where(better, val, best_val)

    k_plus, k_minus = (v[:, :, None] * v.conj()[:, None, :] for v in (chi_plus, chi_minus))
    eff_plus, eff_minus = best_a[:, None, None] * k_plus, b_of(best_a)[:, None, None] * k_minus
    fail_kern = eye - eff_plus - eff_minus
    # clip the tiny negative eigenvalue that roundoff leaves on the det=0 boundary
    vals, vecs = np.linalg.eigh(fail_kern)
    fail[kern] = (vecs * np.clip(vals, 0.0, None)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    plus[kern], minus[kern], success[kern] = eff_plus, eff_minus, best_val
    return {"plus": plus, "minus": minus, "fail": fail}, success


def mle_two_states(rho_plus: np.ndarray, rho_minus: np.ndarray, p_plus: np.ndarray,
                   p_minus: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Minimum-error (Helstrom) discrimination of two states.

    The optimal POVM is projective: P+ projects onto the nonnegative
    eigenspace of p+ rho+ - p- rho- (zero eigenvalues counted as plus, which
    leaves the success probability unchanged), P- is its complement.
    """
    rp, rm, p_plus, p_minus = _check_stacks(rho_plus, rho_minus, p_plus, p_minus)
    vals, vecs = np.linalg.eigh(p_plus[:, None, None] * rp - p_minus[:, None, None] * rm)
    proj_plus = _projectors(vecs, vals >= 0.0)
    proj_minus = np.eye(rp.shape[1]) - proj_plus
    success = p_plus * _trace(rp @ proj_plus) + p_minus * _trace(rm @ proj_minus)
    return {"plus": proj_plus, "minus": proj_minus}, success


def discriminate(ensemble: Ensemble, criterion: Criterion) -> DiscriminationResult:
    """Optimal discrimination of a binary block-diagonal ensemble.

    Reduces to the charge sectors and solves them with the requested criterion,
    one stacked solver call per sector dimension.  The result keeps the sector
    effects; its ``global_effects`` direct-sums them on access.  Sector sums
    run in charge order, so the output does not depend on the grouping.
    """
    if len(ensemble) != 2:
        raise ValueError("only binary ensembles are supported")
    ud = criterion is Criterion.UD
    solver = ud_two_states if ud else mle_two_states
    space = ensemble.space
    effects: dict[str, dict[int, np.ndarray]] = {}
    parts = []
    for red in raynal_reduce(ensemble):
        k = red.states[0].shape[1]
        sec_effects, sec_success = solver(*red.states, *red.priors)
        _require_blocks(np.max(np.abs(sum(sec_effects.values()) - np.eye(k)), axis=(1, 2)),
                        red.charges, "has POVM effects that do not sum to the identity",
                        NumericalError)
        kept = np.isin(space.groups[k][0], red.charges)
        for lab, eff in sec_effects.items():
            full = effects.setdefault(lab, {})[k] = np.zeros((len(kept), k, k), dtype=complex)
            full[kept] = eff
        sec_fail = np.zeros_like(sec_success)
        if ud:  # two ensemble members, so this sum equals their math.fsum
            fail_eff = sec_effects["fail"]
            sec_fail = red.priors[0] * _trace(fail_eff @ red.states[0]) \
                + red.priors[1] * _trace(fail_eff @ red.states[1])
        parts.append((red.charges, red.weights, sec_success, sec_fail))

    order = np.argsort(np.concatenate([part[0] for part in parts]))
    charges, weights, success, fail = (np.concatenate(a)[order] for a in zip(*parts))
    # sums in charge order, left to right as `+=` from 0.0 (cumsum does not pair terms)
    success_prob, fail_prob = (0.0 + float(np.cumsum(weights * x)[-1]) for x in (success, fail))
    return DiscriminationResult(
        criterion=criterion,
        success_prob=success_prob,
        fail_prob=fail_prob if ud else None,
        per_sector=tuple(zip(charges.tolist(), weights.tolist(), success.tolist())),
        effects={lab: BlockDiagonal(space, st) for lab, st in effects.items()},
        space=space,
    )


def perfect_discrimination_possible(ensemble: Ensemble) -> bool:
    """Whether the ensemble states can be told apart without error.

    True iff every pair of states (with positive prior) has orthogonal
    support, checked one sector dimension at a time through stacked support
    projectors.
    """
    states = [st for p, st in ensemble.items if p > EPS_NUM]
    for k in ensemble.space.groups:
        eighs = [np.linalg.eigh(st.stacks[k]) for st in states]
        projs = [_projectors(vecs, vals > SUPPORT_RANK_TOL) for vals, vecs in eighs]
        if any(np.max(np.abs(a @ b)) > EPS_NUM for a, b in itertools.combinations(projs, 2)):
            return False
    return True
