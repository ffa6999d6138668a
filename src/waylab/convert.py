"""Asymmetry measures and covariant state convertibility.

For pure states, deterministic convertibility under U(1)-covariant operations
depends only on the charge distributions p and q: the source converts to the
target iff p is a mixture of integer translates of q,

    p = sum_k w_k T^(k) q,   w_k >= 0,  sum_k w_k = 1,

where T^(k) shifts a distribution's support up by k.  The mixture is a
convolution p = w * q, which is what both the LP solver and its tests exploit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .graded import EPS_NUM, PureState, number_operator, variance

FEASIBILITY_TOL = 1e-8

__all__ = [
    "FEASIBILITY_TOL",
    "ChargeDistribution",
    "ConversionCertificate",
    "Comparison",
    "charge_distribution",
    "variance_measure",
    "frameness_entropy",
    "deterministic_convertible",
    "stochastic_reachable_from_uniform",
    "compare",
]


@dataclass(frozen=True)
class ChargeDistribution:
    """Probability distribution over integer charges (finite support)."""

    probs: dict[int, float]

    def __post_init__(self):
        if not self.probs:
            raise ValueError("distribution has empty support")
        clean: dict[int, float] = {}
        for n, p in self.probs.items():
            p = float(p)
            if p < -EPS_NUM:
                raise ValueError(f"negative probability at charge {n}")
            if p > 0.0:
                clean[int(n)] = p
        if not clean:
            raise ValueError("distribution has empty support")
        if abs(math.fsum(clean.values()) - 1.0) > EPS_NUM:
            raise ValueError("probabilities do not sum to one")
        object.__setattr__(self, "probs", dict(sorted(clean.items())))

    def support(self) -> tuple[int, ...]:
        return tuple(self.probs)

    def min_charge(self) -> int:
        return next(iter(self.probs))

    def max_charge(self) -> int:
        return next(reversed(self.probs))

    def as_vector(self, lo: int, hi: int) -> np.ndarray:
        """Dense probabilities on the index window lo..hi inclusive."""
        v = np.zeros(hi - lo + 1)
        for n, p in self.probs.items():
            if lo <= n <= hi:
                v[n - lo] = p
        return v

    def shifted(self, k: int) -> "ChargeDistribution":
        return ChargeDistribution({n + k: p for n, p in self.probs.items()})


@dataclass(frozen=True)
class ConversionCertificate:
    """Outcome of a deterministic-convertibility query.

    ``weights`` (present iff feasible) are the translate weights w_k;
    ``residual`` is the best achievable L1 distance between p and the
    translate mixture of q.
    """

    feasible: bool
    residual: float
    weights: dict[int, float] | None = None

    def __post_init__(self):
        if self.feasible:
            if self.weights is None:
                raise ValueError("feasible certificate must carry weights")
            if any(w < -EPS_NUM for w in self.weights.values()):
                raise ValueError("negative weight in certificate")
            if abs(math.fsum(self.weights.values()) - 1.0) > EPS_NUM:
                raise ValueError("weights do not sum to one")
            if self.residual > FEASIBILITY_TOL:
                raise ValueError("feasible certificate with residual above tolerance")
        elif self.weights is not None:
            raise ValueError("infeasible certificate must not carry weights")


class Comparison(enum.Enum):
    A_TO_B = "a_to_b"
    B_TO_A = "b_to_a"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


def charge_distribution(state: PureState) -> ChargeDistribution:
    """p_n = squared norm of the state's component in sector n."""
    probs = {}
    for n in state.space.charges:
        w = float(np.sum(np.abs(state.sector_component(n)) ** 2))
        if w > 0.0:
            probs[n] = w
    return ChargeDistribution(probs)


def variance_measure(state: PureState) -> float:
    """Four times the variance of the number operator; an asymmetry monotone."""
    return 4.0 * variance(number_operator(state.space), state)


def frameness_entropy(state: PureState) -> float:
    """Shannon entropy (bits) of the charge distribution; an asymmetry monotone."""
    dist = charge_distribution(state)
    return -math.fsum(p * math.log2(p) for p in dist.probs.values() if p > 0.0)


def _mixture_matrix(p: ChargeDistribution, q: ChargeDistribution):
    """Shift window, index window and the translate matrix A[j, k] = q_{j-k}."""
    kmin = p.min_charge() - q.max_charge()
    kmax = p.max_charge() - q.min_charge()
    shifts = list(range(kmin, kmax + 1))
    jlo = min(p.min_charge(), q.min_charge() + kmin)
    jhi = max(p.max_charge(), q.max_charge() + kmax)
    a = np.zeros((jhi - jlo + 1, len(shifts)))
    for ki, k in enumerate(shifts):
        a[:, ki] = q.shifted(k).as_vector(jlo, jhi)
    return shifts, a, p.as_vector(jlo, jhi)


def deterministic_convertible(p: ChargeDistribution,
                              q: ChargeDistribution) -> ConversionCertificate:
    """Can the state with distribution p be converted deterministically to q?

    Solves min ||p - sum_k w_k T^(k) q||_1 over the probability simplex of
    translate weights (shifts clamped to the combined support span) as a
    bounded-variable LP in the standard slack formulation; feasible iff the
    optimal residual is at most ``FEASIBILITY_TOL``.
    """
    # SciPy loads on the first LP solve, so that commands without one never pay for it
    from scipy.optimize import linprog

    shifts, a, pv = _mixture_matrix(p, q)
    nj, nk = a.shape
    cost = np.concatenate([np.zeros(nk), np.ones(nj)])
    a_ub = np.block([[a, -np.eye(nj)], [-a, -np.eye(nj)]])
    b_ub = np.concatenate([pv, -pv])
    a_eq = np.concatenate([np.ones(nk), np.zeros(nj)])[None, :]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * (nk + nj), method="highs")
    if not res.success:  # pragma: no cover - tiny LPs always solve
        raise RuntimeError(f"LP solver failed: {res.message}")
    w = np.clip(res.x[:nk], 0.0, None)
    w /= w.sum()
    residual = float(np.abs(pv - a @ w).sum())
    if residual <= FEASIBILITY_TOL:
        weights = {k: float(wk) for k, wk in zip(shifts, w) if wk > 1e-12}
        return ConversionCertificate(True, residual, weights)
    return ConversionCertificate(False, residual)


def stochastic_reachable_from_uniform(max_charge: int,
                                      target: ChargeDistribution) -> bool:
    """Reachability (with some nonzero probability) from the uniform state.

    From the equal superposition over charges 0..M one can stochastically
    reach exactly the states whose support fits in a translated window of
    length M+1.
    """
    if max_charge < 0:
        raise ValueError("max_charge must be >= 0")
    return target.max_charge() - target.min_charge() <= max_charge


def compare(a: PureState, b: PureState) -> Comparison:
    """Position of two states in the deterministic-conversion partial order.

    Only the charge distributions matter for pure states; relative phases are
    ignored by construction.
    """
    pa, pb = charge_distribution(a), charge_distribution(b)
    ab = deterministic_convertible(pa, pb).feasible
    ba = deterministic_convertible(pb, pa).feasible
    if ab and ba:
        return Comparison.EQUIVALENT
    if ab:
        return Comparison.A_TO_B
    if ba:
        return Comparison.B_TO_A
    return Comparison.INCOMPARABLE
