"""Measurement feasibility and optimal readout models under a U(1) constraint.

A conserving unitary model for measuring a system observable exists iff the
G-twirled eigenstate ensemble is perfectly distinguishable; otherwise the best
conserving measurement is the optimal (UD or MLE) discrimination of that
twirled ensemble.  This module builds the twirled ensembles for the standard
resource states (uniform ladder superposition, truncated coherent state,
sine-profile state), runs the discrimination pipeline, and attaches exact
closed forms for regression; it also evaluates the commutator lower bound on
the measurement noise and the noise of explicit unitary models.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .discrimination import (Criterion, DiscriminationResult, Ensemble,
                             perfect_discrimination_possible)
from .discrimination import discriminate as _discriminate
from .graded import (EPS_NUM, BlockDiagonal, CompositeSpace, GradedSpace,
                     NumericalError, Observable, PureState, _check_density, _require,
                     coherent_state, opt_phase_state, tensor, uniform_state)

__all__ = [
    "Verdict",
    "WayScenario",
    "ModelReport",
    "plus_minus_eigenstates",
    "twirled_pair_ensemble",
    "way_feasibility",
    "uniform_model",
    "coherent_model",
    "opt_phase_model",
    "ozawa_bound",
    "noise_of_model",
    "uniform_ud_success",
    "uniform_mle_success",
    "coherent_ud_success",
    "coherent_ud_success_smooth",
    "coherent_mle_success",
    "stirling_ud_asymptote",
    "opt_phase_mle_success",
    "opt_phase_mle_asymptote",
    "ozawa_reference_curve",
]


class Verdict(enum.Enum):
    PERFECT = "perfect"
    APPROXIMATE_ONLY = "approximate_only"
    IMPOSSIBLE = "impossible"


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _poisson_pmf(k: int, lam: float) -> float:
    if lam == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))


def uniform_ud_success(m: int) -> float:
    """Optimal UD success with the uniform ladder resource: M/(M+1)."""
    return m / (m + 1)


def uniform_mle_success(m: int) -> float:
    """Optimal minimum-error success with the uniform ladder resource.

    The two one-dimensional edge sectors carry identical projections and
    contribute a coin flip, so the Helstrom optimum is (2M+1)/(2M+2).
    """
    return (2 * m + 1) / (2 * (m + 1))


def coherent_ud_success(nbar: float) -> float:
    """Exact optimal UD success with a mean-nbar coherent resource.

    Summing the per-sector conclusive probabilities telescopes to
    1 - exp(-nbar) nbar^floor(nbar) / floor(nbar)!; the failure probability is
    the Poisson probability mass at the distribution's mode.
    """
    if not 0.0 <= nbar < math.inf:  # NaN fails too
        raise ValueError(f"nbar must be finite and >= 0, got {nbar!r}")
    return 1.0 - _poisson_pmf(math.floor(nbar), nbar)


def coherent_ud_success_smooth(nbar: float) -> float:
    """Smooth Gamma-function variant 1 - exp(-nbar) nbar^(nbar+1)/Gamma(nbar+2).

    A curve-reference companion to :func:`coherent_ud_success`: it shares the
    1 - 1/sqrt(2 pi nbar) asymptote but exceeds the exact optimum at finite
    nbar, so it must not be used as a regression target for the optimizer.
    """
    if not 0.0 < nbar < math.inf:  # NaN fails too
        raise ValueError(f"nbar must be finite and > 0, got {nbar!r}")
    return 1.0 - math.exp(-nbar + (nbar + 1) * math.log(nbar) - math.lgamma(nbar + 2))


MLE_TAIL_REL_TOL = 1e-16  # coherent_mle_success drops terms below this share of the mode's


def coherent_mle_success(nbar: float) -> float:
    """Optimal minimum-error success with a mean-nbar coherent resource.

    Evaluates exp(-nbar)/4 * [1 + sum_{n>=1} nbar^(n-1)/(n-1)! (1+sqrt(nbar/n))^2].
    The Poisson weights are recursed outward from the mode, relative to the
    weight there, and the sum is divided by their total.  No term starts from
    exp(-nbar), which is subnormal above nbar ~708 and zero above ~745, and no
    exponent of size nbar cancels, so the result is accurate at any nbar.  Each
    tail stops at its first term below ``MLE_TAIL_REL_TOL`` times the term at the mode.
    """
    if not 0.0 <= nbar < math.inf:  # NaN fails too
        raise ValueError(f"nbar must be finite and >= 0, got {nbar!r}")
    mode = math.floor(nbar)

    def gain(k: int) -> float:  # (1 + sqrt(nbar/n))^2 at n = k + 1
        return (1.0 + math.sqrt(nbar / (k + 1))) ** 2

    terms, weights = [gain(mode)], [1.0]
    cut = MLE_TAIL_REL_TOL * terms[0]
    w, k = 1.0, mode
    while True:
        w *= nbar / (k + 1)
        k += 1
        term = w * gain(k)
        if term < cut:
            break
        terms.append(term)
        weights.append(w)
    w, k = 1.0, mode
    while k > 0:
        w *= k / nbar
        k -= 1
        term = w * gain(k)
        if term < cut:
            break
        terms.append(term)
        weights.append(w)
    else:
        terms.append(w)  # the n = 0 term exp(-nbar), relative to the mode
    return math.fsum(terms) / (4.0 * math.fsum(weights))


def stirling_ud_asymptote(nbar: float) -> float:
    """Large-nbar limit of the coherent UD success, 1 - 1/sqrt(2 pi nbar)."""
    return 1.0 - 1.0 / math.sqrt(2.0 * math.pi * nbar)


def opt_phase_mle_success(m: int) -> float:
    """Optimal minimum-error success with the sine-profile resource.

    The nearest-neighbour amplitude sum peaks at cos(pi/(M+2)), giving
    success cos^2(pi/(2(M+2))) - the global optimum over all resource states
    supported on charges 0..M.
    """
    return math.cos(math.pi / (2 * (m + 2))) ** 2


def opt_phase_mle_asymptote(m: int) -> float:
    """Leading-order expansion of the sine-profile success, 1 - pi^2/(4(M+2)^2)."""
    return 1.0 - math.pi ** 2 / (4.0 * (m + 2) ** 2)


def ozawa_reference_curve(mean_n: float) -> float:
    """Reference curve 1 - (4 + 16 <N>)^-1 (a noise-criterion bound, plotted
    alongside UD curves for comparison only)."""
    return 1.0 - 1.0 / (4.0 + 16.0 * mean_n)


# ---------------------------------------------------------------------------
# twirled ensembles and feasibility
# ---------------------------------------------------------------------------

def plus_minus_eigenstates() -> tuple[np.ndarray, np.ndarray]:
    """The +/- eigenvectors (|0> +/- |1>)/sqrt(2) of the conjugate qubit observable."""
    return (np.array([1.0, 1.0]) / math.sqrt(2.0),
            np.array([1.0, -1.0]) / math.sqrt(2.0))


def twirled_pair_ensemble(resource: PureState) -> tuple[CompositeSpace, Ensemble]:
    """Twirl {resource (x) e+, resource (x) e-} with equal priors.

    The composite is ordered resource-first, so in total-charge sector n the
    two basis slots are |n-1, 1> and |n, 0>.
    """
    tm = tensor(resource.space, GradedSpace.qubit())
    e_plus, e_minus = plus_minus_eigenstates()
    rho_p = tm.pure(resource, e_plus).twirl()
    rho_m = tm.pure(resource, e_minus).twirl()
    return tm, Ensemble(((0.5, rho_p), (0.5, rho_m)))


@dataclass(frozen=True, eq=False)
class WayScenario:
    """A measurement problem under an additive conservation law.

    ``observable`` is the system observable to be measured (non-degenerate
    spectrum required), the conserved quantity is the number operator of
    ``system``; ``prior`` are source probabilities per eigenvalue index
    (ascending eigenvalue order); an optional asymmetry ``resource`` rides
    along as a second system.
    """

    system: GradedSpace
    observable: Observable
    prior: tuple[float, ...]
    resource: PureState | None = None

    def __post_init__(self):
        if len(self.prior) != self.system.total_dim:
            raise ValueError("prior length must equal the system dimension")
        _require(-min(self.prior), EPS_NUM, "negative prior")
        _require(abs(math.fsum(self.prior) - 1.0), EPS_NUM, "prior does not sum to one")
        _require_nondegenerate(self.observable.matrix)


def _require_nondegenerate(matrix: np.ndarray) -> None:
    vals = np.linalg.eigvalsh(matrix)
    if len(vals) > 1 and np.min(np.diff(vals)) <= 1e-8 * max(1.0, np.max(np.abs(vals))):
        raise ValueError("degenerate observable spectrum is not supported")


def way_feasibility(scenario: WayScenario) -> tuple[Verdict, Ensemble]:
    """Classify a measurement problem and return its twirled ensemble.

    'perfect' iff the twirled eigenstates (with positive prior, tensored with
    the resource when present) have pairwise orthogonal supports - then a
    conserving unitary model measures the observable exactly; 'impossible'
    iff all twirled states coincide (the measurement record carries no
    information at all); 'approximate_only' otherwise.
    """
    vals, vecs = np.linalg.eigh(scenario.observable.matrix)

    tm = tensor(scenario.resource.space, scenario.system) \
        if scenario.resource is not None else None

    kept: list[tuple[float, BlockDiagonal]] = []
    for k in range(len(vals)):
        if scenario.prior[k] <= EPS_NUM:
            continue
        vec = vecs[:, k]
        state = tm.pure(scenario.resource, vec) if tm is not None \
            else PureState(scenario.system, vec)
        kept.append((scenario.prior[k], state.twirl()))
    total = math.fsum(p for p, _ in kept)
    ensemble = Ensemble(tuple((p / total, st) for p, st in kept))

    if perfect_discrimination_possible(ensemble):
        return Verdict.PERFECT, ensemble

    first = ensemble.items[0][1].stacks
    all_equal = all(np.max(np.abs(first[k] - s)) <= EPS_NUM
                    for _, st in ensemble.items[1:] for k, s in st.stacks.items())
    if all_equal:
        return Verdict.IMPOSSIBLE, ensemble
    return Verdict.APPROXIMATE_ONLY, ensemble


# ---------------------------------------------------------------------------
# resource models
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ModelReport:
    """Discrimination performance of one resource model.

    ``success_closed_form`` is the exact closed form for the numeric optimum
    (they must agree to 1e-8); ``asymptote`` is a large-resource reference
    value, reported but never asserted against the numerics.
    """

    criterion: Criterion
    resource: str
    param: float
    mean_n: float
    success_numeric: float
    success_closed_form: float | None
    fail_numeric: float | None
    asymptote: float | None
    result: DiscriminationResult

    def __post_init__(self):
        if self.success_closed_form is not None:
            _require(abs(self.success_numeric - self.success_closed_form), 1e-8,
                     "closed form and numeric success disagree "
                     f"({self.success_numeric!r} vs {self.success_closed_form!r})",
                     NumericalError)

    @property
    def per_sector(self) -> tuple[tuple[int, float, float], ...]:
        """(charge, sector weight, sector success) per kept sector, in charge order."""
        return self.result.per_sector


def _report(criterion: Criterion, resource_name: str, param: float, mean_n: float,
            resource: PureState, closed_form: float | None,
            asymptote: float | None = None) -> ModelReport:
    _, ensemble = twirled_pair_ensemble(resource)
    result = _discriminate(ensemble, criterion)
    return ModelReport(
        criterion=criterion,
        resource=resource_name,
        param=param,
        mean_n=mean_n,
        success_numeric=result.success_prob,
        success_closed_form=closed_form,
        fail_numeric=result.fail_prob,
        asymptote=asymptote,
        result=result,
    )


def uniform_model(m: int, criterion: Criterion) -> ModelReport:
    """Readout of the conjugate qubit observable with the uniform ladder resource."""
    if m < 1:
        raise ValueError("m must be >= 1")
    closed = uniform_ud_success(m) if criterion is Criterion.UD else uniform_mle_success(m)
    return _report(criterion, "uniform", float(m), m / 2.0, uniform_state(m), closed)


def coherent_model(alpha: float, criterion: Criterion) -> ModelReport:
    """Readout with a truncated coherent resource of amplitude alpha (nbar = alpha^2)."""
    if not 0.0 < alpha < math.inf:  # NaN fails too
        raise ValueError(f"alpha must be finite and > 0, got {alpha!r}")
    nbar = alpha * alpha
    closed = coherent_ud_success(nbar) if criterion is Criterion.UD \
        else coherent_mle_success(nbar)
    asym = stirling_ud_asymptote(nbar) if criterion is Criterion.UD else None
    return _report(criterion, "coherent", alpha, nbar,
                   coherent_state(alpha), closed, asym)


def opt_phase_model(m: int) -> ModelReport:
    """Minimum-error readout with the sine-profile resource (MLE only)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _report(Criterion.MLE, "opt_phase", float(m), m / 2.0,
                   opt_phase_state(m), opt_phase_mle_success(m),
                   opt_phase_mle_asymptote(m))


# ---------------------------------------------------------------------------
# noise bound
# ---------------------------------------------------------------------------

def ozawa_bound(observable: Observable, system_state: np.ndarray,
                apparatus: PureState) -> float:
    """Commutator lower bound on the mean squared measurement noise.

    Evaluates |<[L, N_S]>|^2 / (4 sigma(N_S)^2 + 4 sigma(N_A)^2) on the
    product input rho_S (x) |psi_A><psi_A|, with ``system_state`` a density
    matrix on ``observable.space`` and ``apparatus`` the pure apparatus state.
    The conserved quantities are the charges of the two spaces, N_S of
    ``observable.space`` and N_A of ``apparatus.space``; they act as scalings.
    A vanishing denominator leaves the bound undefined and raises.
    """
    ds = observable.space.total_dim
    da = apparatus.space.total_dim
    joint = np.kron(_check_density(system_state, ds), apparatus.density())
    ns = np.kron(observable.space.charge_labels(), np.ones(da))
    na = np.kron(np.ones(ds), apparatus.space.charge_labels())
    # the joint is zero off the rows |s, a> with psi_A(a) != 0, so the trace reads only
    # them: the rows sup of [L (x) 1, N_S], each product over the full inner dimension
    sa = np.flatnonzero(apparatus.amplitudes)
    sup = (np.arange(ds)[:, None] * da + sa).ravel()
    l_rows = np.kron(observable.matrix, np.eye(da)[sa])
    comm_rows = l_rows * ns - ns[sup, None] * l_rows
    num = abs(_trace_on(comm_rows @ joint, sup)) ** 2

    def var(n: np.ndarray) -> float:
        mean = np.real(np.sum(n * joint.diagonal()))
        second = np.real(np.sum(n * n * joint.diagonal()))
        return max(second - mean ** 2, 0.0)

    denom = 4.0 * var(ns) + 4.0 * var(na)
    if not denom > EPS_NUM:  # NaN too
        raise ValueError("bound undefined: conserved-quantity variances vanish")
    return float(num / denom)


def noise_of_model(unitary: BlockDiagonal, observable_full: np.ndarray, pointer: np.ndarray,
                   input_state: np.ndarray) -> float:
    """Mean squared noise <(V' Z V - L)^2> of a premeasurement model.

    All operators live on the composite space of the block unitary V.  The
    pointer Z is diagonal there and is given as its diagonal ``pointer``, the
    outcome values (the measured eigenvalue on each success outcome, zero on
    failure).  V' Z V is formed per sector stack as (V_k' z_k) V_k.
    """
    l_full = np.asarray(observable_full, dtype=complex)
    rho = np.asarray(input_state, dtype=complex)
    z = np.asarray(pointer)
    if not (unitary.space.total_dim,) * 2 == l_full.shape == rho.shape == z.shape * 2:
        raise ValueError("operator dimensions do not match")
    noise_op = -l_full
    for k, (_, idx) in unitary.space.groups.items():
        v = unitary.stacks[k]
        noise_op[idx[:, :, None], idx[:, None, :]] += (v.conj().swapaxes(1, 2)
                                                       * z[idx][:, None, :]) @ v
    # the trace reads the diagonal only where rho has a nonzero column (for a Hermitian
    # input, a nonzero row), so only those rows of noise_op @ noise_op @ rho are formed
    sup = np.flatnonzero(np.any(rho != 0, axis=0))
    val = np.real(_trace_on(noise_op[sup] @ noise_op @ rho, sup))
    return float(max(val, 0.0))


def _trace_on(rows: np.ndarray, sup: np.ndarray) -> complex:
    """Trace of the d x d product whose rows ``sup`` are ``rows`` and whose other
    diagonal entries are zero: they are scattered into zeros and summed with
    ``np.sum``, the pairwise sum ``np.trace`` takes over the full diagonal."""
    diag = np.zeros(rows.shape[1], dtype=complex)
    diag[sup] = rows[np.arange(len(sup)), sup]
    return np.sum(diag)
