"""Independent brute-force oracles shared between module tests and acceptance."""

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# convertibility
# ---------------------------------------------------------------------------

def convolution_quotient(p: dict[int, Fraction], q: dict[int, Fraction]):
    """Exact solution of w * q = p, if any.

    A translate mixture sum_k w_k T^(k) q is the convolution w * q, so a
    solving w is the (unique) Laurent-polynomial quotient p/q.  Returns the
    quotient as {shift: Fraction} when q divides p exactly, else None.
    Exhaustive in the strict sense: every real solution equals this quotient.
    The division runs on integers: p and q over a common denominator, and p
    scaled by lead(q)^(deg+1) so that every quotient coefficient is whole.
    """
    pmin, pmax = min(p), max(p)
    qmin, qmax = min(q), max(q)
    deg = (pmax - pmin) - (qmax - qmin)
    if deg < 0:
        return None
    den = math.lcm(*(c.denominator for c in (*p.values(), *q.values())))
    qc = [q[n].numerator * (den // q[n].denominator) if n in q else 0
          for n in range(qmin, qmax + 1)]
    scale = qc[-1] ** (deg + 1)
    rem = [p[n].numerator * (den // p[n].denominator) * scale if n in p else 0
           for n in range(pmin, pmax + 1)]
    quot = [0] * (deg + 1)
    for d in range(deg, -1, -1):
        quot[d] = rem[len(qc) - 1 + d] // qc[-1]  # exact: see the docstring
        for i, qq in enumerate(qc):
            rem[i + d] -= quot[d] * qq
    if any(rem):
        return None
    return {d + pmin - qmin: Fraction(c, scale) for d, c in enumerate(quot)}


def convertible_exact(p: dict[int, Fraction], q: dict[int, Fraction]) -> bool:
    """Exact verdict: p reachable as a nonnegative translate mixture of q."""
    w = convolution_quotient(p, q)
    if w is None:
        return False
    assert sum(w.values()) == 1
    return all(c >= 0 for c in w.values())


def simplex_grid_witness(p: dict[int, float], q: dict[int, float],
                         resolution: int = 8, atol: float = 1e-12) -> bool:
    """Search weight vectors on a 1/resolution simplex grid for an exact fit.

    Weights are confined to the support-forced window
    [min p - min q, max p - max q] (any exactly-feasible mixture lives there,
    because supports add under convolution of nonnegative sequences).
    Returns True iff some grid point reproduces p to within atol in L1.
    """
    span_p = max(p) - min(p)
    span_q = max(q) - min(q)
    if span_q > span_p:
        return False
    k0 = min(p) - min(q)
    nk = span_p - span_q + 1
    lo, hi = min(p), max(p)
    a = np.zeros((hi - lo + 1, nk))
    for ki in range(nk):
        for n, prob in q.items():
            a[n + k0 + ki - lo, ki] = prob
    pv = np.zeros(hi - lo + 1)
    for n, prob in p.items():
        pv[n - lo] = prob
    residuals = np.abs(_simplex_grid(resolution, nk) @ a.T - pv).sum(axis=1)
    return bool(residuals.min() <= atol)


@functools.cache
def _simplex_grid(resolution: int, parts: int) -> np.ndarray:
    """Every weight vector of ``parts`` entries on the 1/resolution simplex grid."""
    grid = np.array(list(_compositions(resolution, parts)), dtype=float) / resolution
    grid.setflags(write=False)
    return grid


def dense_number_variance(state) -> float:
    """Var(N) in a pure state, with N = diag(charge labels) as a dense d x d matrix."""
    n = np.diag(state.space.charge_labels().astype(float)).astype(complex)
    amps = state.amplitudes
    mean = float(np.real(np.vdot(amps, n @ amps)))
    second = float(np.real(np.vdot(amps, (n @ n) @ amps)))
    return max(second - mean ** 2, 0.0)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


# ---------------------------------------------------------------------------
# discrimination
# ---------------------------------------------------------------------------

def ud_grid_search(rho_p, rho_m, priors, points: int = 40001):
    """Best UD success over the (a, b) weight region, by dense search.

    Effects are a K+ and b K- with K+- the kernel projectors of the opposite
    state.  For every a on a dense grid, the largest b keeping the
    inconclusive effect PSD is found by bisection on the assembled 2x2 matrix
    (trace/determinant test on its entries), so the search is independent of
    the closed-form boundary parameterization used by the implementation.
    """
    vals_p, vecs_p = np.linalg.eigh(rho_p)
    vals_m, vecs_m = np.linalg.eigh(rho_m)
    chi_p = vecs_m[:, 0]
    chi_m = vecs_p[:, 0]
    kp = np.outer(chi_p, chi_p.conj())
    km = np.outer(chi_m, chi_m.conj())
    alpha = float(np.real(chi_p.conj() @ rho_p @ chi_p))
    beta = float(np.real(chi_m.conj() @ rho_m @ chi_m))

    def psd(a, b):
        # the entries of 1 - a K+ - b K-, in real arrays: its diagonal is real and
        # its off-diagonal pair is conjugate, so det = f00 f11 - |f01|^2
        f00 = 1.0 - a * kp[0, 0].real - b * km[0, 0].real
        f11 = 1.0 - a * kp[1, 1].real - b * km[1, 1].real
        f01_re = a * kp[0, 1].real + b * km[0, 1].real
        f01_im = a * kp[0, 1].imag + b * km[0, 1].imag
        return (f00 + f11 >= -1e-14) & (f00 * f11 - f01_re ** 2 - f01_im ** 2 >= -1e-14)

    av = np.linspace(0.0, 1.0, points)
    av = av[psd(av, np.zeros_like(av))]
    lo = np.zeros_like(av)
    hi = np.ones_like(av)
    ok_hi = psd(av, hi)
    hi = np.where(ok_hi, hi, hi)  # bisect even where b=1 is infeasible
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        good = psd(av, mid)
        lo = np.where(good, mid, lo)
        hi = np.where(good, hi, mid)
    bv = np.where(ok_hi, 1.0, lo)
    return float(np.max(priors[0] * av * alpha + priors[1] * bv * beta))


def mle_trace_norm_success(rho_p, rho_m, priors) -> float:
    """Helstrom value (1 + ||p+ rho+ - p- rho-||_1)/2 via singular values."""
    delta = priors[0] * rho_p - priors[1] * rho_m
    return 0.5 * (1.0 + np.linalg.svd(delta, compute_uv=False).sum())


def random_projective_success(rho_p, rho_m, priors, rng, trials: int = 1000) -> float:
    """Best success among random two-outcome projective measurements."""
    dim = rho_p.shape[0]
    best = 0.0
    for _ in range(trials):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(a)
        r = rng.integers(0, dim + 1)
        keep = q[:, :r]
        proj = keep @ keep.conj().T
        val = (priors[0] * np.real(np.trace(rho_p @ proj))
               + priors[1] * np.real(np.trace(rho_m @ (np.eye(dim) - proj))))
        best = max(best, float(val))
    return best


def coherent_mle_log_series(nbar: float, digits: int = 40) -> float:
    """Coherent-resource MLE success from its series, in log space.

    exp(-nbar)/4 [1 + sum_{n>=1} nbar^(n-1)/(n-1)! (1 + sqrt(nbar/n))^2], where
    each Poisson term is exp(-nbar + k ln nbar - ln k!) and ln k! is a running
    sum of ln j, all in ``digits``-digit decimal arithmetic: the exponents
    cancel without loss and exp(-nbar) cannot underflow.  Terms more than
    12 standard deviations plus 40 beyond the mean are dropped (below 1e-30).
    """
    with localcontext() as ctx:
        ctx.prec = digits
        lam = Decimal(nbar)
        if lam == 0:
            return 0.5
        ln_lam, ln_fact = lam.ln(), Decimal(0)
        width = 12 * math.sqrt(nbar) + 40
        total = (-lam).exp()
        for k in range(int(nbar + width) + 1):
            if k:
                ln_fact += Decimal(k).ln()
            if k < nbar - width:
                continue
            pk = (k * ln_lam - lam - ln_fact).exp()
            total += pk * (1 + (lam / (k + 1)).sqrt()) ** 2
        return float(total / 4)


def coherent_amplitudes_resumming(alpha: float, tail_mass: float = 1e-12) -> np.ndarray:
    """Truncated coherent-state amplitudes, re-summing the whole pmf each step.

    The quadratic reference for ``graded.coherent_state``: append Poisson terms
    by the recursion p_n = p_{n-1} lam / n while ``1 - fsum(pmf)`` is at least
    ``tail_mass``, with ``fsum`` taken over the full list at every step, then
    renormalize the square roots.  Assumes exp(-alpha^2) is a normal float.
    """
    lam = alpha * alpha
    pmf = [math.exp(-lam)]
    while 1.0 - math.fsum(pmf) >= tail_mass:
        pmf.append(pmf[-1] * lam / len(pmf))
    amps = np.sqrt(np.array(pmf))
    return amps / np.linalg.norm(amps)


# ---------------------------------------------------------------------------
# support orthogonality
# ---------------------------------------------------------------------------

def supports_orthogonal(rho_a, rho_b, tol: float = 1e-9) -> bool:
    """PSD support orthogonality via tr(A B) = 0 (exact criterion for PSD)."""
    return abs(np.trace(np.asarray(rho_a) @ np.asarray(rho_b)).real) <= tol


# ---------------------------------------------------------------------------
# composite basis order
# ---------------------------------------------------------------------------

def _tensor_order(a, b):
    """Charge-major order of a (x) b by nested loops over sectors and indices.

    ``a`` and ``b`` are (charges, dims) pairs with strictly increasing charges.
    Returns the composite (charges, dims) and, per composite basis vector, its
    Kronecker index ``i_a * dim_b + i_b``: ordered by total charge, then by the
    charge of ``a``, then by the two intra-sector indices.
    """
    (ca, da), (cb, db) = a, b
    off_a = {c: sum(da[:i]) for i, c in enumerate(ca)}
    off_b = {c: sum(db[:i]) for i, c in enumerate(cb)}
    dim_a, dim_b = dict(zip(ca, da)), dict(zip(cb, db))
    width = sum(db)
    totals = sorted({na + nb for na in ca for nb in cb})
    order, dims = [], []
    for n in totals:
        count = 0
        for na in ca:
            nb = n - na
            if nb not in dim_b:
                continue
            for ia in range(dim_a[na]):
                for ib in range(dim_b[nb]):
                    order.append((off_a[na] + ia) * width + off_b[nb] + ib)
                    count += 1
        dims.append(count)
    return (tuple(totals), tuple(dims)), order


def composite_order(wires):
    """Charge-major order of a chain of (charges, dims) wires, tensored left to right.

    Returns (charges, dims, kron_index), where ``kron_index[g]`` is the flat
    multi-wire Kronecker index of composite basis vector ``g``.
    """
    space = wires[0]
    index = list(range(sum(space[1])))
    for wire in wires[1:]:
        width = sum(wire[1])
        space, order = _tensor_order(space, wire)
        index = [index[g // width] * width + g % width for g in order]
    return space[0], space[1], index


# ---------------------------------------------------------------------------
# dense circuit formulas
# ---------------------------------------------------------------------------

def _kron_all(ops):
    out = np.eye(1)
    for op in ops:
        out = np.kron(out, op)
    return out


def _commutator_norm(a, b):
    return float(np.linalg.norm(a @ b - b @ a, 2))


def outer_product_projectors(m):
    """P_plus, P_minus and P_edge on resource (x) system, as sums of outer products."""
    dim = 2 * (m + 1)

    def ket(r, s):
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


def _qubit_swap(num_wires, i, j):
    """SWAP of qubits i and j of a bank of num_wires, by transposing the identity's axes."""
    eye = np.eye(1 << num_wires).reshape((2,) * (2 * num_wires))
    return eye.swapaxes(i, j).reshape(1 << num_wires, 1 << num_wires)


def dense_kron_unitary(kind, m):
    """The unitary of the ``kind`` circuit as a dense Kronecker sum, in the plain wire layout.

    Sums the terms in the builders' order, so ``composite.matrix`` of the
    result holds the bits the sector blocks should hold.
    """
    p_plus, p_minus, p_edge = outer_product_projectors(m)
    if kind == "mle":
        return np.kron(p_plus + p_edge, _qubit_swap(2, 0, 1)) + np.kron(p_minus, np.eye(4))
    eye2, eye8 = np.eye(2), np.eye(8)
    if kind == "ud":
        return (np.kron(p_edge, eye8) + np.kron(p_minus, _qubit_swap(3, 1, 2))
                + np.kron(p_plus, _qubit_swap(3, 0, 2)))
    v1 = (np.kron(p_edge, np.kron(eye2, eye8))
          + np.kron(p_minus, np.kron(eye2, _qubit_swap(3, 1, 2)))
          + np.kron(p_plus, np.kron(eye2, _qubit_swap(3, 0, 2))))
    eye_r = np.eye(m + 1)
    swap_sc = _qubit_swap(2, 0, 1)
    phase_then_swap = swap_sc @ np.kron(eye2, np.diag([1.0, -1.0]))
    q_plus, q_minus = np.diag(eye8[0b100]), np.diag(eye8[0b010])
    q_rest = eye8 - q_plus - q_minus
    v2 = (np.kron(eye_r, np.kron(swap_sc, q_plus))
          + np.kron(eye_r, np.kron(phase_then_swap, q_minus))
          + np.kron(eye_r, np.kron(np.eye(4), q_rest)))
    return v2 @ v1


def dense_circuit_reference(model, system_rho, prob_cutoff: float = 1e-14):
    """Circuit-layer quantities of a ``MeasurementModel``, from dense matrices only.

    Works in the plain multi-wire Kronecker layout: the unitary is permuted
    back out of the charge-major basis once, and every number operator,
    pointer and outcome projector is a dense d x d matrix multiplied with
    GEMMs.  Returns a dict with ``outcomes`` (label -> (probability, reduced
    system state or None)), ``noise``, ``noise_bound``, ``conservation``
    ([V, N_tot]) and ``yanase`` ([Z_A, N_A]), with the default pointer values
    +1 / -1 / 0 for plus / minus / fail.
    """
    wires = model.composite.wires
    dims = [w.total_dim for w in wires]
    sys_i, d = model.system_wire, int(np.prod(dims))
    inv = np.argsort(model.composite.kron_index)
    v = np.asarray(model.unitary.matrix)[np.ix_(inv, inv)]
    x = np.array([[0.0, 1.0], [1.0, 0.0]])

    def wire_op(i, op):
        return _kron_all(op if j == i else np.eye(dims[j]) for j in range(len(dims)))

    def number(ws):
        """Total number operator of the wires ``ws``, in their Kronecker layout."""
        return sum(_kron_all(np.diag(wires[i].charge_labels().astype(float)) if j == i
                             else np.eye(dims[j]) for j in ws) for i in ws)

    rho = _kron_all(np.asarray(system_rho, dtype=complex) if i == sys_i
                    else np.outer(vec, vec.conj()) for i, vec in enumerate(model.init))
    evolved = v @ rho @ v.conj().T
    bank = len(next(iter(model.pointer.values())))
    pre, post = int(np.prod(dims[:sys_i])), int(np.prod(dims[sys_i + 1:]))
    outcomes = {}
    for label, mask in model.pointer.items():
        q = np.kron(np.eye(d // bank), np.diag(np.asarray(mask, dtype=complex)))
        selected = q @ evolved @ q
        prob = float(np.real(np.trace(selected)))
        if prob <= prob_cutoff:
            outcomes[label] = (max(prob, 0.0), None)
            continue
        blocks = selected.reshape(pre, dims[sys_i], post, pre, dims[sys_i], post)
        outcomes[label] = (prob, np.einsum("iajibj->ab", blocks) / prob)

    values = {"plus": 1.0, "minus": -1.0}
    zreg = sum(values.get(label, 0.0) * np.asarray(mask, dtype=float)
               for label, mask in model.pointer.items())
    z_full = np.kron(np.eye(d // bank), np.diag(zreg))
    noise_op = v.conj().T @ z_full @ v - wire_op(sys_i, x)
    noise = max(float(np.real(np.trace(noise_op @ noise_op @ rho))), 0.0)

    # Ozawa bound on the joint state system (x) apparatus
    app = [i for i in range(len(dims)) if i != sys_i]  # apparatus wires, in wire order
    app_vec = _kron_all(np.asarray(model.init[i], dtype=complex)[:, None] for i in app)
    app_rho = app_vec @ app_vec.conj().T
    da = app_rho.shape[0]
    n_a = number(app)
    joint = np.kron(np.asarray(system_rho, dtype=complex), app_rho)
    l_full = np.kron(x, np.eye(da))
    ns_full = np.kron(np.diag([0.0, 1.0]), np.eye(da))
    na_full = np.kron(np.eye(2), n_a)
    comm = l_full @ ns_full - ns_full @ l_full
    num = abs(np.trace(comm @ joint)) ** 2

    def var(op):
        mean = np.real(np.trace(op @ joint))
        return max(np.real(np.trace(op @ op @ joint)) - mean ** 2, 0.0)

    bound = float(num / (4.0 * var(ns_full) + 4.0 * var(na_full)))
    z_app = np.kron(np.eye(da // bank), np.diag(zreg))
    return {"outcomes": outcomes, "noise": noise, "noise_bound": bound,
            "conservation": _commutator_norm(v, number(range(len(dims)))),
            "yanase": _commutator_norm(z_app, n_a)}


def dense_ozawa_bound(l_mat, system_space, system_rho, apparatus_space, apparatus_vec):
    """Ozawa's bound on rho_S (x) |psi_A><psi_A|, from d x d matrices formed here.

    The joint state, L (x) 1, N_S (x) 1 and 1 (x) N_A are built as dense
    Kronecker products, with each charge operator the diagonal of its space's
    charges repeated over their sector dimensions; then
    |tr([L (x) 1, N_S (x) 1] rho)|^2 / (4 var(N_S (x) 1) + 4 var(1 (x) N_A)).
    """
    def number(space):
        return np.diag(np.repeat(space.charges, space.dims).astype(float))

    n_s, n_a = number(system_space), number(apparatus_space)
    ds, da = len(n_s), len(n_a)
    vec = np.asarray(apparatus_vec, dtype=complex)
    joint = np.kron(np.asarray(system_rho, dtype=complex), np.outer(vec, vec.conj()))
    l_full = np.kron(np.asarray(l_mat, dtype=complex), np.eye(da))
    ns_full, na_full = np.kron(n_s, np.eye(da)), np.kron(np.eye(ds), n_a)
    num = abs(np.trace((l_full @ ns_full - ns_full @ l_full) @ joint)) ** 2

    def var(op):
        mean = np.real(np.trace(op @ joint))
        return np.real(np.trace(op @ op @ joint)) - mean ** 2

    return float(num / (4.0 * var(ns_full) + 4.0 * var(na_full)))


def kron_ozawa_bound(observable, system_state, apparatus):
    """``models.ozawa_bound`` as it was before the trace was cut to the input's support.

    The full d x d joint, the full commutator [L (x) 1, N_S (x) 1] as scalings of
    L (x) 1, and ``np.trace(comm @ joint)``: the dense form whose bits the bound keeps.
    """
    from waylab.graded import EPS_NUM, _check_density

    ds = observable.space.total_dim
    da = apparatus.space.total_dim
    joint = np.kron(_check_density(system_state, ds), apparatus.density())
    ns = np.kron(observable.space.charge_labels(), np.ones(da))
    na = np.kron(np.ones(ds), apparatus.space.charge_labels())
    l_full = np.kron(observable.matrix, np.eye(da))

    comm = l_full * ns - ns[:, None] * l_full
    num = abs(np.trace(comm @ joint)) ** 2

    def var(n: np.ndarray) -> float:
        mean = np.real(np.sum(n * joint.diagonal()))
        second = np.real(np.sum(n * n * joint.diagonal()))
        return max(second - mean ** 2, 0.0)

    denom = 4.0 * var(ns) + 4.0 * var(na)
    if not denom > EPS_NUM:  # NaN too
        raise ValueError("bound undefined: conserved-quantity variances vanish")
    return float(num / denom)


def kron_initial_density(model, system_rho):
    """rho_system (x) apparatus-init in the composite basis, from the full Kronecker form.

    One factor per wire, multiplied in wire order over the whole Kronecker basis
    and then permuted by ``kron_index``: the dense construction whose support
    entries the circuit readout must reproduce bit for bit.
    """
    rho = np.asarray(system_rho, dtype=complex)
    factors = (rho if vec is None else np.outer(vec, vec.conj()) for vec in model.init)
    return model.composite.matrix(functools.reduce(np.kron, factors))


def stacked_product(blocks, x):
    """``blocks @ x`` for a block-diagonal operator and dense (d, n) rows, by stacks.

    Each sector dimension's rows are gathered into an (S, k, n) stack,
    multiplied by the (S, k, k) blocks in one stacked product and scattered
    back: the same (k, k) @ (k, n) product per sector as the sector-slice form.
    """
    out = np.empty(x.shape, dtype=complex)
    for k, (_, idx) in blocks.space.groups.items():
        out[idx] = blocks.stacks[k] @ x[idx]
    return out


def composite_readout_reference(model, system_rho):
    """The dense composite-basis readout and noise, pinned to the bits the CLI prints.

    The input is the full Kronecker product (``kron_initial_density``) and the
    evolution two stacked products (``stacked_product``), both formed here
    rather than by the code under test.  The outcomes come from a d x d outcome
    mask and an ``ix_`` permutation back to the Kronecker layout, and the noise
    from the dense ``(V^dagger * z) @ V``.  Returns a dict with ``outcomes``
    (label -> (probability, reduced system state or None)) and ``noise``.
    """
    from waylab.circuits import PLUS_MINUS_OBSERVABLE, POINTER_VALUES, PROB_CUTOFF

    rho = kron_initial_density(model, system_rho)
    v = model.unitary
    evolved = stacked_product(v, stacked_product(v, rho).conj().T).conj().T

    comp = model.composite
    inv = np.argsort(comp.kron_index)
    dims = comp.wire_dims
    sys_i = model.system_wire
    ds = dims[sys_i]
    out = {}
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

    v = np.asarray(model.unitary.matrix, dtype=complex)
    l_full = comp.matrix(functools.reduce(np.kron, (
        PLUS_MINUS_OBSERVABLE if i == sys_i else np.eye(n) for i, n in enumerate(dims))))
    zreg = sum(POINTER_VALUES[label] * mask for label, mask in model.pointer.items())
    z = zreg[comp.kron_index % zreg.size]
    noise_op = (v.conj().T * z) @ v - l_full
    val = np.real(np.trace(noise_op @ noise_op @ rho))
    return {"outcomes": out, "noise": float(max(val, 0.0))}


def closed_form_noise(kind, m, system_rho):
    """Mean squared noise of the uniform-resource circuit ``kind`` at size m, in closed form.

    ud and repeatable: 1/(m+1) on every input.  mle: 2(1 - x)/(m+1), x = <sigma_x>.

    Derivation.  With N = V'ZV - L (x) 1, L = sigma_x and the apparatus in its start
    state |A>, <N^2> = <V'Z^2V> - tr(M (L rho + rho L)) + tr(L^2 rho), where
    M = <A| V'ZV |A> is a system operator and tr(L^2 rho) = 1.  V applies each effect
    E_o of ``discriminate`` on resource (x) system (orthogonal projectors, see below)
    together with a swap that moves the register excitation to configuration o, which Z
    reads as z_o; the configurations are orthogonal Z eigenstates, so
    <A| V'ZV |A> = sum_o z_o <R| E_o |R> and
    <V'Z^2V> = sum_o z_o^2 P(o).  (Repeatable's restore stage is diagonal in the register
    basis, so it commutes with Z and drops out.)  For the uniform resource
    |R> = sum_k |k> / sqrt(m+1), the interior sectors n = 1..m hold the orthogonal pair
    (|n, 0> +- |n-1, 1>)/sqrt(2), whose projectors are E_+ and E_-; each gives
    <R|.|R> = |e+-><e+-| / (m+1), so <R| E_+- |R> = m/(m+1) |e+-><e+-|.  The edge
    sectors |0, 0> and |m, 1> give <R|.|R> = 1/(m+1) in total; they fail for ud and go
    to plus for mle.
      ud:  M = m/(m+1) sigma_x and <V'Z^2V> = P(plus) + P(minus) = m/(m+1), so
           <N^2> = m/(m+1) - 2m/(m+1) + 1 = 1/(m+1).
      mle: M = m/(m+1) sigma_x + 1/(m+1), <V'Z^2V> = 1 and tr(L rho + rho L) = 2x, so
           <N^2> = 1 - 2(m + x)/(m+1) + 1 = 2(1 - x)/(m+1).
    """
    if kind in ("ud", "repeatable"):
        return 1.0 / (m + 1)
    x = 2.0 * np.real(np.asarray(system_rho)[0, 1])  # <sigma_x> = 2 Re rho_01
    return 2.0 * (1.0 - x) / (m + 1)


# ---------------------------------------------------------------------------
# discrimination
# ---------------------------------------------------------------------------

def dense_global_effects(result):
    """Dense global POVM of a discrimination result, assembled over the whole space.

    Zero matrices take each kept sector's effects by slice assignment; then
    eye - (plus + minus [+ fail]) goes to the spare effect (``fail`` for UD,
    ``plus`` for MLE), which also parks every sector dropped for zero weight.
    """
    space = result.space
    dim = space.total_dim
    ud = result.criterion.value == "ud"
    labels = ("plus", "minus", "fail") if ud else ("plus", "minus")
    effects = {lab: np.zeros((dim, dim), dtype=complex) for lab in labels}
    for charge, _, _ in result.per_sector:
        sl = space.slice_of(charge)
        for lab, eff in result.effects.items():
            effects[lab][sl, sl] = eff.block(charge)
    covered = sum(eff for eff in effects.values())
    effects["fail" if ud else "plus"] += np.eye(dim) - covered
    return effects


# ---------------------------------------------------------------------------
# resource states
# ---------------------------------------------------------------------------

def opt_phase_norm_squared_inverse(max_charge: int) -> float:
    """Closed form for 1/C^2 of the sine-profile state.

    Evaluates (1/4)(1 + 2M - csc(x) sin((2M+1)x)) + sin^2((M+1)x) with
    x = pi/(M+2); simplifies to (M+2)/2 exactly.  A cross-check of the
    numerical normalization used by ``graded.opt_phase_state``.
    """
    m = max_charge
    x = math.pi / (m + 2)
    return 0.25 * (1 + 2 * m - math.sin((2 * m + 1) * x) / math.sin(x)) \
        + math.sin((m + 1) * x) ** 2
