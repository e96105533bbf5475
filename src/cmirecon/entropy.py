"""Scalar information measures.

Von Neumann entropy, conditional mutual information I(C:R|B) of the
subsystems labelled B, C and R, quantum relative entropy, fidelity and the
order-1/2 Renyi divergence, a damped Newton solver for the variational
program of the measured relative entropy, and a trace-distance continuity
bound for the relative entropy.

All public values are reported in bits; internal computation uses natural
logs with a single conversion at the boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, states
from .states import MultipartiteState

LN2 = math.log(2.0)
SQRT2 = math.sqrt(2.0)

# Support-containment threshold: S(rho||sigma) and D_M(rho||sigma) are +inf
# when the trace norm of rho compressed outside sigma's support reaches this.
SUPPORT_LEAK_TOL = 1e-9

# Shift of rho's eigenvalues under the log of the measured-RE log-ratio
# start, ln(rho + shift) - ln(sigma), which keeps it finite on rho's kernel.
RHO_LOG_SHIFT = 1e-12


def _state(state_or_matrix) -> MultipartiteState:
    """A state as it is, or a raw matrix through the state boundary, as one subsystem.

    A raw matrix is checked like any ``MultipartiteState``: square, finite,
    Hermitian, of unit trace and positive semidefinite within tolerance.
    """
    if isinstance(state_or_matrix, MultipartiteState):
        return state_or_matrix
    m = np.asarray(state_or_matrix, dtype=complex)
    return MultipartiteState(m, (("A", len(m) if m.ndim else 1),))


def _pair(rho, sigma) -> tuple[MultipartiteState, MultipartiteState]:
    """rho and sigma through the state boundary, checked to be of one dimension."""
    rho, sigma = _state(rho), _state(sigma)
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    return rho, sigma


def _renyi_half_bits(f: float) -> float:
    """-2 log2 F in bits for a fidelity F in [0, 1]: +inf at F = 0."""
    return math.inf if f <= 0.0 else -2.0 * math.log2(min(f, 1.0))


def _w_log_w(spec: linalg.Spectrum) -> float:
    """sum of w ln w over the support of the spectrum, in nats."""
    w = spec.eigenvalues[spec.kernel :]
    return float((w * np.log(w)).sum())


def von_neumann(state_or_matrix) -> float:
    """Von Neumann entropy in bits: -sum of w log2 w over the spectrum."""
    return -_w_log_w(_state(state_or_matrix).spectrum) / LN2


def _overlap(rho: MultipartiteState, spec: linalg.Spectrum, k: int):
    """V^dag W for X's ascending eigenvectors V, the first k its kernel, and rho = W W^dag.

    Also returns rho's weight ||v_j^dag W||^2 = <v_j|rho|v_j> on each v_j
    (on rho's support, ``Spectrum.root``), and whether the weight on the
    kernel, ||V_k^dag W||_F^2 = tr V_k^dag rho V_k, reaches SUPPORT_LEAK_TOL:
    the one leak rule of every relative entropy.
    """
    overlap = spec.eigenvectors.conj().T @ rho.spectrum.root
    weight = (np.abs(overlap) ** 2).sum(axis=1)
    return overlap, weight, float(weight[:k].sum()) >= SUPPORT_LEAK_TOL


def _tr_rho_log(rho: MultipartiteState, spec: linalg.Spectrum, k: int) -> float:
    """tr(rho ln X) in nats from X's ascending eigenpairs (w_j, v_j), the first k its kernel.

    The sum over X's support of ln w_j <v_j|rho|v_j>; -inf once rho leaks
    onto the kernel (``_overlap``).
    """
    _, weight, leaks = _overlap(rho, spec, k)
    if leaks:
        return -math.inf
    return float(np.log(spec.eigenvalues[k:]) @ weight[k:])


def cmi(state: MultipartiteState) -> float:
    """Conditional mutual information I(C:R|B) in bits.

    The roles are the subsystems labelled B, C and R; any other subsystem
    is traced out first. The raw value is returned without clamping;
    strong subadditivity makes it >= 0 up to round-off.
    """
    missing = {"B", "C", "R"} - set(state.labels)
    if missing:
        raise ValueError(f"state has no subsystems {sorted(missing)}; labels are {state.labels}")
    if len(state.labels) != 3:
        state = states.partial_trace(state, ["B", "C", "R"])
    rho_bc = states.partial_trace(state, ["B", "C"])
    s_bc = von_neumann(rho_bc)
    s_br = von_neumann(states.partial_trace(state, ["B", "R"]))
    s_bcr = von_neumann(state)
    s_b = von_neumann(states.partial_trace(rho_bc, ["B"]))
    return s_bc + s_br - s_bcr - s_b


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy tr[rho(log rho - log sigma)] in bits.

    ``math.inf`` when rho leaks out of sigma's support, which is taken at
    the spectral cutoff: sigma's ``kernel`` (see ``_tr_rho_log``).
    """
    rho, sigma = _pair(rho, sigma)
    return (_w_log_w(rho.spectrum) - _tr_rho_log(rho, sigma.spectrum, sigma.spectrum.kernel)) / LN2


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity tr[(sigma^1/2 rho sigma^1/2)^1/2], clipped to [0, 1].

    Evaluated as the trace norm of sqrt(sigma) sqrt(rho), whose singular
    values are the eigenvalues of the bracketed root; round-off then enters
    linearly instead of under a square root. With the root factors
    (``Spectrum.root``) that norm is ||W_sigma^dag W_rho||_1, an
    r_sigma x r_rho matrix for the ranks r at the support cutoff.
    """
    rho, sigma = _pair(rho, sigma)
    overlap = sigma.spectrum.root.conj().T @ rho.spectrum.root
    f = linalg._trace_norm(overlap)
    return min(max(f, 0.0), 1.0)


def renyi_half(rho, sigma) -> float:
    """Order-1/2 Renyi relative entropy -2 log2 F(rho, sigma) in bits."""
    return _renyi_half_bits(fidelity(rho, sigma))


# --- measured relative entropy ----------------------------------------------

# Measured-RE ascent: a damped Newton step in H = ln w. A start has converged
# once half its squared Newton decrement, the gain its quadratic model
# predicts, is at most MRE_DECREMENT_TOLERANCE nats. Each step's spectral
# norm is capped at MRE_MAX_STEP, since on a rank-deficient rho the supremum
# lies at infinity in H. Backtracking halves the step until it gains
# MRE_ARMIJO of the predicted first-order gain, and gives up below
# MRE_MIN_STEP. A start whose decrement has not halved over MRE_STALL_STEPS
# accepted steps is given up unconverged. MRE_HESSIAN_SHIFT keeps the Newton
# system definite along directions where neither rho nor sigma has weight.
MRE_DECREMENT_TOLERANCE = 1e-12
MRE_MAX_STEP = 4.0
MRE_MIN_STEP = 1e-14
MRE_STALL_STEPS = 10
MRE_HESSIAN_SHIFT = 1e-12
MRE_ARMIJO = 1e-4


@dataclass
class MeasuredReSolution:
    """Certified lower bound on the measured relative entropy.

    ``witness`` is the positive-semidefinite operator achieving
    ``value_bits`` in the variational objective: positive definite on
    sigma's support and zero on sigma's kernel. Evaluating the objective at
    the witness reproduces the value, and any witness certifies a valid
    lower bound. ``trace_bits`` holds the accepted objective values of the
    start whose value is returned. ``converged`` says that a start's Newton
    decrement fell below tolerance; the value is at least that start's, so
    it lies within about that tolerance of the supremum. When rho leaks out
    of sigma's support, the value is +inf, no start is climbed, the trace
    is empty and the witness is zero: it certifies nothing.
    """

    value_bits: float
    witness: np.ndarray
    trace_bits: list[float] = field(default_factory=list)
    converged: bool = True


def measured_re_objective_bits(rho, sigma, witness: np.ndarray) -> float:
    """Variational objective tr(rho ln w) + 1 - tr(sigma w), in bits.

    For any positive-definite ``witness`` this is a lower bound on the
    measured relative entropy of (rho, sigma). The witness is checked as a
    square, finite, Hermitian operator of rho's dimension, and tr(rho ln w)
    is read from its spectrum with the eigenvalues <= 0 as the kernel
    (``_tr_rho_log``): -inf once rho has weight there.
    """
    rho, sigma = _pair(rho, sigma)
    spec = linalg.eigh(witness)
    if len(spec.eigenvalues) != rho.dim:
        raise ValueError(f"witness of dimension {len(spec.eigenvalues)}, not {rho.dim}")
    tr_rho_log_w = _tr_rho_log(rho, spec, int(np.count_nonzero(spec.eigenvalues <= 0.0)))
    val = tr_rho_log_w + 1.0 - float(np.trace(sigma.matrix @ witness).real)
    return val / LN2


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: the index caches below share them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=None)
def _triple_order(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smallest, middle and largest of each index triple (i, k, j) < d."""
    i, k, j = np.indices((d, d, d))
    lo = np.minimum(np.minimum(i, k), j)
    hi = np.maximum(np.maximum(i, k), j)
    return _read_only(lo, i + k + j - lo - hi, hi)


def _exp_divided_differences(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second divided differences of exp at the ascending values w.

    Returns phi1[i, j] = exp[w_i, w_j] and phi2[i, k, j] = exp[w_i, w_k, w_j]
    (Daleckii-Krein). phi1 takes the midpoint form e^((a+b)/2) sinh(t)/t,
    t = (a-b)/2, near the diagonal. phi2 divides across the widest pair of
    its triple, which loses about 2e-16 / span relative, or takes e^mean / 2,
    off by about span^2 / 72, when the triple spans at most 2e-5.
    """
    ew = np.exp(w)
    dw = w[:, None] - w[None, :]
    t = dw / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        sinhc = np.where(t == 0.0, 1.0, np.sinh(t) / t)
        midpoint = np.exp((w[:, None] + w[None, :]) / 2.0) * sinhc
        phi1 = np.where(np.abs(t) < 0.5, midpoint, (ew[:, None] - ew[None, :]) / dw)
        lo, mid, hi = _triple_order(len(w))
        a, b, c = w[lo], w[mid], w[hi]
        span = c - a
        phi2 = np.where(span > 2e-5, (phi1[mid, hi] - phi1[lo, mid]) / span, np.exp((a + b + c) / 3.0) / 2.0)
    return phi1, phi2


@functools.lru_cache(maxsize=None)
def _hermitian_coordinates(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices of the diagonal, the strict upper and the strict lower triangle.

    The real coordinates of a d x d Hermitian matrix are its diagonal, then
    sqrt2 Re and sqrt2 Im of its upper triangle: an orthonormal basis for
    the inner product Re tr(A B).
    """
    iu, ju = np.triu_indices(d, 1)
    return _read_only(np.arange(d) * (d + 1), iu * d + ju, ju * d + iu)


def _to_coordinates(x: np.ndarray) -> np.ndarray:
    diag, upper, _ = _hermitian_coordinates(x.shape[0])
    flat = x.ravel()
    return np.concatenate([flat[diag].real, SQRT2 * flat[upper].real, SQRT2 * flat[upper].imag])


def _from_coordinates(y: np.ndarray, d: int) -> np.ndarray:
    diag, upper, lower = _hermitian_coordinates(d)
    n = len(upper)
    flat = np.zeros(d * d, dtype=complex)
    flat[diag] = y[:d]
    flat[upper] = (y[d : d + n] + 1j * y[d + n :]) / SQRT2
    flat[lower] = flat[upper].conj()
    return flat.reshape(d, d)


@functools.lru_cache(maxsize=None)
def _hessian_scatter(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each term of the second-derivative form lands in the coordinate Hessian.

    Entry (i, k) of a Hermitian X is a combination of at most two real
    coordinates: y_i on the diagonal, (y_sym +- i y_anti)/sqrt2 off it.
    For every index triple (i, k, j) and every pair of coordinates (a, b)
    of the entries (i, k) and (k, j), returns the flat target a * d^2 + b
    and the product of the two coefficients, as (d^3, 4) arrays.
    """
    n = d * d
    diag, upper, lower = _hermitian_coordinates(d)
    n_upper = len(upper)
    coord = np.zeros((n, 2), dtype=np.intp)
    coef = np.zeros((n, 2), dtype=complex)
    coord[diag, 0] = np.arange(d)
    coef[diag, 0] = 1.0
    sym = d + np.arange(n_upper)
    coord[upper] = coord[lower] = np.stack([sym, sym + n_upper], axis=1)
    coef[upper] = np.array([1.0, 1j]) / SQRT2
    coef[lower] = np.array([1.0, -1j]) / SQRT2
    i, k, j = (a.ravel() for a in np.indices((d, d, d)))
    left, right = i * d + k, k * d + j
    target = coord[left][:, :, None] * n + coord[right][:, None, :]
    weight = coef[left][:, :, None] * coef[right][:, None, :]
    return _read_only(target.reshape(-1, 4), weight.reshape(-1, 4))


def _newton_hessian(phi2: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Hessian of H -> tr(M e^H) in the real coordinates of H's eigenbasis.

    Daleckii-Krein: the second derivative along X is
    sum_ikj 2 phi2[i, k, j] M_ji X_ik X_kj, one term per index triple;
    each term is scattered onto the coordinates of X_ik and X_kj.
    """
    d = len(m)
    target, weight = _hessian_scatter(d)
    terms = (2.0 * phi2 * m.T[:, None, :]).reshape(-1, 1)
    k = np.bincount(target.ravel(), (weight * terms).real.ravel(), minlength=d**4)
    k = k.reshape(d * d, d * d)
    return (k + k.T) / 2.0


def _from_eigenpairs(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V diag(w) V^dag."""
    return (v * w) @ v.conj().T


def _ascend_measured_re(rho, sigma, h0, max_iterations: int):
    """Damped Newton ascent of f(H) = tr(rho H) + 1 - tr(sigma e^H).

    Works in the eigenbasis of the current H, where the gradient is
    rho - phi1 o sigma and the Hessian comes from the second divided
    differences of exp. tr(sigma e^H) is not convex in H, so the Newton
    system takes the curvature of tr(A+ ln w) at w = e^H in place of
    sigma's whenever A = D exp_H[sigma] has a negative eigenvalue (A+ its
    positive part): that form is convex, since ln is operator concave, and
    equals sigma's where A >= 0, which holds near the optimum.

    Returns the final value (nats), the eigenpairs (w, u) of the final H,
    the accepted values and whether the Newton decrement fell below
    tolerance.
    """
    d = len(h0)
    h = h0

    def evaluate(h_try):
        w_try, u_try = np.linalg.eigh(h_try)
        if w_try[-1] > 700.0:  # exp overflow guard; the line search rejects the step
            return -math.inf, None
        s_try = u_try.conj().T @ sigma @ u_try
        tr_sigma_w = float((np.diag(s_try).real * np.exp(w_try)).sum())
        return float(np.trace(rho @ h_try).real) + 1.0 - tr_sigma_w, (w_try, u_try, s_try)

    f, (w, u, s) = evaluate(h)
    trace = [f]
    decrements = []
    converged = False
    while True:
        phi1, phi2 = _exp_divided_differences(w)
        a = phi1 * s
        g = _to_coordinates(u.conj().T @ rho @ u - a)
        lam, vec = np.linalg.eigh(a)
        m = s if lam[0] >= 0.0 else ((vec * np.maximum(lam, 0.0)) @ vec.conj().T) / phi1
        hess = _newton_hessian(phi2, m)
        hess.flat[:: d * d + 1] += MRE_HESSIAN_SHIFT
        y = np.linalg.solve(hess, g)
        decrement = float(g @ y)
        if decrement / 2.0 <= MRE_DECREMENT_TOLERANCE:
            converged = True
            break
        decrements.append(decrement)
        stalled = len(decrements) > MRE_STALL_STEPS and 2.0 * decrement > decrements[-1 - MRE_STALL_STEPS]
        if len(trace) > max_iterations or stalled:
            break
        x = _from_coordinates(y, d)
        # the coordinates are orthonormal, so ||y|| = ||X||_F >= ||X||_2: a
        # step no longer than the cap in y needs no spectral norm
        scale = 1.0
        if math.sqrt(y @ y) > MRE_MAX_STEP:
            scale = min(1.0, MRE_MAX_STEP / float(np.abs(np.linalg.eigvalsh(x)).max()))
        x = (scale * u) @ x @ u.conj().T
        step = 1.0
        while step >= MRE_MIN_STEP:
            h_try = h + step * x
            f_try, decomposed = evaluate(h_try)
            if f_try > f + MRE_ARMIJO * step * scale * decrement:
                h, f = h_try, f_try
                w, u, s = decomposed
                trace.append(f)
                break
            step *= 0.5
        else:
            break
    return f, (w, u), trace, converged


def measured_relative_entropy(rho, sigma, max_iterations: int = 600) -> MeasuredReSolution:
    """Measured relative entropy via its concave variational program.

    Maximizes tr(rho ln w) + 1 - tr(sigma w) over positive-definite w
    (Berta-Fawzi-Tomamichel), parametrized as w = exp(H) and climbed by
    damped Newton steps from up to two deterministic starts, in sequence:
    the identity, then the log-ratio ln(rho + RHO_LOG_SHIFT) - ln(sigma),
    which is the optimum when rho and sigma commute and is built only when
    it runs. Every local maximum in H is global, since exp maps onto the
    positive-definite w and the program is concave in w, so no further
    start can do better. When rho has no ``kernel`` the program is strictly
    concave with its maximum at a finite w, so an identity start that
    converged has reached it and is returned alone; the log-ratio start
    runs only when it did not. A rho with a kernel has its supremum at
    infinity in H, which the two starts approach along different paths, so
    both are climbed and the better is kept.
    The returned value is a certified lower bound on the measurement
    supremum and is bounded above by S(rho||sigma); ``converged`` says
    that a start's Newton decrement fell below MRE_DECREMENT_TOLERANCE,
    which puts the value within about that much of the supremum.
    ``max_iterations`` caps the accepted Newton steps per start; a
    negative cap raises ``ValueError``.

    A sigma with a ``kernel`` is handled on its support S. D_M is a
    supremum over measurements, and a POVM compresses to S and extends back
    from it, so a rho inside S has the D_M of the pair compressed to S:
    rho_S = V_S^dag W W^dag V_S, for rho's root factor W, against the
    diagonal of sigma's support eigenvalues, climbed as above with the
    early exit reading rho_S's kernel, with the witness V_S w V_S^dag. A
    rho that leaks onto the kernel by the rule of ``relative_entropy``
    (``_overlap``) has D_M = +inf, returned converged without a Newton
    step. Both starts read the spectra the inputs keep, so a full-rank
    solve on states whose spectra were read decomposes nothing, and one
    inside a singular sigma decomposes rho_S.
    """
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be >= 0, got {max_iterations}")
    rho, sigma = _pair(rho, sigma)
    sigma_spec = sigma.spectrum
    k = sigma_spec.kernel
    w_sigma = sigma_spec.eigenvalues[k:]
    if not k:
        rho_m, sigma_m, rho_spec = rho.matrix, sigma.matrix, rho.spectrum
    else:
        overlap, _, leaks = _overlap(rho, sigma_spec, k)
        if leaks:
            return MeasuredReSolution(math.inf, np.zeros((rho.dim, rho.dim), dtype=complex), [], True)
        root_s = overlap[k:]
        rho_m = root_s @ root_s.conj().T
        sigma_m = np.diag(w_sigma).astype(complex)
        rho_spec = linalg._spectrum(rho_m)
    # a clipped spectrum keeps the ascent from milking unbounded objective
    # out of round-off-negative directions; rho is rebuilt only if changed
    v_rho = rho_spec.eigenvectors
    w_rho = np.maximum(rho_spec.eigenvalues, 0.0)
    if rho_spec.eigenvalues[0] < 0.0:
        rho_m = _from_eigenpairs(w_rho, v_rho)
    d = len(sigma_m)
    f, (w, u), trace, converged = _ascend_measured_re(
        rho_m, sigma_m, np.zeros((d, d), dtype=complex), max_iterations
    )
    if rho_spec.kernel or not converged:
        # the compressed sigma_m is diagonal, and so is its log
        v_sigma = sigma_spec.eigenvectors
        ln_sigma = np.diag(np.log(w_sigma)) if k else _from_eigenpairs(np.log(w_sigma), v_sigma)
        warm = _from_eigenpairs(np.log(w_rho + RHO_LOG_SHIFT), v_rho) - ln_sigma
        f_warm, eigenpairs, trace_warm, converged_warm = _ascend_measured_re(
            rho_m, sigma_m, warm, max_iterations
        )
        converged = converged or converged_warm
        if f_warm > f:
            f, (w, u), trace = f_warm, eigenpairs, trace_warm
    if k:
        u = sigma_spec.eigenvectors[:, k:] @ u
    witness = _from_eigenpairs(np.exp(w), u)
    witness = (witness + witness.conj().T) / 2.0
    return MeasuredReSolution(
        value_bits=f / LN2,
        witness=witness,
        trace_bits=[t / LN2 for t in trace],
        converged=converged,
    )


def relative_entropy_continuity_bound(dim: int, trace_distance: float, min_eigenvalue: float) -> float:
    """Upper bound on S(rho||sigma) in bits from the trace distance.

    Takes the dimension, T = ||rho - sigma||_1 and the smallest eigenvalue
    of sigma. The bound is T log2 d + min(-T log2 T, 1/(e ln 2))
    - (T log2 beta)/2, with the T = 0 limit equal to 0.
    """
    if not 0.0 < min_eigenvalue <= 1.0:
        raise ValueError(f"min eigenvalue must lie in (0, 1], got {min_eigenvalue}")
    if not 0.0 <= trace_distance <= 2.0 + 1e-12:
        raise ValueError(f"trace distance must lie in [0, 2], got {trace_distance}")
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    t = float(trace_distance)
    if t == 0.0:
        return 0.0
    entropy_term = min(-t * math.log2(t), 1.0 / (math.e * LN2))
    return t * math.log2(dim) + entropy_term - t * math.log2(min_eigenvalue) / 2.0
