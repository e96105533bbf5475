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

# Measured-RE ascent: a damped Newton step X in H = ln w, solved on X's
# complex entries in H's eigenbasis. A start has converged once half its
# decrement Re tr(G X), the gain its quadratic model predicts, is at most
# MRE_DECREMENT_TOLERANCE nats. Each step's spectral norm is capped at
# MRE_MAX_STEP, since on a rank-deficient rho the supremum lies at infinity
# in H. Backtracking halves the step until it gains MRE_ARMIJO of the
# predicted first-order gain, and gives up below MRE_MIN_STEP. A start whose
# decrement has not halved over MRE_STALL_STEPS accepted steps is given up
# unconverged. MRE_HESSIAN_SHIFT, on the Newton matrix's diagonal, keeps it
# definite along directions where neither rho nor sigma has weight.
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
def _triple_order(d: int) -> tuple[np.ndarray, ...]:
    """Smallest, middle, largest of each index triple (i, k, j) < d, and the flat slots (mid, hi), (lo, mid)."""
    i, k, j = np.indices((d, d, d))
    lo = np.minimum(np.minimum(i, k), j)
    hi = np.maximum(np.maximum(i, k), j)
    mid = i + k + j - lo - hi
    return _read_only(lo, mid, hi, mid * d + hi, lo * d + mid)


def _exp_divided_differences(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second divided differences of exp at the ascending values w.

    Returns phi1[i, j] = exp[w_i, w_j] and phi2[i, k, j] = exp[w_i, w_k, w_j]
    (Daleckii-Krein). phi1 is e^max(a, b) expm1(-t) / -t for t = |a - b|,
    and e^a at a tie: a few ulps relative at every gap, since expm1 loses
    nothing as t -> 0. phi2 divides across the widest pair of its triple,
    which loses about 2e-16 / span relative, or takes e^mean / 2, off by
    about span^2 / 72, when the triple spans at most 2e-5.
    """
    ew = np.exp(w)
    gap = -np.abs(np.subtract.outer(w, w))
    phi1 = np.maximum.outer(ew, ew) * np.divide(np.expm1(gap), gap, out=np.ones_like(gap), where=gap < 0.0)
    lo, mid, hi, mid_hi, lo_mid = _triple_order(len(w))
    a, b, c = w[lo], w[mid], w[hi]
    span = c - a
    fallback = np.exp((a + b + c) / 3.0) / 2.0
    phi2 = np.divide(phi1.take(mid_hi) - phi1.take(lo_mid), span, out=fallback, where=span > 2e-5)
    return phi1, phi2


@functools.lru_cache(maxsize=None)
def _hessian_slots(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat slots of each index triple (b, a, r) < d in the d^2 x d^2 Newton matrix.

    The two Daleckii-Krein terms of L(X)_ba read X_ra and X_br: row b d + a,
    columns r d + a and b d + r. Neither array repeats a slot.
    """
    b, a, r = (x.ravel() for x in np.indices((d, d, d)))
    row = (b * d + a) * d * d
    return _read_only(row + r * d + a, row + b * d + r)


def _newton_matrix(phi2: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Hessian of H -> tr(M e^H) in H's eigenbasis, as a map on the entries of X.

    Daleckii-Krein: the second derivative along X is Re tr(X L(X)) for
    L(X)_ba = sum_r phi2[b, a, r] (M_br X_ra + M_ra X_br), complex-linear in
    X and Hermitian for Hermitian X and M. Returns L as a d^2 x d^2 matrix
    on the row-major entries, with MRE_HESSIAN_SHIFT on its diagonal.
    """
    d = len(m)
    first, second = _hessian_slots(d)
    k = np.zeros(d**4, dtype=complex)
    k[first] = (phi2 * m[:, None, :]).ravel()
    k[second] += (phi2 * m.T[None, :, :]).ravel()
    k = k.reshape(d * d, d * d)
    k.flat[:: d * d + 1] += MRE_HESSIAN_SHIFT
    return k


def _from_eigenpairs(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V diag(w) V^dag."""
    return (v * w) @ v.conj().T


def _ascend_measured_re(rho, w_sigma, h0, max_iterations: int):
    """Damped Newton ascent of f(H) = tr(rho H) + 1 - tr(sigma e^H) in sigma's eigenbasis.

    There sigma = diag(w_sigma) and rho is Hermitian, so tr(rho H) is
    <rho, H>. Works in the eigenbasis u of the current H: with
    S = u^dag sigma u, tr(sigma e^H) is diag(S) . e^w, and each step solves
    L(X) = G for the gradient G = u^dag rho u - phi1 o S and the
    complex-linear Hessian L of tr(M e^H) (``_newton_matrix``), symmetrises
    X once against round-off, and takes Re tr(G X) as the decrement and
    ||X||_F against the step cap. tr(sigma e^H) is not convex in H, so M is
    S unless A = phi1 o S has a negative eigenvalue; then M = A+ / phi1
    (A+ its positive part), the curvature of tr(A+ ln w) at w = e^H:
    convex, since ln is operator concave, and equal to sigma's where
    A >= 0, which holds near the optimum.

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
        u_dag = u_try.conj().T
        s_try = (u_dag * w_sigma) @ u_try
        tr_sigma_w = s_try.diagonal().real @ np.exp(w_try)
        return float(np.vdot(rho, h_try).real + 1.0 - tr_sigma_w), (w_try, u_try, u_dag, s_try)

    f, (w, u, u_dag, s) = evaluate(h)
    trace = [f]
    decrements = []
    converged = False
    while True:
        phi1, phi2 = _exp_divided_differences(w)
        a = phi1 * s
        g = u_dag @ rho @ u - a
        lam, vec = np.linalg.eigh(a)
        m = s if lam[0] >= 0.0 else ((vec * np.maximum(lam, 0.0)) @ vec.conj().T) / phi1
        x = np.linalg.solve(_newton_matrix(phi2, m), g.ravel()).reshape(d, d)
        x = (x + x.conj().T) / 2.0
        decrement = float(np.vdot(g, x).real)
        if decrement / 2.0 <= MRE_DECREMENT_TOLERANCE:
            converged = True
            break
        decrements.append(decrement)
        stalled = len(decrements) > MRE_STALL_STEPS and 2.0 * decrement > decrements[-1 - MRE_STALL_STEPS]
        if len(trace) > max_iterations or stalled:
            break
        # ||X||_F >= ||X||_2, so a step within the cap in ||X||_F needs no eigvalsh
        scale = 1.0
        if np.vdot(x, x).real > MRE_MAX_STEP**2:
            scale = min(1.0, MRE_MAX_STEP / float(np.abs(np.linalg.eigvalsh(x)).max()))
        x = (scale * u) @ x @ u_dag
        step = 1.0
        while step >= MRE_MIN_STEP:
            h_try = h + step * x
            f_try, decomposed = evaluate(h_try)
            if f_try > f + MRE_ARMIJO * step * scale * decrement:
                h, f = h_try, f_try
                w, u, u_dag, s = decomposed
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

    Every solve runs in sigma's eigenbasis V_S on its support S, which is
    the whole space when sigma has full rank. D_M is a supremum over
    measurements, and a POVM compresses to S and extends back from it, so
    a rho inside S has the D_M of the pair compressed to S: rho_S =
    V_S^dag W W^dag V_S, for rho's root factor W, against the diagonal of
    sigma's support eigenvalues, climbed as above with the early exit
    reading rho_S's kernel, with the witness V_S w V_S^dag. A rho that
    leaks onto sigma's ``kernel`` by the rule of ``relative_entropy``
    (``_overlap``) has D_M = +inf, returned converged without a Newton
    step. Both starts read the spectra the inputs keep: a unitary V_S
    rotates rho's spectrum to rho_S's, so a solve against a full-rank
    sigma on states whose spectra were read decomposes nothing, and one
    inside a singular sigma decomposes rho_S.
    """
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be >= 0, got {max_iterations}")
    rho, sigma = _pair(rho, sigma)
    sigma_spec = sigma.spectrum
    k = sigma_spec.kernel
    overlap, _, leaks = _overlap(rho, sigma_spec, k)
    if leaks:
        return MeasuredReSolution(math.inf, np.zeros((rho.dim, rho.dim), dtype=complex), [], True)
    v_s, w_sigma = sigma_spec.eigenvectors[:, k:], sigma_spec.eigenvalues[k:]
    root_s = overlap[k:]
    rho_m = root_s @ root_s.conj().T
    # a unitary V_S rotates rho's kept spectrum; a compressed rho_S is decomposed
    kept = rho.spectrum
    rho_spec = linalg._spectrum(rho_m) if k else linalg.Spectrum(kept.eigenvalues, v_s.conj().T @ kept.eigenvectors)
    # a clipped spectrum keeps the ascent from milking unbounded objective
    # out of round-off-negative directions; rho is rebuilt only if changed
    v_rho = rho_spec.eigenvectors
    w_rho = np.maximum(rho_spec.eigenvalues, 0.0)
    if rho_spec.eigenvalues[0] < 0.0:
        rho_m = _from_eigenpairs(w_rho, v_rho)
    d = len(w_sigma)
    f, (w, u), trace, converged = _ascend_measured_re(rho_m, w_sigma, np.zeros((d, d), complex), max_iterations)
    if rho_spec.kernel or not converged:
        warm = _from_eigenpairs(np.log(w_rho + RHO_LOG_SHIFT), v_rho) - np.diag(np.log(w_sigma))
        f_warm, eigenpairs, trace_warm, converged_warm = _ascend_measured_re(rho_m, w_sigma, warm, max_iterations)
        converged = converged or converged_warm
        if f_warm > f:
            f, (w, u), trace = f_warm, eigenpairs, trace_warm
    witness = _from_eigenpairs(np.exp(w), v_s @ u)
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
