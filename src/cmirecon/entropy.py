"""Scalar information measures.

Von Neumann entropy, conditional mutual information, quantum relative
entropy, fidelity and the order-1/2 Renyi divergence, a variational solver
for the measured relative entropy, and a trace-distance continuity bound
for the relative entropy.

All public values are reported in bits; internal computation uses natural
logs with a single conversion at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, states
from .states import MultipartiteState

LN2 = math.log(2.0)

# Support-containment threshold: S(rho||sigma) is +inf when the trace norm
# of rho compressed outside sigma's support reaches this.
SUPPORT_LEAK_TOL = 1e-9

# Mixing weight used to make sigma full rank for the measured-RE program.
SIGMA_REGULARIZATION = 1e-12


def _density(state_or_matrix) -> np.ndarray:
    if isinstance(state_or_matrix, MultipartiteState):
        return state_or_matrix.matrix
    return np.asarray(state_or_matrix, dtype=complex)


def _psd_part(m: np.ndarray) -> tuple[np.ndarray, linalg.Spectrum]:
    """Clip round-off-negative eigenvalues to zero; also return m's spectrum."""
    spec = linalg.eigh(m)
    if spec.eigenvalues[0] < 0.0:
        m = spec.apply(lambda w: w, cutoff=0.0)
    return m, spec


def von_neumann(state_or_matrix) -> float:
    """Von Neumann entropy in bits: -sum of w log2 w over the spectrum."""
    rho = _density(state_or_matrix)
    w = linalg.eigh(rho).eigenvalues
    w = w[w > linalg.support_cutoff(w)]
    return float(-(w * np.log(w)).sum() / LN2)


def cmi(state: MultipartiteState, c: str = "C", r: str = "R", b: str = "B") -> float:
    """Conditional mutual information I(c:r|b) in bits.

    Extra subsystems are traced out first. The raw value is returned
    without clamping; strong subadditivity makes it >= 0 up to round-off.
    """
    for label in (c, r, b):
        if label not in state.labels:
            raise ValueError(f"state has no subsystem {label!r}; labels are {state.labels}")
    if len({c, r, b}) != 3:
        raise ValueError(f"labels must be distinct, got {(c, r, b)}")
    if set(state.labels) != {c, r, b}:
        state = states.partial_trace(state, [c, r, b])
    s_bc = von_neumann(states.partial_trace(state, [b, c]))
    s_br = von_neumann(states.partial_trace(state, [b, r]))
    s_bcr = von_neumann(state)
    s_b = von_neumann(states.partial_trace(state, [b]))
    return s_bc + s_br - s_bcr - s_b


def _support_contained(rho: np.ndarray, sigma_spec: linalg.Spectrum) -> bool:
    cutoff = linalg.support_cutoff(sigma_spec.eigenvalues)
    kernel = sigma_spec.eigenvalues <= cutoff
    if not np.any(kernel):
        return True
    v = sigma_spec.eigenvectors[:, kernel]
    leak = v.conj().T @ rho @ v
    return linalg.trace_norm(leak) < SUPPORT_LEAK_TOL


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy tr[rho(log rho - log sigma)] in bits.

    Returns ``math.inf`` when the support of rho is not contained in the
    support of sigma (both supports taken at the spectral cutoff).
    """
    rho = _density(rho)
    sigma = _density(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    sigma_spec = linalg.eigh(sigma)
    if not _support_contained(rho, sigma_spec):
        return math.inf
    w = linalg.eigh(rho).eigenvalues
    w = w[w > linalg.support_cutoff(w)]
    tr_rho_log_rho = float((w * np.log(w)).sum())
    log_sigma = sigma_spec.apply(np.log)
    tr_rho_log_sigma = float(np.trace(rho @ log_sigma).real)
    return (tr_rho_log_rho - tr_rho_log_sigma) / LN2


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity tr[(sigma^1/2 rho sigma^1/2)^1/2], clipped to [0, 1].

    Evaluated as the trace norm of sqrt(rho) sqrt(sigma), whose singular
    values are the eigenvalues of the bracketed root; round-off then enters
    linearly instead of under a square root.
    """
    rho = _density(rho)
    sigma = _density(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    f = linalg.trace_norm(linalg.sqrtm_psd(rho) @ linalg.sqrtm_psd(sigma))
    return min(max(f, 0.0), 1.0)


def renyi_half(rho, sigma) -> float:
    """Order-1/2 Renyi relative entropy -2 log2 F(rho, sigma) in bits."""
    f = fidelity(rho, sigma)
    if f == 0.0:
        return math.inf
    return -2.0 * math.log2(f)


# --- measured relative entropy ----------------------------------------------

# Measured-RE ascent: backtracking gives up below MRE_MIN_STEP, and a start
# has converged once the objective moves by less than MRE_RELATIVE_TOLERANCE
# over MRE_CONVERGENCE_WINDOW accepted steps. Random starts are drawn from
# stream MRE_SEED.
MRE_CONVERGENCE_WINDOW = 8
MRE_RELATIVE_TOLERANCE = 1e-9
MRE_INITIAL_STEP = 1.0
MRE_MIN_STEP = 1e-14
MRE_SEED = 99


@dataclass
class MeasuredReSolution:
    """Certified lower bound on the measured relative entropy.

    ``witness`` is the positive-definite operator achieving ``value_bits``
    in the variational objective; evaluating the objective at the witness
    reproduces the value, and any witness certifies a valid lower bound.
    ``trace_bits`` holds the accepted objective values of the best start.
    """

    value_bits: float
    witness: np.ndarray
    trace_bits: list[float] = field(default_factory=list)
    converged: bool = True


def measured_re_objective_bits(rho, sigma, witness: np.ndarray) -> float:
    """Variational objective tr(rho ln w) + 1 - tr(sigma w), in bits.

    For any positive-definite ``witness`` this is a lower bound on the
    measured relative entropy of (rho, sigma).
    """
    rho = _density(rho)
    sigma = _density(sigma)
    log_w = linalg.matrix_function(witness, np.log, cutoff=0.0)
    val = float(np.trace(rho @ log_w).real) + 1.0 - float(np.trace(sigma @ witness).real)
    return val / LN2


def _ascend_measured_re(rho, sigma, h0, max_iterations: int):
    """Gradient ascent of f(H) = tr(rho H) + 1 - tr(sigma e^H) with line search."""

    def evaluate(h):
        w, u = np.linalg.eigh(h)
        if w[-1] > 700.0:  # exp overflow guard; line search rejects the step
            return -math.inf, None, None
        su = u.conj().T @ sigma @ u
        f = float(np.trace(rho @ h).real) + 1.0 - float((np.diag(su).real * np.exp(w)).sum())
        return f, (w, u), su

    def gradient(decomp, su):
        w, u = decomp
        ew = np.exp(w)
        dw = w[:, None] - w[None, :]
        de = ew[:, None] - ew[None, :]
        # Divided differences of exp (Daleckii-Krein); the symmetric midpoint
        # form is stable when eigenvalues coincide.
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = np.where(np.abs(dw) > 1e-12, de / dw, np.exp((w[:, None] + w[None, :]) / 2.0))
        grad_exp = u @ (su * phi) @ u.conj().T
        grad = rho - grad_exp
        return (grad + grad.conj().T) / 2.0

    h = h0.copy()
    f, decomp, su = evaluate(h)
    grad = gradient(decomp, su)
    step = MRE_INITIAL_STEP
    trace = [f]
    converged = False
    for _ in range(max_iterations):
        accepted = False
        while step >= MRE_MIN_STEP:
            f_try, decomp_try, su_try = evaluate(h + step * grad)
            if f_try > f:
                h = h + step * grad
                f, decomp, su = f_try, decomp_try, su_try
                trace.append(f)
                accepted = True
                step *= 1.5
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
        grad = gradient(decomp, su)
        if len(trace) > MRE_CONVERGENCE_WINDOW:
            ref = trace[-MRE_CONVERGENCE_WINDOW - 1]
            if abs(f - ref) < MRE_RELATIVE_TOLERANCE * max(1.0, abs(f)):
                converged = True
                break
    return f, h, trace, converged


def measured_relative_entropy(
    rho, sigma, restarts: int = 5, max_iterations: int = 600
) -> MeasuredReSolution:
    """Measured relative entropy via its concave variational program.

    Maximizes tr(rho ln w) + 1 - tr(sigma w) over positive-definite w,
    parametrized as w = exp(H) and ascended from the identity start, an
    analytic warm start at the commuting-pair optimum, and random
    restarts. The returned value is a certified lower bound on the
    measurement supremum and is bounded above by S(rho||sigma).

    Keywords:
        restarts: random Hermitian starts run after those two.
        max_iterations: cap on accepted ascent steps per start.

    A rank-deficient sigma is mixed with 1e-12 of the maximally mixed
    state first, which keeps the objective finite and shifts the result
    far below reporting tolerance.
    """
    rho = _density(rho)
    sigma = _density(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    d = sigma.shape[0]
    # strict positivity of both spectra keeps the ascent from milking
    # unbounded objective out of round-off-negative directions
    rho, _ = _psd_part(rho)
    sigma, sigma_spec = _psd_part(sigma)
    # a clipped sigma had a negative minimum: below the cutoff either way
    if sigma_spec.eigenvalues[0] <= linalg.support_cutoff(sigma_spec.eigenvalues):
        delta = SIGMA_REGULARIZATION
        sigma = (1.0 - delta) * sigma + delta * np.eye(d) / d

    # identity start, the commuting-pair optimum log(rho) - log(sigma) as an
    # analytic warm start (exact when [rho, sigma] = 0, where the plain
    # ascent crawls if rho is rank deficient), then random restarts
    starts = [np.zeros((d, d), dtype=complex)]
    rho_reg = rho + SIGMA_REGULARIZATION * np.eye(d)
    warm = linalg.matrix_function(rho_reg, np.log, cutoff=0.0) - linalg.matrix_function(
        sigma, np.log, cutoff=0.0
    )
    starts.append(warm)
    for k in range(restarts):
        rng = states.sample_rng(MRE_SEED, k)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        starts.append((g + g.conj().T) / 2.0)

    best = None
    for h0 in starts:
        f, h, trace, converged = _ascend_measured_re(rho, sigma, h0, max_iterations)
        if best is None or f > best[0]:
            best = (f, h, trace, converged)

    f, h, trace, converged = best
    w, u = np.linalg.eigh(h)
    witness = (u * np.exp(w)) @ u.conj().T
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
    if min_eigenvalue <= 0.0 or min_eigenvalue > 1.0:
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
