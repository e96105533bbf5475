"""Numerical search for reconstruction channels B -> BC.

Given a tripartite state on (B, C, R), find a channel acting on B alone
whose extension to (B, R) maps the BR marginal close to the full state.
The search space is Stinespring isometries V: B -> (BC) (x) E with
d_E = d_B d_C, ascended by projected gradient with QR re-orthonormalization
from the transpose channel. Root fidelity is jointly concave and the
channel enters linearly, so the fidelity of recovery is a concave program
over channels, and the search is one deterministic ascent from that warm
start.

Supported figures of merit: fidelity (maximized, analytic gradient), the
order-1/2 Renyi divergence (same ascent, transformed at the end), and the
measured relative entropy (minimized). All three gradients are analytic:
the measured-RE gradient in sigma is -w*/ln 2, with w* the witness of the
inner variational solve (Danskin's theorem).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import channels, entropy, linalg, states
from .channels import Channel
from .states import MultipartiteState

OBJECTIVE_KINDS = ("fidelity", "renyi_half", "measured_re")


# Projected ascent: backtracking gives up below STEP_TOLERANCE, and the
# ascent has converged once the objective moves by less than
# RELATIVE_TOLERANCE over CONVERGENCE_WINDOW accepted steps.
INITIAL_STEP = 0.2
STEP_TOLERANCE = 1e-9
CONVERGENCE_WINDOW = 10
RELATIVE_TOLERANCE = 1e-11

# Measured-RE objective: budget of the inner solve behind every evaluation.
INNER_MEASURED_RE_ITERATIONS = 200


@dataclass
class OptimizerResult:
    """Reconstruction channel found by the ascent, with its audit trail.

    ``trace`` holds the accepted objective values in objective units:
    non-decreasing for fidelity, non-increasing for the divergence
    objectives. ``converged`` is False when the ascent stopped at its
    iteration cap.
    """

    best_channel: Channel
    best_value: float
    objective_kind: str
    trace: list[float] = field(default_factory=list)
    converged: bool = True


def reconstruct(
    rho_tri: MultipartiteState,
    channel: Channel,
    b: str = "B",
    c: str = "C",
    r: str = "R",
) -> MultipartiteState:
    """Apply a B -> BC channel to the BR marginal, aligned to rho's labels."""
    rho_br = states.partial_trace(rho_tri, [b, r])
    out = channels.apply(channel, rho_br, on=[b])
    return states.permute(out, rho_tri.labels)


def measured_re_of_recovery(
    rho_tri: MultipartiteState,
    channel: Channel,
    b: str = "B",
    c: str = "C",
    r: str = "R",
) -> float:
    """Measured relative entropy between rho and its reconstruction, in bits."""
    sigma = reconstruct(rho_tri, channel, b=b, c=c, r=r)
    return entropy.measured_relative_entropy(rho_tri, sigma).value_bits


class _RecoveryProblem:
    """Shared tensors for evaluating one recovery search.

    Works in the subsystem order (B, C, R) so the target density matrix is
    a plain matrix on (BC) (x) R, and the isometry is stored as a tensor
    v[bc, e, b_in].
    """

    def __init__(self, rho_tri: MultipartiteState, b: str, c: str, r: str):
        ordered = states.permute(rho_tri, (b, c, r))
        self.d_b = ordered.dim_of(b)
        self.d_c = ordered.dim_of(c)
        self.d_r = ordered.dim_of(r)
        self.d_bc = self.d_b * self.d_c
        # room for channels of Kraus rank up to d_B d_C
        self.d_env = self.d_bc
        self.labels = (b, c, r)
        self.target = ordered.matrix
        rho_br = states.partial_trace(ordered, [b, r])
        self.rho_br_t = rho_br.matrix.reshape(self.d_b, self.d_r, self.d_b, self.d_r)

        spec = linalg.eigh(self.target)
        top = spec.eigenvalues[-1]
        self.pure_vec = None
        # threshold keeps the rank-1 shortcut's error below the 1e-7
        # re-evaluation contract: |F(rho,.) - F(psi,.)| <= sqrt(1 - top)
        if top > 1.0 - 4e-15:
            self.pure_vec = spec.eigenvectors[:, -1].reshape(self.d_bc, self.d_r)
        else:
            self.sqrt_target = linalg.sqrtm_psd(self.target)

    def isometry_shape(self) -> tuple[int, int]:
        return (self.d_bc * self.d_env, self.d_b)

    def sigma_tensor(self, vt: np.ndarray) -> np.ndarray:
        # sigma[o,s,p,t] = <o,s| (channel (x) id_R)(rho_BR) |p,t>
        return np.einsum("oeb,bsct,pec->ospt", vt, self.rho_br_t, vt.conj(), optimize=True)

    def sigma_matrix(self, v: np.ndarray) -> np.ndarray:
        vt = v.reshape(self.d_bc, self.d_env, self.d_b)
        d = self.d_bc * self.d_r
        return self.sigma_tensor(vt).reshape(d, d)

    def _inner(self, sigma: np.ndarray) -> np.ndarray:
        # sqrt(rho) sigma sqrt(rho), whose root trace is F(rho, sigma)
        inner = self.sqrt_target @ sigma @ self.sqrt_target
        return (inner + inner.conj().T) / 2.0

    def fidelity_value(self, v: np.ndarray) -> float:
        sigma = self.sigma_matrix(v)
        if self.pure_vec is not None:
            psi = self.pure_vec.reshape(-1)
            val = float(np.real(psi.conj() @ sigma @ psi))
            return math.sqrt(max(val, 0.0))
        w = np.linalg.eigvalsh(self._inner(sigma))
        return float(np.sqrt(np.clip(w, 0.0, None)).sum())

    def fidelity_and_gradient(self, v: np.ndarray) -> tuple[float, np.ndarray]:
        """F(V) and its Euclidean Wirtinger gradient dF/dV*."""
        vt = v.reshape(self.d_bc, self.d_env, self.d_b)
        sigma_t = self.sigma_tensor(vt)
        d = self.d_bc * self.d_r
        sigma = sigma_t.reshape(d, d)
        if self.pure_vec is not None:
            psi = self.pure_vec.reshape(-1)
            f = math.sqrt(max(float(np.real(psi.conj() @ sigma @ psi)), 1e-300))
            g = np.outer(psi, psi.conj()) / (2.0 * f)
        else:
            # f and the support-restricted inverse root share one spectrum
            spec = linalg.eigh(self._inner(sigma))
            f = float(np.sqrt(np.clip(spec.eigenvalues, 0.0, None)).sum())
            inv_root = spec.apply(lambda x: 1.0 / np.sqrt(x))
            g = 0.5 * self.sqrt_target @ inv_root @ self.sqrt_target
        return f, self.pullback(v, g)

    def pullback(self, v: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Gradient dF/dV* from the Hermitian gradient g = dF/dsigma."""
        vt = v.reshape(self.d_bc, self.d_env, self.d_b)
        g_t = g.reshape(self.d_bc, self.d_r, self.d_bc, self.d_r)
        return np.einsum(
            "ospt,pec,ctbs->oeb", g_t, vt, self.rho_br_t, optimize=True
        ).reshape(self.isometry_shape())

    def _inner_measured_re(self, v: np.ndarray) -> entropy.MeasuredReSolution:
        return entropy.measured_relative_entropy(
            self.target,
            self.sigma_matrix(v),
            restarts=0,
            max_iterations=INNER_MEASURED_RE_ITERATIONS,
        )

    def measured_re_score(self, v: np.ndarray) -> float:
        """Ascended score -D_M(rho || sigma(V)) in bits."""
        return -self._inner_measured_re(v).value_bits

    def measured_re_score_and_gradient(self, v: np.ndarray) -> tuple[float, np.ndarray]:
        """The score and its envelope gradient d/dV*, from one inner solve.

        D_M ln 2 = max_w tr(rho ln w) + 1 - tr(sigma w), so by Danskin's
        theorem the score's gradient in sigma is w*/ln 2 at the witness w*.
        """
        sol = self._inner_measured_re(v)
        return -sol.value_bits, self.pullback(v, sol.witness / entropy.LN2)

    def channel_from(self, v: np.ndarray) -> Channel:
        b, c, _ = self.labels
        return channels.stinespring_to_channel(
            v,
            ((b, self.d_b),),
            ((b, self.d_b), (c, self.d_c)),
            self.d_env,
        )


def _project_tangent(v: np.ndarray, grad: np.ndarray) -> np.ndarray:
    vg = v.conj().T @ grad
    return grad - v @ (vg + vg.conj().T) / 2.0


def _retract(v: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(v)
    d = np.diag(r)
    safe = np.where(np.abs(d) > 0, d, 1.0)
    return q * (safe / np.abs(safe))


def _warm_start_isometry(problem: _RecoveryProblem, rho_tri, b, c, r) -> np.ndarray:
    rho_bc = states.partial_trace(rho_tri, [b, c])
    warm = channels.transpose_channel(states.permute(rho_bc, (b, c)))
    ops = channels.kraus_operators(warm)
    v = np.zeros(problem.isometry_shape(), dtype=complex)
    vt = v.reshape(problem.d_bc, problem.d_env, problem.d_b)
    for e, op in enumerate(ops[: problem.d_env]):
        vt[:, e, :] = op
    # Kraus rank beyond d_env only occurs for singular marginals; the
    # retraction then snaps the truncated stack back to an isometry.
    return _retract(v)


def _ascend(v0, value_and_grad, value_only, max_iterations: int):
    v = _retract(v0)
    f, grad = value_and_grad(v)
    direction = _project_tangent(v, grad)
    step = INITIAL_STEP
    trace = [f]
    converged = False
    for _ in range(max_iterations):
        accepted = False
        while step >= STEP_TOLERANCE:
            v_try = _retract(v + step * direction)
            f_try = value_only(v_try)
            if f_try > f:
                v, f = v_try, f_try
                trace.append(f)
                accepted = True
                step *= 1.3
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
        _, grad = value_and_grad(v)
        direction = _project_tangent(v, grad)
        if len(trace) > CONVERGENCE_WINDOW:
            ref = trace[-CONVERGENCE_WINDOW - 1]
            if abs(f - ref) < RELATIVE_TOLERANCE * max(1.0, abs(f)):
                converged = True
                break
    return v, f, trace, converged


def optimize_recovery(
    rho_tri: MultipartiteState,
    objective_kind: str = "fidelity",
    max_iterations: int = 2000,
    b: str = "B",
    c: str = "C",
    r: str = "R",
) -> OptimizerResult:
    """Search for the best reconstruction channel B -> BC for one state.

    One deterministic projected ascent from the transpose channel, capped
    at ``max_iterations`` accepted steps. Fidelity (and its monotone
    transform, the order-1/2 Renyi divergence) is ascended with its
    analytic gradient. The measured-RE objective takes the envelope
    gradient: by Danskin's theorem dD_M/dsigma = -w*/ln 2 at the witness
    w* of one inner solve, which is exact only as far as that solve has
    converged; the line search accepts a step only if the value improves,
    so the trace stays monotone either way. The result is never worse
    than the transpose-channel warm start.
    """
    if objective_kind not in OBJECTIVE_KINDS:
        raise ValueError(f"unknown objective {objective_kind!r}; pick from {OBJECTIVE_KINDS}")
    for label in (b, c, r):
        if label not in rho_tri.labels:
            raise ValueError(f"state has no subsystem {label!r}; labels are {rho_tri.labels}")
    if len(rho_tri.subsystems) != 3:
        raise ValueError(f"expected a tripartite state, got subsystems {rho_tri.subsystems}")
    problem = _RecoveryProblem(rho_tri, b, c, r)

    if objective_kind == "measured_re":
        score_only = problem.measured_re_score
        score_and_grad = problem.measured_re_score_and_gradient
    else:
        score_only = problem.fidelity_value
        score_and_grad = problem.fidelity_and_gradient

    v0 = _warm_start_isometry(problem, rho_tri, b, c, r)
    v, f, trace, converged = _ascend(v0, score_and_grad, score_only, max_iterations)

    def to_units(score: float) -> float:
        if objective_kind == "fidelity":
            return min(score, 1.0)
        if objective_kind == "renyi_half":
            return math.inf if score <= 0.0 else -2.0 * math.log2(min(score, 1.0))
        return -score

    return OptimizerResult(
        best_channel=problem.channel_from(v),
        best_value=to_units(f),
        objective_kind=objective_kind,
        trace=[to_units(t) for t in trace],
        converged=converged,
    )


def result_to_json_dict(result: OptimizerResult) -> dict:
    """Audit-friendly JSON form: channel inline, trace as an array."""

    def encode(x: float):
        return None if not math.isfinite(x) else x

    return {
        "objective_kind": result.objective_kind,
        "best_value": encode(result.best_value),
        "best_value_is_infinite": not math.isfinite(result.best_value),
        "trace": [encode(t) for t in result.trace],
        "converged": result.converged,
        "best_channel": channels.to_json_dict(result.best_channel),
    }


def save_result(result: OptimizerResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result_to_json_dict(result), fh, indent=2, sort_keys=True)
