"""Numerical search for reconstruction channels B -> BC.

Given a tripartite state on the subsystems labelled B, C and R, in any
order, find a channel acting on B alone whose extension to (B, R) maps the
BR marginal close to the full state. The roles are fixed by those labels.
The search space is Stinespring isometries V: B -> (BC) (x) E with
d_E = d_B d_C, a complex Stiefel manifold, ascended from the transpose
channel by Riemannian L-BFGS: curvature pairs carried between tangent
spaces by projection, a backtracking line search that accepts only rising
steps, and a QR retraction. Root fidelity is jointly concave and the
channel enters linearly, so the fidelity of recovery is a concave program
over channels, and the search is one deterministic ascent from that warm
start.

For a pure target rho = |psi><psi|, F^2 = tr(M J) is linear in the Choi
matrix J, so the search is a semidefinite program whose dual (min tr Y
subject to 1_BC (x) Y^T >= M) gives a certificate from the gradient at
hand: the search stops once the dual gap tr Y - F^2 is below DUAL_GAP_TOL,
and ``converged`` means certified. Mixed targets and the measured-RE
objective have no such bound here and stop by a window rule on the
objective.

Supported figures of merit: fidelity (maximized, analytic gradient), the
order-1/2 Renyi divergence (same ascent, transformed at the end), and the
measured relative entropy (minimized). All three gradients are analytic:
the measured-RE gradient in sigma is -w*/ln 2, with w* the witness of the
inner variational solve (Danskin's theorem).

The line search evaluates each trial point once, and the gradient at an
accepted point comes from what its evaluation already holds: psi^dag
sigma psi for a pure target, the spectrum of sqrt(rho) sigma sqrt(rho)
restricted to rho's support for a mixed one, the inner solve's witness for
measured RE. The channel image sigma(V) and the adjoint map back to V are
two matrix products each on operands of rho_BR arranged once per search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channels, entropy, linalg, states
from .channels import Channel
from .states import MultipartiteState

OBJECTIVE_KINDS = ("fidelity", "renyi_half", "measured_re")


# Riemannian L-BFGS ascent: LBFGS_MEMORY curvature pairs shape the step, a
# step without them (projected gradient) starts at INITIAL_STEP, and
# backtracking gives up below STEP_TOLERANCE.
LBFGS_MEMORY = 6
INITIAL_STEP = 0.2
STEP_TOLERANCE = 1e-9
# A pure-target fidelity search stops once its dual gap tr Y - F^2 is below
# DUAL_GAP_TOL (about 2e-8 bits of -2 log2 F). The other searches stop once
# the objective moves by less than RELATIVE_TOLERANCE over
# CONVERGENCE_WINDOW accepted steps.
DUAL_GAP_TOL = 1e-8
CONVERGENCE_WINDOW = 10
RELATIVE_TOLERANCE = 1e-11

# Measured-RE objective: budget of the inner solve behind every evaluation.
INNER_MEASURED_RE_ITERATIONS = 200


@dataclass
class OptimizerResult:
    """Reconstruction channel found by the ascent, with its audit trail.

    ``trace`` holds the accepted objective values in objective units:
    non-decreasing for fidelity, non-increasing for the divergence
    objectives.

    For a pure target under the fidelity or Renyi-1/2 objective,
    ``dual_gap`` is tr Y - F^2 at the returned channel, with Y a feasible
    point of the dual SDP: no channel reaches F^2 above best F^2 +
    ``dual_gap``. ``converged`` then means certified, ``dual_gap <
    DUAL_GAP_TOL``. For mixed targets and the measured-RE objective,
    ``dual_gap`` is None and ``converged`` means the objective stalled
    (window rule or no improving step); it is False at the iteration cap.
    """

    best_channel: Channel
    best_value: float
    objective_kind: str
    trace: list[float] = field(default_factory=list)
    converged: bool = True
    dual_gap: float | None = None


def reconstruct(rho_tri: MultipartiteState, channel: Channel) -> MultipartiteState:
    """Apply a B -> BC channel to the BR marginal, aligned to rho's labels."""
    rho_br = states.partial_trace(rho_tri, ["B", "R"])
    out = channels.apply(channel, rho_br, on=["B"])
    return states.permute(out, rho_tri.labels)


def measured_re_of_recovery(rho_tri: MultipartiteState, channel: Channel) -> float:
    """Measured relative entropy between rho and its reconstruction, in bits."""
    sigma = reconstruct(rho_tri, channel)
    return entropy.measured_relative_entropy(rho_tri, sigma).value_bits


class _RecoveryProblem:
    """Shared tensors for evaluating one recovery search.

    Works in the subsystem order (B, C, R) so the target density matrix is
    a plain matrix on (BC) (x) R, and the isometry is a matrix v[(bc, e), b_in].
    The target is kept as that state, so its spectrum is decomposed once.

    Each objective has an evaluate step, ``fidelity_value`` or
    ``measured_re_score``, returning the score at V and what the gradient
    needs, and a gradient step, ``fidelity_and_gradient`` or
    ``measured_re_score_and_gradient``, turning that into the score and
    dF/dV* without evaluating V again. A pure target also gets the matrix
    M of F^2 = sum_e x_e^dag M x_e, and ``dual_gap`` turns a fidelity
    gradient into the certificate of the search.
    """

    def __init__(self, rho_tri: MultipartiteState):
        ordered = states.permute(rho_tri, ("B", "C", "R"))
        self.d_b, self.d_c, self.d_r = ordered.dims
        self.d_bc = self.d_b * self.d_c
        # room for channels of Kraus rank up to d_B d_C
        self.d_env = self.d_bc
        self.target = ordered
        rho_br = states.partial_trace(ordered, ["B", "R"]).matrix
        # rho_BR[(b,s),(c,t)] as the matmul operands of sigma_tensor and
        # pullback: [b, (s,c,t)] and [(s,t,c), b]
        d_b, d_r = self.d_b, self.d_r
        self.rho_b_sct = rho_br.reshape(d_b, d_r * d_b * d_r)
        self.rho_stc_b = np.ascontiguousarray(
            rho_br.reshape(d_b, d_r, d_b, d_r).transpose(3, 1, 0, 2)
        ).reshape(d_r * d_r * d_b, d_b)

        spec = ordered.spectrum
        top = spec.eigenvalues[-1]
        self.pure_vec = None
        # threshold keeps the rank-1 shortcut's error below the 1e-7
        # re-evaluation contract: |F(rho,.) - F(psi,.)| <= sqrt(1 - top)
        if top > 1.0 - 4e-15:
            self.pure_vec = spec.eigenvectors[:, -1]
            # F^2 = sum_e x_e^dag M x_e with x_e[o,b] = v[(o,e),b]:
            # M[ob,pc] = sum_st psi[o,s] rho[ct,bs] conj(psi[p,t])
            psi = self.pure_vec.reshape(self.d_bc, d_r)
            self.overlap_form = np.einsum(
                "os,ctbs,pt->obpc", psi, rho_br.reshape(d_b, d_r, d_b, d_r), psi.conj()
            ).reshape(self.d_bc * d_b, self.d_bc * d_b)
        else:
            # sqrt(rho) = W U^dag on rho's support U, so sqrt(rho) sigma
            # sqrt(rho) and the rank x rank W^dag sigma W share their
            # nonzero spectrum; the full product's off-support round-off
            # eigenvalues (~1e-17) would add their roots, ~1e-8, to F
            keep = spec.eigenvalues > linalg.support_cutoff(spec.eigenvalues)
            self.root_factor = spec.eigenvectors[:, keep] * np.sqrt(spec.eigenvalues[keep])

    def isometry_shape(self) -> tuple[int, int]:
        return (self.d_bc * self.d_env, self.d_b)

    def sigma_tensor(self, v: np.ndarray) -> np.ndarray:
        """sigma = (channel (x) id_R)(rho_BR) as a matrix on (BC) (x) R."""
        d_bc, d_env, d_b, d_r = self.d_bc, self.d_env, self.d_b, self.d_r
        # x[o,e,s,c,t] = sum_b v[oe,b] rho[b,sct], regrouped as [(o,s,t),(e,c)]
        x = (v @ self.rho_b_sct).reshape(d_bc, d_env, d_r, d_b, d_r)
        x = x.transpose(0, 2, 4, 1, 3).reshape(d_bc * d_r * d_r, d_env * d_b)
        # sigma[o,s,t,p] = sum_ec x[ost,ec] conj(v[pe,c])
        sigma = (x @ v.reshape(d_bc, d_env * d_b).conj().T).reshape(d_bc, d_r, d_r, d_bc)
        return sigma.transpose(0, 1, 3, 2).reshape(d_bc * d_r, d_bc * d_r)

    def pullback(self, v: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Gradient dF/dV* from the Hermitian gradient g = dF/dsigma.

        For each environment index e this is Tr_R[g (V_e (x) 1_R) rho_BR].
        """
        d_bc, d_env, d_b, d_r = self.d_bc, self.d_env, self.d_b, self.d_r
        # y[o,s,t,e,c] = sum_p g[os,pt] v[pe,c], regrouped as [(o,e),(s,t,c)]
        g_t = g.reshape(d_bc, d_r, d_bc, d_r).transpose(0, 1, 3, 2)
        g_t = g_t.reshape(d_bc * d_r * d_r, d_bc)
        y = (g_t @ v.reshape(d_bc, d_env * d_b)).reshape(d_bc, d_r, d_r, d_env, d_b)
        y = y.transpose(0, 3, 1, 2, 4).reshape(d_bc * d_env, d_r * d_r * d_b)
        # dF/dV*[oe,b] = sum_stc y[oe,stc] rho[ct,bs]
        return y @ self.rho_stc_b

    def fidelity_value(self, v: np.ndarray):
        """F(rho, sigma(V)) and what its gradient needs.

        That is psi^dag sigma psi when rho = |psi><psi|, and otherwise the
        spectrum of W^dag sigma W, whose root trace is F.
        """
        sigma = self.sigma_tensor(v)
        if self.pure_vec is not None:
            psi = self.pure_vec
            overlap = float(np.real(psi.conj() @ sigma @ psi))
            return math.sqrt(max(overlap, 0.0)), overlap
        w = self.root_factor
        spec = linalg.eigh(w.conj().T @ sigma @ w)
        return float(np.sqrt(np.clip(spec.eigenvalues, 0.0, None)).sum()), spec

    def fidelity_and_gradient(self, v: np.ndarray, held) -> tuple[float, np.ndarray]:
        """F(V) and its Euclidean Wirtinger gradient dF/dV*.

        ``held`` is what ``fidelity_value(v)`` returned beside F.
        """
        if self.pure_vec is not None:
            psi = self.pure_vec
            f = math.sqrt(max(held, 1e-300))
            g = np.outer(psi, psi.conj()) / (2.0 * f)
        else:
            # f and the support-restricted inverse root share one spectrum
            f = float(np.sqrt(np.clip(held.eigenvalues, 0.0, None)).sum())
            inv_root = held.apply(lambda x: 1.0 / np.sqrt(x))
            g = 0.5 * self.root_factor @ inv_root @ self.root_factor.conj().T
        return f, self.pullback(v, g)

    def dual_gap(self, v: np.ndarray, f: float, grad: np.ndarray) -> float:
        """tr Y - F^2 for a pure target, from the gradient dF/dV* at V.

        max F^2 = max tr(M J) over Choi matrices J has the dual min tr Y
        subject to 1_BC (x) Y^T >= M. Y0 = Herm(V^dag dF^2/dV*) is the
        dual point at which V is stationary; shifting it by the largest
        eigenvalue of M - 1_BC (x) Y0^T makes it feasible.
        """
        y0 = (2.0 * f) * (v.conj().T @ grad)
        y0 = (y0 + y0.conj().T) / 2.0
        slack = self.overlap_form.copy()
        blocks = slack.reshape(self.d_bc, self.d_b, self.d_bc, self.d_b)
        diag = np.arange(self.d_bc)
        blocks[diag, :, diag, :] -= y0.T
        shift = max(float(np.linalg.eigvalsh(slack)[-1]), 0.0)
        return float(np.trace(y0).real) + self.d_b * shift - f * f

    def measured_re_score(self, v: np.ndarray) -> tuple[float, entropy.MeasuredReSolution]:
        """Ascended score -D_M(rho || sigma(V)) in bits, and the inner solve behind it."""
        sol = entropy.measured_relative_entropy(
            self.target,
            self.sigma_tensor(v),
            restarts=0,
            max_iterations=INNER_MEASURED_RE_ITERATIONS,
        )
        return -sol.value_bits, sol

    def measured_re_score_and_gradient(
        self, v: np.ndarray, sol: entropy.MeasuredReSolution
    ) -> tuple[float, np.ndarray]:
        """The score and its envelope gradient d/dV*, from the inner solve at V.

        D_M ln 2 = max_w tr(rho ln w) + 1 - tr(sigma w), so by Danskin's
        theorem the score's gradient in sigma is w*/ln 2 at the witness w*.
        """
        return -sol.value_bits, self.pullback(v, sol.witness / entropy.LN2)

    def channel_from(self, v: np.ndarray) -> Channel:
        return channels.stinespring_to_channel(
            v,
            (("B", self.d_b),),
            (("B", self.d_b), ("C", self.d_c)),
            self.d_env,
        )


def _project_tangent(v: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Projection of grad, or of a stack of them, on the tangent space at v."""
    vg = v.conj().T @ grad
    return grad - v @ (vg + np.swapaxes(vg.conj(), -1, -2)) / 2.0


def _retract(v: np.ndarray) -> np.ndarray:
    """The isometry Q of v = QR with R's diagonal positive (Householder QR)."""
    q, r = np.linalg.qr(v)
    d = np.diag(r)
    safe = np.where(np.abs(d) > 0, d, 1.0)
    return q * (safe / np.abs(safe))


def _warm_start_isometry(problem: _RecoveryProblem) -> np.ndarray:
    warm = channels.transpose_channel(states.partial_trace(problem.target, ["B", "C"]))
    ops = channels.kraus_operators(warm)
    v = np.zeros(problem.isometry_shape(), dtype=complex)
    vt = v.reshape(problem.d_bc, problem.d_env, problem.d_b)
    for e, op in enumerate(ops[: problem.d_env]):
        vt[:, e, :] = op
    # Kraus rank beyond d_env only occurs for singular marginals; the
    # retraction then snaps the truncated stack back to an isometry.
    return _retract(v)


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real inner product Re tr(a^dag b) of tangent vectors."""
    return float(np.vdot(a, b).real)


def _lbfgs_direction(g: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """H g for the L-BFGS inverse-Hessian estimate H of the curvature pairs.

    ``pairs[i]`` stacks (s_i, y_i), oldest first, with <s_i, y_i> > 0
    (two-loop recursion).
    """
    rho = [1.0 / _inner(s, y) for s, y in pairs]
    alphas = [0.0] * len(pairs)
    q = g
    for i in reversed(range(len(pairs))):
        alphas[i] = rho[i] * _inner(pairs[i, 0], q)
        q = q - alphas[i] * pairs[i, 1]
    s, y = pairs[-1]
    r = (_inner(s, y) / _inner(y, y)) * q
    for i, (s, y) in enumerate(pairs):
        r = r + (alphas[i] - rho[i] * _inner(y, r)) * s
    return r


def _transport(v: np.ndarray, pairs, s: np.ndarray, y: np.ndarray):
    """The newest LBFGS_MEMORY curvature pairs, (s, y) last, moved to the tangent space at v.

    Pairs that projection leaves with <s, y> <= 0 are dropped; returns None
    when none is left.
    """
    new = np.stack([s, y])[None]
    pairs = new if pairs is None else np.concatenate([pairs, new])[-LBFGS_MEMORY:]
    pairs = _project_tangent(v, pairs)
    keep = np.einsum("mij,mij->m", pairs[:, 0].conj(), pairs[:, 1]).real > 0.0
    return pairs[keep] if keep.any() else None


def _line_search(v, f, direction, step, evaluate):
    """First rising point along ``direction``, from ``step`` halved down to STEP_TOLERANCE.

    Returns (step, v, score, held) at that point, or None when no step rises.
    """
    while step >= STEP_TOLERANCE:
        v_try = _retract(v + step * direction)
        f_try, held = evaluate(v_try)
        if f_try > f:
            return step, v_try, f_try, held
        step *= 0.5
    return None


def _ascend(v0, evaluate, gradient, max_iterations: int, dual_gap=None):
    """Riemannian L-BFGS ascent on the isometries, from ``v0``.

    ``evaluate(v)`` returns (score, held) and ``gradient(v, held)`` returns
    (score, dF/dV*) from what the evaluation held, so every trial point is
    evaluated once and only accepted points are differentiated. The step
    is the L-BFGS direction of the last LBFGS_MEMORY curvature pairs,
    carried between tangent spaces by projection, tried at length 1 and
    halved until the score rises. A direction that is not an ascent
    direction, or along which no step rises, drops the pairs for the
    projected gradient from INITIAL_STEP; the search stops unconverged
    only when that fails too. Only rising steps are accepted, so the trace
    is monotone.

    With ``dual_gap(v, f, grad)`` (pure-target fidelity), the ascent stops
    certified once the gap is below DUAL_GAP_TOL, and stalling with the gap
    open is not convergence. Without it (mixed targets, measured RE), it
    stops converged when CONVERGENCE_WINDOW accepted steps gain less than
    RELATIVE_TOLERANCE or not even the projected gradient rises, and takes
    no gradient at the point where it reaches the cap. Returns (v, f,
    trace, converged, gap); ``trace`` holds the accepted scores, ``gap``
    the last dual gap or None.
    """
    v = _retract(v0)
    f, held = evaluate(v)
    trace = [f]
    gap = None
    converged = False
    pairs = None  # curvature pairs (s, y) at v, oldest first
    last_step = last_g = None
    while True:
        capped = len(trace) > max_iterations
        if capped and dual_gap is None:
            break
        grad = gradient(v, held)[1]
        if dual_gap is not None:
            gap = dual_gap(v, f, grad)
            if gap < DUAL_GAP_TOL:
                converged = True
                break
            if capped:
                break
        g = _project_tangent(v, grad)
        if last_step is not None:
            pairs = _transport(v, pairs, last_step, last_g - g)
        direction = g if pairs is None else _lbfgs_direction(g, pairs)
        if _inner(direction, g) <= 0.0:
            pairs, direction = None, g
        found = _line_search(v, f, direction, INITIAL_STEP if pairs is None else 1.0, evaluate)
        if found is None and pairs is not None:
            # a badly scaled quasi-Newton step can fail where the gradient rises
            pairs, direction = None, g
            found = _line_search(v, f, direction, INITIAL_STEP, evaluate)
        if found is None:
            converged = dual_gap is None
            break
        step, v, f, held = found
        last_step, last_g = step * direction, g
        trace.append(f)
        if dual_gap is None and len(trace) > CONVERGENCE_WINDOW:
            ref = trace[-CONVERGENCE_WINDOW - 1]
            if abs(f - ref) < RELATIVE_TOLERANCE * max(1.0, abs(f)):
                converged = True
                break
    return v, f, trace, converged, gap


def optimize_recovery(
    rho_tri: MultipartiteState,
    objective_kind: str = "fidelity",
    max_iterations: int = 2000,
) -> OptimizerResult:
    """Search for the best reconstruction channel B -> BC for one state.

    One deterministic Riemannian L-BFGS ascent from the transpose channel,
    capped at ``max_iterations`` accepted steps. Fidelity (and its monotone
    transform, the order-1/2 Renyi divergence) is ascended with its
    analytic gradient. For a pure target the search stops once the dual
    gap certifies the fidelity to within DUAL_GAP_TOL in F^2, and
    ``converged`` means certified; mixed targets and the measured-RE
    objective stop by the window rule (see ``OptimizerResult``). The
    measured-RE objective takes the envelope gradient: by Danskin's theorem
    dD_M/dsigma = -w*/ln 2 at the witness w* of one inner solve, which is
    exact only as far as that solve has converged; the line search accepts
    a step only if the value improves, so the trace stays monotone either
    way. The result is never worse than the transpose-channel warm start.
    """
    if objective_kind not in OBJECTIVE_KINDS:
        raise ValueError(f"unknown objective {objective_kind!r}; pick from {OBJECTIVE_KINDS}")
    missing = {"B", "C", "R"} - set(rho_tri.labels)
    if missing:
        raise ValueError(f"state has no subsystems {sorted(missing)}; labels are {rho_tri.labels}")
    if len(rho_tri.subsystems) != 3:
        raise ValueError(f"expected a tripartite state, got subsystems {rho_tri.subsystems}")
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be >= 0, got {max_iterations}")
    problem = _RecoveryProblem(rho_tri)

    dual_gap = None
    if objective_kind == "measured_re":
        evaluate = problem.measured_re_score
        gradient = problem.measured_re_score_and_gradient
    else:
        evaluate = problem.fidelity_value
        gradient = problem.fidelity_and_gradient
        if problem.pure_vec is not None:
            dual_gap = problem.dual_gap

    v0 = _warm_start_isometry(problem)
    v, f, trace, converged, gap = _ascend(v0, evaluate, gradient, max_iterations, dual_gap)

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
        dual_gap=gap,
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
        "dual_gap": result.dual_gap,
        "best_channel": channels.to_json_dict(result.best_channel),
    }

