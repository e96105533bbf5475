"""Numerical search for reconstruction channels B -> BC.

Given a tripartite state on the subsystems labelled B, C and R, in any
order, find a channel acting on B alone whose extension to (B, R) maps the
BR marginal close to the full state. The roles are fixed by those labels.
The search space is Stinespring isometries V: B -> (BC) (x) E with
d_E = d_B d_C, a complex Stiefel manifold, ascended from the transpose
channel by Riemannian L-BFGS: curvature pairs carried between tangent
spaces by projection, a backtracking line search that accepts only steps
that rise (up to the score's evaluation noise), and a QR retraction. Root
fidelity is jointly concave and the channel enters linearly, so the
fidelity of recovery is a concave program over channels, and the search is
one deterministic ascent from that warm start.

Each objective's score is bounded through its gradient g in sigma. Root
fidelity is concave and 1/2-homogeneous, so F(rho, sigma') <= F/2 +
tr(g sigma') with g = dF/dsigma; any witness w > 0 of the measured
relative entropy gives -D_M(rho || sigma') <= c + tr(g sigma') with
g = w/ln 2 (Berta-Fawzi-Tomamichel). In both, the constant is the score
less tr(g sigma(V)), and the channel maximum of tr(g sigma') is a
semidefinite program whose dual (min tr Y subject to 1_BC (x) Y^T >= M(g))
has a feasible point built from the gradient at hand. Every search stops
once that dual gap, in its own score units, is below its objective's
tolerance, and ``converged`` means certified. The gap is first order in
the distance to the optimum and the score's gain second order, so near the
end a search also takes steps that keep the score within its evaluation
noise, and certifies its best point with the least bound it has seen. The
warm start fills the Kraus blocks the transpose channel leaves empty,
which the ascent could not leave otherwise.

Supported figures of merit: fidelity (maximized, analytic gradient), the
order-1/2 Renyi divergence (same ascent, transformed at the end), and the
measured relative entropy (minimized). All three gradients are analytic:
the measured-RE gradient in sigma is -w*/ln 2, with w* the witness of the
inner variational solve (Danskin's theorem).

The line search evaluates each trial point once, and the gradient at an
accepted point comes from what its evaluation already holds: psi^dag
sigma psi for a pure target, the spectrum of sqrt(rho) sigma sqrt(rho)
restricted to rho's support for a mixed one, the inner solve's witness for
measured RE. The channel image sigma(V), the adjoint map back to V and the
bound's matrix M(g) are matrix products on operands of rho_BR arranged once
per search.
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
# A search stops once its dual gap is below its objective's tolerance:
# DUAL_GAP_TOL in F for fidelity and Renyi-1/2 (1.4e-8 bits of -2 log2 F
# at F = 1), MEASURED_RE_GAP_TOL in bits for measured RE, where the inner
# solve's 1e-12-nat Newton tolerance limits the witness. It accepts steps
# that fall below its best score by less than FLAT_TOLERANCE (F's
# evaluation noise is about 1e-15), and gives up after more than
# CONVERGENCE_WINDOW steps in a row that neither raise the best score by
# more than FLAT_TOLERANCE nor lower the bound.
DUAL_GAP_TOL = 5e-9
MEASURED_RE_GAP_TOL = 1e-7
FLAT_TOLERANCE = 1e-12
CONVERGENCE_WINDOW = 10

# Measured-RE objective: budget of the inner solve behind every evaluation.
INNER_MEASURED_RE_ITERATIONS = 200

# The warm start's empty Kraus blocks start at this scale (see
# _warm_start_isometry).
KRAUS_FILL_SCALE = 1e-3
GOLDEN_FRACTION = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class OptimizerResult:
    """Reconstruction channel found by the ascent, with its audit trail.

    ``trace`` holds the best objective value after each step that improved
    it, in objective units: non-decreasing for fidelity, non-increasing
    for the divergence objectives.

    ``dual_gap`` is U - score for the returned score and the least upper
    bound U on any channel's score that the search found (each from a
    feasible point of the dual SDP at a point it visited), in F for the
    fidelity and Renyi-1/2 objectives and in bits for measured RE: no
    channel reaches a fidelity above F + ``dual_gap``, or a measured RE
    below D_M - ``dual_gap``. ``converged`` means certified, the gap below
    DUAL_GAP_TOL or MEASURED_RE_GAP_TOL; a search that stalls or reaches
    the iteration cap with the gap open is not converged.

    ``evaluations`` counts the objective evaluations, rejected trial points
    included. For the measured-RE objective, ``inner_nonconverged`` counts
    the inner solves among them whose Newton decrement did not fall below
    tolerance; it is None for the other objectives, which have no inner
    solve.
    """

    best_channel: Channel
    best_value: float
    objective_kind: str
    trace: list[float] = field(default_factory=list)
    converged: bool = True
    dual_gap: float = math.inf
    evaluations: int = 0
    inner_nonconverged: int | None = None


def reconstruct(rho_tri: MultipartiteState, channel: Channel) -> MultipartiteState:
    """Apply a B -> BC channel to the BR marginal, aligned to rho's labels.

    Any other map is rejected, even one whose input dimension fits B, such
    as the transpose channel of a (C, B)-ordered marginal (C -> CB).
    """
    if channel.input_labels != ("B",) or sorted(channel.output_labels) != ["B", "C"]:
        raise ValueError(
            f"expected a channel B -> BC, got {channel.input_labels} -> {channel.output_labels}"
        )
    rho_br = states.partial_trace(rho_tri, ["B", "R"])
    return states.permute(channels.apply(channel, rho_br), rho_tri.labels)


class _RecoveryProblem:
    """Shared tensors for evaluating one recovery search.

    Works in the subsystem order (B, C, R) so the target density matrix is
    a plain matrix on (BC) (x) R, and the isometry is a matrix v[(bc, e), b_in].
    The target is kept as that state, so its spectrum is decomposed once.

    Each objective has an evaluate step, ``fidelity_value`` or
    ``measured_re_score``, returning the score at V and what the gradient
    needs, and a gradient step, ``fidelity_and_gradient`` or
    ``measured_re_score_and_gradient``, turning that into the score, dF/dV*
    and g = dscore/dsigma without evaluating V again. ``dual_gap`` turns
    either gradient into the certificate of the search.
    ``inner_nonconverged`` counts the inner measured-RE solves that did not
    converge.
    """

    def __init__(self, rho_tri: MultipartiteState):
        ordered = states.permute(rho_tri, ("B", "C", "R"))
        self.d_b, self.d_c, self.d_r = ordered.dims
        self.d_bc = self.d_b * self.d_c
        # room for channels of Kraus rank up to d_B d_C
        self.d_env = self.d_bc
        self.target = ordered
        self.inner_nonconverged = 0
        rho_br = states.partial_trace(ordered, ["B", "R"]).matrix
        # rho_BR[(b,s),(c,t)] as the matmul operands of sigma_tensor,
        # pullback and channel_form: [b, (s,c,t)], [(s,t,c), b] and
        # [(s,t), (b,c)]
        d_b, d_r = self.d_b, self.d_r
        rho4 = rho_br.reshape(d_b, d_r, d_b, d_r)
        self.rho_b_sct = rho_br.reshape(d_b, d_r * d_b * d_r)
        self.rho_stc_b = np.ascontiguousarray(rho4.transpose(3, 1, 0, 2)).reshape(
            d_r * d_r * d_b, d_b
        )
        self.rho_st_bc = np.ascontiguousarray(rho4.transpose(3, 1, 2, 0)).reshape(
            d_r * d_r, d_b * d_b
        )

        spec = ordered.spectrum
        top = spec.eigenvalues[-1]
        self.pure_vec = None
        # threshold keeps the rank-1 shortcut's error below the 1e-7
        # re-evaluation contract: |F(rho,.) - F(psi,.)| <= sqrt(1 - top)
        if top > 1.0 - 4e-15:
            self.pure_vec = spec.eigenvectors[:, -1]
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

    def fidelity_and_gradient(
        self, v: np.ndarray, held
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """F(V), its Euclidean Wirtinger gradient dF/dV*, and g = dF/dsigma.

        ``held`` is what ``fidelity_value(v)`` returned beside F; dF/dV* is
        ``pullback(v, g)``.
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
        return f, self.pullback(v, g), g

    def channel_form(self, g: np.ndarray) -> np.ndarray:
        """M(g) with tr(g sigma(V)) = sum_e x_e^dag M(g) x_e, where x_e[o,b] = v[(o,e),b].

        M(g)[ob,pc] = sum_st g[os,pt] rho_BR[ct,bs], linear in g.
        """
        d_bc, d_b, d_r = self.d_bc, self.d_b, self.d_r
        # m[o,p,b,c] = sum_st g[(o,p),(s,t)] rho[(s,t),(b,c)]
        g_op = g.reshape(d_bc, d_r, d_bc, d_r).transpose(0, 2, 1, 3)
        g_op = g_op.reshape(d_bc * d_bc, d_r * d_r)
        m = (g_op @ self.rho_st_bc).reshape(d_bc, d_bc, d_b, d_b)
        return m.transpose(0, 2, 1, 3).reshape(d_bc * d_b, d_bc * d_b)

    def dual_gap(self, v: np.ndarray, grad: np.ndarray, g: np.ndarray) -> float:
        """A bound on how far any channel's score exceeds the score at V.

        Takes dF/dV* and g from ``fidelity_and_gradient`` or
        ``measured_re_score_and_gradient`` at V. Every channel R scores at
        most score(V) - tr(g sigma(V)) + tr(g sigma_R) (see the module
        docstring). The maximum of tr(g sigma_R) over channels is
        max tr(M(g) J) over Choi matrices J, whose dual is min tr Y subject
        to 1_BC (x) Y^T >= M(g). Y0 = Herm(V^dag dF/dV*) is the dual point
        at which V is stationary, and tr Y0 = tr(g sigma(V)); shifting Y0 by
        the largest eigenvalue of M(g) - 1_BC (x) Y0^T makes it feasible, so
        the gap is d_B times that shift.
        """
        y0 = v.conj().T @ grad
        y0 = (y0 + y0.conj().T) / 2.0
        slack = self.channel_form(g)
        blocks = slack.reshape(self.d_bc, self.d_b, self.d_bc, self.d_b)
        diag = np.arange(self.d_bc)
        blocks[diag, :, diag, :] -= y0.T
        return self.d_b * max(float(np.linalg.eigvalsh(slack)[-1]), 0.0)

    def measured_re_score(self, v: np.ndarray) -> tuple[float, entropy.MeasuredReSolution]:
        """Ascended score -D_M(rho || sigma(V)) in bits, and the inner solve behind it."""
        sol = entropy.measured_relative_entropy(
            self.target, self.sigma_tensor(v), max_iterations=INNER_MEASURED_RE_ITERATIONS
        )
        self.inner_nonconverged += not sol.converged
        return -sol.value_bits, sol

    def measured_re_score_and_gradient(
        self, v: np.ndarray, sol: entropy.MeasuredReSolution
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """The score, its envelope gradient d/dV* and g, from the inner solve at V.

        D_M ln 2 = max_w tr(rho ln w) + 1 - tr(sigma w), so by Danskin's
        theorem the score's gradient in sigma is g = w*/ln 2 at the witness w*.
        """
        g = sol.witness / entropy.LN2
        return -sol.value_bits, self.pullback(v, g), g

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
    """The transpose channel's Stinespring isometry, with no Kraus block left zero.

    The ascent keeps a zero Kraus block zero: its gradient vanishes, the
    tangent projection adds V S, and QR keeps zero rows zero. So the blocks
    beyond the transpose channel's Kraus rank start from a fixed chirp of
    size KRAUS_FILL_SCALE; left at zero, they would confine the search to
    channels of that rank.
    """
    warm = channels.transpose_channel(states.partial_trace(problem.target, ["B", "C"]))
    ops = channels.kraus_operators(warm)
    v = np.zeros(problem.isometry_shape(), dtype=complex)
    vt = v.reshape(problem.d_bc, problem.d_env, problem.d_b)
    for e, op in enumerate(ops[: problem.d_env]):
        vt[:, e, :] = op
    empty = vt[:, len(ops) :, :]
    k = np.arange(empty.size, dtype=float).reshape(empty.shape)
    empty[...] = KRAUS_FILL_SCALE * np.exp(1j * math.pi * GOLDEN_FRACTION * k * k)
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


def _line_search(v, floor, direction, step, evaluate):
    """First point along ``direction`` scoring above ``floor``.

    Tries ``step`` halved down to STEP_TOLERANCE. Returns (step, v, score,
    held) at that point, or None when there is none.
    """
    while step >= STEP_TOLERANCE:
        v_try = _retract(v + step * direction)
        f_try, held = evaluate(v_try)
        if f_try > floor:
            return step, v_try, f_try, held
        step *= 0.5
    return None


def _ascend(v0, evaluate, gradient, bound, tolerance: float, max_iterations: int):
    """Riemannian L-BFGS ascent on the isometries, from ``v0``.

    ``evaluate(v)`` returns (score, held) and ``gradient(v, held)`` returns
    (score, dF/dV*, g) from what the evaluation held, so every trial point
    is evaluated once and only accepted points are differentiated. The step
    is the L-BFGS direction of the last LBFGS_MEMORY curvature pairs,
    carried between tangent spaces by projection, tried at length 1 and
    halved until the score rises above the best score less FLAT_TOLERANCE.
    A direction that is not an ascent direction, or along which no step
    rises, drops the pairs for the projected gradient from INITIAL_STEP.

    ``bound(v, dF/dV*, g)`` is a gap with no channel scoring above score +
    gap, so the least such sum seen bounds the optimum, and the ascent stops
    certified once that bound less the best score is below ``tolerance``.
    The gap is first order in the distance to the optimum, the score's gain
    only second order, so the score stops rising, within its evaluation
    noise, while the gap is still open; hence the FLAT_TOLERANCE floor, and
    the best point is kept. The ascent stops unconverged at the cap, when
    not even the projected gradient rises, or once more than
    CONVERGENCE_WINDOW steps in a row neither raise the best score by more
    than FLAT_TOLERANCE nor lower the bound.

    Returns (v, f, trace, converged, gap, evaluations) at the best point:
    ``trace`` holds the best score after each step that raised it, so it
    rises strictly; ``gap`` is the least bound seen less f; ``evaluations``
    counts the ``evaluate`` calls.
    """
    evaluations = 0

    def counted(v):
        nonlocal evaluations
        evaluations += 1
        return evaluate(v)

    v = _retract(v0)
    f, held = counted(v)
    best_v, best_f = v, f
    trace = [f]
    upper = math.inf  # least bound score + gap on the optimum seen so far
    converged = False
    pairs = None  # curvature pairs (s, y) at v, oldest first
    last_step = last_g = None
    steps = idle = 0
    while True:
        _, grad, g_sigma = gradient(v, held)
        here = f + bound(v, grad, g_sigma)
        if here < upper:
            upper, idle = here, 0
        gap = upper - best_f
        if gap < tolerance:
            converged = True
            break
        if steps >= max_iterations or idle > CONVERGENCE_WINDOW:
            break
        g = _project_tangent(v, grad)
        if last_step is not None:
            pairs = _transport(v, pairs, last_step, last_g - g)
        direction = g if pairs is None else _lbfgs_direction(g, pairs)
        if _inner(direction, g) <= 0.0:
            pairs, direction = None, g
        floor = best_f - FLAT_TOLERANCE
        found = _line_search(v, floor, direction, INITIAL_STEP if pairs is None else 1.0, counted)
        if found is None and pairs is not None:
            # a badly scaled quasi-Newton step can fail where the gradient rises
            pairs, direction = None, g
            found = _line_search(v, floor, direction, INITIAL_STEP, counted)
        if found is None:
            break
        step, v, f, held = found
        steps += 1
        last_step, last_g = step * direction, g
        idle = 0 if f > best_f + FLAT_TOLERANCE else idle + 1
        if f > best_f:
            best_v, best_f = v, f
            trace.append(f)
    return best_v, best_f, trace, converged, gap, evaluations


def optimize_recovery(
    rho_tri: MultipartiteState,
    objective_kind: str = "fidelity",
    max_iterations: int = 2000,
) -> OptimizerResult:
    """Search for the best reconstruction channel B -> BC for one state.

    One deterministic Riemannian L-BFGS ascent from the transpose channel,
    capped at ``max_iterations`` accepted steps. Fidelity (and its monotone
    transform, the order-1/2 Renyi divergence) is ascended with its
    analytic gradient. The measured-RE objective takes the envelope
    gradient: by Danskin's theorem dD_M/dsigma = -w*/ln 2 at the witness w*
    of one inner solve, which is exact only as far as that solve has
    converged, while the bound from w* holds either way. Every search stops
    once its dual gap certifies the score to within DUAL_GAP_TOL in F or
    MEASURED_RE_GAP_TOL in bits, so ``converged`` means certified (see
    ``OptimizerResult``). The result is never worse than the warm start,
    the transpose channel with its empty Kraus blocks filled (see
    ``_warm_start_isometry``).
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

    measured_re = objective_kind == "measured_re"
    if measured_re:
        evaluate = problem.measured_re_score
        gradient = problem.measured_re_score_and_gradient
        tolerance = MEASURED_RE_GAP_TOL
    else:
        evaluate = problem.fidelity_value
        gradient = problem.fidelity_and_gradient
        tolerance = DUAL_GAP_TOL

    v0 = _warm_start_isometry(problem)
    v, f, trace, converged, gap, evaluations = _ascend(
        v0, evaluate, gradient, problem.dual_gap, tolerance, max_iterations
    )

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
        evaluations=evaluations,
        inner_nonconverged=problem.inner_nonconverged if measured_re else None,
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
        "evaluations": result.evaluations,
        "inner_nonconverged": result.inner_nonconverged,
        "best_channel": channels.to_json_dict(result.best_channel),
    }

