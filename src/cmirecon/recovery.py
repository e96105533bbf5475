"""Numerical search for reconstruction channels B -> BC.

Given a tripartite state on the subsystems labelled B, C and R, in any
order, find a channel acting on B alone whose extension to (B, R) maps the
BR marginal close to the full state. The roles are fixed by those labels.
The search space is Stinespring isometries V: B -> (BC) (x) E with
d_E = d_B^2 d_C, the dimension of a channel's Choi matrix, so it holds
every channel B -> BC. This complex Stiefel manifold is ascended from
the transpose channel by Riemannian L-BFGS: curvature pairs carried
between tangent spaces by projection, a two-loop recursion run on the
coefficients of the step from one Gram matrix of those pairs and the
gradient, a backtracking line search that accepts only steps that rise
(up to the score's evaluation noise), and a retraction by Gram-Schmidt
applied twice (the Q factor of a QR decomposition). Root fidelity is
jointly concave and the channel enters linearly, so the fidelity of
recovery is a concave program over channels, and the search is one
deterministic ascent from that warm start.

Each objective's score is bounded through its gradient g in sigma. Root
fidelity is concave and 1/2-homogeneous, so F(rho, sigma') <= F/2 +
tr(g sigma') with g = dF/dsigma while W^dag sigma W is nonsingular (else
F grows like sqrt(t) into its kernel, and the point bounds nothing); any
witness w > 0 of the measured relative entropy gives -D_M(rho || sigma')
<= c + tr(g sigma') with g = w/ln 2 (Berta-Fawzi-Tomamichel), and a
witness zero on sigma's kernel does so as its limit (a point where rho
leaks out of sigma's support has D_M = +inf and bounds nothing). In both,
the constant is the score less tr(g sigma(V)), and the channel maximum of
tr(g sigma') is a semidefinite program whose dual (min tr Y subject to
1_BC (x) Y^T >= M(g)) has a feasible point built from the gradient at
hand. Every search stops once that dual gap, in its own score units, is
below its objective's tolerance, and ``converged`` means certified. The
gap is first order in the distance to the optimum and the score's gain
second order, so near the end a search also takes steps that keep the
score within its evaluation noise, and certifies its best point with the
least bound it has seen.
Every start is a stack of Kraus operators placed in the first environment
columns of an isometry, the rest zero: the transpose channel's, which
``channels._transpose_kraus`` builds, the universal recovery map's
(``channels._universal_kraus``, in closed form) for a measured-RE search
whose transpose start leaks, or the Uhlmann channel's below. No gradient
step moves a zero Kraus column, so the ascent's first step also sets them
along the leading eigenvectors of the dual slack M(g) - 1_BC (x) Y0^T off
the other columns.

Supported figures of merit: fidelity (maximized, analytic gradient), the
order-1/2 Renyi divergence (same ascent, transformed at the end), and the
measured relative entropy (minimized). All three gradients are analytic:
the measured-RE gradient in sigma is -w*/ln 2, with w* the witness of the
inner variational solve (Danskin's theorem).

The line search evaluates each trial point once, and the gradient at an
accepted point comes from what its evaluation already holds: the
eigendecomposition of W^dag sigma W for the root factor W of rho on its
support (rank x rank, 1 x 1 for a pure target), or the inner solve's
witness for measured RE. Everything else goes through one linear map and
its adjoint, both matrix products with one arrangement of rho_BR: sigma(V)
is Phi(J) for the Choi matrix J = X X^dag, where the columns of X are V's
Kraus operators, and the gradient is dF/dX* = M(g) X with M(g) =
Phi*(g), the same matrix the bound reads.

A fidelity or Renyi-1/2 search on a pure target psi_BCR (a root factor of
one column) first takes a shorter route. C purifies rho_BR, so Uhlmann's
theorem, applied twice, gives max_R F(psi, R(rho_BR)) = max over density
matrices xi_C of F(rho_CR, xi_C (x) rho_R) (the pure-state duality of the
fidelity of recovery, Seshadreesan-Wilde). That is itself a recovery
problem: rho_CR rebuilt from a one-dimensional B by a channel that prepares
xi = A A^dag, whose isometry is the unit vector A. The same ascent climbs
it, with the same evaluation, gradient and bound, which here read
sigma(V) = xi (x) rho_R, M(g) = dF/dxi and lambda_max(M) - tr(M xi); its
widening is zero, as its start has full rank.
The channel of the last xi comes from one SVD of the Uhlmann overlap, has
d_E = d_C Kraus operators, and is where the ascent over every channel
starts instead of the transpose channel: it certifies there at once when
its dual gap is closed, and is otherwise widened and climbed like any
other start.
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
# The xi ascent of a pure target stops at XI_GAP_TOL in F, well below
# DUAL_GAP_TOL: at the same xi, its channel's own gap was up to about 100
# times the xi program's gap in a survey of pure targets up to (3,3,3).
XI_GAP_TOL = 1e-10
FLAT_TOLERANCE = 1e-12
CONVERGENCE_WINDOW = 10

# Measured-RE objective: budget of the inner solve behind every evaluation.
INNER_MEASURED_RE_ITERATIONS = 200

# Norm of each Kraus column the first step adds (see _RecoveryProblem.widening).
WIDENING_SCALE = 5e-4

# A column that Gram-Schmidt leaves with no more than this fraction of its
# norm has lost half the working digits to cancellation, and the retraction
# takes Householder QR instead (see _retract).
GRAM_SCHMIDT_COLLAPSE = 1e-8


@dataclass
class OptimizerResult:
    """Reconstruction channel found by the ascent, with its audit trail.

    ``trace`` holds the best objective value after each step that improved
    it, in objective units: non-decreasing for fidelity, non-increasing
    for the divergence objectives. They are the channel ascent's, from its
    start on.

    ``dual_gap`` is U - score for the returned score and the least upper
    bound U on any channel's score that the search found (each from a
    feasible point of the dual SDP at a point it visited), in F for the
    fidelity and Renyi-1/2 objectives and in bits for measured RE: no
    channel reaches a fidelity above F + ``dual_gap``, or a measured RE
    below D_M - ``dual_gap``. ``converged`` means certified, the gap below
    DUAL_GAP_TOL or MEASURED_RE_GAP_TOL; a search that stalls or reaches
    the iteration cap with the gap open is not converged.

    ``evaluations`` counts the objective evaluations, rejected trial points
    included, those of a pure target's xi ascent too. For the measured-RE
    objective, ``inner_nonconverged`` counts the inner solves among them
    whose Newton decrement did not fall below tolerance; it is None for the
    other objectives, which have no inner solve.
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
    ``measured_re_score_and_gradient``, turning that into the score the
    bound rests on, dF/dV* and M(g) for g = dscore/dsigma without evaluating
    V again; ``dual_gap`` turns either into the search's certificate.
    ``inner_nonconverged`` counts the inner measured-RE solves that did not
    converge.
    """

    def __init__(self, rho_tri: MultipartiteState):
        ordered = states.permute(rho_tri, ("B", "C", "R"))
        self.d_b, self.d_c, self.d_r = ordered.dims
        self.d_bc = self.d_b * self.d_c
        # room for every channel: Kraus rank up to the Choi dimension d_B d_BC
        self.d_env = self.d_b * self.d_bc
        self.target = ordered
        self.inner_nonconverged = 0
        rho_br = states.partial_trace(ordered, ["B", "R"]).matrix
        # rho_BR[(b,s),(c,t)] as the matmul operand [(t,s),(c,b)] of
        # sigma_tensor and channel_form
        rho4 = rho_br.reshape(self.d_b, self.d_r, self.d_b, self.d_r)
        self.rho_st_bc = rho4.transpose(3, 1, 2, 0).reshape(self.d_r**2, self.d_b**2)

        # sqrt(rho) = W U^dag on rho's support U, so sqrt(rho) sigma
        # sqrt(rho) and the rank x rank W^dag sigma W share their nonzero
        # spectrum; the full product's off-support round-off eigenvalues
        # (~1e-17) would add their roots, ~1e-8, to F
        self.root_factor = ordered.spectrum.root

    def isometry_shape(self) -> tuple[int, int]:
        return (self.d_bc * self.d_env, self.d_b)

    def isometry(self, kraus: np.ndarray) -> np.ndarray:
        """The isometry v of the Kraus stack k[o, b, e]: its Kraus columns, then zero columns."""
        v = np.zeros(self.isometry_shape(), dtype=complex)
        v.reshape(self.d_bc, self.d_env, self.d_b)[:, : kraus.shape[2], :] = kraus.transpose(0, 2, 1)
        return v

    def kraus_columns(self, v: np.ndarray) -> np.ndarray:
        """X[(o,b),e] = v[(o,e),b]: column e is Kraus operator e, and X X^dag is the Choi matrix."""
        return v.reshape(self.d_bc, self.d_env, self.d_b).transpose(0, 2, 1).reshape(-1, self.d_env)

    def sigma_tensor(self, v: np.ndarray) -> np.ndarray:
        """sigma = (channel (x) id_R)(rho_BR) as a matrix on (BC) (x) R.

        That is Phi(J) for the Choi matrix J = X X^dag,
        sigma[os,pt] = sum_bc J[ob,pc] rho_BR[bs,ct], the adjoint of
        ``channel_form``.
        """
        d_bc, d_b, d_r = self.d_bc, self.d_b, self.d_r
        x = self.kraus_columns(v)
        # j[(o,p),(b,c)] = J[ob,pc]; rho_BR[bs,ct] = conj(rho_st_bc[(s,t),(b,c)])
        j = (x @ x.conj().T).reshape(d_bc, d_b, d_bc, d_b).transpose(0, 2, 1, 3)
        sigma = j.reshape(d_bc * d_bc, d_b * d_b) @ self.rho_st_bc.conj().T
        return sigma.reshape(d_bc, d_bc, d_r, d_r).transpose(0, 2, 1, 3).reshape(
            d_bc * d_r, d_bc * d_r
        )

    def isometry_gradient(self, v: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """dF/dV* from the Hermitian gradient g = dF/dsigma, and M(g).

        tr(g sigma(V)) = tr(M(g) X X^dag), so dF/dX* = M(g) X, here
        rearranged like v.
        """
        m = self.channel_form(g)
        grad = (m @ self.kraus_columns(v)).reshape(self.d_bc, self.d_b, self.d_env)
        return grad.transpose(0, 2, 1).reshape(v.shape), m

    def fidelity_value(self, v: np.ndarray):
        """F(rho, sigma(V)) and what its gradient needs.

        F is the root trace of W^dag sigma W, decomposed once; what it holds
        is that matrix's eigenvalues, their roots and its eigenvectors.
        W^dag sigma W comes from a checked state and an isometry, so it
        takes no boundary check.
        """
        w = self.root_factor
        lam, u = np.linalg.eigh(w.conj().T @ self.sigma_tensor(v) @ w)
        root = np.sqrt(np.maximum(lam, 0.0))
        return float(root.sum()), (lam, root, u)

    def fidelity_and_gradient(
        self, v: np.ndarray, held
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """The score the bound rests on, dF/dV* (Euclidean Wirtinger) and M(g) for g = dF/dsigma.

        ``held`` is what ``fidelity_value(v)`` returned beside F. With
        Z = W u for the eigenvectors u of W^dag sigma W, g = Z diag(1 / (2
        sqrt(lam))) Z^dag over the eigenvalues lam above the support cutoff.
        That g is a supergradient only while W^dag sigma W has no kernel; the
        score is F then, and +inf otherwise, so the point bounds nothing.
        """
        lam, root, u = held
        k = linalg.kernel_size(lam)
        z = self.root_factor @ u[:, k:]
        g = (z / (2.0 * root[k:])) @ z.conj().T
        return (math.inf if k else float(root.sum()), *self.isometry_gradient(v, g))

    def channel_form(self, g: np.ndarray) -> np.ndarray:
        """M(g) = Phi*(g), with tr(g sigma(V)) = tr(M(g) X X^dag) for X = ``kraus_columns(v)``.

        M(g)[ob,pc] = sum_st g[os,pt] rho_BR[ct,bs], linear in g.
        """
        d_bc, d_b, d_r = self.d_bc, self.d_b, self.d_r
        # m[o,p,b,c] = sum_st g[(o,p),(s,t)] rho[(s,t),(b,c)]
        g_op = g.reshape(d_bc, d_r, d_bc, d_r).transpose(0, 2, 1, 3)
        g_op = g_op.reshape(d_bc * d_bc, d_r * d_r)
        m = (g_op @ self.rho_st_bc).reshape(d_bc, d_bc, d_b, d_b)
        return m.transpose(0, 2, 1, 3).reshape(d_bc * d_b, d_bc * d_b)

    def dual_slack(self, v: np.ndarray, grad: np.ndarray, m: np.ndarray) -> np.ndarray:
        """M(g) - 1_BC (x) Y0^T with Y0 = Herm(V^dag dF/dV*), from dF/dV* and M(g) at V."""
        y0 = v.conj().T @ grad
        slack = m.copy()
        # 1_BC (x) Y0^T lies on the diagonal d_B x d_B blocks
        blocks, i = slack.reshape(self.d_bc, self.d_b, self.d_bc, self.d_b), np.arange(self.d_bc)
        blocks[i, :, i, :] -= (y0 + y0.conj().T).T / 2.0
        return slack

    def dual_gap(self, v: np.ndarray, grad: np.ndarray, m: np.ndarray) -> float:
        """A bound on how far any channel's score exceeds the score at V.

        Takes dF/dV* and M(g) from ``fidelity_and_gradient`` or
        ``measured_re_score_and_gradient`` at V. Every channel R scores at
        most score(V) - tr(g sigma(V)) + tr(g sigma_R) (see the module
        docstring). The maximum of tr(g sigma_R) over channels is
        max tr(M(g) J) over Choi matrices J, whose dual is min tr Y subject
        to 1_BC (x) Y^T >= M(g). Y0 = Herm(V^dag dF/dV*) is the dual point
        at which V is stationary, and tr Y0 = tr(g sigma(V)); shifting Y0 by
        the largest eigenvalue of the ``dual_slack`` M(g) - 1_BC (x) Y0^T
        makes it feasible, so the gap is d_B times that shift.
        """
        return self.d_b * max(float(np.linalg.eigvalsh(self.dual_slack(v, grad, m))[-1]), 0.0)

    def widening(self, v: np.ndarray, grad: np.ndarray, m: np.ndarray) -> np.ndarray:
        """A tangent direction at V that sets V's zero Kraus columns, arranged like v.

        A Kraus column x of small weight adds x^dag S x to tr(g sigma), for
        the ``dual_slack`` S: the zero columns (no weight beyond round-off)
        take WIDENING_SCALE times the leading eigenvectors of S off the other
        columns' span. With no zero column, as at the full-rank xi start,
        it is zero.
        """
        x = self.kraus_columns(v)
        empty = np.flatnonzero(np.linalg.norm(x, axis=0) ** 2 < np.finfo(float).eps)
        if not empty.size:
            return np.zeros_like(v)
        complement = np.linalg.svd(x)[0][:, self.d_env - len(empty) :]
        slack = complement.conj().T @ self.dual_slack(v, grad, m) @ complement
        fill = np.zeros_like(x)
        fill[:, empty] = WIDENING_SCALE * complement @ np.linalg.eigh(slack)[1][:, ::-1]
        return fill.reshape(self.d_bc, self.d_b, self.d_env).transpose(0, 2, 1).reshape(v.shape)

    def measured_re_score(self, v: np.ndarray) -> tuple[float, entropy.MeasuredReSolution]:
        """Ascended score -D_M(rho || sigma(V)) in bits, and the inner solve behind it."""
        # built from checked input: a state decomposed once, without a check
        sigma = states._derived(self.sigma_tensor(v), self.target.subsystems)
        sol = entropy.measured_relative_entropy(
            self.target, sigma, max_iterations=INNER_MEASURED_RE_ITERATIONS
        )
        self.inner_nonconverged += not sol.converged
        return -sol.value_bits, sol

    def measured_re_score_and_gradient(
        self, v: np.ndarray, sol: entropy.MeasuredReSolution
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """The score the bound rests on, the envelope gradient d/dV* and M(g), from the inner solve at V.

        D_M ln 2 = max_w tr(rho ln w) + 1 - tr(sigma w), so by Danskin's
        theorem the score's gradient in sigma is g = w*/ln 2 at the witness w*.
        Where rho leaks out of sigma's support, D_M = +inf and no witness
        exists: the score is +inf then, so the point bounds nothing.
        """
        score = math.inf if sol.value_bits == math.inf else -sol.value_bits
        return (score, *self.isometry_gradient(v, sol.witness / entropy.LN2))

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
    """The isometry Q of v = QR with R's diagonal positive.

    Classical Gram-Schmidt applied twice to each column in turn: the second
    pass takes out what round-off left of the earlier columns, so Q stays
    orthonormal to working precision, and a single column is only
    normalised. A column that projection leaves with no more than
    GRAM_SCHMIDT_COLLAPSE of its norm (none does on the ascent, where v is
    an isometry plus a tangent step) is numerically dependent on the
    earlier ones; Householder QR then gives the same Q, and an isometry
    even for a rank-deficient v.
    """
    q = np.empty_like(v)
    for j in range(v.shape[1]):
        col = z = v[:, j]
        if j:
            basis = q[:, :j]
            basis_h = basis.conj().T
            for _ in range(2):
                col = col - basis @ (basis_h @ col)
        norm = math.sqrt(np.vdot(col, col).real)
        if not norm > GRAM_SCHMIDT_COLLAPSE * (math.sqrt(np.vdot(z, z).real) if j else norm):
            q, r = np.linalg.qr(v)
            d = np.diag(r)
            safe = np.where(np.abs(d) > 0, d, 1.0)
            return q * (safe / np.abs(safe))
        q[:, j] = col / norm
    return q


def _warm_start_isometry(problem: _RecoveryProblem) -> np.ndarray:
    """The transpose channel's Stinespring isometry, from its Kraus stack; later columns are zero."""
    return problem.isometry(channels._transpose_kraus(states.partial_trace(problem.target, ["B", "C"])))


def _lbfgs_direction(g: np.ndarray, pairs) -> np.ndarray:
    """H g for the L-BFGS inverse-Hessian estimate H of the curvature pairs.

    ``pairs`` is what ``_transport`` returns: the stack of (s_i, y_i),
    oldest first, with <s_i, y_i> > 0, and the Gram matrix of s_1, y_1,
    ..., s_m, y_m, g. The two-loop recursion runs on the coefficients of
    H g in those vectors, in the textbook order, and reads every inner
    product from the Gram matrix: q = g - sum alpha_i y_i, newest pair
    first, then r = gamma q + sum (alpha_i - beta_i) s_i, oldest first,
    with gamma = <s_m, y_m> / <y_m, y_m>. H g is one product of those
    coefficients with the stack.
    """
    stack, gram = pairs
    m = len(stack)
    rows = gram.tolist()  # rows 2i and 2i + 1 are s_i and y_i, the last is g
    rho = [1.0 / rows[2 * i][2 * i + 1] for i in range(m)]
    alphas = [0.0] * m
    for i in reversed(range(m)):
        s_row = rows[2 * i]  # <s_i, q> for q = g - sum_{j > i} alpha_j y_j
        s_q = s_row[-1] - sum(alphas[j] * s_row[2 * j + 1] for j in range(i + 1, m))
        alphas[i] = rho[i] * s_q
    gamma = rows[-3][-2] / rows[-2][-2]  # <s_m, y_m> / <y_m, y_m>
    betas = [0.0] * m  # r's coefficient on s_i
    for i in range(m):
        y_row = rows[2 * i + 1]  # <y_i, r> for r = gamma q + sum_{j < i} betas_j s_j
        y_q = y_row[-1] - sum(a * y_row[2 * j + 1] for j, a in enumerate(alphas))
        y_r = gamma * y_q + sum(betas[j] * y_row[2 * j] for j in range(i))
        betas[i] = alphas[i] - rho[i] * y_r
    coefficients = np.array([c for b, a in zip(betas, alphas) for c in (b, -gamma * a)])
    return (coefficients @ stack.reshape(2 * m, -1)).reshape(g.shape) + gamma * g


def _transport(v: np.ndarray, pairs, s: np.ndarray, y: np.ndarray, g: np.ndarray):
    """The newest LBFGS_MEMORY curvature pairs, (s, y) last, moved to the tangent space at v.

    ``pairs`` is the previous return value, or None. Returns the stack of
    projected pairs, oldest first, and the Gram matrix of their vectors and
    the projected gradient g at v, s_1, y_1, ..., s_m, y_m, g, under the
    real inner product Re tr(a^dag b). Pairs that projection leaves with
    <s, y> <= 0 are dropped, from both; returns None when none is left.
    """
    new = np.stack([s, y])[None]
    stack = new if pairs is None else np.concatenate([pairs[0], new])[-LBFGS_MEMORY:]
    stack = _project_tangent(v, stack)
    m = len(stack)
    flat = np.concatenate([stack.reshape(2 * m, -1), g.reshape(1, -1)]).view(float)
    gram = flat @ flat.T
    keep = gram.diagonal(1)[: 2 * m : 2] > 0.0
    if keep.all():
        return stack, gram
    if not keep.any():
        return None
    kept = np.append(np.repeat(keep, 2), True)
    return stack[keep], gram[np.ix_(kept, kept)]


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


def _ascend(
    problem: _RecoveryProblem,
    v0: np.ndarray,
    objective_kind: str,
    tolerance: float,
    max_iterations: int,
):
    """Riemannian L-BFGS ascent of ``problem``'s objective on the isometries, from ``v0``.

    The objective picks the problem's evaluate step (``fidelity_value`` or
    ``measured_re_score``), which returns (score, held), and its gradient
    step, which returns (score, dF/dV*, M(g)) from what the evaluation
    held, so every trial point is evaluated once and only accepted points
    are differentiated. The step is the L-BFGS direction of the last
    LBFGS_MEMORY curvature pairs, carried between tangent spaces by
    projection, tried at length 1 and halved until the score rises above
    the best score less FLAT_TOLERANCE. A direction that is not an ascent
    direction, or along which no step rises, drops the pairs for the
    projected gradient from INITIAL_STEP. The first direction also takes
    the problem's ``widening`` at v0, the way out of v0's Kraus rank,
    which no gradient step leaves.

    ``problem.dual_gap`` is a gap with no channel scoring above
    score + gap, for the score the gradient step returns (+inf at a point
    that bounds nothing), so the least such sum seen bounds the optimum,
    and the ascent stops certified once that bound less the best score is
    below ``tolerance``. The gap is first order in the distance to the
    optimum, the score's gain only second order, so the score stops rising,
    within its evaluation noise, while the gap is still open; hence the
    FLAT_TOLERANCE floor, and the best point is kept. The ascent stops
    unconverged at the cap, when not even the projected gradient rises, or
    once more than CONVERGENCE_WINDOW steps in a row neither raise the best
    score by more than FLAT_TOLERANCE nor lower the bound.

    Returns (v, f, trace, converged, gap, evaluations) at the best point:
    ``trace`` holds the best score after each step that raised it, so it
    rises strictly; ``gap`` is the least bound seen less f; ``evaluations``
    counts the evaluations.
    """
    if objective_kind == "measured_re":
        evaluate, gradient = problem.measured_re_score, problem.measured_re_score_and_gradient
    else:
        evaluate, gradient = problem.fidelity_value, problem.fidelity_and_gradient
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
        score, grad, form = gradient(v, held)
        here = score + problem.dual_gap(v, grad, form)
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
            pairs = _transport(v, pairs, last_step, last_g - g, g)
        direction = g if pairs is None else _lbfgs_direction(g, pairs)
        if np.vdot(direction, g).real <= 0.0:
            pairs, direction = None, g
        if steps == 0:
            direction = direction + problem.widening(v, grad, form)
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


def _uhlmann_isometry(problem: _RecoveryProblem, a: np.ndarray) -> np.ndarray:
    """The channel of xi = A A^dag for a pure target psi, as an isometry arranged like v.

    Its overlap with psi (x) A is tr(V T) for T[b,(b'c'e)] = sum_{c,r}
    psi[b,c,r] psi*[b',c',r] A*[c,e], which V = Q P^dag maximises over
    isometries for T = P S Q^dag (Uhlmann). Its stack of d_C Kraus
    operators is placed like any other start (``_RecoveryProblem.isometry``).
    """
    d_b, d_c = problem.d_b, problem.d_c
    psi = problem.root_factor[:, 0].reshape(d_b, d_c, problem.d_r)
    t = np.einsum("bcr,fgr,ce->bfge", psi, psi.conj(), a.reshape(d_c, d_c).conj())
    left, _, right = np.linalg.svd(t.reshape(d_b, -1), full_matrices=False)
    kraus = (left @ right).conj().T.reshape(problem.d_bc, d_c, d_b)
    return problem.isometry(kraus.transpose(0, 2, 1))


def _uhlmann_start(problem: _RecoveryProblem, max_iterations: int) -> tuple[np.ndarray, int]:
    """The isometry of the channel of a pure target's last xi, and the xi evaluations.

    The xi program is the recovery problem of rho_CR with a one-dimensional
    B: its isometry is the unit vector A, its Choi matrix xi = A A^dag,
    sigma(V) = xi (x) rho_R, M(g) = dF/dxi and its dual gap lambda_max(M)
    - tr(M xi). It is ascended to XI_GAP_TOL within ``max_iterations``
    steps from A A^dag = (rho_C + 1/d_C) / 2, full rank: a rank-r A keeps
    xi at rank r. A full-rank A has no zero Kraus column, so the ascent's
    widening adds nothing.
    """
    d_c, d_r = problem.d_c, problem.d_r
    rho_cr = states.partial_trace(problem.target, ["C", "R"]).matrix
    xi = _RecoveryProblem(states._derived(rho_cr, (("B", 1), ("C", d_c), ("R", d_r))))
    rho_c = states.partial_trace(problem.target, ["C"]).matrix
    a0 = np.linalg.cholesky((rho_c + np.eye(d_c) / d_c) / 2.0).reshape(-1, 1)
    a, *_, evaluations = _ascend(xi, a0, "fidelity", XI_GAP_TOL, max_iterations)
    return _uhlmann_isometry(problem, a), evaluations


def optimize_recovery(
    rho_tri: MultipartiteState,
    objective_kind: str = "fidelity",
    max_iterations: int = 2000,
) -> OptimizerResult:
    """Search for the best reconstruction channel B -> BC for one state.

    One deterministic Riemannian L-BFGS ascent over every channel, capped
    at ``max_iterations`` accepted steps. Fidelity (and its monotone
    transform, the order-1/2 Renyi divergence) is ascended with its
    analytic gradient. The measured-RE objective takes the envelope
    gradient: by Danskin's theorem dD_M/dsigma = -w*/ln 2 at the witness w*
    of one inner solve, which is exact only as far as that solve has
    converged, while the bound from w* holds either way. Every search stops
    once its dual gap certifies the score to within DUAL_GAP_TOL in F or
    MEASURED_RE_GAP_TOL in bits, so ``converged`` means certified (see
    ``OptimizerResult``). The ascent never ends below its start, and its
    first step leaves the start's Kraus rank (see
    ``_RecoveryProblem.widening``).

    A fidelity or Renyi-1/2 search on a target of rank 1 starts at the
    channel of xi_C, ascended first and also capped at ``max_iterations``
    steps (see ``_uhlmann_start``); every other search starts at the
    transpose channel. Where rho leaks out of the support of the transpose
    channel's reconstruction, D_M is +inf there and gives no gradient, so a
    measured-RE search starts at the universal recovery map R instead, whose
    D_M(rho || R(rho_BR)) <= I(C:R|B) (see ``channels._universal_kraus``).
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
    if not measured_re and problem.root_factor.shape[1] == 1:
        v0, evaluations = _uhlmann_start(problem, max_iterations)
    else:
        v0, evaluations = _warm_start_isometry(problem), 0
        if measured_re:
            sigma = states._derived(problem.sigma_tensor(v0), problem.target.subsystems)
            if entropy.relative_entropy(problem.target, sigma) == math.inf:
                rho_bc = states.partial_trace(problem.target, ["B", "C"])
                v0 = problem.isometry(channels._universal_kraus(rho_bc))
    tolerance = MEASURED_RE_GAP_TOL if measured_re else DUAL_GAP_TOL
    v, f, trace, converged, gap, channel_evaluations = _ascend(
        problem, v0, objective_kind, tolerance, max_iterations
    )

    def to_units(score: float) -> float:
        if objective_kind == "fidelity":
            return min(score, 1.0)
        if objective_kind == "renyi_half":
            return entropy._renyi_half_bits(score)
        return -score

    return OptimizerResult(
        best_channel=problem.channel_from(v),
        best_value=to_units(f),
        objective_kind=objective_kind,
        trace=[to_units(t) for t in trace],
        converged=converged,
        dual_gap=gap,
        evaluations=evaluations + channel_evaluations,
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

