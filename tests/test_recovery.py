import json
import math

import numpy as np
import pytest

from cmirecon import channels, entropy, experiments, linalg, markov, recovery, states

SMALL_BUDGET = 400  # ascent iteration cap for the quick checks


class TestOptimizeRecoveryFidelity:
    def test_markov_state_reaches_perfect_fidelity(self):
        sigma = markov.markov_state(markov.random_markov_spec(states.rng_from_seed(0)))
        result = recovery.optimize_recovery(sigma, "fidelity")
        assert result.best_value >= 1.0 - 1e-6

    def test_product_state_reaches_perfect_fidelity(self):
        rng = states.rng_from_seed(1)
        rho_c = states.random_mixed((2,), rng, ("C",))
        rho_br = states.random_mixed((2, 2), rng, ("B", "R"))
        rho = states.permute(states.tensor(rho_c, rho_br), ("B", "C", "R"))
        result = recovery.optimize_recovery(rho, "fidelity")
        assert result.best_value >= 1.0 - 1e-6

    @pytest.mark.parametrize(
        "rank, seed",
        [pytest.param(1, seed, id=str(seed)) for seed in range(8)]
        + [pytest.param(2, seed, id=f"rank2-{seed}") for seed in range(8)],
    )
    def test_random_pure_states_meet_cmi_certificate(self, rank, seed):
        labels = ("B", "C", "R")
        if rank == 1:
            rho = states.random_pure((2, 2, 2), states.sample_rng(700, seed), labels)
        else:
            rng = states.sample_rng(701, seed)
            rho = states.random_mixed((2, 2, 2), rng, labels, ancilla_dim=rank)
        result = recovery.optimize_recovery(rho, "fidelity")
        shalf = -2.0 * math.log2(result.best_value)
        assert shalf <= entropy.cmi(rho) + 1e-4

    def test_never_below_transpose_warm_start(self):
        rho = states.random_pure((2, 2, 2), states.rng_from_seed(2), ("B", "C", "R"))
        rho_bc = states.permute(states.partial_trace(rho, ["B", "C"]), ("B", "C"))
        warm = channels.transpose_channel(rho_bc)
        warm_fid = entropy.fidelity(rho, recovery.reconstruct(rho, warm))
        result = recovery.optimize_recovery(rho, "fidelity", max_iterations=SMALL_BUDGET)
        assert result.best_value >= warm_fid - 1e-9

    def test_best_value_reproducible_from_channel(self):
        rho = states.random_pure((2, 2, 2), states.rng_from_seed(3), ("B", "C", "R"))
        result = recovery.optimize_recovery(rho, "fidelity", max_iterations=SMALL_BUDGET)
        re_eval = entropy.fidelity(rho, recovery.reconstruct(rho, result.best_channel))
        assert abs(re_eval - result.best_value) < 1e-7

    def test_trace_monotone_and_bounded(self):
        rho = states.random_pure((2, 2, 2), states.rng_from_seed(4), ("B", "C", "R"))
        result = recovery.optimize_recovery(rho, "fidelity", max_iterations=SMALL_BUDGET)
        trace = np.array(result.trace)
        assert np.all(np.diff(trace) >= -1e-10)
        assert np.all(trace <= 1.0 + 1e-9)
        assert np.all(trace >= 0.0)
        assert result.converged

    def test_mixed_target_state(self):
        rho = states.random_mixed((2, 2, 2), states.rng_from_seed(5), ("B", "C", "R"))
        result = recovery.optimize_recovery(rho, "fidelity", max_iterations=SMALL_BUDGET)
        assert 0.0 < result.best_value <= 1.0
        re_eval = entropy.fidelity(rho, recovery.reconstruct(rho, result.best_channel))
        assert abs(re_eval - result.best_value) < 1e-7

    def test_search_draws_no_random_numbers(self, monkeypatch):
        rho = states.random_mixed(
            (2, 2, 2), states.rng_from_seed(13), ("B", "C", "R"), ancilla_dim=2
        )
        first = recovery.optimize_recovery(rho, "fidelity", max_iterations=SMALL_BUDGET)

        def no_streams(*args):
            raise AssertionError("the recovery search drew a random stream")

        monkeypatch.setattr(states, "sample_rng", no_streams)
        second = recovery.optimize_recovery(rho, "fidelity", max_iterations=SMALL_BUDGET)
        assert first.trace == second.trace
        assert np.array_equal(first.best_channel.choi, second.best_channel.choi)

    def test_rejects_bad_inputs(self):
        rho = states.random_pure((2, 2), states.rng_from_seed(6), ("B", "C"))
        with pytest.raises(ValueError, match="no subsystem"):
            recovery.optimize_recovery(rho, "fidelity")
        rho3 = states.random_pure((2, 2, 2), states.rng_from_seed(6), ("B", "C", "R"))
        with pytest.raises(ValueError, match="unknown objective"):
            recovery.optimize_recovery(rho3, "trace_distance")
        with pytest.raises(ValueError, match="max_iterations"):
            recovery.optimize_recovery(rho3, "fidelity", max_iterations=-3)


def _count_calls(monkeypatch, owner, name, log):
    """Replace owner.name by a wrapper that logs the bytes of each call's second argument.

    That is the isometry V for the problem's methods and sigma for
    measured_relative_entropy(rho, sigma), whose matrix is logged when it
    is a state.
    """
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        arg = args[1]
        if isinstance(arg, states.MultipartiteState):
            arg = arg.matrix
        log.append(np.asarray(arg).tobytes())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestSearchEvaluations:
    def test_fidelity_evaluates_each_trial_point_once(self, monkeypatch):
        rho = states.random_mixed(
            (2, 2, 2), states.sample_rng(701, 0), ("B", "C", "R"), ancilla_dim=2
        )
        values, sigmas, gradients = [], [], []
        problem = recovery._RecoveryProblem
        _count_calls(monkeypatch, problem, "fidelity_value", values)
        _count_calls(monkeypatch, problem, "sigma_tensor", sigmas)
        _count_calls(monkeypatch, problem, "fidelity_and_gradient", gradients)
        result = recovery.optimize_recovery(rho, "fidelity", max_iterations=20)
        assert len(result.trace) == 21
        assert len(values) > len(result.trace)  # some trial points were rejected
        assert sigmas == values
        assert len(set(sigmas)) == len(sigmas)
        # gradients only at accepted points, each once
        assert len(gradients) == len(set(gradients)) <= len(result.trace)

    def test_measured_re_solves_once_per_trial_point(self, monkeypatch):
        rho = states.random_mixed((2, 2, 2), states.rng_from_seed(7), ("B", "C", "R"))
        scores, solves = [], []
        _count_calls(monkeypatch, recovery._RecoveryProblem, "measured_re_score", scores)
        _count_calls(monkeypatch, entropy, "measured_relative_entropy", solves)
        recovery.optimize_recovery(rho, "measured_re", max_iterations=3)
        assert len(solves) == len(scores) > 0
        assert len(set(solves)) == len(solves)

    def test_measured_re_score_decomposes_sigma_once_unchecked(self, monkeypatch, decompositions):
        # sigma(V) is built from checked input: one decomposition, no boundary check
        rho = states.random_mixed((2, 2, 2), states.sample_rng(77, 3), ("B", "C", "R"))
        problem = recovery._RecoveryProblem(rho)
        v = recovery._warm_start_isometry(problem)
        checked = []
        eigh = linalg.eigh
        monkeypatch.setattr(linalg, "eigh", lambda h: checked.append(h) or eigh(h))
        read = decompositions()
        problem.measured_re_score(v)
        assert decompositions() == read + 1
        assert checked == []


class TestAscentSteps:
    def test_failed_quasi_newton_step_falls_back_to_gradient(self, monkeypatch):
        # a quasi-Newton direction scaled so that no halving of it rises
        rho = states.random_mixed(
            (2, 2, 2), states.sample_rng(701, 0), ("B", "C", "R"), ancilla_dim=2
        )
        monkeypatch.setattr(recovery, "_lbfgs_direction", lambda g, pairs: 1e15 * g)
        result = recovery.optimize_recovery(rho, "fidelity", max_iterations=50)
        # every step falls back to the projected gradient and rises
        assert len(result.trace) == 51
        assert not result.converged
        assert np.all(np.diff(result.trace) > 0.0)

    @pytest.mark.parametrize(
        "kind, differentiate, cap",
        [
            ("fidelity", "fidelity_and_gradient", 20),
            ("measured_re", "measured_re_score_and_gradient", 3),
        ],
        ids=["fidelity", "measured_re"],
    )
    def test_capped_search_differentiates_its_last_point(
        self, monkeypatch, kind, differentiate, cap
    ):
        # the dual gap at the point where the cap stops the search needs its gradient
        rho = states.random_mixed(
            (2, 2, 2), states.sample_rng(701, 0), ("B", "C", "R"), ancilla_dim=2
        )
        gradients = []
        _count_calls(monkeypatch, recovery._RecoveryProblem, differentiate, gradients)
        result = recovery.optimize_recovery(rho, kind, max_iterations=cap)
        assert len(result.trace) == cap + 1
        assert len(gradients) == len(set(gradients)) == cap + 1
        assert not result.converged
        tolerance = recovery.DUAL_GAP_TOL if kind == "fidelity" else recovery.MEASURED_RE_GAP_TOL
        assert result.dual_gap >= tolerance


class TestContractions:
    """The matmul contractions against the einsum definitions."""

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 2)], ids=["222", "232", "322"])
    @pytest.mark.parametrize("rank", [1, 2], ids=["pure", "rank2"])
    def test_sigma_tensor_and_pullback_match_einsum(self, dims, rank):
        labels = ("B", "C", "R")
        rng = states.rng_from_seed(31)
        if rank == 1:
            rho = states.random_pure(dims, rng, labels)
        else:
            rho = states.random_mixed(dims, rng, labels, ancilla_dim=rank)
        problem = recovery._RecoveryProblem(rho)
        d_b, d_c, d_r = dims
        d_bc, d_env = d_b * d_c, problem.d_env
        rho_br = states.partial_trace(rho, ["B", "R"]).matrix.reshape(d_b, d_r, d_b, d_r)
        draw = np.random.default_rng(rank * 100 + sum(dims))
        for _ in range(3):
            z = draw.standard_normal(problem.isometry_shape()) + 1j * draw.standard_normal(
                problem.isometry_shape()
            )
            v = np.linalg.qr(z)[0]
            vt = v.reshape(d_bc, d_env, d_b)
            d = d_bc * d_r
            h = draw.standard_normal((d, d)) + 1j * draw.standard_normal((d, d))
            g = (h + h.conj().T) / 2.0

            sigma = np.einsum("oeb,bsct,pec->ospt", vt, rho_br, vt.conj()).reshape(d, d)
            # the pullback of g to V: dF/dV* = M(g) X for the Kraus columns X, arranged like v
            grad = np.einsum(
                "ospt,pec,ctbs->oeb", g.reshape(d_bc, d_r, d_bc, d_r), vt, rho_br
            ).reshape(problem.isometry_shape())
            assert np.abs(problem.sigma_tensor(v) - sigma).max() < 1e-13
            pulled, form = problem.isometry_gradient(v, g)
            assert np.abs(pulled - grad).max() < 1e-13
            assert np.array_equal(form, problem.channel_form(g))


def _random_isometry(shape, draw):
    z = draw.standard_normal(shape) + 1j * draw.standard_normal(shape)
    return np.linalg.qr(z)[0]


def _singular_b_state():
    """A full-rank (2,2,2) state with B embedded in dimension 4: rho_B has rank 2.

    The transpose channel's completion then has Kraus rank 10, above
    d_B d_C = 8; a search confined to that Kraus rank stops at F = 0.9206255
    and D_M = 0.3922599 bits with its gap open.
    """
    rho = states.random_mixed((2, 2, 2), states.rng_from_seed(5), ("B", "C", "R"))
    m = rho.matrix.reshape(2, 4, 2, 4)
    big = np.zeros((4, 4, 4, 4), dtype=complex)
    big[:2, :, :2, :] = m
    return states.MultipartiteState(big.reshape(16, 16), (("B", 4), ("C", 2), ("R", 2)))


def _target(kind, dims):
    """A (B, C, R) target of rank 1, 2 or full, or a pure state mixed with 1e-13 of 1/d."""
    labels = ("B", "C", "R")
    rng = states.rng_from_seed(53)
    if kind == "pure":
        return states.random_pure(dims, rng, labels)
    if kind == "rank2":
        return states.random_mixed(dims, rng, labels, ancilla_dim=2)
    if kind == "full":
        return states.random_mixed(dims, rng, labels)
    pure = states.random_pure(dims, rng, labels)
    mixed = (1.0 - 1e-13) * pure.matrix + 1e-13 * np.eye(pure.dim) / pure.dim
    return states.MultipartiteState(mixed, pure.subsystems)


def _pure_psi(rho):
    """The state vector of a pure (B, C, R) target as a tensor psi[b, c, r], numpy only."""
    return np.linalg.eigh(rho.matrix)[1][:, -1].reshape(rho.dims)


def _pure(dims, key, index):
    return states.random_pure(dims, states.sample_rng(key, index), ("B", "C", "R"))


def _embedded_c_state(seed):
    """A pure (2,3,2) target whose rho_C has rank 2: a (2,2,2) state, C rotated into dimension 3."""
    psi = np.zeros((2, 3, 2), dtype=complex)
    psi[:, :2, :] = _pure_psi(_pure((2, 2, 2), seed, 0))
    rotation = channels.haar_isometry(3, 3, states.sample_rng(seed, 1))
    psi = np.einsum("cd,bdr->bcr", rotation, psi).ravel()
    return states.MultipartiteState(np.outer(psi, psi.conj()), (("B", 2), ("C", 3), ("R", 2)))


def _xi_target(rho):
    """rho_CR of a pure (B, C, R) target as a state on a one-dimensional B, C and R."""
    d_c, d_r = rho.dim_of("C"), rho.dim_of("R")
    rho_cr = states.partial_trace(rho, ["C", "R"]).matrix
    return states.MultipartiteState(rho_cr, (("B", 1), ("C", d_c), ("R", d_r)))


_XI_CASES = [
    pytest.param(_pure((2, 2, 2), 19, 0), id="dc2"),
    pytest.param(_pure((2, 3, 2), 19, 1), id="dc3"),
    pytest.param(_embedded_c_state(19), id="singular_rho_c"),
]


def _assert_gradient_matches_central_differences(problem, v, grad, draw):
    """dF/dV* against central differences of F along three random tangent directions."""
    h = 1e-5
    for _ in range(3):
        z = draw.standard_normal(v.shape) + 1j * draw.standard_normal(v.shape)
        d = recovery._project_tangent(v, z)
        d /= np.linalg.norm(d)
        plus, _ = problem.fidelity_value(recovery._retract(v + h * d))
        minus, _ = problem.fidelity_value(recovery._retract(v - h * d))
        central = (plus - minus) / (2.0 * h)
        analytic = 2.0 * np.real(np.vdot(grad, d))
        assert abs(analytic - central) <= 1e-6 * abs(central)


def _fixed_output_point():
    """rho = (|000><000| + |111><111|) / 2 on (B, C, R), and the isometry of
    the channel that prepares |00>_BC from any input: a point where
    W^dag sigma W is singular, though the transpose channel reaches F = 1."""
    m = np.zeros((8, 8))
    m[0, 0] = m[7, 7] = 0.5
    problem = recovery._RecoveryProblem(states.MultipartiteState(m, (("B", 2), ("C", 2), ("R", 2))))
    v = np.zeros(problem.isometry_shape(), dtype=complex)
    v.reshape(problem.d_bc, problem.d_env, problem.d_b)[0, [0, 1], [0, 1]] = 1.0
    return problem, v


class TestFidelityGradient:
    """The fidelity and its gradient dF/dV* for targets of every rank."""

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2)], ids=["222", "232"])
    @pytest.mark.parametrize("kind", ["pure", "rank2", "full", "near_pure"])
    def test_gradient_matches_central_differences(self, dims, kind):
        rho = _target(kind, dims)
        problem = recovery._RecoveryProblem(rho)
        rank = {"pure": 1, "near_pure": 1, "rank2": 2, "full": rho.dim}[kind]
        assert problem.root_factor.shape[1] == rank
        if kind == "near_pure":
            # not pure to machine precision, yet of rank 1 on its support
            assert rho.spectrum.eigenvalues[-1] < 1.0 - 1e-14
        draw = np.random.default_rng(sum(dims))
        v = _random_isometry(problem.isometry_shape(), draw)
        f, held = problem.fidelity_value(v)
        rebuilt = recovery.reconstruct(rho, problem.channel_from(v))
        assert abs(f - entropy.fidelity(rho, rebuilt)) < 1e-12
        _, grad, _ = problem.fidelity_and_gradient(v, held)
        _assert_gradient_matches_central_differences(problem, v, grad, draw)

    @pytest.mark.parametrize("rho", _XI_CASES)
    def test_xi_problem_gradient_matches_central_differences(self, rho):
        # d_B = 1: the isometry is A, a unit vector, and the channel prepares xi = A A^dag
        problem = recovery._RecoveryProblem(_xi_target(rho))
        d_c = problem.d_c
        assert problem.isometry_shape() == (d_c * d_c, 1)
        draw = np.random.default_rng(d_c)
        a = _random_isometry(problem.isometry_shape(), draw)
        f, held = problem.fidelity_value(a)
        # the value is the fidelity of rho_CR with xi (x) rho_R
        m = a.reshape(d_c, d_c)
        xi = states.MultipartiteState(m @ m.conj().T, (("C", d_c),))
        rho_cr = states.partial_trace(rho, ["C", "R"])
        product = states.tensor(xi, states.partial_trace(rho, ["R"]))
        assert abs(f - entropy.fidelity(rho_cr, product)) < 1e-12
        _, grad, _ = problem.fidelity_and_gradient(a, held)
        _assert_gradient_matches_central_differences(problem, a, grad, draw)

    def test_gradient_reads_only_the_support_of_w_sigma_w(self):
        # sigma = |00><00| (x) rho_R misses |111>, so W^dag sigma W has
        # eigenvalues 0 and 1/4, and g = dF/dsigma on its support is |000><000| / 2
        problem, v = _fixed_output_point()
        f, held = problem.fidelity_value(v)
        assert abs(f - 0.5) < 1e-15
        _, grad, form = problem.fidelity_and_gradient(v, held)
        g = np.zeros((8, 8))
        g[0, 0] = 0.5
        assert np.abs(form - problem.channel_form(g)).max() < 1e-15
        assert np.abs(grad - problem.isometry_gradient(v, g)[0]).max() < 1e-15


class TestRetraction:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 8, 16, 36])
    def test_is_the_q_factor_with_positive_diagonal(self, n, k):
        draw = np.random.default_rng(10 * n + k)
        for _ in range(5):
            z = draw.standard_normal((n, k)) + 1j * draw.standard_normal((n, k))
            q = recovery._retract(z)
            assert np.abs(q.conj().T @ q - np.eye(k)).max() < 1e-13
            # z = q r with r upper triangular, its diagonal real and positive
            r = q.conj().T @ z
            assert np.abs(q @ r - z).max() < 1e-12
            assert np.abs(np.tril(r, -1)).max() < 1e-12
            assert np.all(np.diag(r).real > 0.0)
            assert np.abs(np.diag(r).imag).max() < 1e-12

    @pytest.mark.parametrize("spread", [1e-4, 1e-7], ids=["cond-1e4", "cond-1e7"])
    def test_nearly_parallel_columns_stay_orthonormal(self, spread):
        # ill-conditioned input, cond ~ 2 / spread; one Gram-Schmidt pass
        # leaves ~1e-9 of the first column in the second at cond ~ 1e7
        draw = np.random.default_rng(3)
        z = draw.standard_normal((16, 2)) + 1j * draw.standard_normal((16, 2))
        z[:, 1] = z[:, 0] + spread * z[:, 1]
        q = recovery._retract(z)
        assert np.abs(q.conj().T @ q - np.eye(2)).max() < 1e-13
        ref, r = np.linalg.qr(z)
        d = np.diag(r)
        assert np.abs(q - ref * (d / np.abs(d))).max() < 1e-8

    @pytest.mark.parametrize("n", [4, 32])
    def test_a_single_column_is_normalised(self, n):
        # the xi program of a pure target retracts one column
        draw = np.random.default_rng(n)
        z = draw.standard_normal((n, 1)) + 1j * draw.standard_normal((n, 1))
        assert np.abs(recovery._retract(z) - z / np.linalg.norm(z)).max() < 1e-15

    @pytest.mark.parametrize("k, zero", [(2, 1), (3, 0), (3, 2)])
    def test_zero_column_returns_isometry(self, k, zero):
        draw = np.random.default_rng(k + zero)
        z = draw.standard_normal((16, k)) + 1j * draw.standard_normal((16, k))
        z[:, zero] = 0.0
        q = recovery._retract(z)
        assert np.abs(q.conj().T @ q - np.eye(k)).max() < 1e-13

    def test_completion_branch_warm_start(self):
        rho = _singular_b_state()
        rho_b = states.partial_trace(rho, ["B"]).matrix
        assert np.sum(np.linalg.eigvalsh(rho_b) > 1e-12) == 2
        problem = recovery._RecoveryProblem(rho)
        rho_bc = states.permute(states.partial_trace(rho, ["B", "C"]), ("B", "C"))
        warm = channels.transpose_channel(rho_bc)
        # d_C = 2 operators and 4 x 2 completion operators fit d_env = d_B
        # d_B d_C = 32, so the warm start is the transpose channel's whole stack
        kraus = channels._transpose_kraus(rho_bc)
        assert kraus.shape[2] == 10 and problem.d_env == 32
        v0 = recovery._warm_start_isometry(problem)
        blocks = v0.reshape(problem.d_bc, problem.d_env, problem.d_b)
        assert np.array_equal(blocks[:, :10, :], kraus.transpose(0, 2, 1))
        assert not blocks[:, 10:, :].any()
        assert np.abs(v0.conj().T @ v0 - np.eye(4)).max() < 1e-13
        warm_fid = entropy.fidelity(rho, recovery.reconstruct(rho, warm))
        result = recovery.optimize_recovery(rho, "fidelity", max_iterations=SMALL_BUDGET)
        assert result.trace[0] >= warm_fid - 1e-9
        assert result.best_value >= warm_fid - 1e-9
        assert np.all(np.diff(result.trace) > 0.0)

    @pytest.mark.parametrize("singular", [False, True], ids=["full_rank_b", "singular_b"])
    def test_warm_start_is_the_transpose_channel(self, singular):
        full = states.random_mixed((2, 3, 2), states.rng_from_seed(4), ("B", "C", "R"))
        rho = _singular_b_state() if singular else full
        problem = recovery._RecoveryProblem(rho)
        rho_bc = states.permute(states.partial_trace(rho, ["B", "C"]), ("B", "C"))
        start = problem.channel_from(recovery._warm_start_isometry(problem))
        assert np.abs(start.choi - channels.transpose_channel(rho_bc).choi).max() < 1e-13


def _textbook_direction(g, pairs):
    """H g by the textbook two-loop recursion on tangent vectors, pairs[i] = (s_i, y_i), oldest first."""

    def inner(a, b):
        return float(np.vdot(a, b).real)

    rho = [1.0 / inner(s, y) for s, y in pairs]
    alphas = [0.0] * len(pairs)
    q = g
    for i in reversed(range(len(pairs))):
        alphas[i] = rho[i] * inner(pairs[i, 0], q)
        q = q - alphas[i] * pairs[i, 1]
    s, y = pairs[-1]
    r = (inner(s, y) / inner(y, y)) * q
    for i, (s, y) in enumerate(pairs):
        r = r + (alphas[i] - rho[i] * inner(y, r)) * s
    return r


class TestLbfgsDirection:
    """The Gram-matrix two-loop recursion against the textbook one."""

    @staticmethod
    def _tangent_and_normal(v, draw):
        z = draw.standard_normal(v.shape) + 1j * draw.standard_normal(v.shape)
        t = recovery._project_tangent(v, z)
        return t, z - t

    def _turned_pair(self, v, draw):
        """(s, y) with <s, y> > 0 only through the normal parts that projection removes."""
        t, normal = self._tangent_and_normal(v, draw)
        s, y = t + normal, -t + (2.0 * np.vdot(t, t).real / np.vdot(normal, normal).real) * normal
        assert np.vdot(s, y).real > 0.0
        return s, y

    @pytest.mark.parametrize("shape", [(4, 1), (32, 2), (96, 3)], ids=["4x1", "32x2", "96x3"])
    def test_matches_the_textbook_two_loop(self, shape):
        draw = np.random.default_rng(shape[0])
        v = recovery._retract(draw.standard_normal(shape) + 1j * draw.standard_normal(shape))
        g, _ = self._tangent_and_normal(v, draw)
        pairs, kept = None, []
        for i in range(recovery.LBFGS_MEMORY):
            if i == 2:
                s, y = self._turned_pair(v, draw)
            else:
                (t, normal), (other, normal_y) = self._tangent_and_normal(v, draw), self._tangent_and_normal(v, draw)
                s, y = t + normal, 2.0 * t + 0.5 * other + normal_y
                kept.append(recovery._project_tangent(v, np.stack([s, y])))
            pairs = recovery._transport(v, pairs, s, y, g)
        stack, _ = pairs
        assert len(stack) == len(kept) == recovery.LBFGS_MEMORY - 1
        assert all(np.vdot(s, y).real > 0.0 for s, y in kept)
        direction = recovery._lbfgs_direction(g, pairs)
        reference = _textbook_direction(g, np.array(kept))
        assert np.abs(direction - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_a_lone_pair_that_projection_turns_is_dropped(self):
        draw = np.random.default_rng(5)
        v = recovery._retract(draw.standard_normal((32, 2)) + 1j * draw.standard_normal((32, 2)))
        g, _ = self._tangent_and_normal(v, draw)
        assert recovery._transport(v, None, *self._turned_pair(v, draw), g) is None


class TestSingularMarginal:
    @pytest.mark.parametrize(
        "kind, value, tol",
        [("fidelity", 0.9235736, 1e-7), ("measured_re", 0.3634040, 1e-6)],
        ids=["fidelity", "measured_re"],
    )
    def test_search_over_every_channel_certifies(self, kind, value, tol):
        # confined to Kraus rank d_B d_C, both searches stopped with the gap
        # open (see _singular_b_state)
        result = recovery.optimize_recovery(_singular_b_state(), kind)
        assert result.converged
        assert abs(result.best_value - value) < tol


class TestDualBound:
    """The dual certificate of fidelity searches."""

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 2)], ids=["222", "232", "322"])
    def test_bound_holds_at_random_isometries(self, dims):
        labels = ("B", "C", "R")
        rho = states.random_pure(dims, states.rng_from_seed(41), labels)
        problem = recovery._RecoveryProblem(rho)
        best = recovery.optimize_recovery(rho, "fidelity").best_value
        psi = rho.spectrum.eigenvectors[:, -1]
        overlap_form = problem.channel_form(np.outer(psi, psi.conj()))
        draw = np.random.default_rng(sum(dims))
        d_bc, d_env, d_b = problem.d_bc, problem.d_env, problem.d_b
        for _ in range(10):
            v = _random_isometry(problem.isometry_shape(), draw)
            f, held = problem.fidelity_value(v)
            # F^2 is the quadratic form of M(psi psi^dag) in the Kraus operators
            x = v.reshape(d_bc, d_env, d_b).transpose(1, 0, 2).reshape(d_env, d_bc * d_b)
            form = np.einsum("ei,ij,ej->", x.conj(), overlap_form, x).real
            assert abs(form - f * f) < 1e-13
            _, grad, m = problem.fidelity_and_gradient(v, held)
            gap = 2.0 * f * problem.dual_gap(v, grad, m)
            # tr Y bounds F^2 here and at every other channel, the best found included
            assert gap >= -1e-13
            assert f * f + gap >= best**2 - 1e-13

    def test_a_singular_w_sigma_w_bounds_nothing(self):
        # F grows like sqrt(t) into the kernel of W^dag sigma W, so the
        # support gradient's gap of 0 there is no certificate
        problem, v = _fixed_output_point()
        f, held = problem.fidelity_value(v)
        score, grad, m = problem.fidelity_and_gradient(v, held)
        assert abs(f - 0.5) < 1e-15 and score == math.inf
        assert problem.dual_gap(v, grad, m) < 1e-15
        _, best, _, converged, gap, _ = recovery._ascend(problem, v, "fidelity", recovery.DUAL_GAP_TOL, 0)
        assert best == f and not converged and gap == math.inf

    def test_the_ascent_leaves_a_singular_w_sigma_w_certified(self):
        problem, v = _fixed_output_point()
        _, best, _, converged, gap, _ = recovery._ascend(problem, v, "fidelity", recovery.DUAL_GAP_TOL, 2000)
        assert converged and gap < recovery.DUAL_GAP_TOL
        assert best > 1.0 - 1e-9

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 2)], ids=["222", "232", "322"])
    def test_xi_bound_holds_at_random_xi(self, dims):
        # d_B = 1: M(g) is G = dF/dxi and the gap is lambda_max(G) - tr(G xi)
        rho = states.random_pure(dims, states.rng_from_seed(41), ("B", "C", "R"))
        problem = recovery._RecoveryProblem(_xi_target(rho))
        d_c = dims[1]
        draw = np.random.default_rng(sum(dims))
        for _ in range(5):
            a = _random_isometry((d_c * d_c, 1), draw)
            f, held = problem.fidelity_value(a)
            _, grad, g = problem.fidelity_and_gradient(a, held)
            gap = problem.dual_gap(a, grad, g)
            m = a.reshape(d_c, d_c)
            own = np.linalg.eigvalsh(g)[-1] - np.trace(g @ m @ m.conj().T).real
            assert gap >= -1e-13 and abs(gap - own) < 1e-13
            for _ in range(10):
                other = _random_isometry((d_c * d_c, 1), draw)
                m = other.reshape(d_c, d_c)
                f_other, _ = problem.fidelity_value(other)
                # F(xi') <= F(xi)/2 + tr(G xi') <= F(xi) + gap
                assert f_other <= f / 2.0 + np.trace(g @ m @ m.conj().T).real + 1e-13
                assert f_other <= f + gap + 1e-13

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 2)], ids=["222", "232", "322"])
    def test_channel_form_matches_einsum(self, dims):
        rho = states.random_mixed(dims, states.rng_from_seed(42), ("B", "C", "R"))
        problem = recovery._RecoveryProblem(rho)
        d_b, d_c, d_r = dims
        d_bc, d_env = d_b * d_c, problem.d_env
        rho_br = states.partial_trace(rho, ["B", "R"]).matrix.reshape(d_b, d_r, d_b, d_r)
        draw = np.random.default_rng(sum(dims))
        d = d_bc * d_r
        h = draw.standard_normal((d, d)) + 1j * draw.standard_normal((d, d))
        g = (h + h.conj().T) / 2.0
        m = np.einsum("ospt,ctbs->obpc", g.reshape(d_bc, d_r, d_bc, d_r), rho_br)
        assert np.abs(problem.channel_form(g) - m.reshape(d_bc * d_b, d_bc * d_b)).max() < 1e-13
        # tr(g sigma(V)) is the form summed over the Kraus operators
        v = _random_isometry(problem.isometry_shape(), draw)
        x = v.reshape(d_bc, d_env, d_b).transpose(1, 0, 2).reshape(d_env, d_bc * d_b)
        form = np.einsum("ei,ij,ej->", x.conj(), problem.channel_form(g), x).real
        assert abs(form - np.trace(g @ problem.sigma_tensor(v)).real) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("kind", ["fidelity", "renyi_half"])
    def test_converged_pure_searches_are_certified(self, kind, seed):
        rho = states.random_pure((2, 2, 2), states.sample_rng(700, seed), ("B", "C", "R"))
        result = recovery.optimize_recovery(rho, kind)
        assert result.converged
        assert result.dual_gap < recovery.DUAL_GAP_TOL

    def test_open_gap_is_not_convergence(self):
        # two steps of the search over every channel from the transpose
        # channel leave the gap open
        rho = states.random_pure((2, 2, 2), states.sample_rng(700, 0), ("B", "C", "R"))
        problem = recovery._RecoveryProblem(rho)
        v0 = recovery._warm_start_isometry(problem)
        _, _, trace, converged, gap, _ = recovery._ascend(
            problem, v0, "fidelity", recovery.DUAL_GAP_TOL, 2
        )
        assert len(trace) == 3
        assert not converged
        assert gap >= recovery.DUAL_GAP_TOL
        # so do two xi steps and two channel steps from the channel they reach
        result = recovery.optimize_recovery(rho, "fidelity", max_iterations=2)
        assert not result.converged
        assert result.dual_gap >= recovery.DUAL_GAP_TOL

    def test_every_fidelity_search_reports_a_gap(self):
        labels = ("B", "C", "R")
        mixed = states.random_mixed((2, 2, 2), states.sample_rng(701, 0), labels, ancilla_dim=2)
        result = recovery.optimize_recovery(mixed, "fidelity")
        assert result.converged and result.dual_gap < recovery.DUAL_GAP_TOL
        pure = states.random_pure((2, 2, 2), states.sample_rng(700, 0), labels)
        capped = recovery.optimize_recovery(pure, "measured_re", max_iterations=1)
        assert math.isfinite(capped.dual_gap) and capped.dual_gap >= 0.0
        assert not capped.converged

    @pytest.mark.parametrize(
        "i, floor", [(0, 0.92955), (1, 0.95824), (2, 0.92974), (3, 0.93984)]
    )
    def test_search_leaves_the_warm_start_kraus_rank(self, i, floor):
        # confined to the transpose channel's Kraus rank, these full-rank
        # searches stopped at 0.92824, 0.95514, 0.92607 and 0.93609 with
        # the gap open by 0.09 to 0.15
        rho = states.random_mixed((2, 2, 2), states.sample_rng(77, i), ("B", "C", "R"))
        result = recovery.optimize_recovery(rho, "fidelity")
        assert result.best_value >= floor
        assert result.converged and result.dual_gap < recovery.DUAL_GAP_TOL

    def test_warm_start_fills_every_kraus_block(self):
        # the search starts at the transpose channel, and its first step
        # sets every Kraus column the transpose channel leaves at zero
        rho = states.random_pure((2, 2, 2), states.rng_from_seed(2), ("B", "C", "R"))
        problem = recovery._RecoveryProblem(rho)
        rho_bc = states.permute(states.partial_trace(rho, ["B", "C"]), ("B", "C"))
        rank = channels._transpose_kraus(rho_bc).shape[2]
        assert rank < problem.d_env
        v0 = recovery._warm_start_isometry(problem)
        columns = np.linalg.norm(problem.kraus_columns(v0), axis=0)
        assert np.all(columns[:rank] > 0.0) and columns[rank:].max() < 1e-15
        # one step of the search over every channel from there
        v, _, trace, _, _, _ = recovery._ascend(problem, v0, "fidelity", recovery.DUAL_GAP_TOL, 1)
        assert len(trace) == 2
        assert np.linalg.matrix_rank(problem.channel_from(v).choi) == problem.d_env

    def test_widening_sets_the_zero_columns_along_the_slack(self):
        rho = _singular_b_state()
        problem = recovery._RecoveryProblem(rho)
        v = recovery._warm_start_isometry(problem)
        _, grad, m = problem.fidelity_and_gradient(v, problem.fidelity_value(v)[1])
        direction = problem.widening(v, grad, m)
        x, fill = problem.kraus_columns(v), problem.kraus_columns(direction)
        assert np.abs(fill[:, :10]).max() == 0.0
        assert np.allclose(np.linalg.norm(fill[:, 10:], axis=0), recovery.WIDENING_SCALE)
        # the 22 new columns span the complement of the ten Kraus operators,
        # ordered by the rate x^dag S x at which each raises tr(g sigma)
        assert np.abs(x[:, :10].conj().T @ fill[:, 10:]).max() < 1e-15
        assert np.linalg.matrix_rank(x + fill) == problem.d_env
        off = fill[:, 10:] / recovery.WIDENING_SCALE
        rates = off.conj().T @ problem.dual_slack(v, grad, m) @ off
        assert np.abs(rates - np.diag(np.diag(rates))).max() < 1e-12
        assert np.all(np.diff(np.diag(rates).real) <= 1e-12)
        # the gradient vanishes on zero columns, so the score moves at second order only
        assert abs(np.vdot(grad, direction).real) < 1e-15

    def test_widening_is_zero_at_the_xi_start(self, monkeypatch):
        # the xi ascent starts at a full-rank A, which has no zero Kraus
        # column; the channel ascent from the uncertified channel of the
        # second xi (cap 2) widens its d_C Kraus columns
        fills = []
        widening = recovery._RecoveryProblem.widening

        def recorded(problem, v, grad, m):
            fills.append((problem.d_b, widening(problem, v, grad, m)))
            return fills[-1][1]

        monkeypatch.setattr(recovery._RecoveryProblem, "widening", recorded)
        recovery.optimize_recovery(_pure((2, 2, 2), 700, 0), "fidelity", max_iterations=2)
        (xi_b, xi_fill), (b, fill) = fills
        assert xi_b == 1 and xi_fill.shape == (4, 1)
        assert np.array_equal(xi_fill, np.zeros((4, 1)))
        assert b == 2 and fill.any()

    def test_former_cap_hitter_certifies(self):
        # the certificate benchmark's unit 22, which projected gradient ran
        # to its 2000-step cap at F = 0.8581571282
        rho = states.random_pure((2, 2, 2), states.sample_rng(14114921, 22), labels=("B", "C", "R"))
        result = recovery.optimize_recovery(rho, "fidelity")
        assert result.converged and result.dual_gap < recovery.DUAL_GAP_TOL
        assert len(result.trace) - 1 <= 100
        assert result.best_value >= 0.8581571282


def _hooke_jeeves(point, x0, step_tolerance=1e-11):
    """Maximum of ``point`` (x -> (x pulled back, value)) by a shrinking pattern search.

    Steps along the axes, takes the first that rises, repeats the step that
    rose as a pattern move, and halves the step when no axis step rises.
    """
    axes = np.eye(len(x0))

    def explore(x, f, h):
        for axis in axes:
            for trial, f_trial in (point(x + h * axis), point(x - h * axis)):
                if f_trial > f:
                    x, f = trial, f_trial
                    break
        return x, f

    base, f_base = point(x0)
    h = 0.5
    while h > step_tolerance:
        x, f = explore(base, f_base, h)
        if f <= f_base:
            h /= 2.0
        while f > f_base:
            # pattern move: repeat the step that rose, and explore around it
            jump = 2.0 * x - base
            base, f_base = x, f
            x, f = explore(*point(jump), h)
    return f_base


def _uhlmann_parts(rho):
    """W[(c,r),b] = psi[b,c,r] and rho_R of a pure (B, C, R) target, numpy only:
    F(rho_CR, xi (x) rho_R) = tr sqrt(W^dag (xi (x) rho_R) W)."""
    psi = _pure_psi(rho)
    d_b, d_c, d_r = psi.shape
    w = psi.transpose(1, 2, 0).reshape(d_c * d_r, d_b)
    return w, np.einsum("bcr,bcs->rs", psi, psi.conj())


def _uhlmann_fidelity(w, xi, rho_r):
    k = w.conj().T @ np.kron(xi, rho_r) @ w
    return np.sqrt(np.clip(np.linalg.eigvalsh(k), 0.0, None)).sum()


def _bloch_oracle(rho):
    """max over qubit xi_C of F(rho_CR, xi (x) rho_R) by a pattern search.

    Uses numpy only, and neither search nor any dual bound. xi = (1 + n.sigma)/2
    over the Bloch ball. F is concave in n, so a Hooke-Jeeves search with
    trial points outside the ball pulled back onto its surface climbs to
    the maximum, which often lies on the surface.
    """
    w, rho_r = _uhlmann_parts(rho)
    assert w.shape[0] == 2 * rho_r.shape[0]
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

    def point(n):
        n = n / max(1.0, np.linalg.norm(n))
        xi = (np.eye(2) + np.einsum("i,ijk->jk", n, paulis)) / 2.0
        return n, _uhlmann_fidelity(w, xi, rho_r)

    return _hooke_jeeves(point, np.zeros(3))


def _density_oracle(rho):
    """max over every xi_C of F(rho_CR, xi (x) rho_R), any d_C, by a pattern search.

    Uses numpy only, and neither search nor any dual bound. xi = A A^dag /
    tr(A A^dag) over the 2 d_C^2 real parameters of a d_C x d_C matrix A,
    from A = 1. Unlike a Bloch vector at d_C >= 3, this needs no pullback
    onto the boundary of the density matrices, where an axis search stalls.
    """
    w, rho_r = _uhlmann_parts(rho)
    d_c = w.shape[0] // rho_r.shape[0]

    def point(x):
        a = (x[: d_c * d_c] + 1j * x[d_c * d_c :]).reshape(d_c, d_c)
        xi = a @ a.conj().T
        return x, _uhlmann_fidelity(w, xi / np.trace(xi).real, rho_r)

    return _hooke_jeeves(point, np.concatenate([np.eye(d_c).ravel(), np.zeros(d_c * d_c)]))


def _product_c_state(dims, seed):
    """A pure (B, C, R) target with C in a pure state, in product with BR: F = 1."""
    rng = states.sample_rng(seed, 0)
    phi = states.random_pure((dims[1],), rng, ("C",))
    br = states.random_pure((dims[0], dims[2]), rng, ("B", "R"))
    return states.permute(states.tensor(phi, br), ("B", "C", "R"))


def _count_ascents(monkeypatch):
    """Log (shape of the start, evaluations) for each ``_ascend`` call."""
    runs = []
    ascend = recovery._ascend

    def counted(*args, **kwargs):
        found = ascend(*args, **kwargs)
        runs.append((args[1].shape, found[-1]))
        return found

    monkeypatch.setattr(recovery, "_ascend", counted)
    return runs


def _transpose_start_search(rho):
    """F, converged and gap of the fidelity search over channels from the transpose channel."""
    problem = recovery._RecoveryProblem(rho)
    v0 = recovery._warm_start_isometry(problem)
    _, f, _, converged, gap, _ = recovery._ascend(problem, v0, "fidelity", recovery.DUAL_GAP_TOL, 2000)
    return f, converged, gap


def _no_transpose_start(monkeypatch):
    def refuse(problem):
        raise AssertionError("a pure-target search started at the transpose channel")

    monkeypatch.setattr(recovery, "_warm_start_isometry", refuse)


def _panel_pure(k):
    """Pure unit 2k of the certificate benchmark's panel."""
    return _pure((2, 2, 2), 14114921, 2 * k)


class TestUhlmannOracle:
    """The pure-target route, the search over every channel and an independent oracle agree."""

    @pytest.mark.parametrize(
        "rho",
        [pytest.param(_panel_pure(k), id=f"panel{2 * k}") for k in range(12)]
        + [
            pytest.param(_pure(dims, 17, i), id=name)
            for i, (dims, name) in enumerate([((4, 2, 2), "422"), ((2, 2, 3), "223")])
        ],
    )
    def test_route_matches_channel_search_and_bloch_oracle(self, rho):
        route = recovery.optimize_recovery(rho, "fidelity")
        stiefel, converged, gap = _transpose_start_search(rho)
        oracle = _bloch_oracle(rho)
        assert route.converged and converged and gap < recovery.DUAL_GAP_TOL
        assert abs(route.best_value - oracle) < 1e-8
        assert abs(stiefel - oracle) < 1e-8

    @pytest.mark.parametrize("index", [7, 8])
    def test_route_matches_density_oracle_at_qutrit_c(self, index):
        rho = _pure((2, 3, 2), 18, index)
        route = recovery.optimize_recovery(rho, "fidelity")
        assert route.converged
        assert abs(route.best_value - _density_oracle(rho)) < 1e-8

    @pytest.mark.parametrize("dims", [(2, 3, 2), (3, 3, 2), (2, 3, 3)], ids=["232", "332", "233"])
    def test_route_matches_channel_search_at_qutrit_c(self, dims):
        rho = _pure(dims, 18, sum(dims))
        route = recovery.optimize_recovery(rho, "fidelity")
        stiefel, converged, _ = _transpose_start_search(rho)
        assert route.converged and converged
        assert abs(route.best_value - stiefel) < 1e-8


class TestUhlmannRoute:
    """Which searches take the pure-target route, and what they report."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["fidelity", "renyi_half"])
    def test_pure_targets_certify_on_the_route(self, monkeypatch, kind, seed):
        rho = _pure((2, 2, 2), 700, seed)
        _no_transpose_start(monkeypatch)
        runs = _count_ascents(monkeypatch)
        result = recovery.optimize_recovery(rho, kind)
        # the ascent over xi_C, then one over channels that certifies its
        # start, the channel of the last xi, with one evaluation and no step
        assert [shape for shape, _ in runs] == [(4, 1), (32, 2)]
        assert runs[1][1] == 1 and len(result.trace) == 1
        assert result.converged and result.dual_gap < recovery.DUAL_GAP_TOL
        f_route = entropy.fidelity(rho, recovery.reconstruct(rho, result.best_channel))
        f_best = result.best_value if kind == "fidelity" else 2.0 ** (-result.best_value / 2.0)
        assert abs(f_route - f_best) <= 1e-12
        rho_bc = states.permute(states.partial_trace(rho, ["B", "C"]), ("B", "C"))
        f_transpose = entropy.fidelity(
            rho, recovery.reconstruct(rho, channels.transpose_channel(rho_bc))
        )
        assert f_best >= f_transpose - 1e-9

    @pytest.mark.parametrize(
        "rho, value",
        [
            pytest.param(_product_c_state((2, 2, 2), 3), 1.0, id="product_c_222"),
            pytest.param(_product_c_state((2, 3, 2), 4), 1.0, id="product_c_232"),
            pytest.param(_embedded_c_state(5), None, id="rank2_rho_c_in_dc3"),
        ],
    )
    def test_boundary_targets_certify_on_the_route(self, monkeypatch, rho, value):
        stiefel, *_ = _transpose_start_search(rho)
        runs = _count_ascents(monkeypatch)
        result = recovery.optimize_recovery(rho, "fidelity")
        # the xi ascent, then a channel ascent that certifies at its start
        assert len(runs) == 2 and runs[1][1] == 1 and len(result.trace) == 1
        assert result.converged and result.dual_gap < recovery.DUAL_GAP_TOL
        assert abs(result.best_value - (stiefel if value is None else value)) < 1e-8

    def test_rank_two_and_measured_re_never_take_the_route(self, monkeypatch):
        def no_route(*args):
            raise AssertionError("the search took the pure-target route")

        monkeypatch.setattr(recovery, "_uhlmann_start", no_route)
        rank2 = states.random_mixed(
            (2, 2, 2), states.sample_rng(701, 0), ("B", "C", "R"), ancilla_dim=2
        )
        for kind in ("fidelity", "renyi_half"):
            assert recovery.optimize_recovery(rank2, kind, max_iterations=5).evaluations > 0
        pure = _pure((2, 2, 2), 700, 0)
        assert recovery.optimize_recovery(pure, "measured_re", max_iterations=1).evaluations > 0

    @pytest.mark.parametrize(
        "cap, falls_back", [(2000, False), (2, True)], ids=["route", "fallback"]
    )
    def test_evaluations_count_the_route_and_the_fallback(self, monkeypatch, cap, falls_back):
        # at cap 2 the channel of the second xi is not certified, and the
        # channel ascent climbs it, with the same cap
        rho = _pure((2, 2, 2), 700, 0)
        values, calls = [], []
        _count_calls(monkeypatch, recovery._RecoveryProblem, "fidelity_value", values)
        ascend = recovery._ascend

        def counted(*args, **kwargs):
            before = len(values)
            found = ascend(*args, **kwargs)
            calls.append((len(values) - before, found[-1]))
            return found

        monkeypatch.setattr(recovery, "_ascend", counted)
        result = recovery.optimize_recovery(rho, "fidelity", max_iterations=cap)
        # the xi ascent, then the channel ascent: each counts its fidelity_value calls
        (xi_calls, xi_evaluations), (channel_calls, channel_evaluations) = calls
        assert xi_calls == xi_evaluations > 1 and channel_calls == channel_evaluations
        assert channel_calls > 1 if falls_back else channel_calls == 1
        assert result.evaluations == len(values) == xi_calls + channel_calls
        assert result.converged == (not falls_back)

    def test_uncertified_uhlmann_channel_is_climbed_from_where_it_stands(self, monkeypatch):
        # found by a scan of (2,2,2) pure targets: the channel of the last xi
        # keeps a dual gap of 7.5e-9 however far xi converges (xi gap
        # tolerances 1e-9 to 1e-14); searching again from the transpose
        # channel would take 34 evaluations in all
        rho = _pure((2, 2, 2), 11, 11345)
        _no_transpose_start(monkeypatch)
        runs = _count_ascents(monkeypatch)
        result = recovery.optimize_recovery(rho, "fidelity")
        assert result.converged and result.dual_gap < recovery.DUAL_GAP_TOL
        assert [shape for shape, _ in runs] == [(4, 1), (32, 2)]
        assert runs[1][1] > 1
        assert result.evaluations < 34


class TestRenyiHalfObjective:
    def test_markov_state_reaches_zero(self):
        sigma = markov.markov_state(markov.random_markov_spec(states.rng_from_seed(7)))
        result = recovery.optimize_recovery(sigma, "renyi_half", max_iterations=SMALL_BUDGET)
        assert result.best_value < 1e-5

    def test_trace_non_increasing(self):
        rho = states.random_pure((2, 2, 2), states.rng_from_seed(8), ("B", "C", "R"))
        result = recovery.optimize_recovery(rho, "renyi_half", max_iterations=SMALL_BUDGET)
        assert np.all(np.diff(np.array(result.trace)) <= 1e-10)
        re_eval = entropy.renyi_half(rho, recovery.reconstruct(rho, result.best_channel))
        assert abs(re_eval - result.best_value) < 1e-7


class TestMeasuredReObjective:
    def test_markov_state_plus_transpose_channel_is_zero(self):
        sigma = markov.markov_state(markov.random_markov_spec(states.rng_from_seed(9)))
        rho_bc = states.permute(states.partial_trace(sigma, ["B", "C"]), ("B", "C"))
        t = channels.transpose_channel(rho_bc)
        value = entropy.measured_relative_entropy(sigma, recovery.reconstruct(sigma, t)).value_bits
        assert abs(value) < 1e-6

    def test_bounded_by_relative_entropy(self):
        rho = states.random_pure((2, 2, 2), states.rng_from_seed(10), ("B", "C", "R"))
        rho_bc = states.permute(states.partial_trace(rho, ["B", "C"]), ("B", "C"))
        t = channels.transpose_channel(rho_bc)
        sigma = recovery.reconstruct(rho, t)
        ms = entropy.measured_relative_entropy(rho, sigma).value_bits
        assert ms <= entropy.relative_entropy(rho, sigma) + 1e-7

    def test_attach_channel_on_classical_example(self):
        # attaching the C marginal reproduces I(C:R) for the diagonal family
        d, eps = 4, 0.2
        rho = states.permute(states.classical_example_state(d, eps), ("B", "C", "R"))
        rho_c = states.partial_trace(rho, ["C"])
        d_b = 2
        v = np.zeros((d_b * d, d_b), dtype=complex)  # placeholder shape check below
        # build the attach channel as pi -> pi (x) rho_C from a Stinespring
        # dilation of rho_C = sum_k q_k |k><k|: V|i> = sum_k sqrt(q_k)|i,k,k>
        q = np.diag(rho_c.matrix).real
        env = d
        v = np.zeros((d_b * d * env, d_b), dtype=complex)
        for i in range(d_b):
            for k in range(d):
                v[(i * d + k) * env + k, i] = math.sqrt(q[k])
        ch = channels.stinespring_to_channel(v, (("B", d_b),), (("B", d_b), ("C", d)), env)
        ms = entropy.measured_relative_entropy(rho, recovery.reconstruct(rho, ch)).value_bits
        i_cr = entropy.cmi(rho)  # equals I(C:R) since B is uncorrelated
        assert abs(ms - i_cr) < 1e-5

    def test_optimize_small_budget_runs_and_certifies(self):
        # single block with d_L = 1 keeps d_B = 2 so the search stays small
        rng = states.rng_from_seed(11)
        left = states.random_mixed((2, 1), rng, ("C", "BL"))
        right = states.random_mixed((2, 2), rng, ("BR", "R"))
        sigma = markov.markov_state(markov.MarkovSpec((markov.MarkovBlock(1.0, left, right),)))
        result = recovery.optimize_recovery(sigma, "measured_re", max_iterations=2)
        # the transpose warm start alone already achieves zero for a Markov state
        assert result.best_value < 1e-5
        rebuilt = recovery.reconstruct(sigma, result.best_channel)
        re_eval = entropy.measured_relative_entropy(sigma, rebuilt).value_bits
        assert abs(re_eval - result.best_value) < 1e-7

    def test_envelope_gradient_matches_central_differences(self):
        # the gradient is only as exact as the inner solve's witness
        labels = ("B", "C", "R")
        rho = states.random_mixed((2, 2, 2), states.rng_from_seed(7), labels)
        problem = recovery._RecoveryProblem(rho)
        v = recovery._warm_start_isometry(problem)
        _, grad, _ = problem.measured_re_score_and_gradient(v, problem.measured_re_score(v)[1])
        rng = np.random.default_rng(0)
        h = 1e-5
        for _ in range(3):
            z = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
            d = recovery._project_tangent(v, z)
            d /= np.linalg.norm(d)
            plus, _ = problem.measured_re_score(recovery._retract(v + h * d))
            minus, _ = problem.measured_re_score(recovery._retract(v - h * d))
            central = (plus - minus) / (2.0 * h)
            analytic = 2.0 * np.real(np.vdot(grad, d))
            assert abs(analytic - central) <= 1e-2 * abs(central)

    @pytest.mark.parametrize("seed", [7, 13, 21, 22, 23])
    def test_inner_solve_converges_at_the_warm_start(self, seed):
        rho = states.random_mixed((2, 2, 2), states.rng_from_seed(seed), ("B", "C", "R"))
        problem = recovery._RecoveryProblem(rho)
        _, sol = problem.measured_re_score(recovery._warm_start_isometry(problem))
        assert sol.converged

    @pytest.mark.parametrize("seed", [13, 22, 23])
    def test_converged_envelope_gradient_is_exact(self, seed):
        # these seeds missed central differences by up to 2e-2 relative when
        # the inner solve stopped unconverged at its step cap
        rho = states.random_mixed((2, 2, 2), states.rng_from_seed(seed), ("B", "C", "R"))
        problem = recovery._RecoveryProblem(rho)
        v = recovery._warm_start_isometry(problem)
        _, grad, _ = problem.measured_re_score_and_gradient(v, problem.measured_re_score(v)[1])
        rng = np.random.default_rng(0)
        h = 1e-5
        for _ in range(3):
            z = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
            d = recovery._project_tangent(v, z)
            d /= np.linalg.norm(d)
            plus, _ = problem.measured_re_score(recovery._retract(v + h * d))
            minus, _ = problem.measured_re_score(recovery._retract(v - h * d))
            central = (plus - minus) / (2.0 * h)
            analytic = 2.0 * np.real(np.vdot(grad, d))
            assert abs(analytic - central) <= 5e-4 * abs(central)

    @pytest.mark.parametrize(
        "seed, value",
        [(7, 0.1644733097), (13, 0.2334653535), (21, 0.3111409295), (22, 0.2741837558),
         (23, 0.2810313572)],
    )
    def test_search_certifies(self, seed, value):
        # reference values from a stop rule that does not read the bound
        # (less than 1e-11 change over 10 accepted steps)
        rho = states.random_mixed((2, 2, 2), states.rng_from_seed(seed), ("B", "C", "R"))
        result = recovery.optimize_recovery(rho, "measured_re")
        assert result.converged and result.dual_gap < recovery.MEASURED_RE_GAP_TOL
        assert abs(result.best_value - value) < 1e-9
        # the bound at the warm start already lies above the optimum's score
        problem = recovery._RecoveryProblem(rho)
        v = recovery._warm_start_isometry(problem)
        score, grad, m = problem.measured_re_score_and_gradient(v, problem.measured_re_score(v)[1])
        assert score + problem.dual_gap(v, grad, m) >= -value

    def test_search_on_non_markov_state(self):
        rho = states.random_mixed((2, 2, 2), states.rng_from_seed(7), ("B", "C", "R"))
        result = recovery.optimize_recovery(rho, "measured_re", max_iterations=20)
        trace = np.array(result.trace)
        assert np.all(np.diff(trace) <= 0.0)
        assert result.best_value <= trace[0]
        assert result.best_value <= entropy.cmi(rho) + 1e-4
        # the default solver runs the inner solve's two starts, for longer
        rebuilt = recovery.reconstruct(rho, result.best_channel)
        re_eval = entropy.measured_relative_entropy(rho, rebuilt).value_bits
        assert re_eval >= result.best_value - 1e-9


class TestReconstruct:
    # transpose_channel conditions on the first subsystem of its input, so
    # the BC marginal of a state that lists C before B gives a map C -> CB
    @pytest.mark.parametrize(
        "rho",
        [
            states.classical_example_state(2, 0.3),
            states.random_pure((2, 2, 2), states.sample_rng(5, 1), ("C", "B", "R")),
        ],
        ids=["classical", "pure-cbr"],
    )
    def test_rejects_channel_not_from_b_to_bc(self, rho):
        rho_bc = states.partial_trace(rho, ["B", "C"])
        with pytest.raises(ValueError, match="B -> BC"):
            recovery.reconstruct(rho, channels.transpose_channel(rho_bc))
        t = channels.transpose_channel(states.permute(rho_bc, ("B", "C")))
        rel = entropy.relative_entropy(rho, recovery.reconstruct(rho, t))
        expected = experiments.transpose_reconstruction_metrics(rho)["relent_transpose_bits"]
        assert rel == pytest.approx(expected, abs=1e-12)


class TestResultSerialization:
    def test_json_round_trip_channel(self):
        rho = states.random_pure((2, 2, 2), states.rng_from_seed(12), ("B", "C", "R"))
        result = recovery.optimize_recovery(rho, "fidelity", max_iterations=SMALL_BUDGET)
        doc = json.loads(json.dumps(recovery.result_to_json_dict(result)))
        assert doc["objective_kind"] == "fidelity"
        assert isinstance(doc["trace"], list) and len(doc["trace"]) == len(result.trace)
        loaded = channels.from_json_dict(doc["best_channel"])
        assert np.abs(loaded.choi - result.best_channel.choi).max() < 1e-12
        assert abs(doc["best_value"] - result.best_value) < 1e-15
        assert doc["dual_gap"] == result.dual_gap < recovery.DUAL_GAP_TOL

    def test_evaluations_count_every_trial_point(self, monkeypatch):
        rho = states.random_mixed((2, 2, 2), states.sample_rng(77, 3), ("B", "C", "R"))
        values = []
        _count_calls(monkeypatch, recovery._RecoveryProblem, "fidelity_value", values)
        result = recovery.optimize_recovery(rho, "fidelity")
        assert result.evaluations == len(values) >= len(result.trace)
        assert recovery.result_to_json_dict(result)["evaluations"] == result.evaluations


class TestInnerConvergence:
    @pytest.mark.parametrize("inner_budget", [1, recovery.INNER_MEASURED_RE_ITERATIONS])
    def test_count_matches_the_inner_solves(self, monkeypatch, inner_budget):
        rho = states.random_mixed((2, 2, 2), states.rng_from_seed(7), ("B", "C", "R"))
        monkeypatch.setattr(recovery, "INNER_MEASURED_RE_ITERATIONS", inner_budget)
        flags = []
        solve = entropy.measured_relative_entropy

        def logged(*args, **kwargs):
            sol = solve(*args, **kwargs)
            flags.append(sol.converged)
            return sol

        monkeypatch.setattr(entropy, "measured_relative_entropy", logged)
        result = recovery.optimize_recovery(rho, "measured_re", max_iterations=5)
        assert len(flags) == result.evaluations
        assert result.inner_nonconverged == flags.count(False)
        assert recovery.result_to_json_dict(result)["inner_nonconverged"] == result.inner_nonconverged
        if inner_budget == 1:
            # one Newton step from each start leaves every inner solve open
            assert result.inner_nonconverged > 0

    def test_budget_covers_every_inner_solve_of_a_pure_target(self):
        # some inner solves of this search take 21 Newton steps from their better start
        rho = states.random_pure((3, 2, 2), states.rng_from_seed(0), ("B", "C", "R"))
        result = recovery.optimize_recovery(rho, "measured_re")
        assert result.converged and result.inner_nonconverged == 0

    def test_fidelity_search_has_no_inner_solves(self):
        rho = states.random_pure((2, 2, 2), states.rng_from_seed(12), ("B", "C", "R"))
        result = recovery.optimize_recovery(rho, "fidelity", max_iterations=SMALL_BUDGET)
        assert result.inner_nonconverged is None
        assert recovery.result_to_json_dict(result)["inner_nonconverged"] is None


class TestLeakingTransposeStart:
    # on pure (2,2,3) targets rho leaks out of the support of the transpose
    # channel's reconstruction, so D_M is +inf there and gives no gradient;
    # a point of D_M = +inf that bounded the search would certify it with
    # gap -inf wherever it stood
    @staticmethod
    def search(monkeypatch, seed, start):
        rho = states.random_pure((2, 2, 3), states.rng_from_seed(seed), ("B", "C", "R"))
        if start == "transpose":
            monkeypatch.setattr(recovery, "_covering_isometry", lambda problem, v: v)
        scored = []
        score_and_gradient = recovery._RecoveryProblem.measured_re_score_and_gradient

        def logged(self, v, sol):
            out = score_and_gradient(self, v, sol)
            scored.append((sol.value_bits, out[0]))
            return out

        monkeypatch.setattr(recovery._RecoveryProblem, "measured_re_score_and_gradient", logged)
        return rho, recovery.optimize_recovery(rho, "measured_re"), scored

    @pytest.mark.parametrize("seed", [7, 300, 301, 302, 303])
    def test_the_transpose_channel_leaks(self, seed):
        rho = states.random_pure((2, 2, 3), states.rng_from_seed(seed), ("B", "C", "R"))
        problem = recovery._RecoveryProblem(rho)
        v = recovery._warm_start_isometry(problem)
        score, sol = problem.measured_re_score(v)
        assert score == -math.inf and sol.value_bits == math.inf and sol.converged
        assert problem.measured_re_score_and_gradient(v, sol)[0] == math.inf
        assert math.isfinite(problem.measured_re_score(recovery._covering_isometry(problem, v))[0])

    @pytest.mark.parametrize(
        "seed, start",
        [(7, "covering"), (300, "covering"), (301, "covering"), (302, "covering"), (303, "covering"),
         (7, "transpose")],
    )
    def test_search_stays_under_the_cmi(self, monkeypatch, seed, start):
        rho, result, scored = self.search(monkeypatch, seed, start)
        assert result.best_value <= entropy.cmi(rho) + experiments.CERTIFICATE_TOL_BITS
        # it certifies only with a finite gap
        assert not result.converged or 0.0 <= result.dual_gap < recovery.MEASURED_RE_GAP_TOL
        assert math.isfinite(result.dual_gap) and math.isfinite(result.best_value)
        # a point of D_M = +inf never lowers the bound: its score is +inf
        assert all(score == math.inf for value, score in scored if value == math.inf)
        assert any(value == math.inf for value, _ in scored) == (start == "transpose")
