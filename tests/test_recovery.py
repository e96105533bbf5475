import json
import math

import numpy as np
import pytest

from cmirecon import channels, entropy, markov, recovery, states

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

    # rank-2 mixed states take the sqrt/eigh branch of the fidelity, pure
    # states the rank-1 shortcut
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
    measured_relative_entropy(rho, sigma).
    """
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        log.append(np.asarray(args[1]).tobytes())
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

    @pytest.mark.parametrize("kind, cap", [("fidelity", 20), ("measured_re", 3)])
    def test_no_gradient_where_the_cap_stops_the_search(self, monkeypatch, kind, cap):
        rho = states.random_mixed(
            (2, 2, 2), states.sample_rng(701, 0), ("B", "C", "R"), ancilla_dim=2
        )
        name = "fidelity_and_gradient" if kind == "fidelity" else "measured_re_score_and_gradient"
        gradients = []
        _count_calls(monkeypatch, recovery._RecoveryProblem, name, gradients)
        result = recovery.optimize_recovery(rho, kind, max_iterations=cap)
        assert len(result.trace) == cap + 1
        assert len(gradients) == cap


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
            grad = np.einsum(
                "ospt,pec,ctbs->oeb", g.reshape(d_bc, d_r, d_bc, d_r), vt, rho_br
            ).reshape(problem.isometry_shape())
            assert np.abs(problem.sigma_tensor(v) - sigma).max() < 1e-13
            assert np.abs(problem.pullback(v, g) - grad).max() < 1e-13


def _random_isometry(shape, draw):
    z = draw.standard_normal(shape) + 1j * draw.standard_normal(shape)
    return np.linalg.qr(z)[0]


def _singular_b_state():
    """A full-rank (2,2,2) state with B embedded in dimension 4: rho_B has rank 2.

    The transpose channel's completion then has Kraus rank 10, above
    d_env = 8, so the warm start truncates its Kraus stack.
    """
    rho = states.random_mixed((2, 2, 2), states.rng_from_seed(5), ("B", "C", "R"))
    m = rho.matrix.reshape(2, 4, 2, 4)
    big = np.zeros((4, 4, 4, 4), dtype=complex)
    big[:2, :, :2, :] = m
    return states.MultipartiteState(big.reshape(16, 16), (("B", 4), ("C", 2), ("R", 2)))


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

    def test_nearly_parallel_columns_stay_orthonormal(self):
        # ill-conditioned input, cond ~ 1e4
        draw = np.random.default_rng(3)
        z = draw.standard_normal((16, 2)) + 1j * draw.standard_normal((16, 2))
        z[:, 1] = z[:, 0] + 1e-4 * z[:, 1]
        q = recovery._retract(z)
        assert np.abs(q.conj().T @ q - np.eye(2)).max() < 1e-13
        ref, r = np.linalg.qr(z)
        d = np.diag(r)
        assert np.abs(q - ref * (d / np.abs(d))).max() < 1e-8

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
        assert len(channels.kraus_operators(warm)) > problem.d_env
        v0 = recovery._warm_start_isometry(problem)
        assert np.abs(v0.conj().T @ v0 - np.eye(4)).max() < 1e-13
        warm_fid = entropy.fidelity(rho, recovery.reconstruct(rho, warm))
        result = recovery.optimize_recovery(rho, "fidelity", max_iterations=SMALL_BUDGET)
        assert result.trace[0] >= warm_fid - 1e-9
        assert result.best_value >= warm_fid - 1e-9
        assert np.all(np.diff(result.trace) > 0.0)


class TestDualBound:
    """The dual certificate of pure-target fidelity searches."""

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 2)], ids=["222", "232", "322"])
    def test_bound_holds_at_random_isometries(self, dims):
        labels = ("B", "C", "R")
        rho = states.random_pure(dims, states.rng_from_seed(41), labels)
        problem = recovery._RecoveryProblem(rho)
        best = recovery.optimize_recovery(rho, "fidelity").best_value
        draw = np.random.default_rng(sum(dims))
        d_bc, d_env, d_b = problem.d_bc, problem.d_env, problem.d_b
        for _ in range(10):
            v = _random_isometry(problem.isometry_shape(), draw)
            f, held = problem.fidelity_value(v)
            # F^2 is the quadratic form of M in the Kraus operators
            x = v.reshape(d_bc, d_env, d_b).transpose(1, 0, 2).reshape(d_env, d_bc * d_b)
            form = np.einsum("ei,ij,ej->", x.conj(), problem.overlap_form, x).real
            assert abs(form - f * f) < 1e-13
            gap = problem.dual_gap(v, f, problem.fidelity_and_gradient(v, held)[1])
            # tr Y bounds F^2 here and at every other channel, the best found included
            assert gap >= -1e-13
            assert f * f + gap >= best**2 - 1e-13

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("kind", ["fidelity", "renyi_half"])
    def test_converged_pure_searches_are_certified(self, kind, seed):
        rho = states.random_pure((2, 2, 2), states.sample_rng(700, seed), ("B", "C", "R"))
        result = recovery.optimize_recovery(rho, kind)
        assert result.converged
        assert result.dual_gap < recovery.DUAL_GAP_TOL

    def test_open_gap_is_not_convergence(self):
        rho = states.random_pure((2, 2, 2), states.sample_rng(700, 0), ("B", "C", "R"))
        result = recovery.optimize_recovery(rho, "fidelity", max_iterations=2)
        assert len(result.trace) == 3
        assert not result.converged
        assert result.dual_gap >= recovery.DUAL_GAP_TOL

    def test_gap_only_for_pure_fidelity_searches(self):
        labels = ("B", "C", "R")
        mixed = states.random_mixed((2, 2, 2), states.sample_rng(701, 0), labels, ancilla_dim=2)
        assert recovery.optimize_recovery(mixed, "fidelity", max_iterations=20).dual_gap is None
        pure = states.random_pure((2, 2, 2), states.sample_rng(700, 0), labels)
        assert recovery.optimize_recovery(pure, "measured_re", max_iterations=1).dual_gap is None

    def test_former_cap_hitter_certifies(self):
        # the certificate benchmark's unit 22, which projected gradient ran
        # to its 2000-step cap at F = 0.8581571282
        rho = states.random_pure((2, 2, 2), states.sample_rng(14114921, 22), labels=("B", "C", "R"))
        result = recovery.optimize_recovery(rho, "fidelity")
        assert result.converged and result.dual_gap < recovery.DUAL_GAP_TOL
        assert len(result.trace) - 1 <= 100
        assert result.best_value >= 0.8581571282


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
        value = recovery.measured_re_of_recovery(sigma, t)
        assert abs(value) < 1e-6

    def test_bounded_by_relative_entropy(self):
        rho = states.random_pure((2, 2, 2), states.rng_from_seed(10), ("B", "C", "R"))
        rho_bc = states.permute(states.partial_trace(rho, ["B", "C"]), ("B", "C"))
        t = channels.transpose_channel(rho_bc)
        sigma = recovery.reconstruct(rho, t)
        ms = recovery.measured_re_of_recovery(rho, t)
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
        ms = recovery.measured_re_of_recovery(rho, ch)
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
        re_eval = recovery.measured_re_of_recovery(sigma, result.best_channel)
        assert abs(re_eval - result.best_value) < 1e-7

    def test_envelope_gradient_matches_central_differences(self):
        # the gradient is only as exact as the 200-step inner solve's
        # witness: close on this full-rank state, off by up to 50% on
        # rank-deficient ones
        labels = ("B", "C", "R")
        rho = states.random_mixed((2, 2, 2), states.rng_from_seed(7), labels)
        problem = recovery._RecoveryProblem(rho)
        v = recovery._warm_start_isometry(problem)
        _, grad = problem.measured_re_score_and_gradient(v, problem.measured_re_score(v)[1])
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

    def test_search_on_non_markov_state(self):
        rho = states.random_mixed((2, 2, 2), states.rng_from_seed(7), ("B", "C", "R"))
        result = recovery.optimize_recovery(rho, "measured_re", max_iterations=20)
        trace = np.array(result.trace)
        assert np.all(np.diff(trace) <= 0.0)
        assert result.best_value <= trace[0]
        assert result.best_value <= entropy.cmi(rho) + 1e-4
        # the default solver runs a superset of the inner starts, for longer
        re_eval = recovery.measured_re_of_recovery(rho, result.best_channel)
        assert re_eval >= result.best_value - 1e-9


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
