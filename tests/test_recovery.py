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
        problem = recovery._RecoveryProblem(rho, *labels)
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
        problem = recovery._RecoveryProblem(rho, *labels)
        v = recovery._warm_start_isometry(problem, rho, *labels)
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
    def test_json_round_trip_channel(self, tmp_path):
        rho = states.random_pure((2, 2, 2), states.rng_from_seed(12), ("B", "C", "R"))
        result = recovery.optimize_recovery(rho, "fidelity", max_iterations=SMALL_BUDGET)
        path = tmp_path / "result.json"
        recovery.save_result(result, path)
        doc = json.loads(path.read_text())
        assert doc["objective_kind"] == "fidelity"
        assert isinstance(doc["trace"], list) and len(doc["trace"]) == len(result.trace)
        loaded = channels.from_json_dict(doc["best_channel"])
        assert np.abs(loaded.choi - result.best_channel.choi).max() < 1e-12
        assert abs(doc["best_value"] - result.best_value) < 1e-15
