import math

import numpy as np
import pytest

from cmirecon import channels, entropy, linalg, markov, states
from cmirecon.states import MultipartiteState


def ghz_state(labels=("B", "C", "R")):
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[7] = 1 / np.sqrt(2)
    return MultipartiteState(np.outer(psi, psi.conj()), tuple((l, 2) for l in labels))


class TestVonNeumann:
    def test_pure_state_zero(self):
        rho = states.random_pure((2, 3), states.rng_from_seed(0), ("A", "B"))
        assert abs(entropy.von_neumann(rho)) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_maximally_mixed(self, d):
        assert abs(entropy.von_neumann(np.eye(d) / d) - math.log2(d)) < 1e-12

    def test_spiked_diagonal_formula(self):
        d, eps = 16, 0.1
        diag = np.full(d, eps / (d - 1))
        diag[0] = 1 - eps
        h2 = -eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps)
        expect = h2 + eps * math.log2(d - 1)
        assert abs(entropy.von_neumann(np.diag(diag)) - expect) < 1e-12


class TestCmi:
    def test_product_state_zero(self):
        rng = states.rng_from_seed(1)
        rho_c = states.random_mixed((2,), rng, ("C",))
        rho_br = states.random_mixed((2, 2), rng, ("B", "R"))
        rho = states.tensor(rho_c, rho_br)
        assert abs(entropy.cmi(rho)) < 1e-9

    def test_ghz_is_one_bit(self):
        assert abs(entropy.cmi(ghz_state()) - 1.0) < 1e-10

    def test_markov_state_zero(self):
        sigma = markov.markov_state(markov.random_markov_spec(states.rng_from_seed(5)))
        assert abs(entropy.cmi(sigma)) < 1e-8

    def test_extra_subsystems_traced_first(self):
        rho = states.random_pure((2, 2, 2, 2), states.rng_from_seed(2), ("A", "B", "C", "R"))
        reduced = states.partial_trace(rho, ["B", "C", "R"])
        assert abs(entropy.cmi(rho) - entropy.cmi(reduced)) < 1e-12

    def test_missing_label_rejected(self):
        rho = states.random_pure((2, 2), states.rng_from_seed(2), ("B", "C"))
        with pytest.raises(ValueError, match="no subsystem"):
            entropy.cmi(rho)

    @pytest.mark.parametrize("seed", range(20))
    def test_strong_subadditivity(self, seed):
        rng = states.sample_rng(1000, seed)
        dims = tuple(int(rng.integers(2, 4)) for _ in range(3))
        rho = states.random_mixed(dims, rng, ("B", "C", "R"))
        assert entropy.cmi(rho) >= -1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_pure_state_identity(self, seed):
        rho = states.random_pure((2, 2, 2), states.sample_rng(2000, seed), ("B", "C", "R"))
        rhs = (
            entropy.von_neumann(states.partial_trace(rho, ["C"]))
            + entropy.von_neumann(states.partial_trace(rho, ["R"]))
            - entropy.von_neumann(states.partial_trace(rho, ["B"]))
        )
        assert abs(entropy.cmi(rho) - rhs) < 1e-8


class TestRelativeEntropy:
    def test_self_distance_zero(self):
        rho = states.random_mixed((3,), states.rng_from_seed(3), ("A",))
        assert abs(entropy.relative_entropy(rho, rho)) < 1e-10

    def test_orthogonal_pure_states_infinite(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert math.isinf(entropy.relative_entropy(a, b))

    @pytest.mark.parametrize("d", [2, 4, 7])
    def test_pure_vs_maximally_mixed(self, d):
        rho = states.random_pure((d,), states.rng_from_seed(d), ("A",)).matrix
        val = entropy.relative_entropy(rho, np.eye(d) / d)
        assert abs(val - math.log2(d)) < 1e-10

    def test_commuting_case_is_kl(self):
        p = np.array([0.6, 0.3, 0.1])
        q = np.array([0.2, 0.3, 0.5])
        kl = float((p * np.log2(p / q)).sum())
        assert abs(entropy.relative_entropy(np.diag(p), np.diag(q)) - kl) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            entropy.relative_entropy(np.eye(2) / 2, np.eye(3) / 3)

    @pytest.mark.parametrize("seed", range(8))
    def test_log_shift_bound(self, seed):
        # pi <= 2^lam sigma  =>  S(rho||pi) >= S(rho||sigma) - lam
        rng = states.sample_rng(3000, seed)
        d = 4
        sigma = states.random_mixed((d,), rng, ("A",))
        pi = states.random_mixed((d,), rng, ("A",))
        rho = states.random_mixed((d,), rng, ("A",))
        inv_root = sigma.spectrum.apply(lambda x: 1.0 / np.sqrt(x))
        lam = math.log2(linalg.eigh(inv_root @ pi.matrix @ inv_root, atol=1e-7).eigenvalues[-1])
        assert entropy.relative_entropy(rho, pi) >= entropy.relative_entropy(rho, sigma) - lam - 1e-7


class TestFidelity:
    def test_self_fidelity(self):
        rho = states.random_mixed((4,), states.rng_from_seed(6), ("A",))
        assert abs(entropy.fidelity(rho, rho) - 1.0) < 1e-10
        assert abs(entropy.renyi_half(rho, rho)) < 1e-8

    def test_pure_states_overlap(self):
        rng = states.rng_from_seed(7)
        for _ in range(5):
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            f = entropy.fidelity(np.outer(a, a.conj()), np.outer(b, b.conj()))
            assert abs(f - abs(np.vdot(a, b))) < 1e-10

    def test_basis_state_vs_maximally_mixed(self):
        f = entropy.fidelity(np.diag([1.0, 0.0]), np.eye(2) / 2)
        assert abs(f - 1 / math.sqrt(2)) < 1e-12
        assert abs(entropy.renyi_half(np.diag([1.0, 0.0]), np.eye(2) / 2) - 1.0) < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetric(self, seed):
        rng = states.sample_rng(4000, seed)
        rho = states.random_mixed((3,), rng, ("A",))
        sigma = states.random_mixed((3,), rng, ("A",))
        assert abs(entropy.fidelity(rho, sigma) - entropy.fidelity(sigma, rho)) < 1e-9

    def test_orthogonal_states_give_infinite_renyi(self):
        assert math.isinf(entropy.renyi_half(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))


def qubit_measurement_grid_value(rho, sigma, n_theta=24, n_phi=30):
    """Brute-force oracle: best classical KL over a grid of projective
    qubit measurements parametrized by Bloch angles."""
    best = -math.inf
    for theta in np.linspace(0.0, math.pi, n_theta):
        for phi in np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False):
            v = np.array(
                [math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)]
            )
            proj = np.outer(v, v.conj())
            outcomes = [proj, np.eye(2) - proj]
            val = 0.0
            for m in outcomes:
                p = float(np.trace(m @ rho).real)
                q = float(np.trace(m @ sigma).real)
                if p > 1e-15:
                    val += p * math.log2(p / max(q, 1e-300))
            best = max(best, val)
    return best


class TestMeasuredRelativeEntropy:
    def test_equal_states_zero(self):
        rho = states.random_mixed((3,), states.rng_from_seed(8), ("A",))
        sol = entropy.measured_relative_entropy(rho, rho)
        assert abs(sol.value_bits) < 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_commuting_diagonal_matches_kl(self, seed):
        rng = states.sample_rng(5000, seed)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        kl = float((p * np.log2(p / q)).sum())
        sol = entropy.measured_relative_entropy(np.diag(p), np.diag(q))
        assert abs(sol.value_bits - kl) < 1e-7

    @pytest.mark.parametrize("seed", range(10))
    def test_beats_projective_grid_oracle(self, seed):
        rng = states.sample_rng(6000, seed)
        rho = states.random_mixed((2,), rng, ("A",)).matrix
        sigma = states.random_mixed((2,), rng, ("A",)).matrix
        grid = qubit_measurement_grid_value(rho, sigma)
        sol = entropy.measured_relative_entropy(rho, sigma)
        assert sol.value_bits >= grid - 1e-6
        assert sol.value_bits <= entropy.relative_entropy(rho, sigma) + 1e-7

    def test_witness_reproduces_value(self):
        rng = states.rng_from_seed(9)
        rho = states.random_mixed((3,), rng, ("A",))
        sigma = states.random_mixed((3,), rng, ("A",))
        sol = entropy.measured_relative_entropy(rho, sigma)
        re_eval = entropy.measured_re_objective_bits(rho, sigma, sol.witness)
        assert abs(re_eval - sol.value_bits) < 1e-8
        assert linalg.min_eigenvalue(sol.witness) > 0

    def test_trace_non_decreasing(self):
        rng = states.rng_from_seed(10)
        rho = states.random_mixed((4,), rng, ("A",))
        sigma = states.random_mixed((4,), rng, ("A",))
        sol = entropy.measured_relative_entropy(rho, sigma)
        diffs = np.diff(sol.trace_bits)
        assert np.all(diffs >= -1e-10)
        assert sol.converged

    def test_rank_deficient_sigma_regularized(self):
        rho = np.eye(2) / 2
        sigma = np.diag([1.0, 0.0]).astype(complex)
        sol = entropy.measured_relative_entropy(rho, sigma)
        assert math.isfinite(sol.value_bits)

    @pytest.mark.parametrize("seed", range(6))
    def test_ordering_panel(self, seed):
        rng = states.sample_rng(7000, seed)
        d = int(rng.integers(2, 9))
        rho = states.random_mixed((d,), rng, ("A",))
        sigma = states.random_mixed((d,), rng, ("A",))
        ms = entropy.measured_relative_entropy(rho, sigma).value_bits
        assert ms <= entropy.relative_entropy(rho, sigma) + 1e-7
        assert ms >= entropy.renyi_half(rho, sigma) - 1e-6


class TestKeptSpectra:
    def test_state_and_matrix_give_identical_values(self):
        rng = states.rng_from_seed(23)
        rho = states.random_mixed((2,), rng, ("A",))
        sigma = states.random_mixed((2,), rng, ("A",))
        assert entropy.von_neumann(rho) == entropy.von_neumann(rho.matrix)
        assert entropy.relative_entropy(rho, sigma) == entropy.relative_entropy(
            rho.matrix, sigma.matrix
        )
        assert entropy.fidelity(rho, sigma) == entropy.fidelity(rho.matrix, sigma.matrix)
        from_states = entropy.measured_relative_entropy(rho, sigma)
        from_matrices = entropy.measured_relative_entropy(rho.matrix, sigma.matrix)
        assert from_states.value_bits == from_matrices.value_bits
        assert np.array_equal(from_states.witness, from_matrices.witness)


class TestContinuityBound:
    def test_zero_distance_limit(self):
        assert entropy.relative_entropy_continuity_bound(4, 0.0, 0.1) == 0.0

    def test_hand_evaluated_point(self):
        d, t, beta = 4, 0.1, 0.05
        expect = (
            t * math.log2(d)
            + min(-t * math.log2(t), 1 / (math.e * math.log(2)))
            - t * math.log2(beta) / 2
        )
        got = entropy.relative_entropy_continuity_bound(d, t, beta)
        assert abs(got - expect) < 1e-12
        # cross-check the displayed arithmetic by hand:
        # 0.1*2 + 0.1*log2(10) - 0.05*log2(0.05) = 0.2 + 0.33219... + 0.21609...
        assert abs(got - (0.2 + 0.1 * math.log2(10) + 0.05 * math.log2(20))) < 1e-12

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError, match="min eigenvalue"):
            entropy.relative_entropy_continuity_bound(4, 0.1, 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_dominates_relative_entropy(self, seed):
        rng = states.sample_rng(8000, seed)
        d = int(rng.integers(2, 9))
        rho = states.random_mixed((d,), rng, ("A",))
        sigma = states.random_mixed((d,), rng, ("A",))
        t = linalg.trace_norm(rho.matrix - sigma.matrix)
        beta = linalg.eigh(sigma.matrix).eigenvalues[0]
        bound = entropy.relative_entropy_continuity_bound(d, t, beta)
        assert entropy.relative_entropy(rho, sigma) <= bound + 1e-9


class TestDataProcessing:
    @pytest.mark.parametrize("seed", range(8))
    def test_channels_contract_divergences(self, seed):
        rng = states.sample_rng(9000, seed)
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        rho = states.random_mixed((d_in,), rng, ("A",))
        sigma = states.random_mixed((d_in,), rng, ("A",))
        ch = channels.random_channel(d_in, d_out, None, rng, (("A", d_in),), (("A", d_out),))
        rho_out = channels.apply(ch, rho)
        sigma_out = channels.apply(ch, sigma)
        assert entropy.relative_entropy(rho_out, sigma_out) <= entropy.relative_entropy(rho, sigma) + 1e-7
        assert entropy.fidelity(rho_out, sigma_out) >= entropy.fidelity(rho, sigma) - 1e-9


class TestDistancePanel:
    def test_panel_invariants(self):
        rng = states.rng_from_seed(12)
        rho = states.random_pure((2, 2, 2), rng, ("B", "C", "R"))
        sigma = states.random_mixed((2, 2, 2), rng, ("B", "C", "R"))
        rel_ent = entropy.relative_entropy(rho, sigma)
        fid = entropy.fidelity(rho, sigma)
        shalf = entropy.renyi_half(rho, sigma)
        measured = entropy.measured_relative_entropy(rho, sigma).value_bits
        if math.isfinite(shalf):
            assert abs(shalf + 2 * math.log2(fid)) < 1e-9
        if math.isfinite(rel_ent):
            assert measured <= rel_ent + 1e-7
        assert measured >= shalf - 1e-6
        assert 0.0 <= fid <= 1.0
