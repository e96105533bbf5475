import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmirecon import channels, entropy, linalg, markov, recovery, states
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
        h = inv_root @ pi.matrix @ inv_root
        lam = math.log2(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[-1])
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


# --- root-factor formulas against the full-matrix ones -----------------------


class TestRawMatrixBoundary:
    """A raw matrix enters every measure through the state boundary."""

    MEASURES = {
        "von_neumann": lambda m: entropy.von_neumann(m),
        "relative_entropy_rho": lambda m: entropy.relative_entropy(m, np.eye(2) / 2),
        "relative_entropy_sigma": lambda m: entropy.relative_entropy(np.eye(2) / 2, m),
        "fidelity": lambda m: entropy.fidelity(m, np.eye(2) / 2),
        "renyi_half": lambda m: entropy.renyi_half(np.eye(2) / 2, m),
        "measured_re": lambda m: entropy.measured_relative_entropy(m, np.eye(2) / 2),
        "objective_rho": lambda m: entropy.measured_re_objective_bits(m, np.eye(2) / 2, np.eye(2)),
        "objective_sigma": lambda m: entropy.measured_re_objective_bits(np.eye(2) / 2, m, np.eye(2)),
    }

    @pytest.mark.parametrize("measure", sorted(MEASURES))
    @pytest.mark.parametrize(
        "matrix, match",
        [
            (np.diag([2.0, -1.0]), "eigenvalue"),
            (np.eye(2), "trace"),
            (np.diag([0.5, 0.5, 0.5]), "trace"),
            (np.array([[0.5, 0.5], [0.0, 0.5]]), "Hermitian"),
            (np.array([[0.5, np.nan], [np.nan, 0.5]]), "non-finite"),
        ],
        ids=["negative", "trace-2", "trace-1.5", "non-hermitian", "nan"],
    )
    def test_invalid_matrix_is_rejected(self, measure, matrix, match):
        with pytest.raises(ValueError, match=match):
            self.MEASURES[measure](matrix)

    @pytest.mark.parametrize("value", [np.array(0.5), np.ones(2) / 2, np.ones((2, 3)) / 6])
    def test_non_square_is_rejected(self, value):
        with pytest.raises(ValueError, match="square"):
            entropy.von_neumann(value)

    def test_a_state_passes_unchanged(self):
        rho = states.random_mixed((2, 3), states.rng_from_seed(3), ("B", "C"))
        assert entropy._state(rho) is rho
        raw = entropy._state(rho.matrix)
        assert raw.subsystems == (("A", 6),)
        assert entropy.von_neumann(rho.matrix) == entropy.von_neumann(rho)

    def test_the_witness_is_checked_as_an_operator(self):
        # any positive-definite witness, of any trace, is accepted
        rho, sigma = np.diag([0.7, 0.3]), np.eye(2) / 2
        value = entropy.measured_re_objective_bits(rho, sigma, 3.0 * np.eye(2))
        expected = (math.log(3.0) + 1.0 - 3.0) / math.log(2.0)
        assert abs(value - expected) < 1e-12
        with pytest.raises(ValueError, match="Hermitian"):
            entropy.measured_re_objective_bits(rho, sigma, np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestWitnessObjective:
    """tr(rho ln w) read from the witness's spectrum, by relative_entropy's leak rule."""

    def test_rho_on_a_non_positive_eigenvalue_gives_minus_infinity(self):
        # a matrix log that maps -5 to log 0 scored this witness at 4.379 bits
        rho, sigma = np.diag([0.7, 0.3]), np.eye(2) / 2
        assert entropy.measured_re_objective_bits(rho, sigma, np.diag([1.4, -5.0])) == -math.inf

    def test_a_zero_eigenvalue_off_the_support_of_rho_is_not_read(self):
        # tr(rho ln w) = ln 2, tr(sigma w) = 1: one bit
        rho, sigma = np.diag([1.0, 0.0]), np.eye(2) / 2
        value = entropy.measured_re_objective_bits(rho, sigma, np.diag([2.0, 0.0]))
        assert abs(value - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_log_ratio_witness_of_a_commuting_pair_gives_the_relative_entropy(self, seed):
        # w = rho sigma^-1 attains S(rho || sigma) when rho and sigma commute
        rng = states.sample_rng(4300, seed)
        d = 2 + seed
        u = channels.haar_isometry(d, d, rng)
        p, q = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
        rho, sigma, witness = ((u * x) @ u.conj().T for x in (p, q, p / q))
        value = entropy.measured_re_objective_bits(rho, sigma, witness)
        assert abs(value - entropy.relative_entropy(rho, sigma)) < 1e-12

    @pytest.mark.parametrize(
        "rho, sigma, witness, match",
        [
            (np.eye(2) / 2, np.eye(3) / 3, np.eye(2), "mismatch"),
            (np.eye(3) / 3, np.eye(2) / 2, np.eye(3), "mismatch"),
            (np.eye(2) / 2, np.eye(2) / 2, np.eye(3), "witness"),
        ],
        ids=["sigma", "rho", "witness"],
    )
    def test_dimensions_are_checked(self, rho, sigma, witness, match):
        with pytest.raises(ValueError, match=match):
            entropy.measured_re_objective_bits(rho, sigma, witness)


class TestRenyiHalfBits:
    """-2 log2 F, the one conversion every fidelity site uses."""

    @pytest.mark.parametrize("f, bits", [(1.0, 0.0), (0.5, 2.0), (0.25, 4.0), (0.0, math.inf)])
    def test_values(self, f, bits):
        assert entropy._renyi_half_bits(f) == bits

    def test_matches_renyi_half(self):
        rho = states.random_mixed((3,), states.rng_from_seed(9), ("A",))
        sigma = states.random_mixed((3,), states.rng_from_seed(10), ("A",))
        f = entropy.fidelity(rho, sigma)
        assert entropy.renyi_half(rho, sigma) == entropy._renyi_half_bits(f) == -2.0 * math.log2(f)

    def test_above_one_is_clipped(self):
        # an optimizer's score may overshoot 1 by round-off
        assert entropy._renyi_half_bits(1.0 + 1e-15) == 0.0


def fidelity_oracle(rho, sigma):
    """||sqrt(rho) sqrt(sigma)||_1 from the two full matrix roots."""
    return linalg.trace_norm(
        linalg.matrix_function(rho, np.sqrt) @ linalg.matrix_function(sigma, np.sqrt)
    )


def relative_entropy_oracle(rho, sigma):
    """tr rho(log rho - log sigma) in bits, +inf when the trace norm (an SVD)
    of rho compressed onto sigma's kernel reaches SUPPORT_LEAK_TOL."""
    spec = linalg.eigh(sigma)
    kernel = spec.eigenvalues <= linalg.support_cutoff(spec.eigenvalues)
    v = spec.eigenvectors[:, kernel]
    if kernel.any() and linalg.trace_norm(v.conj().T @ rho @ v) >= entropy.SUPPORT_LEAK_TOL:
        return math.inf
    w = np.linalg.eigvalsh(rho)
    w = w[w > linalg.support_cutoff(w)]
    tr_rho_log_rho = float((w * np.log(w)).sum())
    tr_rho_log_sigma = float(np.trace(rho @ spec.apply(np.log)).real)
    return (tr_rho_log_rho - tr_rho_log_sigma) / entropy.LN2


def oracle_pair(d, seed, rho_rank, sigma_kernel, inside):
    """rho of rank ``rho_rank`` (None: full) and sigma with a kernel of
    ``sigma_kernel`` dimensions, both d x d; with ``inside``, rho is drawn
    within sigma's support (its rank capped at that support's)."""
    rng = states.sample_rng(seed, 0)
    u = channels.haar_isometry(d, d, rng)
    p = rng.uniform(0.05, 1.0, d)
    p[:sigma_kernel] = 0.0
    sigma = (u * (p / p.sum())) @ u.conj().T
    rank = d if rho_rank is None else rho_rank
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    if inside:
        support = u[:, sigma_kernel:]
        g = support @ (support.conj().T @ g[:, : d - sigma_kernel])
    rho = g @ g.conj().T
    return rho / np.trace(rho).real, sigma


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(
    st.integers(2, 8),
    st.integers(0, 2**63 - 1),
    st.sampled_from(["pure", "rank-deficient", "full"]),
    st.booleans(),
    st.booleans(),
)
def test_root_factor_formulas_match_the_full_matrix_ones(d, seed, kind, sigma_has_kernel, inside):
    rank = {"pure": 1, "rank-deficient": max(1, d // 2), "full": None}[kind]
    sigma_kernel = max(1, d // 3) if sigma_has_kernel else 0
    rho, sigma = oracle_pair(d, seed, rank, sigma_kernel, inside)
    assert abs(entropy.fidelity(rho, sigma) - fidelity_oracle(rho, sigma)) <= 1e-12
    got, want = entropy.relative_entropy(rho, sigma), relative_entropy_oracle(rho, sigma)
    if math.isinf(want):
        assert got == want
    else:
        assert abs(got - want) <= 1e-12
    # the leak is whole or nothing here: rho outside sigma's support is infinite
    assert math.isinf(got) == (sigma_has_kernel and not inside)


class TestSupportLeakEdge:
    """rho = (1 - eps) psi psi^dag + eps phi phi^dag with phi in sigma's kernel."""

    @staticmethod
    def pair(eps):
        psi = np.array([1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
        phi = np.array([0.0, 0.0, 1.0], dtype=complex)
        rho = (1.0 - eps) * np.outer(psi, psi.conj()) + eps * np.outer(phi, phi.conj())
        return rho, np.diag([0.7, 0.3, 0.0]).astype(complex)

    def test_leak_above_the_tolerance_is_infinite(self):
        rho, sigma = self.pair(1e-8)
        assert math.isinf(entropy.relative_entropy(rho, sigma))
        assert math.isinf(relative_entropy_oracle(rho, sigma))

    def test_leak_below_the_support_cutoff_is_finite(self):
        # eps sits below rho's support cutoff, so W carries no weight on phi
        rho, sigma = self.pair(1e-11)
        got = entropy.relative_entropy(rho, sigma)
        assert math.isfinite(got)
        assert abs(got - relative_entropy_oracle(rho, sigma)) <= 1e-9


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

    def test_leak_onto_sigmas_kernel_is_infinite(self, monkeypatch):
        # rho leaks onto sigma's kernel: the measurement {P_ker, 1 - P_ker}
        # sees weight 1/2 where sigma has none, so D_M = +inf, as S is
        rho = np.eye(2) / 2
        sigma = np.diag([1.0, 0.0]).astype(complex)
        assert starts_climbed(monkeypatch, rho, sigma) == 0
        sol = entropy.measured_relative_entropy(rho, sigma)
        assert sol.value_bits == math.inf == entropy.relative_entropy(rho, sigma)
        assert sol.converged and sol.trace_bits == []
        assert not sol.witness.any()

    def test_round_off_negative_rho_is_clipped(self):
        # the boundary accepts eigenvalues down to -1e-9; unclipped, the
        # log-ratio start takes the log of a negative eigenvalue
        rng = states.rng_from_seed(40)
        u = channels.haar_isometry(3, 3, rng)
        rho = MultipartiteState((u * np.array([0.6, 0.4 + 5e-10, -5e-10])) @ u.conj().T, (("A", 3),))
        sigma = states.random_mixed((3,), rng, ("A",))
        assert rho.spectrum.eigenvalues[0] < 0.0
        sol = entropy.measured_relative_entropy(rho, sigma)
        assert sol.converged
        assert sol.value_bits <= entropy.relative_entropy(rho, sigma) + 1e-7
        assert abs(entropy.measured_re_objective_bits(rho, sigma, sol.witness) - sol.value_bits) < 1e-7

    @pytest.mark.parametrize("seed", range(6))
    def test_ordering_panel(self, seed):
        rng = states.sample_rng(7000, seed)
        d = int(rng.integers(2, 9))
        rho = states.random_mixed((d,), rng, ("A",))
        sigma = states.random_mixed((d,), rng, ("A",))
        ms = entropy.measured_relative_entropy(rho, sigma).value_bits
        assert ms <= entropy.relative_entropy(rho, sigma) + 1e-7
        assert ms >= entropy.renyi_half(rho, sigma) - 1e-6


def transpose_rebuild_pair(rho):
    """rho and its transpose-channel reconstruction from rho_BR, both in rho's order."""
    bcr = states.permute(rho, ("B", "C", "R"))
    sigma = recovery.reconstruct(bcr, channels.transpose_channel(states.partial_trace(bcr, ["B", "C"])))
    return rho, states.permute(sigma, rho.labels)


def in_sigma_frame(rho_m, sigma):
    """rho_m and sigma as the solver ascends them: V_S^dag rho_m V_S and w_S on sigma's support."""
    spec = sigma.spectrum
    v_s = spec.eigenvectors[:, spec.kernel :]
    return v_s.conj().T @ rho_m @ v_s, spec.eigenvalues[spec.kernel :]


def mre_objective_nats(rho, sigma, h):
    w, u = np.linalg.eigh(h)
    return float(np.trace(rho @ h).real) + 1.0 - float(np.trace(sigma @ (u * np.exp(w)) @ u.conj().T).real)


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


class TestMeasuredReNewtonStep:
    @pytest.mark.parametrize("sample", range(4))
    def test_pure_state_against_its_transpose_rebuild(self, sample):
        # rank-deficient rho: the supremum lies at infinity in H = ln w, so
        # the ascent must stay finite and its value must stay a lower bound
        rho = states.random_pure((2, 2, 2), states.sample_rng(4100, sample), ("B", "C", "R"))
        rho, sigma = transpose_rebuild_pair(rho)
        sol = entropy.measured_relative_entropy(rho, sigma)
        assert sol.converged
        assert sol.value_bits <= entropy.relative_entropy(rho, sigma) + 1e-7
        assert abs(entropy.measured_re_objective_bits(rho, sigma, sol.witness) - sol.value_bits) <= 1e-7

    def test_same_value_in_either_basis_order(self):
        # the pair that moved by 1.1e-4 bits between orders under the capped
        # gradient ascent
        rho = states.random_pure((2, 2, 2), states.sample_rng(11, 2), ("C", "B", "R"))
        rho, sigma = transpose_rebuild_pair(rho)
        order = ("B", "C", "R")
        cbr = entropy.measured_relative_entropy(rho, sigma)
        bcr = entropy.measured_relative_entropy(states.permute(rho, order), states.permute(sigma, order))
        assert cbr.converged and bcr.converged
        assert abs(cbr.value_bits - bcr.value_bits) < 1e-7

    def test_converged_means_the_decrement_is_small(self):
        rng = states.rng_from_seed(10)
        rho = states.random_mixed((4,), rng, ("A",))
        sigma = states.random_mixed((4,), rng, ("A",))
        capped = entropy.measured_relative_entropy(rho, sigma, max_iterations=1)
        assert not capped.converged
        full = entropy.measured_relative_entropy(rho, sigma)
        assert full.converged and full.value_bits > capped.value_bits

    def test_a_negative_cap_is_rejected(self):
        rng = states.rng_from_seed(10)
        rho = states.random_mixed((4,), rng, ("A",))
        sigma = states.random_mixed((4,), rng, ("A",))
        with pytest.raises(ValueError, match="max_iterations"):
            entropy.measured_relative_entropy(rho, sigma, max_iterations=-3)

    def test_accepted_steps_respect_the_cap(self):
        # pure rho: the supremum lies at infinity in H, so the first Newton
        # step overshoots and the cap binds. The ascent is deterministic, so
        # capping it at k steps returns the k-th accepted H.
        rho = states.random_pure((2, 2, 2), states.sample_rng(4100, 0), ("B", "C", "R"))
        rho, sigma = transpose_rebuild_pair(rho)
        rho, w_sigma = in_sigma_frame(rho.matrix, sigma)
        h0 = np.zeros_like(rho)
        trace = entropy._ascend_measured_re(rho, w_sigma, h0, 600)[2]
        iterates = []
        for k in range(len(trace)):
            _, (w, u), _, _ = entropy._ascend_measured_re(rho, w_sigma, h0, k)
            iterates.append((u * w) @ u.conj().T)
        norms = [np.abs(np.linalg.eigvalsh(b - a)).max() for a, b in zip(iterates, iterates[1:])]
        assert len(norms) == len(trace) - 1 >= 2
        assert max(norms) <= entropy.MRE_MAX_STEP + 1e-9
        # a step of exactly the cap's norm is a capped one
        assert any(abs(n - entropy.MRE_MAX_STEP) <= 1e-9 for n in norms)

    @pytest.mark.parametrize("w", [[-1.0, 0.3, 2.0], [0.5, 0.5 + 1e-9, 0.5 + 2e-4], [-30.0, -2.0, 0.0]])
    def test_first_differences_match_their_definition(self, w):
        phi1, _ = entropy._exp_divided_differences(np.array(w))
        for i, a in enumerate(w):
            for j, b in enumerate(w):
                expect = math.exp(a) if a == b else math.expm1(a - b) * math.exp(b) / (a - b)
                assert phi1[i, j] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("span", [0.0, 1e-9, 1e-5, 3e-5, 1e-3, 0.5, 3.0])
    def test_second_differences_across_the_series_switch(self, span):
        a, b, c = 0.3, 0.3 + span / 3.0, 0.3 + span
        _, phi2 = entropy._exp_divided_differences(np.array([a, b, c]))
        # exp[a, b, c] = e^a sum_n h_n(0, b - a, c - a) / (n + 2)!, h_n the
        # complete homogeneous polynomial of degree n
        x, y = b - a, c - a
        series = sum(
            sum(x**i * y ** (n - i) for i in range(n + 1)) / math.factorial(n + 2) for n in range(40)
        )
        assert phi2[0, 1, 2] == pytest.approx(math.exp(a) * series, rel=1e-10)
        assert phi2[2, 0, 1] == phi2[0, 1, 2]

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_gradient_and_hessian_match_finite_differences(self, d):
        # f(H + tX) = f + t Re tr(G X) - t^2/2 Re tr(X L(X)) + O(t^3) for
        # Hermitian X in H's eigenbasis
        rng = states.sample_rng(4200, d)
        rho = states.random_mixed((d,), rng, ("A",)).matrix
        sigma = states.random_mixed((d,), rng, ("A",)).matrix
        h = random_hermitian(rng, d)
        w, u = np.linalg.eigh(h)
        s = u.conj().T @ sigma @ u
        phi1, phi2 = entropy._exp_divided_differences(w)
        grad = u.conj().T @ rho @ u - phi1 * s
        hess = entropy._newton_matrix(phi2, s)
        step = 1e-4
        for _ in range(3):
            x = random_hermitian(rng, d)
            lx = (hess @ x.ravel()).reshape(d, d)
            dh = step * u @ x @ u.conj().T
            plus = mre_objective_nats(rho, sigma, h + dh)
            minus = mre_objective_nats(rho, sigma, h - dh)
            centre = mre_objective_nats(rho, sigma, h)
            assert (plus - minus) / (2 * step) == pytest.approx(np.vdot(grad, x).real, rel=1e-6)
            assert (plus - 2 * centre + minus) / step**2 == pytest.approx(-np.vdot(x, lx).real, rel=1e-4)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_convexified_system_is_positive_semidefinite(self, d):
        # H spread over several nats makes A = phi1 o S indefinite, so the
        # step takes the curvature of M = A+ / phi1, which must be convex
        rng = states.sample_rng(4210, d)
        rho = states.random_mixed((d,), rng, ("A",)).matrix
        sigma = states.random_mixed((d,), rng, ("A",)).matrix
        w, u = np.linalg.eigh(4.0 * random_hermitian(rng, d))
        s = u.conj().T @ sigma @ u
        phi1, phi2 = entropy._exp_divided_differences(w)
        a = phi1 * s
        lam, vec = np.linalg.eigh(a)
        assert lam[0] < 0.0
        m = ((vec * np.maximum(lam, 0.0)) @ vec.conj().T) / phi1
        hess = entropy._newton_matrix(phi2, m)
        for _ in range(5):
            x = random_hermitian(rng, d)
            lx = (hess @ x.ravel()).reshape(d, d)
            assert np.allclose(lx, lx.conj().T, rtol=0.0, atol=1e-12 * np.abs(lx).max())
            assert np.vdot(x, lx).real >= -1e-12 * np.vdot(x, x).real
        g = u.conj().T @ rho @ u - a
        step = np.linalg.solve(hess, g.ravel()).reshape(d, d)
        assert np.allclose(step, step.conj().T, rtol=0.0, atol=1e-12 * np.abs(step).max())


def random_start_oracle_bits(rho, sigma, n_starts=5):
    """Best value of n_starts ascents from random Hermitian starts, in bits.

    Each ascends the pair as the solver does: round-off-negative
    eigenvalues of rho clipped, and the pair in sigma's eigenbasis on its
    support, V_S^dag rho V_S against diag(w_S).
    """
    w, v = rho.spectrum.eigenvalues, rho.spectrum.eigenvectors
    rho_m = rho.matrix if w[0] >= 0.0 else (v * np.maximum(w, 0.0)) @ v.conj().T
    rho_m, w_sigma = in_sigma_frame(rho_m, sigma)
    d = len(w_sigma)
    best = -math.inf
    for k in range(n_starts):
        h0 = random_hermitian(states.sample_rng(99, k), d)
        f, _, _, _ = entropy._ascend_measured_re(rho_m, w_sigma, h0, 600)
        best = max(best, f)
    return best / entropy.LN2


def oracle_pairs():
    for k in range(12):
        rng = states.sample_rng(4300, k)
        d = int(rng.integers(2, 9))
        pair = (states.random_mixed((d,), rng, ("A",)), states.random_mixed((d,), rng, ("A",)))
        yield pytest.param(pair, id=f"full-rank-d{d}-{k}")
    # a rank-deficient rho against a full-rank sigma: the log-ratio start
    # reads rho's kept spectrum rotated into sigma's eigenbasis
    for k in range(6):
        rng = states.sample_rng(4500, k)
        d = int(rng.integers(3, 7))
        r = int(rng.integers(1, d))
        pair = (states.random_mixed((d,), rng, ("A",), ancilla_dim=r), states.random_mixed((d,), rng, ("A",)))
        yield pytest.param(pair, id=f"rank{r}-rho-d{d}-{k}")
    for k in range(6):
        rho = states.random_pure((2, 2, 2), states.sample_rng(4400, k), ("B", "C", "R"))
        yield pytest.param(transpose_rebuild_pair(rho), id=f"pure-222-{k}")


class TestTwoDeterministicStarts:
    # the program is concave in w = e^H and exp maps onto w > 0, so every
    # local maximum is global: random starts reach nothing the identity and
    # log-ratio starts miss
    @pytest.mark.parametrize("pair", oracle_pairs())
    def test_matches_the_best_of_random_starts(self, pair):
        rho, sigma = pair
        sol = entropy.measured_relative_entropy(rho, sigma)
        assert sol.converged
        assert sol.value_bits >= random_start_oracle_bits(rho, sigma) - 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_log_ratio_start_solves_a_commuting_pair(self, seed):
        # ln p - ln q is the optimum of a commuting pair: one Newton step from
        # the identity start does not reach it, the log-ratio start is there
        rng = states.sample_rng(5000, seed)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        kl = float((p * np.log2(p / q)).sum())
        sol = entropy.measured_relative_entropy(np.diag(p), np.diag(q), max_iterations=1)
        assert sol.converged
        assert abs(sol.value_bits - kl) < 1e-9

    def test_solver_draws_no_random_numbers(self, monkeypatch):
        rng = states.rng_from_seed(31)
        rho = states.random_mixed((4,), rng, ("A",))
        sigma = states.random_mixed((4,), rng, ("A",))
        first = entropy.measured_relative_entropy(rho, sigma)

        def no_streams(*args):
            raise AssertionError("the measured-RE solver drew a random stream")

        monkeypatch.setattr(states, "sample_rng", no_streams)
        second = entropy.measured_relative_entropy(rho, sigma)
        assert first.trace_bits == second.trace_bits
        assert np.array_equal(first.witness, second.witness)


def starts_climbed(monkeypatch, rho, sigma, **kwargs):
    """How many starts one measured-RE solve climbs, counted at ``_ascend_measured_re``."""
    calls = []
    ascend = entropy._ascend_measured_re

    def counted(*args):
        calls.append(args)
        return ascend(*args)

    monkeypatch.setattr(entropy, "_ascend_measured_re", counted)
    entropy.measured_relative_entropy(rho, sigma, **kwargs)
    return len(calls)


class TestStartsClimbed:
    # a full-rank rho makes the program strictly concave with a finite
    # maximiser, so an identity start that converged has reached it; a rho
    # with a kernel has its supremum at infinity in H
    def test_a_converged_identity_start_on_a_full_rank_rho_is_alone(self, monkeypatch):
        rng = states.rng_from_seed(10)
        rho = states.random_mixed((4,), rng, ("A",))
        sigma = states.random_mixed((4,), rng, ("A",))
        assert rho.spectrum.kernel == 0
        assert starts_climbed(monkeypatch, rho, sigma) == 1

    def test_the_log_ratio_start_is_built_only_when_it_runs(self, monkeypatch):
        # the converged identity start leaves one V diag(w) V^dag: the witness
        rng = states.rng_from_seed(10)
        rho = states.random_mixed((4,), rng, ("A",))
        sigma = states.random_mixed((4,), rng, ("A",))
        calls = []
        build = entropy._from_eigenpairs

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(entropy, "_from_eigenpairs", counted)
        assert entropy.measured_relative_entropy(rho, sigma).converged
        assert len(calls) == 1

    def test_a_rank_one_rho_climbs_both_starts(self, monkeypatch):
        rho = states.random_pure((2, 2, 2), states.sample_rng(4100, 0), ("B", "C", "R"))
        rho, sigma = transpose_rebuild_pair(rho)
        assert rho.spectrum.kernel == 7
        assert starts_climbed(monkeypatch, rho, sigma) == 2

    def test_an_unconverged_identity_start_hands_over_to_the_log_ratio(self, monkeypatch):
        rng = states.rng_from_seed(10)
        rho = states.random_mixed((4,), rng, ("A",))
        sigma = states.random_mixed((4,), rng, ("A",))
        assert not np.allclose(rho.matrix @ sigma.matrix, sigma.matrix @ rho.matrix)
        assert starts_climbed(monkeypatch, rho, sigma, max_iterations=1) == 2

    @pytest.mark.parametrize("pair", [p for p in oracle_pairs() if p.id.startswith("full-rank")])
    def test_the_log_ratio_start_adds_nothing_on_a_full_rank_rho(self, pair):
        rho, sigma = pair
        assert rho.spectrum.kernel == 0 and sigma.spectrum.kernel == 0
        sol = entropy.measured_relative_entropy(rho, sigma)
        r, s = rho.spectrum, sigma.spectrum
        warm = entropy._from_eigenpairs(
            np.log(r.eigenvalues + entropy.RHO_LOG_SHIFT), r.eigenvectors
        ) - entropy._from_eigenpairs(np.log(s.eigenvalues), s.eigenvectors)
        warm, w_sigma = in_sigma_frame(warm, sigma)
        rho_m, _ = in_sigma_frame(rho.matrix, sigma)
        f = entropy._ascend_measured_re(rho_m, w_sigma, warm, 600)[0]
        assert f / entropy.LN2 <= sol.value_bits + 1e-10


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

    @pytest.mark.parametrize("sigma_ancilla", [None, 1], ids=["full-rank", "singular"])
    def test_solve_on_read_spectra_decomposes_nothing(self, decompositions, sigma_ancilla):
        # both starts come from the kept spectra; a full-rank rho leaks onto
        # a singular sigma's kernel, which the kept spectra show as well
        rng = states.rng_from_seed(24)
        rho = states.random_mixed((3,), rng, ("A",))
        sigma = states.random_mixed((3,), rng, ("A",), ancilla_dim=sigma_ancilla)
        assert bool(sigma.spectrum.kernel) == (sigma_ancilla == 1)
        assert rho.spectrum.kernel == 0
        read = decompositions()
        entropy.measured_relative_entropy(rho, sigma)
        assert decompositions() == read

    def test_solve_inside_a_singular_sigma_decomposes_only_the_compressed_rho(self, decompositions):
        rho, sigma = transpose_rebuild_pair(
            states.random_pure((2, 2, 2), states.sample_rng(4100, 0), ("B", "C", "R"))
        )
        assert sigma.spectrum.kernel == 4 and rho.spectrum.kernel == 7
        read = decompositions()
        entropy.measured_relative_entropy(rho, sigma)
        assert decompositions() == read + 1


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

    def test_rejects_nan_beta(self):
        with pytest.raises(ValueError, match="min eigenvalue"):
            entropy.relative_entropy_continuity_bound(4, 0.1, float("nan"))

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
        ch = channels.random_channel(d_in, d_out, rng, (("A", d_in),), (("A", d_out),))
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
