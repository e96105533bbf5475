import json
import math
import tracemalloc

import numpy as np
import pytest

from cmirecon import channels, entropy, linalg, markov, states
from cmirecon.states import MultipartiteState


def purity(state):
    return float(np.trace(state.matrix @ state.matrix).real)


def ghz_state(labels=("B", "C", "R")):
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[7] = 1 / np.sqrt(2)
    return MultipartiteState(np.outer(psi, psi.conj()), tuple((l, 2) for l in labels))


class TestValidation:
    def test_rejects_trace_not_one(self):
        with pytest.raises(ValueError, match="trace"):
            MultipartiteState(2 * np.eye(2) / 2 + np.eye(2) / 2, (("A", 2),))

    def test_rejects_negative_state(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            MultipartiteState(np.diag([1.5, -0.5]), (("A", 2),))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            MultipartiteState(m, (("A", 2),))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="multiply"):
            MultipartiteState(np.eye(4) / 4, (("A", 2), ("B", 3)))

    def test_rejects_non_finite(self):
        m = np.eye(2) / 2
        m[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            MultipartiteState(m, (("A", 2),))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            MultipartiteState(np.eye(4) / 4, (("A", 2), ("A", 2)))


class TestKeptSpectrum:
    def test_spectrum_is_the_eigh_of_the_matrix(self, tmp_path):
        # one state from every constructor that returns a MultipartiteState
        rng = states.rng_from_seed(21)
        pure = states.random_pure((2, 3, 2), rng, ("B", "C", "R"))
        mixed = states.random_mixed((2, 2), rng, ("A", "B"), ancilla_dim=2)
        path = tmp_path / "state.json"
        states.save_state(mixed, path)
        ch = channels.random_channel(2, 3, None, rng, (("A", 2),), (("A", 3),))
        built = {
            "random_pure": pure,
            "random_mixed": mixed,
            "partial_trace": states.partial_trace(pure, ["B", "R"]),
            "permute": states.permute(pure, ("R", "B", "C")),
            "tensor": states.tensor(mixed, states.random_pure((2,), rng, ("C",))),
            "purify": states.purify(mixed, "P"),
            "classical_state": states.classical_state(np.full((2, 3), 1 / 6), ("X", "Y")),
            "markov_state": markov.markov_state(markov.random_markov_spec(rng)),
            "load_state": states.load_state(path),
            "apply": channels.apply(ch, mixed, on=["A"]),
        }
        for name, rho in built.items():
            fresh = linalg.eigh(rho.matrix)
            assert np.array_equal(rho.spectrum.eigenvalues, fresh.eigenvalues), name
            assert np.array_equal(rho.spectrum.eigenvectors, fresh.eigenvectors), name
            assert not rho.spectrum.eigenvalues.flags.writeable, name
            assert not rho.spectrum.eigenvectors.flags.writeable, name


class TestDecomposedOnFirstRead:
    def test_the_boundary_decomposes_once(self, decompositions):
        rho = MultipartiteState(np.diag([0.5, 0.25, 0.25, 0.0]), (("A", 2), ("B", 2)))
        assert decompositions() == 1
        assert rho.spectrum is rho.spectrum
        entropy.von_neumann(rho)
        assert decompositions() == 1

    def test_derived_states_decompose_when_read(self, decompositions):
        spec = markov.random_markov_spec(states.rng_from_seed(23))
        rho = states.random_mixed((2, 2), states.rng_from_seed(24), ("A", "B"))
        marginal = states.partial_trace(rho, ["A"])
        assert decompositions() == 0
        marginal.spectrum.kernel
        states.partial_trace(rho, ["A"]).spectrum.root
        assert decompositions() == 1
        spec.blocks[0].left.spectrum
        assert decompositions() == 2


class TestRandomPure:
    def test_rank_one_and_trace(self):
        rho = states.random_pure((2, 2, 2), states.rng_from_seed(0))
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-9
        assert abs(purity(rho) - 1.0) < 1e-9

    def test_same_seed_bitwise_identical(self):
        a = states.random_pure((2, 3), states.sample_rng(9, 4))
        b = states.random_pure((2, 3), states.sample_rng(9, 4))
        assert np.array_equal(a.matrix, b.matrix)

    def test_distinct_streams_differ(self):
        a = states.random_pure((2, 2), states.sample_rng(9, 0))
        b = states.random_pure((2, 2), states.sample_rng(9, 1))
        assert not np.allclose(a.matrix, b.matrix)

    def test_marginal_purity_matches_haar_moment(self):
        # E[tr rho_A^2] = (dA + dB) / (dA dB + 1) = 0.8 for two qubits
        total = 0.0
        n = 10_000
        for i in range(n):
            rho = states.random_pure((2, 2), states.sample_rng(77, i), ("A", "B"))
            total += purity(states.partial_trace(rho, ["A"]))
        assert abs(total / n - 0.8) < 0.01

    def test_unitary_invariance_of_haar_mean(self):
        # a fixed rotation before a fixed observable leaves the mean unchanged
        rng = np.random.default_rng(5)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        obs = (g + g.conj().T) / 2
        q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        n = 10_000
        vals, vals_rot = [], []
        for i in range(n):
            rho = states.random_pure((2, 2), states.sample_rng(31, i), ("A", "B")).matrix
            vals.append(np.trace(obs @ rho).real)
            rho2 = states.random_pure((2, 2), states.sample_rng(32, i), ("A", "B")).matrix
            vals_rot.append(np.trace(obs @ u @ rho2 @ u.conj().T).real)
        vals, vals_rot = np.array(vals), np.array(vals_rot)
        se = math.hypot(vals.std() / math.sqrt(n), vals_rot.std() / math.sqrt(n))
        assert abs(vals.mean() - vals_rot.mean()) <= 3 * se


def purification_marginal(dims, rng, labels, ancilla_dim=None):
    """Reference for random_mixed: trace the ancilla out of a Haar-random pure state."""
    k = math.prod(dims) if ancilla_dim is None else ancilla_dim
    pure = states.random_pure(tuple(dims) + (k,), rng, tuple(labels) + ("anc",))
    return states.partial_trace(pure, labels)


class TestRandomMixed:
    @pytest.mark.parametrize("dims", [(2,), (3,), (2, 2, 2), (2, 3, 2), (3, 3, 3)])
    @pytest.mark.parametrize("ancilla_dim", [None, 1, 2])
    def test_matches_purification_marginal(self, dims, ancilla_dim):
        labels = tuple(f"s{k}" for k in range(len(dims)))
        for i in range(5):
            rng, rng_ref = states.sample_rng(71, i), states.sample_rng(71, i)
            rho = states.random_mixed(dims, rng, labels, ancilla_dim=ancilla_dim)
            oracle = purification_marginal(dims, rng_ref, labels, ancilla_dim)
            assert rho.subsystems == oracle.subsystems
            assert np.abs(rho.matrix - oracle.matrix).max() < 1e-14
            # both leave the generator at the same position
            assert rng.standard_normal() == rng_ref.standard_normal()

    @pytest.mark.parametrize(
        "dims, ancilla_dim", [((2, 2), 0), ((2, 0), None), ((0,), 2), ((2, -1), 3)]
    )
    def test_rejects_bad_dimensions(self, dims, ancilla_dim):
        with pytest.raises(ValueError, match="dimension"):
            states.random_mixed(dims, states.rng_from_seed(0), ancilla_dim=ancilla_dim)

    @pytest.mark.parametrize("sample", [states.random_pure, states.random_mixed])
    @pytest.mark.parametrize(
        "dims, labels, match",
        [((2, 2), ("A",), "2 subsystems"), ((2, 2), ("A", "A"), "duplicate"), ((2, 0), None, "dimension")],
    )
    def test_rejects_bad_labels_before_drawing(self, sample, dims, labels, match):
        rng = states.rng_from_seed(0)
        with pytest.raises(ValueError, match=match):
            sample(dims, rng, labels)
        assert rng.standard_normal() == states.rng_from_seed(0).standard_normal()

    def test_builds_no_purification(self):
        # the purification of a (3,3,3) state is a 729 x 729 complex matrix (8.5 MB)
        rng = states.rng_from_seed(5)
        tracemalloc.start()
        try:
            states.random_mixed((3, 3, 3), rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestPartialTrace:
    def test_product_state_factor(self):
        rng = states.rng_from_seed(2)
        a = states.random_mixed((2,), rng, ("B",))
        b = states.random_mixed((3,), rng, ("R",))
        joint = states.tensor(a, b)
        reduced = states.partial_trace(joint, ["B"])
        assert np.abs(reduced.matrix - a.matrix).max() < 1e-12

    def test_maximally_entangled_marginal(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        pair = MultipartiteState(np.outer(psi, psi.conj()), (("A", 2), ("B", 2)))
        half = states.partial_trace(pair, ["A"])
        assert np.abs(half.matrix - np.eye(2) / 2).max() < 1e-12

    def test_ghz_two_party_marginal(self):
        reduced = states.partial_trace(ghz_state(), ["B", "R"])
        assert np.allclose(reduced.matrix, np.diag([0.5, 0.0, 0.0, 0.5]))

    def test_sequential_matches_joint(self):
        rho = states.random_pure((2, 3, 2, 2), states.rng_from_seed(8), ("a", "b", "c", "d"))
        joint = states.partial_trace(rho, ["b", "d"])
        seq = states.partial_trace(states.partial_trace(rho, ["b", "c", "d"]), ["b", "d"])
        seq2 = states.partial_trace(states.partial_trace(rho, ["a", "b", "d"]), ["b", "d"])
        assert np.abs(joint.matrix - seq.matrix).max() < 1e-12
        assert np.abs(joint.matrix - seq2.matrix).max() < 1e-12

    def test_label_order_preserved(self):
        rho = states.random_pure((2, 2, 2), states.rng_from_seed(4), ("B", "C", "R"))
        assert states.partial_trace(rho, ["R", "B"]).labels == ("B", "R")

    def test_marginal_is_kept(self):
        rho = states.random_pure((2, 3, 2), states.rng_from_seed(4), ("B", "C", "R"))
        rho_bc = states.partial_trace(rho, ["C", "B"])
        assert states.partial_trace(rho, ["B", "C"]) is rho_bc
        assert states.partial_trace(rho, "B") is states.partial_trace(rho, ["B"])
        assert states.partial_trace(rho, ["B", "R"]) is not rho_bc

    def test_unknown_label_rejected(self):
        rho = states.random_pure((2, 2), states.rng_from_seed(4), ("B", "C"))
        with pytest.raises(ValueError, match="unknown"):
            states.partial_trace(rho, ["Z"])


class TestTensorAndPermute:
    def test_maximally_mixed_tensor(self):
        tau2 = states.classical_state(np.full(2, 0.5), ["A"])
        out = states.tensor(tau2, states.classical_state(np.full(2, 0.5), ["B"]))
        assert np.abs(out.matrix - np.eye(4) / 4).max() < 1e-14
        assert out.labels == ("A", "B")

    def test_pure_tensor_pure_is_pure(self):
        a = states.random_pure((2,), states.rng_from_seed(1), ("A",))
        b = states.random_pure((3,), states.rng_from_seed(2), ("B",))
        assert abs(purity(states.tensor(a, b)) - 1.0) < 1e-9

    def test_trace_multiplicative(self):
        a = states.random_mixed((2,), states.rng_from_seed(3), ("A",))
        b = states.random_mixed((2,), states.rng_from_seed(4), ("B",))
        assert abs(np.trace(states.tensor(a, b).matrix).real - 1.0) < 1e-12

    def test_label_collision_rejected(self):
        a = states.random_mixed((2,), states.rng_from_seed(3), ("A",))
        with pytest.raises(ValueError, match="both factors"):
            states.tensor(a, a)

    def test_permute_round_trip_matches_tensor(self):
        a = states.random_mixed((2,), states.rng_from_seed(5), ("A",))
        b = states.random_mixed((3,), states.rng_from_seed(6), ("B",))
        ab = states.tensor(a, b)
        ba = states.permute(ab, ("B", "A"))
        assert np.abs(ba.matrix - states.tensor(b, a).matrix).max() < 1e-12
        assert np.abs(states.permute(ba, ("A", "B")).matrix - ab.matrix).max() < 1e-12

    def test_permute_rejects_non_permutation(self):
        rho = states.random_pure((2, 2), states.rng_from_seed(1), ("A", "B"))
        with pytest.raises(ValueError, match="permutation"):
            states.permute(rho, ("A", "Z"))


class TestPurify:
    def test_pure_input_gets_trivial_ancilla(self):
        rho = states.random_pure((2, 2), states.rng_from_seed(10), ("A", "B"))
        out = states.purify(rho, "E")
        assert out.dim_of("E") == 1
        assert np.abs(states.partial_trace(out, ["A", "B"]).matrix - rho.matrix).max() < 1e-9

    def test_maximally_mixed_qubit(self):
        tau = states.classical_state(np.full(2, 0.5), ["A"])
        out = states.purify(tau, "E")
        assert out.dims == (2, 2)
        assert abs(purity(out) - 1.0) < 1e-9
        marg = states.partial_trace(out, ["A"])
        assert np.abs(marg.matrix - np.eye(2) / 2).max() < 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_marginal_recovers_input(self, seed):
        rho = states.random_mixed((4,), states.rng_from_seed(seed), ("A",))
        out = states.purify(rho, "E")
        assert np.abs(states.partial_trace(out, ["A"]).matrix - rho.matrix).max() < 1e-9

    @pytest.mark.parametrize("dims, ancilla_dim", [((4,), None), ((2, 3), 2), ((2, 2), 1)])
    def test_matches_kron_construction(self, dims, ancilla_dim):
        for seed in range(5):
            rho = states.random_mixed(dims, states.sample_rng(12, seed), ancilla_dim=ancilla_dim)
            # reference: psi = sum over kept eigenpairs of sqrt(w_k) v_k (x) e_k
            spec = linalg.eigh(rho.matrix)
            idx = np.nonzero(spec.eigenvalues > linalg.support_cutoff(spec.eigenvalues))[0]
            psi = np.zeros(rho.dim * len(idx), dtype=complex)
            for col, i in enumerate(idx):
                e = np.zeros(len(idx), dtype=complex)
                e[col] = 1.0
                psi += np.sqrt(spec.eigenvalues[i]) * np.kron(spec.eigenvectors[:, i], e)
            out = states.purify(rho, "E")
            assert out.dims == rho.dims + (len(idx),)
            assert np.array_equal(out.matrix, np.outer(psi, psi.conj()))

    def test_entropy_duality_for_pure_tripartite(self):
        for seed in range(5):
            rho = states.random_pure((2, 3, 2), states.sample_rng(50, seed), ("B", "C", "R"))
            s = lambda keep: entropy.von_neumann(states.partial_trace(rho, keep))
            assert abs(s(["B", "C"]) - s(["R"])) < 1e-8
            assert abs(s(["B", "R"]) - s(["C"])) < 1e-8
            assert abs(s(["B"]) - s(["C", "R"])) < 1e-8


class TestClassicalStates:
    def test_point_mass(self):
        table = np.zeros((2, 2))
        table[0, 0] = 1.0
        rho = states.classical_state(table, ["X", "Y"])
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert np.abs(rho.matrix - expect).max() < 1e-14

    def test_uniform_is_maximally_mixed(self):
        rho = states.classical_state(np.full(5, 0.2), ["X"])
        assert np.abs(rho.matrix - np.eye(5) / 5).max() < 1e-14

    def test_product_table_factorizes(self):
        px = np.array([0.3, 0.7])
        py = np.array([0.5, 0.25, 0.25])
        rho = states.classical_state(np.outer(px, py), ["X", "Y"])
        pieces = states.tensor(
            states.classical_state(px, ["X"]), states.classical_state(py, ["Y"])
        )
        assert np.abs(rho.matrix - pieces.matrix).max() < 1e-14

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError, match="negative"):
            states.classical_state(np.array([1.5, -0.5]), ["X"])
        with pytest.raises(ValueError, match="sums to"):
            states.classical_state(np.array([0.5, 0.6]), ["X"])
        # the table check stands in for the state's: NaN slips past both
        # comparisons above
        with pytest.raises(ValueError, match="non-finite"):
            states.classical_state(np.array([0.5, np.nan]), ["X"])
        with pytest.raises(ValueError, match="duplicate"):
            states.classical_state(np.full((2, 2), 0.25), ["X", "X"])


class TestClassicalExampleState:
    def test_eps_zero_is_product_point_mass(self):
        rho = states.classical_example_state(3, 0.0)
        assert rho.labels == ("C", "B", "R")
        cr = states.partial_trace(rho, ["C", "R"])
        expect = np.zeros((9, 9))
        expect[0, 0] = 1.0
        assert np.abs(cr.matrix - expect).max() < 1e-14
        b = states.partial_trace(rho, ["B"])
        assert np.abs(b.matrix - np.eye(2) / 2).max() < 1e-14

    def test_diagonal_and_normalized(self):
        rho = states.classical_example_state(5, 0.3)
        off = rho.matrix - np.diag(np.diag(rho.matrix))
        assert np.abs(off).max() < 1e-14
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12

    def test_mutual_information_matches_formula(self):
        d, eps = 16, 0.1
        rho = states.classical_example_state(d, eps)
        i_cr = (
            entropy.von_neumann(states.partial_trace(rho, ["C"]))
            + entropy.von_neumann(states.partial_trace(rho, ["R"]))
            - entropy.von_neumann(states.partial_trace(rho, ["C", "R"]))
        )
        h2 = -eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps)
        assert abs(i_cr - (h2 + eps * math.log2(d - 1))) < 1e-10

    @pytest.mark.parametrize("d, eps", [(2, 0.3), (16, 0.1), (5, 0.0), (3, 1.0)])
    def test_matches_tensor_construction(self, d, eps):
        # reference: the (C, R) state tensored with a maximally mixed qubit B, reordered
        table_cr = np.zeros((d, d))
        table_cr[0, 0] = 1.0 - eps
        for k in range(1, d):
            table_cr[k, k] = eps / (d - 1)
        rho_cr = states.classical_state(table_cr, ("C", "R"))
        tau_b = states.classical_state(np.full(2, 0.5), ("B",))
        oracle = states.permute(states.tensor(rho_cr, tau_b), ("C", "B", "R"))
        rho = states.classical_example_state(d, eps)
        assert rho.subsystems == oracle.subsystems
        assert np.array_equal(rho.matrix, oracle.matrix)

    def test_rejects_small_d(self):
        with pytest.raises(ValueError, match="d >= 2"):
            states.classical_example_state(1, 0.1)


class TestJsonRoundTrip:
    def test_round_trip(self, tmp_path):
        rho = states.random_mixed((2, 3), states.rng_from_seed(21), ("B", "C"))
        path = tmp_path / "state.json"
        states.save_state(rho, path)
        loaded = states.load_state(path)
        assert loaded.subsystems == rho.subsystems
        assert np.abs(loaded.matrix - rho.matrix).max() < 1e-15

    def test_document_shape(self, tmp_path):
        rho = states.random_pure((2, 2), states.rng_from_seed(1), ("B", "C"))
        path = tmp_path / "state.json"
        states.save_state(rho, path)
        doc = json.loads(path.read_text())
        assert doc["subsystems"] == [{"label": "B", "dim": 2}, {"label": "C", "dim": 2}]
        assert len(doc["matrix_re"]) == 4 and len(doc["matrix_im"]) == 4

    def test_loader_validates(self, tmp_path):
        doc = {
            "subsystems": [{"label": "A", "dim": 2}],
            "matrix_re": [[1.0, 0.0], [0.0, 1.0]],  # trace 2
            "matrix_im": [[0.0, 0.0], [0.0, 0.0]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="trace"):
            states.load_state(path)

    def test_malformed_document(self):
        with pytest.raises(ValueError, match="malformed"):
            states.from_json_dict({"matrix_re": []})


def test_partial_trace_preserves_positivity_and_trace():
    for seed in range(5):
        rho = states.random_mixed((2, 2, 3), states.sample_rng(60, seed), ("a", "b", "c"))
        red = states.partial_trace(rho, ["a", "c"])
        assert abs(np.trace(red.matrix).real - 1.0) < 1e-12
        assert linalg.min_eigenvalue(red.matrix) >= -1e-12
