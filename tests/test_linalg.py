import numpy as np
import pytest

from cmirecon import linalg


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def random_density(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


class TestEigh:
    def test_identity_spectrum(self):
        spec = linalg.eigh(np.eye(3))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0])

    def test_pauli_z_spectrum(self):
        spec = linalg.eigh(np.diag([1.0, -1.0]))
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction_identity(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, 8)
        spec = linalg.eigh(h)
        v = spec.eigenvectors
        rel = np.linalg.norm((v * spec.eigenvalues) @ v.conj().T - h) / np.linalg.norm(h)
        assert rel < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_eigenvectors_orthonormal(self, seed):
        rng = np.random.default_rng(seed + 100)
        v = linalg.eigh(random_hermitian(rng, 6)).eigenvectors
        assert np.abs(v.conj().T @ v - np.eye(6)).max() < 1e-10

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(0)
        w = linalg.eigh(random_hermitian(rng, 7)).eigenvalues
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.eigh(bad)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            linalg.eigh(np.zeros((2, 3)))

    def test_symmetrizes_small_asymmetry(self):
        h = np.diag([1.0, 2.0]) + np.array([[0, 1e-11], [0, 0]])
        spec = linalg.eigh(h)
        assert np.allclose(spec.eigenvalues, [1.0, 2.0], atol=1e-9)


class TestMatrixFunction:
    def test_sqrt_diagonal(self):
        out = linalg.matrix_function(np.diag([4.0, 9.0]), np.sqrt)
        assert np.allclose(out, np.diag([2.0, 3.0]))

    def test_log2_of_identity_is_zero(self):
        out = linalg.matrix_function(np.eye(4), np.log2)
        assert np.abs(out).max() < 1e-12

    def test_inverse_sqrt_on_scaled_projector(self):
        # 0.25 P with rank-1 P: f = x^(-1/2) gives 2 P on the support
        v = np.array([1.0, 1.0j]) / np.sqrt(2)
        p = np.outer(v, v.conj())
        out = linalg.matrix_function(0.25 * p, lambda x: 1 / np.sqrt(x), cutoff=1e-10)
        assert np.abs(out - 2 * p).max() < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_identity_map_reproduces_support(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, 5)
        out = linalg.matrix_function(rho, lambda x: x, cutoff=0.0)
        assert np.abs(out - rho).max() < 1e-12

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError, match="cutoff"):
            linalg.matrix_function(np.eye(2), np.sqrt, cutoff=-1.0)

    def test_cutoff_zeroes_small_eigenvalues(self):
        out = linalg.matrix_function(np.diag([1.0, 1e-14]), np.log, cutoff=1e-10)
        assert np.abs(out).max() < 1e-12

    @pytest.mark.parametrize("f", [np.sqrt, np.log, np.ones_like, lambda x: 1.0 / np.sqrt(x)])
    def test_full_support_matches_masked_form_bit_for_bit(self, f):
        # a full-rank spectrum skips the mask; f still sees the same values
        spec = linalg.eigh(random_density(np.random.default_rng(4), 6))
        w, v = spec.eigenvalues, spec.eigenvectors
        fw = np.zeros_like(w)
        mask = w > linalg.support_cutoff(w)
        assert mask.all()
        fw[mask] = f(w[mask])
        assert np.array_equal(spec.apply(f), (v * fw) @ v.conj().T)


class TestSpectrumSplit:
    @staticmethod
    def _spectra():
        rng = np.random.default_rng(9)
        full = random_density(rng, 6)
        v = linalg.eigh(random_hermitian(rng, 6)).eigenvectors
        # rank 3, with round-off-sized and slightly negative kernel eigenvalues
        deficient = (v * np.array([-1e-15, 0.0, 1e-13, 0.2, 0.3, 0.5])) @ v.conj().T
        return {"full": linalg.eigh(full), "deficient": linalg.eigh(deficient)}

    @pytest.mark.parametrize("kind, rank", [("full", 6), ("deficient", 3)])
    def test_kernel_and_root_follow_the_cutoff(self, kind, rank):
        spec = self._spectra()[kind]
        w, v = spec.eigenvalues, spec.eigenvectors
        keep = w > linalg.support_cutoff(w)
        assert spec.kernel == len(w) - rank == np.count_nonzero(~keep)
        assert np.array_equal(spec.root, v[:, keep] * np.sqrt(w[keep]))
        m = (v * w) @ v.conj().T
        assert np.abs(spec.root @ spec.root.conj().T - m).max() < 1e-12

    def test_an_eigenvalue_at_the_cutoff_is_in_the_kernel(self):
        spec = linalg.eigh(np.diag([1e-10, 1.0]))
        assert spec.eigenvalues[0] == linalg.support_cutoff(spec.eigenvalues)
        assert spec.kernel == 1
        assert np.array_equal(spec.root, spec.eigenvectors[:, 1:])

    def test_default_cutoff_slices_at_the_kernel(self):
        spec = self._spectra()["deficient"]
        w, v = spec.eigenvalues, spec.eigenvectors
        fw = np.zeros_like(w)
        mask = w > linalg.support_cutoff(w)
        fw[mask] = np.log(w[mask])
        assert np.array_equal(spec.apply(np.log), (v * fw) @ v.conj().T)

    def test_root_is_built_once_and_read_only(self):
        spec = self._spectra()["deficient"]
        assert spec.root is spec.root
        assert not spec.root.flags.writeable
        with pytest.raises(ValueError):
            spec.root[0, 0] = 1.0


class TestTraceNorm:
    def test_density_matrix_is_one(self):
        rng = np.random.default_rng(1)
        assert abs(linalg.trace_norm(random_density(rng, 6)) - 1.0) < 1e-12

    def test_pauli_x(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert abs(linalg.trace_norm(x) - 2.0) < 1e-12

    def test_orthogonal_pure_state_difference(self):
        # eigenvalues of |0><0| - |1><1| are +1 and -1
        diff = np.diag([1.0, -1.0, 0.0])
        assert abs(linalg.trace_norm(diff) - 2.0) < 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            linalg.trace_norm(np.zeros((2, 3)))


@pytest.mark.parametrize("seed", range(10))
def test_bipartite_operator_inequality(seed):
    # m * (I_M x pi_N) - pi_MN is PSD for every bipartite density matrix
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    pi = random_density(rng, m * n)
    pi_n = np.trace(pi.reshape(m, n, m, n), axis1=0, axis2=2)
    gap = m * np.kron(np.eye(m), pi_n) - pi
    assert linalg.min_eigenvalue(gap) >= -1e-9


def test_support_cutoff_scale_invariant():
    w = np.array([0.0, 0.5, 1.0])
    assert linalg.support_cutoff(w) == pytest.approx(1e-10)
    assert linalg.support_cutoff(1000 * w) == pytest.approx(1e-7)
    assert linalg.support_cutoff(np.array([-1.0, -0.5])) == 0.0


def test_blas_runs_one_thread():
    # the root conftest.py pins BLAS to one thread before numpy loads,
    # unless the environment sets a count; read the loaded OpenBLAS with
    # the benchmark's own probe
    import importlib.util
    import os
    from pathlib import Path

    if os.environ.get("OPENBLAS_NUM_THREADS", "1") != "1":
        pytest.skip("the environment sets another OpenBLAS thread count")

    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    _, threads = run._openblas()
    if threads == "unknown":
        pytest.skip("no OpenBLAS thread count could be read")
    assert threads == 1
