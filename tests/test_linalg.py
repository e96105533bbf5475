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
