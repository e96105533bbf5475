"""Dense complex Hermitian linear algebra.

Eigendecompositions, spectral matrix functions with a support cutoff, and
matrix norms. Everything else in the package is built on these primitives.
All scalars are double precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Largest allowed max-abs deviation of H from its adjoint.
HERMITICITY_ATOL = 1e-9

# Eigenvalues at or below SUPPORT_RTOL times the largest eigenvalue count as
# zero for logs, inverse powers, and support projectors.
SUPPORT_RTOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` is real and ascending; the columns of ``eigenvectors``
    are the matching orthonormal eigenvectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(
        self, f: Callable[[np.ndarray], np.ndarray], cutoff: float | None = None
    ) -> np.ndarray:
        """V diag(f(w)) V^dag, with eigenvalues at or below the cutoff mapped to zero.

        ``cutoff`` is absolute (must be >= 0); ``None`` selects the default
        relative cutoff from this spectrum.
        """
        w = self.eigenvalues
        if cutoff is None:
            cutoff = support_cutoff(w)
        if cutoff < 0:
            raise ValueError(f"support cutoff must be >= 0, got {cutoff}")
        fw = np.zeros_like(w)
        mask = w > cutoff
        if np.any(mask):
            fw[mask] = f(w[mask])
        return (self.eigenvectors * fw) @ self.eigenvectors.conj().T


def _check_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix contains non-finite entries")
    return a


def eigh(h: np.ndarray, atol: float = HERMITICITY_ATOL) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    This is the one check that a matrix is square, finite and Hermitian;
    states and channels validate through it. The input is symmetrized to
    (H + H^dag)/2 before decomposing, which absorbs round-off accumulated
    by callers; asymmetry beyond ``atol`` is an error rather than
    something to hide.
    """
    h = _check_square(h)
    asym = float(np.abs(h - h.conj().T).max())
    if asym > atol:
        raise ValueError(
            f"matrix is not Hermitian: max|H - H^dag| = {asym:.3e} exceeds {atol:.1e}"
        )
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    # read-only, like the matrices of the states and channels that keep them
    w.setflags(write=False)
    v.setflags(write=False)
    return Spectrum(w, v)


def support_cutoff(eigenvalues: np.ndarray) -> float:
    """Absolute threshold below which eigenvalues count as numerically zero.

    Scale-invariant: SUPPORT_RTOL times the largest eigenvalue (zero when
    the spectrum has no positive part).
    """
    top = float(np.max(eigenvalues)) if len(eigenvalues) else 0.0
    return SUPPORT_RTOL * max(top, 0.0)


def matrix_function(
    h: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    cutoff: float | None = None,
) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Eigenvalues at or below the support cutoff map to zero instead of
    passing through ``f``. This is the support-restricted convention for
    log, sqrt and inverse powers of positive semidefinite matrices.

    Args:
        h: Hermitian matrix.
        f: vectorized scalar map applied to the retained eigenvalues.
        cutoff: absolute eigenvalue threshold (must be >= 0); ``None``
            selects the default relative cutoff from the spectrum.
    """
    return eigh(h).apply(f, cutoff)


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values of a square matrix."""
    a = _check_square(a)
    return float(np.linalg.svd(a, compute_uv=False).sum())


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of (H + H^dag)/2."""
    h = _check_square(h)
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0])
