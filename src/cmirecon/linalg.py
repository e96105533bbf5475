"""Dense complex Hermitian linear algebra.

Eigendecompositions, spectral matrix functions with a support cutoff, and
matrix norms. Everything else in the package is built on these primitives.
All scalars are double precision.
"""

from __future__ import annotations

import functools
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
    are the matching orthonormal eigenvectors. ``kernel`` and ``root`` hold
    the split at the default cutoff, each computed once.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @functools.cached_property
    def kernel(self) -> int:
        """The number of leading eigenpairs at or below the support cutoff."""
        return kernel_size(self.eigenvalues)

    @functools.cached_property
    def root(self) -> np.ndarray:
        """W = V_s diag(sqrt(w_s)) over the support, d x r for rank r, read-only.

        For a positive semidefinite H, H = W W^dag and sqrt(H) = W V_s^dag up
        to the kernel, so any unitarily invariant norm of sqrt(H) A equals
        that of W^dag A.
        """
        w, k = self.eigenvalues, self.kernel
        root = self.eigenvectors[:, k:] * np.sqrt(w[k:])
        root.setflags(write=False)
        return root

    def apply(
        self, f: Callable[[np.ndarray], np.ndarray], cutoff: float | None = None
    ) -> np.ndarray:
        """V diag(f(w)) V^dag, with eigenvalues at or below the cutoff mapped to zero.

        ``cutoff`` is absolute (must be >= 0); ``None`` selects the default
        relative cutoff, that is the spectrum's ``kernel``.
        """
        w = self.eigenvalues
        if cutoff is None:
            k = self.kernel
        elif cutoff < 0:
            raise ValueError(f"support cutoff must be >= 0, got {cutoff}")
        else:
            k = int(np.count_nonzero(w <= cutoff))
        v = self.eigenvectors
        if k == 0:
            # full support: f sees every eigenvalue, elementwise as below
            return (v * f(w)) @ v.conj().T
        fw = np.zeros_like(w)
        fw[k:] = f(w[k:])
        return (v * fw) @ v.conj().T


def _check_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix contains non-finite entries")
    return a


def eigh(h: np.ndarray) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    This is the one check that a matrix is square, finite and Hermitian;
    states and channels validate through it. The input is symmetrized to
    (H + H^dag)/2 before decomposing, which absorbs round-off accumulated
    by callers; asymmetry beyond HERMITICITY_ATOL is an error rather than
    something to hide.
    """
    h = _check_square(h)
    asym = float(np.abs(h - h.conj().T).max())
    if asym > HERMITICITY_ATOL:
        raise ValueError(
            f"matrix is not Hermitian: max|H - H^dag| = {asym:.3e} exceeds {HERMITICITY_ATOL:.1e}"
        )
    return _spectrum(h)


def _spectrum(h: np.ndarray) -> Spectrum:
    """``eigh`` without its checks, for a complex matrix already known to be
    square, finite and Hermitian: the same symmetrization and decomposition,
    so the same spectrum bit for bit."""
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    # read-only, like the matrices of the states and channels that keep them
    w.setflags(write=False)
    v.setflags(write=False)
    return Spectrum(w, v)


def support_cutoff(eigenvalues: np.ndarray) -> float:
    """Absolute threshold below which eigenvalues count as numerically zero.

    ``eigenvalues`` is ascending, as in a ``Spectrum``. Scale-invariant:
    SUPPORT_RTOL times the largest eigenvalue (zero when the spectrum has
    no positive part).
    """
    top = float(eigenvalues[-1]) if len(eigenvalues) else 0.0
    return SUPPORT_RTOL * max(top, 0.0)


def kernel_size(eigenvalues: np.ndarray) -> int:
    """How many of the ascending eigenvalues lie at or below the support
    cutoff: the kernel is the leading eigenpairs, the support the rest."""
    return int(np.count_nonzero(eigenvalues <= support_cutoff(eigenvalues)))


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
    return _trace_norm(_check_square(a))


def _trace_norm(a: np.ndarray) -> float:
    """``trace_norm`` without its check, for a complex matrix of any shape
    the program built from checked input."""
    return float(np.linalg.svd(a, compute_uv=False).sum())


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of (H + H^dag)/2."""
    h = _check_square(h)
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0])
