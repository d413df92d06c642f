"""Dense Hermitian linear algebra: eigenvalues and norms.

Matrices are plain ``numpy`` arrays. Every public operation validates the
Hermitian symmetry tolerance and works on the symmetrized input, so callers
may pass matrices that picked up last-bit asymmetry from serialization.
"""

from __future__ import annotations

import numpy as np

from .errors import NonHermitianInput

HERMITIAN_TOL = 1e-12


def require_hermitian(mat) -> np.ndarray:
    """Validate Hermitian symmetry within ``HERMITIAN_TOL * max|entry|`` and
    symmetrize.

    Returns ``(M + M*)/2`` as a fresh complex array. Raises
    :class:`NonHermitianInput` when the asymmetry exceeds the tolerance.
    """
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise NonHermitianInput(f"expected a square matrix, got shape {m.shape}")
    scale = max(np.abs(m).max(), 1e-300)
    gap = np.abs(m - m.conj().T).max()
    if gap > HERMITIAN_TOL * scale:
        raise NonHermitianInput(f"asymmetry {gap:.3e} exceeds {HERMITIAN_TOL:.1e} * scale {scale:.3e}")
    return (m + m.conj().T) / 2.0


def eigvals_hermitian(mat) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending."""
    return np.linalg.eigvalsh(require_hermitian(mat))


def residual_norm(mat) -> float:
    """Spectral norm of the Hermitian part, without the symmetry gate.

    For difference matrices that are numerically zero (tightness gates,
    round-trip residuals) the relative symmetry check is meaningless; this
    symmetrizes unconditionally.
    """
    m = np.asarray(mat, dtype=complex)
    w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return float(np.abs(w).max())


def spectral_norm(mat) -> float:
    """Largest absolute eigenvalue."""
    w = eigvals_hermitian(mat)
    return float(np.abs(w).max())
