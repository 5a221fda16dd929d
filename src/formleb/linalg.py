"""Dense complex Hermitian linear algebra with an explicit rank/tolerance policy.

Every rank decision in the package goes through the single relative cutoff
``rank_rel * lambda_max`` defined here, so kernels and ranges computed for
different matrices stay mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, NotPSD


@dataclass(frozen=True)
class Tolerance:
    """Numerical policy knobs shared by all operations.

    rank_rel: relative eigenvalue/singular-value cutoff for rank decisions.
    psd_abs: absolute slack when testing non-negativity of eigenvalues.
    cmp_abs: absolute slack for entrywise/Hermitian comparisons.
    """

    rank_rel: float = 1e-10
    psd_abs: float = 1e-9
    cmp_abs: float = 1e-9

    def __post_init__(self):
        for name in ("rank_rel", "psd_abs", "cmp_abs"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly in (0, 1), got {value!r}")


DEFAULT_TOL = Tolerance()


def as_complex_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    A = np.asarray(value, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {A.shape}")
    if A.shape[0] == 0:
        raise DimensionMismatch(f"{name} must have positive dimension")
    if not np.isfinite(A).all():
        raise NonFinite(f"{name} contains non-finite entries")
    return A


def hermitize(A: np.ndarray) -> np.ndarray:
    """Symmetrized copy (A + A*) / 2; kills round-off asymmetry before eigh."""
    return (A + A.conj().T) / 2.0


def max_asymmetry(A: np.ndarray) -> float:
    return float(np.max(np.abs(A - A.conj().T)))


def _psd_spectrum(H, tol: Tolerance, name: str):
    """Eigensystem of a PSD matrix with negatives-within-slack clamped to 0."""
    A = as_complex_matrix(H, name)
    asym = max_asymmetry(A)
    if asym > tol.cmp_abs:
        raise NotPSD(f"{name} is not Hermitian (max asymmetry {asym:.3e})")
    lam, V = np.linalg.eigh(hermitize(A))
    if lam.size and lam[0] < -tol.psd_abs:
        raise NotPSD(f"{name} has negative eigenvalue {lam[0]:.6e}")
    return np.clip(lam, 0.0, None), V


def psd_sqrt(H, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root of a PSD matrix."""
    lam, V = _psd_spectrum(H, tol, "H")
    return hermitize((V * np.sqrt(lam)) @ V.conj().T)


def pinv_sqrt(H, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Pseudo-inverse square root: eigenvalues below rank_rel * lambda_max invert to 0.

    The product ``pinv_sqrt(H) @ H @ pinv_sqrt(H)`` is the orthogonal projector
    onto range(H).
    """
    lam, V = _psd_spectrum(H, tol, "H")
    return eig_pinv_sqrt(lam, V, tol.rank_rel * lam[-1])


def eig_pinv_sqrt(lam: np.ndarray, V: np.ndarray, cutoff: float) -> np.ndarray:
    """Pseudo-inverse square root from an eigensystem (lam clipped at 0).

    Eigenvalues at or below the absolute `cutoff` invert to 0.
    """
    inv = np.zeros_like(lam)
    kept = lam > cutoff
    inv[kept] = 1.0 / np.sqrt(lam[kept])
    return hermitize((V * inv) @ V.conj().T)


def kernel_basis(A, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the numerical null space of A.

    Singular directions with singular value <= rank_rel * s_max count as kernel.
    Returns an (n, 0) array when A is numerically injective.
    """
    M = as_complex_matrix(A, "A")
    _, s, Vh = np.linalg.svd(M)
    cutoff = tol.rank_rel * (s[0] if s.size else 0.0)
    rank = int(np.count_nonzero(s > cutoff))
    return Vh[rank:].conj().T


def is_psd(H, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff H is Hermitian within cmp_abs and min eigenvalue >= -psd_abs."""
    A = as_complex_matrix(H, "H")
    if max_asymmetry(A) > tol.cmp_abs:
        return False
    lam = np.linalg.eigvalsh(hermitize(A))
    return bool(lam[0] >= -tol.psd_abs)


def operator_norm(A) -> float:
    """Largest singular value (rectangular inputs allowed)."""
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2:
        raise DimensionMismatch(f"operator_norm expects a matrix, got shape {M.shape}")
    if 0 in M.shape:
        return 0.0
    if not np.isfinite(M).all():
        raise NonFinite("matrix contains non-finite entries")
    return float(np.linalg.svd(M, compute_uv=False)[0])


def annihilates(A: np.ndarray, K: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether A sends every column of K to (numerical) zero.

    K is expected orthonormal; residuals are compared against
    ``n * rank_rel * max(1, ||A||)`` so the decision is consistent with the
    kernel cutoff policy.
    """
    if K.shape[1] == 0:
        return True
    threshold = A.shape[0] * tol.rank_rel * max(1.0, operator_norm(A))
    return float(np.max(np.abs(A @ K))) <= threshold
