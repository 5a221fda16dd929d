"""Algebra of sesquilinear forms on C^n.

A form is represented by its matrix A in the standard basis through
``t(phi, psi) = psi* A phi`` (linear in the first argument, conjugate-linear
in the second). The module provides evaluation, adjoint/real/imaginary parts,
domination tests, construction of a dominating non-negative form, value-set
classification and boundedness relative to a reference form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotPSD
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    annihilates,
    as_complex_matrix,
    eig_pinv_sqrt,
    hermitize,
    is_psd,
    max_asymmetry,
    operator_norm,
)


def _as_vector(value, n: int, name: str) -> np.ndarray:
    x = np.asarray(value, dtype=complex).reshape(-1)
    if x.shape != (n,):
        raise DimensionMismatch(f"{name} must be a vector of length {n}, got {x.shape}")
    return x


@dataclass(frozen=True)
class SesquilinearForm:
    """Sesquilinear form t(phi, psi) = psi* A phi on C^n."""

    matrix: np.ndarray

    def __post_init__(self):
        A = as_complex_matrix(self.matrix, "form matrix").copy()
        A.flags.writeable = False
        object.__setattr__(self, "matrix", A)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def evaluate(self, phi, psi) -> complex:
        """t(phi, psi); linear in phi, conjugate-linear in psi."""
        phi = _as_vector(phi, self.dim, "phi")
        psi = _as_vector(psi, self.dim, "psi")
        return complex(np.vdot(psi, self.matrix @ phi))

    def quadratic(self, phi) -> complex:
        """The quadratic value t[phi] = t(phi, phi)."""
        return self.evaluate(phi, phi)

    def adjoint(self) -> "SesquilinearForm":
        """Form with conjugated slots: t*(phi, psi) = conj(t(psi, phi))."""
        return SesquilinearForm(self.matrix.conj().T)

    def real_part(self) -> "SesquilinearForm":
        return SesquilinearForm(hermitize(self.matrix))

    def imag_part(self) -> "SesquilinearForm":
        return SesquilinearForm((self.matrix - self.matrix.conj().T) / 2j)

    def is_symmetric(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return max_asymmetry(self.matrix) <= tol.cmp_abs

    def __add__(self, other: "SesquilinearForm") -> "SesquilinearForm":
        if self.dim != other.dim:
            raise DimensionMismatch("cannot add forms of different dimension")
        return SesquilinearForm(self.matrix + other.matrix)

    def __rmul__(self, scalar) -> "SesquilinearForm":
        return SesquilinearForm(complex(scalar) * self.matrix)


@dataclass(frozen=True)
class NonNegativeForm(SesquilinearForm):
    """Sesquilinear form with t[phi] >= 0 for every phi (PSD matrix).

    The constructor validates the matrix once and keeps what it computed:
    `asymmetry` is max |A - A*| and `spectrum` the ascending eigenvalues of
    the symmetrized matrix, so `psd_at` answers for any tolerance without
    factoring again. `eigenpairs` is factored on first use and kept; every
    kernel, root and rank of the form is read from it.
    """

    asymmetry: float = field(init=False, repr=False, compare=False)
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "asymmetry", max_asymmetry(self.matrix))
        if self.asymmetry <= DEFAULT_TOL.cmp_abs:
            lam = np.linalg.eigvalsh(hermitize(self.matrix))
            lam.flags.writeable = False
            object.__setattr__(self, "spectrum", lam)
        if not self.psd_at(DEFAULT_TOL):
            raise NotPSD("matrix of a non-negative form must be positive semidefinite")

    def psd_at(self, tol: Tolerance) -> bool:
        """Exactly ``is_psd(self.matrix, tol)``, from the constructor's spectrum."""
        if self.asymmetry > tol.cmp_abs:
            return False
        return bool(self.spectrum[0] >= -tol.psd_abs)

    @cached_property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (ascending eigenvalues clipped at 0, eigenvectors) of the
        symmetrized matrix. Threads racing on first use compute the same value."""
        lam, V = np.linalg.eigh(hermitize(self.matrix))
        lam = np.clip(lam, 0.0, None)
        lam.flags.writeable = V.flags.writeable = False
        return lam, V

    def kernel(self, tol: Tolerance) -> np.ndarray:
        """Orthonormal kernel basis at the form's own cutoff rank_rel * lambda_max."""
        lam, V = self.eigenpairs
        return V[:, lam <= tol.rank_rel * lam[-1]]


@dataclass(frozen=True)
class RangeClass:
    """Containment flags for the set of quadratic values {t[phi] : phi in C^n}.

    nonneg: values in [0, +inf)
    real: values real (symmetric form)
    quadrant: Re and Im both non-negative
    halfplane: Re non-negative
    sector: |Im| <= c * Re for some finite c >= 0; sector_constant is the
        smallest such c (None when no finite constant exists).
    """

    nonneg: bool
    real: bool
    quadrant: bool
    halfplane: bool
    sector: bool
    sector_constant: float | None = None


def polarization_reconstruct(q, phi, psi) -> complex:
    """Recover t(phi, psi) from a quadratic-form oracle q.

    Uses the four-point identity t(phi, psi) = (1/4) sum_k i^k q(phi + i^k psi),
    valid when q is the quadratic form of some sesquilinear t.
    """
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    total = 0j
    for k in range(4):
        ik = 1j**k
        total += ik * complex(q(phi + ik * psi))
    return total / 4.0


def _check_same_dim(a: SesquilinearForm, b: SesquilinearForm) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")


def _compressed_norm(
    eigenpairs: tuple[np.ndarray, np.ndarray], A: np.ndarray, tol: Tolerance
) -> float | None:
    """Norm of A compressed by the pseudo-inverse square root of a PSD W.

    `eigenpairs` is W's eigensystem, eigenvalues ascending and clipped at 0.
    None when ker(W) fails to annihilate A or A*, i.e. when no multiple of W
    dominates A.
    """
    lam, V = eigenpairs
    cutoff = tol.rank_rel * lam[-1]
    K = V[:, lam <= cutoff]
    if not (annihilates(A, K, tol) and annihilates(A.conj().T, K, tol)):
        return None
    Wph = eig_pinv_sqrt(lam, V, cutoff)
    return operator_norm(Wph @ A @ Wph)


def is_dominating(
    sigma: NonNegativeForm, form: SesquilinearForm, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Whether |t(phi, psi)| <= sigma[phi]^(1/2) sigma[psi]^(1/2) for all phi, psi.

    Decided exactly in finite dimension: sigma dominates iff ker(S) annihilates
    both A and A*, and the compression of A by the pseudo-inverse square root of
    S has operator norm at most 1.
    """
    _check_same_dim(sigma, form)
    if not sigma.psd_at(tol):
        raise NotPSD("dominating candidate must be PSD")
    norm = _compressed_norm(sigma.eigenpairs, form.matrix, tol)
    return norm is not None and norm <= 1.0 + tol.psd_abs


def construct_dominating(
    form: SesquilinearForm, tol: Tolerance = DEFAULT_TOL
) -> NonNegativeForm:
    """Build a non-negative form dominating `form`.

    For normal A the PSD polar factor |A| suffices (and is tight in the
    Hermitian case); otherwise |A| + |A*| is returned. The normal branch is
    verified and falls back to the sum if near-normality slack made it fail.
    """
    A = form.matrix
    U, s, Vh = np.linalg.svd(A)
    abs_right = hermitize(Vh.conj().T @ (s[:, None] * Vh))  # (A* A)^(1/2)
    abs_left = hermitize(U @ (s[:, None] * U.conj().T))  # (A A*)^(1/2)
    scale = max(1.0, float(s[0] ** 2)) if s.size else 1.0
    normality_gap = float(np.max(np.abs(A @ A.conj().T - A.conj().T @ A)))
    if normality_gap <= form.dim * tol.cmp_abs * scale:
        candidate = NonNegativeForm(abs_right)
        if is_dominating(candidate, form, tol):
            return candidate
    return NonNegativeForm(abs_right + abs_left)


def classify_range(form: SesquilinearForm, tol: Tolerance = DEFAULT_TOL) -> RangeClass:
    """Classify which reference regions contain every quadratic value of `form`.

    The tests are matrix criteria: non-negativity of A for [0, inf), Hermiticity
    for R, and non-negativity of the real/imaginary parts for the half-plane and
    quadrant. The smallest sector constant is the boundedness constant of
    Im(A) relative to Re(A), and exactly 0 when Im(A) and -Im(A) are PSD.
    """
    A = form.matrix
    re = hermitize(A)
    im = (A - A.conj().T) / 2j
    lam = np.linalg.eigvalsh(re)
    real = max_asymmetry(A) <= tol.cmp_abs
    nonneg = real and bool(lam[0] >= -tol.psd_abs)
    # hermitize(re) equals re up to the sign of zero entries; where a sign
    # differs, eigvalsh may differ in the last bit, so it is factored anew
    sym = hermitize(re)
    lam_sym = lam if sym.tobytes() == re.tobytes() else np.linalg.eigvalsh(sym)
    halfplane = bool(lam_sym[0] >= -tol.psd_abs)
    quadrant = halfplane and is_psd(im, tol)
    constant = None
    if quadrant and is_psd(-im, tol):
        constant = 0.0
    elif halfplane:
        lam_re, V = np.linalg.eigh(re)
        constant = _compressed_norm((np.clip(lam_re, 0.0, None), V), im, tol)
    return RangeClass(
        nonneg=nonneg,
        real=real,
        quadrant=quadrant,
        halfplane=halfplane,
        sector=constant is not None,
        sector_constant=constant,
    )


def is_bounded_by(
    form: SesquilinearForm, ref: NonNegativeForm, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, float | None]:
    """Whether |t(phi, psi)| <= C ref[phi]^(1/2) ref[psi]^(1/2) for a finite C.

    Returns (flag, C) with C the smallest admissible constant when the flag is
    true; equivalently C * ref dominates `form`. Holds iff ker(ref) annihilates
    the form's matrix and its adjoint.
    """
    _check_same_dim(form, ref)
    if not ref.psd_at(tol):
        raise NotPSD("reference form must be PSD")
    norm = _compressed_norm(ref.eigenpairs, form.matrix, tol)
    return (False, None) if norm is None else (True, norm)
