"""Algebra of sesquilinear forms on C^n.

A form is represented by its matrix A in the standard basis through
``t(phi, psi) = psi* A phi`` (linear in the first argument, conjugate-linear
in the second), stored as A's diagonal blocks on the connected components of
its support, which every form finds when it is built. The module provides
evaluation, adjoint/real/imaginary parts, domination tests, construction of a
dominating non-negative form, value-set classification and boundedness
relative to a reference form. Every public entry point on two or more forms
checks its inputs with one helper, `_check_inputs`, before any work.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotPSD
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    annihilates,
    as_square_matrix,
    block_eigvalsh,
    components,
    eig_pinv_sqrt,
    freeze,
    gather,
    hermitize,
    join,
    leading_columns,
    max_asymmetry,
    operator_norm,
    psd_eigh,
    require_finite,
    root_weights,
    same_partition,
    scatter,
    scatter_columns,
    top_eigenvalue,
)


def _as_vector(value, n: int, name: str) -> np.ndarray:
    x = np.asarray(value, dtype=complex).reshape(-1)
    if x.shape != (n,):
        raise DimensionMismatch(f"{name} must be a vector of length {n}, got {x.shape}")
    return x


class SesquilinearForm:
    """Sesquilinear form t(phi, psi) = psi* A phi on C^n.

    The form is stored as blocks: `groups` is a partition of the indices that
    A is block-diagonal on, in the layout `linalg.components` returns, and
    `blocks` holds A's read-only diagonal blocks on it, one (b, m, m) stack
    per group. The constructor takes the connected components of A's support,
    whatever the form's class; `from_blocks` takes the engine's partition.
    When the one group is every index, its stack is (1, n, n), a view of A.
    `matrix` is the dense A, read-only, assembled from the blocks on first
    read and kept; a form built from a dense matrix keeps that matrix.
    Forms are immutable: no attribute can be assigned and every array is
    read-only.
    """

    def __init__(self, matrix):
        A = as_square_matrix(matrix, "form matrix").copy()
        A.flags.writeable = False
        groups = components(A)
        self._store(groups, gather(A, groups), A.shape[0], matrix=A)
        self.__post_init__()

    @classmethod
    def from_blocks(cls, groups: list[np.ndarray], blocks: list[np.ndarray], n: int):
        """The form on C^n whose diagonal blocks on `groups` are `blocks` and
        whose every other entry is zero; validated as the constructor does.

        Internal: the engine and the measure path build their forms this way,
        so no n x n matrix is made unless `matrix` is read.
        """
        form = cls.__new__(cls)
        form._store(groups, blocks, n)
        form.__post_init__()
        return form

    def _store(self, groups, blocks, n, matrix=None):
        self.__dict__.update(groups=groups, blocks=[freeze(B) for B in blocks], dim=n)
        if matrix is not None:
            self.__dict__["matrix"] = matrix  # the value of the cached property

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __post_init__(self):
        """Validation that every constructor runs: all entries finite."""
        for B in self.blocks:
            require_finite(B, "form matrix")

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix A (read-only)."""
        return freeze(scatter(self.blocks, self.groups, self.dim))

    def blocks_on(self, groups: list[np.ndarray]) -> list[np.ndarray]:
        """The diagonal blocks on `groups`, a partition that `self.groups`
        refines: the stored ones on that same partition, else cut from
        `matrix`."""
        if same_partition(groups, self.groups):
            return self.blocks
        return gather(self.matrix, groups)

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

    def __add__(self, other: "SesquilinearForm") -> "SesquilinearForm":
        if self.dim != other.dim:
            raise DimensionMismatch("cannot add forms of different dimension")
        return SesquilinearForm(self.matrix + other.matrix)

    def __rmul__(self, scalar) -> "SesquilinearForm":
        return SesquilinearForm(complex(scalar) * self.matrix)


class NonNegativeForm(SesquilinearForm):
    """Sesquilinear form with t[phi] >= 0 for every phi (PSD matrix).

    `__post_init__` validates every form, however it was built, once
    and per block: finite entries, `asymmetry` (max |A - A*|) and `spectrum`
    (the ascending eigenvalues of the symmetrized matrix), so `psd_at`
    answers for any tolerance without factoring again. The blocks are
    factored on first use and kept; `eigenpairs`, and with it every kernel,
    root and rank of the form, is assembled from those factors. A diagonal
    matrix therefore costs no n x n factorization, and its 1 x 1 blocks no
    LAPACK call.
    """

    def __post_init__(self):
        asymmetry = list(map(max_asymmetry, self.blocks))
        if not sum(asymmetry) < np.inf:  # a non-finite entry makes its block's so
            super().__post_init__()
        self.__dict__["asymmetry"] = max(asymmetry)
        if self.asymmetry <= DEFAULT_TOL.cmp_abs:
            lam = block_eigvalsh(self.blocks)
            lam.flags.writeable = False
            self.__dict__["spectrum"] = lam
        if not self.psd_at(DEFAULT_TOL):
            raise NotPSD("matrix of a non-negative form must be positive semidefinite")

    def psd_at(self, tol: Tolerance) -> bool:
        """``is_psd(self.matrix, tol)`` from the constructor's spectrum; exactly
        it when the matrix is one component, else up to rounding."""
        if self.asymmetry > tol.cmp_abs:
            return False
        return bool(self.spectrum[0] >= -tol.psd_abs)

    @cached_property
    def _own_eigenpairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Eigensystems of the stored blocks, one per group."""
        return [psd_eigh(B) for B in self.blocks]

    @cached_property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (ascending eigenvalues clipped at 0, eigenvectors) of the
        symmetrized matrix, assembled from the blocks' eigensystems. Threads
        racing on first use compute the same value."""
        pairs = self._own_eigenpairs
        lam = np.concatenate([block_lam.ravel() for block_lam, _ in pairs])
        V = scatter_columns([V for _, V in pairs], self.groups, self.dim)
        order = np.argsort(lam, kind="stable")
        lam, V = lam[order], V[:, order]
        lam.flags.writeable = V.flags.writeable = False
        return lam, V

    def block_eigenpairs(self, groups: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
        """Eigensystems of the diagonal blocks on `groups`, a partition that
        `self.groups` refines: per group, eigenvalues (b, m) ascending and
        clipped at 0 and eigenvectors (b, m, m). They are the stored blocks'
        eigensystems, regrouped without factoring again."""
        if same_partition(groups, self.groups):
            return self._own_eigenpairs
        lam, V = self.eigenpairs
        label = np.empty(self.dim, dtype=int)  # a part of `groups` per index
        for idx in groups:
            label[idx] = idx[:, :1]
        # each eigenvector lies in one part: list them part by part, ascending
        # within a part, at the places of that part's indices
        cols = np.argsort(label[np.argmax(V != 0, axis=0)], kind="stable")
        at = np.argsort(label, kind="stable")
        lam_at, V_at = np.empty_like(lam), np.empty_like(V)
        lam_at[at], V_at[:, at] = lam[cols], V[:, cols]
        return [(lam_at[idx], V_B) for idx, V_B in zip(groups, gather(V_at, groups))]

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


def _check_inputs(
    tol: Tolerance, forms: tuple[SesquilinearForm, ...], psd: dict[str, NonNegativeForm]
) -> None:
    """The checks every public entry point on two or more forms runs first.

    Each later form must have the dimension of the first (else
    DimensionMismatch "dimension mismatch: <its> vs <the first's>"); then
    each form in `psd` must be PSD at `tol` (else NotPSD "<role> must be
    PSD"), in the order given.
    """
    n = forms[0].dim
    for form in forms[1:]:
        if form.dim != n:
            raise DimensionMismatch(f"dimension mismatch: {form.dim} vs {n}")
    for role, form in psd.items():
        if not form.psd_at(tol):
            raise NotPSD(f"{role} must be PSD")


def compressed_norm(
    eigs: list[tuple[np.ndarray, np.ndarray]],
    blocks: list[np.ndarray],
    n: int,
    tol: Tolerance,
    scale: float | None = None,
) -> float | None:
    """Norm of A compressed by the pseudo-inverse square root of a PSD W.

    W and A are n x n and block-diagonal on the same index groups: `eigs`
    holds W's eigensystem per group (as `NonNegativeForm.block_eigenpairs`
    gives it) and `blocks` the matching blocks of A (as `linalg.gather` gives
    them). The kernel cutoff is rank_rel * scale, scale defaulting to
    lambda_max(W), and the annihilation threshold n * rank_rel * max(1, ||A||)
    is that of the whole matrices. None when ker(W) fails to annihilate A or
    A*, i.e. when no multiple of W dominates A.
    """
    cutoff = tol.rank_rel * (top_eigenvalue(eigs) if scale is None else scale)
    norm = None  # ||A||, needed only when W has a kernel
    result = 0.0
    for (lam, V), A in zip(eigs, blocks):
        if A.shape[-1] == 1:  # 1 x 1 blocks: V = 1, so each product is elementwise
            null = lam <= cutoff
            if null.any():
                norm = max(map(operator_norm, blocks)) if norm is None else norm
                # the residuals |a| = |a*| on the kernel, against the threshold of `annihilates`
                if not float(np.abs(A[null]).max()) <= n * tol.rank_rel * max(1.0, norm):
                    return None
            inv = root_weights(lam, cutoff)[1][2, ..., None]
            result = max(result, operator_norm(inv * A * inv))
            continue
        K = leading_columns(V, lam <= cutoff)
        if K.shape[-1]:
            if norm is None:
                norm = max(map(operator_norm, blocks))
            both = np.empty((2,) + A.shape, dtype=complex)  # A and A*, one product
            both[0], both[1] = A, A.conj().swapaxes(-1, -2)
            if not annihilates(both, K, tol, norm, n):
                return None
        Wph = eig_pinv_sqrt(lam, V, cutoff)
        result = max(result, operator_norm(Wph @ A @ Wph))
    return result


def dominates(
    eigs: list[tuple[np.ndarray, np.ndarray]],
    blocks: list[np.ndarray],
    n: int,
    tol: Tolerance,
) -> bool:
    """Whether the PSD W dominates A, from the arguments of `compressed_norm`."""
    norm = compressed_norm(eigs, blocks, n, tol)
    return norm is not None and norm <= 1.0 + tol.psd_abs


def joint_groups(*forms: SesquilinearForm) -> list[np.ndarray]:
    """The connected components of the joint support of `forms` (see
    `linalg.components`), joined from the partitions the forms carry: no
    support is searched here, and forms stored as singletons join in O(n).
    """
    n = forms[0].dim
    for form in forms:
        if form.groups[0].shape[1] == n:  # one component already: so is the family
            return form.groups
    return join([form.groups for form in forms], n)


def _blocks_of(W: NonNegativeForm, form: SesquilinearForm):
    """W's eigensystems and the form's blocks on the connected components of
    the pair, the first two arguments of `compressed_norm`."""
    groups = joint_groups(W, form)
    return W.block_eigenpairs(groups), form.blocks_on(groups)


def is_dominating(
    sigma: NonNegativeForm, form: SesquilinearForm, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Whether |t(phi, psi)| <= sigma[phi]^(1/2) sigma[psi]^(1/2) for all phi, psi.

    Decided exactly in finite dimension: sigma dominates iff ker(S) annihilates
    both A and A*, and the compression of A by the pseudo-inverse square root of
    S has operator norm at most 1.
    """
    _check_inputs(tol, (form, sigma), {"dominating candidate": sigma})
    return dominates(*_blocks_of(sigma, form), sigma.dim, tol)


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
    The kernel of Re(A) is cut at rank_rel * max(lambda_max(Re), max |lambda(Im)|),
    so a real part that is round-off next to Im(A) counts as zero. Raises
    NonFinite when Re(A) or its spectrum overflows; the checks that read
    Im(A) raise it for Im(A) or its spectrum.
    """
    A = form.matrix
    re = hermitize(A)
    require_finite(re, "real part")
    lam, V = np.linalg.eigh(re[None])
    require_finite(lam, "spectrum of the real part")
    real = max_asymmetry(A) <= tol.cmp_abs
    halfplane = bool(lam[0, 0] >= -tol.psd_abs)
    quadrant, constant = False, None
    if halfplane:
        im = (A - A.conj().T) / 2j
        require_finite(im, "imaginary part")
        lam_im = np.linalg.eigvalsh(hermitize(im))
        require_finite(lam_im, "spectrum of the imaginary part")
        # is_psd(im) and is_psd(-im) from one spectrum
        quadrant = max_asymmetry(im) <= tol.cmp_abs and bool(lam_im[0] >= -tol.psd_abs)
        if quadrant and lam_im[-1] <= tol.psd_abs:
            constant = 0.0
        else:
            eigs = [(np.clip(lam, 0.0, None), V)]
            scale = max(top_eigenvalue(eigs), -float(lam_im[0]), float(lam_im[-1]))
            constant = compressed_norm(eigs, [im[None]], form.dim, tol, scale)
    return RangeClass(
        nonneg=real and halfplane,
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
    _check_inputs(tol, (ref, form), {"reference form": ref})
    norm = compressed_norm(*_blocks_of(ref, form), ref.dim, tol)
    return (False, None) if norm is None else (True, norm)
