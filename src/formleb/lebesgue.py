"""Decomposition engine for sesquilinear forms relative to a reference form.

The metric induced by ``dominating + reference`` is realized concretely on C^n:
with G the (PSD) matrix of that sum, the quotient space embeds as range(G^(1/2))
with the standard inner product via ``phi -> G^(1/2) phi``. Within that space,
the image of ker(reference) spans the directions carrying singular mass; the
orthogonal projector onto its complement compresses the dominated form into its
regular part, the complementary compression yields the strongly singular part,
and the two cross compressions make up the mixed part.

All decompositions are pure functions of their inputs; `QuotientContext` is
immutable and shareable across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentRank,
    NotDominating,
    NotPSD,
    PreconditionViolation,
)
from .forms import NonNegativeForm, SesquilinearForm, is_bounded_by, is_dominating
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    annihilates,
    eig_pinv_sqrt,
    hermitize,
    kernel_basis,
    operator_norm,
)


@dataclass(frozen=True)
class QuotientContext:
    """Precomputed spectral data of the combined metric G = dom + ref.

    cutoff is the family's rank cutoff rank_rel * lambda_max(G) and rank the
    number of eigenvalues of G above it. gram_half is the PSD square root of
    G, range_proj the orthogonal projector onto range(G), ref_kernel an
    orthonormal basis of ker(ref) at the family cutoff, ref_kernel_image one
    of gram_half @ ker(ref) (directions of singular mass), ac_proj the
    projector onto range(G) minus that span, and contraction the norm <= 1
    representation G^(+1/2) A G^(+1/2) of an attached dominated form (None
    when no form is attached).
    """

    dom: np.ndarray
    ref: np.ndarray
    cutoff: float
    rank: int
    gram_half: np.ndarray
    range_proj: np.ndarray
    ref_kernel: np.ndarray
    ref_kernel_image: np.ndarray
    ac_proj: np.ndarray
    contraction: np.ndarray | None

    @property
    def sing_proj(self) -> np.ndarray:
        """Projector onto the singular-mass directions within range(G)."""
        return self.range_proj - self.ac_proj


@dataclass(frozen=True)
class NonNegSplit:
    """Split of a non-negative form into reference-a.c. and reference-singular parts.

    gram_rank is the rank of sigma + ref at the family cutoff.
    """

    absolutely_continuous: NonNegativeForm
    singular: NonNegativeForm
    gram_rank: int

    @property
    def total(self) -> np.ndarray:
        return self.absolutely_continuous.matrix + self.singular.matrix


@dataclass(frozen=True)
class TripleDecomposition:
    """Regular + mixed + strongly singular split of a dominated form.

    `witnesses` is the two-part split of the dominating form used in the
    construction: witnesses.absolutely_continuous + ref bounds the regular
    part, witnesses.singular bounds the strongly singular part, and the mixed
    part obeys the two-sided geometric-mean bound between them.
    """

    regular: SesquilinearForm
    mixed: SesquilinearForm
    strongly_singular: SesquilinearForm
    witnesses: NonNegSplit
    mixed_parts: tuple[SesquilinearForm, SesquilinearForm] | None = None


def _freeze(A: np.ndarray) -> np.ndarray:
    A = np.ascontiguousarray(A)
    A.flags.writeable = False
    return A


def _orthonormal_image(M: np.ndarray, cutoff: float) -> np.ndarray:
    """Orthonormal basis of the numerically significant column span of M."""
    if M.shape[1] == 0:
        return np.zeros((M.shape[0], 0), dtype=complex)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    rank = int(np.count_nonzero(s > cutoff))
    return U[:, :rank]


def build_context(
    dominating: NonNegativeForm,
    ref: NonNegativeForm,
    form: SesquilinearForm | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> QuotientContext:
    """Realize the quotient metric of dominating + ref, optionally attaching a form.

    When `form` is given it must be dominated by `dominating` (checked; raises
    NotDominating otherwise) and the context carries its norm <= 1 contraction.
    """
    if dominating.dim != ref.dim:
        raise DimensionMismatch(
            f"dimension mismatch: {dominating.dim} vs {ref.dim}"
        )
    for name, nonneg in (("dominating form", dominating), ("reference form", ref)):
        if not nonneg.psd_at(tol):
            raise NotPSD(f"{name} must be PSD")
    if form is not None:
        if form.dim != ref.dim:
            raise DimensionMismatch(f"dimension mismatch: {form.dim} vs {ref.dim}")
        if not is_dominating(dominating, form, tol):
            raise NotDominating("the supplied form is not dominated by `dominating`")

    S, W = dominating.matrix, ref.matrix
    G = hermitize(S + W)
    lam, V = np.linalg.eigh(G)
    lam = np.clip(lam, 0.0, None)
    cutoff = tol.rank_rel * lam[-1]
    kept = lam > cutoff
    half = np.where(kept, np.sqrt(lam), 0.0)
    Ghalf = hermitize((V * half) @ V.conj().T)
    Gph = eig_pinv_sqrt(lam, V, cutoff)
    range_proj = hermitize((V * kept.astype(float)) @ V.conj().T)

    # a part whose whole mass sits below the family cutoff is null, even
    # though its own largest eigenvalue would make it look full rank
    ref_lam, ref_V = ref.eigenpairs
    ref_kernel = ref_V[:, ref_lam <= cutoff]
    # Directions of G-mass below the rank cutoff collapse to zero in the
    # quotient; in the square-root metric that cutoff is sqrt(rank_rel)*||G^1/2||.
    image_cutoff = np.sqrt(tol.rank_rel) * float(half.max(initial=0.0))
    Vimg = _orthonormal_image(Ghalf @ ref_kernel, image_cutoff)
    Phat = hermitize(range_proj - Vimg @ Vimg.conj().T)

    That = Gph @ form.matrix @ Gph if form is not None else None
    return QuotientContext(
        dom=S,
        ref=W,
        cutoff=cutoff,
        rank=int(np.count_nonzero(kept)),
        gram_half=_freeze(Ghalf),
        range_proj=_freeze(range_proj),
        ref_kernel=_freeze(ref_kernel),
        ref_kernel_image=_freeze(Vimg),
        ac_proj=_freeze(Phat),
        contraction=_freeze(That) if That is not None else None,
    )


def _split_from_context(ctx: QuotientContext) -> NonNegSplit:
    ac_plus_ref = hermitize(ctx.gram_half @ ctx.ac_proj @ ctx.gram_half)
    ac = hermitize(ac_plus_ref - ctx.ref)
    sing = hermitize((ctx.dom + ctx.ref) - ac_plus_ref)
    return NonNegSplit(
        absolutely_continuous=NonNegativeForm(ac),
        singular=NonNegativeForm(sing),
        gram_rank=ctx.rank,
    )


def decompose_nonneg(
    sigma: NonNegativeForm, ref: NonNegativeForm, tol: Tolerance = DEFAULT_TOL
) -> NonNegSplit:
    """Split a non-negative form into its reference-a.c. and reference-singular parts.

    The a.c. part plus the reference form is the compression of the combined
    metric by the projector complementary to the image of ker(ref); the
    singular remainder is what the projector discards.
    """
    return _split_from_context(build_context(sigma, ref, tol=tol))


def decompose(
    form: SesquilinearForm,
    ref: NonNegativeForm,
    dominating: NonNegativeForm,
    tol: Tolerance = DEFAULT_TOL,
    with_cross_terms: bool = False,
) -> TripleDecomposition:
    """Three-part split of `form` relative to `ref`, driven by `dominating`.

    Requires `dominating` to dominate `form` (raises NotDominating otherwise).
    The parts are compressions of the contraction by the a.c./singular
    projectors, pulled back through G^(1/2):

        regular          = Gh P T P Gh
        mixed            = Gh (P T Q + Q T P) Gh
        strongly_singular= Gh Q T Q Gh

    with P the a.c. projector and Q its complement in range(G). With
    `with_cross_terms` the two halves of the mixed part are returned as well:
    the first is bounded by ac-mass of its first argument and singular mass of
    the second, the second the other way around.
    """
    ctx = build_context(dominating, ref, form=form, tol=tol)
    Gh, T = ctx.gram_half, ctx.contraction
    P, Q = ctx.ac_proj, ctx.sing_proj
    regular = Gh @ P @ T @ P @ Gh
    cross_qp = Gh @ Q @ T @ P @ Gh
    cross_pq = Gh @ P @ T @ Q @ Gh
    strongly_singular = Gh @ Q @ T @ Q @ Gh
    parts = None
    if with_cross_terms:
        parts = (SesquilinearForm(cross_qp), SesquilinearForm(cross_pq))
    return TripleDecomposition(
        regular=SesquilinearForm(regular),
        mixed=SesquilinearForm(cross_qp + cross_pq),
        strongly_singular=SesquilinearForm(strongly_singular),
        witnesses=_split_from_context(ctx),
        mixed_parts=parts,
    )


def _min_eig(H: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitize(H))[0])


def _rank_at(lam: np.ndarray, cutoff: float) -> int:
    return int(np.count_nonzero(lam > cutoff))


def _is_zero_matrix(M: np.ndarray, tol: Tolerance, scale: float) -> bool:
    return float(np.max(np.abs(M))) <= M.shape[0] * tol.cmp_abs * max(1.0, scale)


def ac_extremal_check(
    sigma: NonNegativeForm,
    ref: NonNegativeForm,
    u: NonNegativeForm,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Check maximality of the a.c. part: any a.c. minorant u of sigma stays below it.

    Preconditions (violations raise distinct errors): u is PSD, u <= sigma
    within slack, and ker(ref) is contained in ker(u). The return value must be
    True by the decomposition theorem; False indicates a numerical fault, not a
    valid outcome.
    """
    if not u.psd_at(tol):
        raise NotPSD("u must be PSD")
    if u.dim != sigma.dim or u.dim != ref.dim:
        raise DimensionMismatch("u, sigma and ref must share a dimension")
    if _min_eig(sigma.matrix - u.matrix) < -tol.psd_abs:
        raise PreconditionViolation("u must satisfy u <= sigma")
    if not annihilates(u.matrix, ref.kernel(tol), tol):
        raise PreconditionViolation(
            "u must be absolutely continuous: ker(ref) must lie in ker(u)"
        )
    split = decompose_nonneg(sigma, ref, tol)
    return _min_eig(split.absolutely_continuous.matrix - u.matrix) >= -tol.psd_abs


def is_absolutely_continuous(
    sigma: NonNegativeForm, ref: NonNegativeForm, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Whether sigma has no reference-singular part.

    Decided through the computed split (singular part = 0), cross-checked
    against the finite-dimensional kernel criterion ker(ref) <= ker(sigma);
    disagreement raises InconsistentRank.
    """
    ctx = build_context(sigma, ref, tol=tol)
    split = _split_from_context(ctx)
    scale = operator_norm(sigma.matrix)
    via_split = _is_zero_matrix(split.singular.matrix, tol, scale)
    via_kernel = annihilates(sigma.matrix, ctx.ref_kernel, tol)
    if via_split != via_kernel:
        raise InconsistentRank(
            "absolute-continuity criteria disagree (split vs kernel inclusion); "
            "the input is numerically rank-unstable at this tolerance"
        )
    return via_split


def is_singular_nonneg(
    sigma: NonNegativeForm, ref: NonNegativeForm, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Whether sigma has no reference-absolutely-continuous part.

    Decided through the computed split (a.c. part = 0), cross-checked against
    rank additivity rank(S + W) = rank(S) + rank(W), the dimension count of the
    quotient-space product criterion; disagreement raises InconsistentRank.
    """
    ctx = build_context(sigma, ref, tol=tol)
    split = _split_from_context(ctx)
    scale = operator_norm(sigma.matrix)
    via_split = _is_zero_matrix(split.absolutely_continuous.matrix, tol, scale)
    via_rank = ctx.rank == _rank_at(sigma.spectrum, ctx.cutoff) + _rank_at(
        ref.spectrum, ctx.cutoff
    )
    if via_split != via_rank:
        raise InconsistentRank(
            "singularity criteria disagree (split vs rank additivity); "
            "the input is numerically rank-unstable at this tolerance"
        )
    return via_split


def is_regular(
    form: SesquilinearForm, ref: NonNegativeForm, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Whether some reference-a.c. non-negative form dominates `form`.

    In finite dimension this coincides with boundedness relative to the
    reference form.
    """
    flag, _ = is_bounded_by(form, ref, tol)
    return flag


def is_strongly_singular(
    form: SesquilinearForm,
    ref: NonNegativeForm,
    cert: NonNegativeForm,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Certificate check: `cert` dominates `form` and is reference-singular.

    This validates a supplied witness; it does not decide existence.
    """
    return is_dominating(cert, form, tol) and is_singular_nonneg(cert, ref, tol)


def is_mixed_certificate(
    form: SesquilinearForm,
    ref: NonNegativeForm,
    ac_witness: NonNegativeForm,
    sing_witness: NonNegativeForm,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Certificate check for a mixed form.

    Validates that ac_witness is reference-a.c., sing_witness is
    reference-singular, the two are mutually singular, their sum dominates
    `form`, and the quadratic form of `form` vanishes on the kernel of each
    witness (compressed matrix zero, by polarization).
    """
    alpha, beta = ac_witness, sing_witness
    if not is_absolutely_continuous(alpha, ref, tol):
        return False
    if not is_singular_nonneg(beta, ref, tol):
        return False
    if not is_singular_nonneg(alpha, beta, tol):
        return False
    total = NonNegativeForm(alpha.matrix + beta.matrix)
    if not is_dominating(total, form, tol):
        return False
    A = form.matrix
    scale = operator_norm(A)
    return all(
        K.shape[1] == 0 or _is_zero_matrix(K.conj().T @ A @ K, tol, scale)
        for K in (alpha.kernel(tol), beta.kernel(tol))
    )


def singularity_sufficient(
    form: SesquilinearForm, ref: NonNegativeForm, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Sufficient test for reference-singularity of an arbitrary form.

    True when the image of ker(form) or ker(form*) under the square root of the
    reference matrix spans its whole range: True implies the form is singular
    relative to the reference; False is inconclusive.
    """
    if not ref.psd_at(tol):
        raise NotPSD("reference form must be PSD")
    lam, V = ref.eigenpairs
    ref_rank = _rank_at(lam, tol.rank_rel * lam[-1])
    if ref_rank == 0:
        return True
    Whalf = hermitize((V * np.sqrt(lam)) @ V.conj().T)
    cutoff = np.sqrt(tol.rank_rel) * operator_norm(Whalf)
    A = form.matrix
    for M in (A, A.conj().T):
        K = kernel_basis(M, tol)
        if K.shape[1] == 0:
            continue
        image_rank = _orthonormal_image(Whalf @ K, cutoff).shape[1]
        if image_rank == ref_rank:
            return True
    return False
