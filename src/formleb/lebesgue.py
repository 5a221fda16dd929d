"""Decomposition engine for sesquilinear forms relative to a reference form.

The metric induced by ``dominating + reference`` is realized concretely on C^n:
with G the (PSD) matrix of that sum, the quotient space embeds as range(G^(1/2))
with the standard inner product via ``phi -> G^(1/2) phi``. Within that space,
the image of ker(reference) spans the directions carrying singular mass; the
orthogonal projector onto its complement compresses the dominated form into its
regular part, the complementary compression yields the strongly singular part,
and the two cross compressions make up the mixed part.

When the matrices are block-diagonal up to a permutation, all of this splits
along the blocks. The engine runs once per group of equal-size connected
components of their joint support (`linalg.components`), each group as one
stacked call, with every cutoff taken from the whole family.

All decompositions are pure functions of their inputs; `QuotientContext` is
immutable and shareable across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentRank,
    NonFinite,
    NotDominating,
    NotPSD,
    PreconditionViolation,
)
from .forms import (
    NonNegativeForm,
    SesquilinearForm,
    dominates,
    is_bounded_by,
    is_dominating,
    joint_groups,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    annihilates,
    freeze,
    hermitize,
    kernel_basis,
    leading_columns,
    operator_norm,
    psd_eigh,
    scatter,
    scatter_columns,
    top_eigenvalue,
)


class ComponentBlocks(NamedTuple):
    """The engine's arrays for one group of equal-size components: (b, m, ...)
    stacks, (1, n, ...) on a single component.

    dom and ref are the blocks of the two forms; gram_half, range_proj,
    ac_proj and contraction those of the matching `QuotientContext` fields.
    ref_kernel and ref_kernel_image hold the leading kernel and image
    columns of each block, zero-padded to the group's longest.
    """

    dom: np.ndarray
    ref: np.ndarray
    gram_half: np.ndarray
    range_proj: np.ndarray
    ref_kernel: np.ndarray
    ref_kernel_image: np.ndarray
    ac_proj: np.ndarray
    contraction: np.ndarray | None


@dataclass(frozen=True)
class QuotientContext:
    """Precomputed spectral data of the combined metric G = dom + ref.

    The engine runs once per connected component of the joint support of
    dom, ref and the attached form on C^n: `groups` are the components as
    `linalg.components` gives them and `blocks` the per-group stacks. Every
    cutoff is the whole family's. cutoff is the rank cutoff
    rank_rel * lambda_max(G) and rank the number of eigenvalues of G above it.

    `dense(name)` assembles the dense matrix of a `ComponentBlocks` field
    from the blocks: dom and ref are the two forms' matrices, gram_half the
    PSD square root of G, range_proj the orthogonal projector onto range(G),
    ref_kernel an orthonormal basis of ker(ref) at the family cutoff,
    ref_kernel_image one of gram_half @ ker(ref) (directions of singular
    mass), ac_proj the projector onto range(G) minus that span, and
    contraction the norm <= 1 representation G^(+1/2) A G^(+1/2) of an
    attached dominated form (None when no form is attached).
    """

    n: int
    cutoff: float
    rank: int
    groups: list[np.ndarray]
    blocks: list[ComponentBlocks]

    def dense(self, name: str) -> np.ndarray | None:
        """The read-only n x n matrix (n x k basis, for the two ref_kernel
        fields) of the `ComponentBlocks` field `name`."""
        stacks = [getattr(blk, name) for blk in self.blocks]
        if stacks[0] is None:
            return None
        assemble = scatter_columns if name.startswith("ref_kernel") else scatter
        return freeze(assemble(stacks, self.groups, self.n))


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


def _orthonormal_image(M: np.ndarray, cutoff: float) -> np.ndarray:
    """Orthonormal bases of the numerically significant column spans of a
    stack M (b, m, r), as a (b, m, s) stack zero-padded to the largest rank.

    Singular values come out descending, so each basis is a prefix of U. A
    1 x 1 block a has the singular value |a| and the basis a / |a|, so a
    stack of them needs no LAPACK call.
    """
    if M.shape[-1] == 0:
        return M
    if M.shape[-2:] == (1, 1):
        s = np.abs(M)
        # real and imaginary parts divided by the real |a|, as LAPACK scales
        # them: a complex division would not give exactly 1 for a real a > 0
        parts = np.ascontiguousarray(M).view(np.float64) / np.where(s > 0.0, s, 1.0)
        return leading_columns(parts.view(complex), s[..., 0] > cutoff)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return leading_columns(U, s > cutoff)


def build_context(
    dominating: NonNegativeForm,
    ref: NonNegativeForm,
    form: SesquilinearForm | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> QuotientContext:
    """Realize the quotient metric of dominating + ref, optionally attaching a form.

    When `form` is given it must be dominated by `dominating` (checked; raises
    NotDominating otherwise) and the context carries its norm <= 1 contraction.
    The work runs once per group of equal-size connected components of the
    joint support, each group as one stacked call.
    """
    if dominating.dim != ref.dim:
        raise DimensionMismatch(f"dimension mismatch: {dominating.dim} vs {ref.dim}")
    for name, nonneg in (("dominating form", dominating), ("reference form", ref)):
        if not nonneg.psd_at(tol):
            raise NotPSD(f"{name} must be PSD")
    n = dominating.dim
    if form is None:
        groups = joint_groups(dominating, ref)
        forms = [None] * len(groups)
    else:
        if form.dim != n:
            raise DimensionMismatch(f"dimension mismatch: {form.dim} vs {n}")
        groups = joint_groups(dominating, ref, form)
        forms = form.blocks_on(groups)
        if not dominates(dominating.block_eigenpairs(groups), forms, n, tol):
            raise NotDominating("the supplied form is not dominated by `dominating`")

    doms, refs = dominating.blocks_on(groups), ref.blocks_on(groups)
    eigs = [psd_eigh(S_b + W_b) for S_b, W_b in zip(doms, refs)]
    # one cutoff for the whole family: a part whose whole mass sits below it
    # is null, even though its own largest eigenvalue would make it look full
    # rank (this holds for a component as for a part)
    lam_max = top_eigenvalue(eigs)
    cutoff = tol.rank_rel * lam_max
    # Directions of G-mass below the rank cutoff collapse to zero in the
    # quotient; in the square-root metric that cutoff is sqrt(rank_rel)*||G^1/2||.
    image_cutoff = np.sqrt(tol.rank_rel) * np.sqrt(lam_max)

    blocks, rank = [], 0
    for (lam, V), (ref_lam, ref_V), S_b, W_b, A_b in zip(
        eigs, ref.block_eigenpairs(groups), doms, refs, forms
    ):
        kept = lam > cutoff
        rank += int(np.count_nonzero(kept))
        # G^(1/2), the range projector and, with a form, G^(+1/2): V diag(w) V*
        # for each weight w, as one stacked product
        w = np.zeros((2 if A_b is None else 3,) + lam.shape)
        np.sqrt(lam, out=w[0], where=kept)
        w[1][kept] = 1.0
        np.divide(1.0, w[0], out=w[2:], where=kept)
        Ghalf, range_proj, *Gph = hermitize((V * w[..., None, :]) @ V.conj().swapaxes(-1, -2))
        ref_kernel = leading_columns(ref_V, ref_lam <= cutoff)
        Vimg = _orthonormal_image(Ghalf @ ref_kernel, image_cutoff)
        Phat = hermitize(range_proj - Vimg @ Vimg.conj().swapaxes(-1, -2))
        That = None if A_b is None else freeze(Gph[0] @ A_b @ Gph[0])
        arrays = map(freeze, (Ghalf, range_proj, ref_kernel, Vimg, Phat))
        blocks.append(ComponentBlocks(S_b, W_b, *arrays, contraction=That))
    return QuotientContext(n=n, cutoff=cutoff, rank=rank, groups=groups, blocks=blocks)


def _split_from_context(ctx: QuotientContext) -> NonNegSplit:
    parts = []  # per group, the a.c. and the singular blocks as one stack
    for blk in ctx.blocks:
        ac_plus_ref = hermitize(blk.gram_half @ blk.ac_proj @ blk.gram_half)
        both = np.empty((2,) + ac_plus_ref.shape, dtype=complex)
        np.subtract(ac_plus_ref, blk.ref, out=both[0])
        np.subtract(blk.dom + blk.ref, ac_plus_ref, out=both[1])
        parts.append(hermitize(both))
    ac, sing = (NonNegativeForm.from_blocks(ctx.groups, list(p), ctx.n) for p in zip(*parts))
    return NonNegSplit(absolutely_continuous=ac, singular=sing, gram_rank=ctx.rank)


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
    outs = []  # per group, out[x, y] = Gh X T Y Gh for X, Y in (P, Q)
    for blk in ctx.blocks:
        Gh = blk.gram_half
        PQ = np.empty((2,) + Gh.shape, dtype=complex)
        PQ[0] = blk.ac_proj
        np.subtract(blk.range_proj, blk.ac_proj, out=PQ[1])
        # left to right, as Gh @ X @ T @ Y @ Gh groups, sharing Gh @ X @ T
        outs.append((Gh @ PQ @ blk.contraction)[:, None] @ PQ @ Gh)

    def assemble(stacks):
        return SesquilinearForm.from_blocks(ctx.groups, list(stacks), ctx.n)

    parts = None
    if with_cross_terms:
        parts = tuple(assemble(out[xy] for out in outs) for xy in ((1, 0), (0, 1)))
    return TripleDecomposition(
        regular=assemble(out[0, 0] for out in outs),
        mixed=assemble(out[1, 0] + out[0, 1] for out in outs),
        strongly_singular=assemble(out[1, 1] for out in outs),
        witnesses=_split_from_context(ctx),
        mixed_parts=parts,
    )


def _min_eig(H: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitize(H))[0])


def _rank_at(lam: np.ndarray, cutoff: float) -> int:
    return int(np.count_nonzero(lam > cutoff))


def _norm(form: NonNegativeForm) -> float:
    """||form||, read from the constructor's spectrum."""
    norm = max(-float(form.spectrum[0]), float(form.spectrum[-1]))
    if not norm < np.inf:
        raise NonFinite("operator norm overflows")
    return norm


def _is_zero(blocks: list[np.ndarray], n: int, tol: Tolerance, scale: float) -> bool:
    """Whether the n x n matrix with these diagonal blocks is numerically zero."""
    top = max(float(np.abs(B).max()) for B in blocks)
    return top <= n * tol.cmp_abs * max(1.0, scale)


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
    scale = _norm(sigma)
    via_split = _is_zero(split.singular.blocks, sigma.dim, tol, scale)
    via_kernel = all(
        annihilates(blk.dom, blk.ref_kernel, tol, scale, sigma.dim) for blk in ctx.blocks
    )
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
    scale = _norm(sigma)
    via_split = _is_zero(split.absolutely_continuous.blocks, sigma.dim, tol, scale)
    ranks = _rank_at(sigma.spectrum, ctx.cutoff) + _rank_at(ref.spectrum, ctx.cutoff)
    via_rank = ctx.rank == ranks
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
        K.shape[1] == 0 or _is_zero([K.conj().T @ A @ K], K.shape[1], tol, scale)
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
        image_rank = _orthonormal_image((Whalf @ K)[None], cutoff).shape[-1]
        if image_rank == ref_rank:
            return True
    return False
