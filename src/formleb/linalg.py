"""Dense complex Hermitian linear algebra with an explicit rank/tolerance policy.

Every rank decision in the package goes through the single relative cutoff
``rank_rel * lambda_max`` defined here, so kernels and ranges computed for
different matrices stay mutually consistent.

Block-diagonal structure is found by `components`: the connected components of
the joint support graph of a family of matrices, grouped by size, found by
label propagation with no loop per component; `join` combines partitions
already known. Each group of equal-size diagonal blocks is handled as one
(b, m, m) stack, because numpy's eigh, svd and matmul all take stacks;
`gather` cuts the stacks out of a matrix and `scatter` puts them back.
There is one layout: a single component is the (1, n, n) stack ``M[None]``, a
view of the matrix, and only `gather`, `scatter` and `scatter_columns` know
that. numpy factors and multiplies that stack to the same bits as the matrix
itself, so a single component runs the dense arithmetic unchanged. A 1 x 1
block is its own eigensystem and singular value decomposition, so stacks of
them are answered elementwise, with no LAPACK call. `root_weights` gives the
kept eigenvalues' square roots and inverse square roots; with the
eigenvector 1 of a 1 x 1 block they are its G^(1/2) and G^(+1/2), so the
engine runs a group of 1 x 1 blocks on vectors, to the bits of the stacked
products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite


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


def as_square_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array of positive size."""
    A = np.asarray(value, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {A.shape}")
    if A.shape[0] == 0:
        raise DimensionMismatch(f"{name} must have positive dimension")
    return A


def require_finite(A: np.ndarray, name: str = "matrix") -> None:
    """Raise NonFinite unless every entry of A is finite."""
    if not np.isfinite(A).all():
        raise NonFinite(f"{name} contains non-finite entries")


def as_complex_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    A = as_square_matrix(value, name)
    require_finite(A, name)
    return A


def freeze(A: np.ndarray) -> np.ndarray:
    """A read-only C-contiguous array with the entries of A."""
    A = A if A.flags.c_contiguous else np.ascontiguousarray(A)
    A.flags.writeable = False
    return A


def hermitize(A: np.ndarray) -> np.ndarray:
    """Symmetrized copy (A + A*) / 2 of a matrix or of each matrix in a stack;
    kills round-off asymmetry before eigh."""
    return (A + A.conj().swapaxes(-1, -2)) / 2.0


def _support(M: np.ndarray) -> np.ndarray:
    """Nonzero pattern of a complex matrix, from float compares (complex ones are slow)."""
    nonzero = np.ascontiguousarray(M, dtype=complex).view(np.float64) != 0
    return nonzero.view(np.uint16) != 0  # real and imaginary flag of one entry


def components(*matrices: np.ndarray) -> list[np.ndarray]:
    """Connected components of the joint support graph of n x n matrices.

    Indices i and j are joined when some matrix has a nonzero (i, j) or (j, i)
    entry. The components come back grouped by size m, ascending, as one int
    array of shape (b, m) per size; each row lists one component's indices in
    ascending order. A row without a zero (row 0 of each matrix is checked
    first, then every row of the joint support) answers ``[arange(n)[None]]``
    at once; otherwise labels propagate along the O(n^2) support, with
    vectorized rounds and no loop per component.
    """
    n = matrices[0].shape[0]
    for M in matrices:
        if np.count_nonzero(M[0]) == n:
            return [np.arange(n)[None, :]]
    linked = _support(matrices[0])
    for M in matrices[1:]:
        linked |= _support(M)
    np.fill_diagonal(linked, True)
    if linked.all(axis=1).any():  # some index is joined to every other one
        return [np.arange(n)[None, :]]
    linked |= linked.T
    degree = linked.sum(axis=1)  # each row holds its own index
    if (degree == 1).all():
        return [np.arange(n)[:, None]]
    cols, starts = np.nonzero(linked)[1], np.cumsum(degree) - degree
    # label propagation: each index takes the smallest label next to it, then labels follow
    # their own labels (pointer jumping); at rest a component is labelled by its smallest index
    label = np.arange(n)
    while True:
        hooked = np.minimum.reduceat(label[cols], starts)
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            return _groups_of(label)
        label = hooked


def _groups_of(label: np.ndarray) -> list[np.ndarray]:
    """The partition whose parts are the indices sharing a label, each part
    labelled by its smallest index, in the layout `components` returns."""
    sizes = np.bincount(label, minlength=label.size)
    sizes = sizes[sizes > 0]  # in order of the labels
    order = np.argsort(label, kind="stable")
    starts = np.cumsum(sizes) - sizes
    return [order[starts[sizes == m][:, None] + np.arange(m)] for m in np.unique(sizes)]


def join(partitions: list[list[np.ndarray]], n: int) -> list[np.ndarray]:
    """The finest partition of range(n) that each of `partitions` refines: the
    connected components of their union, in the layout `components` returns.

    Partitions into singletons join nothing, so a family of them costs O(n);
    otherwise every part takes the smallest label among its indices until no
    label moves.
    """
    coarse = [p for p in partitions if p[0].shape[1] > 1 or len(p) > 1]
    if len(coarse) <= 1:
        return (coarse or partitions)[0]
    label = np.arange(n)
    moved = True
    while moved:
        before = label.copy()
        for parts in coarse:
            for idx in parts:
                label[idx] = label[idx].min(axis=1, keepdims=True)
        moved = not np.array_equal(label, before)
    return _groups_of(label)


def same_partition(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    """Whether two partitions of range(n) (as `components` returns them) are equal."""
    if a is b:
        return True
    if len(a) == len(b) == 1 and a[0].shape == b[0].shape and min(a[0].shape) == 1:
        return True  # one part, or n singletons: there is one layout of each
    return len(a) == len(b) and all(
        x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, b)
    )


def gather(M: np.ndarray, groups: list[np.ndarray]) -> list[np.ndarray]:
    """The diagonal blocks of M on `groups`, one (b, m, m) stack per group;
    ``[M[None]]``, a view of M, on the single component."""
    if groups[0].shape[1] == M.shape[0]:
        return [M[None]]
    return [M[idx[:, :, None], idx[:, None, :]] for idx in groups]


def scatter(blocks: list[np.ndarray], groups: list[np.ndarray], n: int) -> np.ndarray:
    """The n x n matrix with the given block stacks on `groups`, zero elsewhere.

    The inverse of `gather`.
    """
    if groups[0].shape[1] == n:
        return blocks[0][0]
    out = np.zeros((n, n), dtype=complex)
    for idx, X in zip(groups, blocks):
        out[idx[:, :, None], idx[:, None, :]] = X
    return out


def scatter_columns(blocks: list[np.ndarray], groups: list[np.ndarray], n: int) -> np.ndarray:
    """The n x c matrix of every nonzero column of every block, placed at the
    block's rows and zero elsewhere, block after block.

    Zero columns are the padding `leading_columns` adds; a column of an
    orthonormal set is never zero.
    """
    if groups[0].shape[1] == n:
        return blocks[0][0]
    parts = []
    for idx, X in zip(groups, blocks):
        bi, ci = np.nonzero((X != 0).any(axis=-2))
        col = np.zeros((n, bi.size), dtype=complex)
        col[idx[bi].T, np.arange(bi.size)] = X[bi, :, ci].T
        parts.append(col)
    return np.concatenate(parts, axis=1)


def leading_columns(V: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The columns of each V[i] in a (b, m, r) stack where mask[i] holds.

    Every mask[i] must be a prefix (a cutoff on sorted values); the result is
    a (b, m, k) stack zero-padded to the longest prefix k.
    """
    if len(mask) == 1:  # one block, nothing to pad: a quarter of np.where's cost
        return V[..., mask[0]]
    union = mask.any(axis=0)
    return np.where(mask[:, None, union], V[..., union], 0.0)


def top_eigenvalue(eigs: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """The largest eigenvalue over per-group eigensystems with ascending rows
    (eigenvalues clipped at 0)."""
    if len(eigs) == 1 and len(eigs[0][0]) == 1:  # one block: no reduction
        return float(eigs[0][0][0, -1])
    return max(float(lam[:, -1].max()) for lam, _ in eigs)


def _eigvalsh(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetrized H, or of each matrix in a stack.

    A 1 x 1 block h has the one eigenvalue Re h, the bits LAPACK's zheevd
    returns for it, so a stack of them needs no LAPACK call.
    """
    if H.shape[-1] == 1:
        return np.ascontiguousarray(H.real.reshape(H.shape[:-1]))
    return np.linalg.eigvalsh(hermitize(H))


def psd_eigh(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of the symmetrized H, or of each matrix in a stack, with
    ascending eigenvalues clipped at 0. A 1 x 1 block h has Re h and the
    eigenvector 1, as LAPACK gives them, without a LAPACK call."""
    if H.shape[-1] == 1:
        return np.clip(_eigvalsh(H), 0.0, None), np.ones_like(H)
    lam, V = np.linalg.eigh(hermitize(H))
    return np.clip(lam, 0.0, None), V


def block_eigvalsh(blocks: list[np.ndarray]) -> np.ndarray:
    """Ascending eigenvalues of the symmetrized matrix whose blocks (as
    `gather` gives them, one entry per group) are `blocks`."""
    if len(blocks) == 1 and len(blocks[0]) == 1:  # one block: already ascending
        return _eigvalsh(blocks[0])[0]
    lam = np.concatenate([_eigvalsh(B) for B in blocks], axis=None)
    lam.sort()
    return lam


def max_asymmetry(A: np.ndarray) -> float:
    """max |A - A*| over a matrix or a stack of them."""
    return float(np.abs(A - A.conj().swapaxes(-1, -2)).max())


def root_weights(lam: np.ndarray, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """kept = lam > cutoff for eigenvalues clipped at 0, and the weights w (3, *lam.shape),
    sqrt(lam), 1 and 1 / sqrt(lam) on kept and 0 elsewhere, that make V diag(w) V*
    G^(1/2), the range projector and G^(+1/2); w itself when V = 1 (1 x 1 blocks)."""
    kept = lam > cutoff
    w = np.zeros((3,) + lam.shape)
    np.sqrt(lam, out=w[0], where=kept)
    w[1][kept] = 1.0
    np.divide(1.0, w[0], out=w[2], where=kept)
    return kept, w


def eig_pinv_sqrt(lam: np.ndarray, V: np.ndarray, cutoff: float) -> np.ndarray:
    """Pseudo-inverse square root from an eigensystem (lam clipped at 0), or
    from a stack of them.

    Eigenvalues at or below the absolute `cutoff` invert to 0.
    """
    inv = np.zeros_like(lam)
    kept = lam > cutoff
    inv[kept] = 1.0 / np.sqrt(lam[kept])
    return hermitize((V * inv[..., None, :]) @ V.conj().swapaxes(-1, -2))


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
    """Largest singular value of a matrix, or the largest over a stack of
    matrices (rectangular inputs allowed)."""
    M = np.asarray(A, dtype=complex)
    if M.ndim < 2:
        raise DimensionMismatch(f"operator_norm expects a matrix, got shape {M.shape}")
    if 0 in M.shape:
        return 0.0
    if not np.isfinite(M).all():
        raise NonFinite("matrix contains non-finite entries")
    if M.shape[-2:] == (1, 1):  # the singular value of a 1 x 1 block a is |a|
        top = float(np.abs(M).max())
    else:
        s = np.linalg.svd(M, compute_uv=False)
        top = float(s.flat[0] if s.size == s.shape[-1] else s[..., 0].max())
    if not math.isfinite(top):
        raise NonFinite("operator norm overflows")
    return top


def annihilates(
    A: np.ndarray,
    K: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    norm: float | None = None,
    n: int | None = None,
) -> bool:
    """Whether A sends every column of K to (numerical) zero.

    K is expected orthonormal. A and K may also be matching stacks of the
    diagonal blocks of an n x n pair. Residuals are compared against
    ``n * rank_rel * max(1, norm)``, with norm defaulting to ||A|| and n to
    the size of A, so the decision is consistent with the kernel cutoff
    policy.
    """
    if K.shape[-1] == 0:
        return True
    if norm is None:
        norm = operator_norm(A)
    n = A.shape[-1] if n is None else n
    return float(np.abs(A @ K).max()) <= n * tol.rank_rel * max(1.0, norm)
