"""Groups of 1x1 blocks run elementwise, to the bits of the stacked path.

A group whose blocks are 1x1 is a diagonal, with eigenvectors 1, so the engine
computes its roots, projectors, kernels, contraction, part stacks and
domination norm on vectors. The stacked (b, 1, 1) arithmetic it replaces is
kept here as the reference, and every output is compared bit for bit (signed
zeros included) on diagonal families built to sit on the engine's cutoffs.
"""

import numpy as np
import pytest

from formleb import (
    NonNegativeForm,
    NotDominating,
    SesquilinearForm,
    Tolerance,
    build_context,
    classify_range,
    is_bounded_by,
    is_dominating,
)
from formleb.forms import _blocks_of, compressed_norm, joint_groups
from formleb.lebesgue import ComponentBlocks, _part_stacks
from formleb.linalg import (
    annihilates,
    hermitize,
    leading_columns,
    operator_norm,
    psd_eigh,
    top_eigenvalue,
)

from conftest import crandn, random_psd

TOLS = (Tolerance(), Tolerance(rank_rel=1e-6, psd_abs=1e-7, cmp_abs=1e-7))


# ---------------------------------------------------------------------------
# the stacked arithmetic, as the engine ran it on every group


def stacked_orthonormal_image(M, cutoff):
    if M.shape[-1] == 0:
        return M
    if M.shape[-2:] == (1, 1):
        s = np.abs(M)
        parts = np.ascontiguousarray(M).view(np.float64) / np.where(s > 0.0, s, 1.0)
        return leading_columns(parts.view(complex), s[..., 0] > cutoff)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return leading_columns(U, s > cutoff)


def stacked_blocks(dominating, ref, form, tol):
    """(cutoff, rank, blocks) of `build_context`, every group run as stacks."""
    groups = joint_groups(dominating, ref) if form is None else joint_groups(dominating, ref, form)
    forms = [None] * len(groups) if form is None else form.blocks_on(groups)
    doms, refs = dominating.blocks_on(groups), ref.blocks_on(groups)
    eigs = [psd_eigh(S_b + W_b) for S_b, W_b in zip(doms, refs)]
    lam_max = top_eigenvalue(eigs)
    cutoff = tol.rank_rel * lam_max
    image_cutoff = np.sqrt(tol.rank_rel) * np.sqrt(lam_max)
    blocks, rank = [], 0
    for (lam, V), (ref_lam, ref_V), S_b, W_b, A_b in zip(
        eigs, ref.block_eigenpairs(groups), doms, refs, forms
    ):
        kept = lam > cutoff
        rank += int(np.count_nonzero(kept))
        w = np.zeros((2 if A_b is None else 3,) + lam.shape)
        np.sqrt(lam, out=w[0], where=kept)
        w[1][kept] = 1.0
        np.divide(1.0, w[0], out=w[2:], where=kept)
        Ghalf, range_proj, *Gph = hermitize((V * w[..., None, :]) @ V.conj().swapaxes(-1, -2))
        ref_kernel = leading_columns(ref_V, ref_lam <= cutoff)
        Vimg = stacked_orthonormal_image(Ghalf @ ref_kernel, image_cutoff)
        Phat = hermitize(range_proj - Vimg @ Vimg.conj().swapaxes(-1, -2))
        That = None if A_b is None else Gph[0] @ A_b @ Gph[0]
        blocks.append(ComponentBlocks(S_b, W_b, Ghalf, range_proj, ref_kernel, Vimg, Phat, That))
    return cutoff, rank, blocks


def stacked_part_stacks(blocks):
    outs = []
    for blk in blocks:
        Gh = blk.gram_half
        PQ = np.empty((2,) + Gh.shape, dtype=complex)
        PQ[0] = blk.ac_proj
        np.subtract(blk.range_proj, blk.ac_proj, out=PQ[1])
        outs.append((Gh @ PQ @ blk.contraction)[:, None] @ PQ @ Gh)
    return outs


def stacked_compressed_norm(eigs, blocks, n, tol, scale=None):
    cutoff = tol.rank_rel * (top_eigenvalue(eigs) if scale is None else scale)
    norm = None
    result = 0.0
    for (lam, V), A in zip(eigs, blocks):
        K = leading_columns(V, lam <= cutoff)
        if K.shape[-1]:
            if norm is None:
                norm = max(map(operator_norm, blocks))
            both = np.empty((2,) + A.shape, dtype=complex)
            both[0], both[1] = A, A.conj().swapaxes(-1, -2)
            if not annihilates(both, K, tol, norm, n):
                return None
        inv = np.zeros_like(lam)
        kept = lam > cutoff
        inv[kept] = 1.0 / np.sqrt(lam[kept])
        Wph = hermitize((V * inv[..., None, :]) @ V.conj().swapaxes(-1, -2))
        result = max(result, operator_norm(Wph @ A @ Wph))
    return result


# ---------------------------------------------------------------------------
# families


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def diagonal_family(rng, k, tol):
    """Diagonals (t, sigma, omega) of k atoms at the scale 4^j: zero atoms of
    both signs, atoms just above, at and below rank_rel * lambda_max and the
    image cutoff, complex phases, and t at, just inside and just outside the
    domination bound."""
    scale = 4.0 ** int(rng.integers(-20, 21))
    cut = tol.rank_rel * scale  # atom 0 carries lambda_max = scale
    near = [cut * f for f in (1 - 1e-9, 1 - 2**-52, 1.0, 1 + 2**-52, 1 + 1e-9)]
    near += [np.nextafter(cut, 0.0), np.nextafter(cut, np.inf)]
    # and around the square of the image cutoff sqrt(rank_rel) * sqrt(lambda_max)
    image = (np.sqrt(tol.rank_rel) * np.sqrt(scale)) ** 2
    near += [image, np.nextafter(image, np.inf), np.nextafter(np.nextafter(image, np.inf), np.inf)]

    def level():
        kind = rng.integers(6)
        if kind == 0:
            return rng.choice([0.0, -0.0])
        if kind == 1:
            return rng.choice(near)
        return scale * rng.uniform(1e-3, 1.0)

    sigma, omega = np.array([level() for _ in range(k)]), np.array([level() for _ in range(k)])
    sigma[0], omega[0] = scale, 0.0
    phase = np.exp(2j * np.pi * rng.random(k))
    ratio = rng.choice([0.0, 0.5, 1.0, 1 + 0.5 * tol.psd_abs, 1 + 2 * tol.psd_abs], size=k)
    t = phase * ratio * sigma
    zero = rng.random(k) < 0.2  # signed zeros in either part
    t[zero] = [complex(rng.choice([0.0, -0.0]), rng.choice([0.0, -0.0])) for _ in range(zero.sum())]
    stray = rng.random(k) < 0.1  # mass where sigma may vanish, around the annihilation threshold
    threshold = k * tol.rank_rel * max(1.0, scale)
    t[stray] = phase[stray] * threshold * rng.choice([0.5, 2.0], stray.sum())
    perm = rng.permutation(k)
    return t[perm], sigma[perm].astype(complex), omega[perm].astype(complex)


def mixed_family(rng, tol):
    """1x1 atoms next to 3x3 components, interleaved by a permutation."""
    t, sigma, omega = diagonal_family(rng, int(rng.integers(1, 6)), tol)
    k, b = t.size, int(rng.integers(1, 3))
    n = k + 3 * b
    T, S, W = (np.zeros((n, n), dtype=complex) for _ in range(3))
    T[:k, :k], S[:k, :k], W[:k, :k] = np.diag(t), np.diag(sigma), np.diag(omega)
    for i in range(b):
        block = slice(k + 3 * i, k + 3 * i + 3)
        B = crandn(rng, 3, int(rng.integers(1, 4)))
        X = crandn(rng, B.shape[1], B.shape[1])
        X *= 0.9 / np.linalg.norm(X, 2)
        S[block, block], T[block, block] = B @ B.conj().T, B @ X @ B.conj().T
        W[block, block] = random_psd(rng, 3, int(rng.integers(0, 4)))
        if rng.random() < 0.5:  # a reference stored as 1x1 blocks there too
            W[block, block] = np.diag(np.diag(W[block, block]).real)
    perm = rng.permutation(n)
    return tuple(M[np.ix_(perm, perm)] for M in (T, S, W))


def families(rng, count):
    for i in range(count):
        tol = TOLS[i % 2]
        if i % 4 == 3:
            yield mixed_family(rng, tol), tol
        else:
            t, sigma, omega = diagonal_family(rng, int(rng.integers(1, 13)), tol)
            yield (np.diag(t), np.diag(sigma), np.diag(omega)), tol


# ---------------------------------------------------------------------------


class TestScalarGroups:
    def test_component_blocks_and_part_stacks(self, rng):
        scalar_groups = dominated = 0
        for (T, S, W), tol in families(rng, 400):
            t, sigma, omega = SesquilinearForm(T), NonNegativeForm(S), NonNegativeForm(W)
            verdict = stacked_compressed_norm(*_blocks_of(sigma, t), sigma.dim, tol)
            form = t if verdict is not None and verdict <= 1.0 + tol.psd_abs else None
            dominated += form is not None
            ctx = build_context(sigma, omega, form=form, tol=tol)
            cutoff, rank, want = stacked_blocks(sigma, omega, form, tol)
            assert (ctx.cutoff, ctx.rank) == (cutoff, rank)
            for got, ref in zip(ctx.blocks, want, strict=True):
                scalar_groups += got.dom.shape[-1] == 1
                for name in ComponentBlocks._fields:
                    a, b = getattr(got, name), getattr(ref, name)
                    assert (a is None) == (b is None), name
                    if a is not None:
                        assert same_bits(a, b), name
                        if name not in ("dom", "ref"):  # the engine's own arrays
                            assert not a.flags.writeable and a.flags.c_contiguous, name
            if form is not None:
                for a, b in zip(_part_stacks(ctx), stacked_part_stacks(want), strict=True):
                    assert same_bits(a, b)
        assert scalar_groups >= 400 and 100 <= dominated < 400

    def test_domination_norm_and_verdicts(self, rng):
        verdicts = set()
        for (T, S, W), tol in families(rng, 400):
            t, sigma, omega = SesquilinearForm(T), NonNegativeForm(S), NonNegativeForm(W)
            for ref, form in ((sigma, t), (omega, t), (sigma, omega)):
                args = (*_blocks_of(ref, form), ref.dim, tol)
                want = stacked_compressed_norm(*args)
                got = compressed_norm(*args)
                assert (got is None) == (want is None)
                assert got is None or same_bits(got, want)
                dominated = want is not None and want <= 1.0 + tol.psd_abs
                verdicts.add((want is None, dominated))
                assert is_dominating(ref, form, tol) is dominated
                assert is_bounded_by(form, ref, tol) == (want is not None, want)
            if stacked_compressed_norm(*_blocks_of(sigma, t), sigma.dim, tol) is None:
                with pytest.raises(NotDominating):
                    build_context(sigma, omega, form=t, tol=tol)
        # unbounded, bounded but not dominated, and dominated all occur
        assert verdicts == {(True, False), (False, False), (False, True)}

    def test_sector_constant_of_a_scalar(self, rng):
        # classify_range on C^1 runs the domination norm on one 1x1 block
        for _ in range(300):
            a = complex(*rng.choice([0.0, -0.0, 1e-12, 1.0, rng.standard_normal()], 2))
            a *= 4.0 ** int(rng.integers(-20, 21))
            re, im = a.real, a.imag
            lam, V = np.linalg.eigh(np.array([[[re + 0j]]]))
            eigs = [(np.clip(lam, 0.0, None), V)]
            blocks = [np.array([[[im + 0j]]])]
            scale = max(top_eigenvalue(eigs), abs(im))
            want = stacked_compressed_norm(eigs, blocks, 1, Tolerance(), scale)
            got = compressed_norm(eigs, blocks, 1, Tolerance(), scale)
            assert (got is None) == (want is None) and (got is None or same_bits(got, want))
            rc = classify_range(SesquilinearForm([[a]]))
            if rc.halfplane and not (rc.quadrant and im <= 1e-9):
                assert rc.sector_constant == want
