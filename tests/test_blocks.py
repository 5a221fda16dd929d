"""Block-diagonal reduction: component search, and the block path against the
dense path it replaces.

The engine runs once per connected component of the joint support of its
matrices. A random unitary congruence U* . U mixes every index, so the same
problem conjugated by U runs the dense path on one component; the
decomposition is covariant, U parts(U* A U) U* = parts(A), which is also the
congruence property of the numerical policy.
"""

import numpy as np
import pytest

from formleb import (
    AtomicMeasureSpace,
    ComplexMeasure,
    InconsistentRank,
    NonNegativeForm,
    NotPSD,
    SesquilinearForm,
    build_context,
    construct_dominating,
    decompose,
    decompose_nonneg,
    decompose_via_forms,
    induced_form,
    is_absolutely_continuous,
    is_bounded_by,
    is_dominating,
    is_singular_nonneg,
)
from formleb.linalg import components

from conftest import crandn, max_abs, random_psd, random_unitary

PART_REL = 1e-12


def block_instance(rng):
    """2-5 components of sizes 1-4 at scales 10^U(-6, 6), interleaved by a
    random permutation: (t, sigma, omega, sizes), sigma dominating t."""
    sizes = rng.integers(1, 5, size=rng.integers(2, 6))
    sizes[0] = 1  # always one 1x1 block
    n = int(sizes.sum())
    T, S, W = (np.zeros((n, n), dtype=complex) for _ in range(3))
    start = 0
    for m in sizes:
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        B = crandn(rng, m, int(rng.integers(1, m + 1)))
        X = crandn(rng, B.shape[1], B.shape[1])
        X *= 0.9 / np.linalg.norm(X, 2)
        block = slice(start, start + m)
        S[block, block] = scale * (B @ B.conj().T)
        T[block, block] = scale * (B @ X @ B.conj().T)
        W[block, block] = scale * random_psd(rng, m, int(rng.integers(0, m + 1)))
        start += m
    perm = rng.permutation(n)
    return tuple(M[np.ix_(perm, perm)] for M in (T, S, W)) + (sorted(sizes.tolist()),)


def congruent(U, M):
    return U.conj().T @ M @ U


def condition(H):
    """lambda_max over the smallest eigenvalue kept at the default cutoff."""
    lam = np.linalg.eigvalsh(H)
    return lam[-1] / lam[lam > 1e-10 * lam[-1]][0]


SCALE_DEFECT = object()


def answers(T, S, W):
    """Every operation the block path must agree on, on one instance.

    An answer is SCALE_DEFECT when the operation raised one of the known
    scale defects (ROADMAP item 3): the absolute slacks psd_abs and cmp_abs
    make a part fail its PSD check (NotPSD) or the two criteria of a
    predicate disagree (InconsistentRank). Which path trips them depends on
    rounding, so such answers are not compared.
    """
    t = SesquilinearForm(T)
    ops = {
        "decompose": lambda: decompose(t, NonNegativeForm(W), NonNegativeForm(S)),
        "decompose_nonneg": lambda: decompose_nonneg(NonNegativeForm(S), NonNegativeForm(W)),
        "is_bounded_by": lambda: is_bounded_by(t, NonNegativeForm(W)),
        "is_absolutely_continuous": lambda: is_absolutely_continuous(
            NonNegativeForm(S), NonNegativeForm(W)
        ),
        "is_singular_nonneg": lambda: is_singular_nonneg(NonNegativeForm(S), NonNegativeForm(W)),
        "sigma_dominates": lambda: is_dominating(NonNegativeForm(S), t),
        "omega_dominates": lambda: is_dominating(NonNegativeForm(W), t),
    }
    out = {}
    for name, op in ops.items():
        try:
            out[name] = op()
        except (InconsistentRank, NotPSD):
            out[name] = SCALE_DEFECT
    return out


class TestComponents:
    def test_full_row_is_one_component(self):
        M = np.ones((4, 4)) + 0j
        M[2, 3] = M[3, 2] = 0.0
        (idx,) = components(M)
        assert idx.tolist() == [[0, 1, 2, 3]]

    def test_row_without_zero_is_one_component(self):
        # PSD (diagonally dominant), one zero pair in row 0: row 1 has no zero
        M = 3.0 * np.eye(4) + np.ones((4, 4)) - np.eye(4) + 0j
        M[0, 2] = M[2, 0] = 0.0
        groups = components(M)
        assert len(groups) == 1 and np.array_equal(groups[0], np.arange(4)[None])
        assert [g.tolist() for g in NonNegativeForm(M).groups] == [[[0, 1, 2, 3]]]

    def test_chain_is_one_component(self):
        M = np.diag(np.ones(5)) + np.diag(np.ones(4), 1) + 0j  # zeros in row 0
        (idx,) = components(M)
        assert idx.tolist() == [[0, 1, 2, 3, 4]]

    def test_diagonal_gives_singletons(self):
        (idx,) = components(np.diag([1.0, 0.0, 2.0]) + 0j)
        assert idx.tolist() == [[0], [1], [2]]

    def test_joint_support_grouped_by_size(self):
        A = np.zeros((6, 6), dtype=complex)
        B = np.zeros((6, 6), dtype=complex)
        A[4, 1] = 1.0  # one direction is enough to join 1 and 4
        B[0, 5] = B[5, 3] = 1j  # 0, 5 and 3 are joined only through B
        groups = components(A, B)
        assert [g.tolist() for g in groups] == [[[2]], [[1, 4]], [[0, 3, 5]]]

    def test_recovers_planted_blocks(self, rng):
        for _ in range(20):
            _, S, W, sizes = block_instance(rng)
            groups = components(S, W)
            found = sorted(m for idx in groups for m in [idx.shape[1]] * idx.shape[0])
            assert found == sizes
            for idx in groups:
                assert np.all(np.diff(idx, axis=1) > 0)


class TestBlockPathMatchesDense:
    def test_parts_and_predicates(self, rng):
        compared = skipped = 0
        for _ in range(40):
            T, S, W, _ = block_instance(rng)
            U = random_unitary(rng, S.shape[0])
            TU, SU, WU = (congruent(U, M) for M in (T, S, W))
            ctx = build_context(NonNegativeForm(S), NonNegativeForm(W), SesquilinearForm(T))
            ctxU = build_context(NonNegativeForm(SU), NonNegativeForm(WU), SesquilinearForm(TU))
            assert sum(idx.shape[0] for idx in ctx.groups) > 1
            assert [idx.shape for idx in ctxU.groups] == [(1, S.shape[0])]

            # the dense path carries G^(1/2) of G = S + W and W^(+1/2) in
            # rounding of ~eps * ||G||, so its accuracy falls with their
            # condition numbers; components at scales 1e12 apart reach ~1e9
            part_rel = PART_REL + 1e-13 * np.sqrt(condition(S + W))

            def close(block, dense, whole):
                back = U @ dense @ U.conj().T
                return max_abs(block - back) <= part_rel * max_abs(whole)

            block, dense = answers(T, S, W), answers(TU, SU, WU)
            for name, a in block.items():
                b = dense[name]
                if a is SCALE_DEFECT or b is SCALE_DEFECT:
                    skipped += 1
                    continue
                compared += 1
                if name == "decompose":
                    for part in ("regular", "mixed", "strongly_singular"):
                        assert close(getattr(a, part).matrix, getattr(b, part).matrix, T)
                elif name == "decompose_nonneg":
                    assert close(a.absolutely_continuous.matrix, b.absolutely_continuous.matrix, S)
                    assert close(a.singular.matrix, b.singular.matrix, S)
                    assert a.gram_rank == b.gram_rank
                elif name == "is_bounded_by":
                    assert a[0] is b[0]
                    if a[0]:
                        rel = PART_REL + 1e-14 * condition(W)
                        assert a[1] == pytest.approx(b[1], rel=rel)
                else:
                    assert a is b, name
        assert compared >= 4 * skipped

    def test_dense_views_of_the_blocks(self, rng):
        _, S, W, _ = block_instance(rng)
        ctx = build_context(NonNegativeForm(S), NonNegativeForm(W))
        P, K, img = ctx.dense("ac_proj"), ctx.dense("ref_kernel"), ctx.dense("ref_kernel_image")
        n = S.shape[0]
        assert max_abs(P @ P - P) < n * 1e-9
        assert max_abs(K.conj().T @ K - np.eye(K.shape[1])) < 1e-12
        assert max_abs(img.conj().T @ img - np.eye(img.shape[1])) < 1e-12
        assert max_abs(P @ img) < n * 1e-9
        Gh = ctx.dense("gram_half")
        assert max_abs(Gh @ Gh - (S + W)) <= 1e-12 * max_abs(S + W)
        assert ctx.dense("contraction") is None  # no form attached


class TestOneLayout:
    def forms(self, rng):
        """Forms built every way the package builds them."""
        _, S, W, _ = block_instance(rng)
        n = S.shape[0]
        t = SesquilinearForm(crandn(rng, n, n))
        sigma = construct_dominating(t)
        omega = NonNegativeForm(W)
        triple = decompose(t, omega, sigma, with_cross_terms=True)
        split = decompose_nonneg(NonNegativeForm(S), omega)
        space = AtomicMeasureSpace(tuple("abcde"))
        yield from (t, sigma, omega, NonNegativeForm(S), NonNegativeForm(np.diag([1.0, 0.0, 2.0])))
        yield from (triple.regular, triple.mixed, triple.strongly_singular, *triple.mixed_parts)
        for parts in (split, triple.witnesses):
            yield from (parts.absolutely_continuous, parts.singular)
        yield from (t.adjoint(), t.real_part(), 2.0 * t, t + t, SesquilinearForm([[3.0]]))
        yield induced_form(ComplexMeasure(space, [1.0, 0.0, 2j, 0.0, -1.0]))
        yield induced_form(ComplexMeasure(AtomicMeasureSpace(("a",)), [1.5]))

    def test_every_group_is_a_stack(self, rng):
        one_component = 0
        for form in self.forms(rng):
            assert len(form.blocks) == len(form.groups)
            for idx, B in zip(form.groups, form.blocks):
                b, m = idx.shape
                assert B.shape == (b, m, m)
            if form.groups[0].shape == (1, form.dim):
                one_component += 1
                assert np.shares_memory(form.blocks[0][0], form.matrix)
        assert one_component >= 8

    def test_eigenpairs_regrouped_without_factoring(self, rng, monkeypatch):
        # W has the components {0, 3}, {1}, {2}, {4, 5}; the whole index set
        # and {0, 1, 3}, {2, 4, 5} are coarser, and reuse its block factors
        W = np.diag([0.0, 2.0, 0.5, 0.0, 0.0, 0.0]).astype(complex)
        W[np.ix_([0, 3], [0, 3])] = random_psd(rng, 2, 1)
        W[np.ix_([4, 5], [4, 5])] = random_psd(rng, 2)
        omega = NonNegativeForm(W)
        assert len(omega.groups) == 2
        lam, V = omega.eigenpairs
        coarse = [np.array([[0, 1, 3], [2, 4, 5]])]
        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, None)
        ((lam_w, V_w),) = omega.block_eigenpairs([np.arange(6)[None]])
        ((lam_c, V_c),) = omega.block_eigenpairs(coarse)
        monkeypatch.undo()
        assert lam_w.tobytes() == lam[None].tobytes() and V_w.tobytes() == V[None].tobytes()
        (B,) = [W[idx[:, :, None], idx[:, None, :]] for idx in coarse]
        assert np.all(np.diff(lam_c, axis=1) >= 0.0)
        assert max_abs(lam_c - np.linalg.eigvalsh(B)) <= 1e-12 * max_abs(W)
        rebuilt = (V_c * lam_c[:, None, :]) @ V_c.conj().swapaxes(1, 2)
        assert max_abs(rebuilt - B) <= 1e-12 * max_abs(W)


class TestGlobalCutoff:
    def test_component_below_family_cutoff_stays_null(self, rng):
        # component {1, 2} carries G-mass ~1e-12 of the family's largest
        # eigenvalue: null at the family cutoff, full rank at its own
        tiny_S = 1e-12 * random_psd(rng, 2)
        tiny_W = 1e-12 * random_psd(rng, 2, 1)
        S = np.zeros((4, 4), dtype=complex)
        W = np.zeros((4, 4), dtype=complex)
        S[np.ix_([1, 2], [1, 2])] = tiny_S
        W[np.ix_([1, 2], [1, 2])] = tiny_W
        S[np.ix_([0, 3], [0, 3])] = random_psd(rng, 2)
        W[np.ix_([0, 3], [0, 3])] = random_psd(rng, 2, 1)
        sigma, omega = NonNegativeForm(S), NonNegativeForm(W)
        U = random_unitary(rng, 4)
        sigmaU, omegaU = NonNegativeForm(congruent(U, S)), NonNegativeForm(congruent(U, W))

        ctx, ctxU = build_context(sigma, omega), build_context(sigmaU, omegaU)
        assert len(ctx.groups) == 1 and ctx.groups[0].shape == (2, 2)
        assert ctx.rank == ctxU.rank == 2
        assert max_abs(ctx.dense("range_proj")[np.ix_([1, 2], [1, 2])]) == 0.0
        split, splitU = decompose_nonneg(sigma, omega), decompose_nonneg(sigmaU, omegaU)
        back = U @ splitU.singular.matrix @ U.conj().T
        assert max_abs(split.singular.matrix - back) <= PART_REL * max_abs(S)

    def test_relative_null_atom_still_inconsistent(self):
        space = AtomicMeasureSpace(("a", "b"))
        mu = ComplexMeasure(space, [1.0, 1.0])
        nu = ComplexMeasure(space, [1.0, 1e-12])
        with pytest.raises(InconsistentRank):
            decompose_via_forms(mu, nu)
