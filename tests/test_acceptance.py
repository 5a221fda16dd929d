"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line in the terminal summary (see conftest).
Criterion 5 is verified against a from-scratch reimplementation of the
square-root/projector construction built on scipy routines, independent of the
package's own numpy.linalg path.
"""

import time

import numpy as np
import scipy.linalg as sla

from formleb import (
    NonNegativeForm,
    SesquilinearForm,
    ac_extremal_check,
    classify_range,
    construct_dominating,
    decompose,
    decompose_nonneg,
    induced_form,
    is_ac_measure,
    is_bounded_by,
    is_dominating,
    is_mixed_certificate,
    is_regular,
    is_singular_measure,
    is_singular_nonneg,
    is_strongly_singular,
    kernel_basis,
    operator_norm,
    singularity_sufficient,
    total_variation,
)
from formleb.measures import (
    AtomicMeasureSpace,
    ComplexMeasure,
    decompose_via_forms,
    lebesgue_decompose_measure,
)

from conftest import crandn, max_abs, pinv_sqrt, random_hermitian, random_psd, random_unitary

GOLDEN_ATOL = 1e-9
SLACK = 1e-8

T3 = SesquilinearForm(np.diag([-1.0, 1.0, 0.0]))
SIGMA3 = NonNegativeForm(np.diag([1.0, 1.0, 0.0]))
OMEGA3 = NonNegativeForm(np.diag([0.0, 1.0, 1.0]))
U3 = NonNegativeForm(np.array([[5 / 3, -4 / 3, 0], [-4 / 3, 5 / 3, 0], [0, 0, 0]]))


def best_runtime(fn, repeats=5):
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def min_eig(H):
    return float(np.linalg.eigvalsh((H + H.conj().T) / 2)[0])


def test_criterion_01_golden_sigma_split():
    split = decompose_nonneg(SIGMA3, OMEGA3)
    assert max_abs(split.absolutely_continuous.matrix - np.diag([0.0, 1.0, 0.0])) <= GOLDEN_ATOL
    assert max_abs(split.singular.matrix - np.diag([1.0, 0.0, 0.0])) <= GOLDEN_ATOL
    assert best_runtime(lambda: decompose_nonneg(SIGMA3, OMEGA3)) < 0.010


def test_criterion_02_golden_u_split():
    split = decompose_nonneg(U3, OMEGA3)
    expected_sing = np.array([[5 / 3, -4 / 3, 0], [-4 / 3, 16 / 15, 0], [0, 0, 0]])
    assert max_abs(split.absolutely_continuous.matrix - np.diag([0.0, 0.6, 0.0])) <= GOLDEN_ATOL
    assert max_abs(split.singular.matrix - expected_sing) <= GOLDEN_ATOL
    assert best_runtime(lambda: decompose_nonneg(U3, OMEGA3)) < 0.010


def test_criterion_03_golden_triple_sigma():
    triple = decompose(T3, OMEGA3, SIGMA3)
    assert max_abs(triple.regular.matrix - np.diag([0.0, 1.0, 0.0])) <= GOLDEN_ATOL
    assert max_abs(triple.mixed.matrix) <= GOLDEN_ATOL
    assert max_abs(triple.strongly_singular.matrix - np.diag([-1.0, 0.0, 0.0])) <= GOLDEN_ATOL


def test_criterion_04_golden_triple_u():
    triple = decompose(T3, OMEGA3, U3)
    expected_mixed = np.array([[0.0, -0.8, 0.0], [-0.8, 1.28, 0.0], [0.0, 0.0, 0.0]])
    expected_sing = np.array([[-1.0, 0.8, 0.0], [0.8, -0.64, 0.0], [0.0, 0.0, 0.0]])
    assert max_abs(triple.regular.matrix - np.diag([0.0, 0.36, 0.0])) <= GOLDEN_ATOL
    assert max_abs(triple.mixed.matrix - expected_mixed) <= GOLDEN_ATOL
    assert max_abs(triple.strongly_singular.matrix - expected_sing) <= GOLDEN_ATOL
    # the split depends on the dominating form
    other = decompose(T3, OMEGA3, SIGMA3)
    assert max_abs(triple.regular.matrix - other.regular.matrix) > 1e-3


def _oracle_triple(A, S, W):
    """From-scratch reimplementation on scipy routines (sqrtm/orth/null_space/pinvh)."""
    G = S + W
    Gh = sla.sqrtm(G)
    Gh = np.asarray((Gh + Gh.conj().T) / 2, dtype=complex)
    Gph = sla.pinvh(Gh)
    range_basis = sla.orth(np.asarray(G, dtype=complex))
    Pi = range_basis @ range_basis.conj().T
    KW = sla.null_space(np.asarray(W, dtype=complex))
    image = Gh @ KW if KW.size else np.zeros((G.shape[0], 0), dtype=complex)
    V = sla.orth(image) if image.size else np.zeros((G.shape[0], 0), dtype=complex)
    Phat = Pi - V @ V.conj().T
    Qhat = Pi - Phat
    That = Gph @ A @ Gph
    t_r = Gh @ Phat @ That @ Phat @ Gh
    t_m = Gh @ (Phat @ That @ Qhat + Qhat @ That @ Phat) @ Gh
    t_ss = Gh @ Qhat @ That @ Qhat @ Gh
    return t_r, t_m, t_ss


def test_criterion_05_indefinite_mixed_part():
    A = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    S = np.diag([3.0, 3.0, 0.0])
    W = np.diag([0.0, 1.0, 1.0])
    triple = decompose(SesquilinearForm(A), NonNegativeForm(W), NonNegativeForm(S))
    expected = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert max_abs(triple.mixed.matrix - expected) <= GOLDEN_ATOL
    # nonzero and not PSD even though the decomposed form is PSD
    assert max_abs(triple.mixed.matrix) > 0.5
    assert min_eig(triple.mixed.matrix) < -0.5
    # independent oracle agreement, all three parts
    o_r, o_m, o_ss = _oracle_triple(A, S, W)
    assert max_abs(o_m - triple.mixed.matrix) <= GOLDEN_ATOL
    assert max_abs(o_r - triple.regular.matrix) <= GOLDEN_ATOL
    assert max_abs(o_ss - triple.strongly_singular.matrix) <= GOLDEN_ATOL


def test_criterion_06_property_suite():
    rng = np.random.default_rng(606)
    start = time.perf_counter()
    for n in range(1, 7):
        for i in range(500):
            shape = i % 3  # 0 general, 1 Hermitian, 2 PSD
            A = crandn(rng, n, n)
            if shape == 1:
                A = (A + A.conj().T) / 2
            elif shape == 2:
                A = A @ A.conj().T
            form = SesquilinearForm(A)
            ref = NonNegativeForm(random_psd(rng, n, int(rng.integers(0, n + 1))))
            dom = construct_dominating(form)
            triple = decompose(form, ref, dom)
            sa = triple.witnesses.absolutely_continuous.matrix
            ss = triple.witnesses.singular.matrix

            # exactness of both splits
            total = (
                triple.regular.matrix
                + triple.mixed.matrix
                + triple.strongly_singular.matrix
            )
            assert max_abs(total - A) <= n * SLACK
            assert max_abs(sa + ss - dom.matrix) <= n * SLACK
            # positivity of the split parts
            assert min_eig(sa) >= -SLACK
            assert min_eig(ss) >= -SLACK
            # mutual singularity of (a.c. part + reference) and singular part
            assert is_singular_nonneg(
                NonNegativeForm(sa + ref.matrix), NonNegativeForm(ss)
            )
            # adjoint / real / imaginary commutation
            adj = decompose(form.adjoint(), ref, dom)
            re_d = decompose(form.real_part(), ref, dom)
            im_d = decompose(form.imag_part(), ref, dom)
            for part in ("regular", "mixed", "strongly_singular"):
                full = getattr(triple, part).matrix
                assert max_abs(getattr(adj, part).matrix - full.conj().T) <= SLACK
                assert max_abs(getattr(re_d, part).matrix - (full + full.conj().T) / 2) <= SLACK
                assert max_abs(getattr(im_d, part).matrix - (full - full.conj().T) / 2j) <= SLACK
            # symmetry inheritance
            if shape >= 1:
                for part in ("regular", "mixed", "strongly_singular"):
                    M = getattr(triple, part).matrix
                    assert max_abs(M - M.conj().T) <= SLACK
            # non-negativity inheritance and the collapse on self-decomposition
            if shape == 2:
                assert min_eig(triple.regular.matrix) >= -SLACK
                assert min_eig(triple.strongly_singular.matrix) >= -SLACK
                psd_form = NonNegativeForm(A)
                collapse = decompose(psd_form, ref, psd_form)
                split = decompose_nonneg(psd_form, ref)
                assert max_abs(collapse.mixed.matrix) <= n * SLACK
                assert (
                    max_abs(collapse.regular.matrix - split.absolutely_continuous.matrix)
                    <= n * SLACK
                )
                assert (
                    max_abs(collapse.strongly_singular.matrix - split.singular.matrix)
                    <= n * SLACK
                )
            # kernel of the reference sits inside the kernel of the regular part
            K = kernel_basis(ref.matrix)
            if K.shape[1]:
                assert max_abs(triple.regular.matrix @ K) <= n * SLACK
            # a form and its adjoint have the same dominating set
            candidate = NonNegativeForm(random_psd(rng, n, int(rng.integers(0, n + 1))))
            assert is_dominating(candidate, form) == is_dominating(candidate, form.adjoint())
            assert is_dominating(dom, form.adjoint())
            # value-set membership bounds
            if i % 4 == 0:
                QA = random_psd(rng, n) + 1j * random_psd(rng, n, max(n - 1, 1))
                qform = SesquilinearForm(QA)
                assert classify_range(qform).quadrant
                qbound = NonNegativeForm(
                    2.0 * (qform.real_part().matrix + qform.imag_part().matrix)
                )
                assert is_dominating(qbound, qform)
            if i % 4 == 2:
                R = random_psd(rng, n)
                Rh = np.linalg.cholesky(R + 1e-12 * np.eye(n))
                H = random_hermitian(rng, n)
                H /= max(1.0, float(np.abs(np.linalg.eigvalsh(H)).max()))
                sform = SesquilinearForm(R + 1j * 0.6 * Rh @ H @ Rh.conj().T)
                rc = classify_range(sform)
                assert rc.sector
                sbound = NonNegativeForm(
                    (1.0 + rc.sector_constant) * sform.real_part().matrix
                )
                assert is_dominating(sbound, sform)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"


def test_criterion_07_extremality_oracle():
    rng = np.random.default_rng(707)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 7))
        full_rank = rng.random() < 0.7
        S = random_psd(rng, n) if full_rank else random_psd(rng, n, int(rng.integers(1, n)))
        sigma = NonNegativeForm(S)
        ref = NonNegativeForm(random_psd(rng, n, int(rng.integers(0, n))))
        KW = kernel_basis(ref.matrix)
        KS = kernel_basis(S)
        # admissible directions: orthogonal to ker(ref), inside range(sigma)
        stacked = np.vstack([KW.conj().T, KS.conj().T]) if (KW.size or KS.size) else None
        if stacked is None or stacked.size == 0:
            basis = np.eye(n, dtype=complex)
        else:
            _, s, Vh = np.linalg.svd(stacked)
            rank = int(np.count_nonzero(s > 1e-10 * (s[0] if s.size else 1.0)))
            basis = Vh[rank:].conj().T
        if basis.shape[1] == 0:
            continue
        proj = basis @ basis.conj().T
        seed = proj @ random_psd(rng, n) @ proj
        seed = (seed + seed.conj().T) / 2
        if operator_norm(seed) < 1e-10:
            continue
        Sph = pinv_sqrt(S)
        scale = 1.0 / operator_norm(Sph @ seed @ Sph)
        u = NonNegativeForm(scale * seed)
        split = decompose_nonneg(sigma, ref)
        assert min_eig(split.absolutely_continuous.matrix - u.matrix) >= -SLACK
        assert ac_extremal_check(sigma, ref, u)
        checked += 1
    assert checked >= 200


def test_criterion_08_c2_counterexample_regression():
    form = SesquilinearForm(np.diag([1.0, -1.0]))
    ref = NonNegativeForm(np.array([[1.0, 1.0], [1.0, 1.0]]))
    beta = NonNegativeForm(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    # the mixed certificate holds with the reference itself as the a.c. witness
    assert is_mixed_certificate(form, ref, ref, beta)
    # any PSD candidate whose kernel contains ker(ref) = span{(1,-1)} is a
    # multiple of the reference matrix, and none of them dominates the form
    p = np.array([1.0, -1.0])
    for c in (0.0, 0.3, 1.0, 2.5, 7.0):
        candidate = NonNegativeForm(c * ref.matrix)
        assert abs(candidate.quadratic(p)) <= 1e-12
        assert not is_dominating(candidate, form)
    # and no randomly drawn PSD certificate passes the strong-singularity check
    rng = np.random.default_rng(808)
    for _ in range(200):
        candidate = NonNegativeForm(random_psd(rng, 2, int(rng.integers(0, 3))))
        assert not is_strongly_singular(form, ref, candidate)
    # yet the form IS singular for the reference: the constant-sequence
    # argument works around the inconclusive kernel test
    assert not singularity_sufficient(form, ref)


def test_criterion_09_measure_oracle_equivalence():
    rng = np.random.default_rng(909)
    eps = 1e-3
    for _ in range(500):
        k = int(rng.integers(1, 7))
        space = AtomicMeasureSpace(tuple(f"a{i}" for i in range(k)))
        mu_vals = (
            rng.uniform(0.1, 2.0, k) + 1j * rng.uniform(-1.0, 1.0, k)
        ) * rng.choice([0.0, 1.0], k, p=[0.3, 0.7])
        nu_vals = rng.uniform(0.1, 2.0, k) * rng.choice([0.0, 1.0], k, p=[0.4, 0.6])
        mu = ComplexMeasure(space, mu_vals)
        nu = ComplexMeasure(space, nu_vals.astype(complex))

        via_forms = decompose_via_forms(mu, nu)
        direct = lebesgue_decompose_measure(mu, nu)
        assert (
            max_abs(
                via_forms.absolutely_continuous.values
                - direct.absolutely_continuous.values
            )
            <= GOLDEN_ATOL
        )
        assert max_abs(via_forms.singular.values - direct.singular.values) <= GOLDEN_ATOL

        # uniqueness: moving mass between the parts breaks a predicate
        for i in range(k):
            bump = np.zeros(k, dtype=complex)
            bump[i] = eps
            if nu.values[i].real > 0:
                moved = ComplexMeasure(space, direct.singular.values + bump)
                assert not is_singular_measure(moved, nu)
            else:
                moved = ComplexMeasure(space, direct.absolutely_continuous.values + bump)
                assert not is_ac_measure(moved, nu)

        # regularity of the induced form matches measure absolute continuity
        form = induced_form(mu)
        ref = NonNegativeForm(induced_form(nu).matrix)
        cert = NonNegativeForm(induced_form(total_variation(mu)).matrix)
        assert is_regular(form, ref) == is_ac_measure(mu, nu)
        if is_singular_measure(mu, nu):
            assert is_strongly_singular(form, ref, cert)
        if is_singular_nonneg(cert, ref):
            assert is_singular_measure(mu, nu)


def test_criterion_10_bounded_and_singular_is_null():
    rng = np.random.default_rng(1010)
    non_vacuous = 0
    for trial in range(600):
        n = int(rng.integers(1, 6))
        ref = NonNegativeForm(random_psd(rng, n, int(rng.integers(0, n + 1))))
        style = trial % 3
        if style == 0:
            A = np.zeros((n, n), dtype=complex)
        elif style == 1:
            K = kernel_basis(ref.matrix)
            proj = np.eye(n) - K @ K.conj().T if K.shape[1] else np.eye(n)
            A = proj @ crandn(rng, n, n) @ proj
        else:
            A = crandn(rng, n, n)
        form = SesquilinearForm(A)
        bounded, _ = is_bounded_by(form, ref)
        if bounded and singularity_sufficient(form, ref):
            non_vacuous += 1
            assert operator_norm(A) <= SLACK
    assert non_vacuous >= 100


def _pinv_above(A, cutoff):
    """numpy's pseudo-inverse of A, singular values at or below `cutoff` dropped."""
    top = np.linalg.norm(A, 2)
    return np.linalg.pinv(A, cutoff / top) if top > cutoff else np.zeros_like(A)


def shorted_operator(S, W, rcond=1e-10):
    """The Anderson-Trapp short of S to ran W,
    P_M (S_MM - S_MK S_KK^+ S_KM) P_M with M = ran W and K = ker W.

    In finite dimension this is the largest X <= S with ran X in ran W, the
    W-a.c. part of S. It is built from numpy's pinv alone: no G^(1/2), no
    quotient projector, no image SVD. Both cutoffs are relative to the whole
    matrix, W's to ||W|| and S_KK's to ||S||, as the engine's are.
    """
    P = W @ _pinv_above(W, rcond * np.linalg.norm(W, 2))  # projector onto ran W
    Q = np.eye(S.shape[0]) - P
    S_KK_pinv = _pinv_above(Q @ S @ Q, rcond * np.linalg.norm(S, 2))
    return P @ S @ P - P @ S @ Q @ S_KK_pinv @ Q @ S @ P


def _unit_psd(rng, n, rank):
    """A PSD matrix of the given rank whose nonzero eigenvalues lie in [0.5, 2]."""
    U = random_unitary(rng, n)[:, :rank]
    return (U * rng.uniform(0.5, 2.0, rank)) @ U.conj().T


def _unit_pair(rng, n):
    """Unit-scale PSD (S, W) on C^n: S of rank 1..n, W of rank 0..n."""
    return _unit_psd(rng, n, int(rng.integers(1, n + 1))), _unit_psd(
        rng, n, int(rng.integers(0, n + 1))
    )


def _permuted_block_pair(rng):
    """Unit-scale (S, W) on 2-4 components of sizes 1-3, interleaved by a
    random permutation, so the engine takes the block path."""
    sizes = rng.integers(1, 4, size=rng.integers(2, 5))
    n = int(sizes.sum())
    S, W = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
    start = 0
    for m in sizes:
        block = slice(start, start + m)
        S[block, block], W[block, block] = _unit_pair(rng, m)
        start += m
    perm = rng.permutation(n)
    return S[np.ix_(perm, perm)], W[np.ix_(perm, perm)]


def test_criterion_11_ac_part_is_the_shorted_operator():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for trial in range(400):
        S, W = _unit_pair(rng, int(rng.integers(2, 9))) if trial % 4 else _permuted_block_pair(rng)
        ac = decompose_nonneg(NonNegativeForm(S), NonNegativeForm(W)).absolutely_continuous
        gap = max_abs(ac.matrix - shorted_operator(S, W)) / np.linalg.norm(S, 2)
        worst = max(worst, gap)
    assert worst <= 1e-12, worst

    # the atomwise measure split is the 1x1 case of the short
    for _ in range(100):
        k = int(rng.integers(1, 9))
        space = AtomicMeasureSpace(tuple(f"a{i}" for i in range(k)))
        mu = ComplexMeasure(space, crandn(rng, k) * rng.choice([0.0, 1.0], k))
        nu = ComplexMeasure(space, rng.uniform(0.1, 2.0, k) * rng.choice([0.0, 1.0], k))
        ac = lebesgue_decompose_measure(mu, nu).absolutely_continuous.values
        short = shorted_operator(np.diag(np.abs(mu.values)), np.diag(nu.values.real))
        assert max_abs(short - np.diag(np.abs(ac))) <= 1e-12 * max(1.0, max_abs(mu.values))
