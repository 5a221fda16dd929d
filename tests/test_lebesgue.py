"""Decomposition engine: golden cases, certificates, invariant sweeps."""

import numpy as np
import pytest

from formleb import (
    NonNegativeForm,
    NotDominating,
    NotPSD,
    PreconditionViolation,
    SesquilinearForm,
    Tolerance,
    ac_extremal_check,
    build_context,
    construct_dominating,
    decompose,
    decompose_nonneg,
    is_absolutely_continuous,
    is_bounded_by,
    is_dominating,
    is_mixed_certificate,
    is_regular,
    is_singular_nonneg,
    is_strongly_singular,
    kernel_basis,
    operator_norm,
    singularity_sufficient,
)

from conftest import crandn, max_abs, pinv_sqrt, random_hermitian, random_psd

T3 = SesquilinearForm(np.diag([-1.0, 1.0, 0.0]))
SIGMA3 = NonNegativeForm(np.diag([1.0, 1.0, 0.0]))
OMEGA3 = NonNegativeForm(np.diag([0.0, 1.0, 1.0]))
U3 = NonNegativeForm(np.array([[5 / 3, -4 / 3, 0], [-4 / 3, 5 / 3, 0], [0, 0, 0]]))

# C^2 pair: indefinite diagonal against the rank-one all-ones reference
T2 = SesquilinearForm(np.diag([1.0, -1.0]))
OMEGA2 = NonNegativeForm(np.array([[1.0, 1.0], [1.0, 1.0]]))
BETA2 = NonNegativeForm(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def random_dominated_pair(rng, n):
    """A random form with a matching dominating form and reference form."""
    A = crandn(rng, n, n)
    form = SesquilinearForm(A)
    dom = construct_dominating(form)
    if rng.random() < 0.3:
        dom = NonNegativeForm(dom.matrix + random_psd(rng, n, rng.integers(1, n + 1)))
    ref = NonNegativeForm(random_psd(rng, n, rng.integers(0, n + 1)))
    return form, dom, ref


class TestBuildContext:
    def test_worked_example_projector(self):
        ctx = build_context(SIGMA3, OMEGA3)
        assert ctx.dense("ref_kernel_image").shape == (3, 1)
        assert np.allclose(np.abs(ctx.dense("ref_kernel_image")[:, 0]), [1.0, 0.0, 0.0])
        assert np.allclose(ctx.dense("ac_proj"), np.diag([0.0, 1.0, 1.0]), atol=1e-12)

    def test_u_example_skew_projector(self):
        # the oblique projector phi -> (4/5 phi2, phi2, phi3), conjugated into
        # the combined metric
        ctx = build_context(U3, OMEGA3)
        P_oblique = np.array([[0.0, 0.8, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        P, Gh = ctx.dense("ac_proj"), ctx.dense("gram_half")
        assert max_abs(P @ Gh - Gh @ P_oblique) < 1e-10

    def test_zero_reference_kills_everything(self, rng):
        sigma = NonNegativeForm(random_psd(rng, 3))
        ref = NonNegativeForm(np.zeros((3, 3)))
        ctx = build_context(sigma, ref)
        assert max_abs(ctx.dense("ac_proj")) < 1e-12
        assert ctx.dense("ref_kernel_image").shape[1] == 3

    def test_projector_identities(self, rng):
        for n in (2, 4, 6):
            sigma = NonNegativeForm(random_psd(rng, n, rng.integers(1, n + 1)))
            ref = NonNegativeForm(random_psd(rng, n, rng.integers(0, n + 1)))
            ctx = build_context(sigma, ref)
            P = ctx.dense("ac_proj")
            assert max_abs(P @ P - P) < n * 1e-9
            assert max_abs(P - P.conj().T) < n * 1e-9
            if ctx.dense("ref_kernel_image").shape[1]:
                assert max_abs(P @ ctx.dense("ref_kernel_image")) < n * 1e-9
            # P stays below the range projector of the combined metric
            gap_eigs = np.linalg.eigvalsh(ctx.dense("range_proj") - P)
            assert gap_eigs[0] > -1e-9

    def test_contraction_norm_bounded(self, rng):
        for n in (2, 3, 5):
            form, dom, ref = random_dominated_pair(rng, n)
            ctx = build_context(dom, ref, form=form)
            assert operator_norm(ctx.dense("contraction")) <= 1.0 + 1e-9

    def test_rejects_non_dominating(self):
        with pytest.raises(NotDominating):
            build_context(OMEGA3, OMEGA3, form=T3)

    def test_rejects_non_psd(self):
        good = NonNegativeForm(np.diag([-5e-10, 1.0]))
        with pytest.raises(NotPSD):
            build_context(good, NonNegativeForm(np.eye(2)), tol=Tolerance(psd_abs=1e-12))


class TestDecomposeNonneg:
    def test_golden_sigma(self):
        split = decompose_nonneg(SIGMA3, OMEGA3)
        assert max_abs(split.absolutely_continuous.matrix - np.diag([0, 1, 0])) < 1e-9
        assert max_abs(split.singular.matrix - np.diag([1, 0, 0])) < 1e-9

    def test_golden_u(self):
        split = decompose_nonneg(U3, OMEGA3)
        expected_sing = np.array([[5 / 3, -4 / 3, 0], [-4 / 3, 16 / 15, 0], [0, 0, 0]])
        assert max_abs(split.absolutely_continuous.matrix - np.diag([0, 0.6, 0])) < 1e-9
        assert max_abs(split.singular.matrix - expected_sing) < 1e-9

    def test_self_reference_is_absolutely_continuous(self, rng):
        sigma = NonNegativeForm(random_psd(rng, 4, 2))
        split = decompose_nonneg(sigma, sigma)
        assert max_abs(split.absolutely_continuous.matrix - sigma.matrix) < 1e-9
        assert max_abs(split.singular.matrix) < 1e-9

    def test_split_invariants_random(self, rng):
        for n in (1, 2, 3, 5):
            for _ in range(20):
                sigma = NonNegativeForm(random_psd(rng, n, rng.integers(0, n + 1)))
                ref = NonNegativeForm(random_psd(rng, n, rng.integers(0, n + 1)))
                split = decompose_nonneg(sigma, ref)
                ac, sing = split.absolutely_continuous, split.singular
                assert max_abs(ac.matrix + sing.matrix - sigma.matrix) < n * 1e-8
                # kernel of the reference sits inside the kernel of the a.c. part
                K = kernel_basis(ref.matrix)
                if K.shape[1]:
                    assert max_abs(ac.matrix @ K) < n * 1e-8
                # recursive classification: the parts are what they claim
                assert is_absolutely_continuous(ac, ref)
                assert is_singular_nonneg(sing, ref)
                # and they are mutually singular once the reference is added
                total = NonNegativeForm(ac.matrix + ref.matrix)
                assert is_singular_nonneg(total, sing)


class TestDecompose:
    def test_golden_triple_sigma(self):
        triple = decompose(T3, OMEGA3, SIGMA3)
        assert max_abs(triple.regular.matrix - np.diag([0, 1, 0])) < 1e-9
        assert max_abs(triple.mixed.matrix) < 1e-9
        assert max_abs(triple.strongly_singular.matrix - np.diag([-1, 0, 0])) < 1e-9

    def test_golden_triple_u(self):
        triple = decompose(T3, OMEGA3, U3)
        expected_mixed = np.array([[0, -0.8, 0], [-0.8, 1.28, 0], [0, 0, 0]])
        expected_sing = np.array([[-1, 0.8, 0], [0.8, -0.64, 0], [0, 0, 0]])
        assert max_abs(triple.regular.matrix - np.diag([0, 0.36, 0])) < 1e-9
        assert max_abs(triple.mixed.matrix - expected_mixed) < 1e-9
        assert max_abs(triple.strongly_singular.matrix - expected_sing) < 1e-9

    def test_witness_bounds(self, rng):
        for n in (2, 3, 5):
            form, dom, ref = random_dominated_pair(rng, n)
            triple = decompose(form, ref, dom)
            ac_plus_ref = NonNegativeForm(
                triple.witnesses.absolutely_continuous.matrix + ref.matrix
            )
            assert is_dominating(ac_plus_ref, triple.regular)
            assert is_dominating(triple.witnesses.singular, triple.strongly_singular)

    def test_mixed_two_sided_bound(self, rng):
        # |t_m(phi, psi)| <= a[phi]^1/2 b[psi]^1/2 + a[psi]^1/2 b[phi]^1/2
        # with a the a.c. witness plus the reference and b the singular witness
        for n in (2, 3):
            form, dom, ref = random_dominated_pair(rng, n)
            triple = decompose(form, ref, dom)
            a = triple.witnesses.absolutely_continuous.matrix + ref.matrix
            b = triple.witnesses.singular.matrix
            M = triple.mixed.matrix
            phis = crandn(rng, n, 10_000)
            psis = crandn(rng, n, 10_000)
            lhs = np.abs(np.einsum("ik,ij,jk->k", psis.conj(), M, phis))
            a_phi = np.einsum("ik,ij,jk->k", phis.conj(), a, phis).real.clip(min=0)
            a_psi = np.einsum("ik,ij,jk->k", psis.conj(), a, psis).real.clip(min=0)
            b_phi = np.einsum("ik,ij,jk->k", phis.conj(), b, phis).real.clip(min=0)
            b_psi = np.einsum("ik,ij,jk->k", psis.conj(), b, psis).real.clip(min=0)
            rhs = np.sqrt(a_phi * b_psi) + np.sqrt(a_psi * b_phi)
            assert np.all(lhs <= rhs + 1e-8)

    def test_cross_terms_sum_and_one_sided_bounds(self, rng):
        n = 3
        form, dom, ref = random_dominated_pair(rng, n)
        triple = decompose(form, ref, dom, with_cross_terms=True)
        first, second = triple.mixed_parts
        assert max_abs(first.matrix + second.matrix - triple.mixed.matrix) < 1e-10
        a = triple.witnesses.absolutely_continuous.matrix + ref.matrix
        b = triple.witnesses.singular.matrix
        for _ in range(200):
            phi, psi = crandn(rng, n), crandn(rng, n)
            a_phi = max(np.vdot(phi, a @ phi).real, 0.0)
            a_psi = max(np.vdot(psi, a @ psi).real, 0.0)
            b_phi = max(np.vdot(phi, b @ phi).real, 0.0)
            b_psi = max(np.vdot(psi, b @ psi).real, 0.0)
            assert abs(first.evaluate(phi, psi)) <= np.sqrt(a_phi * b_psi) + 1e-8
            assert abs(second.evaluate(phi, psi)) <= np.sqrt(b_phi * a_psi) + 1e-8

    def test_requires_domination(self):
        with pytest.raises(NotDominating):
            decompose(T3, OMEGA3, NonNegativeForm(np.diag([0.0, 1.0, 1.0])))

    def test_zero_dominating_forces_zero_form(self):
        zero = NonNegativeForm(np.zeros((3, 3)))
        assert not is_dominating(zero, T3)
        triple = decompose(SesquilinearForm(np.zeros((3, 3))), OMEGA3, zero)
        assert max_abs(triple.regular.matrix) < 1e-12
        assert max_abs(triple.strongly_singular.matrix) < 1e-12


class TestDecomposeInvariants:
    def test_exactness_and_adjoint_commutation(self, rng):
        for n in (2, 3, 4):
            form, dom, ref = random_dominated_pair(rng, n)
            triple = decompose(form, ref, dom)
            total = (
                triple.regular.matrix
                + triple.mixed.matrix
                + triple.strongly_singular.matrix
            )
            assert max_abs(total - form.matrix) < n * 1e-8
            adj = decompose(form.adjoint(), ref, dom)
            assert max_abs(adj.regular.matrix - triple.regular.matrix.conj().T) < 1e-8
            assert max_abs(adj.mixed.matrix - triple.mixed.matrix.conj().T) < 1e-8
            assert (
                max_abs(
                    adj.strongly_singular.matrix
                    - triple.strongly_singular.matrix.conj().T
                )
                < 1e-8
            )

    def test_real_imag_commutation(self, rng):
        for n in (2, 3):
            form, dom, ref = random_dominated_pair(rng, n)
            triple = decompose(form, ref, dom)
            re = decompose(form.real_part(), ref, dom)
            im = decompose(form.imag_part(), ref, dom)
            for part in ("regular", "mixed", "strongly_singular"):
                full = getattr(triple, part).matrix
                assert max_abs(getattr(re, part).matrix - (full + full.conj().T) / 2) < 1e-8
                assert max_abs(getattr(im, part).matrix - (full - full.conj().T) / 2j) < 1e-8

    def test_symmetry_preserved(self, rng):
        for n in (2, 4):
            H = random_hermitian(rng, n)
            form = SesquilinearForm(H)
            dom = construct_dominating(form)
            ref = NonNegativeForm(random_psd(rng, n, n - 1))
            triple = decompose(form, ref, dom)
            for part in (triple.regular, triple.mixed, triple.strongly_singular):
                assert max_abs(part.matrix - part.matrix.conj().T) < 1e-8

    def test_nonneg_inheritance_and_collapse(self, rng):
        for n in (2, 3, 5):
            P = random_psd(rng, n, rng.integers(1, n + 1))
            form = NonNegativeForm(P)
            ref = NonNegativeForm(random_psd(rng, n, rng.integers(0, n + 1)))
            triple = decompose(form, ref, form)
            assert max_abs(triple.mixed.matrix) < n * 1e-8
            split = decompose_nonneg(form, ref)
            assert max_abs(triple.regular.matrix - split.absolutely_continuous.matrix) < n * 1e-8
            assert max_abs(triple.strongly_singular.matrix - split.singular.matrix) < n * 1e-8
            # regular and strongly singular parts stay non-negative
            assert np.linalg.eigvalsh((triple.regular.matrix + triple.regular.matrix.conj().T) / 2)[0] > -1e-8
            assert np.linalg.eigvalsh(
                (triple.strongly_singular.matrix + triple.strongly_singular.matrix.conj().T) / 2
            )[0] > -1e-8

    def test_regular_part_kernel_inclusion(self, rng):
        for n in (2, 3, 4):
            form, dom, ref = random_dominated_pair(rng, n)
            triple = decompose(form, ref, dom)
            K = kernel_basis(ref.matrix)
            if K.shape[1]:
                assert max_abs(triple.regular.matrix @ K) < n * 1e-8

    def test_two_dominating_forms_give_different_splits(self):
        regular_sigma = decompose(T3, OMEGA3, SIGMA3).regular.matrix
        regular_u = decompose(T3, OMEGA3, U3).regular.matrix
        assert max_abs(regular_sigma - regular_u) > 0.1


class TestExtremality:
    def test_ac_part_itself(self):
        split = decompose_nonneg(SIGMA3, OMEGA3)
        assert ac_extremal_check(SIGMA3, OMEGA3, split.absolutely_continuous)

    def test_scaled_ac_part(self):
        split = decompose_nonneg(SIGMA3, OMEGA3)
        half = NonNegativeForm(0.5 * split.absolutely_continuous.matrix)
        assert ac_extremal_check(SIGMA3, OMEGA3, half)

    def test_precondition_not_below_sigma(self):
        too_big = NonNegativeForm(np.diag([0.0, 2.0, 0.0]))
        with pytest.raises(PreconditionViolation):
            ac_extremal_check(SIGMA3, OMEGA3, too_big)

    def test_precondition_not_absolutely_continuous(self):
        not_ac = NonNegativeForm(np.diag([1.0, 0.0, 0.0]))
        with pytest.raises(PreconditionViolation):
            ac_extremal_check(SIGMA3, OMEGA3, not_ac)

    def test_randomized_admissible_minorants(self, rng):
        hits = 0
        for _ in range(60):
            n = int(rng.integers(2, 6))
            sigma = NonNegativeForm(random_psd(rng, n))
            ref = NonNegativeForm(random_psd(rng, n, rng.integers(0, n)))
            K = kernel_basis(ref.matrix)
            proj = np.eye(n) - K @ K.conj().T if K.shape[1] else np.eye(n)
            seed = proj @ random_psd(rng, n) @ proj
            seed = (seed + seed.conj().T) / 2
            if operator_norm(seed) < 1e-10:
                continue
            # largest multiple of the seed staying below sigma (definite pencil)
            Sph = pinv_sqrt(sigma.matrix)
            lam = 1.0 / operator_norm(Sph @ seed @ Sph)
            u = NonNegativeForm(lam * seed)
            assert ac_extremal_check(sigma, ref, u)
            hits += 1
        assert hits >= 40


class TestClassifiers:
    def test_ac_examples(self):
        assert is_absolutely_continuous(NonNegativeForm(np.diag([0.0, 1.0, 0.0])), OMEGA3)
        assert not is_absolutely_continuous(NonNegativeForm(np.diag([1.0, 0.0, 0.0])), OMEGA3)
        assert is_absolutely_continuous(OMEGA3, OMEGA3)

    def test_singular_examples(self):
        assert is_singular_nonneg(NonNegativeForm(np.diag([1.0, 0.0, 0.0])), OMEGA3)
        assert not is_singular_nonneg(OMEGA3, OMEGA3)
        assert is_singular_nonneg(BETA2, OMEGA2)

    def test_regular_examples(self):
        assert is_regular(SesquilinearForm(np.diag([0.0, 1.0, 0.0])), OMEGA3)
        assert not is_regular(T3, OMEGA3)
        assert is_regular(SesquilinearForm(np.zeros((3, 3))), OMEGA3)

    def test_strongly_singular_examples(self):
        cert = NonNegativeForm(np.diag([1.0, 0.0, 0.0]))
        assert is_strongly_singular(SesquilinearForm(np.diag([-1.0, 0, 0])), OMEGA3, cert)
        ac_cert = NonNegativeForm(np.diag([0.0, 1.0, 0.0]))
        assert not is_strongly_singular(
            SesquilinearForm(np.diag([0.0, 1.0, 0.0])), OMEGA3, ac_cert
        )
        zero = NonNegativeForm(np.zeros((3, 3)))
        assert is_strongly_singular(SesquilinearForm(np.zeros((3, 3))), OMEGA3, zero)

    def test_mixed_certificate_c2(self):
        assert is_mixed_certificate(T2, OMEGA2, OMEGA2, BETA2)

    def test_mixed_certificate_rejects_nonneg_form(self):
        # a non-zero non-negative form can never be mixed
        form = SesquilinearForm(np.diag([1.0, 0.0]))
        assert not is_mixed_certificate(form, OMEGA2, OMEGA2, BETA2)

    def test_mixed_certificate_zero_form(self):
        zero = NonNegativeForm(np.zeros((2, 2)))
        assert is_mixed_certificate(SesquilinearForm(np.zeros((2, 2))), OMEGA2, zero, zero)

    def test_mixed_sampled_characterizations(self, rng):
        # the geometric-mean quadratic bound and the symmetric two-sided bound
        # both hold for the certified mixed pair on C^2
        alpha, beta = OMEGA2.matrix, BETA2.matrix
        for _ in range(500):
            phi, psi = crandn(rng, 2), crandn(rng, 2)
            a_phi = max(np.vdot(phi, alpha @ phi).real, 0.0)
            b_phi = max(np.vdot(phi, beta @ phi).real, 0.0)
            a_psi = max(np.vdot(psi, alpha @ psi).real, 0.0)
            b_psi = max(np.vdot(psi, beta @ psi).real, 0.0)
            assert abs(T2.quadratic(phi)) <= np.sqrt(a_phi * b_phi) + 1e-9
            assert abs(T2.evaluate(phi, psi)) <= (
                np.sqrt(a_phi * b_psi) + np.sqrt(a_psi * b_phi) + 1e-9
            )

    def test_singularity_sufficient_examples(self):
        # trivial kernels make the test inconclusive even for a singular form
        assert not singularity_sufficient(T2, OMEGA2)
        assert singularity_sufficient(SesquilinearForm(np.diag([-1.0, 0, 0])), OMEGA3)
        assert singularity_sufficient(SesquilinearForm(np.zeros((3, 3))), OMEGA3)

    def test_zero_reference_everything_singular(self, rng):
        zero_ref = NonNegativeForm(np.zeros((3, 3)))
        form = SesquilinearForm(crandn(rng, 3, 3))
        assert singularity_sufficient(form, zero_ref)

    def test_bounded_and_singular_forces_null(self, rng):
        for _ in range(80):
            n = int(rng.integers(1, 5))
            ref = NonNegativeForm(random_psd(rng, n, rng.integers(0, n + 1)))
            choice = rng.random()
            if choice < 0.4:
                A = np.zeros((n, n), dtype=complex)
            elif choice < 0.7:
                K = kernel_basis(ref.matrix)
                proj = np.eye(n) - K @ K.conj().T if K.shape[1] else np.eye(n)
                A = proj @ crandn(rng, n, n) @ proj
            else:
                A = crandn(rng, n, n)
            form = SesquilinearForm(A)
            bounded, _ = is_bounded_by(form, ref)
            if bounded and singularity_sufficient(form, ref):
                assert operator_norm(A) <= 1e-8
