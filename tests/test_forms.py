"""Form algebra, domination, classification."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from formleb import (
    NonNegativeForm,
    NotPSD,
    SesquilinearForm,
    Tolerance,
    classify_range,
    construct_dominating,
    is_bounded_by,
    is_dominating,
    is_psd,
    polarization_reconstruct,
    singularity_sufficient,
)
from formleb.errors import DimensionMismatch, NonFinite

from conftest import crandn, max_abs, random_hermitian, random_psd, random_unitary

T3 = np.diag([-1.0, 1.0, 0.0])
ONES2 = np.array([[1.0, 1.0], [1.0, 1.0]])
U3 = np.array([[5 / 3, -4 / 3, 0], [-4 / 3, 5 / 3, 0], [0, 0, 0]])

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def cmatrices(n):
    return st.tuples(
        arrays(np.float64, (n, n), elements=finite),
        arrays(np.float64, (n, n), elements=finite),
    ).map(lambda pair: pair[0] + 1j * pair[1])


def cvectors(n):
    return st.tuples(
        arrays(np.float64, (n,), elements=finite),
        arrays(np.float64, (n,), elements=finite),
    ).map(lambda pair: pair[0] + 1j * pair[1])


class TestEvaluate:
    def test_worked_diagonal(self):
        t = SesquilinearForm(T3)
        e1 = np.array([1.0, 0.0, 0.0])
        assert t.evaluate(e1, e1) == pytest.approx(-1.0)

    def test_zero_vector(self):
        t = SesquilinearForm(T3)
        assert t.evaluate(np.zeros(3), np.ones(3)) == 0.0

    def test_rank_one_reference_vanishes_on_difference(self):
        ref = SesquilinearForm(ONES2)
        p = np.array([1.0, -1.0])
        assert ref.quadratic(p) == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            SesquilinearForm(T3).evaluate(np.ones(2), np.ones(3))

    @settings(max_examples=60, deadline=None)
    @given(A=cmatrices(2), phi=cvectors(2), psi=cvectors(2), a=finite, b=finite)
    def test_sesquilinearity(self, A, phi, psi, a, b):
        t = SesquilinearForm(A)
        scale = 1.0 + max_abs(A) * (max_abs(phi) + max_abs(psi)) ** 2
        lhs = t.evaluate(a * phi + b * psi, psi)
        rhs = a * t.evaluate(phi, psi) + b * t.evaluate(psi, psi)
        assert abs(lhs - rhs) < 1e-9 * scale
        lhs2 = t.evaluate(phi, a * psi)
        assert abs(lhs2 - np.conj(a) * t.evaluate(phi, psi)) < 1e-9 * scale


class TestPolarization:
    def test_diagonal_off_term(self):
        t = SesquilinearForm(T3)
        value = polarization_reconstruct(t.quadratic, np.eye(3)[0], np.eye(3)[1])
        assert abs(value) < 1e-12

    def test_nilpotent_both_orders(self):
        t = SesquilinearForm(np.array([[0.0, 1.0], [0.0, 0.0]]))
        e1, e2 = np.eye(2)
        for phi, psi in ((e1, e2), (e2, e1)):
            direct = t.evaluate(phi, psi)
            assert polarization_reconstruct(t.quadratic, phi, psi) == pytest.approx(direct)

    def test_quadratic_consistency(self):
        t = SesquilinearForm(ONES2)
        phi = np.array([0.3, -0.7 + 0.2j])
        value = polarization_reconstruct(t.quadratic, phi, phi)
        assert value == pytest.approx(t.quadratic(phi))

    @settings(max_examples=60, deadline=None)
    @given(A=cmatrices(3), phi=cvectors(3), psi=cvectors(3))
    def test_matches_evaluate(self, A, phi, psi):
        t = SesquilinearForm(A)
        scale = 1.0 + max_abs(A) * (1.0 + max_abs(phi) + max_abs(psi)) ** 2
        direct = t.evaluate(phi, psi)
        reconstructed = polarization_reconstruct(t.quadratic, phi, psi)
        assert abs(direct - reconstructed) < 1e-9 * scale


class TestParts:
    def test_hermitian_fixed_point(self):
        H = np.diag([2.0, -1.0])
        t = SesquilinearForm(H)
        assert np.allclose(t.adjoint().matrix, H)
        assert max_abs(t.imag_part().matrix) == 0.0

    def test_nilpotent_parts(self):
        t = SesquilinearForm(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(t.real_part().matrix, [[0.0, 0.5], [0.5, 0.0]])
        assert np.allclose(t.imag_part().matrix, [[0.0, -0.5j], [0.5j, 0.0]])

    def test_parts_hermitian_and_reconstruct(self, rng):
        for n in (2, 3, 5):
            A = crandn(rng, n, n)
            t = SesquilinearForm(A)
            re, im = t.real_part().matrix, t.imag_part().matrix
            assert max_abs(re - re.conj().T) == 0.0
            assert max_abs(im - im.conj().T) == 0.0
            assert max_abs(re + 1j * im - A) < 1e-12 * max(1.0, max_abs(A))


class TestNonNegativeForm:
    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            NonNegativeForm(T3)

    def test_cauchy_schwarz_sampled(self, rng):
        for n in (2, 4):
            s = NonNegativeForm(random_psd(rng, n))
            for _ in range(50):
                phi, psi = crandn(rng, n), crandn(rng, n)
                lhs = abs(s.evaluate(phi, psi)) ** 2
                rhs = s.quadratic(phi).real * s.quadratic(psi).real
                assert lhs <= rhs * (1 + 1e-9) + 1e-9

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("at", [(0, 0), (1, 1), (1, 2)])
    def test_non_finite_entry_in_any_block(self, bad, at):
        # blocks {0} and {1, 2}: the entry may sit in either group
        A = np.array([[1.0, 0, 0], [0, 1.0, 0.5], [0, 0.5, 1.0]], dtype=complex)
        A[at] = bad
        with pytest.raises(NonFinite):
            NonNegativeForm(A)

    def test_takes_no_partition(self):
        # a caller's partition skipped the PSD check of the dropped entries
        with pytest.raises(TypeError):
            NonNegativeForm([[1.0, 2.0], [2.0, 1.0]], groups=[np.arange(2)[:, None]])

    def test_psd_at_matches_is_psd(self, rng):
        skew = np.array([[0.0, 5e-10], [0.0, 0.0]])  # asymmetry within the default slack
        forms = [
            NonNegativeForm(np.diag([-5e-10, 1.0])),
            NonNegativeForm(np.eye(2) + skew),
            NonNegativeForm(random_psd(rng, 4, 2)),
        ]
        tolerances = [
            Tolerance(),
            Tolerance(psd_abs=1e-12),
            Tolerance(cmp_abs=1e-10),
            Tolerance(psd_abs=1e-6, cmp_abs=1e-6),
        ]
        for form in forms:
            for tol in tolerances:
                assert form.psd_at(tol) == is_psd(form.matrix, tol)


class TestDominating:
    def test_worked_sigma(self):
        assert is_dominating(NonNegativeForm(np.diag([1.0, 1.0, 0.0])), SesquilinearForm(T3))

    def test_worked_u(self):
        assert is_dominating(NonNegativeForm(U3), SesquilinearForm(T3))

    def test_kernel_violation(self):
        # the candidate vanishes at e1 while the form does not
        assert not is_dominating(
            NonNegativeForm(np.diag([0.0, 1.0, 1.0])), SesquilinearForm(T3)
        )

    def test_rejects_non_psd_candidate(self):
        # passes the default construction slack but fails a stricter tolerance
        sigma = NonNegativeForm(np.diag([-5e-10, 1.0]))
        with pytest.raises(NotPSD):
            is_dominating(sigma, SesquilinearForm(np.eye(2)), Tolerance(psd_abs=1e-12))

    def test_norm_violation(self):
        # half of the form itself fails the norm condition
        t = SesquilinearForm(np.eye(2))
        assert not is_dominating(NonNegativeForm(0.5 * np.eye(2)), t)
        assert is_dominating(NonNegativeForm(np.eye(2)), t)


class TestConstructDominating:
    def test_hermitian_case_matches_abs(self):
        sigma = construct_dominating(SesquilinearForm(T3))
        assert np.allclose(sigma.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_zero(self):
        sigma = construct_dominating(SesquilinearForm(np.zeros((2, 2))))
        assert max_abs(sigma.matrix) == 0.0

    def test_nilpotent(self):
        t = SesquilinearForm(np.array([[0.0, 1.0], [0.0, 0.0]]))
        sigma = construct_dominating(t)
        assert np.allclose(sigma.matrix, np.eye(2), atol=1e-12)
        assert is_dominating(sigma, t)

    def test_membership_and_sampled_cauchy_schwarz(self, rng):
        # oracle: the defining inequality on 10^4 random pairs
        for n in (2, 3, 5):
            A = crandn(rng, n, n)
            t = SesquilinearForm(A)
            sigma = construct_dominating(t)
            assert is_dominating(sigma, t)
            phis = crandn(rng, n, 10_000)
            psis = crandn(rng, n, 10_000)
            lhs = np.abs(np.einsum("ik,ij,jk->k", psis.conj(), A, phis))
            s_phi = np.einsum("ik,ij,jk->k", phis.conj(), sigma.matrix, phis).real
            s_psi = np.einsum("ik,ij,jk->k", psis.conj(), sigma.matrix, psis).real
            assert np.all(lhs <= np.sqrt(s_phi * s_psi) + 1e-8)


class TestClassifyRange:
    def test_symmetric_indefinite(self):
        rc = classify_range(SesquilinearForm(T3))
        assert rc.real and not rc.nonneg and not rc.halfplane
        assert not rc.quadrant and not rc.sector and rc.sector_constant is None

    def test_psd_is_everything(self, rng):
        rc = classify_range(SesquilinearForm(random_psd(rng, 3)))
        assert rc.nonneg and rc.real and rc.quadrant and rc.halfplane
        assert rc.sector and rc.sector_constant == pytest.approx(0.0, abs=1e-8)

    def test_quadrant_without_sector(self):
        # quadratic values |x1|^2 + i |x2|^2: first quadrant, but the value i
        # at e2 defeats every sector |Im| <= c Re
        rc = classify_range(SesquilinearForm(np.diag([1.0, 1j])))
        assert rc.quadrant and rc.halfplane and not rc.real and not rc.nonneg
        assert not rc.sector and rc.sector_constant is None

    def test_halfplane_matches_is_psd_of_real_part(self):
        # hermitize(Re A) differs from Re A here in the sign of zero entries,
        # and eigvalsh of the two can differ in the last bit; the first
        # psd_abs lies between the two smallest eigenvalues OpenBLAS returns
        pairs = [
            [(0.5, 0.0), (-0.0, 0.5), (0.0, -1.0)],
            [(-0.0, 0.0), (0.0, -2.0), (0.5, 0.0)],
            [(-0.0, -0.0), (-2.0, -1.0), (1.0, 0.0)],
        ]
        form = SesquilinearForm(np.array([[complex(*p) for p in row] for row in pairs]))
        for psd_abs in (0.5525123424419744, 0.1, 0.9):
            tol = Tolerance(psd_abs=psd_abs)
            halfplane = is_psd(form.real_part().matrix, tol)
            assert classify_range(form, tol).halfplane == halfplane

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_sector_constant_is_generalized_spectral_radius(self, rng, scale):
        # oracle: rho(Re^-1/2 Im Re^-1/2), the largest |lambda| of the
        # generalized problem Im x = lambda Re x, solved by scipy
        for n in range(1, 6):
            for _ in range(10):
                re = random_psd(rng, n) + 0.1 * np.eye(n)
                Q, _ = np.linalg.qr(crandn(rng, n, n))
                d = rng.uniform(0.2, 1.0, n) * rng.choice([-1.0, 1.0], n)
                im = (Q * d) @ Q.conj().T
                im = (im + im.conj().T) / 2
                oracle = float(np.max(np.abs(sla.eigh(im, re, eigvals_only=True))))
                rc = classify_range(SesquilinearForm(scale * (re + 1j * im)))
                assert rc.sector
                assert rc.sector_constant == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("re, im", [(1.0, 0.5), (2.0, 0.5)])
    def test_sector_constant_with_singular_real_part(self, re, im):
        # Re = diag(re, 0), Im = diag(im, 0): Im vanishes on ker(Re), and the
        # sector is |Im| <= (im / re) Re
        rc = classify_range(SesquilinearForm(np.diag([re + 1j * im, 0.0])))
        assert rc.sector and rc.sector_constant == pytest.approx(im / re, rel=1e-12)

    def test_smallest_sector_constant_diagonal(self):
        # values |x1|^2 (1 + i b): the sector needs exactly c = b
        b = 0.7
        rc = classify_range(SesquilinearForm(np.array([[1.0 + b * 1j]])))
        assert rc.sector and rc.sector_constant == pytest.approx(b, abs=1e-7)
        assert rc.halfplane and not rc.real

    def test_flag_implications_random(self, rng):
        # containments nest: nonneg within everything, quadrant and sector
        # within the half-plane
        draws = []
        for n in (1, 2, 3):
            draws.append(crandn(rng, n, n))
            draws.append(random_hermitian(rng, n))
            draws.append(random_psd(rng, n))
            draws.append(random_psd(rng, n) + 1j * random_psd(rng, n))
        for A in draws:
            rc = classify_range(SesquilinearForm(A))
            if rc.nonneg:
                assert rc.real and rc.quadrant and rc.halfplane
                assert rc.sector and rc.sector_constant <= 1e-8
            if rc.quadrant or rc.sector:
                assert rc.halfplane
            if rc.sector:
                assert rc.sector_constant is not None and rc.sector_constant >= 0.0
            else:
                assert rc.sector_constant is None

    def test_sector_instances_random(self, rng):
        # Im part built inside the real part's range with known aperture
        for n in (2, 4):
            R = random_psd(rng, n)
            Rh = np.linalg.cholesky(R + 1e-12 * np.eye(n))
            H = random_hermitian(rng, n)
            H /= max(1.0, np.abs(np.linalg.eigvalsh(H)).max())
            aperture = 0.5
            A = R + 1j * aperture * Rh @ H @ Rh.conj().T
            rc = classify_range(SesquilinearForm(A))
            assert rc.sector
            assert rc.sector_constant <= aperture + 1e-7

    @staticmethod
    def flags(rc):
        return rc.nonneg, rc.real, rc.quadrant, rc.halfplane, rc.sector

    def test_unitary_congruence(self, rng):
        # A = Re + i Im with Re = diag(lam), lam in [0.5, 2] or 0 (rank >= 1),
        # and Im either zero on ker(Re) (a finite sector) or generic; the
        # quadratic values of U* A U are those of A, so every answer is too
        sectors = 0
        for _ in range(600):
            n = int(rng.integers(1, 7))
            rank = int(rng.integers(1, n + 1))
            lam = rng.permutation(np.r_[rng.uniform(0.5, 2.0, rank), np.zeros(n - rank)])
            im = random_hermitian(rng, n)
            if rng.random() < 0.5:
                im *= np.outer(lam > 0, lam > 0)
            A = np.diag(lam) + 1j * im
            U = random_unitary(rng, n)
            rc = classify_range(SesquilinearForm(A))
            rcU = classify_range(SesquilinearForm(U.conj().T @ A @ U))
            assert self.flags(rcU) == self.flags(rc)
            if rc.sector:
                sectors += 1
                assert rcU.sector_constant == pytest.approx(rc.sector_constant, rel=1e-12)
        assert sectors >= 300

    def test_unitary_congruence_zero_real_part(self, rng):
        # Re(U* A U) has all eigenvalues positive in about one draw in ten
        for n in (1, 2) * 50:
            A = 1j * random_hermitian(rng, n)
            U = random_unitary(rng, n)
            rc = classify_range(SesquilinearForm(A))
            rcU = classify_range(SesquilinearForm(U.conj().T @ A @ U))
            assert self.flags(rcU) == self.flags(rc)


class TestBoundedBy:
    def test_regular_part_of_worked_example(self):
        flag, constant = is_bounded_by(
            SesquilinearForm(np.diag([0.0, 1.0, 0.0])),
            NonNegativeForm(np.diag([0.0, 1.0, 1.0])),
        )
        assert flag and constant == pytest.approx(1.0)

    def test_kernel_obstruction(self):
        flag, constant = is_bounded_by(
            SesquilinearForm(T3), NonNegativeForm(np.diag([0.0, 1.0, 1.0]))
        )
        assert not flag and constant is None

    def test_self_bound(self, rng):
        W = random_psd(rng, 3, 2)
        ref = NonNegativeForm(W)
        flag, constant = is_bounded_by(ref, ref)
        assert flag and constant == pytest.approx(1.0)

    def test_reference_eigenpairs_factored_once(self, rng, monkeypatch):
        ref = NonNegativeForm(random_psd(rng, 3, 2))
        calls = []
        eigh = np.linalg.eigh

        def counted(H, *args, **kwargs):
            calls.append(H)
            return eigh(H, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        for _ in range(2):
            is_bounded_by(SesquilinearForm(crandn(rng, 3, 3)), ref)
        singularity_sufficient(SesquilinearForm(crandn(rng, 3, 3)), ref)
        assert len(calls) == 1
        lam, V = ref.eigenpairs
        assert not lam.flags.writeable and not V.flags.writeable


class TestDominationAlgebra:
    def test_adjoint_has_same_dominators(self, rng):
        for n in (2, 3, 4):
            t = SesquilinearForm(crandn(rng, n, n))
            candidates = [construct_dominating(t), NonNegativeForm(random_psd(rng, n))]
            for sigma in candidates:
                assert is_dominating(sigma, t) == is_dominating(sigma, t.adjoint())

    def test_real_imag_dominators_add(self, rng):
        for n in (2, 3):
            t = SesquilinearForm(crandn(rng, n, n))
            s1 = construct_dominating(t.real_part())
            s2 = construct_dominating(t.imag_part())
            total = NonNegativeForm(s1.matrix + s2.matrix)
            assert is_dominating(total, t)

    def test_quadrant_membership_bound(self, rng):
        # Re and Im both PSD: twice their sum dominates
        for n in (2, 3):
            A = random_psd(rng, n, n - 1) + 1j * random_psd(rng, n)
            t = SesquilinearForm(A)
            assert classify_range(t).quadrant
            bound = NonNegativeForm(2.0 * (t.real_part().matrix + t.imag_part().matrix))
            assert is_dominating(bound, t)

    def test_sector_membership_bound(self, rng):
        for n in (2, 3):
            R = random_psd(rng, n)
            Rh = np.linalg.cholesky(R + 1e-12 * np.eye(n))
            H = random_hermitian(rng, n)
            H /= max(1.0, np.abs(np.linalg.eigvalsh(H)).max())
            A = R + 1j * 0.8 * Rh @ H @ Rh.conj().T
            t = SesquilinearForm(A)
            rc = classify_range(t)
            assert rc.sector
            bound = NonNegativeForm((1.0 + rc.sector_constant) * t.real_part().matrix)
            assert is_dominating(bound, t)
