"""Core linear algebra: spectral ops, kernels, rank policy."""

import numpy as np
import pytest

from formleb import (
    NotPSD,
    Tolerance,
    is_psd,
    kernel_basis,
    operator_norm,
    pinv_sqrt,
    psd_sqrt,
)

from conftest import crandn, max_abs, random_psd


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rank_rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(psd_abs=1.5)
    Tolerance()  # defaults are legal


def test_non_finite_entries_rejected():
    with pytest.raises(ValueError):
        operator_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        is_psd(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]))

    def test_square_back(self):
        H = np.diag([1.0, 2.0, 1.0])
        R = psd_sqrt(H)
        assert max_abs(R @ R - H) < 3e-9
        assert np.allclose(R, np.diag([1.0, np.sqrt(2.0), 1.0]))

    def test_square_back_random(self, rng):
        for n in (2, 4, 6):
            for rank in (1, n // 2 or 1, n):
                H = random_psd(rng, n, rank)
                R = psd_sqrt(H)
                assert is_psd(R)
                assert max_abs(R @ R - H) < n * 1e-9

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([-1.0, 1.0, 0.0]))

    def test_clamps_slack_negatives(self):
        H = np.diag([-1e-10, 1.0])
        R = psd_sqrt(H)
        assert R[0, 0] == 0.0


class TestPinvSqrt:
    def test_diagonal(self):
        assert np.allclose(pinv_sqrt(np.diag([4.0, 0.0])), np.diag([0.5, 0.0]))

    def test_identity(self):
        assert np.allclose(pinv_sqrt(np.eye(2)), np.eye(2))

    def test_projector_of_known_rank(self, rng):
        for n, rank in ((3, 1), (4, 2), (6, 4), (5, 5)):
            H = random_psd(rng, n, rank)
            R = pinv_sqrt(H)
            proj = R @ H @ R
            # idempotent Hermitian with trace = rank
            assert max_abs(proj @ proj - proj) < n * 1e-9
            assert max_abs(proj - proj.conj().T) < n * 1e-9
            assert abs(np.trace(proj).real - rank) < 1e-8


class TestKernelBasis:
    def test_diagonal(self):
        K = kernel_basis(np.diag([0.0, 1.0, 1.0]))
        assert K.shape == (3, 1)
        assert np.allclose(np.abs(K[:, 0]), [1.0, 0.0, 0.0])

    def test_injective(self):
        assert kernel_basis(np.eye(3)).shape == (3, 0)

    def test_rank_one_all_ones(self):
        # the 2x2 all-ones matrix annihilates exactly the difference direction
        K = kernel_basis(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert K.shape == (2, 1)
        p = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(abs(np.vdot(p, K[:, 0])) - 1.0) < 1e-12

    def test_spans_null_space_of_known_factors(self, rng):
        for n, rank in ((4, 2), (5, 3), (6, 1)):
            B = crandn(rng, n, rank)
            C = crandn(rng, rank, n)
            A = B @ C  # rank <= rank, generically equal
            K = kernel_basis(A)
            assert K.shape == (n, n - rank)
            assert max_abs(A @ K) < n * 1e-10 * max(1.0, operator_norm(A))
            assert max_abs(K.conj().T @ K - np.eye(n - rank)) < 1e-10


class TestIsPsd:
    def test_diagonal_true(self):
        assert is_psd(np.diag([1.0, 0.0]))

    def test_indefinite_false(self):
        assert not is_psd(np.diag([-1.0, 1.0, 0.0]))

    def test_offdiagonal_false(self):
        # eigenvalues are +1 and -1
        assert not is_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_non_hermitian_false(self):
        assert not is_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(4)) == pytest.approx(1.0)

    def test_contraction_of_first_worked_example(self):
        assert operator_norm(np.diag([-1.0, 0.5, 0.0])) == pytest.approx(1.0)

    def test_zero(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0
