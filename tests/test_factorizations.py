"""Factorization budget: LAPACK calls per public operation on the README example.

Each bound is the count the operation needs today; it may only go down. A
non-negative form validates its matrix at construction and factors its
eigenpairs on first use, so every test builds fresh forms outside the count:
no test inherits eigenpairs another one factored.

The README matrices are diagonal, so the engine sees only 1x1 blocks there
and answers them without LAPACK; the `dense_*` rows pin the same entry points
on a dense 3x3 instance that is one component.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from conftest import crandn

from formleb import (
    AtomicMeasureSpace,
    ComplexMeasure,
    NonNegativeForm,
    SesquilinearForm,
    classify_range,
    decompose,
    decompose_nonneg,
    decompose_via_forms,
    is_absolutely_continuous,
    is_bounded_by,
    is_mixed_certificate,
    is_singular_nonneg,
    singularity_sufficient,
)


def _dense_instance():
    """A dense 3x3 (t, sigma, omega): sigma dominates t, omega has rank 2,
    and no entry is zero, so each matrix is one component."""
    rng = np.random.default_rng(33)
    B, X, C = crandn(rng, 3, 2), crandn(rng, 2, 2), crandn(rng, 3, 2)
    X *= 0.9 / np.linalg.norm(X, 2)
    return B @ X @ B.conj().T, B @ B.conj().T, C @ C.conj().T


def _forms():
    """The README example, the C^2 mixed-certificate example, the pinned
    classify matrix and the dense instance, as fresh forms."""
    space = AtomicMeasureSpace(("a", "b", "c"))
    ones = np.array([[1.0, 1.0], [1.0, 1.0]])
    T_DENSE, SIGMA_DENSE, OMEGA_DENSE = _dense_instance()
    return SimpleNamespace(
        T=SesquilinearForm(np.diag([-1.0, 1.0, 0.0])),
        SIGMA=NonNegativeForm(np.diag([1.0, 1.0, 0.0])),
        OMEGA=NonNegativeForm(np.diag([0.0, 1.0, 1.0])),
        MU=ComplexMeasure(space, [-1.0, 1.0, 0.0]),
        NU=ComplexMeasure(space, [0.0, 1.0, 1.0]),
        T2=SesquilinearForm(np.diag([1.0, -1.0])),
        OMEGA2=NonNegativeForm(ones),
        ALPHA2=NonNegativeForm(ones),
        BETA2=NonNegativeForm(np.array([[1.0, -1.0], [-1.0, 1.0]])),
        CLASSIFY=SesquilinearForm(
            np.diag([2.0, 1.0]) + 1j * np.array([[0.5, 0.2], [0.2, -0.3]])
        ),
        T_DENSE=SesquilinearForm(T_DENSE),
        SIGMA_DENSE=NonNegativeForm(SIGMA_DENSE),
        OMEGA_DENSE=NonNegativeForm(OMEGA_DENSE),
    )


BUDGET = {
    "decompose": (lambda f: decompose(f.T, f.OMEGA, f.SIGMA), 0),
    "decompose_nonneg": (lambda f: decompose_nonneg(f.SIGMA, f.OMEGA), 0),
    "is_absolutely_continuous": (
        lambda f: is_absolutely_continuous(f.SIGMA, f.OMEGA),
        0,
    ),
    "is_singular_nonneg": (lambda f: is_singular_nonneg(f.SIGMA, f.OMEGA), 0),
    "is_bounded_by": (lambda f: is_bounded_by(f.T, f.OMEGA), 0),
    "classify_range": (lambda f: classify_range(f.T), 1),
    "decompose_via_forms": (lambda f: decompose_via_forms(f.MU, f.NU), 0),
    "singularity_sufficient": (lambda f: singularity_sufficient(f.T, f.OMEGA), 3),
    "is_mixed_certificate": (
        lambda f: is_mixed_certificate(f.T2, f.OMEGA2, f.ALPHA2, f.BETA2),
        16,
    ),
    "classify_range_sector": (lambda f: classify_range(f.CLASSIFY), 3),
    "dense_decompose": (lambda f: decompose(f.T_DENSE, f.OMEGA_DENSE, f.SIGMA_DENSE), 8),
    "dense_decompose_nonneg": (lambda f: decompose_nonneg(f.SIGMA_DENSE, f.OMEGA_DENSE), 5),
    "dense_is_absolutely_continuous": (
        lambda f: is_absolutely_continuous(f.SIGMA_DENSE, f.OMEGA_DENSE),
        5,
    ),
    "dense_is_singular_nonneg": (
        lambda f: is_singular_nonneg(f.SIGMA_DENSE, f.OMEGA_DENSE),
        5,
    ),
    "dense_is_bounded_by": (lambda f: is_bounded_by(f.T_DENSE, f.OMEGA_DENSE), 2),
    "dense_singularity_sufficient": (
        lambda f: singularity_sufficient(f.T_DENSE, f.OMEGA_DENSE),
        4,
    ),
}


@pytest.fixture
def factorizations(monkeypatch):
    """Records the matrix (or stack) shape of every call of numpy.linalg.eigh,
    eigvalsh and svd while active."""
    shapes = []
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            shapes.append(np.shape(args[0]))
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return shapes


@pytest.mark.parametrize("operation", list(BUDGET))
def test_factorizations_within_budget(operation, factorizations):
    run, budget = BUDGET[operation]
    forms = _forms()
    factorizations.clear()
    run(forms)
    assert len(factorizations) <= budget


def test_measure_path_factors_atoms_only(factorizations):
    """Induced measure forms are diagonal, stored as 1x1 blocks, and a 1x1
    block needs no LAPACK: on k = 64 atoms nothing is factored at all."""
    rng = np.random.default_rng(64)
    k = 64
    space = AtomicMeasureSpace(tuple(f"a{i}" for i in range(k)))
    nu = rng.uniform(0.1, 1.0, k)
    nu[rng.permutation(k)[: k // 3]] = 0.0
    mu = ComplexMeasure(space, rng.standard_normal(k) + 1j * rng.standard_normal(k))
    nu = ComplexMeasure(space, nu)
    factorizations.clear()
    decompose_via_forms(mu, nu)
    assert not factorizations, factorizations
