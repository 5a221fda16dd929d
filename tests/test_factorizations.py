"""Factorization budget: LAPACK calls per public operation on the README example.

Each bound is the count the operation needs today; it may only go down. A
non-negative form validates its matrix at construction and factors its
eigenpairs on first use, so every test builds fresh forms outside the count:
no test inherits eigenpairs another one factored.
"""

from types import SimpleNamespace

import numpy as np
import pytest

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


def _forms():
    """The README example, the C^2 mixed-certificate example and the pinned
    classify matrix, as fresh forms."""
    space = AtomicMeasureSpace(("a", "b", "c"))
    ones = np.array([[1.0, 1.0], [1.0, 1.0]])
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
    )


BUDGET = {
    "decompose": (lambda f: decompose(f.T, f.OMEGA, f.SIGMA), 8),
    "decompose_nonneg": (lambda f: decompose_nonneg(f.SIGMA, f.OMEGA), 5),
    "is_absolutely_continuous": (
        lambda f: is_absolutely_continuous(f.SIGMA, f.OMEGA),
        6,
    ),
    "is_singular_nonneg": (lambda f: is_singular_nonneg(f.SIGMA, f.OMEGA), 6),
    "is_bounded_by": (lambda f: is_bounded_by(f.T, f.OMEGA), 2),
    "classify_range": (lambda f: classify_range(f.T), 1),
    "decompose_via_forms": (lambda f: decompose_via_forms(f.MU, f.NU), 11),
    "singularity_sufficient": (lambda f: singularity_sufficient(f.T, f.OMEGA), 6),
    "is_mixed_certificate": (
        lambda f: is_mixed_certificate(f.T2, f.OMEGA2, f.ALPHA2, f.BETA2),
        23,
    ),
    "classify_range_sector": (lambda f: classify_range(f.CLASSIFY), 5),
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
    """Induced measure forms are diagonal: on k = 64 atoms every factorization
    sees 1x1 blocks (as one stack), and the count stays within the budget."""
    rng = np.random.default_rng(64)
    k = 64
    space = AtomicMeasureSpace(tuple(f"a{i}" for i in range(k)))
    nu = rng.uniform(0.1, 1.0, k)
    nu[rng.permutation(k)[: k // 3]] = 0.0
    mu = ComplexMeasure(space, rng.standard_normal(k) + 1j * rng.standard_normal(k))
    nu = ComplexMeasure(space, nu)
    factorizations.clear()
    decompose_via_forms(mu, nu)
    assert factorizations
    assert all(max(shape[-2:]) <= 1 for shape in factorizations), factorizations
    assert len(factorizations) <= BUDGET["decompose_via_forms"][1]
