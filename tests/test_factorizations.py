"""Factorization budget: LAPACK calls per public operation on the README example.

Each bound is the count the operation needs today; it may only go down. A
non-negative form factors its matrix once, at construction, so the forms
built here outside the counted call add nothing to the counts.
"""

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
    is_singular_nonneg,
)

T = SesquilinearForm(np.diag([-1.0, 1.0, 0.0]))
SIGMA = NonNegativeForm(np.diag([1.0, 1.0, 0.0]))
OMEGA = NonNegativeForm(np.diag([0.0, 1.0, 1.0]))
SPACE = AtomicMeasureSpace(("a", "b", "c"))
MU = ComplexMeasure(SPACE, [-1.0, 1.0, 0.0])
NU = ComplexMeasure(SPACE, [0.0, 1.0, 1.0])

BUDGET = {
    "decompose": (lambda: decompose(T, OMEGA, SIGMA), 10),
    "decompose_nonneg": (lambda: decompose_nonneg(SIGMA, OMEGA), 5),
    "is_absolutely_continuous": (lambda: is_absolutely_continuous(SIGMA, OMEGA), 9),
    "is_singular_nonneg": (lambda: is_singular_nonneg(SIGMA, OMEGA), 7),
    "is_bounded_by": (lambda: is_bounded_by(T, OMEGA), 2),
    "classify_range": (lambda: classify_range(T), 1),
    "decompose_via_forms": (lambda: decompose_via_forms(MU, NU), 12),
}


@pytest.fixture
def factorizations(monkeypatch):
    """Counts calls of numpy.linalg.eigh, eigvalsh and svd while active."""
    count = [0]
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            count[0] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return count


@pytest.mark.parametrize("operation", list(BUDGET))
def test_factorizations_within_budget(operation, factorizations):
    run, budget = BUDGET[operation]
    run()
    assert factorizations[0] <= budget
