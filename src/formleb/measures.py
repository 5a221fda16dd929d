"""Complex measures on finite atomic spaces and their Lebesgue decomposition.

Atoms carry the full power set as sigma-algebra, so simple functions are just
complex vectors indexed by atoms and every measure is determined by its atom
values. The split relative to a non-negative reference measure is computed
both directly (atomwise restriction to the reference support) and through the
form engine; the two must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, InconsistentRank, NegativeReference
from .forms import NonNegativeForm, SesquilinearForm
from .lebesgue import decompose
from .linalg import DEFAULT_TOL, Tolerance


@dataclass(frozen=True)
class AtomicMeasureSpace:
    """A finite set of labelled atoms with the power set as sigma-algebra."""

    atoms: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(str(a) for a in self.atoms))
        if len(self.atoms) < 1:
            raise ValueError("an atomic measure space needs at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atom labels must be unique")

    @property
    def k(self) -> int:
        return len(self.atoms)

    def index(self, label: str) -> int:
        try:
            return self.atoms.index(label)
        except ValueError:
            raise KeyError(f"unknown atom {label!r}") from None


@dataclass(frozen=True)
class ComplexMeasure:
    """Complex values on the atoms; finitely additive by construction."""

    space: AtomicMeasureSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex).reshape(-1)
        if v.shape != (self.space.k,):
            raise DimensionMismatch(
                f"measure needs {self.space.k} atom values, got {v.shape[0]}"
            )
        if not np.isfinite(v).all():
            raise ValueError("measure values must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def measure_of(self, subset: Iterable[str]) -> complex:
        """mu(A) for a subset A given by atom labels."""
        idx = [self.space.index(a) for a in set(subset)]
        return complex(self.values[idx].sum()) if idx else 0j

    def is_nonneg(self) -> bool:
        return bool(np.all(self.values.imag == 0.0) and np.all(self.values.real >= 0.0))


@dataclass(frozen=True)
class MeasureSplit:
    """Atomwise split mu = absolutely_continuous + singular, with the
    reference-support set realizing the singularity."""

    absolutely_continuous: ComplexMeasure
    singular: ComplexMeasure
    support: tuple[str, ...]


def _require_reference(nu: ComplexMeasure) -> None:
    if not nu.is_nonneg():
        raise NegativeReference("reference measure must be non-negative on every atom")


def _require_same_space(mu: ComplexMeasure, nu: ComplexMeasure) -> None:
    if mu.space != nu.space:
        raise DimensionMismatch("measures live on different atomic spaces")


def total_variation(mu: ComplexMeasure) -> ComplexMeasure:
    """The non-negative measure |mu|: atomwise modulus.

    On an atomic space the supremum over partitions is attained at the atomic
    partition, so no optimization is needed.
    """
    return ComplexMeasure(mu.space, np.abs(mu.values).astype(complex))


def induced_form(mu: ComplexMeasure) -> SesquilinearForm:
    """The form integrating phi * conj(psi) against mu: diagonal in the indicator basis."""
    return SesquilinearForm(np.diag(mu.values))


def is_ac_measure(mu: ComplexMeasure, nu: ComplexMeasure) -> bool:
    """Whether every reference-null atom carries no mu mass."""
    _require_same_space(mu, nu)
    _require_reference(nu)
    null = nu.values.real == 0.0
    return bool(np.all(mu.values[null] == 0.0))


def is_singular_measure(mu: ComplexMeasure, nu: ComplexMeasure) -> bool:
    """Whether mu lives entirely on reference-null atoms."""
    _require_same_space(mu, nu)
    _require_reference(nu)
    positive = nu.values.real > 0.0
    return bool(np.all(mu.values[positive] == 0.0))


def lebesgue_decompose_measure(mu: ComplexMeasure, nu: ComplexMeasure) -> MeasureSplit:
    """Unique split of mu into a nu-a.c. part and a nu-singular part.

    The a.c. part is mu restricted to the support E = {atoms with nu > 0}, the
    singular part is the restriction to the complement.
    """
    _require_same_space(mu, nu)
    _require_reference(nu)
    on_support = nu.values.real > 0.0
    ac_values = np.where(on_support, mu.values, 0.0)
    sing_values = mu.values - ac_values
    support = tuple(a for a, keep in zip(mu.space.atoms, on_support) if keep)
    return MeasureSplit(
        absolutely_continuous=ComplexMeasure(mu.space, ac_values),
        singular=ComplexMeasure(mu.space, sing_values),
        support=support,
    )


def decompose_via_forms(
    mu: ComplexMeasure, nu: ComplexMeasure, tol: Tolerance = DEFAULT_TOL
) -> MeasureSplit:
    """Split mu through the form engine and verify it against the direct split.

    Builds the forms induced by mu, |mu| and nu, runs the three-part form
    decomposition, and reads the parts back off indicator quadratic values.
    Disagreement with the direct atomwise split is a hard error (internal
    fault), never a valid outcome.
    """
    _require_same_space(mu, nu)
    _require_reference(nu)
    form = induced_form(mu)
    atoms = [np.arange(mu.space.k)[:, None]]  # every atom its own block
    dominating = NonNegativeForm(np.diag(np.abs(mu.values)).astype(complex), groups=atoms)
    ref = NonNegativeForm(np.diag(nu.values.real).astype(complex), groups=atoms)
    triple = decompose(form, ref, dominating, tol)
    ac_values = np.diag(triple.regular.matrix).copy()
    sing_values = np.diag(
        triple.mixed.matrix + triple.strongly_singular.matrix
    ).copy()
    direct = lebesgue_decompose_measure(mu, nu)
    gap = max(
        float(np.max(np.abs(ac_values - direct.absolutely_continuous.values))),
        float(np.max(np.abs(sing_values - direct.singular.values))),
    )
    if gap > tol.cmp_abs:
        raise InconsistentRank(
            f"form-engine split disagrees with the atomwise split by {gap:.3e}; "
            "internal fault or measure values below the rank cutoff"
        )
    return MeasureSplit(
        absolutely_continuous=ComplexMeasure(mu.space, ac_values),
        singular=ComplexMeasure(mu.space, sing_values),
        support=direct.support,
    )
