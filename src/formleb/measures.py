"""Complex measures on finite atomic spaces and their Lebesgue decomposition.

Atoms carry the full power set as sigma-algebra, so simple functions are just
complex vectors indexed by atoms and every measure is determined by its atom
values. The split relative to a non-negative reference measure is computed
both directly (atomwise restriction to the reference support) and through the
form engine; the two must agree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, InconsistentRank, NegativeReference
from .forms import NonNegativeForm, SesquilinearForm
from .lebesgue import _part_stacks, build_context
from .linalg import DEFAULT_TOL, Tolerance, require_finite


@dataclass(frozen=True)
class AtomicMeasureSpace:
    """A finite set of labelled atoms with the power set as sigma-algebra."""

    atoms: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(map(str, self.atoms)))
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


def _diagonal_form(cls, values: np.ndarray):
    """The form of class `cls` with diagonal `values`, stored as 1 x 1 blocks."""
    k = values.shape[0]
    return cls.from_blocks([np.arange(k)[:, None]], [values.reshape(k, 1, 1)], k)


def induced_form(mu: ComplexMeasure) -> SesquilinearForm:
    """The form integrating phi * conj(psi) against mu: diagonal in the indicator basis."""
    return _diagonal_form(SesquilinearForm, mu.values)


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


def _atomwise(mu: ComplexMeasure, nu: ComplexMeasure):
    """The values of mu's a.c. and singular parts and the labels of nu's
    support, after the checks of the inputs."""
    _require_same_space(mu, nu)
    _require_reference(nu)
    on_support = nu.values.real > 0.0
    ac_values = np.where(on_support, mu.values, 0.0)
    support = tuple(itertools.compress(mu.space.atoms, on_support.tolist()))
    return ac_values, mu.values - ac_values, support


def lebesgue_decompose_measure(mu: ComplexMeasure, nu: ComplexMeasure) -> MeasureSplit:
    """Unique split of mu into a nu-a.c. part and a nu-singular part.

    The a.c. part is mu restricted to the support E = {atoms with nu > 0}, the
    singular part is the restriction to the complement.
    """
    ac_values, sing_values, support = _atomwise(mu, nu)
    return MeasureSplit(
        absolutely_continuous=ComplexMeasure(mu.space, ac_values),
        singular=ComplexMeasure(mu.space, sing_values),
        support=support,
    )


def _unit_scale(mu: ComplexMeasure, nu: ComplexMeasure) -> float:
    """The power of 4 at or below the largest of max |mu| and max nu (1 for
    two zero measures). Dividing by it is exact and brings that largest
    value into [1, 4)."""
    top = max(float(np.abs(mu.values).max()), float(nu.values.real.max()))
    if top == 0.0:
        return 1.0
    _, e = math.frexp(top)  # top = f * 2**e with f in [0.5, 1)
    return math.ldexp(1.0, 2 * ((e - 1) // 2))


def decompose_via_forms(
    mu: ComplexMeasure, nu: ComplexMeasure, tol: Tolerance = DEFAULT_TOL
) -> MeasureSplit:
    """Split mu through the form engine and verify it against the direct split.

    Builds the forms induced by mu, |mu| and nu as 1 x 1 blocks, runs the
    engine of the three-part form decomposition once and reads the parts off
    its stacks: the a.c. part is the regular one, the singular part the mixed
    plus the strongly singular one. Both measures are first divided by one
    power of 4 near their largest value, which is exact, so the engine and the
    agreement check run at unit scale whatever the scale of the input; the
    parts are multiplied back.
    Disagreement with the direct atomwise split is a hard error (internal
    fault), never a valid outcome.
    """
    direct_ac, direct_sing, support = _atomwise(mu, nu)
    scale = _unit_scale(mu, nu)
    mu_unit = mu.values / scale
    form = _diagonal_form(SesquilinearForm, mu_unit)
    ref = _diagonal_form(NonNegativeForm, (nu.values.real / scale).astype(complex))
    dominating = _diagonal_form(NonNegativeForm, np.abs(mu_unit).astype(complex))
    # the forms are 1 x 1 blocks on one group: out[x, y] is a (k, 1, 1) stack
    (out,) = _part_stacks(build_context(dominating, ref, form=form, tol=tol))
    ac_values = out[0, 0].reshape(-1)
    sing_values = ((out[1, 0] + out[0, 1]) + out[1, 1]).reshape(-1)
    require_finite(ac_values, "form matrix")
    require_finite(sing_values, "form matrix")
    gap = max(
        float(np.max(np.abs(ac_values - direct_ac / scale))),
        float(np.max(np.abs(sing_values - direct_sing / scale))),
    )
    if gap > tol.cmp_abs:
        raise InconsistentRank(
            f"form-engine split disagrees with the atomwise split by {gap:.3e} "
            "at unit scale; internal fault or measure values below the rank cutoff"
        )
    return MeasureSplit(
        absolutely_continuous=ComplexMeasure(mu.space, ac_values * scale),
        singular=ComplexMeasure(mu.space, sing_values * scale),
        support=support,
    )
