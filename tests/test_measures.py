"""Measures on finite atomic spaces and the bridge to the form engine."""

import itertools
import tracemalloc

import numpy as np
import pytest

from formleb import (
    AtomicMeasureSpace,
    ComplexMeasure,
    InconsistentRank,
    NegativeReference,
    NonNegativeForm,
    SesquilinearForm,
    Tolerance,
    decompose,
    decompose_via_forms,
    induced_form,
    is_ac_measure,
    is_psd,
    is_regular,
    is_singular_measure,
    is_singular_nonneg,
    is_strongly_singular,
    lebesgue_decompose_measure,
    total_variation,
)
from formleb import lebesgue

from conftest import max_abs

ABC = AtomicMeasureSpace(("a", "b", "c"))


def measure(values, space=ABC):
    return ComplexMeasure(space, np.asarray(values, dtype=complex))


def random_measure_pair(rng, k):
    """Random complex mu and non-negative nu with exact zeros at random atoms."""
    space = AtomicMeasureSpace(tuple(f"atom{i}" for i in range(k)))
    mu_vals = (rng.uniform(0.1, 2.0, k) + 1j * rng.uniform(-1.0, 1.0, k)) * rng.choice(
        [0.0, 1.0], k, p=[0.3, 0.7]
    )
    nu_vals = rng.uniform(0.1, 2.0, k) * rng.choice([0.0, 1.0], k, p=[0.4, 0.6])
    return ComplexMeasure(space, mu_vals), ComplexMeasure(space, nu_vals.astype(complex))


class TestSpaces:
    def test_labels_unique(self):
        with pytest.raises(ValueError):
            AtomicMeasureSpace(("a", "a"))

    def test_needs_an_atom(self):
        with pytest.raises(ValueError):
            AtomicMeasureSpace(())

    def test_set_function_additive(self):
        mu = measure([1.0 + 1j, -2.0, 0.5])
        assert mu.measure_of(["a", "b"]) == pytest.approx((1 + 1j) + (-2))
        assert mu.measure_of([]) == 0


class TestTotalVariation:
    def test_moduli(self):
        tv = total_variation(measure([3 + 4j, -2.0, 0.0]))
        assert np.allclose(tv.values, [5.0, 2.0, 0.0])

    def test_nonneg_fixed_point(self):
        mu = measure([1.0, 0.5, 0.0])
        assert np.allclose(total_variation(mu).values, mu.values)

    def test_zero(self):
        assert max_abs(total_variation(measure([0, 0, 0])).values) == 0.0

    def test_partition_oracle_small_spaces(self, rng):
        # the supremum over partitions of every subset equals the atomwise sum
        for k in (2, 3, 4):
            space = AtomicMeasureSpace(tuple("wxyz"[:k]))
            mu = ComplexMeasure(space, rng.normal(size=k) + 1j * rng.normal(size=k))
            tv = total_variation(mu)
            atoms = list(space.atoms)
            for r in range(1, k + 1):
                for subset in itertools.combinations(atoms, r):
                    best = 0.0
                    for labels in _partitions(list(subset)):
                        best = max(
                            best, sum(abs(mu.measure_of(block)) for block in labels)
                        )
                    assert best == pytest.approx(
                        sum(abs(mu.values[space.index(a)]) for a in subset), abs=1e-12
                    )
                    assert best <= tv.measure_of(subset).real + 1e-12

    def test_bounds_mu_exhaustively(self, rng):
        for k in (2, 3, 5):
            space = AtomicMeasureSpace(tuple(f"x{i}" for i in range(k)))
            mu = ComplexMeasure(space, rng.normal(size=k) + 1j * rng.normal(size=k))
            tv = total_variation(mu)
            for r in range(k + 1):
                for subset in itertools.combinations(space.atoms, r):
                    assert abs(mu.measure_of(subset)) <= tv.measure_of(subset).real + 1e-12


def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in _partitions(rest):
        yield [[first]] + partial
        for i in range(len(partial)):
            yield partial[:i] + [[first] + partial[i]] + partial[i + 1 :]


class TestInducedForm:
    def test_indicator_integrals(self):
        form = induced_form(measure([1.0, 1.0, 0.0]))
        assert np.allclose(form.matrix, np.diag([1.0, 1.0, 0.0]))

    def test_signed_measure_gives_symmetric_indefinite(self):
        form = induced_form(measure([-1.0, 1.0, 0.0]))
        assert np.allclose(form.matrix, np.diag([-1.0, 1.0, 0.0]))

    def test_nonneg_measure_gives_psd(self):
        assert is_psd(induced_form(measure([0.5, 2.0, 0.0])).matrix)


class TestPredicates:
    def test_ac(self):
        nu = measure([0.0, 1.0, 2.0])
        assert is_ac_measure(measure([0.0, 2.0, 5j]), nu)
        assert not is_ac_measure(measure([1.0, 0.0, 0.0]), nu)
        assert is_ac_measure(nu, nu)

    def test_singular(self):
        nu = measure([0.0, 1.0, 2.0])
        assert is_singular_measure(measure([7 - 1j, 0.0, 0.0]), nu)
        assert not is_singular_measure(nu, nu)
        assert is_singular_measure(measure([0.0, 0.0, 0.0]), nu)

    def test_rejects_bad_reference(self):
        with pytest.raises(NegativeReference):
            is_ac_measure(measure([1, 1, 1]), measure([0.0, -1.0, 2.0]))
        with pytest.raises(NegativeReference):
            is_singular_measure(measure([1, 1, 1]), measure([0.0, 1j, 2.0]))


class TestDecomposeMeasure:
    def test_worked_split(self):
        split = lebesgue_decompose_measure(measure([3 + 1j, 2.0, 0.0]), measure([0.0, 1.0, 2.0]))
        assert np.allclose(split.absolutely_continuous.values, [0.0, 2.0, 0.0])
        assert np.allclose(split.singular.values, [3 + 1j, 0.0, 0.0])
        assert split.support == ("b", "c")

    def test_strictly_positive_reference(self):
        mu = measure([1.0, 2j, -3.0])
        split = lebesgue_decompose_measure(mu, measure([1.0, 1.0, 1.0]))
        assert np.allclose(split.absolutely_continuous.values, mu.values)
        assert max_abs(split.singular.values) == 0.0

    def test_zero_reference(self):
        mu = measure([1.0, 2j, -3.0])
        split = lebesgue_decompose_measure(mu, measure([0.0, 0.0, 0.0]))
        assert max_abs(split.absolutely_continuous.values) == 0.0
        assert np.allclose(split.singular.values, mu.values)
        assert split.support == ()

    def test_parts_satisfy_predicates(self, rng):
        for k in (1, 3, 6):
            mu, nu = random_measure_pair(rng, k)
            split = lebesgue_decompose_measure(mu, nu)
            assert is_ac_measure(split.absolutely_continuous, nu)
            assert is_singular_measure(split.singular, nu)
            assert np.allclose(
                split.absolutely_continuous.values + split.singular.values, mu.values
            )

    def test_uniqueness_by_perturbation(self, rng):
        # moving mass between the parts breaks exactly one defining predicate
        mu, nu = random_measure_pair(rng, 5)
        split = lebesgue_decompose_measure(mu, nu)
        eps = 1e-3
        for i in range(5):
            bump = np.zeros(5, dtype=complex)
            bump[i] = eps
            moved_ac = ComplexMeasure(mu.space, split.absolutely_continuous.values + bump)
            moved_sing = ComplexMeasure(mu.space, split.singular.values - bump)
            if nu.values[i].real > 0:
                assert not is_singular_measure(moved_sing, nu)
            else:
                assert not is_ac_measure(moved_ac, nu)


class TestFormBridge:
    def test_worked_example(self):
        # diagonal forms of the 3x3 worked example, read as induced measures
        mu = measure([-1.0, 1.0, 0.0])
        nu = measure([0.0, 1.0, 1.0])
        split = decompose_via_forms(mu, nu)
        assert max_abs(split.absolutely_continuous.values - np.array([0, 1, 0])) < 1e-9
        assert max_abs(split.singular.values - np.array([-1, 0, 0])) < 1e-9

    def test_zero_measure(self):
        split = decompose_via_forms(measure([0, 0, 0]), measure([0.0, 1.0, 2.0]))
        assert max_abs(split.absolutely_continuous.values) < 1e-12
        assert max_abs(split.singular.values) < 1e-12

    def test_matches_direct_on_random_instances(self, rng):
        for _ in range(60):
            k = int(rng.integers(1, 7))
            mu, nu = random_measure_pair(rng, k)
            via_forms = decompose_via_forms(mu, nu)
            direct = lebesgue_decompose_measure(mu, nu)
            assert (
                max_abs(
                    via_forms.absolutely_continuous.values
                    - direct.absolutely_continuous.values
                )
                < 1e-9
            )
            assert max_abs(via_forms.singular.values - direct.singular.values) < 1e-9
            assert via_forms.support == direct.support

    def test_regularity_matches_measure_ac(self, rng):
        for _ in range(40):
            k = int(rng.integers(1, 7))
            mu, nu = random_measure_pair(rng, k)
            form = induced_form(mu)
            ref = NonNegativeForm(induced_form(nu).matrix)
            assert is_regular(form, ref) == is_ac_measure(mu, nu)

    def test_singular_measure_gives_strong_singularity(self, rng):
        for _ in range(40):
            k = int(rng.integers(1, 7))
            mu, nu = random_measure_pair(rng, k)
            form = induced_form(mu)
            ref = NonNegativeForm(induced_form(nu).matrix)
            cert = NonNegativeForm(induced_form(total_variation(mu)).matrix)
            if is_singular_measure(mu, nu):
                assert is_strongly_singular(form, ref, cert)
            if is_singular_nonneg(cert, ref):
                assert is_singular_measure(mu, nu)


class TestUnitScale:
    """decompose_via_forms divides both measures by one power of 4 near their
    largest value, so the engine and its agreement check run at unit scale
    and the parts scale with the input."""

    def test_powers_of_four_scale_the_parts_exactly(self, rng):
        for _ in range(5):
            mu, nu = random_measure_pair(rng, 8)
            unit = decompose_via_forms(mu, nu)
            for j in range(-20, 21):
                c = 4.0**j
                split = decompose_via_forms(
                    ComplexMeasure(mu.space, mu.values * c), ComplexMeasure(nu.space, nu.values * c)
                )
                for part in ("absolutely_continuous", "singular"):
                    got = getattr(split, part).values
                    assert np.array_equal(got, getattr(unit, part).values * c), (j, part)
                assert split.support == unit.support

    @pytest.mark.parametrize("scale", [1e-8, 1e8])
    def test_random_measures_at_large_and_small_scale(self, rng, scale):
        for _ in range(100):
            mu, nu = random_measure_pair(rng, 8)
            mu = ComplexMeasure(mu.space, mu.values * scale)
            nu = ComplexMeasure(nu.space, nu.values * scale)
            via_forms = decompose_via_forms(mu, nu)
            direct = lebesgue_decompose_measure(mu, nu)
            for part in ("absolutely_continuous", "singular"):
                gap = max_abs(getattr(via_forms, part).values - getattr(direct, part).values)
                assert gap <= 1e-12 * max_abs(mu.values)

    def test_readme_measure_at_scale(self):
        mu, nu = [3 + 1j, 2.0, 0.7 - 2j], [0.0, 1.0, 2.0]
        for scale in (1e-12, 1e-8, 1e8, 1e12):
            split = decompose_via_forms(
                measure(np.multiply(mu, scale)), measure(np.multiply(nu, scale))
            )
            assert split.support == ("b", "c")
            assert max_abs(split.singular.values / scale - [3 + 1j, 0, 0]) < 1e-12

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_relative_null_atom_inconsistent_at_every_scale(self, scale):
        space = AtomicMeasureSpace(("a", "b"))
        mu = ComplexMeasure(space, np.array([1.0, 1.0]) * scale)
        nu = ComplexMeasure(space, np.array([1.0, 1e-12]) * scale)
        # the gap is mu's unit-scale value at the dropped atom, in [1, 4)
        message = (
            r"^form-engine split disagrees with the atomwise split by \d\.\d{3}e\+00 at unit "
            r"scale; internal fault or measure values below the rank cutoff$"
        )
        with pytest.raises(InconsistentRank, match=message):
            decompose_via_forms(mu, nu)


class TestMeasurePathShape:
    """decompose_via_forms runs the engine of `decompose` once and reads the
    parts off its stacks: no witness split, no part forms."""

    def test_builds_only_its_two_nonneg_forms(self, rng, monkeypatch):
        built = []
        post_init = NonNegativeForm.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        def no_witnesses(ctx):
            raise AssertionError("the measure path built the witness split")

        monkeypatch.setattr(NonNegativeForm, "__post_init__", counted)
        monkeypatch.setattr(lebesgue, "_split_from_context", no_witnesses)
        for k in (1, 3, 16):
            mu, nu = random_measure_pair(rng, k)
            built.clear()
            decompose_via_forms(mu, nu)
            assert len(built) == 2

    def test_coarse_tolerance_null_atom_without_mass(self):
        # nu's second atom lies below the cutoff 1e-9 * 3 but above psd_abs:
        # both paths agree since mu has no mass there, and no PSD check of
        # a split part (whose a.c. block there would be -nu) can refuse it
        space = AtomicMeasureSpace(("a", "b"))
        split = decompose_via_forms(
            ComplexMeasure(space, [1.0, 0.0]),
            ComplexMeasure(space, [2.0, 2e-9]),
            Tolerance(rank_rel=1e-9),
        )
        assert np.array_equal(split.absolutely_continuous.values, [1.0, 0.0])
        assert np.array_equal(split.singular.values, [0.0, 0.0])
        assert split.support == ("a", "b")

    def test_parts_are_those_of_decompose_bit_for_bit(self, rng):
        for i in range(60):
            k = int(rng.integers(1, 9))
            mu, nu = random_measure_pair(rng, k)
            mu_vals = np.zeros(k, dtype=complex) if i % 10 == 0 else mu.values
            # a nu atom at 2 puts the largest value in [2, 2.3], so the
            # measure path divides by 1 and multiplies by 1
            nu_vals = nu.values.real.copy()
            nu_vals[int(rng.integers(k))] = 2.0
            triple = decompose(
                SesquilinearForm(np.diag(mu_vals)),
                NonNegativeForm(np.diag(nu_vals)),
                NonNegativeForm(np.diag(np.abs(mu_vals))),
            )
            ac = triple.regular.matrix.diagonal()
            sing = (triple.mixed.matrix + triple.strongly_singular.matrix).diagonal()
            for j in (-12, -1, 0, 1, 12):
                c = 4.0**j
                split = decompose_via_forms(
                    ComplexMeasure(mu.space, mu_vals * c), ComplexMeasure(nu.space, nu_vals * c)
                )
                assert np.array_equal(split.absolutely_continuous.values, ac * c), (i, j)
                assert np.array_equal(split.singular.values, sing * c), (i, j)


def test_measure_path_memory_is_linear_in_atoms():
    """Stored as 1x1 blocks, the induced forms of k = 1024 atoms never make a
    k x k matrix (one such complex matrix alone takes 16 MB)."""
    rng = np.random.default_rng(1024)
    k = 1024
    space = AtomicMeasureSpace(tuple(f"a{i}" for i in range(k)))
    nu = rng.uniform(0.1, 1.0, k)
    nu[rng.permutation(k)[: k // 3]] = 0.0
    mu = ComplexMeasure(space, rng.standard_normal(k) + 1j * rng.standard_normal(k))
    nu = ComplexMeasure(space, nu)
    tracemalloc.start()
    try:
        decompose_via_forms(mu, nu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
