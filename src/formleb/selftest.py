"""Built-in verification: golden worked examples plus a random property sweep.

Used by the CLI `selftest` subcommand. The sweep's seed is fixed, so the
CLI output is reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forms import NonNegativeForm, SesquilinearForm, construct_dominating, is_dominating
from .lebesgue import (
    decompose,
    decompose_nonneg,
    is_absolutely_continuous,
    is_mixed_certificate,
    is_singular_nonneg,
)
from .linalg import DEFAULT_TOL, Tolerance, is_psd
from .measures import (
    AtomicMeasureSpace,
    ComplexMeasure,
    decompose_via_forms,
    lebesgue_decompose_measure,
)

GOLDEN_ATOL = 1e-9
PROPERTY_SLACK = 1e-8
SEED = 0  # of the property sweep's generator
INSTANCES = 20  # random instances in the property sweep


@dataclass
class SelfTestReport:
    golden_passed: int = 0
    golden_total: int = 0
    property_passed: int = 0
    property_total: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _close(A, B, atol=GOLDEN_ATOL) -> bool:
    return bool(np.max(np.abs(np.asarray(A) - np.asarray(B))) <= atol)


def _golden_checks(tol: Tolerance):
    t = SesquilinearForm(np.diag([-1.0, 1.0, 0.0]))
    sigma = NonNegativeForm(np.diag([1.0, 1.0, 0.0]))
    omega = NonNegativeForm(np.diag([0.0, 1.0, 1.0]))
    u = NonNegativeForm(np.array([[5 / 3, -4 / 3, 0], [-4 / 3, 5 / 3, 0], [0, 0, 0]]))

    def sigma_split():
        split = decompose_nonneg(sigma, omega, tol)
        return _close(split.absolutely_continuous.matrix, np.diag([0, 1, 0])) and _close(
            split.singular.matrix, np.diag([1, 0, 0])
        )

    def u_split():
        split = decompose_nonneg(u, omega, tol)
        expected_sing = [[5 / 3, -4 / 3, 0], [-4 / 3, 16 / 15, 0], [0, 0, 0]]
        return _close(
            split.absolutely_continuous.matrix, np.diag([0, 0.6, 0])
        ) and _close(split.singular.matrix, expected_sing)

    def triple_with_sigma():
        triple = decompose(t, omega, sigma, tol)
        return (
            _close(triple.regular.matrix, np.diag([0, 1, 0]))
            and _close(triple.mixed.matrix, np.zeros((3, 3)))
            and _close(triple.strongly_singular.matrix, np.diag([-1, 0, 0]))
        )

    def triple_with_u():
        triple = decompose(t, omega, u, tol)
        expected_mixed = [[0, -0.8, 0], [-0.8, 1.28, 0], [0, 0, 0]]
        expected_sing = [[-1, 0.8, 0], [0.8, -0.64, 0], [0, 0, 0]]
        other = decompose(t, omega, sigma, tol)
        differs = not _close(triple.regular.matrix, other.regular.matrix, atol=1e-3)
        return (
            _close(triple.regular.matrix, np.diag([0, 0.36, 0]))
            and _close(triple.mixed.matrix, expected_mixed)
            and _close(triple.strongly_singular.matrix, expected_sing)
            and differs
        )

    def indefinite_mixed_part():
        form = SesquilinearForm(np.array([[2.0, 1, 0], [1, 2, 0], [0, 0, 0]]))
        dom = NonNegativeForm(np.diag([3.0, 3.0, 0.0]))
        triple = decompose(form, omega, dom, tol)
        expected = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
        return _close(triple.mixed.matrix, expected) and not is_psd(
            triple.mixed.matrix, tol
        )

    def mixed_certificate_on_c2():
        form = SesquilinearForm(np.diag([1.0, -1.0]))
        ref = NonNegativeForm(np.array([[1.0, 1], [1, 1]]))
        beta = NonNegativeForm(np.array([[1.0, -1], [-1, 1]]))
        return is_mixed_certificate(form, ref, ref, beta, tol)

    def no_singular_certificate_on_c2():
        form = SesquilinearForm(np.diag([1.0, -1.0]))
        # any PSD form vanishing on (1, -1) is a multiple of the reference
        ref_matrix = np.array([[1.0, 1], [1, 1]])
        return all(
            not is_dominating(NonNegativeForm(c * ref_matrix), form, tol)
            for c in (0.0, 0.5, 1.0, 2.0, 10.0)
        )

    def measure_bridge():
        space = AtomicMeasureSpace(("a", "b", "c"))
        mu = ComplexMeasure(space, [-1.0, 1.0, 0.0])
        nu = ComplexMeasure(space, [0.0, 1.0, 1.0])
        split = decompose_via_forms(mu, nu, tol)
        direct = lebesgue_decompose_measure(mu, nu)
        return _close(
            split.absolutely_continuous.values, direct.absolutely_continuous.values
        ) and _close(split.singular.values, [-1.0, 0, 0])

    return [
        ("sigma-split", sigma_split),
        ("u-split", u_split),
        ("triple-sigma", triple_with_sigma),
        ("triple-u", triple_with_u),
        ("indefinite-mixed", indefinite_mixed_part),
        ("mixed-certificate-c2", mixed_certificate_on_c2),
        ("no-singular-certificate-c2", no_singular_certificate_on_c2),
        ("measure-bridge", measure_bridge),
    ]


def _random_psd(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    if rank == 0:
        return np.zeros((n, n), dtype=complex)
    B = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return B @ B.conj().T


def _random_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _property_checks(rng: np.random.Generator, n: int, tol: Tolerance):
    A = _random_matrix(rng, n)
    form = SesquilinearForm(A)
    ref = NonNegativeForm(_random_psd(rng, n, rng.integers(0, n + 1)))
    dom = construct_dominating(form, tol)
    triple = decompose(form, ref, dom, tol)
    split = triple.witnesses

    def exactness():
        total = (
            triple.regular.matrix
            + triple.mixed.matrix
            + triple.strongly_singular.matrix
        )
        return _close(total, A, atol=PROPERTY_SLACK) and _close(
            split.total, dom.matrix, atol=PROPERTY_SLACK
        )

    def parts_psd():
        return split.absolutely_continuous.psd_at(tol) and split.singular.psd_at(tol)

    def split_parts_classified():
        return is_absolutely_continuous(
            split.absolutely_continuous, ref, tol
        ) and is_singular_nonneg(split.singular, ref, tol)

    def adjoint_commutes():
        other = decompose(form.adjoint(), ref, dom, tol)
        return _close(
            other.regular.matrix,
            triple.regular.matrix.conj().T,
            atol=PROPERTY_SLACK,
        )

    def collapse_on_self():
        psd = NonNegativeForm(_random_psd(rng, n, rng.integers(1, n + 1)))
        self_triple = decompose(psd, ref, psd, tol)
        return _close(
            self_triple.mixed.matrix, np.zeros((n, n)), atol=PROPERTY_SLACK
        )

    return [
        ("exactness", exactness),
        ("parts-psd", parts_psd),
        ("split-classification", split_parts_classified),
        ("adjoint-commutation", adjoint_commutes),
        ("collapse", collapse_on_self),
    ]


def _checks(tol: Tolerance):
    """(kind, label, check) for every golden check, then every property check
    of `INSTANCES` random instances drawn from `SEED`."""
    for name, check in _golden_checks(tol):
        yield "golden", f"golden:{name}", check
    rng = np.random.default_rng(SEED)
    for i in range(INSTANCES):
        for name, check in _property_checks(rng, 2 + i % 4, tol):
            yield "property", f"property:{name}[{i}]", check


def run_selftest(tol: Tolerance = DEFAULT_TOL) -> SelfTestReport:
    report = SelfTestReport()
    for kind, label, check in _checks(tol):
        try:
            passed = bool(check())
            if not passed:
                report.failures.append(label)
        except Exception as exc:  # a crash is a failure, not an abort
            passed = False
            report.failures.append(f"{label}: {exc!r}")
        setattr(report, f"{kind}_total", getattr(report, f"{kind}_total") + 1)
        setattr(report, f"{kind}_passed", getattr(report, f"{kind}_passed") + passed)
    return report
