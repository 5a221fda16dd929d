"""Shared generators and the acceptance-criteria reporter."""

import re

import numpy as np
import pytest


def crandn(rng, *shape):
    """Complex standard-normal array."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_psd(rng, n, rank=None):
    """Random PSD matrix of the given rank (full rank when rank is None)."""
    if rank is None:
        rank = n
    if rank == 0:
        return np.zeros((n, n), dtype=complex)
    B = crandn(rng, n, rank)
    return B @ B.conj().T


def random_hermitian(rng, n):
    A = crandn(rng, n, n)
    return (A + A.conj().T) / 2


def random_unitary(rng, n):
    Q, R = np.linalg.qr(crandn(rng, n, n))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def max_abs(A):
    return float(np.max(np.abs(np.asarray(A))))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# acceptance reporting: one pass/fail line per criterion in the summary

_ACCEPTANCE = {}

CRITERIA_TITLES = {
    1: "golden sigma-split",
    2: "golden u-split",
    3: "golden triple (sigma)",
    4: "golden triple (u) + sigma-dependence",
    5: "indefinite mixed part vs independent oracle",
    6: "random property suite, n in 1..6",
    7: "extremality oracle for a.c. minorants",
    8: "C^2 counterexample regression",
    9: "measure oracle equivalence",
    10: "bounded and singular implies null",
    11: "a.c. part equals the shorted operator",
}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if match:
        _ACCEPTANCE[int(match.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        outcome = "PASS" if _ACCEPTANCE[number] == "passed" else "FAIL"
        title = CRITERIA_TITLES.get(number, "")
        terminalreporter.write_line(f"criterion {number:02d} [{outcome}] {title}")
