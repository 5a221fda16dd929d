"""JSON-in/JSON-out command line front end.

One subcommand per operation family; complex scalars travel as [re, im] pairs,
matrices as nested arrays of such pairs. Output is canonical JSON (sorted keys,
numbers at 17 significant digits) so identical inputs produce identical bytes.

Exit codes: 0 ok, 1 usage/parse error, 2 domain error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import FormLebError, NotPSD
from .forms import (
    NonNegativeForm,
    SesquilinearForm,
    classify_range,
    construct_dominating,
    is_bounded_by,
    is_dominating,
)
from .lebesgue import (
    decompose,
    decompose_nonneg,
    is_absolutely_continuous,
    is_mixed_certificate,
    is_regular,
    is_singular_nonneg,
    is_strongly_singular,
    singularity_sufficient,
)
from .linalg import DEFAULT_TOL, Tolerance, is_psd, operator_norm
from .measures import AtomicMeasureSpace, ComplexMeasure, decompose_via_forms
from .selftest import run_selftest

ENV_TOL = "FORMLEB_TOL"
NUMERICAL_FAILURE = "NUMERICAL_FAILURE"  # error code of a LinAlgError from numpy

KINDS = ("decompose", "decompose-nonneg", "classify", "check", "dominate", "measure")
MATRIX_KEYS = ("t", "omega", "sigma", "alpha", "beta")
MEASURE_KEYS = ("mu", "nu")
TOL_KEYS = ("rank_rel", "psd_abs", "cmp_abs")

# check kind -> (function, matrices passed to it in order); "t" is passed as
# a SesquilinearForm, every other matrix as a NonNegativeForm
CHECKS = {
    "membership": (is_dominating, ("sigma", "t")),
    "regular": (is_regular, ("t", "omega")),
    "strongly-singular": (is_strongly_singular, ("t", "omega", "sigma")),
    "mixed": (is_mixed_certificate, ("t", "omega", "alpha", "beta")),
    "ac": (is_absolutely_continuous, ("sigma", "omega")),
    "singular-nonneg": (is_singular_nonneg, ("sigma", "omega")),
    "singular-sufficient": (singularity_sufficient, ("t", "omega")),
    "omega-bounded": (is_bounded_by, ("t", "omega")),
}
CHECK_KINDS = tuple(CHECKS)

# matrices each kind requires (sigma is optional for plain decompose)
REQUIRED = {
    "decompose": ("t", "omega"),
    "decompose-nonneg": ("sigma", "omega"),
    "classify": ("t",),
    "dominate": ("t",),
    **{f"check/{kind}": keys for kind, (_, keys) in CHECKS.items()},
}


class ParseError(Exception):
    """Input rejected before dispatch; carries a stable code and the offending path."""

    def __init__(self, code: str, path: str, message: str):
        super().__init__(message)
        self.code = code
        self.path = path


@dataclass(frozen=True)
class ProblemInput:
    kind: str
    input_sha256: str
    tol: Tolerance
    check: str | None = None
    dim: int | None = None
    atoms: tuple[str, ...] | None = None
    matrices: dict[str, np.ndarray] = field(default_factory=dict)
    measures: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class ResultOutput:
    input_sha256: str
    status: str
    error: dict | None
    results: dict
    diagnostics: dict

    def to_obj(self) -> dict:
        return {
            "input": self.input_sha256,
            "status": self.status,
            "error": self.error,
            "results": self.results,
            "diagnostics": self.diagnostics,
        }


def _number(value: Any, path: str) -> float:
    if type(value) not in (int, float):  # json.loads makes exact types; bool is neither
        raise ParseError("SCHEMA_VIOLATION", path, "expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ParseError("SCHEMA_VIOLATION", path, "expected a finite number")
    return number


def _check_pair(value: Any, path: str) -> None:
    if type(value) is not list or len(value) != 2:
        raise ParseError("SCHEMA_VIOLATION", path, "expected a [re, im] pair")
    _number(value[0], f"{path}[0]")
    _number(value[1], f"{path}[1]")


def _bulk_complex(rows: list, shape: tuple[int, ...]) -> np.ndarray | None:
    """Rows of [re, im] pairs as one complex array, converted in one call;
    None when an entry is not a pair of finite numbers (the caller's walk names it)."""
    if not all(type(e) is list and len(e) == 2 for row in rows for e in row):
        return None
    leaves = [x for row in rows for e in row for x in e]
    if not set(map(type, leaves)) <= {int, float}:
        return None
    try:
        values = np.array(leaves, dtype=float)
    except OverflowError:  # an integer literal beyond the float range
        return None
    if not np.isfinite(values).all():
        return None
    return values.view(complex).reshape(shape)


def _parse_matrix(value: Any, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ParseError("SCHEMA_VIOLATION", path, "expected a non-empty matrix")
    n = len(value)
    if all(type(row) is list and len(row) == n for row in value):
        matrix = _bulk_complex(value, (n, n))
        if matrix is not None:
            return matrix
    for i, row in enumerate(value):
        if type(row) is not list:
            raise ParseError("SCHEMA_VIOLATION", f"{path}[{i}]", "expected a matrix row")
        if len(row) != n:
            raise ParseError(
                "DIM_MISMATCH",
                f"{path}[{i}]",
                f"matrix must be square: row {i} has {len(row)} entries, expected {n}",
            )
        for j, entry in enumerate(row):
            _check_pair(entry, f"{path}[{i}][{j}]")
    raise AssertionError("the bulk decoder and the walk disagree")


def _parse_measure(value: Any, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ParseError("SCHEMA_VIOLATION", path, "expected a non-empty array")
    measure = _bulk_complex([value], (len(value),))
    if measure is not None:
        return measure
    for i, entry in enumerate(value):
        _check_pair(entry, f"{path}[{i}]")
    raise AssertionError("the bulk decoder and the walk disagree")


def _parse_tol(value: Any, base: Tolerance) -> Tolerance:
    if not isinstance(value, dict):
        raise ParseError("SCHEMA_VIOLATION", "tol", "expected an object")
    overrides = {}
    for key, entry in value.items():
        if key not in TOL_KEYS:
            raise ParseError("SCHEMA_VIOLATION", f"tol.{key}", "unknown tolerance field")
        overrides[key] = _number(entry, f"tol.{key}")
    try:
        return dataclasses.replace(base, **overrides)
    except ValueError as exc:
        raise ParseError("SCHEMA_VIOLATION", "tol", str(exc)) from None


def parse_input(data: bytes, base_tol: Tolerance = DEFAULT_TOL) -> ProblemInput:
    """Validate raw bytes into a ProblemInput; every rejection names its path."""
    sha = hashlib.sha256(data).hexdigest()
    try:
        obj = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer past the int-string limit
        raise ParseError("MALFORMED_JSON", "", f"input is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("MALFORMED_JSON", "", "input nests too deeply") from None
    if not isinstance(obj, dict):
        raise ParseError("SCHEMA_VIOLATION", "", "top-level value must be an object")

    known = {"kind", "check", "dim", "atoms", "tol", *MATRIX_KEYS, *MEASURE_KEYS}
    for key in obj:
        if key not in known:
            raise ParseError("SCHEMA_VIOLATION", key, "unknown field")

    kind = obj.get("kind")
    if kind not in KINDS:
        raise ParseError(
            "SCHEMA_VIOLATION", "kind", f"kind must be one of {', '.join(KINDS)}"
        )

    check = obj.get("check")
    if kind == "check":
        if check not in CHECK_KINDS:
            raise ParseError(
                "SCHEMA_VIOLATION",
                "check",
                f"check must be one of {', '.join(CHECK_KINDS)}",
            )
    elif check is not None:
        raise ParseError("SCHEMA_VIOLATION", "check", "check is only valid for kind=check")

    dim = obj.get("dim")
    if dim is not None and (isinstance(dim, bool) or not isinstance(dim, int) or dim < 1):
        raise ParseError("SCHEMA_VIOLATION", "dim", "dim must be a positive integer")

    matrices = {}
    for key in MATRIX_KEYS:
        if key in obj:
            matrices[key] = _parse_matrix(obj[key], key)
            if dim is None:
                dim = matrices[key].shape[0]
            elif matrices[key].shape[0] != dim:
                raise ParseError(
                    "DIM_MISMATCH",
                    key,
                    f"{key} is {matrices[key].shape[0]}x{matrices[key].shape[0]}, "
                    f"expected dimension {dim}",
                )

    atoms = None
    if "atoms" in obj:
        raw_atoms = obj["atoms"]
        if (
            not isinstance(raw_atoms, list)
            or not raw_atoms
            or not all(isinstance(a, str) for a in raw_atoms)
        ):
            raise ParseError(
                "SCHEMA_VIOLATION", "atoms", "atoms must be a non-empty list of strings"
            )
        if len(set(raw_atoms)) != len(raw_atoms):
            raise ParseError("SCHEMA_VIOLATION", "atoms", "atom labels must be unique")
        atoms = tuple(raw_atoms)

    measures = {}
    for key in MEASURE_KEYS:
        if key in obj:
            measures[key] = _parse_measure(obj[key], key)
            if atoms is not None and measures[key].shape[0] != len(atoms):
                raise ParseError(
                    "DIM_MISMATCH",
                    key,
                    f"{key} has {measures[key].shape[0]} values for {len(atoms)} atoms",
                )

    tol = _parse_tol(obj["tol"], base_tol) if "tol" in obj else base_tol

    requirement = f"check/{check}" if kind == "check" else kind
    if kind == "measure":
        for key in ("atoms",) + MEASURE_KEYS:
            present = atoms is not None if key == "atoms" else key in measures
            if not present:
                raise ParseError(
                    "SCHEMA_VIOLATION", key, f"kind=measure requires field {key}"
                )
        lengths = {measures[k].shape[0] for k in MEASURE_KEYS}
        if len(lengths) != 1:
            raise ParseError("DIM_MISMATCH", "nu", "mu and nu must have equal length")
    else:
        for key in REQUIRED[requirement]:
            if key not in matrices:
                raise ParseError(
                    "SCHEMA_VIOLATION", key, f"{requirement} requires matrix {key}"
                )

    return ProblemInput(
        kind=kind,
        input_sha256=sha,
        tol=tol,
        check=check,
        dim=dim,
        atoms=atoms,
        matrices=matrices,
        measures=measures,
    )


class _Pairs(list):
    """A matrix or measure as nested [re, im] lists that keep their float64
    (..., 2) array, so _serialize formats every number in one call."""

    __slots__ = ("array",)

    def __init__(self, values: np.ndarray):
        z = np.array(values, dtype=complex)  # a C-ordered copy: its float view is (..., 2)
        self.array = z.view(float).reshape(z.shape + (2,))
        super().__init__(self.array.tolist())


def _nonneg(problem: ProblemInput, key: str) -> NonNegativeForm:
    """The matrix as a NonNegativeForm, PSD at the problem's tolerance.

    That check comes first: its message wins when the form's own check at
    DEFAULT_TOL fails as well.
    """
    M = problem.matrices[key]
    message = f"matrix {key!r} must be positive semidefinite"
    try:
        form = NonNegativeForm(M)
    except NotPSD:
        if not is_psd(M, problem.tol):
            raise NotPSD(message) from None
        raise
    if not form.psd_at(problem.tol):
        raise NotPSD(message)
    return form


def _run_decompose(problem: ProblemInput) -> tuple[dict, dict]:
    tol = problem.tol
    form = SesquilinearForm(problem.matrices["t"])
    ref = _nonneg(problem, "omega")
    provided = "sigma" in problem.matrices
    dom = _nonneg(problem, "sigma") if provided else construct_dominating(form, tol)
    triple = decompose(form, ref, dom, tol)
    total = (
        triple.regular.matrix + triple.mixed.matrix + triple.strongly_singular.matrix
    )
    results = {
        "t_r": _Pairs(triple.regular.matrix),
        "t_m": _Pairs(triple.mixed.matrix),
        "t_ss": _Pairs(triple.strongly_singular.matrix),
        "sigma_a": _Pairs(triple.witnesses.absolutely_continuous.matrix),
        "sigma_s": _Pairs(triple.witnesses.singular.matrix),
    }
    diagnostics = {
        "dim": form.dim,
        "sigma_provided": provided,
        "rank_gram": triple.witnesses.gram_rank,
        "exactness_residual": float(np.max(np.abs(total - form.matrix))),
    }
    if not provided:
        results["sigma"] = _Pairs(dom.matrix)
    return results, diagnostics


def _run_decompose_nonneg(problem: ProblemInput) -> tuple[dict, dict]:
    tol = problem.tol
    sigma = _nonneg(problem, "sigma")
    ref = _nonneg(problem, "omega")
    split = decompose_nonneg(sigma, ref, tol)
    residual = float(np.max(np.abs(split.total - sigma.matrix)))
    results = {
        "sigma_a": _Pairs(split.absolutely_continuous.matrix),
        "sigma_s": _Pairs(split.singular.matrix),
    }
    diagnostics = {
        "dim": sigma.dim,
        "rank_gram": split.gram_rank,
        "exactness_residual": residual,
    }
    return results, diagnostics


def _run_classify(problem: ProblemInput) -> tuple[dict, dict]:
    form = SesquilinearForm(problem.matrices["t"])
    rc = classify_range(form, problem.tol)
    results = {
        "nonneg": rc.nonneg,
        "real": rc.real,
        "quadrant": rc.quadrant,
        "halfplane": rc.halfplane,
        "sector": rc.sector,
        "c": rc.sector_constant,
    }
    return results, {"dim": form.dim, "norm_t": operator_norm(form.matrix)}


def _run_check(problem: ProblemInput) -> tuple[dict, dict]:
    check, keys = CHECKS[problem.check]
    args = [
        SesquilinearForm(problem.matrices[key]) if key == "t" else _nonneg(problem, key)
        for key in keys
    ]
    outcome = check(*args, problem.tol)
    if problem.check == "omega-bounded":
        flag, constant = outcome
        return {"result": flag, "constant": constant}, {"check": problem.check}
    return {"result": outcome}, {"check": problem.check}


def _run_dominate(problem: ProblemInput) -> tuple[dict, dict]:
    form = SesquilinearForm(problem.matrices["t"])
    dom = construct_dominating(form, problem.tol)
    verified = is_dominating(dom, form, problem.tol)
    return {"sigma": _Pairs(dom.matrix)}, {
        "dim": form.dim,
        "membership_verified": verified,
        "norm_t": operator_norm(form.matrix),
        "norm_sigma": operator_norm(dom.matrix),
    }


def _run_measure(problem: ProblemInput) -> tuple[dict, dict]:
    space = AtomicMeasureSpace(problem.atoms)
    mu = ComplexMeasure(space, problem.measures["mu"])
    nu = ComplexMeasure(space, problem.measures["nu"])
    split = decompose_via_forms(mu, nu, problem.tol)
    results = {
        "mu_a": _Pairs(split.absolutely_continuous.values),
        "mu_s": _Pairs(split.singular.values),
        "support": list(split.support),
    }
    return results, {"atoms": space.k}


def run_command(
    cmd: str, problem: ProblemInput | None, tol: Tolerance | None = None
) -> ResultOutput:
    """Dispatch a parsed problem; deterministic for fixed input and tolerance."""
    if cmd == "selftest":
        tol = tol or DEFAULT_TOL
        report = run_selftest(tol)
        results = {
            "golden_passed": report.golden_passed,
            "golden_total": report.golden_total,
            "property_passed": report.property_passed,
            "property_total": report.property_total,
            "failures": list(report.failures),
        }
        sha = problem.input_sha256 if problem else hashlib.sha256(b"").hexdigest()
        if report.ok:
            return ResultOutput(sha, "ok", None, results, {"tolerance": dataclasses.asdict(tol)})
        return ResultOutput(
            sha,
            "error",
            {"code": "SELFTEST_FAILED", "message": f"{len(report.failures)} checks failed"},
            results,
            {"tolerance": dataclasses.asdict(tol)},
        )

    assert problem is not None
    if problem.kind != cmd:
        raise ParseError(
            "SCHEMA_VIOLATION", "kind", f"kind {problem.kind!r} does not match subcommand {cmd!r}"
        )
    runners = {
        "decompose": _run_decompose,
        "decompose-nonneg": _run_decompose_nonneg,
        "classify": _run_classify,
        "check": _run_check,
        "dominate": _run_dominate,
        "measure": _run_measure,
    }

    def domain_error(code: str, exc: Exception) -> ResultOutput:
        return ResultOutput(
            problem.input_sha256,
            "error",
            {"code": code, "message": str(exc)},
            {},
            {"tolerance": dataclasses.asdict(problem.tol)},
        )

    try:
        results, diagnostics = runners[cmd](problem)
    except FormLebError as exc:
        return domain_error(exc.code, exc)
    except np.linalg.LinAlgError as exc:  # LAPACK gave no answer (say, no SVD convergence)
        return domain_error(NUMERICAL_FAILURE, exc)
    diagnostics["tolerance"] = dataclasses.asdict(problem.tol)
    return ResultOutput(problem.input_sha256, "ok", None, results, diagnostics)


def _string(s: str) -> str:
    try:
        s.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate: \uXXXX escapes keep the output UTF-8
        return json.dumps(s)
    return json.dumps(s, ensure_ascii=False)


def _join(parts: list[str], brackets: str, indent: int | None, level: int) -> str:
    if not parts:
        return brackets
    pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
    endpad = "" if indent is None else "\n" + " " * (indent * level)
    return f"{brackets[0]}{pad}{(',' + pad).join(parts)}{endpad}{brackets[1]}"


def _template(shape: tuple[int, ...], indent: int | None, level: int) -> str:
    """%-format template that lays out an array of this shape as nested lists,
    every number at 17 significant digits (lossless, locale-free)."""
    if not shape:
        return "%.17g"
    return _join([_template(shape[1:], indent, level + 1)] * shape[0], "[]", indent, level)


def _numbers(values: np.ndarray, indent: int | None, level: int) -> str:
    if not np.isfinite(values).all():
        raise ValueError("non-finite number in output")
    return _template(values.shape, indent, level) % tuple(values.ravel().tolist())


def _serialize(obj: Any, indent: int | None, level: int) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _numbers(np.array(obj), indent, level)
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, _Pairs):
        return _numbers(obj.array, indent, level)
    if isinstance(obj, (list, tuple)):
        return _join([_serialize(v, indent, level + 1) for v in obj], "[]", indent, level)
    if isinstance(obj, dict):
        colon = ":" if indent is None else ": "
        parts = [
            f"{_string(str(k))}{colon}{_serialize(v, indent, level + 1)}"
            for k, v in sorted(obj.items())
        ]
        return _join(parts, "{}", indent, level)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def emit_output(result: ResultOutput, pretty: bool = False) -> bytes:
    """Canonical JSON bytes: sorted keys, 17-significant-digit numbers."""
    text = _serialize(result.to_obj(), 2 if pretty else None, 0)
    return (text + "\n").encode("utf-8")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise ParseError("USAGE", "", message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="formleb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in KINDS + ("selftest",):
        p = sub.add_parser(name)
        p.add_argument("--input", "-i", default="-", help="input JSON path, or - for stdin")
        p.add_argument("--output", "-o", default="-", help="output path, or - for stdout")
        p.add_argument(
            "--tol", type=float, default=None, help="override the relative rank cutoff"
        )
        p.add_argument("--pretty", action="store_true", help="indent the output JSON")
    return parser


def _base_tolerance(flag: float | None) -> Tolerance:
    tol = DEFAULT_TOL
    env = os.environ.get(ENV_TOL)
    if env is not None:
        try:
            tol = dataclasses.replace(tol, rank_rel=float(env))
        except ValueError as exc:
            raise ParseError("USAGE", "", f"invalid {ENV_TOL}: {exc}") from None
    if flag is not None:
        try:
            tol = dataclasses.replace(tol, rank_rel=flag)
        except ValueError as exc:
            raise ParseError("USAGE", "", f"invalid --tol: {exc}") from None
    return tol


def _error_output(sha: str, exc: ParseError) -> ResultOutput:
    return ResultOutput(
        sha,
        "error",
        {"code": exc.code, "message": str(exc), "path": exc.path},
        {},
        {},
    )


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except ParseError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1

    def write(result: ResultOutput) -> None:
        data = emit_output(result, pretty=args.pretty)
        if args.output == "-":
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
        else:
            with open(args.output, "wb") as fh:
                fh.write(data)

    raw = b""
    sha = hashlib.sha256(raw).hexdigest()
    try:
        base_tol = _base_tolerance(args.tol)
        if args.command != "selftest":
            if args.input == "-":
                raw = sys.stdin.buffer.read()
            else:
                with open(args.input, "rb") as fh:
                    raw = fh.read()
            sha = hashlib.sha256(raw).hexdigest()
            problem = parse_input(raw, base_tol)
            # the command-line flag wins over any tol block in the JSON
            if args.tol is not None:
                problem = dataclasses.replace(
                    problem, tol=dataclasses.replace(problem.tol, rank_rel=args.tol)
                )
            result = run_command(args.command, problem)
        else:
            result = run_command("selftest", None, tol=base_tol)
    except ParseError as exc:
        write(_error_output(sha, exc))
        return 1
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 1

    write(result)
    return 0 if result.status == "ok" else 2


if __name__ == "__main__":
    sys.exit(main())
