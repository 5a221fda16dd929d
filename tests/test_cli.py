"""CLI: schema validation, dispatch, canonical output, exit codes."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from formleb.cli import (
    CHECK_KINDS,
    KINDS,
    ParseError,
    ResultOutput,
    _Pairs,
    _parse_matrix,
    _parse_measure,
    emit_output,
    main,
    parse_input,
    run_command,
)
from formleb.linalg import DEFAULT_TOL


def enc_matrix(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, dtype=complex)]


def enc_measure(values):
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex)]


def payload(**fields):
    return json.dumps(fields).encode()


GOLDEN_DECOMPOSE = payload(
    kind="decompose",
    t=enc_matrix(np.diag([-1.0, 1.0, 0.0])),
    omega=enc_matrix(np.diag([0.0, 1.0, 1.0])),
    sigma=enc_matrix(np.diag([1.0, 1.0, 0.0])),
)


def decode_matrix(entry):
    return np.array([[complex(re, im) for re, im in row] for row in entry])


class TestParseInput:
    def test_golden_payload(self):
        problem = parse_input(GOLDEN_DECOMPOSE)
        assert problem.kind == "decompose"
        assert problem.dim == 3
        assert set(problem.matrices) == {"t", "omega", "sigma"}

    def test_one_dimensional_zero_form(self):
        problem = parse_input(b'{"kind":"classify","dim":1,"t":[[[0,0]]]}')
        assert problem.dim == 1
        assert problem.matrices["t"].shape == (1, 1)

    def test_non_square_matrix_names_field(self):
        bad = payload(kind="classify", t=[[[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]])
        with pytest.raises(ParseError) as err:
            parse_input(bad)
        assert err.value.code == "DIM_MISMATCH"
        assert err.value.path.startswith("t")

    def test_dim_inconsistency_between_matrices(self):
        bad = payload(
            kind="decompose",
            t=enc_matrix(np.zeros((2, 2))),
            omega=enc_matrix(np.zeros((3, 3))),
        )
        with pytest.raises(ParseError) as err:
            parse_input(bad)
        assert err.value.code == "DIM_MISMATCH"
        assert err.value.path == "omega"

    def test_malformed_json(self):
        with pytest.raises(ParseError) as err:
            parse_input(b"{not json")
        assert err.value.code == "MALFORMED_JSON"

    def test_unknown_field(self):
        with pytest.raises(ParseError) as err:
            parse_input(payload(kind="classify", t=[[[0, 0]]], bogus=1))
        assert err.value.code == "SCHEMA_VIOLATION"
        assert err.value.path == "bogus"

    def test_unknown_kind(self):
        with pytest.raises(ParseError) as err:
            parse_input(payload(kind="explode"))
        assert err.value.path == "kind"

    def test_missing_required_matrix(self):
        with pytest.raises(ParseError) as err:
            parse_input(payload(kind="decompose", t=[[[0, 0]]]))
        assert err.value.path == "omega"

    def test_check_requires_subkind(self):
        with pytest.raises(ParseError) as err:
            parse_input(payload(kind="check", t=[[[0, 0]]]))
        assert err.value.path == "check"

    def test_measure_payload(self):
        problem = parse_input(
            payload(
                kind="measure",
                atoms=["a", "b", "c"],
                mu=enc_measure([3 + 1j, 2.0, 0.0]),
                nu=enc_measure([0.0, 1.0, 2.0]),
            )
        )
        assert problem.atoms == ("a", "b", "c")
        assert problem.measures["mu"].shape == (3,)

    def test_measure_length_mismatch(self):
        with pytest.raises(ParseError) as err:
            parse_input(
                payload(kind="measure", atoms=["a", "b"], mu=enc_measure([1.0]), nu=enc_measure([1.0, 2.0]))
            )
        assert err.value.code == "DIM_MISMATCH"
        assert err.value.path == "mu"

    def test_tol_override(self):
        problem = parse_input(
            payload(kind="classify", t=[[[0, 0]]], tol={"rank_rel": 1e-8})
        )
        assert problem.tol.rank_rel == 1e-8
        assert problem.tol.psd_abs == DEFAULT_TOL.psd_abs

    def test_tol_rejects_unknown_key(self):
        with pytest.raises(ParseError) as err:
            parse_input(payload(kind="classify", t=[[[0, 0]]], tol={"nope": 0.1}))
        assert err.value.path == "tol.nope"


class TestRunCommand:
    def test_golden_decompose(self):
        problem = parse_input(GOLDEN_DECOMPOSE)
        result = run_command("decompose", problem)
        assert result.status == "ok"
        t_r = decode_matrix(result.results["t_r"])
        t_m = decode_matrix(result.results["t_m"])
        t_ss = decode_matrix(result.results["t_ss"])
        assert np.allclose(t_r, np.diag([0.0, 1.0, 0.0]), atol=1e-9)
        assert np.allclose(t_m, np.zeros((3, 3)), atol=1e-9)
        assert np.allclose(t_ss, np.diag([-1.0, 0.0, 0.0]), atol=1e-9)

    def test_decompose_without_sigma_constructs_one(self):
        problem = parse_input(
            payload(
                kind="decompose",
                t=enc_matrix(np.diag([-1.0, 1.0, 0.0])),
                omega=enc_matrix(np.diag([0.0, 1.0, 1.0])),
            )
        )
        result = run_command("decompose", problem)
        assert result.status == "ok"
        assert result.diagnostics["sigma_provided"] is False
        assert np.allclose(decode_matrix(result.results["sigma"]), np.diag([1, 1, 0]))

    def test_measure_command(self):
        problem = parse_input(
            payload(
                kind="measure",
                atoms=["a", "b", "c"],
                mu=enc_measure([3 + 1j, 2.0, 0.0]),
                nu=enc_measure([0.0, 1.0, 2.0]),
            )
        )
        result = run_command("measure", problem)
        assert result.status == "ok"
        mu_a = result.results["mu_a"]
        mu_s = result.results["mu_s"]
        assert mu_a == [[0.0, 0.0], [2.0, 0.0], [0.0, 0.0]]
        assert mu_s == [[3.0, 1.0], [0.0, 0.0], [0.0, 0.0]]
        assert result.results["support"] == ["b", "c"]

    def test_check_membership(self):
        problem = parse_input(
            payload(
                kind="check",
                check="membership",
                sigma=enc_matrix(np.diag([1.0, 1.0, 0.0])),
                t=enc_matrix(np.diag([-1.0, 1.0, 0.0])),
            )
        )
        result = run_command("check", problem)
        assert result.status == "ok" and result.results["result"] is True

    def test_check_omega_bounded_reports_constant(self):
        problem = parse_input(
            payload(
                kind="check",
                check="omega-bounded",
                t=enc_matrix(np.diag([0.0, 1.0, 0.0])),
                omega=enc_matrix(np.diag([0.0, 1.0, 1.0])),
            )
        )
        result = run_command("check", problem)
        assert result.results["result"] is True
        assert result.results["constant"] == pytest.approx(1.0)

    def test_domain_error_not_psd(self):
        problem = parse_input(
            payload(
                kind="decompose-nonneg",
                sigma=enc_matrix(np.diag([-1.0, 1.0])),
                omega=enc_matrix(np.eye(2)),
            )
        )
        result = run_command("decompose-nonneg", problem)
        assert result.status == "error"
        assert result.error["code"] == "NOT_PSD"

    def test_domain_error_not_dominating(self):
        problem = parse_input(
            payload(
                kind="decompose",
                t=enc_matrix(np.diag([-1.0, 1.0, 0.0])),
                omega=enc_matrix(np.diag([0.0, 1.0, 1.0])),
                sigma=enc_matrix(np.diag([0.0, 1.0, 1.0])),
            )
        )
        result = run_command("decompose", problem)
        assert result.status == "error"
        assert result.error["code"] == "NOT_DOMINATING"

    def test_kind_subcommand_mismatch(self):
        problem = parse_input(GOLDEN_DECOMPOSE)
        with pytest.raises(ParseError):
            run_command("classify", problem)

    def test_selftest(self):
        result = run_command("selftest", None)
        assert result.status == "ok"
        assert result.results["golden_passed"] == result.results["golden_total"]
        assert result.results["property_passed"] == result.results["property_total"]
        assert result.results["failures"] == []


class TestEmitOutput:
    def test_round_trip(self):
        problem = parse_input(GOLDEN_DECOMPOSE)
        result = run_command("decompose", problem)
        for pretty in (False, True):
            text = emit_output(result, pretty=pretty)
            decoded = json.loads(text)
            assert decoded == result.to_obj()

    def test_numbers_survive_round_trip_exactly(self):
        problem = parse_input(
            payload(
                kind="classify",
                t=enc_matrix(np.array([[1 / 3 + (1 / 7) * 1j]])),
            )
        )
        result = run_command("classify", problem)
        decoded = json.loads(emit_output(result))
        assert decoded["results"]["c"] == result.results["c"]

    def test_deterministic_bytes(self):
        problem = parse_input(GOLDEN_DECOMPOSE)
        first = emit_output(run_command("decompose", problem))
        second = emit_output(run_command("decompose", parse_input(GOLDEN_DECOMPOSE)))
        assert first == second


class TestMain:
    def run(self, argv, stdin: bytes, capsysbinary):
        import io
        import sys

        old = sys.stdin
        sys.stdin = type("S", (), {"buffer": io.BytesIO(stdin)})()
        try:
            code = main(argv)
        finally:
            sys.stdin = old
        out, _ = capsysbinary.readouterr()
        return code, out

    def test_stdin_stdout_golden(self, capsysbinary):
        code, out = self.run(["decompose"], GOLDEN_DECOMPOSE, capsysbinary)
        assert code == 0
        decoded = json.loads(out)
        assert decoded["status"] == "ok"
        assert np.allclose(decode_matrix(decoded["results"]["t_r"]), np.diag([0, 1, 0]))

    def test_file_io(self, tmp_path):
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        src.write_bytes(GOLDEN_DECOMPOSE)
        assert main(["decompose", "-i", str(src), "-o", str(dst)]) == 0
        decoded = json.loads(dst.read_bytes())
        assert decoded["status"] == "ok"

    def test_parse_error_exit_1(self, capsysbinary):
        code, out = self.run(["decompose"], b"{broken", capsysbinary)
        assert code == 1
        decoded = json.loads(out)
        assert decoded["status"] == "error"
        assert decoded["error"]["code"] == "MALFORMED_JSON"

    def test_domain_error_exit_2(self, capsysbinary):
        bad = payload(
            kind="decompose-nonneg",
            sigma=enc_matrix(np.diag([-1.0, 1.0])),
            omega=enc_matrix(np.eye(2)),
        )
        code, out = self.run(["decompose-nonneg"], bad, capsysbinary)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "NOT_PSD"

    def test_lapack_failure_is_numerical_failure(self, capsysbinary, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        doc = payload(
            kind="decompose",
            t=enc_matrix([[1.0, 2j], [0.5, -1.0]]),
            omega=enc_matrix(np.diag([0.0, 1.0])),
        )
        code, out = self.run(["decompose"], doc, capsysbinary)
        assert code == 2
        decoded = json.loads(out)  # one JSON document, no traceback
        assert decoded["status"] == "error"
        assert decoded["error"] == {"code": "NUMERICAL_FAILURE", "message": "SVD did not converge"}

    def test_usage_error_exit_1(self, capsysbinary):
        assert main(["no-such-command"]) == 1

    def test_identical_bytes_across_runs(self, capsysbinary):
        code1, out1 = self.run(["decompose"], GOLDEN_DECOMPOSE, capsysbinary)
        code2, out2 = self.run(["decompose"], GOLDEN_DECOMPOSE, capsysbinary)
        assert (code1, out1) == (code2, out2)

    def test_tol_flag_wins_over_json_and_env(self, capsysbinary, monkeypatch):
        monkeypatch.setenv("FORMLEB_TOL", "1e-6")
        body = payload(kind="classify", t=[[[1, 0]]], tol={"rank_rel": 1e-7})
        code, out = self.run(["classify", "--tol", "1e-5"], body, capsysbinary)
        assert code == 0
        assert json.loads(out)["diagnostics"]["tolerance"]["rank_rel"] == 1e-5

    def test_env_sets_default_tol(self, capsysbinary, monkeypatch):
        monkeypatch.setenv("FORMLEB_TOL", "1e-6")
        code, out = self.run(["classify"], payload(kind="classify", t=[[[1, 0]]]), capsysbinary)
        assert code == 0
        assert json.loads(out)["diagnostics"]["tolerance"]["rank_rel"] == 1e-6

    def test_json_tol_beats_env(self, capsysbinary, monkeypatch):
        monkeypatch.setenv("FORMLEB_TOL", "1e-6")
        body = payload(kind="classify", t=[[[1, 0]]], tol={"rank_rel": 1e-7})
        code, out = self.run(["classify"], body, capsysbinary)
        assert code == 0
        assert json.loads(out)["diagnostics"]["tolerance"]["rank_rel"] == 1e-7

    def test_pretty_output(self, capsysbinary):
        code, out = self.run(["classify", "--pretty"], payload(kind="classify", t=[[[1, 0]]]), capsysbinary)
        assert code == 0
        assert out.startswith(b"{\n")
        assert json.loads(out)["status"] == "ok"

    @pytest.mark.parametrize(
        "number",
        ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "1e400", "-1e400", "int-1e400"],
    )
    def test_non_finite_number_is_schema_violation(self, number, capsysbinary):
        body = ('{"kind": "classify", "t": [[[%s, 0]]]}' % number).encode()
        code, out = self.run(["classify"], body, capsysbinary)
        assert code == 1
        decoded = json.loads(out)  # exactly one JSON document
        assert decoded["error"]["code"] == "SCHEMA_VIOLATION"
        assert decoded["error"]["path"] == "t[0][0][0]"

    # finite entries whose sums and squares overflow inside the engine
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("kind", ["classify", "dominate", "decompose"])
    def test_overflow_is_non_finite(self, kind, capsysbinary):
        # the second is PSD: Re t and ||t|| overflow although t is finite
        for t in (np.array([[1e308, 1e308], [-1e308, 1.0]]), np.full((2, 2), 1e308)):
            fields = {"kind": kind, "t": enc_matrix(t)}
            if kind == "decompose":
                fields["omega"] = enc_matrix(np.eye(2))
            code, out = self.run([kind], payload(**fields), capsysbinary)
            assert code == 2
            decoded = json.loads(out)  # exactly one JSON document
            assert decoded["error"]["code"] == "NON_FINITE"


def _doc(kind, check=None, tol=None, **matrices):
    fields = {"kind": kind, **({"check": check} if check else {})}
    fields.update({key: enc_matrix(M) for key, M in matrices.items()})
    return payload(**fields, **({"tol": tol} if tol else {}))


_D = np.diag
# (subcommand, input document, SHA-256 of its canonical output). A refactor
# leaves every digest as it is; change one only with a deliberate change of
# output.
PINNED_OUTPUTS = {
    "decompose-readme": (
        "decompose",
        b"""{
  "kind": "decompose",
  "t":     [[[-1,0],[0,0],[0,0]], [[0,0],[1,0],[0,0]], [[0,0],[0,0],[0,0]]],
  "omega": [[[0,0],[0,0],[0,0]], [[0,0],[1,0],[0,0]], [[0,0],[0,0],[1,0]]],
  "sigma": [[[1,0],[0,0],[0,0]], [[0,0],[1,0],[0,0]], [[0,0],[0,0],[0,0]]]
}
""",
        "08ad38a28bf7803f07309e0dc983967de7d86b969062b7614cc0d031e1a13531",
    ),
    "decompose-constructed": (
        "decompose",
        _doc("decompose", t=[[1, 2j], [0.5, -1]], omega=_D([0.0, 1.0])),
        "2aede5863d9ed21f6b8831d67ba060bd9400117e58ca8c7f327e3bcf5abec176",
    ),
    "decompose-nonneg": (
        "decompose-nonneg",
        _doc("decompose-nonneg", sigma=_D([1.0, 1.0, 0.0]), omega=_D([0.0, 1.0, 1.0])),
        "fe00772bfbe293827cb6d96ab50d7495b4251c96af6b0184b83b138244c2cc30",
    ),
    "classify": (
        "classify",
        _doc("classify", t=np.diag([2.0, 1.0]) + 1j * np.array([[0.5, 0.2], [0.2, -0.3]])),
        # c = 0.3342329219213245, the boundedness constant of Im relative to Re
        "873a80bb76ec5241b621601d1c68793ab25745359d42de390ea21a52f48ade7e",
    ),
    "dominate": (
        "dominate",
        _doc("dominate", t=[[1.0, 2.0], [0.0, 1.0]]),
        "690da96fd9526244bbf28b7587677555f7144a2c46e8cd47f239d419f8a1e1bb",
    ),
    "measure": (
        "measure",
        payload(
            kind="measure",
            atoms=["a", "b", "c"],
            mu=enc_measure([3 + 1j, 2.0, 0.0]),
            nu=enc_measure([0.0, 1.0, 2.0]),
        ),
        "290e4ee05bf21b2ab87eb8241a34a81bef77134c2c9f5c240266150bf409156a",
    ),
    "check/membership": (
        "check",
        _doc("check", "membership", sigma=_D([1.0, 1.0, 0.0]), t=_D([-1.0, 1.0, 0.0])),
        "b02c86ad6ef9a8b6869272a6a1e465efc71c78a7d50349a7810593a586d4fbcc",
    ),
    "check/regular": (
        "check",
        _doc("check", "regular", t=_D([0.0, 1.0, 0.0]), omega=_D([0.0, 1.0, 1.0])),
        "081300d0b8d724c7c5778906492ece02bae556e73e4f0850c2ca22494f47fc6c",
    ),
    "check/strongly-singular": (
        "check",
        _doc(
            "check",
            "strongly-singular",
            t=_D([1.0, 0.0, 0.0]),
            omega=_D([0.0, 1.0, 1.0]),
            sigma=_D([1.0, 0.0, 0.0]),
        ),
        "796c7571448e564a25f01287446cf82aecde2fa04679461fab359b3e97573f2d",
    ),
    "check/mixed": (
        "check",
        _doc(
            "check",
            "mixed",
            t=_D([1.0, -1.0]),
            omega=[[1.0, 1.0], [1.0, 1.0]],
            alpha=[[1.0, 1.0], [1.0, 1.0]],
            beta=[[1.0, -1.0], [-1.0, 1.0]],
        ),
        "ba85dd4f5e2388071e0426f50d50236b80a7957b0a4acf72596aac4e26d13899",
    ),
    "check/ac": (
        "check",
        _doc("check", "ac", sigma=_D([0.0, 1.0, 0.0]), omega=_D([0.0, 1.0, 1.0])),
        "5b25e3ee5c79b0e1e5c53ad357996578a5edd4e08bf1be4fc662be867bad0ade",
    ),
    "check/singular-nonneg": (
        "check",
        _doc("check", "singular-nonneg", sigma=_D([1.0, 0.0, 0.0]), omega=_D([0.0, 1.0, 1.0])),
        "e64981873066363aead989521145ac79f66e560d66b5cf24dfb13a13165e6d4c",
    ),
    "check/singular-sufficient": (
        "check",
        _doc("check", "singular-sufficient", t=_D([1.0, 0.0, 0.0]), omega=_D([0.0, 1.0, 1.0])),
        "61808adf128800775e704d15d10472b6fde839fbb42aef57ad0ab9a19ba642e4",
    ),
    "check/omega-bounded": (
        "check",
        _doc("check", "omega-bounded", t=_D([0.0, 1.0, 0.0]), omega=_D([0.0, 1.0, 1.0])),
        "199517a7c9c7d72f3b39935fa6fe5eca59544b07893da60d12c5338aee2b109f",
    ),
    # both the problem-tolerance and the default-tolerance PSD checks fail
    "not-psd-omega": (
        "decompose-nonneg",
        _doc("decompose-nonneg", sigma=np.eye(3), omega=-np.eye(3)),
        "2bed3f6e01ff9601d11ac40f2274a85d0f08490f895f1ef956cf16e21c80b41f",
    ),
    # PSD at the default tolerance, not at the problem's psd_abs
    "not-psd-at-problem-tol": (
        "decompose-nonneg",
        _doc("decompose-nonneg", tol={"psd_abs": 1e-12}, sigma=_D([-5e-10, 1.0]), omega=np.eye(2)),
        "1f9fb4a1f90066b82022dbdaff0fbab30f2728483bb7f0b9e13bf082b0d6bbfe",
    ),
    # PSD at the problem's psd_abs, not at the default tolerance
    "not-psd-at-default-tol": (
        "decompose-nonneg",
        _doc(
            "decompose-nonneg", tol={"psd_abs": 1e-8}, sigma=_D([-5e-9, 1.0]), omega=np.eye(2)
        ),
        "1e9aad74f9d1b1edbcdd6262f0c6b34617e5244f0fffafc71c28f56ff5f056de",
    ),
    "selftest": (
        "selftest",
        None,
        "2fcdbc43499f37650c783f01f35ff981dfb687512f5515b018fead3b2c63b062",
    ),
}


def test_pinned_documents_cover_every_subcommand_and_check():
    commands = {cmd for cmd, _, _ in PINNED_OUTPUTS.values()}
    assert commands == set(KINDS) | {"selftest"}
    checks = {name.split("/")[1] for name in PINNED_OUTPUTS if name.startswith("check/")}
    assert checks == set(CHECK_KINDS)


@pytest.mark.parametrize("name", list(PINNED_OUTPUTS))
def test_output_bytes_pinned(name):
    cmd, raw, digest = PINNED_OUTPUTS[name]
    problem = parse_input(raw) if raw is not None else None
    out = emit_output(run_command(cmd, problem))
    assert hashlib.sha256(out).hexdigest() == digest


# -- bulk codec: parity with the per-entry reference -------------------------


def _ref_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError("SCHEMA_VIOLATION", path, "expected a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError("SCHEMA_VIOLATION", path, "expected a finite number")
    return number


def _ref_pair(value, path):
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError("SCHEMA_VIOLATION", path, "expected a [re, im] pair")
    return complex(_ref_number(value[0], f"{path}[0]"), _ref_number(value[1], f"{path}[1]"))


def ref_parse_matrix(value, path):
    """The per-entry decoder the bulk one replaces."""
    if not isinstance(value, list) or not value:
        raise ParseError("SCHEMA_VIOLATION", path, "expected a non-empty matrix")
    n = len(value)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise ParseError("SCHEMA_VIOLATION", f"{path}[{i}]", "expected a matrix row")
        if len(row) != n:
            raise ParseError(
                "DIM_MISMATCH",
                f"{path}[{i}]",
                f"matrix must be square: row {i} has {len(row)} entries, expected {n}",
            )
        rows.append([_ref_pair(entry, f"{path}[{i}][{j}]") for j, entry in enumerate(row)])
    return np.array(rows, dtype=complex)


def ref_parse_measure(value, path):
    if not isinstance(value, list) or not value:
        raise ParseError("SCHEMA_VIOLATION", path, "expected a non-empty array")
    return np.array([_ref_pair(entry, f"{path}[{i}]") for i, entry in enumerate(value)], dtype=complex)


def ref_serialize(obj, indent, level):
    """The per-number encoder the template one replaces."""
    pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
    endpad = "" if indent is None else "\n" + " " * (indent * level)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite number in output")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, list):
        if not obj:
            return "[]"
        inner = ("," + pad).join(ref_serialize(v, indent, level + 1) for v in obj)
        return f"[{pad}{inner}{endpad}]"
    colon = ":" if indent is None else ": "
    inner = ("," + pad).join(
        f"{json.dumps(k, ensure_ascii=False)}{colon}{ref_serialize(v, indent, level + 1)}"
        for k, v in sorted(obj.items())
    )
    return f"{{{pad}{inner}{endpad}}}" if obj else "{}"


def _outcome(decode, value):
    try:
        return decode(value, "m")
    except ParseError as exc:
        return (exc.code, exc.path, str(exc))


numbers = st.one_of(
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([2**63 + 1, 2**53 + 1, -0.0, 5e-324, 1.7976931348623157e308]),
)
junk = st.one_of(
    st.sampled_from([10**400, -(10**400), math.nan, math.inf, -math.inf, True, False, None]),
    st.text(max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(), max_size=2),
    st.lists(numbers, max_size=3),
)


def mostly(good, bad, odds=20):
    """good odds - 1 times in odds, bad otherwise."""
    return st.integers(1, odds).flatmap(lambda k: bad if k == odds else good)


leaves = mostly(numbers, junk)
valid_pairs = st.lists(numbers, min_size=2, max_size=2)
bad_pairs = st.one_of(junk, st.lists(leaves, min_size=1, max_size=3))
pairs = mostly(st.lists(leaves, min_size=2, max_size=2), bad_pairs)
measures = mostly(st.lists(pairs, max_size=5), junk)
bad_rows = st.one_of(junk, st.lists(pairs, max_size=5))
square = st.integers(0, 4).flatmap(
    lambda n: st.lists(
        mostly(st.lists(pairs, min_size=n, max_size=n), bad_rows, 8), min_size=n, max_size=n
    )
)
ragged = st.lists(st.lists(valid_pairs, max_size=5), min_size=1, max_size=4)
matrices = mostly(square, st.one_of(junk, ragged), 8)


class TestCodecParity:
    @settings(max_examples=300, deadline=None)
    @given(value=matrices)
    def test_matrix_decode(self, value):
        self.check(_parse_matrix, ref_parse_matrix, value)

    @settings(max_examples=300, deadline=None)
    @given(value=measures)
    def test_measure_decode(self, value):
        self.check(_parse_measure, ref_parse_measure, value)

    @staticmethod
    def check(decode, reference, value):
        got, want = _outcome(decode, value), _outcome(reference, value)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.dtype == np.complex128 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()  # every bit, -0.0 included

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.sampled_from([(1,), (3,), (1, 1), (2, 2), (4, 4)]),
        data=st.data(),
        finite=st.integers(0, 9).map(bool),  # one draw in ten may hold NaN or an infinity
    )
    def test_encode(self, shape, data, finite):
        extremes = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
        floats = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from(extremes if finite else extremes + [math.nan, math.inf, -math.inf]),
        )
        flat = data.draw(st.lists(floats, min_size=2 * math.prod(shape), max_size=2 * math.prod(shape)))
        array = np.array(flat).reshape(shape + (2,))
        encoded = {"m": _Pairs(array.view(complex)[..., 0]), "c": flat[0]}
        result = ResultOutput("x", "ok", None, encoded, {"n": 1})
        plain = ResultOutput("x", "ok", None, {"m": array.tolist(), "c": flat[0]}, {"n": 1})
        for indent, pretty in ((None, False), (2, True)):
            try:
                want = (ref_serialize(plain.to_obj(), indent, 0) + "\n").encode()
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    emit_output(result, pretty=pretty)
            else:
                assert emit_output(result, pretty=pretty) == want


# -- any bytes in, one JSON document out --------------------------------------

SURROGATE_KEY = b'{"\\ud800": 1}'
SURROGATE_ATOM = payload(kind="measure", atoms=["\ud800", "b"], mu=[[1, 0], [2, 0]], nu=[[1, 0], [0, 0]])
DEEP = b"[" * 200000


def run_file(tmp, cmd, raw, capsysbinary):
    """(exit code, stdout) of `formleb cmd --input FILE` for a file holding raw."""
    src = tmp / "in.json"
    src.write_bytes(raw)
    code = main([cmd, "--input", str(src)])
    out, _ = capsysbinary.readouterr()
    return code, out


def one_document(out: bytes) -> dict:
    text = out.decode("utf-8")  # strict: a lone surrogate cannot be written
    assert text.endswith("\n") and text.count("\n") == 1
    return json.loads(text)  # rejects trailing data


@pytest.mark.parametrize(
    "cmd, raw, code, error",
    [
        ("classify", DEEP, 1, ("MALFORMED_JSON", "", "input nests too deeply")),
        ("classify", SURROGATE_KEY, 1, ("SCHEMA_VIOLATION", "\ud800", "unknown field")),
        ("measure", SURROGATE_ATOM, 0, None),
    ],
    ids=["deep-nesting", "surrogate-key", "surrogate-atom"],
)
def test_hostile_documents(tmp_path, capsysbinary, cmd, raw, code, error):
    got, out = run_file(tmp_path, cmd, raw, capsysbinary)
    doc = one_document(out)
    assert got == code
    if error is None:
        assert doc["results"]["support"] == ["\ud800"]
    else:
        assert (doc["error"]["code"], doc["error"]["path"], doc["error"]["message"]) == error


def test_integer_past_the_string_limit(tmp_path, capsysbinary):
    # 5,001 digits: json.loads raises a plain ValueError past Python's
    # 4,300-digit int-string limit, not a JSONDecodeError
    raw = b'{"kind":"classify","t":1' + b"0" * 5000 + b"}"
    got, out = run_file(tmp_path, "classify", raw, capsysbinary)
    error = one_document(out)["error"]
    assert got == 1
    assert (error["code"], error["path"]) == ("MALFORMED_JSON", "")
    assert error["message"].startswith("input is not valid JSON: ")


PINNED_DOCS = [(cmd, raw) for cmd, raw, _ in PINNED_OUTPUTS.values() if raw is not None]


@st.composite
def mutated_documents(draw):
    """(subcommand, a pinned document with a few bytes replaced, inserted or deleted)."""
    cmd, raw = draw(st.sampled_from(PINNED_DOCS))
    doc = bytearray(raw)
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(doc)))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        if op == "insert" or i == len(doc):
            doc.insert(i, draw(st.integers(0, 255)))
        elif op == "replace":
            doc[i] = draw(st.integers(0, 255))
        else:
            del doc[i]
    return cmd, bytes(doc)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.one_of(st.tuples(st.sampled_from(KINDS), st.binary(max_size=64)), mutated_documents()))
@example(case=("classify", DEEP))
@example(case=("classify", SURROGATE_KEY))
@example(case=("measure", SURROGATE_ATOM))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # mutated numbers may overflow in the engine
def test_fuzz_main(tmp_path, capsysbinary, case):
    cmd, raw = case
    code, out = run_file(tmp_path, cmd, raw, capsysbinary)
    doc = one_document(out)
    assert code in (0, 1, 2)
    assert doc["status"] == ("ok" if code == 0 else "error")
