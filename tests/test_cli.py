"""CLI: schema validation, dispatch, canonical output, exit codes."""

import hashlib
import json

import numpy as np
import pytest

from formleb.cli import (
    CHECK_KINDS,
    KINDS,
    ParseError,
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
