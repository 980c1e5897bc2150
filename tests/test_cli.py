import ast
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import genmeans
from genmeans import (
    FLOAT64,
    MatrixWindow,
    PresetSpec,
    RATIONAL,
    SequenceWindow,
    associate_row,
    cli,
    compactness,
    identity,
    operators,
    preset,
)
from genmeans.cli import main
from genmeans.serialize import (
    canonical_number_from_json,
    matrix_to_json,
    sequence_from_json,
    scalar_to_json,
    sequence_to_json,
)


@pytest.fixture
def ones_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(sequence_to_json(SequenceWindow((F(1),) * 16, "zero"))))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_transform_pipeline_smoke(tmp_path, capsys, ones_file):
    out_path = tmp_path / "y.json"
    code = main(["transform", "--preset", "euler", "--alpha", "0.5", "--m", "2",
                 "--n", "16", "--input", ones_file, "--output", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert len(report["result"]["sequence"]["values"]) == 16
    assert report["backend"] == "rational"
    assert len(report["job_hash"]) == 64


def test_transform_then_inverse_round_trip(tmp_path, capsys, ones_file):
    y_path = tmp_path / "y.json"
    code = main(["transform", "--preset", "euler", "--alpha", "1/2", "--n", "16",
                 "--input", ones_file, "--output", str(y_path)])
    assert code == 0
    report = json.loads(y_path.read_text())
    seq_doc = report["result"]["sequence"]
    x_path = tmp_path / "y_seq.json"
    x_path.write_text(json.dumps(seq_doc))
    code, out = run(capsys, "inverse-transform", "--preset", "euler", "--alpha", "1/2",
                    "--n", "16", "--input", str(x_path))
    assert code == 0
    back = sequence_from_json(json.loads(out)["result"]["sequence"])
    assert back.values == (F(1),) * 16


def test_norm_command(capsys, ones_file):
    code, out = run(capsys, "norm", "--n", "16", "--m", "1", "--input", ones_file)
    assert code == 0
    result = json.loads(out)["result"]["norm"]
    assert result["value"] == {"num": "1", "den": "1"}
    assert result["arg_index"] == 0


def test_basis_command(capsys):
    code, out = run(capsys, "basis", "--j", "3", "--preset", "euler", "--alpha", "1/2",
                    "--n", "8")
    assert code == 0
    result = json.loads(out)["result"]
    transformed = [canonical_number_from_json(v) for v in result["transformed"]["values"]]
    assert transformed == ["0/1"] * 3 + ["1/1"] + ["0/1"] * 4


def test_dual_command(tmp_path, capsys):
    a = SequenceWindow((F(1), F(2)) + (F(0),) * 14, "zero")
    path = tmp_path / "a.json"
    path.write_text(json.dumps(sequence_to_json(a)))
    code, out = run(capsys, "dual", "--dual", "beta", "--space", "c0",
                    "--input", str(path), "--n", "16")
    assert code == 0
    assert json.loads(out)["result"]["verdict"]["status"] == "satisfied"


@pytest.mark.parametrize("backend", [RATIONAL, FLOAT64], ids=lambda b: b.mode)
@pytest.mark.parametrize("dual", ["alpha", "beta", "gamma"])
def test_dual_command_makes_one_toeplitz_solve(dual, backend, tmp_path, capsys, monkeypatch):
    # the zero tail is the membership certificate: the one solve is the
    # report's associate row
    solves = []
    solve = operators._toeplitz_solve

    def counting_solve(*args):
        solves.append(len(args[1]))
        return solve(*args)

    monkeypatch.setattr(operators, "_toeplitz_solve", counting_solve)
    a = SequenceWindow((F(1), F(-3, 4), F(5, 2)) + (F(0),) * 5, "zero")
    path = tmp_path / "a.json"
    path.write_text(json.dumps(sequence_to_json(a)))
    scalar = "rational" if backend is RATIONAL else "f64"
    code, out = run(capsys, "dual", "--dual", dual, "--preset", "euler", "--alpha", "1/3",
                    "--m", "2", "--n", "8", "--scalar", scalar, "--input", str(path))
    assert code == 0
    assert solves == [3]
    p = preset(PresetSpec("euler", alpha=backend.convert(F(1, 3))), 8, m=2, backend=backend)
    R = associate_row(p, SequenceWindow(map(backend.convert, a), "zero"))
    result = json.loads(out)["result"]
    assert result["associate_row"] == list(map(scalar_to_json, R))
    assert result["verdict"]["status"] == "satisfied"
    assert result["verdict"]["evidence"] is None


def test_chi_command_computes_the_estimate_once(tmp_path, capsys, monkeypatch):
    # the compactness verdict is read off the reported estimate
    calls = []
    chi_norm = compactness.chi_norm

    def counting_chi_norm(*args):
        calls.append(args[2])
        return chi_norm(*args)

    monkeypatch.setattr(compactness, "chi_norm", counting_chi_norm)
    monkeypatch.setattr(cli, "chi_norm", counting_chi_norm)
    path = tmp_path / "A.json"
    path.write_text(json.dumps(matrix_to_json(
        MatrixWindow(((F(1), F(2), F(0), F(0)), (F(0), F(1), F(0), F(0))), "zero"))))
    code, out = run(capsys, "chi", "--matrix", str(path), "--target", "c", "--n", "4")
    assert code == 0
    assert calls == ["c"]
    assert json.loads(out)["result"]["compactness"]["status"] == "satisfied"


def test_chi_command_with_supplied_associate(tmp_path, capsys):
    # serialization drops row generators, so a structural file only bounds the
    # gauge from its stored window: values reported, status honest
    path = tmp_path / "atilde.json"
    path.write_text(json.dumps(matrix_to_json(identity(8))))
    code, out = run(capsys, "chi", "--atilde", str(path), "--target", "c0", "--n", "8")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["chi"]["lower"] == {"num": "1", "den": "1"}
    assert result["chi"]["status"] == "indeterminate"
    assert result["compactness"]["status"] == "indeterminate"
    # the same job under --strict signals the indeterminate verdict
    assert main(["chi", "--atilde", str(path), "--target", "c0", "--n", "8",
                 "--strict"]) == 3


def test_matclass_structural_file_without_generator_is_indeterminate(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(matrix_to_json(MatrixWindow(((F(1),),) * 8, "structural"))))
    argv = ["matclass", "--preset", "identity", "--m", "0", "--n", "4",
            "--matrix", str(path), "--source", "c", "--target", "c0"]
    code, out = run(capsys, *argv)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["conditions"]["4.23"]["verdict"]["status"] == "indeterminate"
    assert result["overall"]["status"] == "indeterminate"
    assert main(argv + ["--strict"]) == 3


def test_chi_command_zero_tail_matrix(tmp_path, capsys):
    A = MatrixWindow(((F(1), F(2), F(0), F(0)), (F(0), F(1), F(0), F(0))), "zero")
    path = tmp_path / "A.json"
    path.write_text(json.dumps(matrix_to_json(A)))
    code, out = run(capsys, "chi", "--matrix", str(path), "--target", "c0", "--n", "4")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["chi"]["lower"] == {"num": "0", "den": "1"}
    assert result["chi"]["status"] == "exact"
    assert result["compactness"]["status"] == "satisfied"


def test_chi_command_uv_preset(tmp_path, capsys):
    A = MatrixWindow(((F(1), F(0), F(1)), (F(0), F(2), F(0))), "zero")
    path = tmp_path / "A.json"
    path.write_text(json.dumps(matrix_to_json(A)))
    code, out = run(capsys, "chi", "--preset", "uv", "--u", "ones", "--v", "ones",
                    "--matrix", str(path), "--target", "c0", "--n", "8")
    assert code == 0
    result = json.loads(out)["result"]
    assert {"lower", "upper", "status"} <= set(result["chi"])
    assert result["compactness"]["status"] == "satisfied"


def test_numbers_past_the_int_str_digit_limit_read_and_echo(tmp_path, capsys):
    # a 5,000-digit numerator is past CPython's default int/str limit
    big = "7" * 5000
    u = tmp_path / "u.json"
    u.write_text(json.dumps({"values": [{"num": big, "den": "3"}] + ["1"] * 7,
                             "tail": "zero"}))
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"values": [{"num": big, "den": "1"}, "1"], "tail": "zero"}))
    code, out = run(capsys, "transform", "--preset", "uv", "--u", f"@{u}", "--v", "ones",
                    "--n", "2", "--input", str(x))
    assert code == 0
    report = json.loads(out)
    assert report["job"]["u"][0] == f"{big}/3"
    assert report["job"]["input"]["values"][0]["num"] == big
    assert max(len(v["num"]) for v in report["result"]["sequence"]["values"]) > 4300


def test_params_file_input(tmp_path, capsys, ones_file):
    from genmeans import identity_triple
    from genmeans.serialize import params_to_json

    p = identity_triple(16, m=1)
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params_to_json(p)))
    code, out = run(capsys, "norm", "--params", str(params_path), "--input", ones_file)
    assert code == 0
    assert json.loads(out)["result"]["norm"]["value"] == {"num": "1", "den": "1"}


@pytest.mark.parametrize("field, value, message", [
    ("m", "x", "expected an integer >= 0"),
    ("m", -1, "expected an integer >= 0"),
    ("m", 1.5, "expected an integer >= 0"),
    ("order", "16", "expected an integer >= 1"),
    ("order", 0, "expected an integer >= 1"),
    ("order", True, "expected an integer >= 1"),
])
def test_bad_params_file_field_exit_code(tmp_path, capsys, ones_file, field, value, message):
    from genmeans import identity_triple
    from genmeans.serialize import params_to_json

    doc = dict(params_to_json(identity_triple(16, m=1)), **{field: value})
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(doc))
    assert main(["norm", "--params", str(params_path), "--input", ones_file]) == 2
    assert capsys.readouterr().err.startswith(f"error: params.{field}: {message}")


def _invalid_params_file(tmp_path, case):
    """An identity params document (n = 16) with one condition broken."""
    from genmeans import identity_triple
    from genmeans.serialize import params_to_json

    doc = params_to_json(identity_triple(16, m=1))
    zero = {"num": "0", "den": "1"}
    doc = {"t-zero": dict(doc, t=doc["t"][:3] + [zero] + doc["t"][4:]),
           "s0-zero": dict(doc, s=[zero] + doc["s"][1:]),
           "short-r": dict(doc, r=doc["r"][:2])}[case]
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    return str(path)


INVALID_PARAMS_ERRORS = {
    "t-zero": "error: t[3] = 0 (window must be zero-free)\n",
    "s0-zero": "error: s[0] = 0 (leading entry must be nonzero)\n",
    "short-r": "error: r window has 2 terms, needs at least 16\n",
}


@pytest.mark.parametrize("case", sorted(INVALID_PARAMS_ERRORS))
@pytest.mark.parametrize("command", ["transform", "matclass"])
def test_invalid_params_file_exits_2_with_its_violation(tmp_path, capsys, ones_file,
                                                        command, case):
    matrix = tmp_path / "A.json"
    matrix.write_text(json.dumps(matrix_to_json(MatrixWindow(((F(1),),), "zero"))))
    operand = (["--input", ones_file] if command == "transform" else
               ["--matrix", str(matrix), "--source", "c0", "--target", "c0"])
    argv = [command, *operand, "--params", _invalid_params_file(tmp_path, case)]
    assert main(argv) == 2
    assert capsys.readouterr().err == INVALID_PARAMS_ERRORS[case]


@pytest.mark.parametrize("missing_input, scalar", [(True, "rational"), (False, "f64")])
def test_invalid_params_file_is_reported_before_other_errors(tmp_path, capsys, ones_file,
                                                             missing_input, scalar):
    # the params are rejected when they are read, before the input file is
    # opened and before their scalar mode is compared with --scalar
    source = str(tmp_path / "missing.json") if missing_input else ones_file
    argv = ["transform", "--input", source, "--scalar", scalar,
            "--params", _invalid_params_file(tmp_path, "t-zero")]
    assert main(argv) == 2
    assert capsys.readouterr().err == INVALID_PARAMS_ERRORS["t-zero"]


@pytest.mark.parametrize("command", [["norm", "--input"], ["dual", "--dual", "beta", "--input"]])
def test_rational_params_file_rejects_f64_inputs(tmp_path, capsys, ones_file, command):
    # the inputs would be floats against rational parameters: exit 2, not a traceback
    from genmeans import identity_triple
    from genmeans.serialize import params_to_json

    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params_to_json(identity_triple(16, m=1))))
    argv = ["--params", str(params_path), "--scalar", "f64"]
    assert main(command + [ones_file] + argv) == 2
    assert capsys.readouterr().err == (
        "error: params: rational parameters cannot take --scalar f64\n")


def test_float_params_file_names_its_backend_in_the_report(tmp_path, capsys):
    # float parameters round every result on f64 whatever --scalar says, so a
    # report names their backend, in the CSV header as in JSON
    from genmeans import identity_triple
    from genmeans.serialize import params_to_json

    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params_to_json(identity_triple(4, backend=FLOAT64))))
    x = tmp_path / "x.json"
    x.write_text(json.dumps(sequence_to_json(SequenceWindow((F(1), F(1, 3), F(0), F(0)), "zero"))))
    matrix = tmp_path / "A.json"
    matrix.write_text(json.dumps(matrix_to_json(MatrixWindow(((F(1),), (F(1, 2),)), "zero"))))
    params = ["--params", str(params_path)]
    code, out = run(capsys, "transform", "--input", str(x), *params)
    report = json.loads(out)
    assert (code, report["backend"]) == (0, "float")
    assert report["result"]["sequence"]["values"][:2] == ["1.0", "-0.6666666666666666"]
    code, out = run(capsys, "transform", "--input", str(x), "--format", "csv", *params)
    assert (code, out.splitlines()[1]) == (0, "# backend=float")
    code, out = run(capsys, "chi", "--matrix", str(matrix), "--target", "c0", *params)
    assert (code, json.loads(out)["backend"]) == (0, "float")


@pytest.mark.parametrize("argv", [["selftest"], ["basis", "--j", "0", "--n", "2"]])
def test_every_package_error_exits_through_one_boundary(monkeypatch, capsys, argv):
    # the base class is caught, so an error class added later exits 2 too
    def fail(error):
        def handler(*args):
            raise error
        return handler

    monkeypatch.setitem(cli.COMMANDS, argv[0], fail(genmeans.GenmeansError("boom")))
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: boom\n"
    monkeypatch.setitem(cli.COMMANDS, argv[0], fail(genmeans.InconsistencyError("off")))
    assert main(argv) == 4
    assert capsys.readouterr().err == "internal inconsistency: off\n"


def test_params_file_tolerance_accepts_its_bounds(tmp_path, capsys, ones_file):
    # a params file written before the tolerance became a constant still runs,
    # and its leftover "tolerance" key, whatever its value, changes no byte
    from genmeans import identity_triple
    from genmeans.serialize import params_to_json

    matrix = tmp_path / "A.json"
    matrix.write_text(json.dumps(matrix_to_json(MatrixWindow(((F(1),), (F(1, 2),)), "zero"))))
    params_path = tmp_path / "params.json"
    doc = params_to_json(identity_triple(16, m=1))
    for argv in (["norm", "--input", ones_file],
                 ["matclass", "--matrix", str(matrix), "--source", "c", "--target", "c0"]):
        argv += ["--params", str(params_path)]
        params_path.write_text(json.dumps(doc))
        code, without_key = run(capsys, *argv)
        assert code == 0 and '"tolerance"' not in without_key
        for value in ("nan", 0, 1e-6, [0]):
            params_path.write_text(json.dumps(dict(doc, tolerance=value)))
            assert run(capsys, *argv) == (0, without_key), value


@pytest.mark.parametrize("space", ["bogus", ["c0"]])
@pytest.mark.parametrize("command", [["norm"], ["transform"], ["dual", "--dual", "beta"]])
def test_bad_space_label_in_input_exit_code(tmp_path, capsys, command, space):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"values": ["1", "2"], "tail": "zero", "space": space}))
    assert main(command + ["--n", "2", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: input.space: space must be one of ('c0', 'c', 'l_inf')\n")


def test_matclass_command(tmp_path, capsys):
    A = MatrixWindow(((F(1), F(0), F(2), F(0)),), "zero")
    path = tmp_path / "A.json"
    path.write_text(json.dumps(matrix_to_json(A)))
    code, out = run(capsys, "matclass", "--matrix", str(path), "--source", "l_inf",
                    "--target", "c0", "--n", "4")
    assert code == 0
    report = json.loads(out)["result"]
    assert report["overall"]["status"] == "satisfied"
    assert set(report["conditions"]) == {"4.18", "4.19"}


def test_selftest_command(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True


def test_validation_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"values": []}))  # missing tail
    code = main(["transform", "--n", "4", "--input", str(path)])
    assert code == 2


def test_malformed_json_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["transform", "--n", "4", "--input", str(path)]) == 2


def test_malformed_sequence_flag_file_exit_code(tmp_path, capsys, ones_file):
    path = tmp_path / "bad.json"
    path.write_text('{"values": [1, 2')
    assert main(["transform", "--preset", "uv", "--u", f"@{path}", "--v", "ones",
                 "--n", "2", "--input", ones_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --u: malformed JSON at line 1, column 17")
    assert "Traceback" not in err


# documents json.load cannot read: bytes that are not UTF-8, an int literal past
# CPython's 4,300-digit limit, and nesting past the recursion limit
UNREADABLE_JSON = {"not-utf8": b"\xff\xfe[1]", "long-int": b"1" * 5000,
                   "too-deep": b"[" * 100_000}


@pytest.mark.parametrize("flag", ["--input", "--matrix", "--params", "--u"])
@pytest.mark.parametrize("doc", sorted(UNREADABLE_JSON))
def test_unreadable_json_exits_2_through_every_flag(tmp_path, capsys, ones_file, doc, flag):
    path = tmp_path / "doc.json"
    path.write_bytes(UNREADABLE_JSON[doc])
    argv = {"--input": ["norm", "--n", "1", "--input", str(path)],
            "--matrix": ["matclass", "--n", "1", "--matrix", str(path),
                         "--source", "c0", "--target", "c0"],
            "--params": ["norm", "--params", str(path), "--input", ones_file],
            "--u": ["norm", "--preset", "uv", "--u", f"@{path}", "--v", "ones",
                    "--n", "1", "--input", ones_file]}[flag]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("flags", [["--matrix", "A.json", "--atilde", "B.json"], []])
def test_chi_needs_exactly_one_matrix_flag(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["chi", "--n", "4", "--target", "c0"] + flags)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "--atilde" in err


def test_strict_indeterminate_exit_code(tmp_path):
    a_path = tmp_path / "a.json"
    a_path.write_text(json.dumps(
        sequence_to_json(SequenceWindow((F(1),) * 8, "unknown"))))
    code = main(["dual", "--dual", "beta", "--input", str(a_path), "--n", "8",
                 "--strict"])
    assert code == 3
    assert main(["dual", "--dual", "beta", "--input", str(a_path), "--n", "8"]) == 0


def test_csv_json_value_agreement(tmp_path, capsys, ones_file):
    json_out = tmp_path / "y.json"
    csv_out = tmp_path / "y.csv"
    args = ["transform", "--preset", "euler", "--alpha", "1/2", "--n", "16",
            "--input", ones_file]
    assert main(args + ["--output", str(json_out)]) == 0
    assert main(args + ["--format", "csv", "--output", str(csv_out)]) == 0
    report = json.loads(json_out.read_text())
    json_values = [canonical_number_from_json(v)
                   for v in report["result"]["sequence"]["values"]]
    csv_lines = [line for line in csv_out.read_text().splitlines()
                 if line and not line.startswith("#")][1:]
    csv_values = [line.split(",")[1] for line in csv_lines]
    assert csv_values == json_values


def test_csv_rejected_for_nested_reports(tmp_path, ones_file):
    assert main(["norm", "--n", "16", "--input", ones_file, "--format", "csv"]) == 2


def test_float_backend_flag(capsys, tmp_path):
    x = SequenceWindow((1.0,) * 8, "zero")
    path = tmp_path / "x.json"
    path.write_text(json.dumps(sequence_to_json(x)))
    code, out = run(capsys, "transform", "--preset", "euler", "--alpha", "0.5",
                    "--n", "8", "--scalar", "f64", "--input", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["backend"] == "float"
    assert isinstance(report["result"]["sequence"]["values"][0], str)


@pytest.mark.parametrize("argv", [
    # rational: the identity preset at n = 2 reaches 8 parameter terms
    ["matclass", "--n", "2", "--source", "c0", "--target", "c0"],
    ["chi", "--n", "2", "--target", "c"],
    # f64: constructions run on the exact lift, which keeps only the n-term window
    ["matclass", "--n", "6", "--scalar", "f64", "--source", "c", "--target", "c"],
    ["chi", "--n", "6", "--scalar", "f64", "--target", "c0"],
])
def test_row_wider_than_parameter_window_exit_code(tmp_path, capsys, argv):
    A = MatrixWindow(((F(1),) * 12, (F(0),) * 11 + (F(2),)), "zero")
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(matrix_to_json(A)))
    assert main(argv + ["--matrix", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "support 12" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("scalar", ["rational", "f64"])
@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
def test_non_finite_scalar_exit_code(tmp_path, capsys, value, scalar):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"values": [value, "1"], "tail": "zero"}))
    assert main(["transform", "--n", "2", "--scalar", scalar, "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: input.values[0]: non-finite")


_BEYOND_DOUBLE = {"num": "1" + "0" * 400, "den": "1"}


@pytest.mark.parametrize("command, flag, doc, where", [
    (["transform", "--n", "2"], "--input",
     {"values": [_BEYOND_DOUBLE, "1"], "tail": "zero"}, "input.values[0]"),
    (["matclass", "--n", "2", "--source", "c", "--target", "c"], "--matrix",
     {"rows": [["1"], ["1", _BEYOND_DOUBLE]], "tail": "zero"}, "matrix.rows[1][1]"),
    (["chi", "--n", "2", "--target", "c0"], "--matrix",
     {"rows": [[_BEYOND_DOUBLE]], "tail": "zero"}, "matrix.rows[0][0]"),
])
def test_rational_beyond_double_range_exit_code(tmp_path, capsys, command, flag, doc, where):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(command + ["--scalar", "f64", flag, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {where}: value is beyond the double range\n"


def test_params_beyond_double_range_exit_code(tmp_path, capsys, ones_file):
    from genmeans import identity_triple
    from genmeans.serialize import params_to_json

    doc = params_to_json(identity_triple(16, m=1))
    doc.update(scalar="float", s=[_BEYOND_DOUBLE] + doc["s"][1:])
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(doc))
    assert main(["norm", "--params", str(params_path), "--input", ones_file]) == 2
    assert capsys.readouterr().err == "error: params.s[0]: value is beyond the double range\n"
    assert main(["norm", "--n", "16", "--preset", "euler", "--alpha", "1e400",
                 "--scalar", "f64", "--input", ones_file]) == 2
    assert capsys.readouterr().err.startswith("error: --alpha: cannot parse '1e400'")


_NEAR_MAX = {"values": ["1e308", "-1e308"], "tail": "zero"}
_NEAR_MAX_ROWS = {"kind": "window", "tail": "zero", "rows": [["1e308", "1e308"]]}


@pytest.mark.parametrize("command, flag, doc", [
    (["transform"], "--input", _NEAR_MAX),
    (["norm"], "--input", _NEAR_MAX),
    (["matclass", "--source", "c0", "--target", "c0"], "--matrix", _NEAR_MAX_ROWS),
    (["chi", "--target", "c0"], "--atilde", _NEAR_MAX_ROWS),
], ids=["transform", "norm", "matclass", "chi"])
def test_f64_result_beyond_double_range_exit_code(tmp_path, capsys, command, flag, doc):
    # f64 inputs in range whose results leave it: one error line, never a
    # traceback or a report holding "inf"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main(command + ["--scalar", "f64", "--n", "2", flag, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "f64" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_chi_report_window_is_plain_row_indices(tmp_path, capsys):
    # every estimate writes its window as JSON ints, one per trace value
    A = MatrixWindow(((F(1), F(2), F(0), F(0)), (F(0), F(1), F(0), F(0))), "zero")
    path = tmp_path / "A.json"
    path.write_text(json.dumps(matrix_to_json(A)))
    for target in ("c0", "c", "l_inf"):
        code, out = run(capsys, "chi", "--matrix", str(path), "--target", target, "--n", "4")
        assert code == 0
        result = json.loads(out)["result"]
        for estimate in (result["chi"], result["operator_norm"]):
            assert estimate["window"] == list(range(len(estimate["trace"])))
            assert all(type(n) is int for n in estimate["window"])


@pytest.mark.parametrize("tail", ["unknown", "structural"])
@pytest.mark.parametrize("target", ["c0", "l_inf"])
def test_chi_on_empty_associate_is_indeterminate(tmp_path, capsys, tail, target):
    path = tmp_path / "atilde.json"
    path.write_text(json.dumps({"kind": "window", "tail": tail, "rows": []}))
    argv = ["chi", "--n", "4", "--atilde", str(path), "--target", target]
    code, out = run(capsys, *argv)
    assert code == 0
    chi = json.loads(out)["result"]["chi"]
    assert chi["status"] == "indeterminate" and chi["note"] == "no rows"
    assert main(argv + ["--strict"]) == 3
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, where", [
    # a string is iterable, so "12" used to be read as the list [1, 2]
    (["transform", "--n", "2", "--input"], {"values": "12", "tail": "zero"}, "input.values"),
    (["matclass", "--n", "2", "--source", "c", "--target", "c", "--matrix"],
     {"rows": "12", "tail": "zero"}, "matrix.rows"),
    (["matclass", "--n", "2", "--source", "c", "--target", "c", "--matrix"],
     {"rows": ["12"], "tail": "zero"}, "matrix.rows[0]"),
])
def test_string_where_a_list_is_required_exit_code(tmp_path, capsys, command, doc, where):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(command + [str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {where}: expected a list, got str")


@pytest.mark.parametrize("flag, value", [("--window", "8"), ("--tolerance", "0")])
def test_removed_trend_flags_exit_code(capsys, ones_file, flag, value):
    # every estimate runs at the default trend window and the one tolerance
    with pytest.raises(SystemExit) as exc:
        main(["norm", "--n", "16", "--input", ones_file, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_bad_rational_in_input_exit_code(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"values": [{"num": [1], "den": "1"}, "1"], "tail": "zero"}))
    assert main(["norm", "--n", "2", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: input.values[0]: bad rational")


def test_scalar_flags_read_long_and_rational_text_on_both_backends(capsys):
    # a 5,000-digit denominator is past CPython's int/str limit; p/q is read
    # exactly, then rounded once on the float backend
    code, out = run(capsys, "basis", "--preset", "euler", "--alpha", "1/" + "3" * 5000,
                    "--n", "2", "--j", "0")
    assert code == 0 and json.loads(out)["job"]["alpha"] == "1/" + "3" * 5000
    code, out = run(capsys, "basis", "--preset", "uv", "--u", "1/2,1,1,1,1,1,1,1",
                    "--v", "ones", "--scalar", "f64", "--n", "2", "--j", "0")
    assert code == 0 and json.loads(out)["job"]["u"] == ["0.5"] + ["1.0"] * 7


# --- oracles stay out of the production modules ---------------------------------

ORACLES = {"binom", "compose", "invert_triangle", "toeplitz_inverse_coeffs",
           "difference_matrix", "difference_inverse", "weighted_mean_inverse",
           "mean_difference_inverse"}
PACKAGE = Path(genmeans.__file__).parent


def test_oracles_live_only_in_selfcheck():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "selfcheck.py":
            continue
        names, caches = set(), set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
                caches.update(node.name for d in node.decorator_list
                              if ast.unparse(d).split("(")[0].rsplit(".", 1)[-1] in ("lru_cache", "cache"))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(a.asname or a.name for a in node.names)
        assert not names & ORACLES, path.name
        assert not caches, path.name
    assert not ORACLES & set(dir(genmeans))


def test_cli_loads_selfcheck_only_for_selftest(tmp_path, ones_file):
    script = ("import sys\n"
              "from genmeans.cli import main\n"
              f"code = main(['transform', '--n', '16', '--input', {ones_file!r},"
              f" '--output', {str(tmp_path / 'y.json')!r}])\n"
              "print(code, 'genmeans.selfcheck' in sys.modules)\n")
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", script], stdout=subprocess.PIPE, check=True,
                          env={**os.environ, "PYTHONPATH": path}, text=True)
    assert done.stdout.split() == ["0", "False"]


# --- fuzz: no input escapes main ---------------------------------------------------
# Documents and flags are mostly well formed, so most runs pass validation and
# reach the commands; a quarter draw from the malformed values too.  --n <= 6 and
# --m <= 3 keep every run cheap.

GOOD_SCALARS = st.one_of(
    st.builds(lambda n, d: {"num": str(n), "den": str(d)}, st.integers(-3, 3), st.integers(1, 4)),
    st.sampled_from(("1", "0.5", "-0.25", "0")))
BAD_SCALARS = st.sampled_from(({"num": "1", "den": "0"}, {"num": "x", "den": "1"}, {"num": "1"},
                               "nan", "-inf", "1e400", "abc", 1.5, None, True, [], {}))
BAD_DOCUMENTS = st.sampled_from(([], "x", 3, {}, {"values": "12", "tail": "zero"},
                                 {"rows": [["1"]]}, {"r": []}))
COMMANDS = ("transform", "inverse-transform", "norm", "basis", "dual", "matclass", "chi")
SPACES = ("c0", "c", "l_inf")


@st.composite
def cli_runs(draw):
    """(argv, {file name: JSON document}) for one genmeans run."""
    clean = draw(st.integers(0, 3)) > 0

    def pick(good, bad=()):
        return draw(st.sampled_from(good if clean else good + bad))

    def scalars(count):
        return [draw(GOOD_SCALARS if clean else st.one_of(GOOD_SCALARS, BAD_SCALARS))
                for _ in range(count)]

    def rows_doc(n):
        rows = [scalars(k + 1 if clean else draw(st.integers(0, n + 1)))
                for k in range(draw(st.integers(1, n)))]
        return {"rows": rows, "tail": pick(("zero", "structural", "unknown"), ("none",))}

    def document(doc):
        return doc if clean or draw(st.booleans()) else draw(BAD_DOCUMENTS)

    files = {}
    n = pick((1, 2, 3, 4, 5, 6), (0, -1))
    m = pick((0, 1, 2, 3), (-1,))
    command = draw(st.sampled_from(COMMANDS * 3 + ("selftest",)))
    argv = [command]
    if command == "selftest":
        argv += ["--seed", str(draw(st.integers(0, 9)))]
    else:
        argv += ["--n", str(n), "--m", str(m)]
        source = draw(st.sampled_from(("uv", "euler", "aydin", "lambda", "identity", "params")))
        if source == "params":
            order = max(n, 1)
            width = draw(st.integers(order, 2 * order))
            files["params.json"] = document({
                "r": scalars(width), "s": scalars(width), "t": scalars(width), "m": max(m, 0),
                "order": order, "scalar": pick(("rational", "float"), ("complex",))})
            argv += ["--params", "params.json"]
        else:
            argv += ["--preset", source]
        if source in ("euler", "aydin"):
            argv += ["--alpha", pick(("1/2", "1/3", "0.25"), ("0", "1", "2", "x", "1/0", "1e400"))]
        for flag in {"uv": ("--u", "--v"), "lambda": ("--lam",)}.get(source, ()):
            steps = range(1, 4 * max(n, 1) + 1)
            value = pick(("ones", ",".join(map(str, steps)), "@seq.json"), ("1,,2", "0,1", "@none"))
            argv += [flag, value]
            if value == "@seq.json":
                files["seq.json"] = {"values": [str(k) for k in steps], "tail": "zero"}
    if command in ("transform", "inverse-transform", "norm", "dual"):
        length = max(n, 0) if clean else draw(st.integers(0, 7))
        x_doc = {"values": scalars(length), "tail": pick(("zero", "unknown"), ("structural",))}
        if draw(st.booleans()):
            x_doc["space"] = pick(SPACES, ("bogus", 3))
        files["x.json"] = document(x_doc)
        argv += ["--input", "x.json"]
    if command == "basis":
        argv += ["--j", str(draw(st.integers(-1, max(n, 1) - 1) if clean else st.integers(-2, 7)))]
    if command == "dual":
        argv += ["--dual", pick(("alpha", "beta", "gamma")), "--space", pick(SPACES)]
    if command in ("matclass", "chi"):
        files["a.json"] = document(rows_doc(max(n, 1)))
        argv += ["--target", pick(SPACES)]
        if command == "matclass":
            argv += ["--matrix", "a.json", "--source", pick(SPACES)]
        else:
            argv += [pick(("--matrix", "--atilde")), "a.json"]
    argv += ["--scalar", pick(("rational", "f64"))]
    for flag, good, bad in (("--format", ("json", "csv"), ("xml",)),
                            ("--output", ("out.json",), (".",))):
        if draw(st.booleans()):
            argv += [flag, pick(good, bad)]
    if draw(st.booleans()):
        argv.append("--strict")
    if not clean and draw(st.booleans()):
        argv.pop(draw(st.integers(0, len(argv) - 1)))
    return argv, files


@given(cli_runs())
def test_fuzzed_runs_exit_with_a_documented_code(run_spec):
    argv, files = run_spec
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in files.items():
            Path(tmp, name).write_text(json.dumps(doc), encoding="utf-8")
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:    # argparse rejects the argv
                    code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
