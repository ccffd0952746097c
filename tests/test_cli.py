import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from logpoisson import cli
from logpoisson.cohomology import MAX_BASIS_SIZE, SliceWindow
from logpoisson.poly import MAX_POWER_DEGREE, parse_poly

EX1 = {
    "variables": ["x", "y"],
    "bracket": {"x,y": "x"},
    "log_generators": ["x"],
    "max_degree": 8,
}
EX2 = {
    "variables": ["x", "y"],
    "bracket": {"x,y": "x^2"},
    "log_generators": ["x^2"],
    "max_degree": 8,
}
EX3 = {
    "variables": ["x", "y", "z"],
    "bracket": {"y,z": "x*y*z"},
    "log_generators": ["x", "y", "z"],
    "max_degree": 6,
}


def run_main(args, doc=None, tmp_path=None):
    argv = list(args)
    if doc is not None:
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        argv += ["--input", str(path)]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# -- document parsing -----------------------------------------------------


def test_parse_spec_examples():
    spec = cli.parse_spec(json.dumps(EX1))
    assert spec.variables == ("x", "y")
    assert spec.bracket == ((0, 1, parse_poly("x", ["x", "y"])),)
    assert spec.max_degree == 8

    spec3 = cli.parse_spec(json.dumps(EX3))
    assert [g for g in spec3.log_generators] == [
        parse_poly(t, ["x", "y", "z"]) for t in ("x", "y", "z")
    ]


def test_parse_spec_reversed_key_is_negated():
    doc = dict(EX1, bracket={"y,x": "x"})
    spec = cli.parse_spec(json.dumps(doc))
    assert spec.bracket == ((0, 1, parse_poly("-x", ["x", "y"])),)


def test_parse_spec_errors():
    with pytest.raises(cli.SpecError):
        cli.parse_spec("{not json")
    with pytest.raises(cli.SpecError):
        cli.parse_spec(json.dumps(dict(EX1, bracket={"x,w": "x"})))
    with pytest.raises(cli.SpecError):
        cli.parse_spec(json.dumps(dict(EX1, bracket={"x,y": "x", "y,x": "x"})))
    with pytest.raises(cli.SpecError):
        cli.parse_spec(json.dumps(dict(EX1, bracket={"x,x": "x"})))
    with pytest.raises(cli.SpecError):
        cli.parse_spec(json.dumps(dict(EX1, bracket={"x,y": "x + $"})))
    with pytest.raises(cli.SpecError):
        cli.parse_spec(json.dumps(dict(EX1, max_degree=-1)))
    with pytest.raises(cli.SpecError):
        cli.parse_spec(json.dumps(dict(EX1, extra_field=1)))


def test_spec_round_trip():
    for doc in (EX1, EX2, EX3):
        spec = cli.parse_spec(json.dumps(doc))
        again = cli.parse_spec(json.dumps(cli.serialize_spec(spec)))
        assert spec == again


# -- commands --------------------------------------------------------------


def test_check_command(tmp_path):
    code, out = run_main(["check"], EX1, tmp_path)
    assert code == cli.EXIT_OK
    assert "log-symplectic: true" in out

    code, out = run_main(["check", "--format", "json"], EX2, tmp_path)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["log_symplectic"] == {"ok": False, "determinant": "x^2"}
    assert payload["normalization"] == [{"generator": "x^2", "variable": "x"}]

    bad = dict(EX1, bracket={"x,y": "1"})
    code, out = run_main(["check", "--format", "json"], bad, tmp_path)
    assert code == cli.EXIT_CHECK_FAILED
    payload = json.loads(out)
    assert payload["log_principal"]["ok"] is False
    assert payload["log_principal"]["failures"] == [
        {"bracket_of": ["y", "x"], "value": "-1"}
    ]


def test_check_jacobi_failure(tmp_path):
    doc = {
        "variables": ["x", "y", "z"],
        "bracket": {"x,y": "z", "y,z": "y"},
        "log_generators": [],
        "max_degree": 4,
    }
    code, out = run_main(["check", "--format", "json"], doc, tmp_path)
    assert code == cli.EXIT_CHECK_FAILED
    assert json.loads(out)["jacobi"]["failing_triples"] == [[0, 1, 2]]


def test_check_unsupported_divisor(tmp_path):
    doc = dict(EX1, log_generators=["x + y"])
    code, out = run_main(["check", "--format", "json"], doc, tmp_path)
    assert code == cli.EXIT_CHECK_FAILED
    assert json.loads(out)["log_principal"]["ok"] is False


def test_cohomology_command_table(tmp_path):
    code, out = run_main(
        ["cohomology", "--complex", "log-poisson", "--k", "0..2"], EX1, tmp_path
    )
    assert code == cli.EXIT_OK
    assert "total" in out

    code, out = run_main(
        ["cohomology", "--complex", "log-poisson", "--k", "1", "--format", "json"],
        EX2, tmp_path,
    )
    payload = json.loads(out)
    assert payload["cohomology"][0]["dims"] == [1, 2, 1, 1, 1, 1, 1, 1, 1]
    assert all(payload["cohomology"][0]["stabilized"])


def test_cohomology_gate_failure(tmp_path):
    bad = dict(EX1, bracket={"x,y": "1"})
    code, _ = run_main(["cohomology", "--complex", "log-poisson"], bad, tmp_path)
    assert code == cli.EXIT_CHECK_FAILED
    # the plain poisson table is still available for this bracket
    code, _ = run_main(["cohomology", "--complex", "poisson", "--k", "0"], bad, tmp_path)
    assert code == cli.EXIT_OK


def test_compare_command(tmp_path):
    code, out = run_main(
        ["compare", "--k", "0..2", "--format", "json"], EX1, tmp_path
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert all(pair["equal"] for pair in payload["pairs"])

    code, out = run_main(
        ["compare", "--complex", "poisson", "--complex", "log-poisson",
         "--k", "3", "--format", "json"],
        EX3, tmp_path,
    )
    payload = json.loads(out)
    (pair,) = payload["pairs"]
    assert not pair["equal"]
    assert min(m["degree"] for m in pair["mismatches"]) == 3


def test_prequantize_command(tmp_path):
    code, out = run_main(["prequantize", "--format", "json"], EX1, tmp_path)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["prequantizable_in_window"] is True
    assert payload["curvature"] == [{"pair": ["dx/x", "dy"], "value": "1"}]
    assert payload["witness"] == [{"form": "dy", "value": "y"}]

    code, out = run_main(["prequantize", "--format", "json"], EX2, tmp_path)
    payload = json.loads(out)
    # the induced two-form of this structure is exact as well
    assert payload["prequantizable_in_window"] is True
    assert payload["curvature"] == [{"pair": ["dx/x", "dy"], "value": "x"}]


def test_prequantize_zero_bracket(tmp_path):
    doc = {
        "variables": ["x", "y"],
        "bracket": {},
        "log_generators": ["x"],
        "max_degree": 4,
    }
    code, out = run_main(["prequantize", "--format", "json"], doc, tmp_path)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["prequantizable_in_window"] is True
    assert payload["curvature"] == []


def test_parse_error_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["check", "--input", str(path)])
    assert code == cli.EXIT_PARSE_ERROR

    code = cli.main(["check", "--input", str(tmp_path / "missing.json")])
    assert code == cli.EXIT_PARSE_ERROR

    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_main(["check"], dict(EX1, bracket={"x,y": "x^99999999999"}), tmp_path)
    assert code == cli.EXIT_PARSE_ERROR
    assert f"limit {MAX_POWER_DEGREE}" in err.getvalue()


def test_selftest_exit_codes():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["selftest"])
    assert code == cli.EXIT_OK
    assert "all passed" in buf.getvalue()

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["selftest", "--mutate"])
    assert code == cli.EXIT_CHECK_FAILED
    assert "d-squared" in buf.getvalue()


def test_output_is_deterministic(tmp_path):
    first = run_main(["cohomology", "--complex", "poisson", "--k", "0..2",
                      "--format", "json"], EX2, tmp_path)
    second = run_main(["cohomology", "--complex", "poisson", "--k", "0..2",
                       "--format", "json"], EX2, tmp_path)
    assert first == second
    a = run_main(["check", "--format", "json"], EX3, tmp_path)
    b = run_main(["check", "--format", "json"], EX3, tmp_path)
    assert a == b


def test_k_range_parsing():
    assert cli.parse_k_range("2", 3) == [2]
    assert cli.parse_k_range("0..2", 3) == [0, 1, 2]
    assert cli.parse_k_range("1-3", 3) == [1, 2, 3]
    assert cli.parse_k_range("0,2", 3) == [0, 2]
    with pytest.raises(cli.SpecError):
        cli.parse_k_range("a..b", 3)
    with pytest.raises(cli.SpecError, match=r"0\.\.3"):
        cli.parse_k_range("0..9", 3)
    with pytest.raises(cli.SpecError):
        cli.parse_k_range("-1", 3)
    # only the ends of a range are inspected, so a huge one fails at once
    with pytest.raises(cli.SpecError):
        cli.parse_k_range("0..1000000000000", 3)


# -- rejected input: exit code 2 with a message, never a traceback -----------


def run_main_err(args, doc, tmp_path):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_main(args, doc, tmp_path)
    return code, out, err.getvalue()


def test_cohomology_k_beyond_basis_is_rejected(tmp_path):
    code, out, err = run_main_err(["cohomology", "--k", "0..9"], EX1, tmp_path)
    assert code == cli.EXIT_PARSE_ERROR
    assert out == ""
    assert "0..2" in err


def test_prequantize_one_variable_is_rejected(tmp_path):
    doc = {"variables": ["x"], "bracket": {}, "log_generators": ["x"]}
    code, out, err = run_main_err(["prequantize"], doc, tmp_path)
    assert code == cli.EXIT_PARSE_ERROR
    assert out == ""
    assert "at least two variables" in err


@pytest.mark.parametrize("command", ["cohomology", "compare", "prequantize"])
@pytest.mark.parametrize("flag", ["--max-degree", "--buffer"])
def test_negative_window_flags_are_rejected(tmp_path, command, flag):
    code, out, err = run_main_err([command, flag, "-1"], EX1, tmp_path)
    assert code == cli.EXIT_PARSE_ERROR
    assert out == ""
    assert "nonnegative integer" in err


@pytest.mark.parametrize("command", ["cohomology", "compare", "prequantize"])
def test_window_past_the_basis_limit_is_rejected(tmp_path, command):
    # the basis is counted before it is built, so this fails at once
    # instead of exhausting memory
    doc = dict(EX1, max_degree=100000)
    code, out, err = run_main_err([command], doc, tmp_path)
    assert code == cli.EXIT_PARSE_ERROR
    assert out == ""
    assert f"the limit is {MAX_BASIS_SIZE}" in err


@pytest.mark.parametrize("doc, field", [
    (dict(EX1, bracket={"x,y": 5}), "bracket['x,y']"),
    (dict(EX1, log_generators=[1]), "log_generators[0]"),
])
def test_non_string_polynomials_are_rejected(tmp_path, doc, field):
    code, out, err = run_main_err(["check"], doc, tmp_path)
    assert code == cli.EXIT_PARSE_ERROR
    assert out == ""
    assert f"{field}: expected a polynomial string, got int" in err


@pytest.mark.parametrize("field", ["max_degree", "buffer"])
@pytest.mark.parametrize("value", [True, False, -1, 2.0, "3"])
def test_window_fields_must_be_plain_integers(tmp_path, field, value):
    doc = dict(EX1, **{field: value})
    with pytest.raises(cli.SpecError, match=field):
        cli.parse_spec(json.dumps(doc))
    code, out, err = run_main_err(["cohomology"], doc, tmp_path)
    assert code == cli.EXIT_PARSE_ERROR
    assert field in err


def test_window_values_share_one_rule():
    # the document check and the library window reject the same values
    for value in (True, -1, 2.5):
        with pytest.raises(ValueError):
            SliceWindow(value)
        with pytest.raises(ValueError):
            SliceWindow(4, value)
    assert SliceWindow(0, 0).buffer == 0
