import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from logpoisson import cli
from logpoisson.cohomology import (
    MAX_BASIS_SIZE,
    SliceWindow,
    compute_table,
    euler_weights,
    find_primitive,
)
from logpoisson.complexes import log_poisson_complex, two_form_cochain
from logpoisson.logforms import LogBasis
from logpoisson.poisson import PoissonStructure
from logpoisson.poly import (MAX_NESTING, MAX_POWER_DEGREE, MAX_TERMS, ParseError, Poly,
                             format_poly, parse_poly)
from logpoisson.selfcheck import XY
from conftest import ROOT, log_canonical, polys, src_env

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


@pytest.mark.parametrize("args", [
    ["cohomology", "--complex", "log-poisson"],
    ["cohomology", "--complex", "log-derham"],
    ["compare"],
    ["prequantize"],
])
def test_unsupported_divisor_fails_the_gate(tmp_path, args):
    doc = dict(EX1, log_generators=["x + y"])
    code, out, err = run_main_err(args, doc, tmp_path)
    assert code == cli.EXIT_CHECK_FAILED
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines() == [
        "check failure: generator #0 is not of the form c*x^m; only"
        " single-variable monomial divisors are supported"
    ]


def test_check_reads_stdin_through_the_module_entry_point(tmp_path):
    path = ROOT / "demos" / "inputs" / "bracket_x.json"
    done = subprocess.run([sys.executable, "-m", "logpoisson.cli", "check", "--input", "-"],
                          input=path.read_text(), capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert done.returncode == cli.EXIT_OK
    assert (done.returncode, done.stdout) == run_main(["check", "--input", str(path)])


def test_a_closed_stdout_exits_141_in_silence(tmp_path):
    # a reader that closed the pipe, as `| head` does, is not a parse
    # error; a missing input file still is, with its message
    path = ROOT / "demos" / "inputs" / "bracket_x.json"
    for argv, code, message in (
            (["cohomology", "--input", str(path), "--format", "json"], cli.EXIT_BROKEN_PIPE, ""),
            (["selftest"], cli.EXIT_BROKEN_PIPE, ""),
            (["check", "--input", str(tmp_path / "missing.json")], cli.EXIT_PARSE_ERROR,
             "error: [Errno 2] No such file or directory")):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-m", "logpoisson.cli", *argv],
                                  stdout=write, stderr=subprocess.PIPE, text=True,
                                  env=src_env(), timeout=60)
        finally:
            os.close(write)
        assert done.returncode == code, argv
        assert done.stderr.startswith(message) and bool(done.stderr) == bool(message), argv


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


def test_the_one_parser_keeps_no_state_between_calls(tmp_path):
    # main reuses one parser per process, so the --complex values of one
    # call must not reach the next
    code, out = run_main(["compare", "--complex", "poisson", "--complex", "log-poisson",
                          "--k", "0", "--format", "json"], EX1, tmp_path)
    assert code == cli.EXIT_OK and len(json.loads(out)["pairs"]) == 1
    code, out = run_main(["compare", "--k", "0", "--format", "json"], EX1, tmp_path)
    assert code == cli.EXIT_OK
    assert [(p["first"], p["second"]) for p in json.loads(out)["pairs"]] == [
        ("poisson", "log-poisson"), ("poisson", "log-derham"), ("log-poisson", "log-derham")]
    assert cli.build_parser() is cli.build_parser()


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


def test_prequantize_below_degree_one_runs_the_search():
    # the Euler witness dy -> y has degree 1, above D + buffer = 0, so the
    # windowed search decides, and prints what it printed before the route
    path = str(ROOT / "demos" / "inputs" / "bracket_x.json")
    code, out = run_main(["prequantize", "--input", path, "--max-degree", "0",
                          "--buffer", "0"])
    assert code == cli.EXIT_OK
    assert out == ("curvature two-cochain:\n  (dx/x, dy) -> 1\n"
                   "obstruction persists to degree 0 (no primitive in the window;"
                   " inconclusive beyond it)\nsecond cohomology dims by degree: 1\n")


def test_prequantize_takes_the_euler_route_without_a_search(tmp_path, monkeypatch):
    from logpoisson import cohomology

    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cohomology._Plan, "primitive", no_search)
    code, out = run_main(["prequantize", "--format", "json"], EX1, tmp_path)
    assert code == cli.EXIT_OK
    assert json.loads(out)["witness"] == [{"form": "dy", "value": "y"}]


def test_prequantize_wrong_euler_weights_exit_3(tmp_path, monkeypatch):
    from fractions import Fraction
    from logpoisson import cohomology

    monkeypatch.setattr(cohomology, "euler_weights", lambda *_: [Fraction(0), Fraction(2)])
    code, out, err = run_main_err(["prequantize"], EX1, tmp_path)
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert "Euler verification failed" in err


# the two pinned documents whose search fails, so the H^2 table follows
OBSTRUCTED = [
    {"variables": ["x", "y"], "bracket": {"x,y": "x*y"}, "log_generators": ["x", "y"],
     "max_degree": 4},
    {"variables": ["x", "y"], "bracket": {"x,y": "x*(1 + y + 2*y^2)"},
     "log_generators": ["x"], "max_degree": 4},
]


@pytest.mark.parametrize("doc", OBSTRUCTED)
def test_prequantize_eliminates_each_cochain_degree_once(monkeypatch, doc):
    # the search and the H^2 table are one plan: one pass and one stencil
    # per d^k, and every source degree of a pass is fed once
    from logpoisson import cohomology

    stencils, fed = Counter(), Counter()
    build, keys = cohomology.Stencil.__init__, cohomology.Coordinates.keys

    def counted_build(self, data, k):
        stencils[k] += 1
        build(self, data, k)

    def counted_keys(self, k, degree):
        fed[k, degree] += 1
        return keys(self, k, degree)

    monkeypatch.setattr(cohomology.Stencil, "__init__", counted_build)
    monkeypatch.setattr(cohomology.Coordinates, "keys", counted_keys)
    spec = cli.parse_spec(json.dumps(doc))
    assert not cli.run_prequantize(spec, spec.window())["prequantizable_in_window"]
    assert stencils == {0: 1, 1: 1, 2: 1}
    assert Counter(k for k, degree in fed if degree == 0) == {0: 1, 1: 1, 2: 1}
    assert set(fed.values()) == {1}


@pytest.mark.parametrize("bracket", ["x*(y + 1)^2", "x*(1 + y + 2*y^2)"])
def test_prequantize_counts_the_table_only_after_a_failed_search(tmp_path, monkeypatch,
                                                                  bracket):
    # Both brackets are ungraded: the search takes the 1-cochains of degree
    # <= D + buffer, the H^2 table one degree more.  At a limit between the
    # two, the witness of x(y+1)^2, which the Euler route misses, still
    # prints, and the failed search of x(1+y+2y^2) is refused its table.
    from logpoisson import cohomology

    doc = {"variables": ["x", "y"], "bracket": {"x,y": bracket}, "log_generators": ["x"],
           "max_degree": 4}
    code, unlimited = run_main(["prequantize"], doc, tmp_path)
    assert code == cli.EXIT_OK
    spec = cli.parse_spec(json.dumps(doc))
    data = cli.build_complex(spec, "log-poisson")
    top = spec.max_degree + spec.window().resolve_buffer(data)
    limit = cohomology.basis_size(data, 1, top)
    monkeypatch.setattr(cohomology, "MAX_BASIS_SIZE", limit)
    code, out, err = run_main_err(["prequantize"], doc, tmp_path)
    if "witness one-form" in unlimited:
        assert (code, out, err) == (cli.EXIT_OK, unlimited, "")
    else:
        assert (code, out) == (cli.EXIT_PARSE_ERROR, "")
        assert f"basis 1-cochains of degree <= {top + 1}; the limit is {limit}" in err


def assert_prequantize_matches_the_public_routes(P, logvars, max_degree):
    # the witness and H^2 table of one plan are those of find_primitive and
    # compute_table run apart
    spec = cli.ProblemSpec(P.names, tuple((i, j, p) for (i, j), p in sorted(P.table.items())),
                           tuple(P.variable(v) for v in sorted(logvars)), max_degree)
    B = LogBasis.from_divisor(P.n, spec.divisor())
    assume(euler_weights(P, B) is None)
    doc = cli.run_prequantize(spec, spec.window())
    data, pi, window = log_poisson_complex(P, B), two_form_cochain(P, B), spec.window()
    witness = find_primitive(data, pi, window)
    if witness is None:
        assert doc["h2_dims"] == compute_table(data, [2], window).dims(2)
        assert "witness" not in doc
    else:
        labels = B.labels(P.names)
        assert doc["witness"] == [
            {"form": labels[t[0]], "value": format_poly(p, P.names)}
            for t, p in sorted(witness.comps.items())
        ] or [{"form": labels[0], "value": "0"}]


@settings(max_examples=20, deadline=None)
@given(case=log_canonical(), max_degree=st.integers(0, 2))
def test_prequantize_matches_the_public_routes_on_log_canonical_brackets(case, max_degree):
    assert_prequantize_matches_the_public_routes(*case, max_degree)


@settings(max_examples=30, deadline=None)
@given(h=polys(1, max_exp=2, max_terms=3), square=st.booleans(),
       max_degree=st.integers(0, 4))
def test_prequantize_matches_the_public_routes_on_x_times_g(h, square, max_degree):
    # {x,y} = x g(y) along x, g = h or h^2; squares are where a witness
    # exists that the Euler route misses
    g = Poly(2, {(0, m[0]): c for m, c in h.terms.items()})
    P = PoissonStructure(XY, {(0, 1): Poly.variable(2, 0) * (g * g if square else g)})
    assert_prequantize_matches_the_public_routes(P, {0}, max_degree)


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

    six = dict(EX1, variables=list("abcdef"), bracket={"a,b": "(a+b+c+d+e+f+1)^16"},
               log_generators=[])
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_main(["check"], six, tmp_path)
    assert code == cli.EXIT_PARSE_ERROR
    assert f"limit {MAX_TERMS} (at position 16)" in err.getvalue()

    six["bracket"] = {"a,b": "(a+b+c+1)^16*(a+b+c+1)^16"}
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_main(["check"], six, tmp_path)
    assert code == cli.EXIT_PARSE_ERROR
    assert f"product of more terms than the limit {MAX_TERMS} (at position 12)" in err.getvalue()


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


def test_package_exports_resolve_once_in_sorted_order():
    import logpoisson

    names = logpoisson.__all__
    assert names == sorted(set(names))
    star = {}
    exec("from logpoisson import *", star)
    assert [n for n in names if n not in star] == []


def test_import_loads_neither_dataclasses_nor_inspect():
    # records cost nothing to declare; a bare interpreter loads neither module
    code = ("import sys, logpoisson, logpoisson.cli, logpoisson.selfcheck;"
            " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
    for empty in ("2..1", "2-1", "1000000000000..0"):
        with pytest.raises(cli.SpecError, match="empty"):
            cli.parse_k_range(empty, 3)
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


def test_compare_empty_k_range_is_rejected(tmp_path):
    code, out, err = run_main_err(["compare", "--k", "2..1"], EX1, tmp_path)
    assert code == cli.EXIT_PARSE_ERROR
    assert out == ""
    assert "empty" in err


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
    # the basis is counted before anything that grows with the window is
    # built, so this fails at once instead of exhausting memory: a list per
    # degree would take 80 MB at 10**7, and 10**30 degrees fit no list
    for max_degree in (100000, 10**7, 10**30):
        doc = dict(EX1, max_degree=max_degree)
        tracemalloc.start()
        try:
            code, out, err = run_main_err([command], doc, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_PARSE_ERROR
        assert out == ""
        assert f"the limit is {MAX_BASIS_SIZE}" in err
        assert peak < 4 * 2**20


@pytest.mark.parametrize("depth", [250, 5000])
def test_deeply_nested_parentheses_are_rejected(tmp_path, depth):
    # each level is four frames of the recursive parser: past the nesting
    # limit a document is refused before Python's recursion limit is hit
    doc = dict(EX1, bracket={"x,y": "(" * depth + "x" + ")" * depth})
    code, out, err = run_main_err(["check"], doc, tmp_path)
    assert (code, out) == (cli.EXIT_PARSE_ERROR, "")
    assert f"parentheses nested deeper than the limit {MAX_NESTING}" in err
    assert f"(at position {MAX_NESTING})" in err
    assert "Traceback" not in err


def test_a_graded_window_counts_only_the_sources_its_passes_build():
    # a buffer of 400 asks for 168,510 basis 1-cochains of degree <= 409,
    # but {x,y} = x is graded and every pass stops at D + reach
    path = str(ROOT / "demos" / "inputs" / "bracket_x.json")
    code, wide = run_main(["cohomology", "--input", path, "--buffer", "400", "--format", "json"])
    assert code == cli.EXIT_OK
    code, default = run_main(["cohomology", "--input", path, "--format", "json"])
    assert code == cli.EXIT_OK
    wide, default = json.loads(wide)["cohomology"], json.loads(default)["cohomology"]
    assert [row["dims"] for row in wide] == [row["dims"] for row in default]


@pytest.mark.parametrize("doc, field", [
    (dict(EX1, bracket={"x,y": 5}), "bracket['x,y']"),
    (dict(EX1, log_generators=[1]), "log_generators[0]"),
])
def test_non_string_polynomials_are_rejected(tmp_path, doc, field):
    code, out, err = run_main_err(["check"], doc, tmp_path)
    assert code == cli.EXIT_PARSE_ERROR
    assert out == ""
    assert f"{field}: expected a polynomial string, got int" in err


@pytest.mark.parametrize("name", ["1", "x,y", "x y", "+", " x", "(x)", "x1", "_t", "é"])
def test_a_variable_name_must_read_back_as_its_variable(tmp_path, name):
    # "1" would read as the constant 1; "x,y", "x y" and "+" cannot be a
    # bracket key
    try:
        written = parse_poly(name, [name, "y"]) == Poly.variable(2, 0)
    except ParseError:
        written = False
    assert written == (name in ("x1", "_t", "é"))
    doc = {"variables": [name, "y"], "max_degree": 2}
    if written:
        assert cli.parse_spec(json.dumps(doc)).variables == (name, "y")
    else:
        code, out, err = run_main_err(["check"], doc, tmp_path)
        assert (code, out) == (cli.EXIT_PARSE_ERROR, "")
        assert f"variable name {name!r} cannot be written" in err


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
