"""The benchmark's own test: python3 -m pytest bench/test_bench.py -q

Generators repeat per seed, the independent checks pass on the program's
real answers and fail on corrupted ones, and traced counts repeat.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import polys  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from logpoisson import SliceWindow, compute_table  # noqa: E402
from logpoisson.cli import build_complex, main, parse_spec  # noqa: E402


def small(problem, max_degree):
    """The same problem at a smaller degree, to keep the test quick."""
    doc = dict(problem.doc, max_degree=max_degree)
    return workloads.Problem(problem.name, problem.family, doc, problem.params,
                             problem.complexes)


def table_of(problem, kind):
    spec = parse_spec(json.dumps(problem.doc))
    data = build_complex(spec, kind)
    table = compute_table(data, range(data.r + 1), spec.window())
    return [table.dims(k) for k in table.ks]


def cli_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_repeat_per_seed(name):
    make = workloads.WORKLOADS[name]
    docs = lambda seed: [json.dumps(p.doc, sort_keys=True) for p in make(seed)]
    assert docs(7) == docs(7)
    assert docs(7) != docs(8)
    assert [p.name for p in make(7)] == [p.name for p in make(8)]


def test_polys_round_trip():
    names = ("x", "y", "z")
    p = {(2, 1, 0): Fraction(-3, 2), (0, 0, 1): Fraction(1),
         (0, 0, 0): Fraction(-1)}
    assert polys.parse(polys.text(p, names), names) == p


def graded_cases():
    for p in workloads.graded_tables(3):
        for kind in p.complexes:
            yield pytest.param(small(p, 3), kind, id=f"{p.name}-{kind}")


@pytest.mark.parametrize("problem,kind", graded_cases())
def test_graded_checks_pass_and_catch_a_corrupted_entry(problem, kind):
    dims = table_of(problem, kind)
    assert checks.check_table(problem, kind, dims) == []
    rows, shift = checks.table_expectations(problem, kind)
    r, D = len(dims) - 1, problem.doc["max_degree"]
    for k in range(r + 1):
        for d in range(D + 1):
            # an entry is pinned by its exact row, or by an Euler line
            # that ends inside the window
            if k in rows or (shift is not None and d + (r - k) * shift <= D):
                bad = [row[:] for row in dims]
                bad[k][d] += 1
                assert checks.check_table(problem, kind, bad), (k, d)


def test_equal_tables_theorem_is_checked():
    p = small(workloads.graded_tables(1)[3], 1)  # the product of planes
    tables = {kind: table_of(p, kind) for kind in p.complexes}
    assert checks.check_equal_tables(p, tables) == []
    tables["poisson"][1][1] += 1
    assert checks.check_equal_tables(p, tables)


@pytest.mark.parametrize("index", [0, 2])  # a Jacobian and an x*g structure
def test_ungraded_checks_match_dense_counts(index):
    p = workloads.ungraded(5)[index]
    kind = p.complexes[0]
    D, b, dims, flags = checks.window_reference(p)
    data = build_complex(parse_spec(json.dumps(p.doc)), kind)
    table = compute_table(data, range(data.r + 1), SliceWindow(D, b))
    assert [table.dims(k) for k in table.ks] == dims
    if flags is not None:
        assert [[r.stabilized for r in table.rows[k]] for k in table.ks] == flags
    p = small(p, 2)
    h0 = checks.dense_h0(p)
    dims = table_of(p, kind)
    assert checks.check_table(p, kind, dims, h0) == []
    dims[0][0] += 1
    assert checks.check_table(p, kind, dims, h0)


def prequantize_case(tmp_path, problem):
    path = tmp_path / f"{problem.name}.json"
    path.write_text(json.dumps(problem.doc))
    return cli_json(["prequantize", "--input", str(path), "--format", "json"])


def test_prequantize_checks_catch_a_corrupted_witness(tmp_path):
    p = small(workloads.prequantize(2)[1], 2)  # a product of two planes
    report = prequantize_case(tmp_path, p)
    assert checks.check_prequantize_report(p, report) == []
    report["witness"][0]["value"] = polys.text(
        polys.scale(polys.parse(report["witness"][0]["value"], p.names), 2), p.names)
    assert checks.check_prequantize_report(p, report)


def test_prequantize_checks_catch_a_corrupted_h2(tmp_path):
    for p in workloads.prequantize(4):
        if p.family not in ("log-canonical", "xg") or p.name.startswith("xg-exact"):
            continue
        p = small(p, 2)
        report = prequantize_case(tmp_path, p)
        ref = None if p.family == "log-canonical" else \
            checks.dense_h2(p, report["max_degree"], report["buffer"])
        assert checks.check_prequantize_report(p, report, ref) == []
        report["h2_dims"][-1] += 1
        assert checks.check_prequantize_report(p, report, ref), p.name


def test_traced_counts_repeat():
    p = small(workloads.graded_tables(1)[2], 3)  # {y,z} = xyz
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for label in ("first", "second"):
            tracer.begin_round(label, "traced")
            table_of(p, "log-poisson")
    finally:
        tracer.uninstall()
    (_, first), (_, second) = tracer.per_round()
    counts = [m for m, (unit, _, _) in tracing.METRICS.items() if unit in ("count", "bits")]
    assert all(first[m] == second[m] for m in counts)
    assert first["complexes.differential_calls"] > 0
    assert first["poly.constructed"] > 0
    assert first["cohomology.pivots"] <= first["cohomology.echelon_inserts"]
