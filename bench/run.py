"""Benchmark of logpoisson: one command, one process, one thread.

    python3 bench/run.py --workload graded-tables --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The workload's documents are
made from the seed, set up several times (import, parse, gates, complex
construction), checked with ``logpoisson check``, and then solved in
whole passes until the given seconds have passed.  Every answer is
checked by computations made apart from the program.  With --trace 1 the
passes alternate untraced and traced, and the per-layer metrics come
from the traced ones.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  Records of the run and
the trace go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_ROUNDS = 3  # before the checks; one more before every pass


def import_fresh():
    """Import logpoisson from scratch, as a new process would."""
    for name in [m for m in sys.modules
                 if m == "logpoisson" or m.startswith("logpoisson.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("logpoisson"), importlib.import_module("logpoisson.cli")


class Run:
    def __init__(self, workload, seed, tracer):
        self.workload = workload
        self.problems = workloads.WORKLOADS[workload](seed)
        self.tracer = tracer
        self.docs = OUT / "docs" / f"{workload}-{seed}"
        self.errors: list[str] = []
        self.failures: list[str] = []
        self.failed = 0
        self.attempted = 0
        self.lp = self.cli = None
        self.built = {}

    # -- set-up ---------------------------------------------------------

    def write_documents(self):
        self.docs.mkdir(parents=True, exist_ok=True)
        for p in self.problems:
            (self.docs / f"{p.name}.json").write_text(json.dumps(p.doc, indent=1))

    def set_up(self, label):
        """Import, parse, gate and build every problem; returns seconds."""
        gc.collect()
        t0 = time.perf_counter()
        lp, cli = import_fresh()
        if self.tracer:
            self.tracer.install()
            self.tracer.begin_round(label, "setup")
        built = {}
        for p in self.problems:
            spec = cli.parse_spec(json.dumps(p.doc))
            window = spec.window()
            for kind in p.complexes or ("log-poisson",):
                built[(p.name, kind)] = (cli.build_complex(spec, kind), window)
        elapsed = time.perf_counter() - t0
        self.lp, self.cli, self.built = lp, cli, built
        return elapsed

    def run_cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def check_documents(self):
        for p in self.problems:
            code, text = self.run_cli(["check", "--input", str(self.docs / f"{p.name}.json"),
                                       "--format", "json"])
            if code != 0 or json.loads(text).get("ok") is not True:
                self.errors.append(f"{p.name}: logpoisson check exit {code}: {text}")

    def check_small_windows(self):
        """Whole ungraded tables at a small window against dense counts."""
        for p in self.problems:
            if not p.complexes or p.family not in checks.ORACLE_WINDOWS:
                continue
            D, b, dims, flags = checks.window_reference(p)
            data, _ = self.built[(p.name, p.complexes[0])]
            table = self.lp.compute_table(data, range(data.r + 1), self.lp.SliceWindow(D, b))
            got = [table.dims(k) for k in table.ks]
            if got != dims:
                self.errors.append(f"{p.name}: window ({D}, {b}) dims {got}, dense {dims}")
            got_flags = [[r.stabilized for r in table.rows[k]] for k in table.ks]
            if flags is not None and got_flags != flags:
                self.errors.append(f"{p.name}: window ({D}, {b}) flags {got_flags},"
                                   f" dense {flags}")

    # -- passes -----------------------------------------------------------

    def solve_tables(self):
        """One pass over the table problems: (name, kind) -> seconds, answer."""
        compute_table = self.lp.compute_table
        results = []
        for p in self.problems:
            for kind in p.complexes:
                data, window = self.built[(p.name, kind)]
                t0 = time.perf_counter()
                try:
                    table = compute_table(data, range(data.r + 1), window)
                except Exception as err:  # a failed operation is counted, not fatal
                    results.append(((p.name, kind), time.perf_counter() - t0, err))
                    continue
                elapsed = time.perf_counter() - t0
                answer = ([table.dims(k) for k in table.ks],
                          [[r.stabilized for r in table.rows[k]] for k in table.ks])
                results.append(((p.name, kind), elapsed, answer))
        return results

    def solve_prequantize(self):
        """One pass deciding every document through the CLI entry point."""
        results = []
        for p in self.problems:
            path = str(self.docs / f"{p.name}.json")
            t0 = time.perf_counter()
            try:
                check = self.run_cli(["check", "--input", path, "--format", "json"])
                pre = self.run_cli(["prequantize", "--input", path, "--format", "json"])
            except Exception as err:
                results.append(((p.name, "prequantize"), time.perf_counter() - t0, err))
                continue
            results.append(((p.name, "prequantize"), time.perf_counter() - t0, (check, pre)))
        return results

    def one_pass(self):
        gc.collect()
        solve = self.solve_prequantize if self.workload == "prequantize" else self.solve_tables
        t0 = time.perf_counter()
        results = solve()
        return time.perf_counter() - t0, results

    # -- checking ---------------------------------------------------------

    def check_first(self, results):
        """Independent checks of the answers of the first pass."""
        by_name = {p.name: p for p in self.problems}
        if self.workload == "prequantize":
            for (name, _), _, answer in results:
                if isinstance(answer, Exception):
                    continue
                p = by_name[name]
                (c_code, c_text), (q_code, q_text) = answer
                if c_code or q_code:
                    self.errors.append(f"{name}: exit codes {c_code}, {q_code}")
                    continue
                self.errors += checks.check_check_report(p, json.loads(c_text))
                report = json.loads(q_text)
                ref = None
                if p.family == "xg" and not report.get("prequantizable_in_window", True):
                    ref = checks.dense_h2(p, report["max_degree"], report["buffer"])
                self.errors += checks.check_prequantize_report(p, report, ref)
            return
        tables = {}
        for (name, kind), _, answer in results:
            if not isinstance(answer, Exception):
                tables.setdefault(name, {})[kind] = answer[0]
        for p in self.problems:
            got = tables.get(p.name, {})
            h0 = checks.dense_h0(p) if p.family in ("jacobian", "xg") else None
            for kind, dims in got.items():
                self.errors += checks.check_table(p, kind, dims, h0)
            if len(got) == len(p.complexes):
                self.errors += checks.check_equal_tables(p, got)

    def account(self, results, first):
        """Count the operations and hold every answer to the first pass."""
        for (key, _, answer), (_, _, want) in zip(results, first):
            self.attempted += 1
            if isinstance(answer, Exception):
                self.failed += 1
                self.failures.append(f"{key}: {answer!r}")
            elif answer != want:
                self.errors.append(f"{key}: answer differs from the first pass")


def tail(values):
    """The highest of the usual percentiles with at least ten samples
    beyond it (nearest rank), or None below forty samples."""
    ordered = sorted(values)
    for q in (99, 95, 90, 75):
        rank = math.ceil(q * len(ordered) / 100)
        if len(ordered) >= 40 and len(ordered) - rank >= 10:
            return {"percentile": q, "value": ordered[rank - 1], "samples": len(ordered)}
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "logpoisson" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "oracle.py").is_file():
        print(f"error: {ROOT} holds no logpoisson source tree (src/logpoisson,"
              " tests/oracle.py); run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(parents=True, exist_ok=True)

    tracer = tracing.Tracer() if args.trace else None
    run = Run(args.workload, args.seed, tracer)
    run.write_documents()
    setup = [run.set_up(f"setup-{i}") for i in range(SETUP_ROUNDS)]
    if tracer:
        tracer.uninstall()
    run.check_documents()
    run.check_small_windows()

    # set-up rounds are spread over the run, one before every pass, so
    # that their median samples the machine at the same times as the passes
    passes, traced_passes, problem_times = [], [], []
    first = None
    start = time.perf_counter()
    while True:
        setup.append(run.set_up(f"setup-{len(setup)}"))
        traced = bool(tracer) and len(passes) > len(traced_passes)
        if traced:
            tracer.begin_round(f"pass-{len(passes) + len(traced_passes)}", "traced")
        elif tracer:
            tracer.uninstall()
        elapsed, results = run.one_pass()
        if tracer:
            tracer.uninstall()
        (traced_passes if traced else passes).append(elapsed)
        if not traced:
            problem_times += [t for _, t, _ in results]
        if first is None:
            first = results
            run.check_first(results)
        run.account(results, first)
        if time.perf_counter() - start >= args.seconds and (not tracer or traced_passes):
            break

    ms = [t * 1000 for t in problem_times]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_s": setup, "pass_s": passes,
        "traced_pass_s": traced_passes, "problem_ms": ms,
        "problems": [p.name for p in run.problems], "errors": run.errors,
        "failures": sorted(set(run.failures)),
    }
    record["problem_tail_ms"] = tail(ms)

    if tracer:
        metrics = tracer.metrics()
        overhead = statistics.median(traced_passes) / statistics.median(passes) - 1
        record["trace_overhead"] = overhead
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json",
                     {"pass_s": passes, "traced_pass_s": traced_passes,
                      "trace_overhead": overhead})
        print(f"trace overhead: traced pass median {overhead:+.1%} against untraced"
              f" ({len(traced_passes)} traced, {len(passes)} untraced passes)")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s": {"value": statistics.median(passes), "unit": "s"},
            "problem_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
        }
    record["metrics"] = metrics
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for err in run.errors[:20]:
        print(f"check: {err}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes,"
          f" {len(ms)} problems timed, {len(run.errors)} check errors")
    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
