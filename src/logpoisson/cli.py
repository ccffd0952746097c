"""Command line front end: problem documents in, reports and tables out.

A problem document is a single JSON object:

    {
      "variables": ["x", "y"],
      "bracket": {"x,y": "x"},
      "log_generators": ["x"],
      "max_degree": 8,
      "buffer": 2          // optional; default is shift + 2 per complex
    }

Bracket keys name unordered generator pairs ("x,y" and "y,x" denote the
same pair; the value is the bracket of the named variables in the order
written).  Omitted pairs are zero.  Exit codes: 0 success, 1 check
failure, 2 parse error or a window past the basis limit, 3 internal
invariant violation, 141 standard output closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import NamedTuple, Optional, Sequence

from .cohomology import (
    CohomologyTable,
    SliceWindow,
    WindowTooLarge,
    _Plan,
    compare_tables,
    compute_table,
)
from .complexes import (
    log_derham_complex,
    log_poisson_complex,
    poisson_complex,
    two_form_cochain,
)
from .logforms import DivisionObstruction, LogBasis, log_symplectic_test
from .poisson import (
    LogDivisorSpec,
    PoissonStructure,
    UnsupportedDivisor,
    is_log_principal,
)
from .poly import ParseError, Poly, format_poly, is_variable_name, parse_poly

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

COMPLEX_KINDS = ("poisson", "log-poisson", "log-derham")


class SpecError(ValueError):
    """Problem document rejected (syntax, names, duplicate keys)."""


class ProblemSpec(NamedTuple):
    variables: tuple[str, ...]
    bracket: tuple[tuple[int, int, Poly], ...]  # (i, j, {x_i, x_j}) with i < j
    log_generators: tuple[Poly, ...]
    max_degree: int
    buffer: Optional[int] = None

    def structure(self) -> PoissonStructure:
        return PoissonStructure(self.variables, {(i, j): p for i, j, p in self.bracket})

    def divisor(self) -> Optional[LogDivisorSpec]:
        if not self.log_generators:
            return None
        return LogDivisorSpec.normalize(self.log_generators)

    def window(self, max_degree: Optional[int] = None,
               buffer: Optional[int] = None) -> SliceWindow:
        D = self.max_degree if max_degree is None else max_degree
        b = self.buffer if buffer is None else buffer
        return _window(D, b)


def _window(max_degree, buffer) -> SliceWindow:
    try:
        return SliceWindow(max_degree, buffer)
    except ValueError as err:
        raise SpecError(str(err)) from err


def _parse_field(text, names: Sequence[str], field: str) -> Poly:
    if not isinstance(text, str):
        raise SpecError(f"{field}: expected a polynomial string,"
                        f" got {type(text).__name__}")
    try:
        return parse_poly(text, names)
    except ParseError as err:
        raise SpecError(f"{field}: {err}") from err


def parse_spec(document) -> ProblemSpec:
    """Validate a problem document (JSON text or an already-loaded dict)."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as err:
            raise SpecError(f"invalid JSON: {err}") from err
    if not isinstance(document, dict):
        raise SpecError("problem document must be a JSON object")
    unknown = set(document) - {"variables", "bracket", "log_generators",
                               "max_degree", "buffer"}
    if unknown:
        raise SpecError(f"unknown fields: {sorted(unknown)}")

    names = document.get("variables")
    if not isinstance(names, list) or not names or \
            not all(isinstance(v, str) for v in names):
        raise SpecError("'variables' must be a nonempty list of names")
    if len(set(names)) != len(names):
        raise SpecError("variable names must be unique")
    for name in names:
        if not is_variable_name(name):
            raise SpecError(f"variable name {name!r} cannot be written in a polynomial")
    index = {v: i for i, v in enumerate(names)}

    bracket_doc = document.get("bracket", {})
    if not isinstance(bracket_doc, dict):
        raise SpecError("'bracket' must be an object")
    table: dict[tuple[int, int], Poly] = {}
    for key in sorted(bracket_doc):
        parts = [p.strip() for p in key.split(",")]
        if len(parts) != 2:
            raise SpecError(f"bracket key {key!r} must name two variables")
        for part in parts:
            if part not in index:
                raise SpecError(f"bracket key {key!r}: unknown variable {part!r}")
        a, b = (index[p] for p in parts)
        if a == b:
            raise SpecError(f"bracket key {key!r} repeats a variable")
        value = _parse_field(bracket_doc[key], names, f"bracket[{key!r}]")
        i, j = min(a, b), max(a, b)
        if (i, j) in table:
            raise SpecError(f"duplicate bracket pair {names[i]},{names[j]}")
        table[(i, j)] = value if (a, b) == (i, j) else -value

    gens = []
    gen_doc = document.get("log_generators", [])
    if not isinstance(gen_doc, list):
        raise SpecError("'log_generators' must be a list")
    for pos, text in enumerate(gen_doc):
        gens.append(_parse_field(text, names, f"log_generators[{pos}]"))

    window = _window(document.get("max_degree", 8), document.get("buffer"))

    bracket = tuple((i, j, table[(i, j)]) for (i, j) in sorted(table))
    return ProblemSpec(tuple(names), bracket, tuple(gens), window.max_degree,
                       window.buffer)


# -- check ----------------------------------------------------------------
#
# Each command builds the document that --format json prints; the table
# format is rendered from that document alone.


def run_check(spec: ProblemSpec) -> dict:
    structure = spec.structure()
    names = list(spec.variables)
    jac = structure.jacobi_failures()
    doc = {
        "command": "check",
        "jacobi": {"ok": not jac, "failing_triples": [list(t) for t in jac]},
        "normalization": [],
        "log_principal": None,   # None: no divisor declared
        "log_symplectic": None,
    }
    if spec.log_generators:
        try:
            divisor = spec.divisor()
        except UnsupportedDivisor as err:
            doc["log_principal"] = {"ok": False, "error": str(err)}
        else:
            doc["normalization"] = [
                {"generator": format_poly(g, names), "variable": names[v]}
                for g, v in zip(divisor.generators, divisor.variables)
            ]
            report = is_log_principal(structure, divisor)
            doc["log_principal"] = {
                "ok": report.ok,
                "failures": [
                    {"bracket_of": [names[f.generator_var], names[f.divisor_var]],
                     "value": format_poly(f.bracket, names)}
                    for f in report.failures
                ],
            }
            if report.ok:
                sym = log_symplectic_test(
                    structure, LogBasis.from_divisor(structure.n, divisor))
                doc["log_symplectic"] = {
                    "ok": sym.is_log_symplectic,
                    "determinant": format_poly(sym.determinant, names),
                }
    principal = doc["log_principal"]
    doc["ok"] = not jac and (principal is None or principal["ok"])
    return doc


def check_text(doc: dict) -> str:
    mark = lambda ok: "pass" if ok else "FAIL"
    triples = [tuple(t) for t in doc["jacobi"]["failing_triples"]]
    lines = [f"jacobi: FAIL on triples {triples}" if triples else "jacobi: pass"]
    for n in doc["normalization"]:
        lines.append(f"normalization: {n['generator']} defines the divisor"
                     f" variable {n['variable']}")
    principal = doc["log_principal"]
    if principal is None:
        lines.append("log-principal: skipped (no divisor declared)")
    elif "error" in principal:
        lines.append(f"log-principal: FAIL ({principal['error']})")
    else:
        lines.append(f"log-principal: {mark(principal['ok'])}")
        for f in principal["failures"]:
            a, b = f["bracket_of"]
            lines.append(f"  offending bracket {{{a},{b}}} = {f['value']}")
    symplectic = doc["log_symplectic"]
    if symplectic is not None:
        lines.append(
            f"log-symplectic: {'true' if symplectic['ok'] else 'false'}"
            f" (determinant {symplectic['determinant']})"
        )
    lines.append(f"check: {mark(doc['ok'])}")
    return "\n".join(lines)


# -- cohomology and compare -------------------------------------------------


def _checked(spec: ProblemSpec, kind: str) -> tuple[PoissonStructure, Optional[LogBasis]]:
    """Gatekeeper: every kind needs its structural checks to hold.  The
    structure, and the log basis of the log kinds."""
    if kind not in COMPLEX_KINDS:
        raise SpecError(f"unknown complex kind {kind!r}")
    structure = spec.structure()
    if kind in ("poisson", "log-poisson") and structure.jacobi_failures():
        raise CheckFailure("the bracket table violates the Jacobi identity;"
                           " run the check command for details")
    if kind == "poisson":
        return structure, None
    try:
        divisor = spec.divisor()
    except UnsupportedDivisor as err:
        raise CheckFailure(str(err)) from err
    if divisor is None:
        raise CheckFailure(f"{kind} needs log_generators in the problem document")
    basis = LogBasis.from_divisor(structure.n, divisor)
    if kind == "log-poisson" and not is_log_principal(structure, divisor).ok:
        raise CheckFailure("the bracket is not principal logarithmic along the"
                           " divisor; run the check command for details")
    return structure, basis


def build_complex(spec: ProblemSpec, kind: str):
    """The complex of one kind, once its checks hold."""
    structure, basis = _checked(spec, kind)
    if kind == "poisson":
        return poisson_complex(structure)
    if kind == "log-derham":
        return log_derham_complex(basis)
    return log_poisson_complex(structure, basis)


class CheckFailure(RuntimeError):
    """A prerequisite check failed; the run is aborted with exit code 1."""


def table_to_json_dict(table: CohomologyTable) -> dict:
    return {
        "complex": table.complex_name,
        "max_degree": table.max_degree,
        "buffer": table.buffer,
        "cohomology": [
            {
                "k": k,
                "dims": table.dims(k),
                "stabilized": [r.stabilized for r in table.rows[k]],
                "cumulative": table.cumulative(k),
            }
            for k in table.ks
        ],
    }


def table_to_text(table: CohomologyTable) -> str:
    width = max(3, len(str(table.max_degree)))
    header = "  k | " + " ".join(f"d={d}".rjust(width + 2) for d in range(table.max_degree + 1)) \
        + " | total"
    lines = [
        f"complex: {table.complex_name}   max degree: {table.max_degree}"
        f"   buffer: {table.buffer}",
        header,
        "-" * len(header),
    ]
    for k in table.ks:
        cells = []
        for r in table.rows[k]:
            cell = str(r.dim) + ("" if r.stabilized else "?")
            cells.append(cell.rjust(width + 2))
        lines.append(f"  {k} | " + " ".join(cells) + f" | {table.cumulative(k):5d}")
    if any(not r.stabilized for k in table.ks for r in table.rows[k]):
        lines.append("entries marked '?' changed when the source buffer grew")
    return "\n".join(lines)


def run_compare(spec: ProblemSpec, kinds: Sequence[str], ks: Sequence[int],
                window: SliceWindow) -> dict:
    tables = {kind: compute_table(build_complex(spec, kind), ks, window)
              for kind in kinds}
    pairs = []
    for pos, first in enumerate(kinds):
        for second in kinds[pos + 1:]:
            diff = compare_tables(tables[first], tables[second])
            pairs.append({
                "first": first,
                "second": second,
                "equal": diff.equal,
                "mismatches": [
                    {"k": k, "degree": d, first: a, second: b}
                    for k, d, a, b in diff.mismatches
                ],
            })
    return {"command": "compare", "max_degree": window.max_degree, "pairs": pairs}


def compare_text(doc: dict) -> str:
    lines = []
    for pair in doc["pairs"]:
        first, second = pair["first"], pair["second"]
        lines.append(f"{first} vs {second}: {'equal' if pair['equal'] else 'DIFFER'}")
        for m in pair["mismatches"]:
            lines.append(f"  k={m['k']} degree={m['degree']}: "
                         f"{first}={m[first]} {second}={m[second]}")
    return "\n".join(lines)


# -- prequantization ---------------------------------------------------------


def run_prequantize(spec: ProblemSpec, window: SliceWindow) -> dict:
    if len(spec.variables) < 2:
        raise SpecError("prequantize needs at least two variables: the"
                        " curvature is a two-cochain")
    structure, basis = _checked(spec, "log-poisson")
    pi = two_form_cochain(structure, basis)
    data = log_poisson_complex(structure, basis, pi)
    names = list(spec.variables)
    labels = basis.labels(names)
    # one plan: the Euler route needs no elimination, the plan's search
    # decides the rest, and its passes go on to the H^2 table if it fails
    plan = _Plan(data, [2], window, pi)
    witness = plan.euler(structure, basis)
    if witness is None:
        witness = plan.primitive()
    doc = {
        "command": "prequantize",
        "max_degree": window.max_degree,
        "buffer": plan.buffer,
        "curvature": [
            {"pair": [labels[i], labels[j]], "value": format_poly(p, names)}
            for (i, j), p in sorted(pi.comps.items())
        ],
        "prequantizable_in_window": witness is not None,
    }
    if witness is not None:
        doc["witness"] = [
            {"form": labels[t[0]], "value": format_poly(p, names)}
            for t, p in sorted(witness.comps.items())
        ] or [{"form": labels[0], "value": "0"}]
    else:
        doc["h2_dims"] = plan.table().dims(2)
        doc["note"] = ("no primitive with coefficients of degree <= "
                       f"{window.max_degree + doc['buffer']}; this windowed"
                       " search is not a proof of nonexactness")
    return doc


def prequantize_text(doc: dict) -> str:
    lines = ["curvature two-cochain:"]
    lines += [f"  ({c['pair'][0]}, {c['pair'][1]}) -> {c['value']}"
              for c in doc["curvature"]] or ["  0"]
    if doc["prequantizable_in_window"]:
        lines.append(f"prequantizable within the window (degree <= "
                     f"{doc['max_degree'] + doc['buffer']}); witness one-form:")
        lines += [f"  {w['form']} -> {w['value']}" for w in doc["witness"]]
    else:
        lines.append(
            f"obstruction persists to degree {doc['max_degree']}"
            " (no primitive in the window; inconclusive beyond it)"
        )
        lines.append("second cohomology dims by degree: "
                     + " ".join(map(str, doc["h2_dims"])))
    return "\n".join(lines)


# -- argument handling ---------------------------------------------------------


def parse_k_range(text: str, top: int) -> list[int]:
    """Accept '2', '0..3', '0-3' or '0,2,3'; every k must lie in 0..top."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            ks = range(int(lo), int(hi) + 1)
        elif "-" in text and not text.lstrip().startswith("-"):
            lo, hi = text.split("-")
            ks = range(int(lo), int(hi) + 1)
        elif "," in text:
            ks = sorted({int(p) for p in text.split(",")})
        else:
            ks = [int(text)]
    except ValueError as err:
        raise SpecError(f"cannot parse k range {text!r}") from err
    # ks is increasing, so its ends bound it without spelling out a range
    if not ks:
        raise SpecError(f"k range {text!r} is empty")
    if ks[0] < 0 or ks[-1] > top:
        raise SpecError(f"k range {text!r} leaves the valid range 0..{top}")
    return list(ks)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(doc: dict, fmt: str, render) -> None:
    # flushed, so that a closed stdout fails inside main, not at exit
    print(json.dumps(doc, indent=2, sort_keys=True) if fmt == "json" else render(doc),
          flush=True)


def _drop_stdout() -> None:
    # point stdout at devnull, as the Python docs advise on SIGPIPE, so
    # that the flush at exit cannot fail again
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused: parsing
    keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="logpoisson",
        description="checks, cohomology tables and prequantization for"
                    " polynomial Poisson structures with a logarithmic divisor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True,
                       help="problem document (JSON file, or '-' for stdin)")
        p.add_argument("--format", choices=("table", "json"), default="table")

    def window_flags(p):
        p.add_argument("--max-degree", type=int, default=None)
        p.add_argument("--buffer", type=int, default=None)

    p_check = sub.add_parser("check", help="jacobi, divisor and nondegeneracy checks")
    common(p_check)

    p_coh = sub.add_parser("cohomology", help="per-degree cohomology dimension table")
    common(p_coh)
    p_coh.add_argument("--complex", choices=COMPLEX_KINDS, default="log-poisson")
    p_coh.add_argument("--k", default=None, help="cochain degrees, e.g. 0..2")
    window_flags(p_coh)

    p_cmp = sub.add_parser("compare", help="compare tables of several complexes")
    common(p_cmp)
    p_cmp.add_argument("--complex", action="append", choices=COMPLEX_KINDS,
                       help="repeat to choose complexes (default: all three)")
    p_cmp.add_argument("--k", default=None)
    window_flags(p_cmp)

    p_pre = sub.add_parser("prequantize",
                           help="search a primitive for the induced two-form")
    common(p_pre)
    window_flags(p_pre)

    p_self = sub.add_parser("selftest", help="run the property suites")
    p_self.add_argument("--mutate", action="store_true",
                        help="corrupt a structure constant to prove the"
                             " suites detect it (expected to fail)")
    p_self.add_argument("--seed", type=int, default=20240917)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            from .selfcheck import run_all

            results = run_all(seed=args.seed, mutate=args.mutate)
            for r in results:
                detail = f"  [{r.detail}]" if r.detail else ""
                print(f"{'pass' if r.ok else 'FAIL'}  {r.name}  ({r.cases} cases){detail}")
            ok = all(r.ok for r in results)
            print(f"selftest: {len(results)} suites, "
                  f"{'all passed' if ok else 'FAILURES PRESENT'}", flush=True)
            return EXIT_OK if ok else EXIT_CHECK_FAILED

        spec = parse_spec(_read_input(args.input))

        if args.command == "check":
            doc = run_check(spec)
            _emit(doc, args.format, check_text)
            return EXIT_OK if doc["ok"] else EXIT_CHECK_FAILED

        if args.command == "compare":
            kinds = args.complex or list(COMPLEX_KINDS)
            if len(kinds) < 2:
                raise SpecError("compare needs at least two --complex values")
        window = spec.window(args.max_degree, args.buffer)
        if args.command == "prequantize":
            _emit(run_prequantize(spec, window), args.format, prequantize_text)
            return EXIT_OK

        top = len(spec.variables)
        ks = parse_k_range(args.k, top) if args.k else list(range(top + 1))
        if args.command == "compare":
            _emit(run_compare(spec, kinds, ks, window), args.format, compare_text)
        else:
            table = compute_table(build_complex(spec, args.complex), ks, window)
            _emit(table_to_json_dict(table), args.format,
                  lambda _: table_to_text(table))
        return EXIT_OK
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: no message, and the
        # status a shell gives a process killed by SIGPIPE
        _drop_stdout()
        return EXIT_BROKEN_PIPE
    except (SpecError, ParseError, OSError, WindowTooLarge) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except CheckFailure as err:
        print(f"check failure: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (DivisionObstruction, AssertionError) as err:
        print(f"internal invariant violation: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
