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
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .cohomology import (
    CohomologyTable,
    SliceWindow,
    WindowTooLarge,
    compare_tables,
    compute_table,
    find_primitive,
)
from .complexes import (
    basis_for,
    log_derham_complex,
    log_poisson_complex,
    poisson_complex,
    two_form_cochain,
)
from .logforms import DivisionObstruction, log_symplectic_test
from .poisson import (
    LogDivisorSpec,
    PoissonStructure,
    UnsupportedDivisor,
    is_log_principal,
)
from .poly import ParseError, Poly, format_poly, parse_poly

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_INTERNAL = 3

COMPLEX_KINDS = ("poisson", "log-poisson", "log-derham")


class SpecError(ValueError):
    """Problem document rejected (syntax, names, duplicate keys)."""


@dataclass(frozen=True)
class ProblemSpec:
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
        try:
            value = parse_poly(bracket_doc[key], names)
        except ParseError as err:
            raise SpecError(f"bracket[{key!r}]: {err}") from err
        i, j = min(a, b), max(a, b)
        if (i, j) in table:
            raise SpecError(f"duplicate bracket pair {names[i]},{names[j]}")
        table[(i, j)] = value if (a, b) == (i, j) else -value

    gens = []
    gen_doc = document.get("log_generators", [])
    if not isinstance(gen_doc, list):
        raise SpecError("'log_generators' must be a list")
    for pos, text in enumerate(gen_doc):
        try:
            gens.append(parse_poly(text, names))
        except ParseError as err:
            raise SpecError(f"log_generators[{pos}]: {err}") from err

    window = _window(document.get("max_degree", 8), document.get("buffer"))

    bracket = tuple((i, j, table[(i, j)]) for (i, j) in sorted(table))
    return ProblemSpec(tuple(names), bracket, tuple(gens), window.max_degree,
                       window.buffer)


def serialize_spec(spec: ProblemSpec) -> dict:
    names = list(spec.variables)
    doc = {
        "variables": names,
        "bracket": {
            f"{names[i]},{names[j]}": format_poly(p, names)
            for i, j, p in spec.bracket
        },
        "log_generators": [format_poly(g, names) for g in spec.log_generators],
        "max_degree": spec.max_degree,
    }
    if spec.buffer is not None:
        doc["buffer"] = spec.buffer
    return doc


# -- check ----------------------------------------------------------------


@dataclass
class CheckReport:
    jacobi_ok: bool
    jacobi_failures: list[tuple[int, int, int]]
    normalization: list[tuple[str, str]]  # (generator text, variable)
    divisor_error: Optional[str]
    log_principal_ok: Optional[bool]     # None: no divisor declared
    log_principal_failures: list[tuple[str, str, str]]
    log_symplectic: Optional[bool]
    determinant: Optional[str]

    @property
    def ok(self) -> bool:
        if not self.jacobi_ok:
            return False
        if self.divisor_error is not None:
            return False
        return self.log_principal_ok is not False

    def to_json_dict(self) -> dict:
        out = {
            "command": "check",
            "jacobi": {
                "ok": self.jacobi_ok,
                "failing_triples": [list(t) for t in self.jacobi_failures],
            },
            "normalization": [
                {"generator": g, "variable": v} for g, v in self.normalization
            ],
            "log_principal": None,
            "log_symplectic": None,
            "ok": self.ok,
        }
        if self.divisor_error is not None:
            out["log_principal"] = {"ok": False, "error": self.divisor_error}
        elif self.log_principal_ok is not None:
            out["log_principal"] = {
                "ok": self.log_principal_ok,
                "failures": [
                    {"bracket_of": list(pair), "value": val}
                    for *pair, val in self.log_principal_failures
                ],
            }
        if self.log_symplectic is not None:
            out["log_symplectic"] = {
                "ok": self.log_symplectic,
                "determinant": self.determinant,
            }
        return out

    def to_text(self) -> str:
        lines = []
        mark = lambda ok: "pass" if ok else "FAIL"
        if self.jacobi_failures:
            lines.append(f"jacobi: FAIL on triples {self.jacobi_failures}")
        else:
            lines.append("jacobi: pass")
        for gen, var in self.normalization:
            lines.append(f"normalization: {gen} defines the divisor variable {var}")
        if self.divisor_error is not None:
            lines.append(f"log-principal: FAIL ({self.divisor_error})")
        elif self.log_principal_ok is None:
            lines.append("log-principal: skipped (no divisor declared)")
        else:
            lines.append(f"log-principal: {mark(self.log_principal_ok)}")
            for a, b, val in self.log_principal_failures:
                lines.append(f"  offending bracket {{{a},{b}}} = {val}")
        if self.log_symplectic is not None:
            lines.append(
                f"log-symplectic: {'true' if self.log_symplectic else 'false'}"
                f" (determinant {self.determinant})"
            )
        lines.append(f"check: {mark(self.ok)}")
        return "\n".join(lines)


def run_check(spec: ProblemSpec) -> CheckReport:
    structure = spec.structure()
    names = list(spec.variables)
    jac = structure.jacobi_failures()
    normalization: list[tuple[str, str]] = []
    divisor_error = None
    log_ok: Optional[bool] = None
    log_failures: list[tuple[str, str, str]] = []
    symplectic: Optional[bool] = None
    det_text: Optional[str] = None
    if spec.log_generators:
        try:
            divisor = spec.divisor()
        except UnsupportedDivisor as err:
            divisor_error = str(err)
        else:
            normalization = [
                (format_poly(g, names), names[v])
                for g, v in zip(divisor.generators, divisor.variables)
            ]
            report = is_log_principal(structure, divisor)
            log_ok = report.ok
            log_failures = [
                (names[f.generator_var], names[f.divisor_var],
                 format_poly(f.bracket, names))
                for f in report.failures
            ]
            if report.ok:
                sym = log_symplectic_test(structure, basis_for(structure, divisor))
                symplectic = sym.is_log_symplectic
                det_text = format_poly(sym.determinant, names)
    return CheckReport(not jac, jac, normalization, divisor_error,
                       log_ok, log_failures, symplectic, det_text)


# -- cohomology and compare -------------------------------------------------


def build_complex(spec: ProblemSpec, kind: str):
    """Gatekeeper: every kind needs its structural checks to hold."""
    if kind not in COMPLEX_KINDS:
        raise SpecError(f"unknown complex kind {kind!r}")
    structure = spec.structure()
    if kind in ("poisson", "log-poisson") and structure.jacobi_failures():
        raise CheckFailure("the bracket table violates the Jacobi identity;"
                           " run the check command for details")
    if kind == "poisson":
        return poisson_complex(structure)
    divisor = spec.divisor()
    if divisor is None:
        raise CheckFailure(f"{kind} needs log_generators in the problem document")
    basis = basis_for(structure, divisor)
    if kind == "log-derham":
        return log_derham_complex(basis)
    report = is_log_principal(structure, divisor)
    if not report.ok:
        raise CheckFailure("the bracket is not principal logarithmic along the"
                           " divisor; run the check command for details")
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


def run_cohomology(spec: ProblemSpec, kind: str, ks: Sequence[int],
                   window: SliceWindow) -> CohomologyTable:
    return compute_table(build_complex(spec, kind), ks, window)


def run_compare(spec: ProblemSpec, kinds: Sequence[str], ks: Sequence[int],
                window: SliceWindow) -> list[dict]:
    tables = {kind: run_cohomology(spec, kind, ks, window) for kind in kinds}
    out = []
    for pos, first in enumerate(kinds):
        for second in kinds[pos + 1:]:
            diff = compare_tables(tables[first], tables[second])
            out.append({
                "first": first,
                "second": second,
                "equal": diff.equal,
                "mismatches": [
                    {"k": k, "degree": d, first: a, second: b}
                    for k, d, a, b in diff.mismatches
                ],
            })
    return out


# -- prequantization ---------------------------------------------------------


@dataclass
class PrequantReport:
    max_degree: int
    buffer: int
    curvature: list[tuple[str, str, str]]   # (form a, form b, value)
    prequantizable: bool
    witness: Optional[list[tuple[str, str]]]
    h2_dims: Optional[list[int]]

    def to_json_dict(self) -> dict:
        out = {
            "command": "prequantize",
            "max_degree": self.max_degree,
            "buffer": self.buffer,
            "curvature": [
                {"pair": [a, b], "value": v} for a, b, v in self.curvature
            ],
            "prequantizable_in_window": self.prequantizable,
        }
        if self.witness is not None:
            out["witness"] = [{"form": f, "value": v} for f, v in self.witness]
        if self.h2_dims is not None:
            out["h2_dims"] = self.h2_dims
            out["note"] = ("no primitive with coefficients of degree <= "
                           f"{self.max_degree + self.buffer}; this windowed"
                           " search is not a proof of nonexactness")
        return out

    def to_text(self) -> str:
        lines = ["curvature two-cochain:"]
        if not self.curvature:
            lines.append("  0")
        for a, b, v in self.curvature:
            lines.append(f"  ({a}, {b}) -> {v}")
        if self.prequantizable:
            lines.append(f"prequantizable within the window (degree <= "
                         f"{self.max_degree + self.buffer}); witness one-form:")
            for f, v in self.witness:
                lines.append(f"  {f} -> {v}")
        else:
            lines.append(
                f"obstruction persists to degree {self.max_degree}"
                " (no primitive in the window; inconclusive beyond it)"
            )
            lines.append("second cohomology dims by degree: "
                         + " ".join(map(str, self.h2_dims)))
        return "\n".join(lines)


def run_prequantize(spec: ProblemSpec, window: SliceWindow) -> PrequantReport:
    if len(spec.variables) < 2:
        raise SpecError("prequantize needs at least two variables: the"
                        " curvature is a two-cochain")
    data = build_complex(spec, "log-poisson")
    structure = spec.structure()
    basis = basis_for(structure, spec.divisor())
    names = list(spec.variables)
    labels = basis.labels(names)
    pi = two_form_cochain(structure, basis)
    curvature = [
        (labels[i], labels[j], format_poly(p, names))
        for (i, j), p in sorted(pi.comps.items())
    ]
    witness = find_primitive(data, pi, window)
    buffer = window.resolve_buffer(data)
    if witness is not None:
        wtext = [
            (labels[t[0]], format_poly(p, names))
            for t, p in sorted(witness.comps.items())
        ]
        if not wtext:
            wtext = [(labels[0], "0")]
        return PrequantReport(window.max_degree, buffer, curvature, True, wtext, None)
    table = compute_table(data, [2], window)
    return PrequantReport(window.max_degree, buffer, curvature, False, None,
                          table.dims(2))


# -- selftest ----------------------------------------------------------------


def run_selftest(mutate: bool = False, seed: int = 20240917) -> tuple[str, bool]:
    from .selfcheck import run_all

    results = run_all(seed=seed, mutate=mutate)
    lines = []
    for r in results:
        status = "pass" if r.ok else "FAIL"
        detail = f"  [{r.detail}]" if r.detail else ""
        lines.append(f"{status}  {r.name}  ({r.cases} cases){detail}")
    ok = all(r.ok for r in results)
    lines.append(f"selftest: {len(results)} suites, "
                 f"{'all passed' if ok else 'FAILURES PRESENT'}")
    return "\n".join(lines), ok


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
    if ks and (ks[0] < 0 or ks[-1] > top):
        raise SpecError(f"k range {text!r} leaves the valid range 0..{top}")
    return list(ks)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(payload, fmt: str, text_renderer) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text_renderer())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logpoisson",
        description="checks, cohomology tables and prequantization for"
                    " polynomial Poisson structures with a logarithmic divisor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True,
                           help="problem document (JSON file, or '-' for stdin)")
        p.add_argument("--format", choices=("table", "json"), default="table")

    p_check = sub.add_parser("check", help="jacobi, divisor and nondegeneracy checks")
    common(p_check)

    p_coh = sub.add_parser("cohomology", help="per-degree cohomology dimension table")
    common(p_coh)
    p_coh.add_argument("--complex", choices=COMPLEX_KINDS, default="log-poisson")
    p_coh.add_argument("--k", default=None, help="cochain degrees, e.g. 0..2")
    p_coh.add_argument("--max-degree", type=int, default=None)
    p_coh.add_argument("--buffer", type=int, default=None)

    p_cmp = sub.add_parser("compare", help="compare tables of several complexes")
    common(p_cmp)
    p_cmp.add_argument("--complex", action="append", choices=COMPLEX_KINDS,
                       help="repeat to choose complexes (default: all three)")
    p_cmp.add_argument("--k", default=None)
    p_cmp.add_argument("--max-degree", type=int, default=None)
    p_cmp.add_argument("--buffer", type=int, default=None)

    p_pre = sub.add_parser("prequantize",
                           help="search a primitive for the induced two-form")
    common(p_pre)
    p_pre.add_argument("--max-degree", type=int, default=None)
    p_pre.add_argument("--buffer", type=int, default=None)

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
            text, ok = run_selftest(mutate=args.mutate, seed=args.seed)
            print(text)
            return EXIT_OK if ok else EXIT_CHECK_FAILED

        spec = parse_spec(_read_input(args.input))

        if args.command == "check":
            report = run_check(spec)
            _emit(report.to_json_dict(), args.format, report.to_text)
            return EXIT_OK if report.ok else EXIT_CHECK_FAILED

        if args.command == "cohomology":
            window = spec.window(args.max_degree, args.buffer)
            top = len(spec.variables)
            ks = parse_k_range(args.k, top) if args.k else list(range(top + 1))
            table = run_cohomology(spec, args.complex, ks, window)
            _emit(table_to_json_dict(table), args.format,
                  lambda: table_to_text(table))
            return EXIT_OK

        if args.command == "compare":
            kinds = args.complex or list(COMPLEX_KINDS)
            if len(kinds) < 2:
                raise SpecError("compare needs at least two --complex values")
            window = spec.window(args.max_degree, args.buffer)
            top = len(spec.variables)
            ks = parse_k_range(args.k, top) if args.k else list(range(top + 1))
            diffs = run_compare(spec, kinds, ks, window)

            def text():
                lines = []
                for d in diffs:
                    verdict = "equal" if d["equal"] else "DIFFER"
                    lines.append(f"{d['first']} vs {d['second']}: {verdict}")
                    for m in d["mismatches"]:
                        lines.append(
                            f"  k={m['k']} degree={m['degree']}: "
                            f"{d['first']}={m[d['first']]} {d['second']}={m[d['second']]}"
                        )
                return "\n".join(lines)

            _emit({"command": "compare", "max_degree": window.max_degree,
                   "pairs": diffs}, args.format, text)
            return EXIT_OK

        if args.command == "prequantize":
            window = spec.window(args.max_degree, args.buffer)
            report = run_prequantize(spec, window)
            _emit(report.to_json_dict(), args.format, report.to_text)
            return EXIT_OK

        raise SpecError(f"unknown command {args.command!r}")
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
