"""Per-layer spans and counts, recorded from outside the program.

The tracer wraps public functions of the logpoisson modules in place
(module attributes and class attributes), so ``src/`` is never edited.
Each wrapped call records one span: name, start, end and the span that
was open when it began.  Spans stay in memory in flat integer arrays and
are written out once, when the run ends.  A name that a later version of
the program no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from array import array
from time import perf_counter_ns

# (module, attribute path, span name).  Echelon.reduce shares the span
# name of insert so that the final solve of find_primitive counts as
# elimination too; nested spans of one name are counted once.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_spec", "cli.parse_spec"),
    ("poisson", "PoissonStructure.jacobi_failures", "poisson.jacobi"),
    ("poisson", "is_log_principal", "poisson.log_principal"),
    ("logforms", "log_symplectic_test", "logforms.log_symplectic"),
    ("complexes", "poisson_complex", "complexes.build"),
    ("complexes", "log_poisson_complex", "complexes.build"),
    ("complexes", "log_derham_complex", "complexes.build"),
    ("complexes", "differential", "complexes.differential"),
    ("cohomology", "Echelon.insert", "cohomology.echelon"),
    ("cohomology", "Echelon.reduce", "cohomology.echelon"),
    ("cohomology", "_TrackingEchelon.insert", "cohomology.echelon"),
    ("cohomology", "_TrackingEchelon.reduce", "cohomology.echelon"),
    ("cohomology", "compute_table", "cohomology.compute_table"),
    ("cohomology", "find_primitive", "cohomology.find_primitive"),
)

# metric name -> (unit, span name, what is taken from the spans)
METRICS = {
    "cli.parse_spec_ms": ("ms", "cli.parse_spec", "total"),
    "poisson.jacobi_ms": ("ms", "poisson.jacobi", "total"),
    "poisson.log_principal_ms": ("ms", "poisson.log_principal", "total"),
    "logforms.log_symplectic_ms": ("ms", "logforms.log_symplectic", "total"),
    "complexes.build_ms": ("ms", "complexes.build", "total"),
    "complexes.differential_s": ("s", "complexes.differential", "total"),
    "complexes.differential_calls": ("count", "complexes.differential", "calls"),
    "cohomology.echelon_s": ("s", "cohomology.echelon", "total"),
    "cohomology.echelon_inserts": ("count", "echelon.inserts", "counter"),
    "cohomology.pivots": ("count", "echelon.pivots", "counter"),
    "cohomology.row_nnz": ("count", "echelon.row_nnz", "counter"),
    "cohomology.coeff_bits_max": ("bits", "echelon.coeff_bits_max", "counter"),
    "cohomology.table_self_s": ("s", "cohomology.compute_table", "self"),
    "cohomology.primitive_self_s": ("s", "cohomology.find_primitive", "self"),
    "cli.main_self_ms": ("ms", "cli.main", "self"),
    "poly.constructed": ("count", "poly.constructed", "counter"),
}

_SCALE = {"ms": 1e-6, "s": 1e-9}


def _resolve(owner, path):
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    return owner, attr


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.current = -1
        self.rounds: list[dict] = []  # label, kind, first span, counters
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_round(self, label, kind):
        """Start a set-up round or a pass; spans and counts after this
        call belong to it."""
        self.counts = {}
        self.rounds.append({"label": label, "kind": kind,
                            "first_span": len(self.name), "counts": self.counts})

    def _span(self, fn, name):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self.current)
            self.start.append(0)
            self.end.append(0)
            outer, self.current = self.current, idx
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self.start[idx] = t0
                self.current = outer
        return traced

    def _count_inserts(self, insert):
        @functools.wraps(insert)
        def counted(ech, *args, **kwargs):
            before = len(ech.rows)
            result = insert(ech, *args, **kwargs)
            c = self.counts
            c["echelon.inserts"] = c.get("echelon.inserts", 0) + 1
            if len(ech.rows) > before:
                row = next(reversed(ech.rows.values()))
                if isinstance(row, tuple):  # (row, combination) when tracking
                    row = row[0]
                bits = max((max(v.numerator.bit_length(), v.denominator.bit_length())
                            for v in row.values()), default=0)
                c["echelon.pivots"] = c.get("echelon.pivots", 0) + 1
                c["echelon.row_nnz"] = c.get("echelon.row_nnz", 0) + len(row)
                c["echelon.coeff_bits_max"] = max(c.get("echelon.coeff_bits_max", 0), bits)
            return result
        return counted

    def _count_polys(self, init):
        @functools.wraps(init)
        def counted(*args, **kwargs):
            c = self.counts
            c["poly.constructed"] = c.get("poly.constructed", 0) + 1
            return init(*args, **kwargs)
        return counted

    # -- patching -------------------------------------------------------

    def install(self):
        """Wrap the targets of the logpoisson modules now in sys.modules."""
        self.uninstall()
        modules = {name.partition(".")[2] or name: mod
                   for name, mod in sys.modules.items()
                   if name == "logpoisson" or name.startswith("logpoisson.")}
        for modname, path, span in TARGETS:
            owner, attr = _resolve(modules.get(modname), path)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            if attr == "insert":
                # counted inside the span: reading the new row is elimination work
                wrapped = self._span(self._count_inserts(original), span)
            else:
                wrapped = self._span(original, span)
            if owner is modules[modname]:
                # the function is also bound by name in importing modules
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)
            else:
                self._patch(owner, attr, wrapped)
        poly = getattr(modules.get("poly"), "Poly", None)
        if poly is not None and "__init__" in vars(poly):
            self._patch(poly, "__init__", self._count_polys(poly.__init__))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reading --------------------------------------------------------

    def _round_values(self, first, last, counts):
        """Per-name total, self time and calls over spans first..last-1."""
        child = {}
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p] = child.get(p, 0) + self.end[i] - self.start[i]
        total, own, calls = {}, {}, {}
        for i in range(first, last):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            own[name] = own.get(name, 0) + dur - child.get(i, 0)
            calls[name] = calls.get(name, 0) + 1
            p = self.parent[i]
            if p < first or self.name[p] != self.name[i]:
                total[name] = total.get(name, 0) + dur
        out = {}
        for metric, (unit, name, how) in METRICS.items():
            if how == "counter":
                out[metric] = counts.get(name, 0)
            elif how == "calls":
                out[metric] = calls.get(name, 0)
            else:
                raw = total if how == "total" else own
                out[metric] = raw.get(name, 0) * _SCALE[unit]
        return out

    def per_round(self):
        bounds = [r["first_span"] for r in self.rounds] + [len(self.name)]
        return [(r, self._round_values(bounds[i], bounds[i + 1], r["counts"]))
                for i, r in enumerate(self.rounds)]

    def metrics(self):
        """Each metric as the median over set-up rounds plus the median
        over traced passes: what one set-up and one pass spend in it (for
        a maximum, the larger of the two).  The lower median keeps counts
        whole."""
        rounds = self.per_round()
        out = {}
        for metric, (unit, _, _) in METRICS.items():
            parts = [statistics.median_low(values) for values in (
                [v[metric] for r, v in rounds if r["kind"] == kind]
                for kind in ("setup", "traced")) if values]
            value = max(parts) if metric.endswith("_max") else sum(parts)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path, extra):
        doc = {
            "names": self.names,
            "rounds": self.rounds,
            "per_round": [v for _, v in self.per_round()],
            "spans": {"name": self.name.tolist(), "start_ns": self.start.tolist(),
                      "end_ns": self.end.tolist(), "parent": self.parent.tolist()},
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
