"""Degree-truncated exact linear algebra over the cochain complexes.

The complexes are infinite dimensional over Q; we compute per-degree
cohomology dimensions through the total-degree filtration F_d (cochains
whose coefficients have total degree at most d).  The differentials are
not graded, so images are computed from sources up to degree D + buffer
and then intersected with F_d by exact row reduction; a stabilization
flag records whether an entry survives enlarging the buffer.

All elimination is exact and fraction-free.  Sparse integer vectors are
keyed by (degree, component tuple, monomial), so the natural tuple order
is degree-compatible and "reduce at the largest key" yields a basis
whose pivot degrees read off the filtered intersection dimensions.
Columns are integer multiples of the differential's columns; a nonzero
multiple spans the same line, so no rank or pivot changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, gcd, lcm
from operator import add
from typing import Iterable, Optional, Sequence

from .complexes import Cochain, LieRinehartData, differential
from .poly import Poly, monomials_of_degree

# a coordinate of the sliced cochain space
Key = tuple[int, tuple[int, ...], tuple[int, ...]]
Vector = dict[Key, Fraction]
IntVector = dict[Key, int]

# The most basis cochains one elimination may take.  The windows of the
# tests, demos and benchmark need at most a few thousand; a far larger
# window would exhaust memory on its key list before the first column.
MAX_BASIS_SIZE = 100_000


class WindowTooLarge(ValueError):
    """A window whose cochain basis exceeds MAX_BASIS_SIZE."""


@dataclass(frozen=True)
class SliceWindow:
    """Reporting degree D plus the extra source degrees used for images.

    buffer=None means the per-complex default: the maximal degree shift
    of the differential (clamped at zero) plus two.
    """

    max_degree: int
    buffer: Optional[int] = None

    def __post_init__(self):
        # the one rule for window values, from the API and from documents;
        # bool is an int subclass but never a degree
        for name, value in (("max_degree", self.max_degree), ("buffer", self.buffer)):
            if value is None and name == "buffer":
                continue
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"'{name}' must be a nonnegative integer")

    def resolve_buffer(self, data: LieRinehartData) -> int:
        if self.buffer is not None:
            return self.buffer
        return max(data.degree_shift(), 0) + 2


def basis_size(data: LieRinehartData, k: int, max_degree: int) -> int:
    """Size of cochain_basis_keys(data, k, max_degree), counted without
    building it; raises WindowTooLarge above MAX_BASIS_SIZE."""
    if k > data.r or max_degree < 0:
        return 0
    size = comb(data.r, k) * comb(max_degree + data.nvars, data.nvars)
    if size > MAX_BASIS_SIZE:
        raise WindowTooLarge(
            f"the window needs {size} basis {k}-cochains of degree <= {max_degree};"
            f" the limit is {MAX_BASIS_SIZE}")
    return size


def cochain_basis_keys(data: LieRinehartData, k: int, max_degree: int) -> list[Key]:
    """Deterministic basis of the k-cochains with coefficients of total
    degree <= max_degree, ordered by (degree, tuple, monomial)."""
    if not basis_size(data, k, max_degree):
        return []
    keys = []
    for d in range(max_degree + 1):
        for tup in combinations(range(data.r), k):
            for mono in monomials_of_degree(data.nvars, d):
                keys.append((d, tup, mono))
    keys.sort()
    return keys


def basis_cochain(data: LieRinehartData, key: Key) -> Cochain:
    _, tup, mono = key
    return Cochain(len(tup), data.r, data.nvars,
                   {tup: Poly.monomial(data.nvars, mono)})


def cochain_to_vector(c: Cochain) -> Vector:
    vec: Vector = {}
    for tup, poly in c.comps.items():
        for mono, coeff in poly.terms.items():
            vec[(sum(mono), tup, mono)] = coeff
    return vec


def vector_to_cochain(vec: Vector, k: int, data: LieRinehartData) -> Cochain:
    comps: dict[tuple[int, ...], dict] = {}
    for (_, tup, mono), coeff in vec.items():
        comps.setdefault(tup, {})[mono] = coeff
    return Cochain(k, data.r, data.nvars,
                   {t: Poly(data.nvars, terms) for t, terms in comps.items()})


class Stencil:
    """The differential on k-cochains, compiled for monomial basis cochains.

    The differential is first order in the coefficient of a cochain:
    d(f e_T)_U = sum_j a_{U,j} df/dx_j + b_U f.  Both parts are read off
    the generic engine, b = d(1 e_T) and a_{., j} = d(x_j e_T) - x_j b,
    so nothing is written out by hand.  A term (j, U, shifts) stores, for
    each monomial of a_{U,j} (j None: of b_U), the exponent and degree
    shift it applies to the source monomial with its coefficient; a
    column is then a loop over terms into the sparse vector.  The
    coefficients of T are cleared of denominators by one common multiple,
    scale[T], so columns have integer entries.
    """

    def __init__(self, data: LieRinehartData, k: int):
        self.terms: dict[tuple[int, ...], list] = {}
        self.scale: dict[tuple[int, ...], int] = {}
        n = data.nvars
        one = Poly.const(n, 1)
        for tup in combinations(range(data.r), k):
            b = differential(data, Cochain(k, data.r, n, {tup: one}))
            parts = [(None, target, poly) for target, poly in b.comps.items()]
            for j in range(n):
                xj = Poly.variable(n, j)
                dxj = differential(data, Cochain(k, data.r, n, {tup: xj}))
                for target in sorted(set(dxj.comps) | set(b.comps)):
                    a = dxj.component(target) - xj * b.component(target)
                    if a:
                        parts.append((j, target, a))
            scale = lcm(*(c.denominator for _, _, poly in parts
                          for c in poly.terms.values()))
            self.terms[tup] = [(j, target, _shifts(poly, j, scale))
                               for j, target, poly in parts]
            self.scale[tup] = scale

    def column(self, key: Key) -> IntVector:
        """Coordinates of scale[T] * d(x^m e_T) for the basis key (deg m, T, m)."""
        deg, tup, mono = key
        vec: dict = {}
        get = vec.get
        for j, target, shifts in self.terms[tup]:
            if j is None:
                scale = 1
            else:
                scale = mono[j]
                if not scale:
                    continue
            for shift, dshift, coeff in shifts:
                at = (deg + dshift, target, tuple(map(add, mono, shift)))
                vec[at] = get(at, 0) + coeff * scale
        return {at: c for at, c in vec.items() if c}


def _shifts(poly: Poly, j: Optional[int], scale: int) -> tuple:
    # (exponent shift, degree shift, integer coefficient) per monomial; a
    # term with j also divides by x_j, which the source's x_j^(m_j) absorbs
    out = []
    for mono, coeff in poly.terms.items():
        shift = list(mono)
        if j is not None:
            shift[j] -= 1
        out.append((tuple(shift), sum(shift), coeff.numerator * (scale // coeff.denominator)))
    return tuple(out)


class Echelon:
    """Row space of integer vectors, each row primitive, pivoted at its
    largest key and with a positive pivot entry.

    Elimination is fraction-free: with a = row[top], b = vec[top] and
    g = gcd(a, b), a step sets vec to (a/g) vec - (b/g) row.  Keys of
    negative degree are bookkeeping coordinates: they sort below every
    real key, so they ride along in a combination but are never pivots.
    """

    def __init__(self):
        self.rows: dict[Key, IntVector] = {}

    def reduce(self, vec: IntVector) -> IntVector:
        vec = dict(vec)
        rows = self.rows
        while vec:
            top = max(vec)
            row = rows.get(top)
            if row is None:
                return vec
            a, b = row[top], vec[top]
            g = gcd(a, b)
            if a != g:
                a //= g
                vec = {key: a * val for key, val in vec.items()}
            b //= g
            for key, val in row.items():
                nv = vec.get(key, 0) - b * val
                if nv:
                    vec[key] = nv
                else:
                    del vec[key]
        return vec

    def insert(self, vec: IntVector) -> Optional[Key]:
        """Reduce and store; returns the new pivot key, or None when the
        vector was already in the row space (up to bookkeeping)."""
        vec = self.reduce(vec)
        top = max(vec, default=None)
        if top is None or top[0] < 0:
            return None
        content = gcd(*vec.values())
        if vec[top] < 0:
            content = -content
        if content != 1:
            vec = {key: val // content for key, val in vec.items()}
        self.rows[top] = vec
        return top

    @property
    def rank(self) -> int:
        return len(self.rows)


def _filtered_pass(data: LieRinehartData, k: int, max_degree: int,
                   image_limits: Sequence[int] = ()) -> tuple[list[int], list[list[int]]]:
    """One elimination of d^k, its columns fed in degree order.

    Returns dim(ker d^k meet F_d) for d = 0..max_degree and, for each
    source limit L in image_limits, dim(im meet F_d) for d = 0..max_degree
    where the image is spanned by the sources of degree <= L.  Restricting
    the sources to F_d just selects columns, so the kernel is columns
    minus rank after degree d.  Pivoting at the largest
    (degree-compatible) key makes the span readable per degree: its
    intersection with F_d has one basis row per pivot of degree <= d.
    """
    stencil = Stencil(data, k)
    ech = Echelon()
    pivots = [0] * (max_degree + 1)
    kernel: list[int] = []
    images: dict[int, list[int]] = {}
    top = max((max_degree, *image_limits))
    keys = cochain_basis_keys(data, k, top)
    pos = 0
    for d in range(top + 1):
        while pos < len(keys) and keys[pos][0] == d:
            column = stencil.column(keys[pos])
            pos += 1
            piv = ech.insert(column) if column else None
            if piv is not None and piv[0] <= max_degree:
                pivots[piv[0]] += 1
        if d <= max_degree:
            kernel.append(pos - ech.rank)
        if d in image_limits:
            images[d] = list(accumulate(pivots))
    return kernel, [images[limit] for limit in image_limits]


@dataclass(frozen=True)
class DegreeDim:
    degree: int
    dim: int
    cumulative: int
    stabilized: bool


def _degree_rows(kernel: list[int], image: list[int],
                 wider: list[int]) -> tuple[DegreeDim, ...]:
    rows = []
    prev = prev_wider = 0
    for d, ker in enumerate(kernel):
        cum, cum_wider = ker - image[d], ker - wider[d]
        dim = cum - prev
        rows.append(DegreeDim(d, dim, cum, dim == cum_wider - prev_wider))
        prev, prev_wider = cum, cum_wider
    return tuple(rows)


@dataclass(frozen=True)
class CohomologyTable:
    """Per (k, degree) dimensions with stabilization flags."""

    complex_name: str
    max_degree: int
    buffer: int
    rows: dict[int, tuple[DegreeDim, ...]]

    def dims(self, k: int) -> list[int]:
        return [r.dim for r in self.rows[k]]

    def cumulative(self, k: int) -> int:
        return self.rows[k][-1].cumulative if self.rows[k] else 0

    def entry(self, k: int, d: int) -> DegreeDim:
        return self.rows[k][d]

    @property
    def ks(self) -> list[int]:
        return sorted(self.rows)


def compute_table(data: LieRinehartData, ks: Iterable[int],
                  window: SliceWindow) -> CohomologyTable:
    """Filtered cohomology for each k in ks, eliminating every
    differential involved once: d^k gives the kernel at k and the image
    at k + 1.  Row k at degree d is dim H_{<=d} - dim H_{<=d-1} with
    H_{<=d} = (ker d^k in F_d) / (im d^{k-1} in F_d), the image taken from
    sources up to D + buffer; an entry unchanged under buffer + 1 is
    flagged stabilized."""
    ks = sorted(set(ks))
    for k in ks:
        if not 0 <= k <= data.r:
            raise ValueError(f"cochain degree {k} outside 0..{data.r}")
    D = window.max_degree
    buffer = window.resolve_buffer(data)
    limits = (D + buffer, D + buffer + 1)
    plan = {j: limits if j + 1 in ks else ()
            for j in sorted(set(ks) | {k - 1 for k in ks if k})}
    # every basis is counted before any is built
    for j, image_limits in plan.items():
        basis_size(data, j, max((D, *image_limits)))
    passes = {j: _filtered_pass(data, j, D, image_limits)
              for j, image_limits in plan.items()}
    no_image = [0] * (D + 1)
    rows = {}
    for k in ks:
        image, wider = passes[k - 1][1] if k else (no_image, no_image)
        rows[k] = _degree_rows(passes[k][0], image, wider)
    return CohomologyTable(data.name or "complex", D, buffer, rows)


@dataclass(frozen=True)
class TableDiff:
    equal: bool
    mismatches: tuple[tuple[int, int, int, int], ...]  # (k, d, dim1, dim2)


def compare_tables(first: CohomologyTable, second: CohomologyTable) -> TableDiff:
    """Per-entry equality of two tables over the same window.

    Buffers are complex-specific plumbing and may differ; the reporting
    degree and the k range must agree.
    """
    if first.max_degree != second.max_degree:
        raise ValueError("tables use different reporting degrees")
    if first.ks != second.ks:
        raise ValueError("tables cover different cochain degrees")
    bad = []
    for k in first.ks:
        for d in range(first.max_degree + 1):
            a, b = first.entry(k, d).dim, second.entry(k, d).dim
            if a != b:
                bad.append((k, d, a, b))
    return TableDiff(not bad, tuple(bad))


def find_primitive(data: LieRinehartData, cochain: Cochain,
                   window: SliceWindow) -> Optional[Cochain]:
    """Solve d(v) = cochain over sources of degree <= D + buffer.

    Returns a witness cochain, or None when no primitive exists in the
    window.  None is inconclusive: a primitive of higher degree could
    still exist.  The input must be exactly closed.
    """
    if not differential(data, cochain).is_zero():
        raise ValueError("cochain is not closed")
    k = cochain.k
    if k == 0:
        raise ValueError("0-cochains have no primitives")
    target = cochain_to_vector(cochain)
    if not target:
        return Cochain.zero(k - 1, data.r, data.nvars)
    D = window.max_degree
    buffer = window.resolve_buffer(data)
    stencil = Stencil(data, k - 1)
    # each source carries its own coordinate (-1, T, m), so a reduced
    # vector records which combination of the sources it is
    ech = Echelon()
    for key in cochain_basis_keys(data, k - 1, D + buffer):
        _, tup, mono = key
        column = stencil.column(key)
        column[(-1, tup, mono)] = stencil.scale[tup]
        ech.insert(column)
    # the target, cleared of denominators, with a marker for its multiple
    clear = lcm(*(c.denominator for c in target.values()))
    marker = (-1, (), ())
    target = {key: c.numerator * (clear // c.denominator) for key, c in target.items()}
    target[marker] = clear
    residual = ech.reduce(target)
    if max(residual)[0] >= 0:
        return None
    # residual = m * cochain - d(u) with bookkeeping -u and marker m
    multiple = residual.pop(marker)
    witness = vector_to_cochain(
        {key: Fraction(-c, multiple) for key, c in residual.items()}, k - 1, data)
    if differential(data, witness) != cochain:
        raise AssertionError("primitive verification failed: d(witness) != cochain")
    return witness
