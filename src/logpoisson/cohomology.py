"""Degree-truncated exact linear algebra over the cochain complexes.

The complexes are infinite dimensional over Q; we compute per-degree
cohomology dimensions through the total-degree filtration F_d (cochains
whose coefficients have total degree at most d).  In general the
differentials are not graded, so images are computed from sources up to
degree D + buffer and then intersected with F_d by exact row reduction;
a stabilization flag records whether an entry survives enlarging the
buffer.

On graded input fewer sources provably suffice.  A stencil term maps
x^m e_T to x^(m+s) e_U, changing the degree by delta = |s|.  d^k is
graded when integers phi(T) on k-tuples and psi(U) on (k+1)-tuples give
delta = psi(U) - phi(T) for every term; its reach is the largest
max phi - min psi over the components of the T-U graph (at least 0).
Then im meet F_d is spanned by the images of sources of degree <= d + reach:
  1. d preserves the weight |m| - phi(T), read as |m| - psi(U) on targets;
  2. weight blocks are spanned by keys, so im meet F_d is the sum of
     (image of a block) meet F_d over the blocks;
  3. a block meeting F_d holds a target of degree w + psi(U) <= d, so its
     sources have degree w + phi(T) <= d + reach.
So _Pass, the one elimination of tables and primitive searches, clamps
each image limit L to min(L, D + reach), D being the target's degree in
a search; pivots of degree <= D, tables, flags and witnesses are the
same as without the clamp.

A table also skips known cocycles.  A row of the d^(k-1) echelon with
pivot q lies in im d^(k-1), inside ker d^k, and its other keys are below
q.  Columns are fed in ascending key order, so d^k(e_q) is in the span of
earlier columns when e_q comes and would store no row.  So the d^k pass
counts the sources at those pivots but does not feed them; rows, kernels,
images and flags stay the same, also for the pivots of a clamped pass.
A table whose lowest k is at least 2 first runs the lead pass d^(k-2)
for its pivots alone.

Tables and searches share one plan (_Plan).  A search for a primitive
of a k-cochain is the plan of the H^k table with its d^(k-1) pass
tracked: the lead pass runs first, and the target is reduced once the
tracked pass has fed the search's source limit.  A skipped column would
reduce to bookkeeping keys alone, which Echelon.insert does not store,
so the echelon and the witness are the same as without the skip.  The
passes stop at that limit and can go on, so prequantize, which needs
the H^2 table when the search fails, eliminates each cochain degree
once.

A quasi-homogeneous bracket needs no search for the primitive of its
curvature: the Euler field of its weights is one (euler_primitive),
behind the same window gate as the search.

All elimination is exact and fraction-free.  A coordinate (degree,
component tuple, monomial) of the sliced cochain space is packed into one
ordered int (see Coordinates) whose order is the tuple order, so it is
degree-compatible and "reduce at the largest key" yields a basis whose
pivot degrees read off the filtered intersection dimensions.  Columns are
integer multiples of the differential's columns; a nonzero multiple spans
the same line, so no rank or pivot changes.  A compiled column holds one
affine form c0 + sum_j c_j m_j per offset from its source key
(Stencil.compile), where it is nonzero at m.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, gcd, lcm
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .complexes import Cochain, LieRinehartData, add_term, differential
from .logforms import LogBasis
from .poisson import PoissonStructure
from .poly import Poly, _Record, monomials_of_degree

# a coordinate of the sliced cochain space, as callers see it
Key = tuple[int, tuple[int, ...], tuple[int, ...]]

# The most basis cochains one elimination may take.  The windows of the
# tests, demos and benchmark need at most a few thousand.  The limit
# bounds memory, not time: on ungraded input elimination can grow far
# faster than the column count.  {x,y} = x(1+xy+y^2) along x at
# max_degree 150 needs 24,492 basis 1-cochains, well inside it; its H^2
# table took 54 s (CPython 3.11, 2-vCPU VM) while its d^1 pass fed every
# column, and takes 0.3 s now that the lead pass hands d^1 the pivots of
# d^0 (module docstring).  The limit is checked on the sources each pass
# takes, up to D + buffer + 1, or on graded input D + reach (module
# docstring), so a graded window is not refused for sources it never
# builds.  A search checks its passes before it builds any basis, and a
# table, also one that goes on after a search, checks all of its passes
# before it feeds any.
MAX_BASIS_SIZE = 100_000


class WindowTooLarge(ValueError):
    """A window whose cochain basis exceeds MAX_BASIS_SIZE."""


class SliceWindow(_Record):
    """Reporting degree D plus the extra source degrees used for images.

    buffer=None means the per-complex default: the maximal degree shift
    of the differential (clamped at zero) plus two.
    """

    __slots__ = ("max_degree", "buffer")

    def __init__(self, max_degree: int, buffer: Optional[int] = None):
        # the one rule for window values, from the API and from documents;
        # bool is an int subclass but never a degree
        for name, value in (("max_degree", max_degree), ("buffer", buffer)):
            if value is None and name == "buffer":
                continue
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"'{name}' must be a nonnegative integer")
        self._init(max_degree, buffer)

    def resolve_buffer(self, data: LieRinehartData) -> int:
        if self.buffer is not None:
            return self.buffer
        return max(data.degree_shift(), 0) + 2


def basis_size(data: LieRinehartData, k: int, max_degree: int) -> int:
    """Number of basis k-cochains of degree <= max_degree, counted
    without building them; raises WindowTooLarge above MAX_BASIS_SIZE."""
    if k > data.r or max_degree < 0:
        return 0
    size = comb(data.r, k) * comb(max_degree + data.nvars, data.nvars)
    if size > MAX_BASIS_SIZE:
        raise WindowTooLarge(
            f"the window needs {size} basis {k}-cochains of degree <= {max_degree};"
            f" the limit is {MAX_BASIS_SIZE}")
    return size


class Coordinates:
    """Ordered int coordinates of the sliced cochain space, base B.

    The key (d, T, m) of x^m e_T, with T of rank t among the index tuples
    of its length in lexicographic order, packs to

        (d * 2^r + t) * B^n + sum_i m_i * B^(n-1-i).

    While every exponent is below B, the ints of one cochain degree
    compare like the key tuples, and the map is linear: moving x^m e_T to
    x^(m+s) e_U adds one offset, whatever m is.  Negative ints are never
    keys; the echelon keeps them for bookkeeping.
    """

    def __init__(self, data: LieRinehartData, base: int):
        self.r, self.nvars, self.base = data.r, data.nvars, base
        self.block = base ** data.nvars
        self.stride = self.block << data.r  # one degree
        self.tuples = [list(combinations(range(data.r), k)) for k in range(data.r + 1)]
        self.rank = {tup: i for tuples in self.tuples for i, tup in enumerate(tuples)}
        self.places = [base ** (data.nvars - 1 - i) for i in range(data.nvars)]
        self.codes: dict[int, list[tuple[int, tuple[int, ...]]]] = {}

    def _code(self, mono: Sequence[int]) -> int:
        return sum(map(mul, mono, self.places))

    def pack(self, key: Key) -> int:
        d, tup, mono = key
        if not all(0 <= e < self.base for e in mono):
            raise ValueError(f"exponents {mono} outside 0..{self.base - 1}")
        return (d << self.r | self.rank[tup]) * self.block + self._code(mono)

    def unpack(self, code: int, k: int) -> Key:
        d, rest = divmod(code, self.stride)
        rank, rest = divmod(rest, self.block)
        mono = []
        for place in self.places:
            e, rest = divmod(rest, place)
            mono.append(e)
        return d, self.tuples[k][rank], tuple(mono)

    def offset(self, source: tuple[int, ...], target: tuple[int, ...],
               shift: Sequence[int]) -> int:
        """pack(d + |s|, target, m + s) - pack(d, source, m) for every m."""
        steps = (sum(shift) << self.r) + self.rank[target] - self.rank[source]
        return steps * self.block + self._code(shift)

    def keys(self, k: int, degree: int) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
        """(packed key, T, m) for the basis k-cochains x^m e_T of the
        given degree, in ascending order; none for k > r.  Each degree's
        (code, m) list is built once."""
        monos = self.codes.get(degree)
        if monos is None:
            monos = self.codes[degree] = [
                (self._code(m), m) for m in reversed(monomials_of_degree(self.nvars, degree))]
        for tup in self.tuples[k] if k <= self.r else ():
            start = (degree << self.r | self.rank[tup]) * self.block
            for code, mono in monos:
                yield start + code, tup, mono


# column(packed key, T, m) -> packed coordinates of one compiled column
Column = Callable[[int, tuple[int, ...], tuple[int, ...]], dict[int, int]]


class Stencil:
    """The differential on k-cochains, compiled for monomial basis cochains.

    The differential is first order in the coefficient of a cochain:
    d(f e_T)_U = sum_j a_{U,j} df/dx_j + b_U f, read off where differential
    puts its terms: b_U = d(1 e_T)_U sums (-1)^power c over each (U, power, c)
    of data.bracket_targets(T), and a_{U,j} = (-1)^pos anchors[i].coeffs[j]
    for each (i, U, pos) of data.anchor_targets(T).  A term (j, U, shifts)
    stores, for each monomial of a_{U,j} (j None: of b_U), the exponent
    shift it applies to the source monomial with its coefficient.  The
    coefficients of T are cleared of denominators by one common multiple,
    scale[T], so columns have integer entries.  reach bounds the sources
    whose image meets F_d by degree d + reach (module docstring); it is None
    when the terms admit no grading, and 0 when there are none.
    """

    def __init__(self, data: LieRinehartData, k: int):
        self.terms: dict[tuple[int, ...], list] = {}
        self.scale: dict[tuple[int, ...], int] = {}
        for tup in combinations(range(data.r), k):
            b: dict[tuple[int, ...], Poly] = {}
            for target, power, c in data.bracket_targets(tup):
                add_term(b, target, power, c)
            parts = [(None, target, 0, poly) for target, poly in b.items() if poly]
            for i, target, pos in data.anchor_targets(tup):
                parts += [(j, target, pos, c) for j, c in enumerate(data.anchors[i].coeffs) if c]
            self.scale[tup] = scale = lcm(*(c.denominator for *_, poly in parts
                                            for c in poly.terms.values()))
            self.terms[tup] = [(j, target, _shifts(poly, j, -scale if power % 2 else scale))
                               for j, target, power, poly in parts]
        self.reach = _reach(self.terms, k)

    def clamp(self, max_degree: int, limits: Sequence[int]) -> list[int]:
        """The source limits a pass takes: graded, sources above
        max_degree + reach add nothing to im meet F_max_degree."""
        if self.reach is None:
            return list(limits)
        return [min(limit, max_degree + self.reach) for limit in limits]

    def compile(self, coords: Coordinates) -> Column:
        """The column of scale[T] * d(x^m e_T) for a basis key of coords,
        each term one offset from the source key, and the terms at one
        offset merged into one affine form in m.  coords must hold the
        targets: its base above every source degree plus
        data.degree_shift(), the one sizing rule (_Plan)."""
        forms = {}
        for tup, terms in self.terms.items():
            # the entry at an offset is c0 + sum_j c_j m_j: d/dx_j of x^m is
            # m_j x^(m - e_j), the shift absorbing x_j^-1, and j None is b
            by_offset: dict[int, dict[Optional[int], int]] = {}
            for j, target, shifts in terms:
                for shift, coeff in shifts:
                    form = by_offset.setdefault(coords.offset(tup, target, shift), {})
                    form[j] = form.get(j, 0) + coeff
            merged = []
            for offset, form in by_offset.items():
                c0 = form.pop(None, 0)
                linear = tuple((j, c) for j, c in form.items() if c)
                if c0 or linear:
                    merged.append((offset, c0, linear))
            forms[tup] = tuple(merged)

        def column(src: int, tup: tuple[int, ...], mono: tuple[int, ...]) -> dict[int, int]:
            vec = {}
            for offset, c, linear in forms[tup]:
                for j, cj in linear:
                    c += cj * mono[j]
                if c:
                    vec[src + offset] = c
            return vec

        return column


def _reach(terms: dict[tuple[int, ...], list], k: int) -> Optional[int]:
    # Integers phi(T) on k-tuples and psi(U) on (k+1)-tuples with
    # delta = psi(U) - phi(T) for every term's degree change delta, found
    # by a walk over the T-U graph (the two kinds of tuple differ in
    # length); None when a cycle contradicts them.
    edges: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for tup, tup_terms in terms.items():
        for _, target, shifts in tup_terms:
            for shift, _ in shifts:
                delta = sum(shift)
                edges.setdefault(tup, []).append((target, delta))
                edges.setdefault(target, []).append((tup, -delta))
    level: dict[tuple[int, ...], int] = {}
    reach = 0
    for start in edges:
        if start in level:
            continue
        level[start] = 0
        component, stack = [start], [start]
        while stack:
            node = stack.pop()
            for other, delta in edges[node]:
                want = level[node] + delta
                have = level.get(other)
                if have is None:
                    level[other] = want
                    component.append(other)
                    stack.append(other)
                elif have != want:
                    return None
        reach = max(reach,
                    max(level[t] for t in component if len(t) == k)
                    - min(level[u] for u in component if len(u) != k))
    return reach


def _shifts(poly: Poly, j: Optional[int], scale: int) -> tuple:
    # (exponent shift, integer coefficient) per monomial of scale * poly; a
    # term with j also divides by x_j, which the source's x_j^(m_j) absorbs
    out = []
    for mono, coeff in poly.terms.items():
        shift = list(mono)
        if j is not None:
            shift[j] -= 1
        out.append((tuple(shift), coeff.numerator * (scale // coeff.denominator)))
    return tuple(out)


class Echelon:
    """Row space of sparse integer vectors keyed by packed coordinates,
    each row primitive, pivoted at its largest key and with a positive
    pivot entry.

    Elimination is fraction-free: with a = row[top], b = vec[top] and
    g = gcd(a, b), a step sets vec to (a/g) vec - (b/g) row.  Negative
    keys are bookkeeping coordinates: they sort below every real key, so
    they ride along in a combination but are never pivots; solve reads
    the combination of sources they record.
    """

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
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

    def insert(self, vec: dict[int, int]) -> Optional[int]:
        """Reduce and store; returns the new pivot key, or None when the
        vector was already in the row space (up to bookkeeping).  vec is
        never changed: it is copied when a row reduces it or its content
        is divided out, and otherwise stored as it is."""
        top = max(vec) if vec else -1
        if top in self.rows:
            vec = self.reduce(vec)
            top = max(vec) if vec else -1
        if top < 0:
            return None
        content = gcd(*vec.values())
        if vec[top] < 0:
            content = -content
        if content != 1:
            # a single entry divides to 1
            vec = {key: val // content for key, val in vec.items()} if len(vec) > 1 else {top: 1}
        self.rows[top] = vec
        return top

    def solve(self, vec: dict[int, int], multiple: int) -> Optional[dict[int, Fraction]]:
        """{s: x_s} with sum_s x_s col_s / book_s = vec / multiple, or None
        if the rows cannot reach vec: col_s is the real part of the column
        of source s, book_s its value at -2 - s, and vec's keys are real.
        With the marker -1, reduction leaves a * vec - sum_s b_s col_s,
        the marker M = a * multiple and c = -b_s book_s at -2 - s, so
        x_s = -c / M once no real key is left."""
        residual = self.reduce({**vec, -1: multiple})
        if max(residual) >= 0:
            return None
        multiple = residual.pop(-1)
        return {-2 - key: Fraction(-c, multiple) for key, c in residual.items()}

    @property
    def rank(self) -> int:
        return len(self.rows)


class _Pass:
    """The one elimination of d^k, its columns fed in degree order.

    _Pass(plan, k) takes max_degree = plan.D, the limits plan.limits[k]
    clamped and the coordinates from its plan.  feed(upto) feeds the
    sources of degree <= upto not fed yet, so a pass can stop and go on.
    After degree d <= max_degree, kernel[d] is dim(ker d^k meet F_d),
    columns minus rank; after each clamped source limit L, images[L]
    lists dim(im meet F_d) for d = 0..max_degree from the sources of
    degree <= L.  Pivoting at the largest (degree-compatible) key makes
    the span readable per degree: its intersection with F_d has one basis
    row per pivot of degree <= d.  In the pass the plan tracks, the column
    of source s carries the bookkeeping coordinate -2 - s with value
    scale[T], which Echelon.solve reads.  Sources at the keys in
    cocycles, pivots of the d^(k-1) pass that the plan hands on, are
    counted but not fed: their columns would store no row (module
    docstring).
    """

    def __init__(self, plan: _Plan, k: int):
        self.stencil = stencil = Stencil(plan.data, k)
        self.limits = stencil.clamp(plan.D, plan.limits[k])
        self.top = max((plan.D, *self.limits))
        self.k, self.max_degree, self.coords, self.cocycles = k, plan.D, plan.coords, set()
        self.tracked = k == plan.tracked
        self.column, self.ech = stencil.compile(plan.coords), Echelon()
        # sized by the first feed, which the plan's window gate precedes
        self.pivots: list[int] = []
        self.kernel: list[int] = []
        self.images: dict[int, list[int]] = {}
        self.sources, self.fed = 0, -1

    def feed(self, upto: int) -> None:
        if not self.pivots:
            self.pivots = [0] * (self.max_degree + 1)
        k, max_degree, coords, column, ech, cocycles, pivots, scale, tracked = (
            self.k, self.max_degree, self.coords, self.column, self.ech, self.cocycles,
            self.pivots, self.stencil.scale, self.tracked)
        kernel, images, limits, sources = self.kernel, self.images, self.limits, self.sources
        stride = coords.stride
        for d in range(self.fed + 1, upto + 1):
            for src, tup, mono in coords.keys(k, d):
                sources += 1
                if src in cocycles:
                    continue
                vec = column(src, tup, mono)
                if tracked:
                    vec[-2 - src] = scale[tup]
                piv = ech.insert(vec) if vec else None
                if piv is not None:
                    degree = piv // stride
                    if degree <= max_degree:
                        pivots[degree] += 1
            if d <= max_degree:
                kernel.append(sources - ech.rank)
            if d in limits:
                images[d] = list(accumulate(pivots))
        self.sources, self.fed = sources, max(self.fed, upto)

    def counts(self) -> tuple[list[int], list[list[int]]]:
        return self.kernel, [self.images[limit] for limit in self.limits]


class DegreeDim(NamedTuple):
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


class CohomologyTable(NamedTuple):
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


class _Plan:
    """The passes of the table of H^k for k in ks over one window, and
    of a search for a primitive of target, a k-cochain with ks = [k]
    (module docstring).

    d^j gives the kernel at j and, with the source limits D + buffer and
    D + buffer + 1, the image at j + 1.  The plan alone builds and sizes
    the passes, as _Pass(plan, j).  One Coordinates holds every pass,
    since data.degree_shift() bounds every stencil term's degree shift,
    and the target: the pivot keys of d^(j-1) are source keys of d^j as
    they stand.  Each pass, and so each stencil, is built once.  A search
    counts its bases before it builds any, and table() counts its own
    before it feeds any, so a table after a search refuses the windows
    compute_table refuses.  Echelon.solve reads a search's witness.
    """

    def __init__(self, data: LieRinehartData, ks: Iterable[int], window: SliceWindow,
                 target: Optional[Cochain] = None):
        self.ks = sorted(set(ks))
        for k in self.ks:
            if not 0 <= k <= data.r:
                raise ValueError(f"cochain degree {k} outside 0..{data.r}")
        self.data, self.target = data, target
        self.D, self.buffer = window.max_degree, window.resolve_buffer(data)
        top = self.D + self.buffer
        lead = [self.ks[0] - 2] if self.ks and self.ks[0] >= 2 else []
        self.limits = {j: (top, top + 1) if j + 1 in self.ks or j in lead else ()
                       for j in sorted({*self.ks, *(k - 1 for k in self.ks if k), *lead})}
        self.tracked = None if target is None else target.k - 1
        self.degree = 0 if target is None else \
            max((poly.degree() for poly in target.comps.values()), default=0)
        self.coords = Coordinates(data, max(top + 2 + data.degree_shift(), self.degree + 1))
        self.passes: dict[int, _Pass] = {}

    def pass_of(self, j: int) -> _Pass:
        """The pass of d^j, built on first use; the pivots of d^(j-1)
        so far are its known cocycles."""
        one = self.passes.get(j)
        if one is None:
            one = self.passes[j] = _Pass(self, j)
        if j - 1 in self.passes:
            one.cocycles.update(self.passes[j - 1].ech.rows)
        return one

    def search_limit(self) -> int:
        """The search's source limit, D + buffer clamped at the degree its
        d^(k-1) pass reports (the target's, at most D + buffer).  Every
        basis the search takes is counted first, the window's D too, as
        in a table: the window gate of both routes to a primitive."""
        k, top = self.target.k, self.D + self.buffer
        (limit,) = self.pass_of(k - 1).stencil.clamp(min(self.degree, top), [top])
        basis_size(self.data, k - 1, max(self.D, limit))
        if k >= 2:
            basis_size(self.data, k - 2, limit)  # the lead pass takes the same sources
        return limit

    def table(self) -> CohomologyTable:
        """compute_table of ks; the passes a search started go on."""
        D, counts = self.D, {}
        for j in self.limits:
            basis_size(self.data, j, self.pass_of(j).top)
        for j in self.limits:
            one = self.pass_of(j)
            # only the pivot keys go on, so no echelon outlives the start
            # of the pass after it
            self.passes.pop(j - 1, None)
            one.feed(one.top)
            counts[j] = one.counts()
        no_image = [0] * (D + 1)
        rows = {}
        for k in self.ks:
            image, wider = counts[k - 1][1] if k else (no_image, no_image)
            rows[k] = _degree_rows(counts[k][0], image, wider)
        return CohomologyTable(self.data.name or "complex", D, self.buffer, rows)

    def primitive(self) -> Optional[Cochain]:
        """find_primitive of the target."""
        data, cochain = self.data, self.target
        if not differential(data, cochain).is_zero():
            raise ValueError("cochain is not closed")
        k = cochain.k
        if k == 0:
            raise ValueError("0-cochains have no primitives")
        if cochain.is_zero():
            return Cochain.zero(k - 1, data.r, data.nvars)
        limit = self.search_limit()
        if k >= 2:
            # the lead pass: its pivots are cocycles of d^(k-1), whose tracked
            # columns would reduce to bookkeeping keys alone and store no row
            self.pass_of(k - 2).feed(limit)
        tracked = self.pass_of(k - 1)
        tracked.feed(limit)
        # the target, cleared of denominators by the multiple clear
        terms = [(tup, mono, c) for tup, poly in cochain.comps.items()
                 for mono, c in poly.terms.items()]
        clear = lcm(*(c.denominator for *_, c in terms))
        target = {self.coords.pack((sum(mono), tup, mono)): c.numerator * (clear // c.denominator)
                  for tup, mono, c in terms}
        solution = tracked.ech.solve(target, clear)
        if solution is None:
            return None
        comps: dict[tuple[int, ...], dict] = {}
        for src, c in solution.items():
            _, tup, mono = self.coords.unpack(src, k - 1)
            comps.setdefault(tup, {})[mono] = c
        witness = Cochain(k - 1, data.r, data.nvars,
                          {tup: Poly(data.nvars, comp) for tup, comp in comps.items()})
        if differential(data, witness) != cochain:
            raise AssertionError("primitive verification failed: d(witness) != cochain")
        return witness

    def euler(self, structure: PoissonStructure, basis: LogBasis) -> Optional[Cochain]:
        """euler_primitive of the target, gated by the search's sizing."""
        pi = self.target
        if pi.k != 2:
            raise ValueError("the Euler route takes a 2-cochain")
        if pi.is_zero():
            return None
        self.search_limit()  # the window gate
        weights = euler_weights(structure, basis)
        if weights is None:
            return None
        n = structure.n
        comps = {}
        for l, (w, form) in enumerate(zip(weights, basis.forms)):
            if w:
                mono = tuple(int(t == l and not form.is_log) for t in range(n))
                comps[(l,)] = Poly(n, {mono: w})
        theta = Cochain(1, self.data.r, n, comps)
        if differential(self.data, theta) != pi:
            raise AssertionError("Euler verification failed: d(theta) != pi")
        top = self.D + self.buffer
        if any(poly.degree() > top for poly in comps.values()):
            return None
        return theta


def compute_table(data: LieRinehartData, ks: Iterable[int],
                  window: SliceWindow) -> CohomologyTable:
    """Filtered cohomology for each k in ks, eliminating every
    differential involved once: d^k gives the kernel at k and the image
    at k + 1.  Row k at degree d is dim H_{<=d} - dim H_{<=d-1} with
    H_{<=d} = (ker d^k in F_d) / (im d^{k-1} in F_d), the image taken from
    sources up to D + buffer; an entry unchanged under buffer + 1 is
    flagged stabilized."""
    return _Plan(data, ks, window).table()


class TableDiff(NamedTuple):
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
    return _Plan(data, [cochain.k], window, cochain).primitive()


def euler_weights(structure: PoissonStructure, basis: LogBasis) -> Optional[list[Fraction]]:
    """Weights w with sum_l (m_l - [l = i] - [l = j]) w_l = -1 for every
    term x^m of every stored {x_i, x_j}, or None when there are none.

    Then every {x_i, x_j} is quasi-homogeneous of weight w_i + w_j - 1.
    The system is solved as find_primitive solves d(v) = cochain, by
    Echelon.solve: the column of w_l carries the bookkeeping key -2 - l
    with value 1.  The columns of the log variables go first, and a
    column that stores no row keeps weight 0.
    """
    n = structure.n
    equations = sorted({tuple(e - (l == i) - (l == j) for l, e in enumerate(mono))
                        for (i, j), poly in structure.table.items() for mono in poly.terms})
    ech = Echelon()
    for l in sorted(range(n), key=lambda l: not basis.forms[l].is_log):
        column = {row: eq[l] for row, eq in enumerate(equations) if eq[l]}
        column[-2 - l] = 1
        ech.insert(column)
    solution = ech.solve(dict.fromkeys(range(len(equations)), -1), 1)
    if solution is None:
        return None
    return [solution.get(l, Fraction(0)) for l in range(n)]


def euler_primitive(structure: PoissonStructure, basis: LogBasis, data: LieRinehartData,
                    pi: Cochain, window: SliceWindow) -> Optional[Cochain]:
    """A primitive of pi = two_form_cochain(structure, basis) in the log
    Poisson complex data, read off the Euler field: no elimination.

    If every {x_i, x_j} is quasi-homogeneous of weight w_i + w_j + e, the
    Euler field E = sum_l w_l x_l d/dx_l has d(E) = -e pi (Huebschmann
    1990; Monnier 2002).  euler_weights takes e = -1, so the witness is E
    on the log basis, theta(dx_l/h_l) = w_l x_l / h_l, and it is checked
    against pi in the generic engine.  The window is sized first by the
    plan of the search (_Plan.search_limit), so no window the search
    refuses passes this route.  Returns None, leaving the answer to
    find_primitive, when pi is zero, when no weights exist (e is 0 for
    every grading, as on log-canonical brackets), or when theta's degree
    exceeds D + buffer.  Raises ValueError unless pi is a 2-cochain.
    """
    return _Plan(data, [pi.k], window, pi).euler(structure, basis)
