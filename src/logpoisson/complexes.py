"""Cochain complexes of Lie-Rinehart type, driven by anchors and
structure constants.

One generic differential serves the three complexes in play.  The
logarithmic de Rham complex is the frame: its anchors are the dual
fields of the basis and its structure constants vanish.  The
logarithmic Poisson complex is read off the frame and the bivector pi
(two_form_cochain), and the Poisson complex is the same construction on
exact one-forms, every weight 1.  Components of a k-cochain are indexed
by strictly increasing k-tuples of basis indices.
"""

from __future__ import annotations

from bisect import bisect
from itertools import combinations
from typing import Mapping, Optional, Union

from .logforms import LogBasis, OneForm, log_hamiltonian_matrix, pair_scalar, poly_det
from .poisson import Derivation, PoissonStructure
from .poly import Poly, Scalar, _Record, _trusted


class LieRinehartData(_Record):
    """Basis size, anchor derivations and structure-constant table.

    sc[(i, j)] for i < j holds the coefficient vector of the bracket of
    basis elements i and j; missing pairs mean the bracket vanishes.
    """

    __slots__ = ("nvars", "r", "anchors", "sc", "name")

    def __init__(self, nvars: int, r: int, anchors: tuple[Derivation, ...],
                 sc: Mapping[tuple[int, int], tuple[Poly, ...]], name: str = ""):
        if len(anchors) != r:
            raise ValueError("need one anchor per basis element")
        for (i, j), vec in sc.items():
            if not 0 <= i < j < r:
                raise ValueError(f"structure constant key {(i, j)} out of range")
            if len(vec) != r:
                raise ValueError("structure constant vector has wrong length")
        self._init(nvars, r, anchors, sc, name)

    def degree_shift(self) -> int:
        """Largest total-degree increase the differential can cause,
        from anchor coefficients (degree - 1) and structure constants."""
        shift = 0
        for anchor in self.anchors:
            for c in anchor.coeffs:
                if c:
                    shift = max(shift, c.degree() - 1)
        for vec in self.sc.values():
            for c in vec:
                if c:
                    shift = max(shift, c.degree())
        return shift

    def anchor_targets(self, tup: tuple[int, ...]) -> list[tuple[int, tuple[int, ...], int]]:
        """(i, U, pos) for each index i not in tup, with U = tup + {i}
        and i at position pos of U: d puts (-1)^pos anchor i there."""
        out = []
        for i in range(self.r):
            if i not in tup:
                pos = bisect(tup, i)
                out.append((i, tup[:pos] + (i,) + tup[pos:], pos))
        return out

    def bracket_targets(self, tup: tuple[int, ...]) -> list[tuple[tuple[int, ...], int, Poly]]:
        """(U, power, c) for each l at position q of tup and each pair a < b
        outside rest = tup - {l} whose bracket has coefficient c at l:
        d puts (-1)^power c on U = rest + {a, b}, power = q + pos_U(a) + pos_U(b)."""
        out = []
        for q, l in enumerate(tup):
            rest = tup[:q] + tup[q + 1:]
            for (a, b), vec in self.sc.items():
                c = vec[l]
                if c and a not in rest and b not in rest:
                    pa, pb = bisect(rest, a), bisect(rest, b)  # a < b: b sits at pb + 1 in U
                    out.append((rest[:pa] + (a,) + rest[pa:pb] + (b,) + rest[pb:],
                                q + pa + pb + 1, c))
        return out

    def anchor(self, alpha: OneForm) -> Derivation:
        """sum_i alpha_i anchors[i]."""
        total = [_trusted(self.nvars, {})] * self.nvars
        for a, anchor in zip(alpha.coeffs, self.anchors):
            if a:
                total = [t + a * c for t, c in zip(total, anchor.coeffs)]
        return Derivation(tuple(total))

    def bracket(self, alpha: OneForm, beta: OneForm) -> OneForm:
        """Component l of [alpha, beta] is
        sum_{i<j} (a_i b_j - a_j b_i) sc[(i, j)][l]
        + anchor(alpha)(b_l) - anchor(beta)(a_l)."""
        a, b = alpha.coeffs, beta.coeffs
        from_a, from_b = self.anchor(alpha), self.anchor(beta)
        out = [from_a.apply(bl) - from_b.apply(al) for al, bl in zip(a, b)]
        for (i, j), vec in self.sc.items():
            w = a[i] * b[j] - a[j] * b[i]
            if w:
                out = [o + w * c for o, c in zip(out, vec)]
        return OneForm(tuple(out))


class Cochain:
    """Alternating k-form on the basis, stored on increasing index tuples."""

    __slots__ = ("k", "r", "nvars", "comps")

    def __init__(self, k: int, r: int, nvars: int,
                 comps: Optional[Mapping[tuple[int, ...], Poly]] = None):
        if not 0 <= k <= r:
            raise ValueError(f"cochain degree {k} outside 0..{r}")
        clean: dict[tuple[int, ...], Poly] = {}
        if comps:
            for tup, poly in comps.items():
                tup = tuple(tup)
                if len(tup) != k:
                    raise ValueError(f"component key {tup} has length != {k}")
                if any(not 0 <= t < r for t in tup):
                    raise ValueError(f"component key {tup} out of range")
                if list(tup) != sorted(set(tup)):
                    raise ValueError(f"component key {tup} must be strictly increasing")
                if poly.nvars != nvars:
                    raise ValueError("component has wrong variable count")
                if poly:
                    clean[tup] = poly
        self.k = k
        self.r = r
        self.nvars = nvars
        self.comps = clean

    @classmethod
    def zero(cls, k: int, r: int, nvars: int) -> "Cochain":
        return cls(k, r, nvars)

    def component(self, tup: tuple[int, ...]) -> Poly:
        poly = self.comps.get(tuple(tup))
        return _trusted(self.nvars, {}) if poly is None else poly

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self.k, self.r, self.nvars) == (other.k, other.r, other.nvars) \
            and self.comps == other.comps

    __hash__ = None

    def __add__(self, other: "Cochain") -> "Cochain":
        if (self.k, self.r, self.nvars) != (other.k, other.r, other.nvars):
            raise ValueError("cochain shape mismatch")
        out = dict(self.comps)
        for tup, poly in other.comps.items():
            out[tup] = out.get(tup, Poly.zero(self.nvars)) + poly
        return Cochain(self.k, self.r, self.nvars, out)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scale(-1)

    def scale(self, factor: Union[Poly, Scalar]) -> "Cochain":
        return Cochain(self.k, self.r, self.nvars,
                       {t: factor * p for t, p in self.comps.items()})

    def __repr__(self) -> str:
        return f"Cochain(k={self.k}, comps={self.comps!r})"


def add_term(out: dict, target: tuple[int, ...], power: int, term: Poly) -> None:
    """out[target] += (-1)^power term; a zero term adds no target."""
    if not term:
        return
    term = -term if power % 2 else term
    out[target] = out[target] + term if target in out else term


def differential(data: LieRinehartData, cochain: Cochain) -> Cochain:
    """The Lie-Rinehart differential.

    On a basis tuple t_0 < ... < t_k:
      sum_i (-1)^i  anchor(t_i) applied to the component with t_i removed
    + sum_{i<j} (-1)^{i+j}  cochain(bracket(t_i, t_j), rest),
    where the bracket argument expands A-linearly through the structure
    constants.  A top-degree cochain maps to the zero cochain.

    The sums are pushed from the components f on T, with their signs, to
    the targets of data.anchor_targets(T), anchor(i)(f), and of
    data.bracket_targets(T), c f.  Stencil reads the same two lists.
    """
    k, r, nvars = cochain.k, data.r, data.nvars
    if cochain.r != r or cochain.nvars != nvars:
        raise ValueError("cochain does not match the complex")
    if k >= r:
        # top degree: there is nowhere to go, return the zero top cochain
        return Cochain.zero(r, r, nvars)
    out: dict[tuple[int, ...], Poly] = {}
    for tup, f in cochain.comps.items():
        for i, target, pos in data.anchor_targets(tup):
            add_term(out, target, pos, data.anchors[i].apply(f))
        for target, power, c in data.bracket_targets(tup):
            add_term(out, target, power, c * f)
    return Cochain(k + 1, r, nvars, out)


# -- the three complexes ----------------------------------------------


def poisson_complex(structure: PoissonStructure) -> LieRinehartData:
    """Complex on exact one-forms: the logarithmic Poisson complex along
    the empty divisor, where every basis weight is 1."""
    data = log_poisson_complex(structure, LogBasis.all_exact(structure.n))
    return LieRinehartData(data.nvars, data.r, data.anchors, data.sc, "poisson")


def log_poisson_complex(structure: PoissonStructure, basis: LogBasis,
                        pi: Optional[Cochain] = None) -> LieRinehartData:
    """Complex on the logarithmic basis: the cotangent Lie-Rinehart
    algebra of pi = two_form_cochain over the frame log_derham_complex
    (Huebschmann 1990).  Anchor j is the frame's anchor of row j of pi,
    sum_l pi(j, l) rho_l, and the bracket of basis forms i and j is the
    frame's differential of pi(i, j), with coefficient rho_l(pi(i, j))
    on form l.  pi, when given, is two_form_cochain(structure, basis),
    built already."""
    frame = log_derham_complex(basis)
    if pi is None:
        pi = two_form_cochain(structure, basis)
    n = frame.r
    rows = [[_trusted(n, {})] * n for _ in range(n)]
    for (i, j), p in pi.comps.items():
        rows[i][j], rows[j][i] = p, -p
    anchors = tuple(frame.anchor(OneForm(tuple(row))) for row in rows)
    sc = {}
    for pair, p in pi.comps.items():
        vec = tuple(rho.apply(p) for rho in frame.anchors)
        if any(vec):
            sc[pair] = vec
    return LieRinehartData(n, n, anchors, sc, name="log-poisson")


def log_derham_complex(basis: LogBasis) -> LieRinehartData:
    """Exterior-derivative complex on logarithmic forms, as Lie-Rinehart
    data: the anchors are the commuting dual fields of the basis and all
    brackets vanish."""
    n = basis.n
    anchors = tuple(form.dual_field(n) for form in basis.forms)
    return LieRinehartData(n, n, anchors, {}, name="log-derham")


def log_hamiltonian_cochain_map(structure: PoissonStructure, basis: LogBasis,
                                omega: Cochain) -> Cochain:
    """Push a de Rham cochain to a log Poisson cochain through the
    logarithmic Hamiltonian map, with the degree sign (-1)^p.

    In coordinates this contracts with p x p minors of the map's matrix;
    together with the two differentials it anticommutes:
    d_log after this map equals minus this map after d.
    """
    n = structure.n
    p = omega.k
    matrix = log_hamiltonian_matrix(structure, basis)
    out: dict[tuple[int, ...], Poly] = {}
    for target in combinations(range(n), p):
        total = Poly.zero(n)
        for source, coeff in omega.comps.items():
            minor = [[matrix[i][j] for j in target] for i in source]
            det = poly_det(minor, n)
            if det:
                total = total + coeff * det
        if p % 2:
            total = -total
        if total:
            out[target] = total
    return Cochain(p, n, n, out)


def two_form_cochain(structure: PoissonStructure, basis: LogBasis) -> Cochain:
    """The induced two-form as a 2-cochain of the log Poisson complex:
    the component on (i, j) is the pairwise scalar of the basis forms.
    This is the curvature class tested by prequantization."""
    n = structure.n
    pairs = combinations(range(n), 2)
    return Cochain(2, n, n, {p: pair_scalar(structure, basis, *p) for p in pairs})


def two_form_value(pi: Cochain, alpha: OneForm, beta: OneForm) -> Poly:
    """A two-cochain on a pair of one-forms:
    sum_{i<j} (a_i b_j - a_j b_i) pi(i, j)."""
    a, b = alpha.coeffs, beta.coeffs
    total = _trusted(pi.nvars, {})
    for (i, j), p in pi.comps.items():
        total = total + (a[i] * b[j] - a[j] * b[i]) * p
    return total


def extension_bracket(structure: PoissonStructure, data: LieRinehartData, pi: Cochain,
                      left: tuple[Poly, OneForm],
                      right: tuple[Poly, OneForm]) -> tuple[Poly, OneForm]:
    """Bracket on A + (one-forms) used for the central extension:

    [(a, alpha), (b, beta)] =
        ({a,b} + pi(alpha,beta) + rho(alpha)(b) - rho(beta)(a), [alpha, beta])

    with rho and [,] the anchor and bracket of data.
    """
    a, alpha = left
    b, beta = right
    scalar = (
        structure.bracket(a, b)
        + two_form_value(pi, alpha, beta)
        + data.anchor(alpha).apply(b)
        - data.anchor(beta).apply(a)
    )
    return scalar, data.bracket(alpha, beta)
