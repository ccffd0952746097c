"""Cochain complexes of Lie-Rinehart type, driven by anchors and
structure constants.

One generic differential serves the three complexes in play: the
logarithmic Poisson complex on the logarithmic basis, the Poisson
complex (the same construction on exact one-forms, every weight 1), and
the logarithmic de Rham complex (whose anchors are the dual fields of
the basis and whose structure constants vanish).  Components of a
k-cochain are indexed by strictly increasing k-tuples of basis indices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Mapping, Optional, Sequence, Union

from .logforms import (
    LogBasis,
    log_hamiltonian_basis,
    log_hamiltonian_matrix,
    pair_scalar,
    poly_det,
    structure_constants,
)
from .poisson import Derivation, PoissonStructure
from .poly import Poly, Scalar


@dataclass(frozen=True)
class LieRinehartData:
    """Basis size, anchor derivations and structure-constant table.

    sc[(i, j)] for i < j holds the coefficient vector of the bracket of
    basis elements i and j; missing pairs mean the bracket vanishes.
    """

    nvars: int
    r: int
    anchors: tuple[Derivation, ...]
    sc: Mapping[tuple[int, int], tuple[Poly, ...]]
    name: str = ""

    def __post_init__(self):
        if len(self.anchors) != self.r:
            raise ValueError("need one anchor per basis element")
        for (i, j), vec in self.sc.items():
            if not 0 <= i < j < self.r:
                raise ValueError(f"structure constant key {(i, j)} out of range")
            if len(vec) != self.r:
                raise ValueError("structure constant vector has wrong length")

    def bracket_vector(self, i: int, j: int) -> tuple[Poly, ...]:
        """Coefficients of the bracket of basis elements i and j (any order)."""
        zero = tuple(Poly.zero(self.nvars) for _ in range(self.r))
        if i == j:
            return zero
        if i < j:
            return self.sc.get((i, j), zero)
        vec = self.sc.get((j, i))
        if vec is None:
            return zero
        return tuple(-p for p in vec)

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
        return self.comps.get(tuple(tup), Poly.zero(self.nvars))

    def value(self, args: Sequence[int]) -> Poly:
        """Evaluate on an arbitrary index sequence, with alternation."""
        args = tuple(args)
        if len(set(args)) != len(args):
            return Poly.zero(self.nvars)
        order = sorted(range(len(args)), key=args.__getitem__)
        inversions = sum(
            1
            for a in range(len(args))
            for b in range(a + 1, len(args))
            if order[a] > order[b]
        )
        base = self.component(tuple(sorted(args)))
        return -base if inversions % 2 else base

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


def differential(data: LieRinehartData, cochain: Cochain) -> Cochain:
    """The Lie-Rinehart differential.

    On a basis tuple t_0 < ... < t_k:
      sum_i (-1)^i  anchor(t_i) applied to the component with t_i removed
    + sum_{i<j} (-1)^{i+j}  cochain(bracket(t_i, t_j), rest),
    where the bracket argument expands A-linearly through the structure
    constants.  A top-degree cochain maps to the zero cochain.
    """
    k, r, nvars = cochain.k, data.r, data.nvars
    if cochain.r != r or cochain.nvars != nvars:
        raise ValueError("cochain does not match the complex")
    if k >= r:
        # top degree: there is nowhere to go, return the zero top cochain
        return Cochain.zero(r, r, nvars)
    out: dict[tuple[int, ...], Poly] = {}
    for tup in combinations(range(r), k + 1):
        total = Poly.zero(nvars)
        for pos, t in enumerate(tup):
            rest = tup[:pos] + tup[pos + 1:]
            f = cochain.component(rest)
            if f:
                term = data.anchors[t].apply(f)
                total = total - term if pos % 2 else total + term
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                rest = tuple(t for pos, t in enumerate(tup) if pos not in (a, b))
                vec = data.bracket_vector(tup[a], tup[b])
                for l, s in enumerate(vec):
                    if s.is_zero():
                        continue
                    val = cochain.value((l,) + rest)
                    if val.is_zero():
                        continue
                    term = s * val
                    total = total - term if (a + b) % 2 else total + term
        if total:
            out[tup] = total
    return Cochain(k + 1, r, nvars, out)


# -- the three complexes ----------------------------------------------


def poisson_complex(structure: PoissonStructure) -> LieRinehartData:
    """Complex on exact one-forms: the logarithmic Poisson complex along
    the empty divisor, where every basis weight is 1."""
    data = log_poisson_complex(structure, LogBasis.all_exact(structure.n))
    return replace(data, name="poisson")


def log_poisson_complex(structure: PoissonStructure, basis: LogBasis) -> LieRinehartData:
    """Complex on the logarithmic basis: anchors through the logarithmic
    Hamiltonian map, brackets from the pairwise scalars."""
    n = structure.n
    anchors = tuple(log_hamiltonian_basis(structure, f) for f in basis.forms)
    sc = {}
    for pair in combinations(range(n), 2):
        vec = structure_constants(structure, basis, *pair).coeffs
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
