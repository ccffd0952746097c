"""Poisson structures on polynomial algebras.

A structure on Q[x_0..x_{n-1}] is determined by the brackets of the
generators: a strictly upper triangular table p[i][j] = {x_i, x_j} for
i < j.  The skew extension {x_j, x_i} = -p[i][j] is implied and never
stored.  Everything here is pure and immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .poly import Poly


@dataclass(frozen=True)
class Derivation:
    """The derivation sum_j coeffs[j] * d/dx_j."""

    coeffs: tuple[Poly, ...]

    @property
    def nvars(self) -> int:
        return self.coeffs[0].nvars

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def apply(self, f: Poly) -> Poly:
        out = Poly.zero(f.nvars)
        for j, c in enumerate(self.coeffs):
            if c:
                out = out + c * f.partial(j)
        return out


class PoissonStructure:
    """Skew bracket table on generators, with {x_i, x_j} stored for i < j."""

    def __init__(self, names: Sequence[str], table: Mapping[tuple[int, int], Poly]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if not names:
            raise ValueError("need at least one variable")
        n = len(names)
        clean: dict[tuple[int, int], Poly] = {}
        for (i, j), poly in table.items():
            if not (0 <= i < j < n):
                raise ValueError(f"bracket key {(i, j)} must satisfy 0 <= i < j < {n}")
            if poly.nvars != n:
                raise ValueError("bracket entry has wrong variable count")
            if poly:
                clean[(i, j)] = poly
        self.names = names
        self.n = n
        self.table = clean

    def variable(self, index: int) -> Poly:
        return Poly.variable(self.n, index)

    def entry(self, i: int, j: int) -> Poly:
        """{x_i, x_j} for any pair, with skew symmetry applied."""
        if i == j:
            return Poly.zero(self.n)
        if i < j:
            return self.table.get((i, j), Poly.zero(self.n))
        return -self.table.get((j, i), Poly.zero(self.n))

    def bracket(self, f: Poly, g: Poly) -> Poly:
        """{f, g} = sum over i<j of p_ij (df/dx_i dg/dx_j - df/dx_j dg/dx_i)."""
        if f.nvars != self.n or g.nvars != self.n:
            raise ValueError("operands do not match the structure's variables")
        out = Poly.zero(self.n)
        for (i, j), p in self.table.items():
            term = f.partial(i) * g.partial(j) - f.partial(j) * g.partial(i)
            if term:
                out = out + p * term
        return out

    def hamiltonian(self, f: Poly) -> Derivation:
        """The derivation {f, -}, with j-th coefficient {f, x_j}."""
        return Derivation(tuple(self.bracket(f, self.variable(j)) for j in range(self.n)))

    def jacobiator(self, i: int, j: int, k: int) -> Poly:
        """{x_i,{x_j,x_k}} + {x_j,{x_k,x_i}} + {x_k,{x_i,x_j}}.

        Vanishing on all coordinate triples implies the Jacobi identity
        on the whole algebra, because the bracket is a biderivation.
        """
        if not (0 <= i < j < k < self.n):
            raise ValueError("need indices i < j < k inside the variable range")
        xi, xj, xk = (self.variable(t) for t in (i, j, k))
        return (
            self.bracket(xi, self.bracket(xj, xk))
            + self.bracket(xj, self.bracket(xk, xi))
            + self.bracket(xk, self.bracket(xi, xj))
        )

    def jacobi_failures(self) -> list[tuple[int, int, int]]:
        """Coordinate triples with nonzero jacobiator; empty means Jacobi
        holds (vacuously so for fewer than three variables)."""
        bad = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                for k in range(j + 1, self.n):
                    if self.jacobiator(i, j, k):
                        bad.append((i, j, k))
        return bad

    def is_jacobi(self) -> bool:
        return not self.jacobi_failures()


def normalize_squarefree(u: Poly) -> Optional[int]:
    """Index j when u = c * x_j^m (c rational, m >= 1), else None.

    The divisor x_j^m and its square-free reduction x_j generate the same
    module of logarithmic forms, since d(x^m)/x^m = m dx/x.
    """
    if u.is_zero():
        raise ValueError("zero polynomial cannot define a divisor")
    if len(u.terms) != 1:
        return None
    (mono,) = u.terms
    support = [idx for idx, e in enumerate(mono) if e > 0]
    if len(support) != 1:
        return None
    return support[0]


class UnsupportedDivisor(ValueError):
    """Divisor generator outside the supported c * x_j^m shape."""


@dataclass(frozen=True)
class LogDivisorSpec:
    """Declared divisor generators with their square-free normalization."""

    generators: tuple[Poly, ...]
    variables: tuple[int, ...]

    @classmethod
    def normalize(cls, generators: Iterable[Poly]) -> "LogDivisorSpec":
        gens = tuple(generators)
        if not gens:
            raise UnsupportedDivisor("divisor needs at least one generator")
        seen: dict[int, int] = {}
        variables = []
        for pos, u in enumerate(gens):
            idx = normalize_squarefree(u)
            if idx is None:
                raise UnsupportedDivisor(
                    f"generator #{pos} is not of the form c*x^m; only"
                    " single-variable monomial divisors are supported"
                )
            if idx in seen:
                raise UnsupportedDivisor(
                    f"generators #{seen[idx]} and #{pos} normalize to the same variable"
                )
            seen[idx] = pos
            variables.append(idx)
        return cls(gens, tuple(variables))


@dataclass(frozen=True)
class LogPrincipalFailure:
    generator_var: int  # index k: the bracket {x_k, x_j} that obstructed
    divisor_var: int    # index j of the divisor variable
    bracket: Poly       # the offending {x_k, x_j}


@dataclass(frozen=True)
class LogPrincipalReport:
    ok: bool
    failures: tuple[LogPrincipalFailure, ...]


def is_log_principal(structure: PoissonStructure, divisor: LogDivisorSpec) -> LogPrincipalReport:
    """Check that every {x_k, x_j} is divisible by x_j for each divisor
    variable x_j.  The generator-level check suffices by the Leibniz rule:
    {f, x_j} is an A-combination of the {x_k, x_j}.
    """
    failures = []
    for j in divisor.variables:
        xj = structure.variable(j)
        for k in range(structure.n):
            b = structure.entry(k, j)
            if b and b.exact_div(xj) is None:
                failures.append(LogPrincipalFailure(k, j, b))
    return LogPrincipalReport(not failures, tuple(failures))
