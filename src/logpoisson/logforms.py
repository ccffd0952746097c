"""The free module of logarithmic one-forms and its basis brackets.

With every divisor generator normalized to a single variable, the module
of logarithmic differentials is free with one basis form per ambient
variable.  Each basis form is dx_j/h_j for a weight h_j: h_j = x_j where
x_j carries a divisor and h_j = 1 elsewhere.  Its dual vector field is
h_j d/dx_j, so the coefficient of d f on the form is h_j df/dx_j.  The
bracket meets the weights in one place, pair_scalar: {x_i, x_j} over
h_i h_j is the value pi(i, j) of the induced bivector on the basis pair.
The Poisson complex is the case where every weight is 1.  A one-form is
then just a coefficient vector, and the log Poisson data (anchors and
structure constants, complexes.log_poisson_complex) is read off pi and
the frame of dual fields; the nondegeneracy test is the determinant of
the matrix of pi.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

from .poisson import Derivation, LogDivisorSpec, PoissonStructure
from .poly import Poly, Scalar, _Record


class DivisionObstruction(ArithmeticError):
    """A required exact division by a basis weight failed.

    This signals that the principal logarithmic condition does not hold
    (or was not checked) for the structure in use; it is never a
    recoverable state.
    """


class BasisForm(NamedTuple):
    """The form dx_j/h with weight h = x_j when is_log, else h = 1."""

    index: int
    is_log: bool

    def weight(self, nvars: int) -> Poly:
        if self.is_log:
            return Poly.variable(nvars, self.index)
        return Poly.const(nvars, 1)

    def dual_field(self, nvars: int) -> Derivation:
        """h d/dx_j, the vector field that pairs to 1 with this form."""
        coeffs = [Poly.zero(nvars)] * nvars
        coeffs[self.index] = self.weight(nvars)
        return Derivation(tuple(coeffs))

    def label(self, names: Sequence[str]) -> str:
        name = names[self.index]
        return f"d{name}/{name}" if self.is_log else f"d{name}"


class LogBasis(NamedTuple):
    """Ordered basis of the logarithmic one-forms, one form per variable."""

    forms: tuple[BasisForm, ...]

    @classmethod
    def from_divisor(cls, nvars: int, divisor: LogDivisorSpec) -> "LogBasis":
        logvars = set(divisor.variables)
        return cls(tuple(BasisForm(j, j in logvars) for j in range(nvars)))

    @classmethod
    def all_exact(cls, nvars: int) -> "LogBasis":
        return cls(tuple(BasisForm(j, False) for j in range(nvars)))

    @property
    def n(self) -> int:
        return len(self.forms)

    def labels(self, names: Sequence[str]) -> list[str]:
        return [f.label(names) for f in self.forms]


class OneForm(_Record):
    """sum_i coeffs[i] * basis form i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Poly, ...]):
        self._init(coeffs)

    @classmethod
    def zero(cls, n: int, nvars: int) -> "OneForm":
        return cls(tuple(Poly.zero(nvars) for _ in range(n)))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "OneForm":
        return OneForm(tuple(-a for a in self.coeffs))

    def scale(self, factor: Union[Poly, Scalar]) -> "OneForm":
        return OneForm(tuple(factor * a for a in self.coeffs))


def _divide(poly: Poly, weight: Poly, what: str) -> Poly:
    q = poly.exact_div(weight)
    if q is None:
        raise DivisionObstruction(
            f"{what}: coefficient is not divisible by the basis weight"
            f" with exponents {weight.leading_monomial()};"
            " the structure is not principal logarithmic along the divisor"
        )
    return q


def pair_scalar(structure: PoissonStructure, basis: LogBasis, i: int, j: int) -> Poly:
    """{x_i, x_j} divided by the weights of basis forms i and j.

    This is the scalar whose differential is the bracket of basis forms,
    the value of the induced two-form on the basis pair, and the entry
    (j, i) of the logarithmic Hamiltonian matrix.
    """
    value = structure.entry(i, j)
    if value.is_zero():
        return value
    weight = basis.forms[i].weight(structure.n) * basis.forms[j].weight(structure.n)
    return _divide(value, weight, "basis bracket")


def log_hamiltonian_matrix(structure: PoissonStructure, basis: LogBasis) -> list[list[Poly]]:
    """Matrix of the logarithmic Hamiltonian map in the dual fields of the
    basis.  Column j expands the image of basis form j: its entry in row
    i is {x_j, x_i} over both weights, the pairwise scalar (j, i)."""
    n = basis.n
    return [[pair_scalar(structure, basis, j, i) for j in range(n)] for i in range(n)]


def poly_det(matrix: Sequence[Sequence[Poly]], nvars: int) -> Poly:
    """Determinant by cofactor expansion; fine for the small sizes here."""
    size = len(matrix)
    if size == 0:
        return Poly.const(nvars, 1)
    if size == 1:
        return matrix[0][0]
    total = Poly.zero(nvars)
    for col in range(size):
        entry = matrix[0][col]
        if entry.is_zero():
            continue
        minor = [
            [row[c] for c in range(size) if c != col]
            for row in matrix[1:]
        ]
        cof = entry * poly_det(minor, nvars)
        total = total + cof if col % 2 == 0 else total - cof
    return total


class LogSymplecticReport(NamedTuple):
    is_log_symplectic: bool
    determinant: Poly


def log_symplectic_test(structure: PoissonStructure, basis: LogBasis) -> LogSymplecticReport:
    """Nondegeneracy of the logarithmic Hamiltonian map: its matrix must
    have a nonzero constant determinant."""
    det = poly_det(log_hamiltonian_matrix(structure, basis), structure.n)
    ok = det.is_constant() and not det.is_zero()
    return LogSymplecticReport(ok, det)
