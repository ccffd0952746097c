"""The free module of logarithmic one-forms and its bracket.

With every divisor generator normalized to a single variable, the module
of logarithmic differentials is free with one basis form per ambient
variable.  Each basis form is dx_j/h_j for a weight h_j: h_j = x_j where
x_j carries a divisor and h_j = 1 elsewhere.  Its dual vector field is
h_j d/dx_j, so the coefficient of d f on the form is h_j df/dx_j, and
every bracket of basis forms is a generator bracket divided by weights.
The Poisson complex is the case where every weight is 1.  A one-form is
then just a coefficient vector, and the logarithmic Hamiltonian map, the
bracket on one-forms and the nondegeneracy test all become exact
polynomial computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .poisson import Derivation, LogDivisorSpec, PoissonStructure
from .poly import Poly, Scalar


class DivisionObstruction(ArithmeticError):
    """A required exact division by a basis weight failed.

    This signals that the principal logarithmic condition does not hold
    (or was not checked) for the structure in use; it is never a
    recoverable state.
    """


@dataclass(frozen=True)
class BasisForm:
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


@dataclass(frozen=True)
class LogBasis:
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


@dataclass(frozen=True)
class OneForm:
    """sum_i coeffs[i] * basis form i."""

    coeffs: tuple[Poly, ...]

    @classmethod
    def zero(cls, n: int, nvars: int) -> "OneForm":
        return cls(tuple(Poly.zero(nvars) for _ in range(n)))

    @classmethod
    def basis_element(cls, n: int, nvars: int, i: int) -> "OneForm":
        return cls(tuple(
            Poly.const(nvars, 1) if j == i else Poly.zero(nvars) for j in range(n)
        ))

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


def log_hamiltonian_basis(structure: PoissonStructure, form: BasisForm) -> Derivation:
    """Image of a basis form: the Hamiltonian derivation of x_j, with
    coefficients {x_j, x_l}, divided by the form's weight."""
    weight = form.weight(structure.n)
    return Derivation(tuple(
        _divide(structure.entry(form.index, l), weight, "log Hamiltonian")
        for l in range(structure.n)
    ))


def log_hamiltonian(structure: PoissonStructure, basis: LogBasis, alpha: OneForm) -> Derivation:
    """A-linear extension of log_hamiltonian_basis to one-forms."""
    n = structure.n
    total = [Poly.zero(n) for _ in range(n)]
    for a, form in zip(alpha.coeffs, basis.forms):
        if a.is_zero():
            continue
        image = log_hamiltonian_basis(structure, form)
        for j in range(n):
            if image.coeffs[j]:
                total[j] = total[j] + a * image.coeffs[j]
    return Derivation(tuple(total))


def express_d(basis: LogBasis, f: Poly) -> OneForm:
    """The differential of f expanded in the basis: the coefficient of
    each form is its dual field applied to f."""
    return OneForm(tuple(form.dual_field(f.nvars).apply(f) for form in basis.forms))


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


def structure_constants(structure: PoissonStructure, basis: LogBasis, i: int, j: int) -> OneForm:
    """The bracket of basis forms i and j, as a one-form."""
    return express_d(basis, pair_scalar(structure, basis, i, j))


def form_bracket(structure: PoissonStructure, basis: LogBasis,
                 alpha: OneForm, beta: OneForm) -> OneForm:
    """Lie bracket on logarithmic one-forms.

    Expanded over the basis with the module Leibniz rule:
    [alpha, beta] = sum a_i b_j [e_i, e_j]
                  + sum_j H(alpha)(b_j) e_j - sum_i H(beta)(a_i) e_i
    where H is the logarithmic Hamiltonian map.
    """
    n = structure.n
    total = OneForm.zero(basis.n, n)
    for i, a in enumerate(alpha.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(beta.coeffs):
            if b.is_zero() or i == j:
                continue
            total = total + structure_constants(structure, basis, i, j).scale(a * b)
    d_alpha = log_hamiltonian(structure, basis, alpha)
    d_beta = log_hamiltonian(structure, basis, beta)
    coeffs = list(total.coeffs)
    for k in range(basis.n):
        coeffs[k] = coeffs[k] + d_alpha.apply(beta.coeffs[k]) - d_beta.apply(alpha.coeffs[k])
    return OneForm(tuple(coeffs))


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


@dataclass(frozen=True)
class LogSymplecticReport:
    is_log_symplectic: bool
    determinant: Poly


def log_symplectic_test(structure: PoissonStructure, basis: LogBasis) -> LogSymplecticReport:
    """Nondegeneracy of the logarithmic Hamiltonian map: its matrix must
    have a nonzero constant determinant."""
    det = poly_det(log_hamiltonian_matrix(structure, basis), structure.n)
    ok = det.is_constant() and not det.is_zero()
    return LogSymplecticReport(ok, det)


def two_form_value(structure: PoissonStructure, basis: LogBasis,
                   alpha: OneForm, beta: OneForm) -> Poly:
    """The induced alternating two-form evaluated on a pair of one-forms
    (A-bilinear extension of pair_scalar)."""
    n = structure.n
    total = Poly.zero(n)
    for i, a in enumerate(alpha.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(beta.coeffs):
            if b.is_zero() or i == j:
                continue
            total = total + a * b * pair_scalar(structure, basis, i, j)
    return total


def extension_bracket(structure: PoissonStructure, basis: LogBasis,
                      left: tuple[Poly, OneForm],
                      right: tuple[Poly, OneForm]) -> tuple[Poly, OneForm]:
    """Bracket on A + (log one-forms) used for the central extension:

    [(a, alpha), (b, beta)] =
        ({a,b} + pi(alpha,beta) + H(alpha)(b) - H(beta)(a), [alpha, beta])

    with pi the induced two-form and H the logarithmic Hamiltonian map.
    """
    a, alpha = left
    b, beta = right
    scalar = (
        structure.bracket(a, b)
        + two_form_value(structure, basis, alpha, beta)
        + log_hamiltonian(structure, basis, alpha).apply(b)
        - log_hamiltonian(structure, basis, beta).apply(a)
    )
    return scalar, form_bracket(structure, basis, alpha, beta)
