"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in n variables is stored as a map from exponent tuples to
nonzero Fraction coefficients; the zero polynomial is the empty map, so
two polynomials are equal exactly when their term maps are equal.

Degree always means total degree.  Where a term order matters (exact
division, printing) we use graded lexicographic order in the declared
variable order.  Poly values are never mutated after construction, so
they are safe to share between concurrent workers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True when x^a divides x^b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    """Exponent vector of x^a / x^b (assumes x^b divides x^a)."""
    return tuple(x - y for x, y in zip(a, b))


def _grlex(m: Monomial):
    # sort key: total degree first, then lexicographic on exponents
    return (sum(m), m)


def monomials_of_degree(nvars: int, degree: int) -> list[Monomial]:
    """All monomials of total degree exactly `degree`, in descending
    lexicographic order on exponent tuples (so for two variables and
    degree 2: x^2, x*y, y^2).  The count is C(degree+nvars-1, nvars-1).
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if nvars == 1:
        return [(degree,)]
    out = []
    for e in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - e):
            out.append((e,) + rest)
    return out


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Mapping[Monomial, Scalar]] = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        canon: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != nvars:
                    raise ValueError(
                        f"monomial {mono} has {len(mono)} exponents, expected {nvars}"
                    )
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in {mono}")
                c = Fraction(coeff)
                if c:
                    canon[tuple(mono)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value: Scalar) -> "Poly":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        expo = [0] * nvars
        expo[index] = 1
        return cls(nvars, {tuple(expo): Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, expo: Monomial, coeff: Scalar = 1) -> "Poly":
        return cls(nvars, {tuple(expo): Fraction(coeff)})

    # -- structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * self.nvars}

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(self.nvars, other)
        return NotImplemented

    __hash__ = None  # mutable dict inside; not intended as a key type

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self.terms!r})"

    # -- arithmetic --------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other) -> "Poly":
        other = _coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + coeff
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = _coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = _coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Poly(self.nvars, {m: v * c for m, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = monomial_mul(ma, mb)
                out[mono] = out.get(mono, Fraction(0)) + ca * cb
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative power")
        out = Poly.const(self.nvars, 1)
        for _ in range(exponent):
            out = out * self
        return out

    # -- calculus and division ---------------------------------------

    def partial(self, index: int) -> "Poly":
        """Formal partial derivative with respect to variable `index`."""
        if not 0 <= index < self.nvars:
            raise IndexError(f"variable index {index} out of range")
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[index]
            if e == 0:
                continue
            lowered = list(mono)
            lowered[index] = e - 1
            out[tuple(lowered)] = coeff * e
        return Poly(self.nvars, out)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=_grlex)

    def exact_div(self, divisor: "Poly") -> Optional["Poly"]:
        """Exact quotient self/divisor, or None when not divisible.

        Term-order division against the single divisor; the decision is
        exact because the graded-lex leading monomial of the remainder
        strictly decreases at each step.
        """
        if not isinstance(divisor, Poly):
            raise TypeError("divisor must be a Poly")
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return Poly.zero(self.nvars)
        lm = divisor.leading_monomial()
        lc = divisor.terms[lm]
        rem = dict(self.terms)
        quot: dict[Monomial, Fraction] = {}
        while rem:
            m = max(rem, key=_grlex)
            if not monomial_divides(lm, m):
                return None
            qm = monomial_div(m, lm)
            qc = rem[m] / lc
            quot[qm] = quot.get(qm, Fraction(0)) + qc
            for dm, dc in divisor.terms.items():
                t = monomial_mul(qm, dm)
                nv = rem.get(t, Fraction(0)) - qc * dc
                if nv:
                    rem[t] = nv
                else:
                    rem.pop(t, None)
        return Poly(self.nvars, quot)

    # -- iteration helpers -------------------------------------------

    def sorted_terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Terms in descending graded-lex order (deterministic)."""
        for mono in sorted(self.terms, key=_grlex, reverse=True):
            yield mono, self.terms[mono]


def _coerce(value, nvars: int):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(nvars, value)
    return NotImplemented


# -- textual syntax ---------------------------------------------------
#
# grammar:  expr   := ['+'|'-'] term (('+'|'-') term)*
#           term   := factor ('*' factor)*
#           factor := base ('^' uint)?
#           base   := rational | name | '(' expr ')'
#           rational := uint ['/' uint]
# whitespace is insensitive; '/' is only allowed between integer literals.


class ParseError(ValueError):
    """Syntax or name error in the textual polynomial format."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


# Powers are expanded by repeated multiplication, so the parser rejects a
# power whose degree would exceed this before expanding it.
MAX_POWER_DEGREE = 16

_SYMBOLS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(("sym", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            try:
                int(text[i:j])  # Python refuses some digits and very long literals
            except ValueError:
                raise ParseError("malformed or overlong integer", i) from None
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, names: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = list(names)
        self.nvars = len(self.names)
        self.index = {n: i for i, n in enumerate(self.names)}

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, sym: str):
        kind, val, at = self.take()
        if kind != "sym" or val != sym:
            raise ParseError(f"expected {sym!r}", at)

    def parse(self) -> Poly:
        poly = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", at)
        return poly

    def expr(self) -> Poly:
        kind, val, _ = self.peek()
        negate = False
        if kind == "sym" and val in "+-":
            self.take()
            negate = val == "-"
        poly = self.term()
        if negate:
            poly = -poly
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val in "+-":
                self.take()
                rhs = self.term()
                poly = poly - rhs if val == "-" else poly + rhs
            else:
                return poly

    def term(self) -> Poly:
        poly = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val == "*":
                self.take()
                poly = poly * self.factor()
            else:
                return poly

    def factor(self) -> Poly:
        base = self.base()
        kind, val, _ = self.peek()
        if kind == "sym" and val == "^":
            self.take()
            kind, val, at = self.take()
            if kind != "int":
                raise ParseError("expected integer exponent after '^'", at)
            exponent = int(val)
            # a constant base counts as degree one, so its exponent is bounded too
            if exponent * max(base.degree(), 1) > MAX_POWER_DEGREE:
                raise ParseError(f"power of degree above the limit {MAX_POWER_DEGREE}", at)
            return base ** exponent
        return base

    def base(self) -> Poly:
        kind, val, at = self.take()
        if kind == "int":
            num = int(val)
            kind2, val2, _ = self.peek()
            if kind2 == "sym" and val2 == "/":
                self.take()
                kind3, val3, at3 = self.take()
                if kind3 != "int":
                    raise ParseError("expected integer denominator", at3)
                den = int(val3)
                if den == 0:
                    raise ParseError("zero denominator", at3)
                return Poly.const(self.nvars, Fraction(num, den))
            return Poly.const(self.nvars, num)
        if kind == "name":
            if val not in self.index:
                raise ParseError(f"unknown variable {val!r}", at)
            return Poly.variable(self.nvars, self.index[val])
        if kind == "sym" and val == "(":
            poly = self.expr()
            self.expect_sym(")")
            return poly
        raise ParseError(f"unexpected {val!r}" if val else "unexpected end of input", at)


def parse_poly(text: str, names: Sequence[str]) -> Poly:
    """Parse the textual syntax, e.g. ``x^2*y - 3/2*z``.

    Raises ParseError (with character position) on syntax errors and on
    variable names outside `names`.
    """
    if not names:
        raise ValueError("need at least one variable name")
    return _Parser(text, names).parse()


def format_poly(poly: Poly, names: Sequence[str]) -> str:
    """Deterministic rendering, parseable by parse_poly."""
    if len(names) != poly.nvars:
        raise ValueError("name list does not match variable count")
    if poly.is_zero():
        return "0"
    pieces = []
    for mono, coeff in poly.sorted_terms():
        factors = []
        for name, e in zip(names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append((" + " if coeff > 0 else " - ") + body)
    return "".join(pieces)
