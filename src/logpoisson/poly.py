"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in n variables is stored as a map from exponent tuples to
nonzero coefficients, each in one canonical form (_canon): an int when
the value is integral, a Fraction only where its denominator is above 1.
The zero polynomial is the empty map, so two polynomials are equal
exactly when their term maps are equal.

Degree always means total degree.  Where a term order matters (exact
division, printing) we use graded lexicographic order in the declared
variable order.  Poly values are never mutated after construction, so
they are safe to share between concurrent workers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
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
    return list(_monomials(nvars, degree))


@lru_cache(maxsize=None)
def _monomials(nvars: int, degree: int) -> tuple[Monomial, ...]:
    # built once per (nvars, degree); monomials_of_degree copies it
    if nvars == 1:
        return ((degree,),)
    # tails[t]: the monomials of degree t in the last variables, in order
    tails = [[(t,)] for t in range(degree + 1)]
    for _ in range(nvars - 2):
        tails = [[(e,) + rest for e in range(t, -1, -1) for rest in tails[t - e]]
                 for t in range(degree + 1)]
    return tuple((e,) + rest for e in range(degree, -1, -1) for rest in tails[degree - e])


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Mapping[Monomial, Scalar]] = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        canon: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != nvars:
                    raise ValueError(
                        f"monomial {mono} has {len(mono)} exponents, expected {nvars}"
                    )
                # bool is an int subclass but never an exponent or a scalar
                if any(type(e) is bool or not isinstance(e, int) for e in mono):
                    raise TypeError(f"exponents of {mono} must be ints")
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in {mono}")
                if not _is_scalar(coeff):
                    raise TypeError(
                        f"coefficient {coeff!r} must be an int or a Fraction")
                if coeff:
                    canon[tuple(mono)] = _canon(coeff)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        if nvars < 1:
            raise ValueError("need at least one variable")
        return _trusted(nvars, {})

    @classmethod
    def const(cls, nvars: int, value: Scalar) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        expo = [0] * nvars
        expo[index] = 1
        return _trusted(nvars, {tuple(expo): 1})

    @classmethod
    def monomial(cls, nvars: int, expo: Monomial, coeff: Scalar = 1) -> "Poly":
        return cls(nvars, {tuple(expo): coeff})

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

    def coefficient(self, mono: Monomial) -> Scalar:
        return self.terms.get(tuple(mono), 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        if _is_scalar(other):
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
            c = out.get(mono, 0) + coeff
            if c:
                out[mono] = _canon(c)
            else:
                del out[mono]
        return _trusted(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _trusted(self.nvars, {m: -c for m, c in self.terms.items()})

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
        if _is_scalar(other):
            if not other:
                return _trusted(self.nvars, {})
            return _trusted(self.nvars, {m: _canon(v * other) for m, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        out: dict[Monomial, Scalar] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = monomial_mul(ma, mb)
                out[mono] = out.get(mono, 0) + ca * cb
        return _trusted(self.nvars, {m: _canon(c) for m, c in out.items() if c})

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
        out: dict[Monomial, Scalar] = {}
        for mono, coeff in self.terms.items():
            e = mono[index]
            if e == 0:
                continue
            lowered = list(mono)
            lowered[index] = e - 1
            out[tuple(lowered)] = _canon(coeff * e)
        return _trusted(self.nvars, out)

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
        quot: dict[Monomial, Scalar] = {}
        while rem:
            m = max(rem, key=_grlex)
            if not monomial_divides(lm, m):
                return None
            qm = monomial_div(m, lm)
            qc = _canon(Fraction(rem[m], lc))  # exact: never an int / int float
            quot[qm] = qc
            for dm, dc in divisor.terms.items():
                t = monomial_mul(qm, dm)
                nv = rem.get(t, 0) - qc * dc
                if nv:
                    rem[t] = _canon(nv)
                else:
                    rem.pop(t, None)
        # each step's quotient monomial is new: the remainder's leading
        # monomial strictly decreases, so no quotient term cancels
        return _trusted(self.nvars, quot)

    # -- iteration helpers -------------------------------------------

    def sorted_terms(self) -> Iterator[tuple[Monomial, Scalar]]:
        """Terms in descending graded-lex order (deterministic)."""
        for mono in sorted(self.terms, key=_grlex, reverse=True):
            yield mono, self.terms[mono]


def _canon(c: Scalar) -> Scalar:
    # the one coefficient form: an int when the value is integral (an int
    # subclass becomes a plain int), a Fraction only where a denominator exists
    if c.denominator == 1:
        return c.numerator
    return c if type(c) is Fraction else Fraction(c)


def _trusted(nvars: int, terms: dict[Monomial, Scalar]) -> Poly:
    # Poly without validation, for results of the arithmetic above:
    # terms must already be nonzero and in _canon's form, on int exponent
    # tuples of length nvars, and are not copied.
    poly = object.__new__(Poly)
    object.__setattr__(poly, "nvars", nvars)
    object.__setattr__(poly, "terms", terms)
    return poly


def _is_scalar(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _coerce(value, nvars: int):
    if isinstance(value, Poly):
        return value
    if _is_scalar(value):
        return Poly.const(nvars, value)
    return NotImplemented


class _Record:
    """Base of the immutable records that must not act as tuples, since
    they validate or do arithmetic: equality, hash and repr go by the
    fields named in __slots__, in order, and _init sets each field once."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


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


# The parser rejects a power whose degree would exceed MAX_POWER_DEGREE,
# and a power or product whose bound on the number of terms would exceed
# MAX_TERMS, before expanding it.  A power or product at the term limit
# expands in a few tenths of a second.  Parentheses nested deeper than
# MAX_NESTING are rejected before the parser's recursion reaches
# Python's limit: each level takes four stack frames.
MAX_POWER_DEGREE = 16
MAX_TERMS = 5_000
MAX_NESTING = 100

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
        self.pos = self.depth = 0
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

    def bound_terms(self, what: str, products: int, degree: int, at: int) -> None:
        # the terms are at most the products of terms, and at most the
        # C(n+degree, n) monomials of degree <= degree
        if products > MAX_TERMS and comb(self.nvars + degree, self.nvars) > MAX_TERMS:
            raise ParseError(f"{what} of more terms than the limit {MAX_TERMS}", at)

    def term(self) -> Poly:
        poly = self.factor()
        while True:
            kind, val, at = self.peek()
            if kind == "sym" and val == "*":
                self.take()
                rhs = self.factor()
                # a zero factor has no terms, so its degree -1 is never used
                self.bound_terms("product", len(poly.terms) * len(rhs.terms),
                                 poly.degree() + rhs.degree(), at)
                poly = poly * rhs
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
            # t terms to the e-th power: at most C(t+e-1, e) products of terms
            if base:
                self.bound_terms("power", comb(len(base.terms) + exponent - 1, exponent),
                                 exponent * base.degree(), at)
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
            return _trusted(self.nvars, {(0,) * self.nvars: num} if num else {})
        if kind == "name":
            if val not in self.index:
                raise ParseError(f"unknown variable {val!r}", at)
            return Poly.variable(self.nvars, self.index[val])
        if kind == "sym" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than the limit {MAX_NESTING}", at)
            self.depth += 1
            poly = self.expr()
            self.expect_sym(")")
            self.depth -= 1
            return poly
        raise ParseError(f"unexpected {val!r}" if val else "unexpected end of input", at)


def is_variable_name(text: str) -> bool:
    """Whether text is one name token, so that parse_poly, given text
    among the names, reads it back as its own variable."""
    try:
        return _tokenize(text)[:-1] == [("name", text, 0)]
    except ParseError:
        return False


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
