import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from logpoisson.poly import (
    MAX_NESTING,
    MAX_POWER_DEGREE,
    MAX_TERMS,
    ParseError,
    Poly,
    format_poly,
    monomials_of_degree,
    parse_poly,
)
from logpoisson.selfcheck import XY, XYZ, p2, p3
from conftest import polys, random_nonzero_poly, random_poly


def test_add_examples():
    assert p2("x + y") + p2("-x") == p2("y")
    assert Poly.zero(2) + p2("x*y") == p2("x*y")
    assert p2("x^2*y + 1") + p2("x^2*y") == p2("2*x^2*y + 1")


def test_add_variable_count_mismatch():
    with pytest.raises(ValueError):
        p2("x") + p3("x")


def test_mul_examples():
    assert p2("x") * p2("y") == p2("x*y")
    assert p2("x+y") * p2("x-y") == p2("x^2 - y^2")
    assert p2("x^3 + 2*y") * Poly.zero(2) == Poly.zero(2)


def test_mul_degree_additivity(rng):
    for _ in range(50):
        f = random_nonzero_poly(rng, 2, 4)
        g = random_nonzero_poly(rng, 2, 4)
        assert (f * g).degree() == f.degree() + g.degree()


def test_partial_examples():
    assert p2("x^2*y").partial(0) == p2("2*x*y")
    assert p2("x^2").partial(1) == Poly.zero(2)
    assert p3("x*y*z").partial(2) == p3("x*y")
    with pytest.raises(IndexError):
        p2("x").partial(2)


def test_exact_div_examples():
    assert p2("x^2*y + x^3").exact_div(p2("x")) == p2("x*y + x^2")
    assert p3("x*y*z").exact_div(p3("y")) == p3("x*z")
    assert p2("x + 1").exact_div(p2("x")) is None
    with pytest.raises(ZeroDivisionError):
        p2("x").exact_div(Poly.zero(2))


def test_exact_div_nontrivial_divisor():
    f = p2("x^2 - y^2")
    assert f.exact_div(p2("x - y")) == p2("x + y")
    assert f.exact_div(p2("x + 2*y")) is None


def test_exact_div_non_monic():
    # leading coefficients 2 and 3/2: the quotient's denominators come
    # from the division, and an integral quotient term is an int
    for g in (p2("2*x^2 + y - 1"), p2("3/2*x*y + 1/3*y")):
        for q in (p2("1/2*x + 3*y - 5/7"), p2("x^2 - 2/3*y"), p2("x + 1")):
            got = (q * g).exact_div(g)
            assert got == q
            assert_canonical(got, 2)
            assert {m: type(c) for m, c in got.terms.items()} == \
                {m: type(c) for m, c in q.terms.items()}
    assert p2("x").exact_div(p2("2*x")) == Poly.const(2, Fraction(1, 2))


def test_monomials_of_degree():
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials_of_degree(3, 0) == [(0, 0, 0)]
    assert len(monomials_of_degree(3, 2)) == 6
    for n in (1, 2, 3, 4):
        for d in range(6):
            count = len(monomials_of_degree(n, d))
            assert count == math.comb(d + n - 1, n - 1)


def test_ring_axioms(rng):
    # associativity, commutativity, distributivity on random triples
    for _ in range(100):
        f = random_poly(rng, 2, 6)
        g = random_poly(rng, 2, 6)
        h = random_poly(rng, 2, 6)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h


def test_mixed_partials_commute(rng):
    for _ in range(50):
        f = random_poly(rng, 3, 5)
        for i in range(3):
            for j in range(3):
                assert f.partial(i).partial(j) == f.partial(j).partial(i)


def test_partial_leibniz(rng):
    for _ in range(50):
        f = random_poly(rng, 2, 4)
        g = random_poly(rng, 2, 4)
        for j in range(2):
            assert (f * g).partial(j) == f * g.partial(j) + g * f.partial(j)


def test_exact_div_round_trip(rng):
    hits = 0
    for _ in range(200):
        q = random_poly(rng, 2, 3)
        g = random_nonzero_poly(rng, 2, 3)
        f = q * g
        got = f.exact_div(g)
        assert got is not None and got == q
        hits += 1
    assert hits == 200


def _divisible_by_slice_solve(f, g):
    # a q of degree <= deg f - deg g with q*g == f exists iff appending f
    # to the products m*g over the monomials m of q leaves the rank alone
    if f.is_zero():
        return True
    dq = f.degree() - g.degree()
    if dq < 0:
        return False
    n = f.nvars
    cols = [Poly.monomial(n, m) * g
            for d in range(dq + 1) for m in monomials_of_degree(n, d)]
    monos = sorted({mono for c in cols for mono in c.terms} | set(f.terms))
    rows = [[c.coefficient(m) for m in monos] for c in cols]
    target = [f.coefficient(m) for m in monos]
    return oracle.dense_rank(rows) == oracle.dense_rank(rows + [target])


def test_exact_div_negative_certificate(rng):
    # when exact_div says NotDivisible, no quotient of the allowed degree exists
    checked = 0
    for _ in range(120):
        f = random_nonzero_poly(rng, 2, 3)
        g = random_nonzero_poly(rng, 2, 2)
        if f.exact_div(g) is None:
            assert not _divisible_by_slice_solve(f, g)
            checked += 1
    assert checked >= 20


def test_cancellation_empties_term_map(rng):
    for _ in range(50):
        f = random_poly(rng, 3, 4)
        assert (f + (-f)).terms == {}


def test_constructor_rejects_coercible_input():
    # floats, strings and bools are rejected, never coerced
    for terms in ({(1,): 0.1}, {(1,): "1/3"}, {(1,): True}, {(1,): 1.0},
                  {(1.5,): 1}, {(True,): 1}, {("1",): 1}):
        with pytest.raises(TypeError):
            Poly(1, terms)
    for make in (lambda: Poly.const(1, 0.5), lambda: Poly.monomial(1, (1,), "2"),
                 lambda: Poly.monomial(1, (2.0,))):
        with pytest.raises(TypeError):
            make()
    x = Poly.variable(1, 0)
    for op in (lambda: x + True, lambda: x * True, lambda: x * 0.5, lambda: 1.5 - x):
        with pytest.raises(TypeError):
            op()
    assert x != True and Poly.const(1, 1) != True
    p = Poly(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 3), (1, 1): 0, (2, 0): 5})
    assert p.terms == {(1, 0): 2, (0, 1): Fraction(1, 3), (2, 0): 5}
    assert [type(c) for c in p.terms.values()] == [int, Fraction, int]


def test_zero_keeps_its_variable_check():
    assert Poly.zero(3) == Poly(3) and Poly.zero(3).terms == {} and Poly.zero(3).nvars == 3
    for nvars in (0, -1):
        with pytest.raises(ValueError, match="at least one variable"):
            Poly.zero(nvars)


def is_canonical_coefficient(c) -> bool:
    """A nonzero int, or a Fraction whose denominator is above 1."""
    return (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator > 1)


def assert_canonical(p: Poly, nvars: int):
    """Canonical nonzero coefficients on int exponent tuples of length
    nvars, and the same polynomial as the validating constructor builds
    from them."""
    assert p.nvars == nvars
    for mono, coeff in p.terms.items():
        assert type(mono) is tuple and len(mono) == nvars
        assert all(type(e) is int and e >= 0 for e in mono)
        assert is_canonical_coefficient(coeff), coeff
    assert p == Poly(nvars, p.terms)


@settings(max_examples=60, deadline=None)
@given(f=polys(2), g=polys(2), c=st.sampled_from([0, 1, -2, Fraction(3, 4)]))
def test_arithmetic_results_are_canonical(f, g, c):
    results = [f + g, f - g, f - f, -f, f * g, f * c, c * f, f.partial(0), f.partial(1)]
    if g:
        assert (f * g).exact_div(g) == f
        results += [(f * g).exact_div(g), f.exact_div(g)]
    for p in results:
        if p is not None:  # f is not a multiple of g
            assert_canonical(p, 2)


# a polynomial of degree <= 4 in each of two variables that vanishes on
# a 5 x 5 grid is zero, so agreeing there is agreeing as polynomials
GRID = [(Fraction(a), Fraction(b)) for a in (-2, Fraction(-1, 2), 0, Fraction(1, 3), Fraction(3, 2))
        for b in (-1, Fraction(-2, 3), 0, Fraction(1, 2), 2)]


def value(p: Poly, point) -> Fraction:
    """p at a rational point, in Fraction arithmetic alone."""
    return sum((Fraction(c) * math.prod(x ** e for x, e in zip(point, mono))
                for mono, c in p.terms.items()), Fraction(0))


def partial_value(p: Poly, j: int, point) -> Fraction:
    """d p / d x_j at a rational point, in Fraction arithmetic alone."""
    return sum((Fraction(c) * mono[j] * math.prod(x ** (e - (i == j))
                                                  for i, (x, e) in enumerate(zip(point, mono)))
                for mono, c in p.terms.items() if mono[j]), Fraction(0))


@settings(max_examples=60, deadline=None)
@given(f=polys(2), g=polys(2),
       c=st.sampled_from([0, 1, -2, Fraction(4, 2), Fraction(3, 4), Fraction(-5, 3)]))
def test_arithmetic_matches_a_fraction_reference(f, g, c):
    results = {"sum": f + g, "difference": f - g, "product": f * g,
               "scaled": f * c, "rscaled": c * f, "dx": f.partial(0), "dy": f.partial(1)}
    if g:
        results["quotient"] = (f * g).exact_div(g)
        results["division"] = f.exact_div(g)
    for point in GRID:
        F, G = value(f, point), value(g, point)
        want = {"sum": F + G, "difference": F - G, "product": F * G,
                "scaled": F * c, "rscaled": F * c, "dx": partial_value(f, 0, point),
                "dy": partial_value(f, 1, point), "quotient": F}
        for name, p in results.items():
            if name == "division":
                assert p is None or value(p, point) * G == F
            else:
                assert value(p, point) == want[name], name


def test_parse_whitespace_insensitive():
    assert p3("x^2*y - 3/2*z") == p3("  x^2 * y-3/2 *z ")


def test_parse_rationals_and_parens():
    assert p2("3/2") == Poly.const(2, Fraction(3, 2))
    assert p2("-(x + y)^2") == -(p2("x+y") ** 2)
    assert p2("2*(x - 1/3)") == p2("2*x - 2/3")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        p2("x + w")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        p2("x ^ y")
    with pytest.raises(ParseError):
        p2("x +")
    with pytest.raises(ParseError):
        p2("x / 2")
    with pytest.raises(ParseError):
        p2("3 $ x")
    with pytest.raises(ParseError, match="overlong"):
        p2("x^" + "9" * 5000)
    # a power is bounded by its degree before it is expanded
    assert p2("(x*y + 1)^8").degree() == MAX_POWER_DEGREE
    for text, at in (("x^99999999999", 2), ("(x + y + 1)^17", 12), ("2^17", 2)):
        with pytest.raises(ParseError, match=f"limit {MAX_POWER_DEGREE}") as err:
            p2(text)
        assert err.value.position == at
    # and by its number of terms: 74,613 here, which took seconds to expand
    names = "abcdef"
    started = time.perf_counter()
    with pytest.raises(ParseError, match=f"limit {MAX_TERMS}") as err:
        parse_poly("(a+b+c+d+e+f+1)^16", names)
    assert time.perf_counter() - started < 1
    assert err.value.position == 16
    # the smaller of the two counts decides: products of terms for a
    # sparse base (C(19, 16) = 969), monomials of the degree for a dense
    # one (C(3+16, 3) = 969, against C(17, 8) = 24,310 products)
    assert len(parse_poly("(a+b+c+1)^16", names).terms) == 969
    dense = "(1 + x + y + z + x^2 + x*y + x*z + y^2 + y*z + z^2)^8"
    assert len(p3(dense).terms) == 969
    assert p2("0^3").is_zero()
    # a product is bounded the same way: two 969-term factors, C(6+32, 6)
    # monomials and 969^2 products of terms, took about 8 s to multiply
    started = time.perf_counter()
    with pytest.raises(ParseError, match=f"product of more terms than the limit {MAX_TERMS}") as err:
        parse_poly("(a+b+c+1)^16*(a+b+c+1)^16", names)
    assert time.perf_counter() - started < 1
    assert err.value.position == 12
    # the smaller count decides: 153^2 products of terms, but only
    # C(2+32, 2) = 561 monomials of degree <= 32 in two variables
    assert len(p2("(x+y+1)^16*(x+y+1)^16").terms) == 561
    assert p2("0*(x+y+1)^16").is_zero()
    assert parse_poly("0*0", "x").is_zero()


def test_parse_nesting_limit():
    deepest = "(" * MAX_NESTING + "x - 1/2" + ")" * MAX_NESTING
    assert p2(deepest) == p2("x - 1/2")
    # parentheses side by side are not nested
    assert p2(f"{deepest}^2*y + {deepest}") == p2("(x - 1/2)^2*y + x - 1/2")
    with pytest.raises(ParseError, match=f"nested deeper than the limit {MAX_NESTING}") as err:
        p2("y*(" + deepest + ")")
    assert err.value.position == 2 + MAX_NESTING


def test_format_round_trip(rng):
    for _ in range(100):
        f = random_poly(rng, 3, 5)
        assert parse_poly(format_poly(f, XYZ), XYZ) == f
    assert format_poly(Poly.zero(2), XY) == "0"
    assert format_poly(p2("-x + 3/2*y^2"), XY) == "3/2*y^2 - x"
