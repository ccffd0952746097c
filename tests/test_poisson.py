from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from logpoisson.poly import Poly
from logpoisson.poisson import (
    Derivation,
    LogDivisorSpec,
    PoissonStructure,
    UnsupportedDivisor,
    is_log_principal,
    normalize_squarefree,
)
from logpoisson.selfcheck import XY, XYZ, p2, p3, setup_x, setup_x2, setup_xyz
from conftest import polys, random_poly


def test_bracket_examples():
    P, _ = setup_x()
    assert P.bracket(p2("x"), p2("y")) == p2("x")
    f = p2("x^2*y - y^3 + 2")
    assert P.bracket(f, f) == Poly.zero(2)
    Q, _ = setup_xyz()
    assert Q.bracket(p3("y^2"), p3("z")) == p3("2*x*y^2*z")


def test_bracket_skew(rng):
    P, _ = setup_x2()
    for _ in range(60):
        f = random_poly(rng, 2, 4)
        g = random_poly(rng, 2, 4)
        assert P.bracket(f, g) + P.bracket(g, f) == Poly.zero(2)


def test_bracket_leibniz(rng):
    Q, _ = setup_xyz()
    for _ in range(60):
        f = random_poly(rng, 3, 3)
        g = random_poly(rng, 3, 3)
        h = random_poly(rng, 3, 3)
        assert Q.bracket(f, g * h) == g * Q.bracket(f, h) + h * Q.bracket(f, g)


def test_jacobiator_examples():
    assert setup_x()[0].jacobi_failures() == []  # n=2: vacuous
    Q, _ = setup_xyz()
    assert Q.jacobiator(0, 1, 2) == Poly.zero(3)
    R = PoissonStructure(XYZ, {(0, 1): p3("z")})
    assert R.jacobiator(0, 1, 2) == Poly.zero(3)
    bad = PoissonStructure(XYZ, {(0, 1): p3("z"), (1, 2): p3("y")})
    assert bad.jacobi_failures() == [(0, 1, 2)]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.sampled_from([3, 4]))
def test_jacobiator_equals_the_nested_brackets(data, n):
    # any table, Poisson or not: the row sums are the six nested brackets
    names = "xyzw"[:n]
    table = {pair: data.draw(polys(n, max_exp=2, max_terms=3))
             for pair in combinations(range(n), 2)}
    P = PoissonStructure(names, table)
    for i, j, k in combinations(range(n), 3):
        assert P.jacobiator(i, j, k) == oracle.nested_jacobiator(P, i, j, k), table


def test_coordinate_jacobi_implies_full(rng):
    # once every coordinate triple vanishes, the full cyclic sum vanishes
    for P in (setup_xyz()[0], PoissonStructure(XYZ, {(0, 1): p3("z")})):
        assert not P.jacobi_failures()
        for _ in range(50):
            f = random_poly(rng, 3, 4, max_terms=4)
            g = random_poly(rng, 3, 4, max_terms=4)
            h = random_poly(rng, 3, 4, max_terms=4)
            total = (
                P.bracket(f, P.bracket(g, h))
                + P.bracket(g, P.bracket(h, f))
                + P.bracket(h, P.bracket(f, g))
            )
            assert total == Poly.zero(3)


def test_hamiltonian_examples():
    P, _ = setup_x()
    assert P.hamiltonian(p2("x")) == Derivation((Poly.zero(2), p2("x")))
    assert P.hamiltonian(p2("y")) == Derivation((p2("-x"), Poly.zero(2)))
    assert P.hamiltonian(Poly.const(2, 1)).is_zero()


def test_hamiltonian_is_the_bracket(rng):
    P, _ = setup_x2()
    for _ in range(40):
        f = random_poly(rng, 2, 4)
        g = random_poly(rng, 2, 4)
        assert P.hamiltonian(f).apply(g) == P.bracket(f, g)


def test_hamiltonian_product_rule(rng):
    P, _ = setup_x()
    for _ in range(40):
        f = random_poly(rng, 2, 3)
        g = random_poly(rng, 2, 3)
        lhs = P.hamiltonian(f * g)
        for j in range(2):
            rhs_j = f * P.hamiltonian(g).coeffs[j] + g * P.hamiltonian(f).coeffs[j]
            assert lhs.coeffs[j] == rhs_j


def test_normalize_squarefree():
    assert normalize_squarefree(p2("x^2")) == 0
    assert normalize_squarefree(p2("x")) == 0
    assert normalize_squarefree(p3("3*z^5")) == 2
    assert normalize_squarefree(p2("x + y")) is None
    assert normalize_squarefree(p2("x*y")) is None
    assert normalize_squarefree(Poly.const(2, 5)) is None
    with pytest.raises(ValueError):
        normalize_squarefree(Poly.zero(2))


def test_log_divisor_spec():
    spec = LogDivisorSpec.normalize([p3("x"), p3("y^2"), p3("z")])
    assert spec.variables == (0, 1, 2)
    with pytest.raises(UnsupportedDivisor):
        LogDivisorSpec.normalize([p3("x + y")])
    with pytest.raises(UnsupportedDivisor):
        LogDivisorSpec.normalize([p3("x"), p3("x^3")])
    with pytest.raises(UnsupportedDivisor):
        LogDivisorSpec.normalize([])


def test_is_log_principal():
    P, _ = setup_x()
    S = LogDivisorSpec.normalize([p2("x")])
    assert is_log_principal(P, S).ok

    Q, _ = setup_xyz()
    S3 = LogDivisorSpec.normalize([p3("x"), p3("y"), p3("z")])
    assert is_log_principal(Q, S3).ok

    sympl = PoissonStructure(XY, {(0, 1): Poly.const(2, 1)})
    rep = is_log_principal(sympl, S)
    assert not rep.ok
    (fail,) = rep.failures
    assert fail.divisor_var == 0 and fail.generator_var == 1
    assert fail.bracket == p2("-1")


def test_is_log_principal_x_squared():
    P, _ = setup_x2()
    S = LogDivisorSpec.normalize([p2("x^2")])
    assert S.variables == (0,)
    assert is_log_principal(P, S).ok
