"""Anchors, structure constants and differentials of the worked complexes.

The randomized closed-form, d-squared and chain-map checks live in
logpoisson.selfcheck (run by acceptance criterion 8); here the generic
log de Rham differential is also checked against the direct exterior
derivative in tests/oracle.py, and the complexes built from basis
weights against their direct definitions there, on generated structures.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from logpoisson.complexes import (
    Cochain,
    differential,
    log_derham_complex,
    log_hamiltonian_cochain_map,
    log_poisson_complex,
    poisson_complex,
    two_form_cochain,
)
from logpoisson.logforms import DivisionObstruction, LogBasis, log_hamiltonian_matrix
from logpoisson.poisson import Derivation, LogDivisorSpec, PoissonStructure, is_log_principal
from logpoisson.poly import Poly
from logpoisson.selfcheck import (
    XY,
    p2,
    p3,
    random_cochain,
    setup_x,
    setup_x2,
    setup_xyz,
    worked_structures,
)
from conftest import polys, random_poly
from oracle import log_derham_differential


# -- anchors and structure constants of the worked structures ----------


def test_log_poisson_anchors():
    P, B = setup_x()
    L = log_poisson_complex(P, B)
    assert L.anchors == (
        Derivation((Poly.zero(2), p2("1"))),
        Derivation((p2("-x"), Poly.zero(2))),
    )
    assert L.sc == {}

    P2, B2 = setup_x2()
    L2 = log_poisson_complex(P2, B2)
    assert L2.anchors == (
        Derivation((Poly.zero(2), p2("x"))),
        Derivation((p2("-x^2"), Poly.zero(2))),
    )
    assert L2.sc[(0, 1)] == (p2("x"), Poly.zero(2))

    P3, B3 = setup_xyz()
    L3 = log_poisson_complex(P3, B3)
    assert L3.anchors[0].is_zero()
    assert L3.anchors[1] == Derivation((Poly.zero(3), Poly.zero(3), p3("x*z")))
    assert L3.anchors[2] == Derivation((Poly.zero(3), p3("-x*y"), Poly.zero(3)))
    assert L3.sc == {(1, 2): (p3("x"), Poly.zero(3), Poly.zero(3))}


def test_poisson_complex_data():
    P, _ = setup_x()
    L = poisson_complex(P)
    assert L.anchors == (
        Derivation((Poly.zero(2), p2("x"))),
        Derivation((p2("-x"), Poly.zero(2))),
    )
    assert L.sc == {(0, 1): (p2("1"), Poly.zero(2))}

    P3, _ = setup_xyz()
    L3 = poisson_complex(P3)
    assert L3.sc == {(1, 2): (p3("y*z"), p3("x*z"), p3("x*y"))}


# -- the weighted frame against the direct definitions -----------------


def assert_frame_matches_direct(P, logvars):
    """Poisson data, log Poisson data, de Rham anchors and Hamiltonian
    matrices against tests/oracle.py; logvars are the divisor variables."""
    n = P.n
    poi = poisson_complex(P)
    assert poi.name == "poisson"
    assert poi.anchors == oracle.poisson_anchors(P)
    assert poi.sc == oracle.poisson_structure_constants(P)
    assert log_hamiltonian_matrix(P, LogBasis.all_exact(n)) == \
        oracle.log_hamiltonian_matrix(P, set())
    spec = LogDivisorSpec.normalize([Poly.variable(n, j) for j in sorted(logvars)])
    assert is_log_principal(P, spec).ok
    B = LogBasis.from_divisor(n, spec)
    log = log_poisson_complex(P, B)
    assert log.anchors == oracle.log_anchors(P, logvars)
    assert log.sc == oracle.log_structure_constants(P, logvars)
    assert log_derham_complex(B).anchors == oracle.derham_anchors(n, logvars)
    assert log_hamiltonian_matrix(P, B) == oracle.log_hamiltonian_matrix(P, logvars)


@settings(max_examples=25, deadline=None)
@given(f=polys(2))
def test_frame_matches_direct_on_plane_brackets(f):
    # {x,y} = x*f is Poisson and principal logarithmic along x
    P = PoissonStructure(XY, {(0, 1): Poly.variable(2, 0) * f})
    assert_frame_matches_direct(P, {0})


@st.composite
def log_canonical(draw):
    """{x_i, x_j} = c_ij x_i x_j on 3 or 4 variables, with a nonempty set
    of divisor variables; Poisson and principal logarithmic for any c."""
    n = draw(st.integers(3, 4))
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            expo = tuple(int(t in (i, j)) for t in range(n))
            table[(i, j)] = Poly.monomial(n, expo, draw(coeff))
    logvars = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return PoissonStructure("xyzw"[:n], table), logvars


@settings(max_examples=25, deadline=None)
@given(case=log_canonical())
def test_frame_matches_direct_on_log_canonical_brackets(case):
    P, logvars = case
    assert not P.jacobi_failures()
    assert_frame_matches_direct(P, logvars)


def test_log_poisson_complex_needs_the_log_condition():
    # {x,y} = 1 is not divisible by x, so dx/x has no log Hamiltonian image
    P = PoissonStructure(XY, {(0, 1): p2("1")})
    B = LogBasis.from_divisor(2, LogDivisorSpec.normalize([p2("x")]))
    with pytest.raises(DivisionObstruction):
        log_poisson_complex(P, B)


def test_degree_shift():
    P, B = setup_x()
    assert log_poisson_complex(P, B).degree_shift() == 0
    assert poisson_complex(P).degree_shift() == 0
    assert log_derham_complex(B).degree_shift() == 0
    P2, B2 = setup_x2()
    assert log_poisson_complex(P2, B2).degree_shift() == 1
    assert poisson_complex(P2).degree_shift() == 1
    P3, B3 = setup_xyz()
    assert log_poisson_complex(P3, B3).degree_shift() == 1
    assert poisson_complex(P3).degree_shift() == 2


# -- closed-form operators ---------------------------------------------


def c0(nvars, f):
    return Cochain(0, nvars, nvars, {(): f})


def c1(polys):
    n = len(polys)
    return Cochain(1, n, n, {(i,): p for i, p in enumerate(polys)})


def test_differential_matches_closed_forms_deg0():
    P, B = setup_x()
    L = log_poisson_complex(P, B)
    f = p2("x^2*y + 3*y^2")
    df = differential(L, c0(2, f))
    assert df == c1([f.partial(1), -p2("x") * f.partial(0)])

    Lp = poisson_complex(P)
    dfp = differential(Lp, c0(2, f))
    assert dfp == c1([p2("x") * f.partial(1), -p2("x") * f.partial(0)])

    P3, B3 = setup_xyz()
    L3 = log_poisson_complex(P3, B3)
    g = p3("x*y^2*z + z^3")
    dg = differential(L3, c0(3, g))
    assert dg == c1([Poly.zero(3), p3("x*z") * g.partial(2), -p3("x*y") * g.partial(1)])


def test_top_degree_maps_to_zero():
    P, B = setup_x()
    L = log_poisson_complex(P, B)
    top = Cochain(2, 2, 2, {(0, 1): p2("x*y + 1")})
    assert differential(L, top).is_zero()


def test_alternation_of_value():
    c = Cochain(2, 3, 3, {(0, 2): p3("x")})
    assert c.value((0, 2)) == p3("x")
    assert c.value((2, 0)) == p3("-x")
    assert c.value((2, 2)).is_zero()


# -- de Rham complex ----------------------------------------------------


def test_derham_direct_equals_engine(rng):
    for _, B in worked_structures():
        L = log_derham_complex(B)
        for k in range(B.n):
            for _ in range(25):
                c = random_cochain(rng, L, k)
                assert log_derham_differential(B, c) == differential(L, c)
        top = random_cochain(rng, L, B.n)
        assert log_derham_differential(B, top).is_zero()


def test_derham_basis_forms_closed():
    _, B = setup_xyz()
    for i in range(3):
        c = Cochain(1, 3, 3, {(i,): Poly.const(3, 1)})
        assert log_derham_differential(B, c).is_zero()


def test_derham_dd_zero(rng):
    for _, B in (setup_x(), setup_xyz()):
        for k in range(B.n):
            for _ in range(30):
                c = random_cochain(
                    rng, log_derham_complex(B), k
                )
                assert log_derham_differential(B, log_derham_differential(B, c)).is_zero()


# -- the chain map -------------------------------------------------------


def test_chain_map_degree0_is_identity():
    P, B = setup_x()
    c = c0(2, p2("x^2 - y"))
    assert log_hamiltonian_cochain_map(P, B, c) == c


def test_chain_map_on_exact_forms(rng):
    # minus the image of d(a) under the map equals the log differential of a
    P, B = setup_x()
    L = log_poisson_complex(P, B)
    for _ in range(30):
        a = random_poly(rng, 2, 5)
        omega = log_derham_differential(B, c0(2, a))
        assert log_hamiltonian_cochain_map(P, B, omega).scale(-1) == differential(L, c0(2, a))


def test_two_form_cochain_values():
    P, B = setup_x()
    assert two_form_cochain(P, B) == Cochain(2, 2, 2, {(0, 1): p2("1")})
    P2, B2 = setup_x2()
    assert two_form_cochain(P2, B2) == Cochain(2, 2, 2, {(0, 1): p2("x")})
    P3, B3 = setup_xyz()
    assert two_form_cochain(P3, B3) == Cochain(2, 3, 3, {(1, 2): p3("x")})


def test_two_form_is_closed():
    for P, B in worked_structures():
        L = log_poisson_complex(P, B)
        assert differential(L, two_form_cochain(P, B)).is_zero()
