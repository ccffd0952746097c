"""Anchors, structure constants and differentials of the worked complexes.

The randomized closed-form, d-squared and chain-map checks live in
logpoisson.selfcheck (run by acceptance criterion 8); here the generic
log de Rham differential is also checked against the direct exterior
derivative in tests/oracle.py, and the complexes built from basis
weights against their direct definitions there, on generated structures.
On the same structures the packed coordinates of the elimination are
checked against the key tuples they stand for.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from logpoisson.cohomology import Coordinates, DegreeDim, SliceWindow, Stencil
from logpoisson.complexes import (
    Cochain,
    LieRinehartData,
    differential,
    log_derham_complex,
    log_hamiltonian_cochain_map,
    log_poisson_complex,
    poisson_complex,
    two_form_cochain,
    two_form_value,
)
from logpoisson.logforms import DivisionObstruction, LogBasis, OneForm, log_hamiltonian_matrix
from logpoisson.poisson import Derivation, LogDivisorSpec, PoissonStructure, is_log_principal
from logpoisson.poly import Poly, monomials_of_degree
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
from conftest import generated_complexes, log_canonical, polys, random_poly
from oracle import cochain_value, log_derham_differential, pull_differential


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


def test_log_poisson_data_is_the_cotangent_algebroid_of_pi(rng):
    # with d the frame's differential on 0-cochains: anchor j maps f to
    # pi(e_j, df), and the closed basis forms bracket to d(pi(e_i, e_j))
    def d(frame, f):
        df = differential(frame, Cochain(0, frame.r, frame.nvars, {(): f}))
        return OneForm(tuple(df.component((l,)) for l in range(frame.r)))

    for P, B in worked_structures():
        n = P.n
        units = [OneForm(tuple(Poly.const(n, int(l == j)) for l in range(n)))
                 for j in range(n)]
        for basis in (B, LogBasis.all_exact(n)):
            frame, pi = log_derham_complex(basis), two_form_cochain(P, basis)
            L = log_poisson_complex(P, basis)
            for i, j in combinations(range(n), 2):
                expected = d(frame, pi.component((i, j)))
                assert L.sc.get((i, j), OneForm.zero(n, n).coeffs) == expected.coeffs
            for _ in range(10):
                f = random_poly(rng, n, 3)
                for j in range(n):
                    assert L.anchors[j].apply(f) == two_form_value(pi, units[j], d(frame, f))


# -- the weighted frame against the direct definitions -----------------


def assert_frame_matches_direct(P, logvars):
    """Poisson data, log Poisson data, de Rham anchors and Hamiltonian
    matrices against tests/oracle.py; logvars are the divisor variables."""
    n = P.n
    poi = poisson_complex(P)
    assert poi.name == "poisson"
    assert poi.anchors == oracle.poisson_anchors(P)
    assert poi.sc == oracle.poisson_sc(P)
    assert log_hamiltonian_matrix(P, LogBasis.all_exact(n)) == \
        oracle.log_hamiltonian_matrix(P, set())
    spec = LogDivisorSpec.normalize([Poly.variable(n, j) for j in sorted(logvars)])
    assert is_log_principal(P, spec).ok
    B = LogBasis.from_divisor(n, spec)
    log = log_poisson_complex(P, B)
    assert log.anchors == oracle.log_anchors(P, logvars)
    assert log.sc == oracle.log_sc(P, logvars)
    assert log_derham_complex(B).anchors == oracle.derham_anchors(n, logvars)
    assert log_hamiltonian_matrix(P, B) == oracle.log_hamiltonian_matrix(P, logvars)


@settings(max_examples=25, deadline=None)
@given(f=polys(2))
def test_frame_matches_direct_on_plane_brackets(f):
    # {x,y} = x*f is Poisson and principal logarithmic along x
    P = PoissonStructure(XY, {(0, 1): Poly.variable(2, 0) * f})
    assert_frame_matches_direct(P, {0})


@settings(max_examples=25, deadline=None)
@given(case=log_canonical())
def test_frame_matches_direct_on_log_canonical_brackets(case):
    P, logvars = case
    assert not P.jacobi_failures()
    assert_frame_matches_direct(P, logvars)


def assert_packing_matches_keys(L, max_degree):
    """On every basis key of degree <= max_degree and every target of its
    compiled column, packing round-trips and orders like the tuples."""
    for k in range(L.r + 1):
        stencil = Stencil(L, k)
        coords = Coordinates(L, max_degree + L.degree_shift() + 1)
        column = stencil.compile(coords)
        sources, targets = [], set()
        for d in range(max_degree + 1):
            for src, tup, mono in coords.keys(k, d):
                assert sum(mono) == d and len(tup) == k
                assert coords.pack((d, tup, mono)) == src
                assert coords.unpack(src, k) == (d, tup, mono)
                sources.append(src)
                targets.update(column(src, tup, mono))
        keys = [coords.unpack(src, k) for src in sources]
        assert sources == sorted(set(sources)) and keys == sorted(keys)
        packed = sorted(targets)
        keys = [coords.unpack(at, k + 1) for at in packed]
        assert keys == sorted(keys)
        for at, (d, tup, mono) in zip(packed, keys):
            assert sum(mono) == d and len(tup) == k + 1
            assert coords.pack((d, tup, mono)) == at


@settings(max_examples=15, deadline=None)
@given(f=polys(2))
def test_packing_matches_keys_on_plane_brackets(f):
    P = PoissonStructure(XY, {(0, 1): Poly.variable(2, 0) * f})
    for L in generated_complexes(P, [Poly.variable(2, 0)]):
        assert_packing_matches_keys(L, 3)


@settings(max_examples=10, deadline=None)
@given(case=log_canonical())
def test_packing_matches_keys_on_log_canonical_brackets(case):
    P, logvars = case
    for L in generated_complexes(P, [Poly.variable(P.n, j) for j in sorted(logvars)]):
        assert_packing_matches_keys(L, 2)


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


# -- records -------------------------------------------------------------


def test_slots_records_are_immutable_values():
    c = (p2("x"), p2("y"))
    anchors = log_poisson_complex(*setup_x()).anchors
    # (record, an equal one built apart, a field, how its repr starts and ends)
    cases = [
        (Derivation(c), Derivation((p2("x"), p2("y"))), "coeffs",
         "Derivation(coeffs=(Poly(2, ", "})))"),
        (OneForm(c), OneForm((p2("x"), p2("y"))), "coeffs",
         "OneForm(coeffs=(Poly(2, ", "})))"),
        (LieRinehartData(2, 2, anchors, {}, "log"), LieRinehartData(2, 2, anchors, {}, "log"),
         "sc", "LieRinehartData(nvars=2, r=2, anchors=(Derivation(coeffs=", "sc={}, name='log')"),
        (SliceWindow(4, 2), SliceWindow(4, 2), "buffer",
         "SliceWindow(", "max_degree=4, buffer=2)"),
    ]
    for a, b, field, head, tail in cases:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a == b and not a != b
        assert repr(a).startswith(head) and repr(a).endswith(tail)
    for args, message in (((2, 1, anchors, {}), "one anchor per basis element"),
                          ((2, 2, anchors, {(1, 0): c}), r"key \(1, 0\) out of range"),
                          ((2, 2, anchors, {(0, 1): c[:1]}), "wrong length")):
        with pytest.raises(ValueError, match=message):
            LieRinehartData(*args)
    # hash by field: a Poly or dict field leaves the record unhashable, as Poly is
    assert hash(SliceWindow(4, 2)) == hash(SliceWindow(4, 2))
    assert SliceWindow(4, 2) != SliceWindow(4) and SliceWindow(4) == SliceWindow(4, None)
    for a in (Derivation(c), OneForm(c), LieRinehartData(2, 2, anchors, {})):
        with pytest.raises(TypeError):
            hash(a)
    # no tuple semantics: a derivation is not a one-form, and neither is a tuple
    assert Derivation(c) != OneForm(c) and OneForm(c) != c
    assert OneForm(c) + OneForm(c) == OneForm((p2("2*x"), p2("2*y")))
    for op in (lambda: OneForm(c) * 2, lambda: Derivation(c) + Derivation(c)):
        with pytest.raises(TypeError):
            op()


def test_named_tuple_records_are_immutable_tuples():
    row = DegreeDim(0, 1, 1, True)
    basis = LogBasis.all_exact(2)
    for record, field in ((row, "dim"), (basis, "forms"), (basis.forms[0], "index")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert row == (0, 1, 1, True) and row.dim == 1
    degree, dim, cumulative, stabilized = row
    assert (degree, dim, cumulative, stabilized) == (0, 1, 1, True)


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
    assert cochain_value(c, (0, 2)) == p3("x")
    assert cochain_value(c, (2, 0)) == p3("-x")
    assert cochain_value(c, (2, 2)).is_zero()


# -- the pushed differential against the pulled reference ---------------


def rational_cochain(rng, L, k):
    """A k-cochain on about half the tuples, with rational coefficients.
    Components are drawn as rational multiples of two shared polynomials,
    so pushes from different components into one target can cancel."""
    monos = [m for d in range(4) for m in monomials_of_degree(L.nvars, d)]
    pool = [Poly(L.nvars, {rng.choice(monos): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                           for _ in range(3)}) for _ in range(2)]
    comps = {tup: rng.choice(pool) * Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2))
             for tup in combinations(range(L.r), k) if rng.random() < 0.6}
    return Cochain(k, L.r, L.nvars, comps)


def assert_push_equals_pull(rng, L, rounds):
    for k in range(L.r + 1):
        for _ in range(rounds):
            c = rational_cochain(rng, L, k)
            assert differential(L, c) == pull_differential(L, c), (L.name, k, c)


def test_differential_equals_pull_form_on_worked_complexes():
    rng = random.Random(11)
    for P, B in worked_structures():
        for L in (log_poisson_complex(P, B), poisson_complex(P), log_derham_complex(B)):
            assert_push_equals_pull(rng, L, 20)


@settings(max_examples=20, deadline=None)
@given(f=polys(2), seed=st.integers(0, 2**32))
def test_differential_equals_pull_form_on_plane_brackets(f, seed):
    P = PoissonStructure(XY, {(0, 1): Poly.variable(2, 0) * f})
    for L in generated_complexes(P, [Poly.variable(2, 0)]):
        assert_push_equals_pull(random.Random(seed), L, 3)


@settings(max_examples=15, deadline=None)
@given(case=log_canonical(), seed=st.integers(0, 2**32))
def test_differential_equals_pull_form_on_log_canonical_brackets(case, seed):
    P, logvars = case
    for L in generated_complexes(P, [Poly.variable(P.n, j) for j in sorted(logvars)]):
        assert_push_equals_pull(random.Random(seed), L, 3)


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
