"""Randomized property suites over the three worked structures and
generated quasi-homogeneous brackets.

The suites check the paper's first result on each of the nine complexes
the tables use: the bracket of one-forms obeys Jacobi and the module
Leibniz rule, the anchor is a homomorphism to the vector fields, and d
squares to zero; and the Hamiltonian map carries the log de Rham
differential to the log Poisson one.  The command line selftest runs
them with the default rounds, which keep it quick, and acceptance
criterion 8 runs them with more rounds at its own seed.  A deliberately
corrupted structure-constant table (the mutation mode) must make the
d-squared suite fail.

The Euler suite generates brackets that are quasi-homogeneous for some
weights (weighted planes, Jacobian brackets of weighted-homogeneous
functions, and products of planes), each along a divisor that passes
the checks, and holds the Euler route to the windowed search.

The closed forms in the formula-oracle suite are written out by hand in
lexicographic component order.  The top operator of the three-variable
Poisson complex carries zeroth-order terms; dropping them breaks
d(d(c)) = 0, which the first suite would flag.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Callable, NamedTuple

from .cohomology import SliceWindow, euler_primitive, find_primitive
from .complexes import (
    Cochain,
    LieRinehartData,
    differential,
    log_derham_complex,
    log_hamiltonian_cochain_map,
    log_poisson_complex,
    poisson_complex,
    two_form_cochain,
)
from .logforms import LogBasis, OneForm
from .poisson import LogDivisorSpec, PoissonStructure, is_log_principal
from .poly import Poly, format_poly, monomials_of_degree, parse_poly

XY = ["x", "y"]
XYZ = ["x", "y", "z"]


class SuiteResult(NamedTuple):
    name: str
    ok: bool
    cases: int
    detail: str = ""


# -- the worked structures -------------------------------------------------


def p2(text: str) -> Poly:
    return parse_poly(text, XY)


def p3(text: str) -> Poly:
    return parse_poly(text, XYZ)


def setup_x() -> tuple[PoissonStructure, LogBasis]:
    """{x,y} = x along x: log-symplectic."""
    P = PoissonStructure(XY, {(0, 1): p2("x")})
    return P, LogBasis.from_divisor(P.n, LogDivisorSpec.normalize([p2("x")]))


def setup_x2() -> tuple[PoissonStructure, LogBasis]:
    """{x,y} = x^2 along x^2: degenerate logarithmic Hamiltonian map."""
    P = PoissonStructure(XY, {(0, 1): p2("x^2")})
    return P, LogBasis.from_divisor(P.n, LogDivisorSpec.normalize([p2("x^2")]))


def setup_xyz() -> tuple[PoissonStructure, LogBasis]:
    """{y,z} = xyz along x, y and z."""
    P = PoissonStructure(XYZ, {(1, 2): p3("x*y*z")})
    return P, LogBasis.from_divisor(P.n, LogDivisorSpec.normalize([p3("x"), p3("y"), p3("z")]))


def worked_structures() -> list[tuple[PoissonStructure, LogBasis]]:
    return [setup_x(), setup_x2(), setup_xyz()]


def _mutate_sc(data: LieRinehartData) -> LieRinehartData:
    # negate one structure constant; d-squared must notice
    sc = dict(data.sc)
    for key, vec in sc.items():
        sc[key] = tuple(-p for p in vec)
        break
    return LieRinehartData(data.nvars, data.r, data.anchors, sc,
                           name=data.name + "-mutated")


def _describe(P: PoissonStructure, B: LogBasis) -> str:
    bracket = ", ".join(f"{{{P.names[i]},{P.names[j]}}} = {format_poly(p, P.names)}"
                        for (i, j), p in P.table.items())
    divisor = ", ".join(P.names[f.index] for f in B.forms if f.is_log)
    return f"{bracket} along {divisor}"


def _all_complexes(mutate: bool = False) -> list[LieRinehartData]:
    # each named with its bracket and divisor, for failure details
    out = []
    for P, B in worked_structures():
        log = log_poisson_complex(P, B)
        poi = poisson_complex(P)
        if mutate and log.sc:
            log = _mutate_sc(log)
        elif mutate and poi.sc:
            poi = _mutate_sc(poi)
        out.extend(LieRinehartData(data.nvars, data.r, data.anchors, data.sc,
                                   f"{data.name} of {_describe(P, B)}")
                   for data in (log, poi, log_derham_complex(B)))
    return out


# -- random inputs -----------------------------------------------------------


def random_poly(rng: random.Random, nvars: int, max_degree: int,
                max_terms: int = 6) -> Poly:
    """Random sparse polynomial with integer coefficients in -4..4."""
    pool = []
    for d in range(max_degree + 1):
        pool.extend(monomials_of_degree(nvars, d))
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = rng.choice(pool)
        c = rng.randint(-4, 4)
        if c:
            terms[mono] = terms.get(mono, 0) + c
    return Poly(nvars, terms)


def random_cochain(rng, data: LieRinehartData, k: int) -> Cochain:
    comps = {}
    for tup in combinations(range(data.r), k):
        comps[tup] = random_poly(rng, data.nvars, 5, 3)
    return Cochain(k, data.r, data.nvars, comps)


def random_one_form(rng, data: LieRinehartData, max_degree: int = 3) -> OneForm:
    return OneForm(tuple(
        random_poly(rng, data.nvars, max_degree, 3) for _ in range(data.r)
    ))


def _weighted_poly(rng, weights, weight: int, least: tuple[int, ...]) -> Poly:
    """Random nonzero polynomial of the given weight for positive integer
    weights, every exponent vector at least least; the zero polynomial
    when no monomial has that weight."""
    monos = [m for d in range(weight + 1) for m in monomials_of_degree(len(weights), d)
             if sum(e * w for e, w in zip(m, weights)) == weight
             and all(e >= lo for e, lo in zip(m, least))]
    if not monos:
        return Poly.zero(len(weights))
    chosen = rng.sample(monos, rng.randint(1, min(3, len(monos))))
    return Poly(len(weights), {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in chosen})


def _weighted_plane(rng) -> tuple[Poly, bool]:
    # {x, y} = f quasi-homogeneous of weight a + b + e with e != 0, x | f;
    # also along y when y | f
    while True:
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        weight = rng.choice([t for t in range(a, 2 * (a + b) + 2) if t != a + b])
        f = _weighted_poly(rng, (a, b), weight, (1, 0))
        if f:
            return f, all(m[1] for m in f.terms) and rng.random() < 0.5


def euler_structures(rng) -> list[tuple[str, PoissonStructure, list[Poly]]]:
    """One generated quasi-homogeneous bracket with e != 0 per family,
    with divisor generators it is principal logarithmic along: a weighted
    plane; the Jacobian bracket {x_i, x_j} = eps_ijk dphi/dx_k of a
    weighted-homogeneous phi = x g, along x; and two weighted planes
    side by side, each along its first variable."""
    f, both = _weighted_plane(rng)
    plane = PoissonStructure(XY, {(0, 1): f})
    plane_divisor = [p2("x"), p2("y")] if both else [p2("x")]
    while True:
        weights = tuple(rng.randint(1, 3) for _ in range(3))
        weight = rng.choice([t for t in range(weights[0] + 1, sum(weights) + 5)
                             if t != sum(weights)])
        phi = _weighted_poly(rng, weights, weight, (1, 0, 0))
        grad = [phi.partial(k) for k in range(3)]
        if any(grad):
            break
    jacobian = PoissonStructure(XYZ, {(0, 1): grad[2], (0, 2): -grad[1], (1, 2): grad[0]})
    # the planes on x, y and on z, w
    (f1, _), (f2, _) = _weighted_plane(rng), _weighted_plane(rng)
    planes = PoissonStructure("xyzw", {
        (0, 1): Poly(4, {m + (0, 0): c for m, c in f1.terms.items()}),
        (2, 3): Poly(4, {(0, 0) + m: c for m, c in f2.terms.items()}),
    })
    return [
        ("weighted plane", plane, plane_divisor),
        ("jacobian", jacobian, [p3("x")]),
        ("planes", planes, [Poly.variable(4, 0), Poly.variable(4, 2)]),
    ]


# -- the suites --------------------------------------------------------------


def suite_d_squared(rng, rounds: int = 12, mutate: bool = False) -> SuiteResult:
    """d(d(c)) = 0 for every complex and degree; equivalent to the Jacobi
    and compatibility laws of the anchor/structure-constant data."""
    cases = 0
    for data in _all_complexes(mutate):
        for k in range(data.r):
            for _ in range(rounds):
                c = random_cochain(rng, data, k)
                cases += 1
                if not differential(data, differential(data, c)).is_zero():
                    return SuiteResult(
                        "d-squared (jacobi)", False, cases,
                        f"d(d(c)) != 0 on {data.name} at k={k}",
                    )
    return SuiteResult("d-squared (jacobi)", True, cases)


def suite_poisson_jacobi(rng, rounds: int = 25) -> SuiteResult:
    cases = 0
    for P, _ in worked_structures():
        if P.jacobi_failures():
            return SuiteResult("poisson jacobi", False, cases,
                               "coordinate jacobiator is nonzero")
        for _ in range(rounds):
            f, g, h = (random_poly(rng, P.n, 4, 3) for _ in range(3))
            total = (
                P.bracket(f, P.bracket(g, h))
                + P.bracket(g, P.bracket(h, f))
                + P.bracket(h, P.bracket(f, g))
            )
            cases += 1
            if not total.is_zero():
                return SuiteResult("poisson jacobi", False, cases,
                                   "cyclic bracket sum is nonzero")
    return SuiteResult("poisson jacobi", True, cases)


def suite_form_bracket_jacobi(rng, rounds: int = 18) -> SuiteResult:
    cases = 0
    for data in _all_complexes():
        br = data.bracket
        for _ in range(rounds):
            a, b, c = (random_one_form(rng, data, 2) for _ in range(3))
            total = br(a, br(b, c)) + br(b, br(c, a)) + br(c, br(a, b))
            cases += 1
            if not total.is_zero():
                return SuiteResult("one-form bracket jacobi", False, cases,
                                   f"failure on {data.name}")
    return SuiteResult("one-form bracket jacobi", True, cases)


def suite_leibniz(rng, rounds: int = 20) -> SuiteResult:
    """[alpha, a beta] = anchor(alpha)(a) beta + a [alpha, beta]."""
    cases = 0
    for data in _all_complexes():
        for _ in range(rounds):
            alpha = random_one_form(rng, data)
            beta = random_one_form(rng, data)
            a = random_poly(rng, data.nvars, 3, 3)
            lhs = data.bracket(alpha, beta.scale(a))
            rhs = beta.scale(data.anchor(alpha).apply(a)) \
                + data.bracket(alpha, beta).scale(a)
            cases += 1
            if not (lhs - rhs).is_zero():
                return SuiteResult("module leibniz", False, cases,
                                   f"failure on {data.name}")
    return SuiteResult("module leibniz", True, cases)


def suite_anchor_homomorphism(rng, rounds: int = 12) -> SuiteResult:
    cases = 0
    for data in _all_complexes():
        for _ in range(rounds):
            alpha = random_one_form(rng, data)
            beta = random_one_form(rng, data)
            da = data.anchor(alpha)
            db = data.anchor(beta)
            dbr = data.anchor(data.bracket(alpha, beta))
            for _ in range(4):
                f = random_poly(rng, data.nvars, 4, 4)
                cases += 1
                if dbr.apply(f) != da.apply(db.apply(f)) - db.apply(da.apply(f)):
                    return SuiteResult("anchor homomorphism", False, cases,
                                       f"failure on {data.name}")
    return SuiteResult("anchor homomorphism", True, cases)


def suite_chain_map_square(rng, rounds: int = 10) -> SuiteResult:
    """The de Rham and log Poisson differentials anticommute through the
    logarithmic Hamiltonian map."""
    cases = 0
    for P, B in worked_structures():
        L, derham = log_poisson_complex(P, B), log_derham_complex(B)
        for k in range(B.n):
            for _ in range(rounds):
                omega = random_cochain(rng, derham, k)
                lhs = differential(L, log_hamiltonian_cochain_map(P, B, omega))
                rhs = log_hamiltonian_cochain_map(P, B, differential(derham, omega))
                cases += 1
                if not (lhs + rhs).is_zero():
                    return SuiteResult("chain-map square", False, cases,
                                       f"failure on {P.names} at k={k}")
    return SuiteResult("chain-map square", True, cases)


# -- closed-form oracles -------------------------------------------------

def _closed_forms():
    """(complex builder, degree -> operator) pairs, components in
    lexicographic tuple order."""
    x = p2("x")
    x2 = p2("x^2")
    x3, y3, z3 = (p3(v) for v in "xyz")
    xyz = p3("x*y*z")

    def two_var(d0a, d0b, top):
        return {
            0: lambda c: {(0,): d0a(c[()]), (1,): d0b(c[()])},
            1: lambda c: {(0, 1): top(c[(0,)], c[(1,)])},
        }

    forms = {}
    forms["log-poisson/x"] = two_var(
        lambda f: f.partial(1), lambda f: -x * f.partial(0),
        lambda f1, f2: f2.partial(1) + x * f1.partial(0))
    forms["poisson/x"] = two_var(
        lambda f: x * f.partial(1), lambda f: -x * f.partial(0),
        lambda f1, f2: x * f2.partial(1) + x * f1.partial(0) - f1)
    forms["log-derham/x"] = two_var(
        lambda f: x * f.partial(0), lambda f: f.partial(1),
        lambda f1, f2: x * f2.partial(0) - f1.partial(1))
    forms["log-poisson/x^2"] = two_var(
        lambda f: x * f.partial(1), lambda f: -x2 * f.partial(0),
        lambda f1, f2: x * f2.partial(1) + x2 * f1.partial(0) - x * f1)
    forms["poisson/x^2"] = two_var(
        lambda f: x2 * f.partial(1), lambda f: -x2 * f.partial(0),
        lambda f1, f2: x2 * f1.partial(0) + x2 * f2.partial(1) - p2("2*x") * f1)

    def log3_d0(c):
        f = c[()]
        return {(1,): x3 * z3 * f.partial(2), (2,): -x3 * y3 * f.partial(1)}

    def log3_d1(c):
        f1, f2, f3 = c[(0,)], c[(1,)], c[(2,)]
        return {
            (0, 1): -x3 * z3 * f1.partial(2),
            (0, 2): x3 * y3 * f1.partial(1),
            (1, 2): x3 * z3 * f3.partial(2) + x3 * y3 * f2.partial(1) - x3 * f1,
        }

    def log3_d2(c):
        g01, g02 = c[(0, 1)], c[(0, 2)]
        return {(0, 1, 2): -x3 * z3 * g02.partial(2) - x3 * y3 * g01.partial(1)}

    forms["log-poisson/xyz"] = {0: log3_d0, 1: log3_d1, 2: log3_d2}

    def poi3_d0(c):
        f = c[()]
        return {(1,): xyz * f.partial(2), (2,): -xyz * f.partial(1)}

    def poi3_d1(c):
        f1, f2, f3 = c[(0,)], c[(1,)], c[(2,)]
        return {
            (0, 1): -xyz * f1.partial(2),
            (0, 2): xyz * f1.partial(1),
            (1, 2): xyz * f3.partial(2) + xyz * f2.partial(1)
                    - y3 * z3 * f1 - x3 * z3 * f2 - x3 * y3 * f3,
        }

    def poi3_d2(c):
        g01, g02 = c[(0, 1)], c[(0, 2)]
        return {(0, 1, 2): -xyz * g02.partial(2) - xyz * g01.partial(1)
                           + x3 * z3 * g01 + x3 * y3 * g02}

    forms["poisson/xyz"] = {0: poi3_d0, 1: poi3_d1, 2: poi3_d2}
    return forms


def suite_formula_oracles(rng, rounds: int = 50) -> SuiteResult:
    """The generated differentials agree with the hand-written closed
    forms on random cochains."""
    (P1, B1), (P2, B2), (P3, B3) = worked_structures()
    engines = {
        "log-poisson/x": log_poisson_complex(P1, B1),
        "poisson/x": poisson_complex(P1),
        "log-derham/x": log_derham_complex(B1),
        "log-poisson/x^2": log_poisson_complex(P2, B2),
        "poisson/x^2": poisson_complex(P2),
        "log-poisson/xyz": log_poisson_complex(P3, B3),
        "poisson/xyz": poisson_complex(P3),
    }
    forms = _closed_forms()
    cases = 0
    for label, data in engines.items():
        ops = forms[label]
        for k, op in ops.items():
            for _ in range(rounds):
                comps = {tup: random_poly(rng, data.nvars, 5, 6)
                         for tup in combinations(range(data.r), k)}
                c = Cochain(k, data.r, data.nvars, comps)
                expected = Cochain(k + 1, data.r, data.nvars,
                                   {t: p for t, p in op(comps).items() if p})
                cases += 1
                if differential(data, c) != expected:
                    return SuiteResult("formula oracles", False, cases,
                                       f"mismatch on {label} at k={k}")
    return SuiteResult("formula oracles", True, cases)


def suite_euler(rng, rounds: int = 4) -> SuiteResult:
    """On quasi-homogeneous brackets the Euler route finds a primitive of
    pi with d(theta) = pi, and find_primitive finds one in the same
    window exactly when the route does."""
    cases = 0
    for _ in range(rounds):
        for family, P, generators in euler_structures(rng):
            divisor = LogDivisorSpec.normalize(generators)
            B = LogBasis.from_divisor(P.n, divisor)
            cases += 1
            if P.jacobi_failures() or not is_log_principal(P, divisor).ok:
                return SuiteResult("euler primitives", False, cases,
                                   f"{family} {_describe(P, B)} fails check")
            data, pi = log_poisson_complex(P, B), two_form_cochain(P, B)
            window = SliceWindow(rng.randint(0, 3))
            try:
                theta = euler_primitive(P, B, data, pi, window)
            except AssertionError as err:
                return SuiteResult("euler primitives", False, cases,
                                   f"{family} {_describe(P, B)}: {err}")
            found = find_primitive(data, pi, window)
            if theta is None or differential(data, theta) != pi or found is None:
                return SuiteResult("euler primitives", False, cases,
                                   f"{family} {_describe(P, B)}: route"
                                   f" {theta is not None}, search {found is not None}")
    return SuiteResult("euler primitives", True, cases)


SUITES: list[Callable] = [
    suite_d_squared,
    suite_poisson_jacobi,
    suite_form_bracket_jacobi,
    suite_leibniz,
    suite_anchor_homomorphism,
    suite_chain_map_square,
    suite_formula_oracles,
    suite_euler,
]


def run_all(seed: int = 20240917, mutate: bool = False) -> list[SuiteResult]:
    """Run every suite with a fixed seed.  mutate corrupts one structure
    constant so the harness can prove it detects corruption; the
    corrupted complexes exist only inside the d-squared suite, so that
    suite runs alone."""
    if mutate:
        return [suite_d_squared(random.Random(seed), mutate=True)]
    return [suite(random.Random(seed)) for suite in SUITES]
