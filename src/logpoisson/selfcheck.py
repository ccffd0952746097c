"""Randomized property suites over the three worked structures.

The suites check the paper's first result: the log Poisson bracket of
one-forms obeys Jacobi and the module Leibniz rule, the logarithmic
Hamiltonian map is a homomorphism to the vector fields, every complex
squares to zero, and the Hamiltonian map carries the log de Rham
differential to the log Poisson one.  The command line selftest runs
them with the default rounds, which keep it quick, and acceptance
criterion 8 runs them with more rounds at its own seed.  A deliberately
corrupted structure-constant table (the mutation mode) must make the
d-squared suite fail.

The closed forms in the formula-oracle suite are written out by hand in
lexicographic component order.  The top operator of the three-variable
Poisson complex carries zeroth-order terms; dropping them breaks
d(d(c)) = 0, which the first suite would flag.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .complexes import (
    Cochain,
    LieRinehartData,
    differential,
    log_derham_complex,
    log_hamiltonian_cochain_map,
    log_poisson_complex,
    poisson_complex,
)
from .logforms import LogBasis, OneForm, form_bracket, log_hamiltonian
from .poisson import LogDivisorSpec, PoissonStructure
from .poly import Poly, monomials_of_degree, parse_poly

XY = ["x", "y"]
XYZ = ["x", "y", "z"]


@dataclass(frozen=True)
class SuiteResult:
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


def _all_complexes(mutate: bool = False) -> list[LieRinehartData]:
    out = []
    for P, B in worked_structures():
        log = log_poisson_complex(P, B)
        poi = poisson_complex(P)
        if mutate and log.sc:
            log = _mutate_sc(log)
        elif mutate and poi.sc:
            poi = _mutate_sc(poi)
        out.extend([log, poi, log_derham_complex(B)])
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


def random_one_form(rng, basis: LogBasis, max_degree: int = 3) -> OneForm:
    return OneForm(tuple(
        random_poly(rng, basis.n, max_degree, 3) for _ in range(basis.n)
    ))


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
    for P, B in worked_structures():
        for _ in range(rounds):
            a, b, c = (random_one_form(rng, B, 2) for _ in range(3))
            total = (
                form_bracket(P, B, a, form_bracket(P, B, b, c))
                + form_bracket(P, B, b, form_bracket(P, B, c, a))
                + form_bracket(P, B, c, form_bracket(P, B, a, b))
            )
            cases += 1
            if not total.is_zero():
                return SuiteResult("one-form bracket jacobi", False, cases,
                                   f"failure on {P.names}")
    return SuiteResult("one-form bracket jacobi", True, cases)


def suite_leibniz(rng, rounds: int = 20) -> SuiteResult:
    """[alpha, a beta] = H(alpha)(a) beta + a [alpha, beta]."""
    cases = 0
    for P, B in worked_structures():
        for _ in range(rounds):
            alpha = random_one_form(rng, B)
            beta = random_one_form(rng, B)
            a = random_poly(rng, B.n, 3, 3)
            lhs = form_bracket(P, B, alpha, beta.scale(a))
            rhs = beta.scale(log_hamiltonian(P, B, alpha).apply(a)) \
                + form_bracket(P, B, alpha, beta).scale(a)
            cases += 1
            if not (lhs - rhs).is_zero():
                return SuiteResult("module leibniz", False, cases,
                                   f"failure on {P.names}")
    return SuiteResult("module leibniz", True, cases)


def suite_anchor_homomorphism(rng, rounds: int = 12) -> SuiteResult:
    cases = 0
    for P, B in worked_structures():
        for _ in range(rounds):
            alpha = random_one_form(rng, B)
            beta = random_one_form(rng, B)
            da = log_hamiltonian(P, B, alpha)
            db = log_hamiltonian(P, B, beta)
            dbr = log_hamiltonian(P, B, form_bracket(P, B, alpha, beta))
            for _ in range(4):
                f = random_poly(rng, B.n, 4, 4)
                cases += 1
                if dbr.apply(f) != da.apply(db.apply(f)) - db.apply(da.apply(f)):
                    return SuiteResult("anchor homomorphism", False, cases,
                                       f"failure on {P.names}")
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

    def three_var(d0, d1, d2):
        return {
            0: d0,
            1: d1,
            2: d2,
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

    forms["log-poisson/xyz"] = three_var(log3_d0, log3_d1, log3_d2)

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

    forms["poisson/xyz"] = three_var(poi3_d0, poi3_d1, poi3_d2)
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


SUITES: list[Callable] = [
    suite_d_squared,
    suite_poisson_jacobi,
    suite_form_bracket_jacobi,
    suite_leibniz,
    suite_anchor_homomorphism,
    suite_chain_map_square,
    suite_formula_oracles,
]


def run_all(seed: int = 20240917, mutate: bool = False) -> list[SuiteResult]:
    """Run every suite with a fixed seed.  mutate corrupts one structure
    constant so the harness can prove it detects corruption; the
    corrupted complexes exist only inside the d-squared suite, so that
    suite runs alone."""
    if mutate:
        return [suite_d_squared(random.Random(seed), mutate=True)]
    return [suite(random.Random(seed)) for suite in SUITES]
