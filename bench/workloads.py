"""Seeded problem documents for the benchmark's three workloads.

Every generated structure is Poisson by construction and principal
logarithmic along its declared divisor, so each document passes
``logpoisson check``.  The seed draws coefficients only: monomial
supports, degrees and the number of problems are fixed per workload, so
the work in a pass hardly depends on the seed.  The program sees only
the documents; ``params`` keeps what the independent checks need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import polys

XY = ("x", "y")
XYZ = ("x", "y", "z")
XYZW = ("x", "y", "z", "w")
ALL_COMPLEXES = ("poisson", "log-poisson", "log-derham")


@dataclass(frozen=True)
class Problem:
    name: str
    family: str
    doc: dict
    params: dict = field(default_factory=dict)
    complexes: tuple[str, ...] = ()  # table workloads: the complexes tabulated

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.doc["variables"])


def _doc(names, bracket, log_generators, max_degree):
    return {
        "variables": list(names),
        "bracket": {f"{names[i]},{names[j]}": polys.text(p, names)
                    for (i, j), p in sorted(bracket.items()) if p},
        "log_generators": list(log_generators),
        "max_degree": max_degree,
    }


def _coeff(rng):
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _poly(terms):
    """Polynomial from {exponent tuple: coefficient}."""
    return {m: Fraction(c) for m, c in terms.items() if c}


# -- families ---------------------------------------------------------------


def plane_x2(max_degree):
    """{x,y} = x^2 along x^2: degenerate log form, equal tables."""
    return Problem("x2", "x2", _doc(XY, {(0, 1): {(2, 0): 1}}, ["x^2"], max_degree))


def xyz(max_degree):
    """{y,z} = xyz along x, y and z."""
    return Problem("xyz", "xyz",
                   _doc(XYZ, {(1, 2): {(1, 1, 1): 1}}, list(XYZ), max_degree))


def planes(coeffs, max_degree, name="planes"):
    """Product of log-symplectic planes {x_i, y_i} = a_i x_i along the x_i."""
    names = XYZW[:2 * len(coeffs)]
    n = len(names)
    bracket = {(2 * i, 2 * i + 1): polys.scale(polys.var(n, 2 * i), a)
               for i, a in enumerate(coeffs)}
    logs = [names[2 * i] for i in range(len(coeffs))]
    return Problem(name, "planes", _doc(names, bracket, logs, max_degree),
                   {"a": tuple(coeffs)})


def log_canonical(rng, max_degree, name="log-canonical"):
    """{x_i, x_j} = c_ij x_i x_j along every coordinate.

    c is the skew matrix of a positive vector v times s, so C v = 0 and
    the monomials x^(t v) are Casimirs; which degrees carry them depends
    on the seed, the amount of work does not.
    """
    v = [rng.randint(1, 3) for _ in range(3)]
    s = rng.choice((-2, -1, 1, 2))
    c = {(0, 1): s * v[2], (0, 2): -s * v[1], (1, 2): s * v[0]}
    bracket = {(i, j): {tuple(int(t in (i, j)) for t in range(3)): cij}
               for (i, j), cij in c.items()}
    return Problem(name, "log-canonical",
                   _doc(XYZ, bracket, list(XYZ), max_degree), {"c": c})


def jacobian(rng, max_degree, name="jacobian"):
    """{x_i, x_j} = eps_ijk dphi/dx_k with phi of degrees 2 and 3 mixed.

    Jacobian brackets satisfy Jacobi for every phi; the mixed degrees
    leave no grading for the differential to respect.
    """
    terms = {}
    for i in range(3):
        terms[tuple(2 * (t == i) for t in range(3))] = _coeff(rng)
        terms[tuple(3 * (t == i) for t in range(3))] = _coeff(rng)
    terms[(1, 1, 1)] = _coeff(rng)
    phi = _poly(terms)
    grad = [polys.diff(phi, k) for k in range(3)]
    bracket = {(0, 1): grad[2], (1, 2): grad[0], (0, 2): polys.scale(grad[1], -1)}
    return Problem(name, "jacobian", _doc(XYZ, bracket, [], max_degree),
                   {"phi": phi})


def x_times_g(g, max_degree, name):
    """{x, y} = x g(x, y) along x, for any g."""
    bracket = {(0, 1): polys.mul(polys.var(2, 0), g)}
    return Problem(name, "xg", _doc(XY, bracket, ["x"], max_degree), {"g": g})


def plane_x(max_degree):
    """{x,y} = x along x: the log-symplectic plane."""
    return Problem("x", "x", _doc(XY, {(0, 1): {(1, 0): 1}}, ["x"], max_degree))


# -- workloads ----------------------------------------------------------------


def graded_tables(seed):
    """Full tables of all three complexes on weight-graded structures."""
    rng = random.Random(f"graded-tables/{seed}")
    found = [plane_x(10), plane_x2(10), xyz(6), planes((1, 1), 2),
             log_canonical(rng, 4, "log-canonical-1"),
             log_canonical(rng, 4, "log-canonical-2")]
    return [Problem(p.name, p.family, p.doc, p.params, ALL_COMPLEXES)
            for p in found]


def ungraded(seed):
    """Poisson tables of Jacobian structures, log tables of x*g brackets."""
    rng = random.Random(f"ungraded/{seed}")
    out = [Problem(p.name, p.family, p.doc, p.params, ("poisson",))
           for p in (jacobian(rng, 3, f"jacobian-{i}") for i in (1, 2))]
    for i in (1, 2, 3):
        g = _poly({(0, 0): _coeff(rng), (1, 0): _coeff(rng),
                   (0, 1): _coeff(rng), (1, 1): _coeff(rng)})
        p = x_times_g(g, 8, f"xg-{i}")
        out.append(Problem(p.name, p.family, p.doc, p.params, ("log-poisson",)))
    return out


def prequantize(seed):
    """Documents decided by ``check`` then ``prequantize`` through the CLI.

    Planes always have a witness; log-canonical curvature is a nonzero
    constant that d cannot reach, so the H^2 table is computed; x*g(x)
    has the witness y on dy, x*g(y) has none.
    """
    rng = random.Random(f"prequantize/{seed}")
    out = [planes((_coeff(rng),), 10, "plane")]
    for i in (1, 2):
        out += [
            planes((_coeff(rng), _coeff(rng)), 4, f"planes-{i}"),
            log_canonical(rng, 6, f"log-canonical-{i}"),
            x_times_g(_poly({(0, 0): _coeff(rng), (1, 0): _coeff(rng),
                             (2, 0): _coeff(rng)}), 8, f"xg-exact-{i}"),
            x_times_g(_poly({(0, 0): _coeff(rng), (0, 1): _coeff(rng),
                             (0, 2): _coeff(rng)}), 4, f"xg-obstructed-{i}"),
        ]
    return out


WORKLOADS = {
    "graded-tables": graded_tables,
    "ungraded": ungraded,
    "prequantize": prequantize,
}
