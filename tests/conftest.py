import os
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from logpoisson.complexes import log_derham_complex, log_poisson_complex, poisson_complex
from logpoisson.logforms import LogBasis
from logpoisson.poisson import LogDivisorSpec, PoissonStructure, is_log_principal
from logpoisson.poly import Poly
from logpoisson.selfcheck import random_poly


ROOT = Path(__file__).resolve().parent.parent


def src_env() -> dict:
    """The environment for a subprocess that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def random_nonzero_poly(rng, nvars, max_degree, **kw):
    while True:
        p = random_poly(rng, nvars, max_degree, **kw)
        if not p.is_zero():
            return p


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240917)


def polys(nvars, max_exp=2, max_terms=4):
    """Sparse polynomials with small nonzero rational coefficients."""
    mono = st.tuples(*[st.integers(0, max_exp)] * nvars)
    coeff = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    return st.dictionaries(mono, coeff, max_size=max_terms).map(
        lambda terms: Poly(nvars, terms))


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


def generated_complexes(P, divisor):
    """The Poisson complex of P, and both log complexes when P is
    principal logarithmic along the divisor (checked, not assumed)."""
    yield poisson_complex(P)
    spec = LogDivisorSpec.normalize(divisor)
    assert is_log_principal(P, spec).ok
    B = LogBasis.from_divisor(P.n, spec)
    yield log_poisson_complex(P, B)
    yield log_derham_complex(B)
