import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from logpoisson.poly import Poly
from logpoisson.selfcheck import random_poly


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
