import random

import pytest

from logpoisson.selfcheck import random_poly


def random_nonzero_poly(rng, nvars, max_degree, **kw):
    while True:
        p = random_poly(rng, nvars, max_degree, **kw)
        if not p.is_zero():
            return p


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240917)
