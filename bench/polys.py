"""A few lines of sparse polynomial arithmetic, kept apart from logpoisson.

The benchmark writes its problem documents and checks the program's
answers with this module only, so a fault in the program's own
polynomial layer cannot hide itself.  A polynomial is a dict from
exponent tuples to nonzero Fractions; the empty dict is zero.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product


def const(n, c):
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def var(n, i):
    return {tuple(int(j == i) for j in range(n)): Fraction(1)}


def add(*polys):
    out = {}
    for p in polys:
        for m, c in p.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def scale(p, c):
    c = Fraction(c)
    return {m: v * c for m, v in p.items()} if c else {}


def sub(a, b):
    return add(a, scale(b, -1))


def mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def diff(p, i):
    out = {}
    for m, c in p.items():
        if m[i]:
            low = list(m)
            low[i] -= 1
            out[tuple(low)] = c * m[i]
    return out


def degree(p):
    return max((sum(m) for m in p), default=-1)


def monomials(n, d):
    """Exponent tuples of total degree exactly d."""
    return [m for m in product(range(d + 1), repeat=n) if sum(m) == d]


def text(p, names):
    """Render in the document syntax: ``2*x^2*y - 3/2*z + 1``."""
    if not p:
        return "0"
    out = []
    for m in sorted(p, key=lambda m: (-sum(m), [-e for e in m])):
        c = p[m]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if out:
            out.append((" - " if c < 0 else " + ") + body)
        else:
            out.append(("-" if c < 0 else "") + body)
    return "".join(out)


_TERM = re.compile(r"\s*([+-])?\s*([^+-]+)")


def parse(s, names):
    """Parse the flat sum-of-terms syntax the program prints.

    Only what ``text`` produces is accepted: signed terms, each an
    optional rational coefficient times ``name`` or ``name^e`` factors.
    """
    n = len(names)
    index = {v: i for i, v in enumerate(names)}
    s = s.strip()
    if s == "0":
        return {}
    out = {}
    pos = 0
    while pos < len(s):
        hit = _TERM.match(s, pos)
        if not hit:
            raise ValueError(f"cannot read polynomial {s!r}")
        sign = -1 if hit.group(1) == "-" else 1
        coeff = Fraction(sign)
        expo = [0] * n
        for factor in hit.group(2).strip().split("*"):
            factor = factor.strip()
            base, _, power = factor.partition("^")
            if base in index:
                expo[index[base]] += int(power) if power else 1
            else:
                coeff *= Fraction(factor)
        out = add(out, {tuple(expo): coeff})
        pos = hit.end()
    return out
