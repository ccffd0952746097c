"""Brute-force reference computations for the cohomology tables.

Deliberately independent of the package's sparse elimination: the
differentials are hand-written closed forms, matrices are dense Fraction
rows reduced by plain Gaussian elimination, and filtered intersections
use dim(U meet W) = dim U + dim W - dim(U + W).  The log de Rham
differential is also written out directly, as the wedge of the expanded
differential with each basis form, to check the generic engine.  The
anchors, structure constants and Hamiltonian matrix of each complex are
written out from their definitions, one branch per kind of basis form,
to check the package's single weighted frame.
"""

from fractions import Fraction
from itertools import combinations

from logpoisson.complexes import Cochain
from logpoisson.logforms import express_d
from logpoisson.poisson import Derivation
from logpoisson.poly import Poly, monomials_of_degree, parse_poly

XY = ["x", "y"]
XYZ = ["x", "y", "z"]


def dense_rank(rows):
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / pivot
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


class DenseComplex:
    """A complex given by closed-form differentials on component dicts.

    diffs[k] maps {tuple: Poly} to {tuple: Poly}.  Components are indexed
    by increasing tuples of basis indices, coefficients by monomials.
    """

    def __init__(self, nvars, diffs):
        self.nvars = nvars
        self.r = nvars
        self.diffs = diffs

    def tuples(self, k):
        return list(combinations(range(self.r), k))

    def coords(self, k, max_degree):
        out = []
        for d in range(max_degree + 1):
            for tup in self.tuples(k):
                for mono in monomials_of_degree(self.nvars, d):
                    out.append((d, tup, mono))
        out.sort()
        return out

    def apply(self, k, comp):
        return self.diffs[k](comp)

    def image_rows(self, k, src_degree, ambient):
        """Dense rows of d^k applied to every source of degree <= src_degree,
        expressed in the given ambient target coordinates."""
        index = {c: i for i, c in enumerate(ambient)}
        rows = []
        for (_, tup, mono) in self.coords(k, src_degree):
            out = self.apply(k, {tup: Poly.monomial(self.nvars, mono)})
            row = [Fraction(0)] * len(ambient)
            for t, poly in out.items():
                for m, c in poly.terms.items():
                    row[index[(sum(m), t, m)]] = c
            rows.append(row)
        return rows

    def kernel_cumulative(self, k, max_degree):
        shift_guard = max_degree + 8  # ample ambient for the targets
        ambient = self.coords(k + 1, shift_guard) if k < self.r else []
        out = []
        for d in range(max_degree + 1):
            if k >= self.r:
                out.append(len(self.coords(k, d)))
                continue
            rows = self.image_rows(k, d, ambient)
            out.append(len(rows) - dense_rank(rows))
        return out

    def image_cumulative(self, k, max_degree, buffer):
        """dim(im d^{k-1} meet F_d) for d = 0..max_degree."""
        if k == 0:
            return [0] * (max_degree + 1)
        shift_guard = max_degree + buffer + 8
        ambient = self.coords(k, shift_guard)
        image = self.image_rows(k - 1, max_degree + buffer, ambient)
        rank_u = dense_rank(image)
        index = {c: i for i, c in enumerate(ambient)}
        out = []
        for d in range(max_degree + 1):
            slab = []
            for c in self.coords(k, d):
                row = [Fraction(0)] * len(ambient)
                row[index[c]] = Fraction(1)
                slab.append(row)
            dim_f = len(slab)
            total = dense_rank(image + slab)
            out.append(rank_u + dim_f - total)
        return out

    def table(self, k, max_degree, buffer):
        ker = self.kernel_cumulative(k, max_degree)
        im = self.image_cumulative(k, max_degree, buffer)
        cum = [a - b for a, b in zip(ker, im)]
        dims = [cum[0]] + [cum[d] - cum[d - 1] for d in range(1, max_degree + 1)]
        return dims, cum


def _p2(t):
    return parse_poly(t, XY)


def _p3(t):
    return parse_poly(t, XYZ)


def two_var_complex(a0, b0, top):
    """Two-variable complex from d0(f) = (a0(f), b0(f)) and
    d1(f1, f2) = top(f1, f2)."""

    def d0(comp):
        f = comp.get((), Poly.zero(2))
        out = {}
        if a0(f):
            out[(0,)] = a0(f)
        if b0(f):
            out[(1,)] = b0(f)
        return out

    def d1(comp):
        f1 = comp.get((0,), Poly.zero(2))
        f2 = comp.get((1,), Poly.zero(2))
        val = top(f1, f2)
        return {(0, 1): val} if val else {}

    def d2(comp):
        return {}

    return DenseComplex(2, {0: d0, 1: d1, 2: d2})


X = _p2("x")
X2 = _p2("x^2")


def ex1_log():
    return two_var_complex(
        lambda f: f.partial(1),
        lambda f: -X * f.partial(0),
        lambda f1, f2: f2.partial(1) + X * f1.partial(0),
    )


def ex1_poisson():
    return two_var_complex(
        lambda f: X * f.partial(1),
        lambda f: -X * f.partial(0),
        lambda f1, f2: X * f2.partial(1) + X * f1.partial(0) - f1,
    )


def ex1_derham():
    return two_var_complex(
        lambda f: X * f.partial(0),
        lambda f: f.partial(1),
        lambda f1, f2: X * f2.partial(0) - f1.partial(1),
    )


def ex2_log():
    return two_var_complex(
        lambda f: X * f.partial(1),
        lambda f: -X2 * f.partial(0),
        lambda f1, f2: X * f2.partial(1) + X2 * f1.partial(0) - X * f1,
    )


def ex2_poisson():
    return two_var_complex(
        lambda f: X2 * f.partial(1),
        lambda f: -X2 * f.partial(0),
        lambda f1, f2: X2 * f1.partial(0) + X2 * f2.partial(1) - _p2("2*x") * f1,
    )


def x_times_g_log(g):
    """Log Poisson complex of {x,y} = x*g along x, on the basis dx/x, dy.

    The anchors are {log x, f} = g f_y and {y, f} = -x g f_x, and
    [dx/x, dy] = d{log x, y} = dg = x g_x (dx/x) + g_y dy, so
    d1(f1, f2) = g f2_y + x g f1_x - x g_x f1 - g_y f2.  With g = 1 and
    g = x this is ex1_log and ex2_log.
    """
    xg = X * g
    xgx = X * g.partial(0)
    gy = g.partial(1)
    return two_var_complex(
        lambda f: g * f.partial(1),
        lambda f: -xg * f.partial(0),
        lambda f1, f2: g * f2.partial(1) + xg * f1.partial(0) - xgx * f1 - gy * f2,
    )


def three_var_top_table(top, max_degree, buffer):
    """Cohomology of the top degree for a three-variable complex whose
    top differential maps each basis 2-cochain to a single monomial.

    top(tup, mono) -> Poly; asserted to have at most one term, so the
    image is a monomial subspace and dimensions are exact counts.
    """
    image_monos = set()
    for d in range(max_degree + buffer + 1):
        for tup in combinations(range(3), 2):
            for mono in monomials_of_degree(3, d):
                out = top(tup, Poly.monomial(3, mono))
                assert len(out.terms) <= 1, "oracle expects monomial images"
                for m in out.terms:
                    image_monos.add(m)
    cum = []
    for d in range(max_degree + 1):
        n_all = sum(len(monomials_of_degree(3, t)) for t in range(d + 1))
        n_im = sum(1 for m in image_monos if sum(m) <= d)
        cum.append(n_all - n_im)
    dims = [cum[0]] + [cum[d] - cum[d - 1] for d in range(1, max_degree + 1)]
    return dims, cum


def ex3_log_top(tup, poly):
    # contribution of the basis pair `tup` to the single top component
    x, y, z = (Poly.variable(3, i) for i in range(3))
    if tup == (0, 1):
        return -x * y * poly.partial(1)
    if tup == (0, 2):
        return -x * z * poly.partial(2)
    return Poly.zero(3)  # (1, 2): the anchor of the first form vanishes


def ex3_poisson_top(tup, poly):
    x, y, z = (Poly.variable(3, i) for i in range(3))
    xyz = x * y * z
    if tup == (0, 1):
        return -xyz * poly.partial(1) + x * z * poly
    if tup == (0, 2):
        return -xyz * poly.partial(2) + x * y * poly
    return Poly.zero(3)


# -- the log de Rham differential, directly ----------------------------------


def log_derham_differential(basis, cochain):
    """Exterior derivative computed directly: d(f e_T) is the wedge of
    the expanded differential of f with e_T.  Agrees with the generic
    engine on log_derham_complex; basis forms are closed."""
    n = basis.n
    if cochain.k >= n:
        return Cochain.zero(n, n, cochain.nvars)
    out = {}
    for tup, f in cochain.comps.items():
        df = express_d(basis, f)
        for l, g in enumerate(df.coeffs):
            if g.is_zero() or l in tup:
                continue
            pos = sum(1 for t in tup if t < l)
            key = tuple(sorted((l,) + tup))
            signed = -g if pos % 2 else g
            out[key] = out.get(key, Poly.zero(n)) + signed
    return Cochain(cochain.k + 1, n, n, out)


# -- anchors, structure constants and the Hamiltonian matrix, directly -------
#
# logvars is the set of divisor variables: the basis form of x_j is dx_j/x_j
# when j is in logvars and dx_j otherwise.


def _over_variable(poly, j):
    q = poly.exact_div(Poly.variable(poly.nvars, j))
    assert q is not None, f"not divisible by variable {j}"
    return q


def poisson_anchors(structure):
    """The Hamiltonian derivations {x_j, -} of the generators."""
    return tuple(structure.hamiltonian(structure.variable(j))
                 for j in range(structure.n))


def poisson_structure_constants(structure):
    """[dx_i, dx_j] = d{x_i, x_j}: the partials of each nonzero bracket."""
    n = structure.n
    sc = {}
    for (i, j), p in structure.table.items():
        vec = tuple(p.partial(l) for l in range(n))
        if any(vec):
            sc[(i, j)] = vec
    return sc


def log_anchors(structure, logvars):
    """H(x_j), exact-divided by x_j for a divisor variable."""
    out = []
    for j, ham in enumerate(poisson_anchors(structure)):
        if j in logvars:
            ham = Derivation(tuple(_over_variable(c, j) if c else c for c in ham.coeffs))
        out.append(ham)
    return tuple(out)


def log_structure_constants(structure, logvars):
    """[e_i, e_j] = d({x_i, x_j} / divisor variables among i, j), with the
    coefficient of dx_l/x_l equal to x_l times the partial along x_l."""
    n = structure.n
    sc = {}
    for i in range(n):
        for j in range(i + 1, n):
            q = structure.entry(i, j)
            for t in (i, j):
                if t in logvars and q:
                    q = _over_variable(q, t)
            vec = tuple(
                Poly.variable(n, l) * q.partial(l) if l in logvars else q.partial(l)
                for l in range(n)
            )
            if any(vec):
                sc[(i, j)] = vec
    return sc


def derham_anchors(n, logvars):
    """x_j d/dx_j on divisor variables, d/dx_j elsewhere."""
    out = []
    for j in range(n):
        coeffs = [Poly.zero(n)] * n
        coeffs[j] = Poly.variable(n, j) if j in logvars else Poly.const(n, 1)
        out.append(Derivation(tuple(coeffs)))
    return tuple(out)


def log_hamiltonian_matrix(structure, logvars):
    """Column j is log anchor j; row i divides by x_i on divisor rows."""
    anchors = log_anchors(structure, logvars)
    n = structure.n
    return [[_over_variable(anchors[j].coeffs[i], i)
             if i in logvars and anchors[j].coeffs[i] else anchors[j].coeffs[i]
             for j in range(n)] for i in range(n)]

