"""Checks of the program's answers by computations made apart from it.

Closed forms are derived by hand in the comments beside them.  Where no
closed form is known, the differential is written out by hand for the
family and its filtered cohomology is counted by dense elimination with
``dense_rank`` from ``tests/oracle.py``, over a window small enough to
run once, outside the timed passes.  Every function returns a list of
error strings; an empty list means the output passed.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import polys

_ORACLE = None


def dense_rank(rows):
    """Rank by the repository's dense Gaussian-elimination oracle."""
    global _ORACLE
    if _ORACLE is None:
        path = Path(__file__).resolve().parent.parent / "tests" / "oracle.py"
        spec = importlib.util.spec_from_file_location("_bench_oracle", path)
        _ORACLE = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(_ORACLE)
    return _ORACLE.dense_rank(rows)


# -- hand-written differentials ---------------------------------------------
#
# A cochain is {increasing index tuple: polynomial}; basis form i belongs
# to variable i (dx_i/x_i on divisor variables, dx_i elsewhere).


def _derivation(coeffs):
    """The derivation sum_j coeffs[j] d/dx_j as a function on polys."""
    def apply(f):
        return polys.add(*(polys.mul(c, polys.diff(f, j))
                           for j, c in enumerate(coeffs) if c))
    return apply


def jacobian_differentials(phi):
    """Poisson complex of {x_i, x_j} = eps_ijk phi_k in three variables.

    With H_a(g) = {x_a, g} = (grad g x grad phi)_a, [dx_a, dx_b] = d{x_a, x_b}
    and two-cochains in cyclic slots F_a = c(e_b, e_c), (a, b, c) cyclic,
    the Lie-Rinehart formula reads
      d0 f = grad f x grad phi,
      d1 V: F_a = H_b(V_c) - H_c(V_b) - (Hess(phi) V)_a,
      d2 F = sum_a H_a(F_a),
    where the Hessian terms of d2 cancel by symmetry.
    """
    grad = [polys.diff(phi, k) for k in range(3)]
    hess = [[polys.diff(g, l) for l in range(3)] for g in grad]
    zero = {}
    # H_a = sum_{j,k} eps_ajk phi_k d/dx_j
    H = [_derivation([grad[(a + 2) % 3] if j == (a + 1) % 3 else
                      polys.scale(grad[(a + 1) % 3], -1) if j == (a + 2) % 3 else zero
                      for j in range(3)]) for a in range(3)]

    def d0(c):
        f = c.get((), {})
        return {(a,): H[a](f) for a in range(3)}

    def d1(c):
        V = [c.get((i,), {}) for i in range(3)]
        F = []
        for a in range(3):
            b, cc = (a + 1) % 3, (a + 2) % 3
            hv = polys.add(*(polys.mul(hess[a][l], V[l]) for l in range(3)))
            F.append(polys.sub(polys.sub(H[b](V[cc]), H[cc](V[b])), hv))
        return {(1, 2): F[0], (0, 2): polys.scale(F[1], -1), (0, 1): F[2]}

    def d2(c):
        F = [c.get((1, 2), {}), polys.scale(c.get((0, 2), {}), -1), c.get((0, 1), {})]
        return {(0, 1, 2): polys.add(*(H[a](F[a]) for a in range(3)))}

    return {0: d0, 1: d1, 2: d2, 3: lambda c: {}}


def xg_differentials(g):
    """Log Poisson complex of {x, y} = x g along x, basis (dx/x, dy).

    rho(dx/x) = {x, -}/x = g d/dy, rho(dy) = -x g d/dx, and
    [dx/x, dy] = d(g) = x g_x dx/x + g_y dy, so
      d0 f = (g f_y, -x g f_x),
      d1 (f1, f2) = g f2_y + x g f1_x - x g_x f1 - g_y f2.
    For g = 1 and g = x these are the oracle's ex1_log and ex2_log.
    """
    x = polys.var(2, 0)
    xg, xgx, gy = polys.mul(x, g), polys.mul(x, polys.diff(g, 0)), polys.diff(g, 1)

    def d0(c):
        f = c.get((), {})
        return {(0,): polys.mul(g, polys.diff(f, 1)),
                (1,): polys.scale(polys.mul(xg, polys.diff(f, 0)), -1)}

    def d1(c):
        f1, f2 = c.get((0,), {}), c.get((1,), {})
        return {(0, 1): polys.add(polys.mul(g, polys.diff(f2, 1)),
                                  polys.mul(xg, polys.diff(f1, 0)),
                                  polys.scale(polys.mul(xgx, f1), -1),
                                  polys.scale(polys.mul(gy, f2), -1))}

    return {0: d0, 1: d1, 2: lambda c: {}}


def planes_d1(coeffs):
    """d1 of the log Poisson complex of {x_i, y_i} = a_i x_i along the x_i.

    rho(dx_i/x_i) = a_i d/dy_i, rho(dy_i) = -a_i x_i d/dx_i, and every
    basis bracket is d of a constant, so (dV)(e_p, e_q) = rho_p V_q - rho_q V_p.
    """
    n = 2 * len(coeffs)
    rho = []
    for i, a in enumerate(coeffs):
        rho.append(lambda f, a=a, i=i: polys.scale(polys.diff(f, 2 * i + 1), a))
        rho.append(lambda f, a=a, i=i: polys.scale(
            polys.mul(polys.var(n, 2 * i), polys.diff(f, 2 * i)), -a))

    def d1(c):
        V = [c.get((i,), {}) for i in range(n)]
        return {(p, q): polys.sub(rho[p](V[q]), rho[q](V[p]))
                for p, q in combinations(range(n), 2)}

    return d1


def _clean(cochain):
    return {t: p for t, p in cochain.items() if p}


# -- dense filtered cohomology ------------------------------------------------


class DenseTable:
    """Filtered cohomology dims of a complex given by hand-written d^k.

    ker d^k meet F_d comes from the sources of degree <= d; the image
    im d^(k-1) meet F_d, with sources of degree <= D + buffer, has
    dimension rank(U) - rank(U without the columns of degree <= d).
    """

    def __init__(self, nvars, diffs):
        self.n = nvars
        self.diffs = diffs

    def _sources(self, k, top):
        return [(d, t, m) for d in range(top + 1)
                for t in combinations(range(self.n), k)
                for m in polys.monomials(self.n, d)]

    def _images(self, k, top):
        out = []
        for _, t, m in self._sources(k, top):
            image = self.diffs[k]({t: {m: Fraction(1)}})
            out.append({(sum(mm), tt, mm): c
                        for tt, p in image.items() for mm, c in p.items()})
        return out

    @staticmethod
    def _rank(images, keep=lambda key: True):
        cols = sorted({key for v in images for key in v if keep(key)})
        index = {key: i for i, key in enumerate(cols)}
        rows = []
        for v in images:
            row = [Fraction(0)] * len(cols)
            for key, c in v.items():
                if key in index:
                    row[index[key]] = c
            rows.append(row)
        return dense_rank(rows) if cols else 0

    def kernel_cumulative(self, k, D):
        if k == self.n:
            return [sum(comb(self.n + d - 1, self.n - 1) for d in range(e + 1))
                    for e in range(D + 1)]
        degrees = [deg for deg, _, _ in self._sources(k, D)]
        images = self._images(k, D)
        out = []
        for d in range(D + 1):
            part = [v for v, deg in zip(images, degrees) if deg <= d]
            out.append(len(part) - self._rank(part))
        return out

    def image_cumulative(self, k, D, buffer):
        if k == 0:
            return [0] * (D + 1)
        images = self._images(k - 1, D + buffer)
        full = self._rank(images)
        return [full - self._rank(images, lambda key, d=d: key[0] > d)
                for d in range(D + 1)]

    def row(self, k, D, buffer):
        """Per-degree dims of H^k."""
        cum = [a - i for a, i in zip(self.kernel_cumulative(k, D),
                                     self.image_cumulative(k, D, buffer))]
        return [cum[0]] + [cum[d] - cum[d - 1] for d in range(1, D + 1)]


# -- expected tables ----------------------------------------------------------


def _casimir_count(c, d):
    """Monomials x^a of degree d with sum_j c_ij a_j = 0 for every i.

    For {x_i, x_j} = c_ij x_i x_j the log anchor rho(dx_i/x_i) acts on x^a
    as multiplication by lambda_i(a) = sum_j c_ij a_j, and every basis
    bracket is d of a constant.  So on each monomial the log complex is
    the exterior algebra with differential lambda(a) wedge -: acyclic when
    lambda(a) != 0, all of it when lambda(a) = 0.  Hence H^k at degree d
    is C(3, k) times this count, and H^0 of the Poisson complex, whose
    anchors are x_i times the log ones, is this count.
    """
    skew = {}
    for (i, j), v in c.items():
        skew[(i, j)], skew[(j, i)] = v, -v
    return sum(1 for a in polys.monomials(3, d)
               if all(sum(skew.get((i, j), 0) * a[j] for j in range(3)) == 0
                      for i in range(3)))


def table_expectations(problem, kind, h0=None):
    """What the hand derivations fix for one table.

    Returns (rows, shift): rows maps k to its exact per-degree dims; shift
    is the degree of d when d is homogeneous, so that on every line
    C^0_j -> C^1_(j+s) -> ... the alternating sum of the dims equals the
    alternating sum of the cochain counts (None: d is not homogeneous).
    h0 is the H^0 row counted by dense elimination, for the ungraded
    families.
    """
    D = problem.doc["max_degree"]
    r = len(problem.names)
    at0 = [1] + [0] * D
    zeros = [0] * (D + 1)
    family = problem.family
    if kind == "log-derham" and family in ("x", "x2", "planes", "xyz", "log-canonical"):
        # d(x^a e_T) = sum over log variables of a_i x^a e_i ^ e_T plus
        # d/dx_l on the others: the Koszul complex of (a, d/dy) is acyclic
        # except at a = 0, leaving the exterior algebra on the log forms.
        logs = len(problem.doc["log_generators"])
        return {k: [comb(logs, k)] + [0] * D for k in range(r + 1)}, None
    if family == "x":
        # criterion 1 and 2: 1 and dx/x in degree 0 on all three complexes
        return {0: at0, 1: at0, 2: zeros}, None
    if family == "x2":
        # criterion 4: classes (0,1) in degree 0, (0,x), (1,y) in degree 1,
        # (y^k, y^(k+1)/(k+1)) in degree k+1; H^2 one class per degree.
        return {0: at0, 1: [1, 2] + [1] * (D - 1), 2: [1] * (D + 1)}, None
    if family == "planes":
        # Kuenneth over log-symplectic planes, each (1, 1, 0) in degree 0
        p = len(problem.params["a"])
        return {k: [comb(p, k)] + [0] * D for k in range(r + 1)}, None
    if family == "xyz":
        # H^0: the Casimirs are the polynomials in x.  Top tables from
        # criterion 6: survivors y^b z^c, x^a (a >= 1), and for Poisson
        # also x^a y z.  d raises degree by 1 (log) and 2 (Poisson).
        ones = [1] * (D + 1)
        if kind == "log-poisson":
            return {0: ones, 3: [d + 1 + (d >= 1) for d in range(D + 1)]}, 1
        return {0: ones, 3: [d + 1 + (d >= 1) + (d >= 3) for d in range(D + 1)]}, 2
    if family == "log-canonical":
        count = [_casimir_count(problem.params["c"], d) for d in range(D + 1)]
        if kind == "log-poisson":
            return {k: [comb(3, k) * n for n in count] for k in range(4)}, 0
        return {0: count}, 1
    if family in ("jacobian", "xg"):
        return {0: h0}, None
    raise ValueError(f"no expectations for {family}/{kind}")


def check_table(problem, kind, dims, h0=None):
    """Errors of one computed table (dims[k][d]) against the hand derivations."""
    rows, shift = table_expectations(problem, kind, h0)
    D = problem.doc["max_degree"]
    n = len(problem.names)
    errors = []
    tag = f"{problem.name}/{kind}"
    if len(dims) != n + 1 or any(len(row) != D + 1 for row in dims):
        return [f"{tag}: table shape {[len(r) for r in dims]}"]
    if any(v < 0 for row in dims for v in row):
        errors.append(f"{tag}: negative dimension in {dims}")
    for k, want in rows.items():
        if dims[k] != want:
            errors.append(f"{tag}: H^{k} is {dims[k]}, expected {want}")
    if shift is not None:
        def cochains(k, m):
            return comb(n, k) * comb(m + n - 1, n - 1) if m >= 0 else 0
        for j in range(-n * shift, D - n * shift + 1):
            got = sum((-1) ** k * dims[k][j + k * shift]
                      for k in range(n + 1) if j + k * shift >= 0)
            want = sum((-1) ** k * cochains(k, j + k * shift) for k in range(n + 1))
            if got != want:
                errors.append(f"{tag}: Euler characteristic {got} != {want}"
                              f" on the line starting at degree {j}")
    if problem.family == "jacobian":
        # 1 and phi are Casimirs: classes in degree 0 and in degree deg phi
        top = polys.degree(problem.params["phi"])
        if dims[0][0] < 1 or (top <= D and dims[0][top] < 1):
            errors.append(f"{tag}: H^0 {dims[0]} misses the Casimirs 1 and phi")
    return errors


def check_equal_tables(problem, tables):
    """The paper's theorem: on a log-symplectic structure the Poisson and
    log Poisson tables agree."""
    if problem.family in ("x", "planes") and tables["poisson"] != tables["log-poisson"]:
        return [f"{problem.name}: Poisson and log Poisson tables differ"]
    return []


def dense_h0(problem):
    """H^0 row of a jacobian or xg problem at its own degree, by dense
    elimination (H^0 is a kernel, so the buffer plays no part)."""
    D = problem.doc["max_degree"]
    return _dense(problem).row(0, D, 0)


def _dense(problem):
    if problem.family == "jacobian":
        return DenseTable(3, jacobian_differentials(problem.params["phi"]))
    if problem.family == "xg":
        return DenseTable(2, xg_differentials(problem.params["g"]))
    raise ValueError(problem.family)


# The windows (degree, buffer, with flags) at which the whole table is
# counted densely.  The Jacobian matrices grow fast with the source
# degree, so their window has no buffer, and the stabilized flags, which
# need one more buffer step, are counted on the x*g structures only.
ORACLE_WINDOWS = {"jacobian": (2, 0, False), "xg": (2, 2, True)}


def window_reference(problem):
    """(D, buffer, dims, flags or None) counted densely at a small window."""
    D, b, with_flags = ORACLE_WINDOWS[problem.family]
    dense = _dense(problem)
    ks = range(len(problem.names) + 1)
    dims = [dense.row(k, D, b) for k in ks]
    flags = None
    if with_flags:  # stabilized: unchanged when the buffer grows by one
        wider = [dense.row(k, D, b + 1) for k in ks]
        flags = [[x == y for x, y in zip(r, w)] for r, w in zip(dims, wider)]
    return D, b, dims, flags


# -- prequantization ----------------------------------------------------------


def _labels(problem):
    logs = set(problem.doc["log_generators"])
    return [f"d{v}/{v}" if v in logs else f"d{v}" for v in problem.names]


def curvature(problem):
    """The induced two-form {x_i, x_j} / (divisor variables), by family."""
    p = problem.params
    if problem.family == "planes":
        return {(2 * i, 2 * i + 1): polys.const(2 * len(p["a"]), a)
                for i, a in enumerate(p["a"])}
    if problem.family == "log-canonical":
        return {ij: polys.const(3, v) for ij, v in p["c"].items() if v}
    if problem.family == "xg":
        return {(0, 1): p["g"]}
    raise ValueError(problem.family)


def expects_witness(problem):
    """Planes: y_i on dy_i is a primitive.  x*g(x): y on dy, since
    d1(0, y) = g.  x*g(y) with g not constant: d1 keeps the x-degree and
    on x-degree 0 reads g f2' - g' f2, so g = g^2 (f2/g)' would need a
    polynomial antiderivative of 1/g.  Log-canonical: d keeps monomials
    and kills constants, so the constant curvature is never reached."""
    if problem.family == "planes":
        return True
    if problem.family == "xg":
        g = problem.params["g"]
        if all(m[1] == 0 for m in g):
            return True
        if all(m[0] == 0 for m in g) and polys.degree(g) > 0:
            return False
    if problem.family == "log-canonical":
        return False
    raise ValueError(f"no derivation for {problem.name}")


def check_check_report(problem, out):
    errors = []
    if out.get("ok") is not True:
        errors.append(f"{problem.name}: check failed: {out}")
    symplectic = (out.get("log_symplectic") or {}).get("ok")
    # only the planes have a constant nonzero determinant: log-canonical
    # is a 3x3 skew matrix, x*g has determinant g^2
    if symplectic is not (problem.family == "planes"):
        errors.append(f"{problem.name}: log-symplectic verdict {symplectic}")
    return errors


def check_prequantize_report(problem, out, h2_reference=None):
    """Errors of one ``prequantize --format json`` report."""
    names = problem.names
    labels = _labels(problem)
    index = {lab: i for i, lab in enumerate(labels)}
    tag = problem.name
    pi = curvature(problem)
    errors = []
    try:
        got = {}
        for entry in out["curvature"]:
            a, b = (index[lab] for lab in entry["pair"])
            got[(a, b)] = polys.parse(entry["value"], names)
        if got != pi:
            errors.append(f"{tag}: curvature {out['curvature']}")
        exact = out["prequantizable_in_window"]
        if exact is not expects_witness(problem):
            return errors + [f"{tag}: prequantizable_in_window is {exact}"]
        if exact:
            witness = {(index[w["form"]],): polys.parse(w["value"], names)
                       for w in out["witness"]}
            if problem.family == "planes":
                image = planes_d1(problem.params["a"])(witness)
            else:
                image = xg_differentials(problem.params["g"])[1](witness)
            if _clean(image) != pi:
                errors.append(f"{tag}: d(witness) = {_clean(image)} is not the curvature")
        elif problem.family == "log-canonical":
            D = out["max_degree"]
            want = [3 * _casimir_count(problem.params["c"], d) for d in range(D + 1)]
            if out["h2_dims"] != want:
                errors.append(f"{tag}: H^2 {out['h2_dims']}, expected {want}")
        elif out["h2_dims"] != h2_reference:
            errors.append(f"{tag}: H^2 {out['h2_dims']}, dense count {h2_reference}")
    except (KeyError, TypeError, ValueError) as err:
        errors.append(f"{tag}: unreadable report ({err!r})")
    return errors


def dense_h2(problem, D, buffer):
    """H^2 row of an x*g problem, by dense elimination."""
    return _dense(problem).row(2, D, buffer)
