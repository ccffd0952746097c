"""Engine tables against the dense brute-force oracle, with the expected
values frozen from the oracle runs."""

import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from logpoisson import cohomology, complexes
from logpoisson.cohomology import (
    Coordinates,
    Echelon,
    SliceWindow,
    Stencil,
    _Plan,
    _degree_rows,
    basis_size,
    compare_tables,
    compute_table,
    euler_primitive,
    euler_weights,
    find_primitive,
)
from logpoisson.complexes import (
    Cochain,
    LieRinehartData,
    differential,
    log_derham_complex,
    log_poisson_complex,
    poisson_complex,
    two_form_cochain,
)
from logpoisson.logforms import LogBasis
from logpoisson.poisson import Derivation, LogDivisorSpec, PoissonStructure
from logpoisson.poly import Poly
from logpoisson.selfcheck import (
    XY,
    XYZ,
    p2,
    p3,
    random_poly,
    setup_x,
    setup_x2,
    setup_xyz,
    worked_structures,
)
from conftest import generated_complexes, polys


def dims_of(rows):
    return [r.dim for r in rows]


def basis_keys(L, k, max_degree):
    """The keys (d, T, m) of the basis k-cochains of degree <= max_degree,
    in packed order."""
    coords = Coordinates(L, max_degree + 1)
    return [(d, tup, mono) for d in range(max_degree + 1)
            for _, tup, mono in coords.keys(k, d)]


def basis_cochain(L, key):
    _, tup, mono = key
    return Cochain(len(tup), L.r, L.nvars, {tup: Poly.monomial(L.nvars, mono)})


def cochain_vector(c):
    """The cochain as {(d, T, m): coefficient}."""
    return {(sum(mono), tup, mono): coeff
            for tup, poly in c.comps.items() for mono, coeff in poly.terms.items()}


# -- one filtered pass over degree slices ------------------------------------


def test_pass_of_d0_keeps_only_the_constants():
    # sources of degree <= 0 and <= 1: 1 and 3 columns, only the
    # constants are closed, so the ranks are 0 and 2
    P, B = setup_x()
    L = log_poisson_complex(P, B)
    one = _Plan(L, [0], SliceWindow(1)).pass_of(0)
    one.feed(one.top)
    assert one.ech.rank == 2
    assert [basis_size(L, 0, d) for d in (0, 1)] == [1, 3]
    assert one.counts() == ([1, 1], [])


def test_pass_beyond_the_top_cochain_degree_is_empty():
    # no plan takes k beyond the top cochain degree
    P, B = setup_x()
    L = log_poisson_complex(P, B)
    assert basis_size(L, 3, 4) == 0 and basis_keys(L, 3, 4) == []
    assert Stencil(L, 3).terms == {}


def test_plan_enumerates_the_monomials_of_each_degree_once(monkeypatch):
    # the (code, m) list of a degree is cached in the plan's Coordinates
    # and shared by every pass, while keys(k, d) runs once per fed degree
    calls, keys = Counter(), Counter()
    enumerate_monomials, enumerate_keys = cohomology.monomials_of_degree, Coordinates.keys

    def counted_monomials(nvars, degree):
        calls[degree] += 1
        return enumerate_monomials(nvars, degree)

    def counted_keys(self, k, degree):
        keys[k, degree] += 1
        return enumerate_keys(self, k, degree)

    monkeypatch.setattr(cohomology, "monomials_of_degree", counted_monomials)
    monkeypatch.setattr(Coordinates, "keys", counted_keys)
    P, B = setup_xyz()
    L = log_poisson_complex(P, B)
    compute_table(L, range(L.r + 1), SliceWindow(3, 1))
    assert {k for k, _ in keys} == set(range(L.r + 1)) and set(keys.values()) == {1}
    assert set(calls) == {d for _, d in keys} and set(calls.values()) == {1}


# -- the compiled stencil against the generic differential -----------------


def term_values(stencil, tup, mono):
    """The nonzero value of each stencil term at x^m e_T, by target key:
    the terms that one compiled entry merges."""
    values = {}
    for j, target, shifts in stencil.terms[tup]:
        for shift, coeff in shifts:
            at = (sum(mono) + sum(shift), target, tuple(map(sum, zip(mono, shift))))
            value = coeff * (1 if j is None else mono[j])
            if value:
                values.setdefault(at, []).append(value)
    return values


def assert_stencil_matches_engine(L, max_degree):
    """Every column of every d^k up to max_degree, unpacked, against
    scale[T] times a full application of the generic differential to the
    basis cochain.  Returns how many entries cancel: terms that merge
    into one entry, nonzero apart but summing to zero, which the column
    must leave out."""
    cancelled = 0
    for k in range(L.r + 1):
        stencil = Stencil(L, k)
        coords = Coordinates(L, max_degree + L.degree_shift() + 1)
        compiled = stencil.compile(coords)
        for d in range(max_degree + 1):
            for src, tup, mono in coords.keys(k, d):
                key = (d, tup, mono)
                assert coords.unpack(src, k) == key
                generic = cochain_vector(differential(L, basis_cochain(L, key)))
                column = compiled(src, tup, mono)
                unpacked = {coords.unpack(at, k + 1): c for at, c in column.items()}
                assert len(unpacked) == len(column)
                assert unpacked == {at: stencil.scale[tup] * c
                                    for at, c in generic.items()}, (L.name, k, key)
                assert all(type(c) is int and c for c in column.values())
                for at, values in term_values(stencil, tup, mono).items():
                    if len(values) > 1 and not sum(values):
                        cancelled += 1
                        assert coords.pack(at) not in column
    return cancelled


def worked_complexes():
    for P, B in worked_structures():
        yield from (log_poisson_complex(P, B), poisson_complex(P), log_derham_complex(B))


def test_stencil_columns_match_engine_on_worked_structures():
    # in the Poisson complex of {x,y} = x, d(x e_x) has two terms at
    # x e_xy that cancel: columns are checked where a merged entry is zero
    cancelled = sum(assert_stencil_matches_engine(L, 4 if L.nvars == 2 else 3)
                    for L in worked_complexes())
    assert cancelled > 0


def test_stencil_is_read_off_the_engine(monkeypatch):
    # d^k is compiled from the placement the engine pushes its terms
    # through, read once per index tuple; neither the stencil nor its
    # columns call the generic differential
    P, B = setup_xyz()
    L = log_poisson_complex(P, B)
    engine_calls, reads = [], Counter()

    def counted_engine(data, cochain):
        engine_calls.append(cochain.k)
        return differential(data, cochain)

    for module in (cohomology, complexes):
        monkeypatch.setattr(module, "differential", counted_engine)
    for name in ("anchor_targets", "bracket_targets"):
        def counted(data, tup, name=name, original=getattr(LieRinehartData, name)):
            reads[name, tup] += 1
            return original(data, tup)

        monkeypatch.setattr(LieRinehartData, name, counted)
    stencil = Stencil(L, 1)
    once = Counter({(name, (i,)): 1 for name in ("anchor_targets", "bracket_targets")
                    for i in range(3)})
    assert reads == once
    coords = Coordinates(L, 3 + L.degree_shift() + 1)
    column = stencil.compile(coords)
    for d in range(4):
        for src, tup, mono in coords.keys(1, d):
            column(src, tup, mono)
    assert reads == once and engine_calls == []


def test_cancelled_bracket_terms_leave_no_stencil_term():
    # on T = (0, 1) the brackets sc[(0, 2)] at 0 and sc[(1, 2)] at 1 both
    # reach U = (0, 1, 2), where their x^2 cancels: b_U = 2 keeps degree 0,
    # as anchor 1's d/dx on T = (0, 2) needs for a grading, and x^2 alone
    # would not
    x, zero, one = Poly.variable(1, 0), Poly.zero(1), Poly.const(1, 1)
    anchors = (Derivation((zero,)), Derivation((one,)), Derivation((zero,)))

    def data(extra):
        sc = {(0, 2): (one + extra, zero, zero), (1, 2): (zero, one - extra, zero)}
        return LieRinehartData(1, 3, anchors, sc)

    stencil, without = Stencil(data(x * x), 2), Stencil(data(zero), 2)
    assert stencil.terms == without.terms
    assert stencil.reach == without.reach == 1


@settings(max_examples=12, deadline=None)
@given(f=polys(2))
def test_stencil_matches_engine_on_any_plane_bracket(f):
    # every bracket {x,y} = f of two variables is Poisson; x*f is also
    # principal logarithmic along x
    x = Poly.variable(2, 0)
    assert_stencil_matches_engine(poisson_complex(PoissonStructure(XY, {(0, 1): f})), 4)
    P = PoissonStructure(XY, {(0, 1): x * f})
    for L in generated_complexes(P, [x]):
        assert_stencil_matches_engine(L, 3)


def jacobian_structure(phi):
    # {x_i, x_j} = eps_ijk dphi/dx_k is Poisson for every phi
    return PoissonStructure(XYZ, {(0, 1): phi.partial(2), (1, 2): phi.partial(0),
                                  (0, 2): -phi.partial(1)})


@settings(max_examples=8, deadline=None)
@given(h=polys(3, max_exp=1, max_terms=3))
def test_stencil_matches_engine_on_jacobian_brackets(h):
    # with phi = x*h every bracket with x is a multiple of x
    x = Poly.variable(3, 0)
    P = jacobian_structure(x * h)
    assert not P.jacobi_failures()
    for L in generated_complexes(P, [x]):
        assert_stencil_matches_engine(L, 2)


# -- the integer echelon against dense elimination ----------------------------

# packed keys of four degrees, four keys each: the degree of a key is key // 4
ECHELON_KEYS = range(16)


@st.composite
def sparse_columns(draw):
    """Sparse columns with nonzero rational entries over ECHELON_KEYS;
    zero columns and repeated (rescaled) columns included."""
    entry = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4))
    column = st.dictionaries(st.sampled_from(ECHELON_KEYS), entry, max_size=5)
    cols = draw(st.lists(column, max_size=10))
    if cols:
        for pos in draw(st.lists(st.integers(0, len(cols) - 1), max_size=4)):
            factor = draw(entry)
            cols.append({key: factor * c for key, c in cols[pos].items()})
    return draw(st.permutations(cols))


def integer_multiple(column):
    # the echelon takes integer vectors: clear the denominators
    scale = lcm(*(c.denominator for c in column.values()))
    return {key: int(c * scale) for key, c in column.items()}


@settings(max_examples=60, deadline=None)
@given(cols=sparse_columns())
def test_echelon_ranks_match_dense_elimination(cols):
    # pivoting at the largest key makes the pivots above degree d count the
    # rank of the columns with every coordinate of degree <= d dropped
    ech = Echelon()
    pivots = [ech.insert(integer_multiple(c)) for c in cols]
    pivots = [p for p in pivots if p is not None]

    def dense(above):
        keys = [key for key in ECHELON_KEYS if key // 4 > above]
        return oracle.dense_rank([[c.get(key, Fraction(0)) for key in keys] for c in cols])

    assert ech.rank == len(pivots) == dense(-1)
    for d in range(4):
        assert sum(p // 4 > d for p in pivots) == dense(d), d
    for key, row in ech.rows.items():
        assert max(row) == key and row[key] > 0
        assert all(type(c) is int for c in row.values())
        assert gcd(*row.values()) == 1


def reduce_then_store(ech, vec):
    """Echelon.insert as its contract states it: reduce, then store the
    primitive multiple with a positive pivot entry."""
    vec = ech.reduce(vec)
    top = max(vec, default=-1)
    if top < 0:
        return None
    content = gcd(*vec.values()) if vec[top] > 0 else -gcd(*vec.values())
    ech.rows[top] = {key: val // content for key, val in vec.items()}
    return top


@settings(max_examples=60, deadline=None)
@given(cols=sparse_columns())
def test_echelon_insert_stores_what_reduce_then_store_would(cols):
    # insert copies a column only to reduce or divide it, and never
    # changes the column it was given; bookkeeping keys ride along
    ech, reference = Echelon(), Echelon()
    for s, column in enumerate(cols):
        vec = integer_multiple(column)
        if s % 2:
            vec[-2 - s] = s + 1
        given = dict(vec)
        assert ech.insert(vec) == reduce_then_store(reference, dict(vec))
        assert vec == given
        assert ech.rows == reference.rows


@settings(max_examples=60, deadline=None)
@given(cols=sparse_columns(), data=st.data())
def test_echelon_solve_matches_dense_elimination(cols, data):
    # the column of source s carries the bookkeeping key -2 - s with its
    # multiple, so solve reads coefficients of the rational columns
    ech = Echelon()
    for s, column in enumerate(cols):
        scale = lcm(*(c.denominator for c in column.values()))
        ech.insert({**integer_multiple(column), -2 - s: scale})
    rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
    coeffs = data.draw(st.lists(rational, min_size=len(cols), max_size=len(cols)))
    combination = {key: sum(x * c.get(key, 0) for x, c in zip(coeffs, cols))
                   for key in ECHELON_KEYS}
    other = data.draw(st.dictionaries(st.sampled_from(ECHELON_KEYS), rational, max_size=5))

    def dense(vecs):
        return oracle.dense_rank([[v.get(key, Fraction(0)) for key in ECHELON_KEYS]
                                  for v in vecs])

    for vec in (combination, other):
        vec = {key: c for key, c in vec.items() if c}
        multiple = lcm(*(c.denominator for c in vec.values()))
        solution = ech.solve({key: int(c * multiple) for key, c in vec.items()}, multiple)
        # a combination of the columns never raises the rank
        assert (solution is None) == (dense(cols + [vec]) > dense(cols))
        if solution is not None:
            assert set(solution) <= set(range(len(cols)))
            rebuilt = {key: sum(x * cols[s].get(key, 0) for s, x in solution.items())
                       for key in ECHELON_KEYS}
            assert {key: c for key, c in rebuilt.items() if c} == vec


def test_rank_nullity_against_dense_oracle():
    P, B = setup_x2()
    L = log_poisson_complex(P, B)
    dense = oracle.ex2_log()
    plan = _Plan(L, [0, 1], SliceWindow(4))
    for k in (0, 1):
        one = plan.pass_of(k)
        one.feed(4)
        for d in (0, 2, 4):
            rank = basis_size(L, k, d) - one.kernel[d]
            ambient = dense.coords(k + 1, d + 6)
            rows = dense.image_rows(k, d, ambient)
            assert rank == oracle.dense_rank(rows)


# -- the two-variable tables ---------------------------------------------


def _engine_table(L, ks, D=8):
    return compute_table(L, ks, SliceWindow(D))


def test_first_structure_tables_match_oracle_and_frozen():
    P, B = setup_x()
    cases = [
        (log_poisson_complex(P, B), oracle.ex1_log()),
        (poisson_complex(P), oracle.ex1_poisson()),
        (log_derham_complex(B), oracle.ex1_derham()),
    ]
    for L, dense in cases:
        table = _engine_table(L, [0, 1, 2])
        buffer = SliceWindow(8).resolve_buffer(L)
        for k in (0, 1, 2):
            odims, _ = dense.table(k, 8, buffer)
            assert table.dims(k) == odims, (L.name, k)
        # frozen: one class in degree zero for k=0 and k=1, nothing in k=2
        assert table.dims(0) == [1, 0, 0, 0, 0, 0, 0, 0, 0]
        assert table.dims(1) == [1, 0, 0, 0, 0, 0, 0, 0, 0]
        assert table.dims(2) == [0] * 9


def test_second_structure_tables_match_oracle_and_frozen():
    P, B = setup_x2()
    cases = [
        (log_poisson_complex(P, B), oracle.ex2_log()),
        (poisson_complex(P), oracle.ex2_poisson()),
    ]
    for L, dense in cases:
        table = _engine_table(L, [0, 1, 2])
        buffer = SliceWindow(8).resolve_buffer(L)
        for k in (0, 1, 2):
            odims, _ = dense.table(k, 8, buffer)
            assert table.dims(k) == odims, (L.name, k)
        assert table.dims(0) == [1, 0, 0, 0, 0, 0, 0, 0, 0]
        # one degree-zero class, two in degree one, then one per degree:
        # the curves eta(y^j) enter at degree j+1
        assert table.dims(1) == [1, 2, 1, 1, 1, 1, 1, 1, 1]
        assert table.dims(2) == [1] * 9
        assert table.cumulative(1) == 10
        assert table.cumulative(2) == 9


def test_rational_bracket_tables_match_oracle():
    # {x,y} = x*g with g = 1/3 + x*y/2 along x: the stencil clears the
    # denominators 3 and 2, and the dense oracle works in fractions
    g = Poly(2, {(0, 0): Fraction(1, 3), (1, 1): Fraction(1, 2)})
    P = PoissonStructure(XY, {(0, 1): p2("x") * g})
    B = LogBasis.from_divisor(P.n, LogDivisorSpec.normalize([p2("x")]))
    L = log_poisson_complex(P, B)
    assert Stencil(L, 1).scale == {(0,): 6, (1,): 6}
    table = compute_table(L, [0, 1, 2], SliceWindow(4))
    dense = oracle.x_times_g_log(g)
    for k in (0, 1, 2):
        odims, _ = dense.table(k, 4, table.buffer)
        assert table.dims(k) == odims, k
    # frozen from the oracle run
    assert table.dims(1) == [0, 1, 1, 0, 0]
    assert table.dims(2) == [0, 0, 0, 1, 0]


def test_third_structure_top_tables_match_oracle_and_frozen():
    P, B = setup_xyz()
    L = log_poisson_complex(P, B)
    table = compute_table(L, [3], SliceWindow(6))
    odims, ocum = oracle.three_var_top_table(
        oracle.ex3_log_top, 6, SliceWindow(6).resolve_buffer(L)
    )
    assert table.dims(3) == odims
    assert table.dims(3) == [1, 3, 4, 5, 6, 7, 8]
    assert table.cumulative(3) == 34 == ocum[-1]

    Lp = poisson_complex(P)
    tp = compute_table(Lp, [3], SliceWindow(6))
    odimsp, ocump = oracle.three_var_top_table(
        oracle.ex3_poisson_top, 6, SliceWindow(6).resolve_buffer(Lp)
    )
    assert tp.dims(3) == odimsp
    assert tp.dims(3) == [1, 3, 4, 6, 7, 8, 9]
    assert tp.cumulative(3) == 38 == ocump[-1]


def test_third_structure_tables_first_differ_at_degree_three():
    P, B = setup_xyz()
    t_log = compute_table(log_poisson_complex(P, B), [3], SliceWindow(6))
    t_poi = compute_table(poisson_complex(P), [3], SliceWindow(6))
    diff = compare_tables(t_log, t_poi)
    assert not diff.equal
    first = min(d for (_, d, _, _) in diff.mismatches)
    assert first == 3


# -- windows, stabilization, invariances -----------------------------------


def test_buffer_monotonicity_and_stability():
    P, B = setup_x2()
    L = log_poisson_complex(P, B)
    base = SliceWindow(6).resolve_buffer(L)
    cums = {}
    for extra in (0, 1, 2):
        rows = compute_table(L, [1], SliceWindow(6, base + extra)).rows[1]
        cums[extra] = [r.cumulative for r in rows]
    for d in range(7):
        assert cums[0][d] >= cums[1][d] >= cums[2][d]
    rows = compute_table(L, [1], SliceWindow(6)).rows[1]
    assert all(r.stabilized for r in rows)
    for extra in (1, 2):
        again = compute_table(L, [1], SliceWindow(6, base + extra)).rows[1]
        assert dims_of(again) == dims_of(rows)


def test_image_inside_kernel_per_window():
    # every image generator is exactly closed, so im meet F_d sits inside
    # ker meet F_d; dimension-level check on top of the exact one
    for P, B in (setup_x(), setup_x2()):
        L = log_poisson_complex(P, B)
        for key in basis_keys(L, 0, 6):
            c = basis_cochain(L, key)
            assert differential(L, differential(L, c)).is_zero()
        rows1 = compute_table(L, [1], SliceWindow(5)).rows[1]
        assert all(r.dim >= 0 for r in rows1)


def test_tables_invariant_under_basis_permutation():
    P, B = setup_xyz()
    L = log_poisson_complex(P, B)

    def permute(data, perm):
        anchors = tuple(data.anchors[perm[i]] for i in range(data.r))
        sc = {}
        for i in range(data.r):
            for j in range(i + 1, data.r):
                vec = oracle.bracket_vector(data, perm[i], perm[j])
                newvec = tuple(vec[perm[m]] for m in range(data.r))
                if any(newvec):
                    sc[(i, j)] = newvec
        return LieRinehartData(data.nvars, data.r, anchors, sc, name=data.name)

    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        Lp = permute(L, perm)
        for k in (1, 3):
            a = compute_table(L, [k], SliceWindow(4)).rows[k]
            b = compute_table(Lp, [k], SliceWindow(4)).rows[k]
            assert dims_of(a) == dims_of(b), perm


def test_compare_tables_equal_case_and_errors():
    P, B = setup_x()
    t1 = compute_table(log_poisson_complex(P, B), [0, 1, 2], SliceWindow(5))
    t2 = compute_table(poisson_complex(P), [0, 1, 2], SliceWindow(5))
    assert compare_tables(t1, t2).equal
    t3 = compute_table(poisson_complex(P), [0, 1, 2], SliceWindow(4))
    with pytest.raises(ValueError):
        compare_tables(t1, t3)
    t4 = compute_table(poisson_complex(P), [0, 1], SliceWindow(5))
    with pytest.raises(ValueError):
        compare_tables(t1, t4)


# -- the source bound on graded input ------------------------------------------


def unclamped_pass(L, k, D, top):
    """Kernel dims of d^k in F_0..F_D, and after each source degree up to
    top the image pivots of degree <= d, from every source: no bound."""
    stencil = Stencil(L, k)
    coords = Coordinates(L, top + L.degree_shift() + 1)
    column, ech = stencil.compile(coords), Echelon()
    pivots, kernel, images, sources = [0] * (D + 1), [], [], 0
    for d in range(top + 1):
        for key in coords.keys(k, d):
            sources += 1
            piv = ech.insert(column(*key))
            if piv is not None and piv // coords.stride <= D:
                pivots[piv // coords.stride] += 1
        kernel.append(sources - ech.rank)
        images.append(list(accumulate(pivots)))
    return kernel[:D + 1], images


def graded_complexes():
    x, y, z = (Poly.variable(3, j) for j in range(3))
    canonical = PoissonStructure(XYZ, {(0, 1): 2 * x * y, (0, 2): -x * z, (1, 2): 3 * y * z})
    yield from generated_complexes(canonical, [x, y, z])
    yield from generated_complexes(canonical, [y])
    for f in (p2("2*x + y"), p2("x^2 - 3*x*y + 1/2*y^2")):
        yield from generated_complexes(PoissonStructure(XY, {(0, 1): p2("x") * f}), [p2("x")])
    yield from worked_complexes()


def mixed_complexes():
    # brackets of mixed degree: no grading, so no clamp
    x = Poly.variable(2, 0)
    P = PoissonStructure(XY, {(0, 1): x * p2("1 + x*y + y^2")})
    yield poisson_complex(jacobian_structure(p3("x^2 + y^3 + x*y*z")))
    yield poisson_complex(jacobian_structure(p3("2*x^2 - y^2 + z^3 - 3*x*y*z")))
    yield from list(generated_complexes(P, [x]))[:2]


def assert_table_equals_the_reference(L, buffers):
    D = 4 if L.nvars == 2 else 3
    for buffer in buffers:
        table = compute_table(L, range(L.r + 1), SliceWindow(D, buffer))
        passes = [unclamped_pass(L, k, D, D + buffer + 1) for k in range(L.r + 1)]
        for k in range(L.r + 1):
            image, wider = [passes[k - 1][1][D + b] for b in (buffer, buffer + 1)] \
                if k else ([0] * (D + 1),) * 2
            assert table.rows[k] == _degree_rows(passes[k][0], image, wider), \
                (L.name, k, buffer)


def test_tables_equal_the_unclamped_reference_on_graded_input():
    for L in graded_complexes():
        assert all(Stencil(L, k).reach is not None for k in range(L.r + 1)), L.name
        assert_table_equals_the_reference(L, (0, 1, 4))


def test_tables_equal_the_all_columns_reference_on_mixed_input():
    # the reference feeds every column, so it skips no cocycle
    for L in mixed_complexes():
        assert_table_equals_the_reference(L, (0, 1, 3))


def test_reach_is_none_on_mixed_degree_brackets():
    # the log de Rham complex does not see the bracket, so it stays graded
    for L in mixed_complexes():
        assert [Stencil(L, k).reach for k in range(L.r + 1)] == [None] * L.r + [0], L.name


# -- skipping known cocycles ---------------------------------------------------


def test_skipping_known_cocycles_changes_no_row(monkeypatch):
    # the pivots of d^(k-1) are cocycles of d^k whose columns reduce to
    # zero; the last pass of a table takes sources only up to D
    skipped = 0
    for L in [*graded_complexes(), *mixed_complexes()]:
        window = SliceWindow(4 if L.nvars == 2 else 3, 1)
        runs = []
        for skip in (True, False):
            feeds = recorded_passes(monkeypatch, skip)
            compute_table(L, range(L.r + 1), window)
            runs.append([(k, one.counts(), one.ech.rows) for k, _, one in feeds])
            skipped += sum(len(cocycles) for _, cocycles, _ in feeds)
        assert runs[0] == runs[1], L.name
    assert skipped


def test_degree_shift_bounds_every_stencil_term():
    # the one rule that sizes the coordinates of a plan
    for L in [*graded_complexes(), *mixed_complexes()]:
        for k in range(L.r + 1):
            shifts = [sum(shift) for terms in Stencil(L, k).terms.values()
                      for _, _, shifts in terms for shift, _ in shifts]
            assert max(shifts, default=0) <= L.degree_shift(), (L.name, k)


def test_tables_of_any_ks_are_rows_of_the_full_table():
    # a pass hands its pivots only to the pass of the next cochain degree
    for L in [*worked_complexes(), *mixed_complexes()]:
        window = SliceWindow(3, 1)
        full = compute_table(L, range(L.r + 1), window)
        for size in range(1, L.r + 1):
            for ks in combinations(range(L.r + 1), size):
                table = compute_table(L, ks, window)
                assert table.rows == {k: full.rows[k] for k in ks}, (L.name, ks)


def recorded_passes(monkeypatch, skip=True):
    """Record every pass of the plans that follow as (k, the cocycles it
    skips, the pass); with skip False, no pass skips any."""
    feeds = []

    class Recorded(cohomology._Pass):
        def feed(self, upto):
            if not skip:
                self.cocycles.clear()
            feeds.append((self.k, set(self.cocycles), self))
            super().feed(upto)

    monkeypatch.setattr(cohomology, "_Pass", Recorded)
    return feeds


def test_a_table_pass_skips_the_pivots_of_the_pass_before(monkeypatch):
    # one frame for every pass, so the keys mean the same cochains
    feeds = recorded_passes(monkeypatch)
    for L in [*worked_complexes(), *mixed_complexes()]:
        for ks in ([L.r], [0, L.r], range(L.r + 1)):
            feeds.clear()
            compute_table(L, ks, SliceWindow(3, 1))
            assert feeds[0][1] == set()
            for (j, _, before), (k, cocycles, one) in zip(feeds, feeds[1:]):
                assert one.coords is before.coords, (L.name, ks, k)
                assert cocycles == (set(before.ech.rows) if k == j + 1 else set()), \
                    (L.name, ks, k)


def test_full_table_feeds_almost_no_column_that_reduces_to_zero(monkeypatch):
    # Without the skip, this table's 3,242 inserts include 992 columns that
    # reduce to zero.  Now such a column is a cocycle of d^k outside the
    # pivots of d^(k-1), so it adds to H^k at the pass's source degrees.
    # d^0 has only the constants, whose columns are empty and never
    # inserted, and d^2 has no targets, so what is left is H^1: its two
    # classes, both of degree 2 (the table's row k=1).
    x = Poly.variable(2, 0)
    P = PoissonStructure(XY, {(0, 1): x * p2("1 + x*y + y^2")})
    L = list(generated_complexes(P, [x]))[1]
    zero = []
    original = cohomology.Echelon.insert

    def counted(self, vec):
        piv = original(self, vec)
        zero.append(piv is None)
        return piv

    monkeypatch.setattr(cohomology.Echelon, "insert", counted)
    table = compute_table(L, [0, 1, 2], SliceWindow(40))
    assert table.cumulative(1) == 2
    assert sum(zero) <= 2


def test_find_primitive_finds_every_image_on_graded_input():
    rng = random.Random(5)
    for L in graded_complexes():
        for k in range(L.r):
            u = Cochain(k, L.r, L.nvars, {tup: random_poly(rng, L.nvars, 3, 3)
                                          for tup in combinations(range(L.r), k)})
            target = differential(L, u)
            if target.is_zero():
                continue
            deg = max(p.degree() for p in u.comps.values())
            for D in range(deg + 1):
                assert find_primitive(L, target, SliceWindow(D, deg - D)) is not None, \
                    (L.name, k, u)


def test_find_primitive_skips_the_pivots_of_its_lead_pass(monkeypatch):
    # d^0 runs first in the frame of d^1 and hands its pivots on; without
    # the skip the d^1 echelon, and so the witness, is the same
    rng = random.Random(3)
    for L in [*worked_complexes(), *mixed_complexes()]:
        u = Cochain(1, L.r, L.nvars, {(j,): random_poly(rng, L.nvars, 2, 2) for j in range(L.r)})
        targets = [differential(L, u)]
        if L.r == 2:
            # a top cochain is closed; in a small window 1 may have no primitive
            targets.append(Cochain(2, 2, 2, {(0, 1): p2("1")}))
        for target in filter(lambda c: not c.is_zero(), targets):
            answers = []
            for skip in (True, False):
                feeds = recorded_passes(monkeypatch, skip)
                witness = find_primitive(L, target, SliceWindow(3, 1))
                (lead_k, none, lead), (k, cocycles, one) = feeds
                assert (lead_k, k, none) == (0, 1, set()) and one.coords is lead.coords, L.name
                assert cocycles == (set(lead.ech.rows) if skip else set()), L.name
                answers.append((witness, one.ech.rows))
            assert answers[0] == answers[1], (L.name, target)


def test_lead_pass_makes_the_long_h2_chains_short(monkeypatch):
    # {x,y} = x(1+xy+y^2) along x: the lead pass leaves d^1 almost no
    # column that reduces to zero, in a table of H^2 alone and in a search
    x = Poly.variable(2, 0)
    P = PoissonStructure(XY, {(0, 1): x * p2("1 + x*y + y^2")})
    L = list(generated_complexes(P, [x]))[1]
    zero = []
    original = cohomology.Echelon.insert

    def counted(self, vec):
        piv = original(self, vec)
        zero.append(piv is None and max(vec) >= 0)
        return piv

    monkeypatch.setattr(cohomology.Echelon, "insert", counted)
    assert compute_table(L, [2], SliceWindow(30)).dims(2)[:4] == [1, 0, 0, 2]
    assert sum(zero) <= 2
    zero.clear()
    assert find_primitive(L, two_form_cochain(P, LogBasis.from_divisor(
        2, LogDivisorSpec.normalize([x]))), SliceWindow(30)) is None
    assert sum(zero) <= 2


# -- the Euler route -------------------------------------------------------------


def euler_inputs(P, generators):
    B = LogBasis.from_divisor(P.n, LogDivisorSpec.normalize(generators))
    return P, B, log_poisson_complex(P, B), two_form_cochain(P, B)


def test_euler_weights_by_hand():
    x2, y2 = p2("x"), p2("y")
    # {x,y} = x: -w_y = -1; w_x is free and stays 0
    P, B, *_ = euler_inputs(PoissonStructure(XY, {(0, 1): x2}), [x2])
    assert euler_weights(P, B) == [0, 1]
    # {x,y} = x^2: w_x - w_y = -1; the log column goes first, so w_y = 0
    P, B, *_ = euler_inputs(PoissonStructure(XY, {(0, 1): p2("x^2")}), [x2])
    assert euler_weights(P, B) == [-1, 0]
    # {x,y} = x^3 y + x y^3 along x and y: 2 w_x = 2 w_y = -1
    P, B, *_ = euler_inputs(PoissonStructure(XY, {(0, 1): p2("x^3*y + x*y^3")}), [x2, y2])
    assert euler_weights(P, B) == [Fraction(-1, 2), Fraction(-1, 2)]
    # a log-canonical bracket and x*g(y) leave only e = 0
    for f, gens in (("x*y", [x2, y2]), ("x*(1 + y + y^2)", [x2]), ("x*(2 + y^2)", [x2])):
        P, B, *_ = euler_inputs(PoissonStructure(XY, {(0, 1): p2(f)}), gens)
        assert euler_weights(P, B) is None, f


def test_euler_primitive_is_the_euler_field_on_the_log_basis():
    # theta(dx_l/h_l) = w_l x_l / h_l: a constant on a log form
    P, B, L, pi = euler_inputs(PoissonStructure(XY, {(0, 1): p2("x^3*y + x*y^3")}),
                               [p2("x"), p2("y")])
    theta = euler_primitive(P, B, L, pi, SliceWindow(0, 0))
    assert theta == Cochain(1, 2, 2, {(0,): Poly.const(2, Fraction(-1, 2)),
                                      (1,): Poly.const(2, Fraction(-1, 2))})
    assert differential(L, theta) == pi
    # degree 1 on dy, so only a window reaching degree 1 takes it
    P, B, L, pi = euler_inputs(PoissonStructure(XY, {(0, 1): p2("x")}), [p2("x")])
    assert euler_primitive(P, B, L, pi, SliceWindow(0, 0)) is None
    assert euler_primitive(P, B, L, pi, SliceWindow(1, 0)) == \
        Cochain(1, 2, 2, {(1,): p2("y")})
    # a zero curvature and e = 0 are left to the search
    for f in ("0", "x*y"):
        P, B, L, pi = euler_inputs(PoissonStructure(XY, {(0, 1): p2(f)}), [p2("x")])
        assert euler_primitive(P, B, L, pi, SliceWindow(4)) is None


def test_euler_primitive_sizes_the_window_first():
    P, B, L, pi = euler_inputs(PoissonStructure(XY, {(0, 1): p2("x")}), [p2("x")])
    with pytest.raises(cohomology.WindowTooLarge):
        euler_primitive(P, B, L, pi, SliceWindow(100_000))


def test_euler_primitive_takes_only_two_cochains():
    P, B, L, _ = euler_inputs(PoissonStructure(XY, {(0, 1): p2("x")}), [p2("x")])
    for cochain in (Cochain(0, 2, 2, {(): p2("x")}), Cochain(1, 2, 2, {(1,): p2("y")})):
        with pytest.raises(ValueError, match="2-cochain"):
            euler_primitive(P, B, L, cochain, SliceWindow(4))


def test_euler_primitive_verifies_its_witness(monkeypatch):
    P, B, L, pi = euler_inputs(PoissonStructure(XY, {(0, 1): p2("x")}), [p2("x")])
    monkeypatch.setattr(cohomology, "euler_weights", lambda *_: [Fraction(0), Fraction(2)])
    with pytest.raises(AssertionError, match="Euler verification"):
        euler_primitive(P, B, L, pi, SliceWindow(4))


# -- primitives ------------------------------------------------------------


def test_find_primitive_none_matches_the_dense_oracle():
    # a top cochain has a primitive from sources of degree <= D + buffer
    # exactly when its row adds nothing to the rank of their image rows;
    # g = 1 and x are graded, the other two have reach None
    for g in ("1", "x", "1 + x*y + y^2", "2 + y"):
        P = PoissonStructure(XY, {(0, 1): p2("x") * p2(g)})
        L = log_poisson_complex(P, LogBasis.from_divisor(2, LogDivisorSpec.normalize([p2("x")])))
        assert (Stencil(L, 1).reach is None) == (g not in ("1", "x")), g
        dense = oracle.x_times_g_log(p2(g))
        for D, buffer in ((2, 0), (3, 1), (1, 3)):
            top = D + buffer
            ambient = dense.coords(2, top + 4)
            image = dense.image_rows(1, top, ambient)
            rank = oracle.dense_rank(image)
            for key in dense.coords(2, top + 1):
                row = [Fraction(c == key) for c in ambient]
                exact = oracle.dense_rank(image + [row]) == rank
                found = find_primitive(L, basis_cochain(L, key), SliceWindow(D, buffer))
                assert (found is not None) == exact, (g, D, buffer, key)


def test_find_primitive_first_structure():
    P, B = setup_x()
    L = log_poisson_complex(P, B)
    pi = two_form_cochain(P, B)
    witness = find_primitive(L, pi, SliceWindow(8))
    assert witness is not None
    assert differential(L, witness) == pi


def test_find_primitive_verifies_its_witness(monkeypatch):
    # a corrupted combination record yields a wrong witness; the solver
    # must catch it instead of returning it
    P, B = setup_x()
    L = log_poisson_complex(P, B)
    pi = two_form_cochain(P, B)
    original = cohomology.Echelon.insert

    def corrupted(self, vec):
        # the negative keys record the combination of the sources
        return original(self, {key: 2 * c if key < 0 else c for key, c in vec.items()})

    monkeypatch.setattr(cohomology.Echelon, "insert", corrupted)
    with pytest.raises(AssertionError, match="verification"):
        find_primitive(L, pi, SliceWindow(8))


def test_find_primitive_packs_targets_above_the_window():
    # every top cochain is closed; with sources of degree <= 1 no
    # primitive exists.  In a base sized by the window alone, (d, m) =
    # (30, y^30) and (29, x^17 y^12) would pack to one int and cancel.
    P, B = setup_x()
    L = log_poisson_complex(P, B)
    for terms in ({(0, 30): 1, (17, 12): -1}, {(15, 15): 1}, {(0, 32): 3, (1, 0): 1}):
        top = Cochain(2, 2, 2, {(0, 1): Poly(2, terms)})
        assert find_primitive(L, top, SliceWindow(1, 0)) is None, terms


def test_pack_rejects_exponents_outside_the_base():
    P, B = setup_x()
    coords = Coordinates(log_poisson_complex(P, B), 5)
    assert coords.unpack(coords.pack((4, (0,), (0, 4))), 1) == (4, (0,), (0, 4))
    for mono in ((5, 0), (0, 7), (-1, 2)):
        with pytest.raises(ValueError):
            coords.pack((sum(mono), (0,), mono))


def test_find_primitive_zero_cochain():
    P, B = setup_x()
    L = log_poisson_complex(P, B)
    zero = Cochain.zero(2, 2, 2)
    w = find_primitive(L, zero, SliceWindow(4))
    assert w is not None and w.is_zero()


def test_find_primitive_constant_obstruction_second_structure():
    # the constant two-cochain generates the degree-zero part of the
    # second cohomology, so no window contains a primitive
    P, B = setup_x2()
    L = log_poisson_complex(P, B)
    one = Cochain(2, 2, 2, {(0, 1): Poly.const(2, 1)})
    for D in (2, 5, 8):
        assert find_primitive(L, one, SliceWindow(D)) is None


def test_find_primitive_two_form_second_structure_is_exact():
    # the induced two-form itself has the value x, which is a coboundary
    P, B = setup_x2()
    L = log_poisson_complex(P, B)
    pi = two_form_cochain(P, B)
    witness = find_primitive(L, pi, SliceWindow(6))
    assert witness is not None
    assert differential(L, witness) == pi


def test_find_primitive_requires_closed_input():
    P, B = setup_xyz()
    L = log_poisson_complex(P, B)
    bad = Cochain(2, 3, 3, {(0, 1): p3("y")})
    with pytest.raises(ValueError):
        find_primitive(L, bad, SliceWindow(4))


def test_find_primitive_rejects_zero_forms():
    P, B = setup_x()
    L = log_poisson_complex(P, B)
    with pytest.raises(ValueError):
        find_primitive(L, Cochain.zero(0, 2, 2), SliceWindow(3))
