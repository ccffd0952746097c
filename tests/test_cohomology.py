"""Engine tables against the dense brute-force oracle, with the expected
values frozen from the oracle runs."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from logpoisson import cohomology
from logpoisson.cohomology import (
    CohomologyTable,
    Echelon,
    SliceWindow,
    Stencil,
    _filtered_pass,
    basis_cochain,
    cochain_basis_keys,
    cochain_to_vector,
    compare_tables,
    compute_table,
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
from logpoisson.poisson import LogDivisorSpec, PoissonStructure, is_log_principal
from logpoisson.poly import Poly
from logpoisson.selfcheck import (
    XY,
    XYZ,
    p2,
    p3,
    setup_x,
    setup_x2,
    setup_xyz,
    worked_structures,
)
from conftest import polys


def dims_of(rows):
    return [r.dim for r in rows]


# -- one filtered pass over degree slices ------------------------------------


def test_slice_matrix_degree_zero():
    # sources of degree <= 0 and <= 1: 1 and 3 columns, only the
    # constants are closed, so the ranks are 0 and 2
    P, B = setup_x()
    L = log_poisson_complex(P, B)
    kernel, images = _filtered_pass(L, 0, 1)
    assert [len(cochain_basis_keys(L, 0, d)) for d in (0, 1)] == [1, 3]
    assert kernel == [1, 1] and images == []


def test_slice_matrix_empty():
    P, B = setup_x()
    L = log_poisson_complex(P, B)
    # k beyond the basis size
    assert cochain_basis_keys(L, 3, 4) == []
    assert _filtered_pass(L, 3, 4, [4]) == ([0] * 5, [[0] * 5])
    assert Stencil(L, 3).terms == {}


# -- the compiled stencil against the generic differential -----------------


def assert_stencil_matches_engine(L, max_degree):
    """Every column of every d^k up to max_degree, against scale[T] times
    a full application of the generic differential to the basis cochain."""
    for k in range(L.r + 1):
        stencil = Stencil(L, k)
        for key in cochain_basis_keys(L, k, max_degree):
            scale = stencil.scale[key[1]]
            generic = cochain_to_vector(differential(L, basis_cochain(L, key)))
            column = stencil.column(key)
            assert column == {at: scale * c for at, c in generic.items()}, (L.name, k, key)
            assert all(type(c) is int for c in column.values())


def worked_complexes():
    for P, B in worked_structures():
        yield from (log_poisson_complex(P, B), poisson_complex(P), log_derham_complex(B))


def test_stencil_columns_match_engine_on_worked_structures():
    for L in worked_complexes():
        assert_stencil_matches_engine(L, 4 if L.nvars == 2 else 3)


def test_stencil_is_read_off_the_engine(monkeypatch):
    # d^k is compiled from nvars + 1 applications per index tuple, and a
    # column is built without further calls
    P, B = setup_xyz()
    L = log_poisson_complex(P, B)
    calls = []
    original = cohomology.differential

    def counted(data, cochain):
        calls.append(cochain.k)
        return original(data, cochain)

    monkeypatch.setattr(cohomology, "differential", counted)
    stencil = Stencil(L, 1)
    assert calls == [1] * 3 * (L.nvars + 1)
    for key in cochain_basis_keys(L, 1, 3):
        stencil.column(key)
    assert len(calls) == 3 * (L.nvars + 1)


def generated_complexes(P, divisor):
    """The Poisson complex of P, and both log complexes when P is
    principal logarithmic along the divisor (checked, not assumed)."""
    yield poisson_complex(P)
    spec = LogDivisorSpec.normalize(divisor)
    assert is_log_principal(P, spec).ok
    B = LogBasis.from_divisor(P.n, spec)
    yield log_poisson_complex(P, B)
    yield log_derham_complex(B)


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

ECHELON_KEYS = [(d, (t,), (i,)) for d in range(4) for t in range(2) for i in range(2)]


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
        keys = [key for key in ECHELON_KEYS if key[0] > above]
        return oracle.dense_rank([[c.get(key, Fraction(0)) for key in keys] for c in cols])

    assert ech.rank == len(pivots) == dense(-1)
    for d in range(4):
        assert sum(p[0] > d for p in pivots) == dense(d), d
    for key, row in ech.rows.items():
        assert max(row) == key and row[key] > 0
        assert all(type(c) is int for c in row.values())
        assert gcd(*row.values()) == 1


def test_rank_nullity_against_dense_oracle():
    P, B = setup_x2()
    L = log_poisson_complex(P, B)
    dense = oracle.ex2_log()
    for k in (0, 1):
        kernel, _ = _filtered_pass(L, k, 4)
        for d in (0, 2, 4):
            rank = len(cochain_basis_keys(L, k, d)) - kernel[d]
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
        for key in cochain_basis_keys(L, 0, 6):
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
                vec = data.bracket_vector(perm[i], perm[j])
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


# -- primitives ------------------------------------------------------------


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
        # the negative-degree keys record the combination of the sources
        return original(self, {key: 2 * c if key[0] < 0 else c for key, c in vec.items()})

    monkeypatch.setattr(cohomology.Echelon, "insert", corrupted)
    with pytest.raises(AssertionError, match="verification"):
        find_primitive(L, pi, SliceWindow(8))


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
