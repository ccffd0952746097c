import pytest

from logpoisson.logforms import (
    BasisForm,
    DivisionObstruction,
    OneForm,
    express_d,
    extension_bracket,
    form_bracket,
    log_hamiltonian_basis,
    log_hamiltonian_matrix,
    log_symplectic_test,
    pair_scalar,
    poly_det,
    structure_constants,
    two_form_value,
)
from logpoisson.poisson import Derivation, PoissonStructure
from logpoisson.poly import Poly, parse_poly
from logpoisson.selfcheck import (
    XY,
    XYZ,
    p2,
    p3,
    random_one_form,
    setup_x,
    setup_x2,
    setup_xyz,
    worked_structures,
)
from conftest import random_poly


def one_form(basis, *texts):
    names = XY if basis.n == 2 else XYZ
    return OneForm(tuple(parse_poly(t, names) for t in texts))


def test_basis_layout():
    _, B = setup_x()
    assert B.forms == (BasisForm(0, True), BasisForm(1, False))
    assert B.labels(XY) == ["dx/x", "dy"]
    assert [f.weight(2) for f in B.forms] == [p2("x"), p2("1")]
    assert [f.dual_field(2) for f in B.forms] == [
        Derivation((p2("x"), Poly.zero(2))), Derivation((Poly.zero(2), p2("1")))]
    _, B3 = setup_xyz()
    assert [f.weight(3) for f in B3.forms] == [p3("x"), p3("y"), p3("z")]


def test_log_hamiltonian_basis_examples():
    P, B = setup_x()
    assert log_hamiltonian_basis(P, B.forms[0]) == Derivation((Poly.zero(2), p2("1")))
    P2, B2 = setup_x2()
    assert log_hamiltonian_basis(P2, B2.forms[1]) == Derivation((p2("-x^2"), Poly.zero(2)))
    assert log_hamiltonian_basis(P2, B2.forms[0]) == Derivation((Poly.zero(2), p2("x")))
    P3, B3 = setup_xyz()
    assert log_hamiltonian_basis(P3, B3.forms[1]) == Derivation(
        (Poly.zero(3), Poly.zero(3), p3("x*z"))
    )


def test_log_hamiltonian_obstruction():
    # {x,y} = 1 is not logarithmic along x, so dx/x has no image
    P = PoissonStructure(XY, {(0, 1): p2("1")})
    with pytest.raises(DivisionObstruction):
        log_hamiltonian_basis(P, BasisForm(0, True))


def test_express_d_examples():
    _, B = setup_x()
    assert express_d(B, p2("x")) == one_form(B, "x", "0")
    assert express_d(B, p2("x*y")) == one_form(B, "x*y", "x")
    assert express_d(B, Poly.const(2, 7)).is_zero()


def test_express_d_is_a_derivation(rng):
    _, B = setup_xyz()
    for _ in range(40):
        f = random_poly(rng, 3, 3)
        g = random_poly(rng, 3, 3)
        lhs = express_d(B, f * g)
        rhs = express_d(B, g).scale(f) + express_d(B, f).scale(g)
        assert lhs == rhs


def test_structure_constants_examples():
    P, B = setup_x()
    assert structure_constants(P, B, 0, 1).is_zero()  # d(x/x) = d(1) = 0

    P2, B2 = setup_x2()
    assert pair_scalar(P2, B2, 0, 1) == p2("x")
    assert structure_constants(P2, B2, 0, 1) == one_form(B2, "x", "0")

    P3, B3 = setup_xyz()
    assert pair_scalar(P3, B3, 1, 2) == p3("x")
    assert structure_constants(P3, B3, 1, 2) == OneForm((p3("x"), p3("0"), p3("0")))


def test_form_bracket_examples():
    P, B = setup_x()
    e0 = OneForm.basis_element(2, 2, 0)
    e1 = OneForm.basis_element(2, 2, 1)
    assert form_bracket(P, B, e0, e1).is_zero()
    # [dx/x, y dy] = H(dx/x)(y) dy = dy
    assert form_bracket(P, B, e0, e1.scale(p2("y"))) == one_form(B, "0", "1")


def test_form_bracket_skew(rng):
    P, B = setup_x2()
    for _ in range(30):
        a = random_one_form(rng, B)
        assert form_bracket(P, B, a, a).is_zero()


def test_log_hamiltonian_matrix_and_symplectic():
    P, B = setup_x()
    M = log_hamiltonian_matrix(P, B)
    assert M == [[Poly.zero(2), p2("-1")], [p2("1"), Poly.zero(2)]]
    rep = log_symplectic_test(P, B)
    assert rep.is_log_symplectic and rep.determinant == p2("1")

    P2, B2 = setup_x2()
    rep2 = log_symplectic_test(P2, B2)
    assert not rep2.is_log_symplectic
    assert rep2.determinant == p2("x^2")

    P3, B3 = setup_xyz()
    rep3 = log_symplectic_test(P3, B3)
    assert not rep3.is_log_symplectic
    assert rep3.determinant.is_zero()


def test_poly_det_small():
    m = [[p2("x"), p2("y")], [p2("1"), p2("x")]]
    assert poly_det(m, 2) == p2("x^2 - y")
    assert poly_det([], 2) == Poly.const(2, 1)


def test_extension_bracket_examples():
    P, B = setup_x()
    e0 = OneForm.basis_element(2, 2, 0)
    e1 = OneForm.basis_element(2, 2, 1)
    zero = Poly.zero(2)

    scalar, rest = extension_bracket(P, B, (zero, e0), (zero, e1))
    assert scalar == p2("1") and rest.is_zero()

    a, b = p2("x^2 + y"), p2("x*y")
    scalar, rest = extension_bracket(
        P, B, (a, OneForm.zero(2, 2)), (b, OneForm.zero(2, 2))
    )
    assert scalar == P.bracket(a, b) and rest.is_zero()

    scalar, rest = extension_bracket(P, B, (Poly.const(2, 1), OneForm.zero(2, 2)),
                                     (zero, e1.scale(p2("y^2"))))
    assert scalar.is_zero() and rest.is_zero()


def _jacobi_sum(P, B, u, v, w):
    def br(a, b):
        return extension_bracket(P, B, a, b)

    def add(a, b):
        return (a[0] + b[0], a[1] + b[1])

    return add(add(br(u, br(v, w)), br(v, br(w, u))), br(w, br(u, v)))


def test_extension_bracket_jacobi_pure_forms(rng):
    # with zero scalar parts the cyclic sum reduces to closedness of the
    # induced two-form, so it must vanish for arbitrary coefficients
    for P, B in worked_structures():
        zero = Poly.zero(B.n)
        for _ in range(12):
            trip = [(zero, random_one_form(rng, B, 2)) for _ in range(3)]
            total = _jacobi_sum(P, B, *trip)
            assert total[0].is_zero() and total[1].is_zero()


def test_extension_bracket_jacobi_pure_scalars(rng):
    # the scalar part embeds the Poisson algebra, so Jacobi there is the
    # Poisson Jacobi identity
    for P, B in worked_structures():
        zf = OneForm.zero(B.n, B.n)
        for _ in range(12):
            trip = [(random_poly(rng, B.n, 3, max_terms=3), zf) for _ in range(3)]
            total = _jacobi_sum(P, B, *trip)
            assert total[0].is_zero() and total[1].is_zero()


def test_extension_bracket_jacobi_fails_on_mixed_inputs():
    # the scalar bracket term obstructs Jacobi as soon as a form with
    # non-constant coefficients meets nonzero scalar parts: the cyclic sum
    # measures how far the image of y*dx/x is from deriving the bracket
    P, B = setup_x()
    u = (p2("x"), OneForm.zero(2, 2))
    v = (p2("y"), OneForm.zero(2, 2))
    w = (Poly.zero(2), OneForm((p2("y"), Poly.zero(2))))
    total = _jacobi_sum(P, B, u, v, w)
    assert total[0] == p2("-x")
    assert total[1].is_zero()


def test_two_form_matches_pair_scalar():
    P2, B2 = setup_x2()
    e0 = OneForm.basis_element(2, 2, 0)
    e1 = OneForm.basis_element(2, 2, 1)
    assert two_form_value(P2, B2, e0, e1) == p2("x")
    assert two_form_value(P2, B2, e1, e0) == p2("-x")
    assert two_form_value(P2, B2, e0, e0).is_zero()
