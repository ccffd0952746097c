"""Walkthrough: bracket {x, y} = x^2 along the divisor x^2.

The divisor generator is not square free; its normalization replaces
x^2 by the variable x without changing the module of logarithmic forms
(the logarithmic differential of x^2 is twice that of x).  The map on
one-forms is now degenerate, so nondegeneracy fails, yet the Poisson
and logarithmic Poisson tables still agree degree by degree: the
nondegeneracy verdict is sufficient, not necessary, for that equality.
"""

from logpoisson import (
    LogBasis,
    LogDivisorSpec,
    PoissonStructure,
    SliceWindow,
    compare_tables,
    compute_table,
    differential,
    find_primitive,
    format_poly,
    log_poisson_complex,
    log_symplectic_test,
    normalize_squarefree,
    parse_poly,
    poisson_complex,
    two_form_cochain,
)
from logpoisson.cli import table_to_text

NAMES = ["x", "y"]

generator = parse_poly("x^2", NAMES)
print("divisor generator x^2 normalizes to the variable index",
      normalize_squarefree(generator))

structure = PoissonStructure(NAMES, {(0, 1): parse_poly("x^2", NAMES)})
divisor = LogDivisorSpec.normalize([generator])
basis = LogBasis.from_divisor(structure.n, divisor)

sym = log_symplectic_test(structure, basis)
print("log-symplectic:", sym.is_log_symplectic,
      "(determinant", format_poly(sym.determinant, NAMES) + ")")

window = SliceWindow(8)
t_log = compute_table(log_poisson_complex(structure, basis), [0, 1, 2], window)
t_poi = compute_table(poisson_complex(structure), [0, 1, 2], window)
print()
print(table_to_text(t_log))
print()
print(table_to_text(t_poi))

diff = compare_tables(t_log, t_poi)
print("\ntables equal degree by degree:", diff.equal)

# the first cohomology has the class (0,1) in degree zero and a
# two-dimensional slice in degree one, (0,x) and (1,y); each further
# class (y^k, y^(k+1)/(k+1)) enters one degree above the power y^k
print("H^1 per-degree dims:", t_log.dims(1))

# the induced two-form has value x on the basis pair; unlike the constant
# cochain, it is exact, so the windowed prequantization search succeeds
data = log_poisson_complex(structure, basis)
curvature = two_form_cochain(structure, basis)
witness = find_primitive(data, curvature, window)
print("curvature component:", format_poly(curvature.component((0, 1)), NAMES))
print("primitive found:",
      {basis.labels(NAMES)[t[0]]: format_poly(p, NAMES)
       for t, p in sorted(witness.comps.items())})
assert differential(data, witness) == curvature

# the constant cochain, by contrast, generates the degree-zero part of
# the second cohomology and admits no primitive in any window
from logpoisson import Cochain, Poly

constant = Cochain(2, 2, 2, {(0, 1): Poly.const(2, 1)})
print("primitive for the constant two-cochain:",
      find_primitive(data, constant, window))
