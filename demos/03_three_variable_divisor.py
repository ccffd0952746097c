"""Walkthrough: {y, z} = xyz along the full coordinate divisor xyz.

With three variables the logarithmic and plain Poisson tables finally
separate.  The top cohomology of the logarithmic complex keeps one class
per monomial in y and z alone plus the pure powers of x; the plain
Poisson complex adds the classes x^a * y * z.  The first disagreement
is in degree three.
"""

from logpoisson import (
    LogBasis,
    LogDivisorSpec,
    PoissonStructure,
    SliceWindow,
    compare_tables,
    compute_table,
    log_poisson_complex,
    log_symplectic_test,
    parse_poly,
    poisson_complex,
)
from logpoisson.cli import table_to_text

NAMES = ["x", "y", "z"]

structure = PoissonStructure(NAMES, {(1, 2): parse_poly("x*y*z", NAMES)})
divisor = LogDivisorSpec.normalize([parse_poly(v, NAMES) for v in NAMES])
basis = LogBasis.from_divisor(structure.n, divisor)

print("bracket table: {x,y} = 0, {x,z} = 0, {y,z} = x*y*z")
print("divisor basis:", ", ".join(basis.labels(NAMES)))
print("jacobi failures:", structure.jacobi_failures() or "none")

# the first basis form pairs to zero with everything, so the map on
# one-forms has a zero column and the structure cannot be log-symplectic
sym = log_symplectic_test(structure, basis)
print("log-symplectic:", sym.is_log_symplectic,
      "(determinant is zero)" if sym.determinant.is_zero() else "")

window = SliceWindow(6)
t_log = compute_table(log_poisson_complex(structure, basis), [3], window)
t_poi = compute_table(poisson_complex(structure), [3], window)
print()
print(table_to_text(t_log))
print()
print(table_to_text(t_poi))

diff = compare_tables(t_log, t_poi)
print("\nmismatches (k, degree, log, poisson):")
for m in diff.mismatches:
    print("  ", m)
first = min(d for (_, d, _, _) in diff.mismatches)
print("first disagreement at degree", first)

# degree-by-degree growth of the top cohomology: the logarithmic table
# gains one class per degree (powers of x join the y/z monomials), the
# Poisson table additionally keeps x^a*y*z from degree three on
print("log cumulative:", t_log.cumulative(3))
print("poisson cumulative:", t_poi.cumulative(3))
