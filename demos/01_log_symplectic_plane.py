"""Walkthrough: the plane with bracket {x, y} = x and divisor x.

This is the smallest interesting structure: the bracket vanishes on the
divisor x = 0, the logarithmic Hamiltonian map is invertible over the
whole algebra, and all three cohomology tables coincide.  We build
everything with the library API and print what a report would contain.
"""

from logpoisson import (
    LogBasis,
    LogDivisorSpec,
    PoissonStructure,
    SliceWindow,
    compute_table,
    differential,
    find_primitive,
    format_poly,
    is_log_principal,
    log_derham_complex,
    log_hamiltonian_matrix,
    log_poisson_complex,
    log_symplectic_test,
    parse_poly,
    poisson_complex,
    two_form_cochain,
)
from logpoisson.cli import table_to_text

NAMES = ["x", "y"]

structure = PoissonStructure(NAMES, {(0, 1): parse_poly("x", NAMES)})
divisor = LogDivisorSpec.normalize([parse_poly("x", NAMES)])
basis = LogBasis.from_divisor(structure.n, divisor)

print("variables:", ", ".join(NAMES))
print("bracket {x,y} =", format_poly(structure.entry(0, 1), NAMES))
print("divisor basis:", ", ".join(basis.labels(NAMES)))

# the structural checks: Jacobi is vacuous in two variables, the bracket
# must be divisible by the divisor variable, and the Hamiltonian matrix
# decides nondegeneracy
print("\njacobi failures:", structure.jacobi_failures() or "none")
print("log-principal:", "pass" if is_log_principal(structure, divisor).ok else "fail")

matrix = log_hamiltonian_matrix(structure, basis)
print("matrix of the log Hamiltonian map in the dual vector-field basis:")
for row in matrix:
    print("   [", ", ".join(format_poly(p, NAMES) for p in row), "]")
sym = log_symplectic_test(structure, basis)
print("log-symplectic:", sym.is_log_symplectic,
      "(determinant", format_poly(sym.determinant, NAMES) + ")")

# three complexes, one engine: only the anchors and structure constants
# change.  With this bracket all three tables agree.
window = SliceWindow(8)
for build in (lambda: log_poisson_complex(structure, basis),
              lambda: poisson_complex(structure),
              lambda: log_derham_complex(basis)):
    data = build()
    print()
    print(table_to_text(compute_table(data, [0, 1, 2], window)))

# prequantization: the induced two-form has constant value 1 on the basis
# pair, and it is exact, with the primitive found by the windowed solver
data = log_poisson_complex(structure, basis)
curvature = two_form_cochain(structure, basis)
witness = find_primitive(data, curvature, window)
print("\ncurvature component on (dx/x, dy):",
      format_poly(curvature.component((0, 1)), NAMES))
print("primitive found:",
      {basis.labels(NAMES)[t[0]]: format_poly(p, NAMES)
       for t, p in sorted(witness.comps.items())})
assert differential(data, witness) == curvature
print("primitive verified: d(witness) equals the curvature cochain")
