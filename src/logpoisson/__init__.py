"""Exact cochain complexes and cohomology tables for polynomial Poisson
algebras with a declared logarithmic divisor.

The package builds three complexes over Q[x_1..x_n] (the Poisson complex
on exact one-forms, the logarithmic Poisson complex on the divisor
basis, and the logarithmic de Rham complex), checks the structural
hypotheses (Jacobi, principal logarithmic condition, nondegeneracy of
the logarithmic Hamiltonian map), computes degree-filtered cohomology
dimension tables in exact rational arithmetic, and decides the
prequantization obstruction by solving for primitives of the induced
two-form.
"""

from .poly import (
    Monomial,
    ParseError,
    Poly,
    format_poly,
    monomials_of_degree,
    parse_poly,
)
from .poisson import (
    Derivation,
    LogDivisorSpec,
    LogPrincipalReport,
    PoissonStructure,
    UnsupportedDivisor,
    is_log_principal,
    normalize_squarefree,
)
from .logforms import (
    BasisForm,
    DivisionObstruction,
    LogBasis,
    LogSymplecticReport,
    OneForm,
    express_d,
    extension_bracket,
    form_bracket,
    log_hamiltonian,
    log_hamiltonian_basis,
    log_hamiltonian_matrix,
    log_symplectic_test,
    pair_scalar,
    structure_constants,
    two_form_value,
)
from .complexes import (
    Cochain,
    LieRinehartData,
    differential,
    log_derham_complex,
    log_hamiltonian_cochain_map,
    log_poisson_complex,
    poisson_complex,
    two_form_cochain,
)
from .cohomology import (
    CohomologyTable,
    DegreeDim,
    SliceWindow,
    compare_tables,
    compute_table,
    find_primitive,
)

__version__ = "0.1.0"

__all__ = [
    "BasisForm",
    "Cochain",
    "CohomologyTable",
    "DegreeDim",
    "Derivation",
    "DivisionObstruction",
    "LieRinehartData",
    "LogBasis",
    "LogDivisorSpec",
    "LogPrincipalReport",
    "LogSymplecticReport",
    "Monomial",
    "OneForm",
    "ParseError",
    "PoissonStructure",
    "Poly",
    "SliceWindow",
    "UnsupportedDivisor",
    "compare_tables",
    "compute_table",
    "differential",
    "express_d",
    "extension_bracket",
    "find_primitive",
    "form_bracket",
    "format_poly",
    "is_log_principal",
    "log_derham_complex",
    "log_hamiltonian",
    "log_hamiltonian_basis",
    "log_hamiltonian_cochain_map",
    "log_hamiltonian_matrix",
    "log_poisson_complex",
    "log_symplectic_test",
    "monomials_of_degree",
    "normalize_squarefree",
    "pair_scalar",
    "parse_poly",
    "poisson_complex",
    "structure_constants",
    "two_form_cochain",
    "two_form_value",
]
