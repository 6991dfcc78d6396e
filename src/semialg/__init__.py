"""Exact arithmetic for numerical semigroups and their gap polynomials.

Subpackages:
    semigroup_core    Apery sets, membership, Frobenius number, genus, witnesses
    gap_polynomials   f_A(q), reciprocals, the functional equation
    bivariate_algebra lex division and the monomial-map kernel
    graded_hilbert    denumerants, graded dimensions, Hilbert series
    cli               deterministic command-line front end
"""

from .semigroup_core import (
    GeneratorSet,
    NotNumericalSemigroupError,
    Representation,
    SemigroupTable,
    build_table,
    conductor_bound,
    frobenius_number,
    genus,
    is_symmetric,
    represent,
    validate_generators,
)
from .gap_polynomials import (
    IntPolynomial,
    epsilon_symmetry_violations,
    frobenius_from_degree,
    g_polynomial,
    gap_polynomial,
    reciprocal,
    reciprocal_duality,
    verify_functional_equation,
)
from .bivariate_algebra import (
    BivariatePolynomial,
    DivisionResult,
    Monomial2,
    distinct_exponent_check,
    divide,
    in_kernel,
    leading_monomial,
    parse_bivariate,
    phi_evaluate,
)
from .graded_hilbert import (
    GradedDims,
    TruncatedSeries,
    enumerate_basis,
    graded_dims,
    hilbert_series,
    partition_count,
    rank_nullity_check,
    series_identity_check,
    surjectivity_witness,
)

__version__ = "0.1.0"
