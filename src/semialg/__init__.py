"""Exact arithmetic for numerical semigroups and their gap polynomials.

Subpackages:
    semigroup_core    Apery sets, membership, Frobenius number, genus, witnesses
    gap_polynomials   f_A(q), reciprocals, the functional equation, the K-polynomial
    bivariate_algebra division by x^b - y^a and the monomial-map kernel
    graded_hilbert    denumerants, graded dimensions, Hilbert series, verify's pair checks
    cli               deterministic command-line front end
"""

from .semigroup_core import (
    GeneratorSet,
    NotNumericalSemigroupError,
    SemigroupTable,
    build_table,
    conductor_bound,
    is_symmetric,
    validate_generators,
)
from .gap_polynomials import (
    IntPolynomial,
    g_polynomial,
    gap_polynomial,
    k_polynomial,
    reciprocal,
    reciprocal_duality,
    verify_functional_equation,
)
from .bivariate_algebra import (
    BivariatePolynomial,
    DivisionResult,
    divide,
    in_kernel,
    parse_bivariate,
    phi_evaluate,
)
from .graded_hilbert import (
    TruncatedSeries,
    graded_dims,
    hilbert_series,
    pair_checks,
    partition_count,
    rank_nullity_failure,
)

__version__ = "0.1.0"
