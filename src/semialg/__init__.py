"""Exact arithmetic for numerical semigroups and their gap polynomials.

Modules:
    semigroup_core    Apery sets, membership, Frobenius number, genus, witnesses
    gap_polynomials   f_A(q) and the dense functional equation, library API only
    bivariate_algebra division by x^b - y^a (the one division cap) and the monomial-map kernel
    graded_hilbert    denumerants, graded dimensions, Hilbert series, the K-polynomial, verify's pair checks
    cli               deterministic command-line front end

No command reads gap_polynomials, graded_dims, partition_count, phi_evaluate
or TruncatedSeries. They are kept only because bench/tracing.py patches them
by name (TruncatedSeries through its __mul__).
"""

from .semigroup_core import (
    GeneratorSet,
    NotNumericalSemigroupError,
    SemigroupTable,
    build_table,
    conductor_bound,
    validate_generators,
)
from .gap_polynomials import (
    IntPolynomial,
    gap_polynomial,
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
    k_polynomial,
    pair_checks,
    partition_count,
    rank_nullity_failure,
)

__version__ = "0.1.0"
