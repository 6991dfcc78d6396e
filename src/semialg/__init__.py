"""Exact arithmetic for numerical semigroups and their gap polynomials.

Modules:
    semigroup_core    Apery sets, membership, Frobenius number, genus, witnesses
    gap_polynomials   f_A(q) and the dense functional equation, bench-only
    bivariate_algebra division by x^b - y^a (the one division cap) and the monomial-map kernel
    graded_hilbert    denumerants, graded dimensions, Hilbert series, the K-polynomial, verify's pair checks
    cli               deterministic command-line front end

No command reads IntPolynomial, gap_polynomial, verify_functional_equation,
phi_evaluate, TruncatedSeries, graded_dims or partition_count: they stay in
their modules, unexported, only because bench/tracing.py patches them by name.
"""

from .semigroup_core import (
    GeneratorSet,
    NotNumericalSemigroupError,
    SemigroupTable,
    build_table,
    conductor_bound,
    validate_generators,
)
from .bivariate_algebra import (
    BivariatePolynomial,
    DivisionResult,
    divide,
    in_kernel,
    parse_bivariate,
)
from .graded_hilbert import (
    hilbert_series,
    k_polynomial,
    pair_checks,
    rank_nullity_failure,
)

# bench/run.py imports only semialg and semialg.cli, and Tracer.install reads semialg.gap_polynomials
from . import gap_polynomials

__version__ = "0.1.0"
