"""Graded dimensions, partition counts, and truncated Hilbert series.

Everything is tabulated exactly up to a caller-chosen truncation order:
the denumerant p_{a,b}(n), the graded component dimensions of the weighted
two-variable polynomial ring, the semigroup ring, and the kernel ideal,
plus the rank-nullity and Hilbert-series identities connecting them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .bivariate_algebra import Monomial2
from .gap_polynomials import gap_polynomial
from .semigroup_core import COMPLEMENT, build_table, check_size, validate_pair

SERIES_KINDS = (
    "full_ring_degree",
    "full_ring_frobenius",
    "semigroup_ring",
    "kernel",
    "univariate",
)


class TruncatedSeries:
    """Exact integer coefficients c_0..c_N of a formal power series mod q^{N+1}."""

    __slots__ = ("order", "coefficients")

    def __init__(self, order: int, coefficients):
        coeffs = list(coefficients)
        if len(coeffs) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients, got {len(coeffs)}")
        self.order = order
        self.coefficients = tuple(coeffs)

    @classmethod
    def geometric(cls, m: int, order: int) -> "TruncatedSeries":
        """1 / (1 - q^m) truncated: coefficient 1 at multiples of m."""
        if m < 1:
            raise ValueError("geometric step must be positive")
        return cls(order, [1 if n % m == 0 else 0 for n in range(order + 1)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coefficients == other.coefficients

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        for i, ci in enumerate(self.coefficients[: n + 1]):
            if ci == 0:
                continue
            for j in range(n + 1 - i):
                cj = other.coefficients[j]
                if cj:
                    out[i + j] += ci * cj
        return TruncatedSeries(n, out)

    def shift(self, m: int) -> "TruncatedSeries":
        """Multiply by q^m (same truncation order)."""
        kept = self.coefficients[: max(self.order + 1 - m, 0)]
        return TruncatedSeries(self.order, (0,) * (self.order + 1 - len(kept)) + kept)

    def __str__(self) -> str:
        parts = []
        for n, c in enumerate(self.coefficients):
            if n == 0:
                parts.append(str(c))
            elif n == 1:
                parts.append(f"{c}*q")
            else:
                parts.append(f"{c}*q^{n}")
        return " + ".join(parts) + f" + O(q^{self.order + 1})"

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order})"


@dataclass(frozen=True)
class GradedDims:
    """Component dimensions for the weighted grading by a*i + b*j, up to nmax.

    dim_full[n] counts weighted-degree-n monomials of the two-variable ring,
    dim_ring[n] is the 0/1 membership dimension of the semigroup ring, and
    dim_kernel[n] is the dimension of the degree-n slice of the kernel ideal.
    """

    a: int
    b: int
    nmax: int
    dim_full: tuple[int, ...]
    dim_ring: tuple[int, ...]
    dim_kernel: tuple[int, ...]


def _denumerants(a: int, b: int, nmax: int) -> list[int]:
    """p_{a,b}(0..nmax), the coefficients of 1/((1-q^a)(1-q^b)), in O(nmax).

    p(n) = p(n - a) + [b | n]: the multiples of b, summed along each residue mod a.
    """
    p = [0] * (nmax + 1)
    p[::b] = [1] * (nmax // b + 1)
    for r in range(min(a, nmax + 1)):
        p[r::a] = accumulate(p[r::a])
    return p


def partition_count(a: int, b: int, n: int) -> int:
    """Number of (i, j) in N_0^2 with a*i + b*j = n. No coprimality needed."""
    if a < 1 or b < 1:
        raise ValueError("parts must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(1 for i in range(n // a + 1) if (n - a * i) % b == 0)


def enumerate_basis(a: int, b: int, n: int) -> list[Monomial2]:
    """All monomials x^i y^j of weighted degree n, sorted by i."""
    if a < 1 or b < 1:
        raise ValueError("parts must be positive")
    return [
        Monomial2(i, (n - a * i) // b)
        for i in range(n // a + 1)
        if (n - a * i) % b == 0
    ]


def _check_order(order: int) -> None:
    """An order must be nonnegative, and its order + 1 coefficients within SEMIGROUP_MAX_BOUND."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    check_size("series", order + 1, "coefficients")


def graded_dims(a: int, b: int, nmax: int) -> GradedDims:
    """Tabulate dim(E_n), dim(R_n), dim(K_n) for n = 0..nmax.

    dim(K_n) = dim(E_{n-ab}): the kernel is generated by x^b - y^a, of degree ab.
    dim(R_n) comes from the semigroup table, so rank-nullity is a real check.
    """
    _check_order(nmax)
    table = build_table(validate_pair(a, b))
    full = TruncatedSeries(nmax, _denumerants(a, b, nmax))
    ring = tuple(table.gap_indicator(nmax).translate(COMPLEMENT))
    return GradedDims(a, b, nmax, full.coefficients, ring, full.shift(a * b).coefficients)


def rank_nullity_check(a: int, b: int, nmax: int) -> bool:
    """dim(E_n) == dim(R_n) + dim(K_n) for every n up to nmax."""
    dims = graded_dims(a, b, nmax)
    return all(e == r + k for e, r, k in zip(dims.dim_full, dims.dim_ring, dims.dim_kernel))


def surjectivity_witness(a: int, b: int, n: int) -> Monomial2:
    """A monomial x^i y^j with a*i + b*j = n, for n in the semigroup."""
    validate_pair(a, b)
    basis = enumerate_basis(a, b, n)
    if not basis:
        raise ValueError(f"{n} is a gap of the semigroup generated by {a} and {b}")
    return basis[0]


def hilbert_series(which: str, a: int | None, b: int | None, order: int) -> TruncatedSeries:
    """Truncated expansion of one of the five closed-form Hilbert series.

    `which` is one of SERIES_KINDS; the pair (a, b) is ignored for the
    univariate and degree-graded series. The three pair kinds are the
    matching fields of graded_dims.
    """
    _check_order(order)
    if which == "univariate":
        return TruncatedSeries.geometric(1, order)
    if which == "full_ring_degree":
        # 1/(1-q)^2 = sum (n+1) q^n
        return TruncatedSeries(order, range(1, order + 2))
    if which not in SERIES_KINDS:
        raise ValueError(f"unknown series kind {which!r}")
    if a is None or b is None:
        raise ValueError(f"series kind {which!r} needs the pair (a, b)")
    dims = graded_dims(a, b, order)
    fields = {"full_ring_frobenius": dims.dim_full, "semigroup_ring": dims.dim_ring, "kernel": dims.dim_kernel}
    return TruncatedSeries(order, fields[which])


def euler_product_series(a: int, b: int, order: int) -> TruncatedSeries:
    """1 / ((1-q^a)(1-q^b)) truncated; no coprimality requirement."""
    if a < 1 or b < 1:
        raise ValueError("parts must be positive")
    _check_order(order)
    return TruncatedSeries(order, _denumerants(a, b, order))


def series_identity_check(a: int, b: int, order: int) -> bool:
    """H_E - q^ab H_E == 1/(1-q) - f_A up to q^order: the exact sequence against the gaps.

    The left side is the denumerant table, the right side the gap polynomial,
    so this shares no source with rank_nullity_check, which reads dim(R_n)
    from the Apery set. Requires order >= ab + 1 so f_A is fully visible.
    """
    A = validate_pair(a, b)
    ab = a * b
    if order < ab + 1:
        raise ValueError(f"order must be at least ab + 1 = {ab + 1}")
    _check_order(order)
    p = _denumerants(a, b, order)
    f = gap_polynomial(A)
    return all(p[n] - (p[n - ab] if n >= ab else 0) == 1 - f.coefficient(n) for n in range(order + 1))


def series_to_json(s: TruncatedSeries) -> dict:
    return {"order": s.order, "coefficients": list(s.coefficients)}
