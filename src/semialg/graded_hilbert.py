"""Graded dimensions, partition counts, truncated Hilbert series, and verify's pair checks.

Tabulated exactly up to a caller-chosen order: the denumerant p_{a,b}(n), the graded
dimensions of the weighted polynomial ring, the semigroup ring and the kernel ideal, and
the rank-nullity identity connecting them. verify's pair checks take no order: they compare
the Apery set with Sylvester's closed form, which settles every degree at once.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub

from .gap_polynomials import k_polynomial
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
        self.coefficients = tuple(coefficients)
        if len(self.coefficients) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients, got {len(self.coefficients)}")
        self.order = order

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

    def __str__(self) -> str:
        c = self.coefficients
        # the terms from q^2 on are joined 16,384 at a time, never one string per term at once
        blocks = (" + ".join(map("{}*q^{}".format, c[n : n + 16384], range(n, n + 16384)))
                  for n in range(2, len(c), 16384))
        return " + ".join([str(c[0]), *(f"{c1}*q" for c1 in c[1:2]), *blocks, f"O(q^{self.order + 1})"])

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order})"


def _denumerants(a: int, b: int, nmax: int) -> list[int]:
    """p_{a,b}(0..nmax), the coefficients of 1/((1-q^a)(1-q^b)), in O(nmax).

    p(n) = p(n - a) + [b | n]: the multiples of b, summed along each residue mod a.
    """
    p = [0] * (nmax + 1)
    p[::b] = [1] * (nmax // b + 1)
    for r in range(min(a, nmax + 1)):
        p[r::a] = accumulate(p[r::a])
    return p


def _kernel_dims(ab: int, full: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """dim K_n = dim E_{n-ab}: full behind ab zeros, ab the degree of x^b - y^a."""
    zeros = min(ab, len(full))
    return (0,) * zeros + tuple(full[: len(full) - zeros])


def _ring_dims(a: int, b: int, nmax: int) -> bytearray:
    """dim R_n for n = 0..nmax, one 0/1 byte each: the complement of the semigroup table's gap indicator."""
    return build_table(validate_pair(a, b)).gap_indicator(nmax).translate(COMPLEMENT)


def partition_count(a: int, b: int, n: int) -> int:
    """Number of (i, j) in N_0^2 with a*i + b*j = n. No coprimality needed."""
    if a < 1 or b < 1:
        raise ValueError("parts must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(1 for i in range(n // a + 1) if (n - a * i) % b == 0)


def check_order(order: int) -> None:
    """An order must be nonnegative, and its order + 1 coefficients within SEMIGROUP_MAX_BOUND."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    check_size("series", order + 1, "coefficients")


def graded_dims(a: int, b: int, nmax: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The tables (dim E_n, dim R_n, dim K_n) for n = 0..nmax, as three tuples: the denumerants,
    the complement of the semigroup table's gap indicator, and the denumerants behind ab zeros."""
    check_order(nmax)
    ring = tuple(_ring_dims(a, b, nmax))
    full = tuple(_denumerants(a, b, nmax))
    return full, ring, _kernel_dims(a * b, full)


def rank_nullity_failure(a: int, b: int, nmax: int) -> int | None:
    """The least n <= nmax with dim(E_n) != dim(R_n) + dim(K_n), or None if there is none.

    dim E_n - dim K_n is p(n) - p(n - ab), compared with dim R_n from the semigroup
    table. Read as power series, rank-nullity up to nmax is the series identity
    H_E - q^ab H_E = H_R = 1/(1-q) - f_A(q) up to q^nmax.
    """
    check_order(nmax)
    ring = _ring_dims(a, b, nmax)
    p = _denumerants(a, b, nmax)
    ab = a * b
    p[ab:] = map(sub, p[ab:], p)  # the map is read to its end before p changes
    if p == list(ring):  # one comparison of whole tables; only a failure is scanned
        return None
    return next(n for n, (d, r) in enumerate(zip(p, ring)) if d != r)


def _sylvester_apery(s: int, t: int) -> tuple[int, ...]:
    """Ap(<s, t>, s) = {0, t, ..., (s - 1)t} by residue r mod s, for coprime s < t (Sylvester).

    Entry r is the least n = r (mod s) with p(n) - p(n - st) = 1: s*i + t*j = n forces j = r/t mod s.
    """
    inverse = pow(t, -1, s)
    return tuple(t * (r * inverse % s) for r in range(s))


def pair_checks(a: int, b: int) -> dict[str, bool]:
    """The four checks of 0 -> E(-ab) -> E -> R -> 0 that `semialg verify a b` prints, by name.

    All read one table. As dim R_n = [n >= apery[n mod s]], the sequence holds in every degree, and
    as power series to every order, exactly when the Apery set is Sylvester's. K == 1 - q^ab is the
    functional equation cleared of denominators, as is its reciprocal q^ab K(1/q) = q^ab - 1.
    """
    table = build_table(validate_pair(a, b))
    exact = table.apery == _sylvester_apery(*table.generators.elements)
    functional_equation = k_polynomial(table) == {0: 1, a * b: -1}
    return {  # reciprocal_duality adds only the symmetry 2g = F + 1
        "functional_equation": functional_equation,
        "reciprocal_duality": functional_equation and 2 * table.genus == table.frobenius + 1,
        "series_identity": exact,
        "rank_nullity": exact,
    }


def hilbert_series(which: str, a: int | None, b: int | None, order: int) -> TruncatedSeries:
    """Truncated expansion of one of the five closed-form Hilbert series.

    `which` is one of SERIES_KINDS. The univariate and degree-graded series
    take no pair: a and b must be None there, and are needed for the other
    three. Only semigroup_ring builds the semigroup table, and it builds
    nothing else.
    """
    check_order(order)
    if which in ("univariate", "full_ring_degree"):
        if a is not None or b is not None:
            raise ValueError(f"series kind {which!r} takes no pair (a, b)")
        if which == "univariate":
            return TruncatedSeries.geometric(1, order)
        # 1/(1-q)^2 = sum (n+1) q^n
        return TruncatedSeries(order, range(1, order + 2))
    if which not in SERIES_KINDS:
        raise ValueError(f"unknown series kind {which!r}")
    if a is None or b is None:
        raise ValueError(f"series kind {which!r} needs the pair (a, b)")
    if which == "semigroup_ring":
        return TruncatedSeries(order, _ring_dims(a, b, order))
    validate_pair(a, b)
    full = _denumerants(a, b, order)
    return TruncatedSeries(order, full if which == "full_ring_frobenius" else _kernel_dims(a * b, full))


def series_to_json(s: TruncatedSeries) -> dict:
    return {"order": s.order, "coefficients": list(s.coefficients)}
