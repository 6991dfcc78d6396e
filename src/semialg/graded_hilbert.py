"""Graded dimensions, partition counts, truncated Hilbert series, and the exact sequence.

Tabulated exactly up to a caller-chosen order: the denumerant p_{a,b}(n) and the graded
dimensions of the weighted polynomial ring, the semigroup ring and the kernel ideal.
rank-nullity and verify read the exact sequence connecting them off one comparison of the
Apery set with Sylvester's closed form, which settles every degree at once.
"""

from __future__ import annotations

from itertools import repeat
from operator import add

from .semigroup_core import COMPLEMENT, SemigroupTable, build_table, check_size, validate_pair

SERIES_KINDS = (
    "full_ring_degree",
    "full_ring_frobenius",
    "semigroup_ring",
    "kernel",
    "univariate",
)

_RAMP = bytes(range(256)) * 2  # _RAMP[t : t + 256] is the translate table adding t to a byte below 256 - t


class TruncatedSeries:
    """Exact integer coefficients c_0..c_N of a formal power series mod q^{N+1}, bench-only.

    No code in semialg builds one: hilbert_series returns plain coefficient
    sequences. The class and its product stay because bench/tracing.py patches
    TruncatedSeries.__mul__ by name.
    """

    __slots__ = ("order", "coefficients")

    def __init__(self, order: int, coefficients):
        self.coefficients = tuple(coefficients)
        if len(self.coefficients) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients, got {len(self.coefficients)}")
        self.order = order

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


def _denumerants(a: int, b: int, nmax: int) -> bytearray | list[int]:
    """p_{a,b}(0..nmax), the coefficients of 1/((1-q^a)(1-q^b)), for a coprime pair; empty for nmax < 0.

    The exact sequence 0 -> E(-ab) -> E -> R -> 0 gives H_E = H_R / (1 - q^ab), and
    every n >= ab lies in S(a, b), so p(n) = n // ab + [n mod ab in S]. The members
    below ab are j*t + i*s with j < s, (s, t) the sorted pair: min(s, N/t + 1) slices,
    one per j*t, lay them into a bytearray, and translates by _RAMP double it, since
    p(n + c*ab) = p(n) + c. Every p(n) with n < 255ab fits a byte: up to that nmax,
    at most 8 translates reach it and the bytearray is the return value. Past it, 7
    reach the period 128ab, and one C-level map per period adds the lift to a list
    of ints: N/(128ab) maps.
    """
    s, t = sorted((a, b))
    ab, size = a * b, nmax + 1
    top = size if size <= 255 * ab else 128 * ab  # the length of the bytearray
    block = bytearray(max(0, min(ab, size)))
    for start in range(0, len(block), t):
        block[start::s] = b"\1" * len(range(start, len(block), s))
    for shift in (1, 2, 4, 8, 16, 32, 64, 128):  # the block holds p(0..shift*ab - 1) before each
        if len(block) >= top:
            break
        block += block[: top - len(block)].translate(_RAMP[shift : shift + 256])
    if top == size:
        return block
    p = list(block)
    for base in range(128 * ab, size, 128 * ab):  # the block is the whole period here
        p += map(add, block[: size - base], repeat(base // ab))
    return p


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
    kernel = (0,) * min(a * b, nmax + 1) + full  # dim K_n = p(n - ab), ab the degree of x^b - y^a
    return full, ring, kernel[: nmax + 1]


def _sylvester_apery(s: int, t: int) -> tuple[int, ...]:
    """Ap(<s, t>, s) = {0, t, ..., (s - 1)t} by residue r mod s, for coprime s < t (Sylvester).

    Entry r is the least n = r (mod s) with p(n) - p(n - st) = 1: s*i + t*j = n forces j = r/t mod s.
    """
    inverse = pow(t, -1, s)
    return tuple(t * (r * inverse % s) for r in range(s))


def _first_failure(table: SemigroupTable) -> int | None:
    """The least n with dim E_n != dim R_n + dim K_n for the pair of table, or None if there is none.

    In class r mod s, dim R_n = [n >= apery[r]] and dim E_n - dim K_n = [n >= sylvester[r]].
    """
    apery, sylvester = table.apery, _sylvester_apery(*table.generators.elements)
    # a class whose thresholds differ fails from the lower one on; passing is one tuple comparison
    return None if apery == sylvester else min(min(w, v) for w, v in zip(apery, sylvester) if w != v)


def rank_nullity_failure(a: int, b: int, nmax: int) -> int | None:
    """The least n <= nmax with dim(E_n) != dim(R_n) + dim(K_n), or None: one table, any nmax.

    Read as power series, that is where H_E - q^ab H_E = H_R = 1/(1-q) - f_A(q) first fails.
    """
    pair = validate_pair(a, b)  # first: a bad pair also makes a bad default order, 3ab
    if nmax < 0:
        raise ValueError("truncation order must be nonnegative")
    n = _first_failure(build_table(pair))
    return n if n is not None and n <= nmax else None


def k_polynomial(table: SemigroupTable) -> dict[int, int]:
    """K(q) = N(q) * prod_{i>=2} (1 - q^{a_i}) as {exponent: nonzero coefficient}.

    N(q) = sum of q^w over the Apery set, so H_R(q) = N(q) / (1 - q^{a1}) and
    K is the numerator of H_R over prod (1 - q^{a_i}): F = max(K) - sum(A).
    For a pair it is 1 - q^ab, the exact sequence 0 -> E(-ab) -> E -> R -> 0.
    One dict pass per generator after the first; at most 2^(k-1) * a1 terms.
    """
    terms = dict.fromkeys(table.apery, 1)  # distinct residues mod a1, so distinct exponents
    for a in table.generators.elements[1:]:
        product = dict(terms)  # terms * (1 - q^a)
        for e, c in terms.items():
            d = product.get(e + a, 0) - c
            if d:
                product[e + a] = d
            else:
                del product[e + a]
        terms = product
    return terms


def pair_checks(a: int, b: int) -> dict[str, bool]:
    """The four checks of 0 -> E(-ab) -> E -> R -> 0 that `semialg verify a b` prints, by name.

    All read one table: the sequence in every degree is its Apery set against Sylvester's, and
    K == 1 - q^ab the functional equation cleared of denominators, as is q^ab K(1/q) = q^ab - 1.
    """
    table = build_table(validate_pair(a, b))
    exact = _first_failure(table) is None
    functional_equation = k_polynomial(table) == {0: 1, a * b: -1}
    return {  # reciprocal_duality adds only the symmetry 2g = F + 1
        "functional_equation": functional_equation,
        "reciprocal_duality": functional_equation and 2 * table.genus == table.frobenius + 1,
        "series_identity": exact,
        "rank_nullity": exact,
    }


def hilbert_series(which: str, a: int | None, b: int | None, order: int) -> bytes | range | tuple[int, ...]:
    """The coefficients c_0..c_order of one of the five closed-form Hilbert series.

    The sequence is the one the closed form builds, never copied into ints:
    bytes for univariate and semigroup_ring, and for full_ring_frobenius below
    order 255ab and kernel below 256ab, where _denumerants returns bytes;
    range(1, order + 2) for full_ring_degree; a tuple for the two denumerant
    kinds past that byte range. `which` is one of SERIES_KINDS. The
    univariate and degree-graded series take no pair: a and b must be None
    there, and are needed for the other three. Only semigroup_ring builds the
    semigroup table, and it builds nothing else.
    """
    check_order(order)
    if which in ("univariate", "full_ring_degree"):
        if a is not None or b is not None:
            raise ValueError(f"series kind {which!r} takes no pair (a, b)")
        if which == "univariate":
            return b"\1" * (order + 1)
        # 1/(1-q)^2 = sum (n+1) q^n
        return range(1, order + 2)
    if which not in SERIES_KINDS:
        raise ValueError(f"unknown series kind {which!r}")
    if a is None or b is None:
        raise ValueError(f"series kind {which!r} needs the pair (a, b)")
    if which == "semigroup_ring":
        return bytes(_ring_dims(a, b, order))
    validate_pair(a, b)
    # dim K_n = p(n - ab): no p past order - ab is built, and the kernel's zeros go in front, in place
    p = _denumerants(a, b, order if which == "full_ring_frobenius" else order - a * b)
    p[:0] = bytes(order + 1 - len(p))
    return bytes(p) if isinstance(p, bytearray) else tuple(p)
