"""Numerical semigroups: Apery sets, membership, gaps, Frobenius number, genus.

All arithmetic is exact (Python ints). Every object is immutable after
construction and every function is pure, so everything here is safe to use
from multiple threads.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

DEFAULT_MAX_BOUND = 10**7


class NotNumericalSemigroupError(ValueError):
    """Raised when gcd(A) != 1, so S(A) is not a numerical semigroup."""

    def __init__(self, gcd_value: int):
        self.gcd = gcd_value
        super().__init__(f"gcd(A)={gcd_value}, not a numerical semigroup")


class BoundTooLargeError(ValueError):
    """Raised when a table or series would exceed SEMIGROUP_MAX_BOUND."""


def check_size(what: str, size: int, unit: str) -> None:
    """Raise BoundTooLargeError when size exceeds SEMIGROUP_MAX_BOUND (default 10^7).

    The cap is read from the environment at each call; ValueError if it is not an integer.
    """
    raw = os.environ.get("SEMIGROUP_MAX_BOUND")
    try:
        cap = DEFAULT_MAX_BOUND if raw is None else int(raw)
    except ValueError:
        raise ValueError(f"SEMIGROUP_MAX_BOUND must be an integer, got {raw!r}") from None
    if size > cap:
        raise BoundTooLargeError(f"{what} of {size} {unit} exceeds SEMIGROUP_MAX_BOUND={cap}")


class GeneratorSet(NamedTuple):
    """A validated set of positive integer generators with gcd 1, sorted ascending."""

    elements: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.elements)


class SemigroupTable(NamedTuple):
    """S(A) described by its Apery set with respect to a1 = min(A).

    apery[r] is the least element of S(A) congruent to r mod a1, so n is in
    S(A) iff n >= apery[n % a1]. frobenius is -1 when S(A) has no gaps
    (i.e. 1 is a generator). bound is conductor_bound(A), kept as the size
    measure SEMIGROUP_MAX_BOUND is checked against.
    """

    generators: GeneratorSet
    bound: int
    apery: tuple[int, ...]
    frobenius: int
    genus: int
    # index of the generator on the last step of a shortest path to each
    # residue, for witness backtrace; apery[0] = 0 has no step (-1)
    via: tuple[int, ...]

    def is_member(self, n: int) -> bool:
        # negative n never passes: apery values are nonnegative
        return n >= self.apery[n % len(self.apery)]

    def gap_indicator(self, nmax: int) -> bytearray:
        """1 at each gap in 0..nmax, 0 at each member; nmax may lie below F, and -1 gives b"".

        The one place the Apery set is laid over a range: the gaps congruent
        to r are r, r + a1, ..., apery[r] - a1, set by one slice per residue.
        """
        a1 = len(self.apery)
        # clip the residue classes at nmax only where F lies past it
        ends = self.apery if nmax >= self.frobenius else [min(w, nmax + 1) for w in self.apery]
        is_gap = bytearray(nmax + 1)
        for r, end in enumerate(ends):
            is_gap[r:end:a1] = b"\x01" * -((r - end) // a1)  # ceil((end - r) / a1) ones
        return is_gap


# bytes.translate table swapping 0 and 1: a gap indicator becomes a membership indicator
COMPLEMENT = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def validate_generators(raw: list[int]) -> GeneratorSet:
    """Sort and deduplicate a raw generator list; NotNumericalSemigroupError if gcd(A) != 1."""
    if not raw:
        raise ValueError("generator set must be nonempty")
    for a in raw:
        if a <= 0:
            raise ValueError(f"generators must be positive, got {a}")
    elements = tuple(sorted(set(raw)))
    gcd = math.gcd(*elements)
    if gcd != 1:
        raise NotNumericalSemigroupError(gcd)
    return GeneratorSet(elements)


def validate_pair(a: int, b: int) -> GeneratorSet:
    """{a, b} for the two-generator identities: distinct, both at least 2, coprime.

    A generator 1 leaves S(A) without gaps, so f_A is zero and has no degree.
    """
    if a == b:
        raise ValueError(f"pair must be distinct, got a = b = {a}")
    if a < 2 or b < 2:
        raise ValueError("both pair members must be at least 2")
    if math.gcd(a, b) != 1:
        raise ValueError(f"gcd({a},{b}) = {math.gcd(a, b)} != 1")
    return validate_generators([a, b])


def conductor_bound(A: GeneratorSet) -> int:
    """The explicit threshold (a_k - 1) * sum(a_1..a_{k-1}).

    Every n at or above this value has a nonnegative representation, so the
    Frobenius number is at most conductor_bound(A) - 1.
    """
    return (A.elements[-1] - 1) * sum(A.elements[:-1])


def build_table(A: GeneratorSet) -> SemigroupTable:
    """Apery set of S(A) by round-robin shortest paths over residues mod a1.

    Residue r is a node; generator a_i is an edge r -> (r + a_i) mod a1 of
    weight a_i, and apery[r] is the shortest distance from 0. Each generator
    is added in one pass around every cycle it induces on the residues,
    starting from the cycle's minimum, which is final (Boecker & Liptak,
    2007). Time O(k * a1), memory O(a1).
    """
    bound = conductor_bound(A)
    check_size("table", bound + max(A.elements) + 1, "cells")

    a1 = A.elements[0]
    dist = [math.inf] * a1
    via = [-1] * a1
    dist[0] = 0
    for idx in range(1, A.k):
        a = A.elements[idx]
        d = math.gcd(a1, a)
        for p in range(d):
            r = min(range(p, a1, d), key=dist.__getitem__)
            for _ in range(a1 // d - 1):
                nxt = (r + a) % a1
                if dist[r] + a < dist[nxt]:
                    dist[nxt] = dist[r] + a
                    via[nxt] = idx
                r = nxt

    apery = tuple(dist)
    return SemigroupTable(
        generators=A,
        bound=bound,
        apery=apery,
        frobenius=max(apery) - a1,
        genus=sum(w // a1 for w in apery),
        via=tuple(via),
    )


def is_symmetric(A: GeneratorSet) -> bool:
    """True iff n not in S(A) implies F(A) - n in S(A).

    n -> F - n maps the members below F into the gaps, so F + 1 - g <= g, with
    equality iff S(A) is symmetric (Rosales & Garcia-Sanchez, Numerical
    Semigroups, 2009). Gap-free semigroups are symmetric by vacuity: g = 0, F = -1.
    """
    table = build_table(A)
    return 2 * table.genus == table.frobenius + 1


def represent_from_table(n: int, table: SemigroupTable) -> tuple[int, ...] | None:
    """Coefficients r_i >= 0 with sum(a_i * r_i) = n over the table's generators, or None for a gap.

    n = apery[r] + t * a1 with r = n mod a1; apery[r] is spelled out by
    walking its shortest path back to residue 0, which visits each residue
    at most once. The cost is O(k + a1) whatever the size of n.
    """
    if not table.is_member(n):
        return None
    A = table.generators
    a1 = A.elements[0]
    r = n % a1
    coeffs = [0] * A.k
    coeffs[0] = (n - table.apery[r]) // a1
    while r:
        idx = table.via[r]
        coeffs[idx] += 1
        r = (r - A.elements[idx]) % a1
    return tuple(coeffs)
