"""Independent checkers for the JSON envelopes that `semialg --json` prints.

Nothing here imports semialg. Each checker recomputes the expected answer by
a different route than the library takes and raises CheckFailed on the first
disagreement:

- semigroups: the Apery set Ap(S, a1), computed as shortest paths over the
  residues mod a1 (Nijenhuis 1979), gives F, the genus and every gap
  (n is a gap iff n < Ap[n mod a1]); two-generator sets are also held to
  Sharp-Sylvester, F = ab - a - b and g = (a - 1)(b - 1)/2;
- Hilbert series: the denumerant recurrence p(n) = p(n - b) + [a | n];
- lex division by x^b - y^a: the binomial normal form
  x^i y^j -> x^(i mod b) y^(j + a*floor(i/b)), and the exact identity
  g = q*(x^b - y^a) + r in Fractions.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction


class CheckFailed(Exception):
    """An envelope disagrees with the independent computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _require_keys(result: dict, keys: set[str]) -> None:
    _require(set(result) == keys, f"result keys {sorted(result)} != {sorted(keys)}")


# --------------------------------------------------------------- semigroups


def apery_set(generators) -> list[int]:
    """Ap[r] = least element of S(generators) congruent to r mod min(generators).

    Dijkstra over the residues mod a1, with one edge of weight a per generator.
    Requires gcd(generators) == 1, so that every residue is reached.
    """
    a1 = min(generators)
    dist: list[int | None] = [None] * a1
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d > dist[r]:
            continue
        for a in generators:
            s, nd = (r + a) % a1, d + a
            if dist[s] is None or nd < dist[s]:
                dist[s] = nd
                heapq.heappush(heap, (nd, s))
    _require(all(w is not None for w in dist), f"gcd{tuple(generators)} != 1")
    return dist


class SemigroupFacts:
    """F, genus and gaps of S(A), all read off the Apery set."""

    def __init__(self, generators):
        self.generators = sorted(set(generators))
        self.a1 = self.generators[0]
        self.apery = apery_set(self.generators)
        self.frobenius = max(self.apery) - self.a1
        self.genus = sum(w // self.a1 for w in self.apery)
        if len(self.generators) == 2:
            a, b = self.generators
            _require(
                self.frobenius == a * b - a - b and self.genus == (a - 1) * (b - 1) // 2,
                f"Apery set of {{{a}, {b}}} contradicts Sharp-Sylvester",
            )

    def contains(self, n: int) -> bool:
        return n >= 0 and n >= self.apery[n % self.a1]

    def gaps(self) -> list[int]:
        return sorted(n for r, w in enumerate(self.apery) for n in range(r, w, self.a1))


def check_frobenius(raw: list[int], witness: int | None, result: dict) -> None:
    facts = SemigroupFacts(raw)
    keys = {"generators", "frobenius", "genus", "gap_count"}
    _require_keys(result, keys | ({"witness"} if witness is not None else set()))
    _require(result["generators"] == facts.generators, f"generators {result['generators']}")
    _require(result["frobenius"] == facts.frobenius, f"frobenius {result['frobenius']} != {facts.frobenius}")
    _require(result["genus"] == facts.genus, f"genus {result['genus']} != {facts.genus}")
    _require(result["gap_count"] == facts.genus, f"gap_count {result['gap_count']} != {facts.genus}")
    if witness is None:
        return
    r = result["witness"]
    if not facts.contains(witness):
        _require(r is None, f"{witness} is not in S, witness {r} is not null")
        return
    _require(
        isinstance(r, list) and len(r) == len(facts.generators)
        and all(isinstance(c, int) and c >= 0 for c in r),
        f"witness {r} is not a list of {len(facts.generators)} non-negative integers",
    )
    total = sum(a * c for a, c in zip(facts.generators, r))
    _require(total == witness, f"witness {r} represents {total}, not {witness}")


def check_gaps(raw: list[int], result: dict) -> None:
    facts = SemigroupFacts(raw)
    _require_keys(result, {"generators", "gaps", "genus"})
    _require(result["generators"] == facts.generators, f"generators {result['generators']}")
    _require(result["genus"] == facts.genus, f"genus {result['genus']} != {facts.genus}")
    _require(result["gaps"] == facts.gaps(), "gap list differs from the Apery-set gaps")


def check_gap_poly(raw: list[int], result: dict) -> None:
    facts = SemigroupFacts(raw)
    _require_keys(result, {"generators", "terms"})
    _require(result["generators"] == facts.generators, f"generators {result['generators']}")
    expected = [[n, 1] for n in facts.gaps()]
    _require(result["terms"] == expected, "gap-poly terms differ from the Apery-set gaps")


# ----------------------------------------------------- identities and series


def coprime_pairs(bound: int) -> int:
    """Number of coprime pairs 2 <= a < b <= bound."""
    return sum(
        1 for a in range(2, bound + 1) for b in range(a + 1, bound + 1) if math.gcd(a, b) == 1
    )


def check_verify_pair(a: int, b: int, result: dict) -> None:
    # All four identities are theorems for a coprime pair, so each must pass.
    names = {"functional_equation", "reciprocal_duality", "series_identity", "rank_nullity"}
    _require_keys(result, names)
    failed = sorted(name for name in names if result[name] is not True)
    _require(not failed, f"verify {a} {b}: {failed} did not PASS")


def check_verify_sweep(bound: int, result: dict) -> None:
    pairs = coprime_pairs(bound)
    _require(
        result == {"sweep": bound, "pairs": pairs, "passed": pairs},
        f"sweep {bound}: {result} != {pairs} pairs all passed",
    )


def check_rank_nullity(a: int, b: int, result: dict) -> None:
    expected = {"a": a, "b": b, "order": 3 * a * b, "holds": True}
    _require(result == expected, f"rank-nullity {a} {b}: {result} != {expected}")


def denumerants(a: int, b: int, order: int) -> list[int]:
    """p(n) = #{(i, j) >= 0 : a*i + b*j = n} for n = 0..order, by p(n) = p(n-b) + [a | n]."""
    p = [0] * (order + 1)
    for n in range(order + 1):
        p[n] = (p[n - b] if n >= b else 0) + (1 if n % a == 0 else 0)
    return p


def series_coefficients(which: str, a: int | None, b: int | None, order: int) -> list[int]:
    if which == "univariate":
        return [1] * (order + 1)
    if which == "full_ring_degree":
        return [n + 1 for n in range(order + 1)]
    p = denumerants(a, b, order)
    if which == "full_ring_frobenius":
        return p
    if which == "kernel":
        return [p[n - a * b] if n >= a * b else 0 for n in range(order + 1)]
    if which == "semigroup_ring":
        return [1 if c > 0 else 0 for c in p]
    raise ValueError(f"unknown series kind {which!r}")


def check_hilbert(which: str, a: int | None, b: int | None, order: int, result: dict) -> None:
    _require_keys(result, {"which", "a", "b", "order", "coefficients"})
    _require(
        (result["which"], result["a"], result["b"], result["order"]) == (which, a, b, order),
        f"hilbert header {result['which']} {result['a']} {result['b']} {result['order']}",
    )
    expected = series_coefficients(which, a, b, order)
    got = result["coefficients"]
    _require(len(got) == order + 1, f"{len(got)} coefficients, expected {order + 1}")
    n = next((n for n, (c, e) in enumerate(zip(got, expected)) if c != e), None)
    _require(n is None, f"{which}: coefficient of q^{n} differs from the denumerant recurrence")


# ------------------------------------------------------- bivariate division


def normal_form(terms: dict, a: int, b: int) -> dict:
    """Remainder of lex division by x^b - y^a: x^i y^j -> x^(i mod b) y^(j + a*(i // b))."""
    out: dict = {}
    for (i, j), c in terms.items():
        key = (i % b, j + a * (i // b))
        out[key] = out.get(key, 0) + c
    return {m: c for m, c in out.items() if c != 0}


def image_is_zero(terms: dict, a: int, b: int) -> bool:
    """True iff every weighted-degree coefficient sum of g(t^a, t^b) vanishes."""
    sums: dict[int, Fraction] = {}
    for (i, j), c in terms.items():
        sums[a * i + b * j] = sums.get(a * i + b * j, 0) + c
    return all(c == 0 for c in sums.values())


def _terms_from_json(triples, what: str) -> dict:
    out: dict = {}
    previous = None
    for triple in triples:
        _require(isinstance(triple, list) and len(triple) == 3, f"{what}: bad term {triple}")
        i, j, c = triple
        _require(isinstance(c, (int, str)), f"{what}: bad coefficient {c!r}")
        coeff = Fraction(c)
        _require(coeff != 0, f"{what}: zero coefficient at x^{i} y^{j}")
        _require(previous is None or (i, j) < previous, f"{what}: terms not in lex-descending order")
        previous = (i, j)
        out[(i, j)] = coeff
    return out


def times_divisor(q: dict, a: int, b: int) -> dict:
    """q*(x^b - y^a), zero coefficients kept."""
    out: dict = {}
    for (i, j), c in q.items():
        out[(i + b, j)] = out.get((i + b, j), 0) + c
        out[(i, j + a)] = out.get((i, j + a), 0) - c
    return out


def check_divide(terms: dict, a: int, b: int, result: dict) -> None:
    _require_keys(result, {"quotient", "remainder", "in_kernel"})
    q = _terms_from_json(result["quotient"], "quotient")
    r = _terms_from_json(result["remainder"], "remainder")
    _require(r == normal_form(terms, a, b), "remainder differs from the binomial normal form")
    rebuilt = times_divisor(q, a, b)
    for m, c in r.items():
        rebuilt[m] = rebuilt.get(m, 0) + c
    rebuilt = {m: c for m, c in rebuilt.items() if c != 0}
    _require(rebuilt == terms, "q*(x^b - y^a) + r does not equal the dividend")
    member = image_is_zero(terms, a, b)
    _require(
        result["in_kernel"] == {"evaluate": member, "divide": member},
        f"in_kernel {result['in_kernel']}, expected {member} by both methods",
    )


def check_kernel(terms: dict, a: int, b: int, result: dict) -> None:
    member = image_is_zero(terms, a, b)
    _require(
        result == {"evaluate": member, "divide": member},
        f"kernel verdicts {result}, expected {member} by both methods",
    )
