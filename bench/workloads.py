"""Seeded inputs for the three benchmark workloads.

A workload is one round of operations, each a `semialg` argv plus the
independent checker its JSON envelope must pass. The same seed gives the same
round. Every round has the same make-up whatever the seed: the seed picks the
numbers inside fixed size strata, so the cost mix, and the share of
operations that are expected to fail, do not depend on it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import checkers


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    # Checks the parsed "result" of the envelope; None for an expected refusal.
    check: Callable[[dict], None] | None

    @property
    def refused(self) -> bool:
        return self.check is None


# ------------------------------------------------------ semigroup-queries

# Table cells per generator set, as build_table sizes its table:
# conductor bound + max(A) + 1. Each k = 2, 3, 4 gets one set per target.
CELL_TARGETS = (100_000, 160_000, 250_000, 400_000)
CELL_TOLERANCE = 0.02

# Sets whose conductor-bound table exceeds the default SEMIGROUP_MAX_BOUND
# (10^7 cells) although F and the genus are small numbers. They are refused
# today with BoundTooLargeError; they do not depend on the seed.
OVER_CAP_SETS = ((3163, 3167), (2503, 2521, 2531))


def table_cells(generators) -> int:
    s = sorted(generators)
    return (s[-1] - 1) * sum(s[:-1]) + s[-1] + 1


def _generator_set(rng: random.Random, k: int, target: int) -> list[int]:
    top = math.isqrt(target // (k - 1))
    while True:
        gens = rng.sample(range(top // 2, top * 5 // 4), k)
        if math.gcd(*gens) == 1 and abs(table_cells(gens) - target) <= CELL_TOLERANCE * target:
            return gens


def semigroup_queries(rng: random.Random) -> list[Op]:
    ops = []
    for k in (2, 3, 4):
        for index, target in enumerate(CELL_TARGETS):
            gens = _generator_set(rng, k, target)
            args = tuple(str(a) for a in gens)
            if index % 2:
                witness = rng.randrange(2 * target)
                ops.append(Op(("frobenius", *args, "--witness", str(witness), "--json"),
                              partial(checkers.check_frobenius, gens, witness)))
            else:
                ops.append(Op(("frobenius", *args, "--json"),
                              partial(checkers.check_frobenius, gens, None)))
            ops.append(Op(("gaps", *args, "--json"), partial(checkers.check_gaps, gens)))
            ops.append(Op(("gap-poly", *args, "--json"), partial(checkers.check_gap_poly, gens)))
    for gens in OVER_CAP_SETS:
        ops.append(Op(("frobenius", *map(str, gens), "--json"), None))
    return ops


# ------------------------------------------------------- identity-verify

# Each operation costs about 30-60 ms today. The seed moves a pair's smaller
# member by at most one and picks the gap to the larger one, so the cost of
# a slot hardly depends on the seed.
VERIFY_PAIRS_FROM = tuple(range(28, 36))
RANK_NULLITY_PAIRS_FROM = tuple(range(36, 42))
SWEEP_BOUNDS = (11, 12)
# (smallest weight, lowest order) for the two-weight series kinds: the
# dense product 1/(1-q^a) * 1/(1-q^b) costs about order^2 / a.
SERIES_SLOTS = ((3, 1600), (5, 2400))


def _pair(rng: random.Random, a: int, max_gap: int = 3) -> tuple[int, int]:
    """(a, b) with a < b <= a + max_gap and gcd(a, b) = 1."""
    while True:
        b = a + rng.randint(1, max_gap)
        if math.gcd(a, b) == 1:
            return a, b


def identity_verify(rng: random.Random) -> list[Op]:
    ops = []
    for a_from in VERIFY_PAIRS_FROM:
        a, b = _pair(rng, a_from + rng.randint(0, 1))
        ops.append(Op(("verify", str(a), str(b), "--json"), partial(checkers.check_verify_pair, a, b)))
    for bound in SWEEP_BOUNDS:
        ops.append(Op(("verify", "--sweep", str(bound), "--json"),
                      partial(checkers.check_verify_sweep, bound)))
    for a_from in RANK_NULLITY_PAIRS_FROM:
        a, b = _pair(rng, a_from + rng.randint(0, 1))
        ops.append(Op(("rank-nullity", str(a), str(b), "--json"),
                      partial(checkers.check_rank_nullity, a, b)))
    for order in (800, 850):
        order += rng.randint(0, 50)
        ops.append(Op(("hilbert", "full_ring_degree", "-", "-", str(order), "--json"),
                      partial(checkers.check_hilbert, "full_ring_degree", None, None, order)))
    for order in (1500, 2500):
        order += rng.randint(0, 100)
        ops.append(Op(("hilbert", "univariate", "-", "-", str(order), "--json"),
                      partial(checkers.check_hilbert, "univariate", None, None, order)))
    for a_from, order_from in SERIES_SLOTS:
        for which in ("full_ring_frobenius", "kernel", "semigroup_ring"):
            a, b = _pair(rng, a_from, max_gap=6)
            order = order_from + rng.randint(0, 300)
            ops.append(Op(("hilbert", which, str(a), str(b), str(order), "--json"),
                          partial(checkers.check_hilbert, which, a, b, order)))
    return ops


# -------------------------------------------------------- kernel-division

# Terms per expression. A non-member costs about 2.5 times a member of the
# same size, so members are larger and every operation costs 30-80 ms today.
MEMBER_TERMS = (180, 200, 220, 240, 260, 280)
NON_MEMBER_TERMS = (110, 120, 130, 140, 150, 160)


def _coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.choice((1, 1, 1, 2, 3, 4))) * rng.choice((1, -1))


def _member(rng: random.Random, size: int, a: int, b: int) -> dict:
    """h*(x^b - y^a) for a random h with size/2 terms; every division step is a quotient step."""
    h = {}
    while len(h) < size // 2:
        h[(rng.randint(0, 24), rng.randint(0, 24))] = _coefficient(rng)
    return {m: c for m, c in checkers.times_divisor(h, a, b).items() if c != 0}


def _non_member(rng: random.Random, size: int, a: int, b: int) -> dict:
    """Random terms, four in five with x-degree below b, so most steps are remainder steps."""
    while True:
        g = {}
        while len(g) < size - size // 5:
            g[(rng.randrange(b), rng.randint(0, 120))] = _coefficient(rng)
        while len(g) < size:
            g[(rng.randint(b, 2 * b - 1), rng.randint(0, 120))] = _coefficient(rng)
        if not checkers.image_is_zero(g, a, b):
            return g


def format_expression(terms: dict, rng: random.Random) -> str:
    """Write terms as `3*x^2*y - 1/2*y^4 + 7`, in a shuffled order."""
    items = list(terms.items())
    rng.shuffle(items)
    out = []
    for (i, j), c in items:
        mono = "*".join(
            part
            for part in (
                ("x" if i == 1 else f"x^{i}") if i else "",
                ("y" if j == 1 else f"y^{j}") if j else "",
            )
            if part
        )
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        if out:
            out.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            out.append(f"-{body}" if c < 0 else body)
    return " ".join(out)


def kernel_division(rng: random.Random) -> list[Op]:
    ops = []
    for build, sizes in ((_member, MEMBER_TERMS), (_non_member, NON_MEMBER_TERMS)):
        for size in sizes:
            a, b = _pair(rng, rng.randint(2, 7), max_gap=5)
            terms = build(rng, size, a, b)
            expr = format_expression(terms, rng)
            ops.append(Op(("divide", expr, str(a), str(b), "--json"),
                          partial(checkers.check_divide, terms, a, b)))
            ops.append(Op(("kernel", expr, str(a), str(b), "--json"),
                          partial(checkers.check_kernel, terms, a, b)))
    return ops


WORKLOADS = {
    "semigroup-queries": semigroup_queries,
    "identity-verify": identity_verify,
    "kernel-division": kernel_division,
}


def build_round(workload: str, seed: int) -> list[Op]:
    """One round of the workload's operations, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return ops
