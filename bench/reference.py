"""A fixed pure-Python task that tells how fast the host runs Python right now.

On a host shared with other tenants, the speed at which one process runs
Python wanders with their load: on two cores of such a host the same round of
operations took anywhere from 0.6 s to 1.2 s within two minutes, in CPU time
as well as in wall time. The reference task is timed right beside every
operation, and each operation's time is scaled by NOMINAL_S / (the task's
time there). Scaled times read as if the host ran at the fixed speed at
which the task takes NOMINAL_S, so the drift of the host cancels while a
change to semialg moves the scaled times by the same share as the raw ones:
the task does not call semialg.

The task mixes the kinds of work semialg does: a membership sweep over a
list (semigroup tables), products of dense integer lists (series and
polynomials) and a dict of monomials with Fraction coefficients (bivariate
division).
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The task's median time on the reference host (Python 3.11.7, nproc 2).
# Any fixed value would do: it sets the speed that scaled times refer to.
NOMINAL_S = 0.0025


def task() -> int:
    member = [False] * 4000
    member[0] = True
    for n in range(4000):
        if member[n]:
            for a in (7, 11, 13):
                if n + a < 4000:
                    member[n + a] = True
    left = [n % 5 - 2 for n in range(60)]
    right = [n % 7 - 3 for n in range(60)]
    product = [0] * 119
    for i, u in enumerate(left):
        for j, v in enumerate(right):
            product[i + j] += u * v
    terms: dict[tuple[int, int], Fraction] = {}
    for k in range(300):
        key = (k % 9, k % 13)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(k % 7 + 1, k % 4 + 1)
    return sum(member) + sum(product) + len(terms)


def time_task() -> float:
    """Seconds of one run of the task."""
    start = time.perf_counter()
    task()
    return time.perf_counter() - start


def scale(repeats: int) -> float:
    """NOMINAL_S over the median time of a few runs of the task, now."""
    return NOMINAL_S / statistics.median(time_task() for _ in range(repeats))
