"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Everything is exact-identity or oracle-equivalence based; there are no
numeric tolerances anywhere.
"""

import math
import operator
import random
from fractions import Fraction

from semialg import bivariate_algebra as biv
from semialg import graded_hilbert as gh
from semialg import semigroup_core as sc

from oracles import (
    bivariate_mul,
    dense_functional_equation,
    dense_reciprocal_duality,
    monomial_image,
    naive_is_symmetric,
    naive_members,
    partition_tally,
    poly_from_terms,
    sparse_add,
)


def coprime_pairs(lo, hi):
    return [
        (a, b)
        for a in range(lo, hi + 1)
        for b in range(a + 1, hi + 1)
        if math.gcd(a, b) == 1
    ]


def report(criterion, ok):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_sharp_sylvester_formulas():
    ok = True
    for a, b in coprime_pairs(2, 40):
        table = sc.build_table(sc.validate_generators([a, b]))
        ok &= table.frobenius == a * b - a - b
        ok &= table.genus == (a - 1) * (b - 1) // 2
    report("1 (Sharp-Sylvester closed forms, pairs up to 40)", ok)


def test_criterion_2_functional_equation():
    ok = True
    for a, b in coprime_pairs(2, 40):
        checks = gh.pair_checks(a, b)
        equation = checks["functional_equation"]
        ok &= equation and equation == dense_functional_equation(a, b)
        duality = checks["reciprocal_duality"]
        ok &= duality and duality == dense_reciprocal_duality(a, b)
    report("2 (functional equation + reciprocal duality, pairs up to 40)", ok)


def test_criterion_3_symmetry():
    ok = True
    for a, b in coprime_pairs(2, 40):
        table = sc.build_table(sc.validate_generators([a, b]))
        ok &= 2 * table.genus == table.frobenius + 1
        ok &= naive_is_symmetric((a, b))
    table = sc.build_table(sc.validate_generators([3, 4, 5]))
    ok &= 2 * table.genus != table.frobenius + 1
    ok &= not naive_is_symmetric((3, 4, 5))
    report("3 (two-generator symmetry against brute force; {3,4,5} is not symmetric)", ok)


def test_criterion_4_kernel_characterization():
    rng = random.Random(2024)

    def random_pair():
        while True:
            a, b = rng.randint(1, 9), rng.randint(1, 9)
            if a != b and math.gcd(a, b) == 1:
                return a, b

    def random_poly(max_terms=30, max_exp=12):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            m = (rng.randint(0, max_exp), rng.randint(0, max_exp))
            terms[m] = terms.get(m, 0) + Fraction(rng.randint(-100, 100), rng.randint(1, 100))
        return poly_from_terms(terms)

    ok = True
    for _ in range(100):
        a, b = random_pair()
        f = {(b, 0): 1, (0, a): -1}  # x^b - y^a
        g = random_poly()
        q, r = biv.divide(g, a, b)
        ok &= sparse_add(bivariate_mul(q.terms, f), r.terms) == g.terms
        ok &= biv.in_kernel(g, a, b, "evaluate") == biv.in_kernel(g, a, b, "divide")
        h = random_poly(max_terms=8, max_exp=6)
        multiple = poly_from_terms(bivariate_mul(h.terms, f))
        ok &= biv.in_kernel(multiple, a, b, "evaluate")
        ok &= biv.in_kernel(multiple, a, b, "divide")

    non_multiples = 0
    while non_multiples < 20:
        a, b = random_pair()
        g = random_poly()
        if monomial_image(g.terms, a, b) == {}:
            continue
        non_multiples += 1
        ok &= not biv.in_kernel(g, a, b, "evaluate")
        ok &= not biv.in_kernel(g, a, b, "divide")
    report("4 (kernel membership: both methods, multiples, non-multiples)", ok)


def test_criterion_5_rank_nullity_and_series_identity():
    ok = True
    for a, b in coprime_pairs(2, 30):
        checks = gh.pair_checks(a, b)
        ok &= checks["rank_nullity"] and checks["series_identity"]
    report("5 (rank-nullity and Hilbert series identity, pairs up to 30)", ok)


def test_criterion_6_euler_product():
    ok = True
    for a, b in [(3, 5), (2, 3), (4, 7), (5, 8)]:
        series = gh.hilbert_series("full_ring_frobenius", a, b, 500)
        ok &= tuple(series) == tuple(partition_tally(a, b, 500))
    report("6 (Euler product matches partition counts to order 500)", ok)


def test_criterion_7_conductor_bound_and_witnesses():
    rng = random.Random(77)
    ok = True
    for _ in range(50):
        k = rng.choice([2, 3, 4])
        while True:
            elements = sorted(rng.sample(range(2, 51), k))
            if math.gcd(*elements) == 1:
                break
        A = sc.validate_generators(elements)
        table = sc.build_table(A)
        bound = sc.conductor_bound(A)
        ok &= table.frobenius <= bound - 1
        ok &= [table.is_member(n) for n in range(table.bound + 1)] == naive_members(
            A.elements, table.bound
        )
        for n in [bound, bound + 1, bound + rng.randint(2, 1000)]:
            rep = sc.represent_from_table(n, table)
            ok &= rep is not None and sum(map(operator.mul, A.elements, rep)) == n
    report("7 (conductor bound, witnesses above it, DP vs brute force)", ok)
