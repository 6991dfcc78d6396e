"""Tests of the benchmark's own code: checkers, inputs and tracer.

Run with `python3 -m pytest bench`. The checkers are held to brute force on
small inputs, must accept what semialg prints, and must reject an answer
with one thing corrupted.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import checkers
import reference
import run
import tracing
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import semialg  # noqa: E402
from semialg import bivariate_algebra, cli, gap_polynomials, graded_hilbert, semigroup_core  # noqa: E402


def run_cli(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*argv, "--json"]) == 0
    return json.loads(out.getvalue())["result"]


def brute_members(generators, limit):
    member = [False] * (limit + 1)
    member[0] = True
    for n in range(1, limit + 1):
        member[n] = any(n >= a and member[n - a] for a in generators)
    return member


def small_sets():
    rng = random.Random(7)
    sets = [[3, 5], [2, 3], [5, 7, 9], [4, 6, 9, 11], [1, 4]]
    while len(sets) < 25:
        gens = rng.sample(range(2, 30), rng.randint(2, 4))
        if math.gcd(*gens) == 1:
            sets.append(gens)
    return sets


# ------------------------------------------------------------ semigroups


@pytest.mark.parametrize("gens", small_sets())
def test_apery_facts_match_brute_force(gens):
    facts = checkers.SemigroupFacts(gens)
    limit = max(gens) ** 2 + 1
    member = brute_members(gens, limit)
    gaps = [n for n in range(limit + 1) if not member[n]]
    assert facts.gaps() == gaps
    assert facts.genus == len(gaps)
    assert facts.frobenius == (gaps[-1] if gaps else -1)
    assert all(facts.contains(n) == member[n] for n in range(limit + 1))
    assert not facts.contains(-1)


@pytest.mark.parametrize("gens", small_sets())
def test_semigroup_checkers_accept_semialg(gens):
    args = [str(a) for a in gens]
    for witness in (0, 1, max(gens) + 1, 1000):
        checkers.check_frobenius(gens, witness, run_cli("frobenius", *args, "--witness", str(witness)))
    checkers.check_frobenius(gens, None, run_cli("frobenius", *args))
    checkers.check_gaps(gens, run_cli("gaps", *args))
    checkers.check_gap_poly(gens, run_cli("gap-poly", *args))


def test_semigroup_checkers_reject_corruption():
    gens = [5, 7, 9]
    good = run_cli("frobenius", "5", "7", "9", "--witness", "23")
    with pytest.raises(checkers.CheckFailed):
        checkers.check_frobenius(gens, 23, {**good, "frobenius": good["frobenius"] + 1})
    with pytest.raises(checkers.CheckFailed):
        checkers.check_frobenius(gens, 23, {**good, "genus": good["genus"] - 1})
    r = good["witness"]
    with pytest.raises(checkers.CheckFailed):
        checkers.check_frobenius(gens, 23, {**good, "witness": [r[0] + 1, *r[1:]]})
    with pytest.raises(checkers.CheckFailed):
        checkers.check_frobenius(gens, 23, {**good, "witness": None})
    gap = run_cli("frobenius", "5", "7", "9", "--witness", "13")
    assert gap["witness"] is None
    with pytest.raises(checkers.CheckFailed):
        checkers.check_frobenius(gens, 13, {**gap, "witness": [1, 1, 0]})
    gaps = run_cli("gaps", "5", "7", "9")
    with pytest.raises(checkers.CheckFailed):
        checkers.check_gaps(gens, {**gaps, "gaps": gaps["gaps"][:-1]})
    poly = run_cli("gap-poly", "5", "7", "9")
    with pytest.raises(checkers.CheckFailed):
        checkers.check_gap_poly(gens, {**poly, "terms": poly["terms"][1:]})


# ---------------------------------------------------- identities and series


def test_denumerants_match_brute_force():
    for a, b in [(2, 3), (3, 5), (4, 7), (6, 9), (1, 1)]:
        p = checkers.denumerants(a, b, 60)
        assert p == [
            sum(1 for i, j in product(range(n + 1), repeat=2) if a * i + b * j == n)
            for n in range(61)
        ]


def test_coprime_pairs_match_brute_force():
    assert checkers.coprime_pairs(2) == 0
    assert checkers.coprime_pairs(5) == len([(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)])


@pytest.mark.parametrize("which", graded_hilbert.SERIES_KINDS)
def test_hilbert_checker_accepts_semialg_and_rejects_a_flip(which):
    a, b = (None, None) if which in ("univariate", "full_ring_degree") else (3, 7)
    args = ("-" if a is None else str(a), "-" if b is None else str(b))
    result = run_cli("hilbert", which, *args, "40")
    checkers.check_hilbert(which, a, b, 40, result)
    flipped = list(result["coefficients"])
    flipped[23] += 1
    with pytest.raises(checkers.CheckFailed):
        checkers.check_hilbert(which, a, b, 40, {**result, "coefficients": flipped})


def test_identity_checkers():
    checkers.check_verify_pair(5, 8, run_cli("verify", "5", "8"))
    checkers.check_verify_sweep(7, run_cli("verify", "--sweep", "7"))
    checkers.check_rank_nullity(4, 9, run_cli("rank-nullity", "4", "9"))
    with pytest.raises(checkers.CheckFailed):
        checkers.check_verify_pair(5, 8, {**run_cli("verify", "5", "8"), "rank_nullity": False})
    with pytest.raises(checkers.CheckFailed):
        checkers.check_verify_sweep(7, {"sweep": 7, "pairs": 14, "passed": 13})
    with pytest.raises(checkers.CheckFailed):
        checkers.check_rank_nullity(4, 9, {"a": 4, "b": 9, "order": 108, "holds": False})


# ------------------------------------------------------------- division


def brute_remainder(terms, a, b):
    """Reduce the lex-largest reducible term by x^b -> y^a until none is left."""
    work = dict(terms)
    while True:
        reducible = [m for m, c in work.items() if c != 0 and m[0] >= b]
        if not reducible:
            return {m: c for m, c in work.items() if c != 0}
        i, j = max(reducible)
        c = work.pop((i, j))
        work[(i - b, j + a)] = work.get((i - b, j + a), 0) + c


def random_terms(rng, count):
    return {
        (rng.randint(0, 9), rng.randint(0, 9)): Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3))
        for _ in range(count)
    }


def test_normal_form_matches_repeated_reduction():
    rng = random.Random(3)
    for _ in range(50):
        a, b = rng.choice([(2, 3), (3, 5), (2, 7), (4, 5)])
        terms = random_terms(rng, rng.randint(1, 12))
        assert checkers.normal_form(terms, a, b) == brute_remainder(terms, a, b)


def test_image_is_zero_on_members_only():
    assert checkers.image_is_zero({(3, 0): 1, (0, 2): -1}, 2, 3)
    assert not checkers.image_is_zero({(3, 0): 1, (0, 2): -2}, 2, 3)


@pytest.mark.parametrize("build", [workloads._member, workloads._non_member])
def test_division_checkers_accept_semialg_and_reject_a_dropped_term(build):
    rng = random.Random(5)
    terms = build(rng, 30, 3, 5)
    expr = workloads.format_expression(terms, rng)
    assert bivariate_algebra.parse_bivariate(expr).terms == terms
    divided = run_cli("divide", expr, "3", "5")
    checkers.check_divide(terms, 3, 5, divided)
    verdicts = run_cli("kernel", expr, "3", "5")
    checkers.check_kernel(terms, 3, 5, verdicts)
    with pytest.raises(checkers.CheckFailed):
        checkers.check_kernel(terms, 3, 5, {**verdicts, "divide": not verdicts["divide"]})
    if divided["remainder"]:
        with pytest.raises(checkers.CheckFailed):
            checkers.check_divide(terms, 3, 5, {**divided, "remainder": divided["remainder"][1:]})
    with pytest.raises(checkers.CheckFailed):
        checkers.check_divide(terms, 3, 5, {**divided, "quotient": divided["quotient"][1:]})


# ------------------------------------------------------ inputs and tracer


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_repeat_per_seed_and_keep_their_make_up(name):
    first = [op.argv for op in workloads.build_round(name, 1)]
    assert first == [op.argv for op in workloads.build_round(name, 1)]
    other = workloads.build_round(name, 2)
    assert [op.argv for op in other] != first
    assert len(other) == len(first)
    assert sum(op.refused for op in other) == (2 if name == "semigroup-queries" else 0)


def test_generator_sets_hit_their_table_size():
    table = semigroup_core.build_table(semigroup_core.validate_generators([9, 5, 7]))
    assert workloads.table_cells([9, 5, 7]) == len(table._pred)
    sizes = sorted(
        workloads.table_cells([int(a) for a in op.argv[1:-1]])
        for op in workloads.build_round("semigroup-queries", 3)
        if op.argv[0] == "gaps"
    )
    targets = sorted(workloads.CELL_TARGETS * 3)
    assert all(abs(s - t) <= workloads.CELL_TOLERANCE * t for s, t in zip(sizes, targets))


def test_tracer_sees_rebound_names_and_restores_them():
    originals = (semigroup_core.build_table, gap_polynomials.build_table, gap_polynomials.IntPolynomial.__mul__)
    tracer = tracing.Tracer(semialg)
    tracer.install()
    try:
        assert gap_polynomials.verify_functional_equation(3, 5)
    finally:
        tracer.uninstall()
    assert (semigroup_core.build_table, gap_polynomials.build_table,
            gap_polynomials.IntPolynomial.__mul__) == originals
    names = [span[0] for span in tracer.spans]
    assert names[0] == "gap_polynomials.verify_functional_equation"
    table = names.index("semigroup_core.build_table")
    assert tracer.spans[table][3] == names.index("gap_polynomials.gap_polynomial")
    assert tracer.spans[table][5] == (5 - 1) * 3 + 5 + 1
    totals = tracer.totals()
    assert totals["gap_polynomials.IntPolynomial.mul"]["calls"] == 4
    parent = totals["gap_polynomials.verify_functional_equation"]
    assert 0 <= parent["self_ms"] <= parent["ms"]


def test_reference_task_is_fixed_work():
    assert reference.task() == reference.task()
    assert "semialg" not in reference.task.__code__.co_names


def test_each_operation_is_scaled_by_the_reference_task_around_it(monkeypatch):
    # The task reads 4 ms before the first operation, 6 ms between the two, 2 ms after.
    monkeypatch.setattr(reference, "time_task", iter([0.004, 0.006, 0.002]).__next__)
    monkeypatch.setattr(run, "run_op", lambda main, argv: run.Outcome(0.1, 0, b"d", 1, "", None))
    ops = [workloads.Op(("frobenius", "3", "5"), None), workloads.Op(("gaps", "3", "5"), None)]
    tally, problems = run.Tally(), []
    run.timed_round(None, ops, [(0, b"d")] * 2, tally, problems)
    nominal = reference.NOMINAL_S
    assert problems == []
    assert tally.latencies == pytest.approx([0.1 * nominal / 0.005, 0.1 * nominal / 0.004])
    assert tally.raw_busy == pytest.approx(0.2)
