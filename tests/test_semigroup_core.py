import math
import operator
import random

import pytest

from semialg import semigroup_core as sc

from oracles import forward_dp_members, gaps_of, naive_gaps, naive_is_symmetric, naive_members


def gens(*xs):
    return sc.validate_generators(list(xs))


class TestValidateGenerators:
    def test_sorts(self):
        A = sc.validate_generators([5, 3])
        assert A.elements == (3, 5)

    def test_gcd(self):
        with pytest.raises(sc.NotNumericalSemigroupError) as info:
            sc.validate_generators([4, 6])
        assert info.value.gcd == 2

    def test_dedup(self):
        assert sc.validate_generators([3, 3, 5]).elements == (3, 5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sc.validate_generators([])

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError):
            sc.validate_generators([3, bad])


class TestValidatePair:
    def test_sorted_generator_set(self):
        assert sc.validate_pair(5, 3) == sc.validate_generators([3, 5])

    @pytest.mark.parametrize(
        "a, b, message",
        [
            (3, 3, "pair must be distinct, got a = b = 3"),
            (0, 5, "generators must be positive, got 0"),
            (-2, 3, "generators must be positive, got -2"),
            (3, -2, "generators must be positive, got -2"),
            (4, 6, "gcd(A)=2, not a numerical semigroup"),
        ],
    )
    def test_rejected(self, a, b, message):
        with pytest.raises(ValueError) as info:
            sc.validate_pair(a, b)
        assert str(info.value) == message

    def test_common_factor_is_not_a_numerical_semigroup(self):
        with pytest.raises(sc.NotNumericalSemigroupError) as info:
            sc.validate_pair(6, 9)
        assert info.value.gcd == 3

    @pytest.mark.parametrize("a, b", [(1, 5), (5, 1), (1, 2)])
    def test_one_admitted(self, a, b):
        assert sc.validate_pair(a, b) == sc.validate_generators([1, max(a, b)])


class TestConductorBound:
    def test_examples(self):
        assert sc.conductor_bound(gens(3, 5)) == 12
        assert sc.conductor_bound(gens(2, 3)) == 4
        assert sc.conductor_bound(gens(3, 4, 5)) == 28

    def test_non_coprime_rejected(self):
        with pytest.raises(sc.NotNumericalSemigroupError):
            sc.conductor_bound(gens(4, 6))

    def test_singleton_one(self):
        assert sc.conductor_bound(gens(1)) == 0

    def test_singleton_other_rejected(self):
        with pytest.raises(sc.NotNumericalSemigroupError):
            sc.conductor_bound(gens(5))


class TestBuildTable:
    def test_3_5(self):
        t = sc.build_table(gens(3, 5))
        assert t.frobenius == 7
        assert t.genus == 4
        assert gaps_of(t) == (1, 2, 4, 7)

    def test_singleton_one(self):
        t = sc.build_table(gens(1))
        assert t.frobenius == -1
        assert t.genus == 0
        assert gaps_of(t) == ()

    def test_3_4_5(self):
        t = sc.build_table(gens(3, 4, 5))
        assert t.frobenius == 2
        assert t.genus == 2
        assert gaps_of(t) == (1, 2)

    def test_invariants_hold(self):
        t = sc.build_table(gens(4, 7, 9))
        assert t.is_member(0)
        for n in range(t.bound + 1):
            if t.is_member(n):
                for a in t.generators.elements:
                    if n + a <= t.bound:
                        assert t.is_member(n + a)
        assert all(t.is_member(n) for n in range(t.frobenius + 1, t.bound + 1))
        assert t.genus >= (t.frobenius + 1) / 2

    def test_oracle_equivalence_pairs(self):
        for a in range(2, 21):
            for b in range(a + 1, 21):
                if math.gcd(a, b) != 1:
                    continue
                t = sc.build_table(gens(a, b))
                assert [t.is_member(n) for n in range(t.bound + 1)] == naive_members((a, b), t.bound)

    def test_max_bound_cap(self, monkeypatch):
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "10")
        with pytest.raises(sc.BoundTooLargeError):
            sc.build_table(gens(3, 5))

    @pytest.mark.parametrize(
        "elements, cells",
        [((3163, 3167), 10_017_226), ((2503, 2521, 2531), 12_713_252)],
    )
    def test_over_cap_message(self, monkeypatch, elements, cells):
        monkeypatch.delenv("SEMIGROUP_MAX_BOUND", raising=False)
        with pytest.raises(sc.BoundTooLargeError) as exc:
            sc.build_table(gens(*elements))
        assert str(exc.value) == f"table of {cells} cells exceeds SEMIGROUP_MAX_BOUND=10000000"

    def test_non_integer_max_bound(self, monkeypatch):
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "abc")
        with pytest.raises(ValueError, match="SEMIGROUP_MAX_BOUND must be an integer, got 'abc'"):
            sc.build_table(gens(3, 5))

    def test_apery_set(self):
        # Ap(S, a) = {0, b, 2b, ..., (a-1)b} for A = {a, b}, indexed by residue mod a
        t = sc.build_table(gens(5, 7))
        assert sorted(t.apery) == [0, 7, 14, 21, 28]
        assert all(w % 5 == r for r, w in enumerate(t.apery))
        assert sc.build_table(gens(1)).apery == (0,)

    def test_negative_not_member(self):
        t = sc.build_table(gens(3, 5))
        assert not any(t.is_member(n) for n in range(-20, 0))
        assert sc.represent_from_table(-3, t) is None


def seeded_sets(seed, count):
    """count coprime sets with k = 2..5; larger k draws from smaller generators."""
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        k = rng.randint(2, 5)
        elements = rng.sample(range(2, 31 if k <= 3 else 15), k)
        if math.gcd(*elements) == 1:
            sets.append(tuple(sorted(elements)))
    return sets


class TestAperyAgainstOracles:
    """The Apery-set table against brute force and the old forward DP."""

    @pytest.mark.parametrize("elements", [(1,), (1, 7), (2, 3)] + seeded_sets(2024, 40))
    def test_against_brute_force_and_forward_dp(self, elements):
        A = gens(*elements)
        t = sc.build_table(A)
        limit = t.bound + 2 * max(elements)
        member = naive_members(elements, limit)
        dp = forward_dp_members(elements)
        assert member[: len(dp)] == dp
        gaps = [n for n in range(limit + 1) if not member[n]]
        assert t.frobenius == (gaps[-1] if gaps else -1)
        assert t.genus == len(gaps)
        assert gaps_of(t) == tuple(gaps)
        assert [t.is_member(n) for n in range(limit + 1)] == member
        for nmax in sorted({-1, 0, t.frobenius - 1, t.frobenius, t.frobenius + 1, t.bound, limit}):
            if nmax >= -1:
                assert t.gap_indicator(nmax) == bytes(0 if m else 1 for m in member[: nmax + 1])
        for n in range(limit + 1):
            rep = sc.represent_from_table(n, t)
            if member[n]:
                assert rep is not None and sum(map(operator.mul, A.elements, rep)) == n
                assert all(c >= 0 for c in rep)
            else:
                assert rep is None
        for n in (10**12, 10**12 + 1, 10**12 + max(elements) - 1):
            rep = sc.represent_from_table(n, t)
            assert rep is not None and sum(map(operator.mul, A.elements, rep)) == n
            assert all(c >= 0 for c in rep)


class TestSharpSylvester:
    def test_sweep_to_40(self):
        for a in range(2, 41):
            for b in range(a + 1, 41):
                if math.gcd(a, b) != 1:
                    continue
                A = gens(a, b)
                t = sc.build_table(A)
                assert t.frobenius == a * b - a - b
                assert t.genus == (a - 1) * (b - 1) // 2


class TestFrobeniusGenus:
    def test_examples(self):
        assert sc.build_table(gens(3, 5)).frobenius == 7
        assert sc.build_table(gens(2, 3)).frobenius == 1
        assert sc.build_table(gens(3, 4, 5)).frobenius == 2
        assert sc.build_table(gens(3, 5)).genus == 4
        assert sc.build_table(gens(1, 7)).genus == 0
        assert sc.build_table(gens(3, 4, 5)).genus == 2


def symmetric(*elements):
    """2g = F + 1, the closed form of symmetry over the table (Rosales & Garcia-Sanchez,
    Numerical Semigroups, 2009): n -> F - n maps the members below F into the gaps."""
    table = sc.build_table(gens(*elements))
    return 2 * table.genus == table.frobenius + 1


class TestSymmetry:
    def test_examples(self):
        assert symmetric(3, 5)
        assert not symmetric(3, 4, 5)
        assert symmetric(2, 3)

    def test_gap_free_vacuous(self):
        assert symmetric(1)
        assert symmetric(1, 7)

    def test_equality_with_genus_bound(self):
        for elements in [(3, 5), (3, 4, 5), (4, 7, 9), (5, 7, 11), (2, 3), (4, 5, 6), (6, 7, 8, 9), (1, 7)]:
            assert symmetric(*elements) == naive_is_symmetric(elements)


class TestRecords:
    def test_fields_are_read_only(self):
        A = gens(3, 5)
        t = sc.build_table(A)
        for record, name in ((t, "genus"), (t, "apery"), (A, "elements")):
            with pytest.raises(AttributeError):
                setattr(record, name, ())

    def test_table_is_hashable_and_equal_to_a_rebuild(self):
        t = sc.build_table(gens(4, 7, 9))
        rebuilt = sc.build_table(gens(9, 7, 4, 7))
        assert t == rebuilt and hash(t) == hash(rebuilt)


class TestRepresent:
    def test_examples(self):
        t = sc.build_table(gens(3, 5))
        assert type(sc.represent_from_table(8, t)) is tuple
        assert sc.represent_from_table(8, t) == (1, 1)
        assert sc.represent_from_table(7, t) is None
        assert sc.represent_from_table(0, t) == (0, 0)

    @pytest.mark.parametrize("raw", [[4, 6, 9, 10], [2, 2, 5], [1, 7], [7, 10, 12, 15, 19]])
    def test_apery_walk_against_brute_force(self, raw):
        # a redundant generator (10 = 4 + 6), a duplicate, a1 = 1 and k = 5: the walk down the
        # Apery set needs no table beyond it, and its entries are ints, never a float sentinel
        assert sc.SemigroupTable._fields == ("generators", "bound", "apery", "frobenius", "genus")
        A = sc.validate_generators(raw)
        t = sc.build_table(A)
        assert all(type(w) is int for w in t.apery)
        limit = t.bound + 2 * max(raw)
        for n, member in enumerate(naive_members(raw, limit)):
            rep = sc.represent_from_table(n, t)
            if member:
                assert rep is not None and len(rep) == len(A.elements) and min(rep) >= 0
                assert sum(map(operator.mul, A.elements, rep)) == n
            else:
                assert rep is None

    def test_witness_soundness(self):
        for elements in [(3, 5), (3, 4, 5), (4, 9), (5, 7, 11)]:
            A = gens(*elements)
            t = sc.build_table(A)
            for n in range(t.bound + 1):
                rep = sc.represent_from_table(n, t)
                if t.is_member(n):
                    assert rep is not None
                    assert sum(map(operator.mul, A.elements, rep)) == n
                else:
                    assert rep is None

    def test_large_n_always_represented(self):
        A = gens(3, 5)
        t = sc.build_table(A)
        bound = sc.conductor_bound(A)
        for n in [bound, bound + 1, bound + 17, 10**6 + 1]:
            rep = sc.represent_from_table(n, t)
            assert rep is not None
            assert sum(map(operator.mul, A.elements, rep)) == n

    def test_random_sets(self):
        rng = random.Random(7)
        for _ in range(50):
            k = rng.choice([2, 3, 4])
            while True:
                elements = sorted(rng.sample(range(2, 51), k))
                if math.gcd(*elements) == 1:
                    break
            A = gens(*elements)
            t = sc.build_table(A)
            assert t.frobenius <= t.bound - 1
            assert [t.is_member(n) for n in range(t.bound + 1)] == naive_members(A.elements, t.bound)
            assert gaps_of(t) == tuple(naive_gaps(A.elements, t.bound))
            rep = sc.represent_from_table(t.bound, t)
            assert rep is not None and sum(map(operator.mul, A.elements, rep)) == t.bound
