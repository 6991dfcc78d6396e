import math

import pytest
from hypothesis import given, settings, strategies as st

from semialg import graded_hilbert as gh
from semialg import semigroup_core as sc

from oracles import (
    dense_functional_equation,
    dense_reciprocal_duality,
    euler_product,
    naive_gaps,
    naive_members,
    naive_partition_count,
    sequence_failures,
    sparse_mul,
)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def bump_denumerant(monkeypatch, degree):
    """gh._denumerants with p(degree(a, b)) raised by one, where the table reaches it."""
    true_denumerants = gh._denumerants

    def bumped(a, b, nmax):
        p = true_denumerants(a, b, nmax)
        if degree(a, b) <= nmax:
            p[degree(a, b)] += 1
        return p

    monkeypatch.setattr(gh, "_denumerants", bumped)


class TestRankNullity:
    def test_examples(self):
        assert gh.rank_nullity_failure(3, 5, 45) is None
        assert gh.rank_nullity_failure(2, 3, 18) is None
        assert gh.rank_nullity_failure(2, 7, 42) is None

    def test_sweep(self):
        for a in range(2, 21):
            for b in range(a + 1, 21):
                if math.gcd(a, b) == 1:
                    assert gh.rank_nullity_failure(a, b, 3 * a * b) is None

    @pytest.mark.parametrize("nmax", [-1, -5])
    def test_negative_order_rejected(self, nmax):
        with pytest.raises(ValueError, match="truncation order must be nonnegative"):
            gh.rank_nullity_failure(3, 5, nmax)

    def test_bad_pair_refused_before_the_order(self):
        # rank-nullity's default order 3ab is negative for a negative weight: the pair is the fault
        with pytest.raises(ValueError, match=r"^generators must be positive, got -2$"):
            gh.rank_nullity_failure(-2, 3, -18)

    def test_order_past_any_table_answers(self):
        # one table of 4,002,002 cells, whatever the order: no denumerant or indicator of 10^12 entries
        assert gh.rank_nullity_failure(2000, 2001, 10**12) is None


class TestHilbertSeries:
    def test_univariate(self):
        s = gh.hilbert_series("univariate", None, None, 6)
        assert all(c == 1 for c in s)

    def test_full_ring_degree(self):
        s = gh.hilbert_series("full_ring_degree", None, None, 8)
        assert tuple(s) == tuple(n + 1 for n in range(9))

    def test_full_ring_frobenius(self):
        s = gh.hilbert_series("full_ring_frobenius", 3, 5, 40)
        for n in range(41):
            assert s[n] == naive_partition_count(3, 5, n)

    def test_semigroup_ring_is_membership_indicator(self):
        table = sc.build_table(sc.validate_generators([3, 5]))
        s = gh.hilbert_series("semigroup_ring", 3, 5, 30)
        for n in range(31):
            assert s[n] == (1 if table.is_member(n) else 0)

    def test_kernel_shift(self):
        full = gh.hilbert_series("full_ring_frobenius", 3, 5, 40)
        kernel = gh.hilbert_series("kernel", 3, 5, 40)
        for n in range(41):
            expected = full[n - 15] if n >= 15 else 0
            assert kernel[n] == expected

    @pytest.mark.parametrize("order", [0, 1, 2, 7, 31, 199, 200, 211])
    def test_closed_forms_match_dense_products(self, order):
        def truncated(series):
            return tuple(series.get(n, 0) for n in range(order + 1))

        g1 = dict.fromkeys(range(order + 1), 1)
        assert tuple(gh.hilbert_series("full_ring_degree", None, None, order)) == truncated(sparse_mul(g1, g1))
        for a, b in [(2, 3), (3, 5), (4, 7), (9, 11), (13, 17)]:
            q_a, q_b = (dict.fromkeys(range(0, order + 1, m), 1) for m in (a, b))
            product = sparse_mul(q_a, q_b)
            assert tuple(gh.hilbert_series("full_ring_frobenius", a, b, order)) == truncated(product)
            assert tuple(gh.hilbert_series("kernel", a, b, order)) == truncated(sparse_mul(product, {a * b: 1}))

    def test_semigroup_series_matches_naive_members(self):
        # N < F stops the gap slices of some residues short of Ap[r]; N >= F keeps every gap
        for a in range(2, 21):
            for b in range(a + 1, 21):
                if math.gcd(a, b) != 1:
                    continue
                F = a * b - a - b
                members = naive_members((a, b), 3 * a * b)
                for nmax in (0, F - 1, F, F + 1, 3 * a * b):
                    expected = tuple(int(m) for m in members[: nmax + 1])
                    assert tuple(gh.hilbert_series("semigroup_ring", a, b, nmax)) == expected

    def test_order_over_cap_refused(self, monkeypatch):
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "50")
        assert len(gh.hilbert_series("univariate", None, None, 49)) == 50
        message = "series of 51 coefficients exceeds SEMIGROUP_MAX_BOUND=50"
        with pytest.raises(sc.BoundTooLargeError, match=message):
            gh.hilbert_series("univariate", None, None, 50)
        # rank_nullity_failure allocates nothing order-sized: only its table of 18 cells is capped
        assert gh.rank_nullity_failure(3, 5, 50) is None
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "17")
        with pytest.raises(sc.BoundTooLargeError, match="table of 18 cells exceeds SEMIGROUP_MAX_BOUND=17"):
            gh.rank_nullity_failure(3, 5, 50)

    def test_semigroup_ring_builds_no_denumerants(self, monkeypatch):
        def refused(*args):
            raise AssertionError("the denumerants were built")

        monkeypatch.setattr(gh, "_denumerants", refused)
        s = gh.hilbert_series("semigroup_ring", 5, 9, 40)
        assert tuple(s) == tuple(int(m) for m in naive_members((5, 9), 40))

    @pytest.mark.parametrize("which", ["univariate", "full_ring_degree"])
    @pytest.mark.parametrize("a, b", [(3, 5), (3, None), (None, 5)])
    def test_pair_free_kinds_refuse_a_pair(self, monkeypatch, which, a, b):
        with pytest.raises(ValueError, match=f"series kind '{which}' takes no pair"):
            gh.hilbert_series(which, a, b, 4)
        # the order's own refusals come first
        with pytest.raises(ValueError, match="truncation order must be nonnegative"):
            gh.hilbert_series(which, a, b, -1)
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "5")
        with pytest.raises(sc.BoundTooLargeError, match="series of 6 coefficients exceeds"):
            gh.hilbert_series(which, a, b, 5)

    # with ab = 15, full_ring_frobenius is bytes below order 255ab and kernel below 256ab
    @pytest.mark.parametrize(
        "which, a, b, order, sequence",
        [("univariate", None, None, 20, bytes), ("semigroup_ring", 3, 5, 20, bytes),
         ("full_ring_degree", None, None, 20, range), ("full_ring_degree", None, None, 300, range),
         ("full_ring_frobenius", 3, 5, 20, bytes), ("full_ring_frobenius", 3, 5, 255 * 15 - 1, bytes),
         ("full_ring_frobenius", 3, 5, 255 * 15, tuple), ("kernel", 3, 5, 20, bytes),
         ("kernel", 3, 5, 256 * 15 - 1, bytes), ("kernel", 3, 5, 256 * 15, tuple)],
    )
    def test_returns_the_sequence_of_its_closed_form(self, which, a, b, order, sequence):
        s = gh.hilbert_series(which, a, b, order)
        assert type(s) is sequence and len(s) == order + 1 and all(type(c) is int for c in s)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            gh.hilbert_series("bogus", 3, 5, 10)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            gh.hilbert_series("semigroup_ring", 4, 6, 10)


class TestWeightOne:
    """A pair with a 1 against the oracles: S(1, b) is every n >= 0, so F = -1, g = 0,
    H_R = 1/(1 - q) and K = H_R (1 - q)(1 - q^b) = 1 - q^b."""

    @pytest.mark.parametrize("b", range(2, 40))
    def test_against_the_oracles(self, b):
        order = 3 * b
        member = naive_members((1, b), order)
        gaps = [n for n, m in enumerate(member) if not m]
        ring = {n: 1 for n, m in enumerate(member) if m}
        product = sparse_mul(sparse_mul(ring, {0: 1, 1: -1}), {0: 1, b: -1})
        k = {n: c for n, c in product.items() if n <= order}  # the truncation of H_R shows past order
        full = tuple(naive_partition_count(1, b, n) for n in range(order + 1))
        kernel = (0,) * b + full[: order + 1 - b]
        assert tuple(ring.values()) == (1,) * (order + 1)
        for a, c in [(1, b), (b, 1)]:
            table = sc.build_table(sc.validate_pair(a, c))
            assert (table.frobenius, table.genus) == (max(gaps, default=-1), len(gaps)) == (-1, 0)
            assert gh.k_polynomial(table) == k == {0: 1, b: -1}
            assert tuple(gh.hilbert_series("semigroup_ring", a, c, order)) == tuple(ring.values())
            assert tuple(gh.hilbert_series("full_ring_frobenius", a, c, order)) == full
            assert tuple(gh.hilbert_series("kernel", a, c, order)) == kernel
            assert all(gh.pair_checks(a, c).values())
            assert gh.rank_nullity_failure(a, c, 10 * b) is None
            assert dense_functional_equation(a, c)


class TestEulerProduct:
    """H_E(q) = 1/((1-q^a)(1-q^b)), read through hilbert_series("full_ring_frobenius", ...)."""

    @pytest.mark.parametrize("order", [-1, -4])
    def test_negative_order_rejected(self, order):
        with pytest.raises(ValueError, match="truncation order must be nonnegative"):
            gh.hilbert_series("full_ring_frobenius", 3, 5, order)

    # the denumerants are bytes below 255ab; past it, one period of 128ab lifted by 128 per period
    @pytest.mark.parametrize("a, b", [(2, 3), (3, 5), (5, 8), (5, 2), (1, 4), (4, 1)])
    @pytest.mark.parametrize(
        "periods, extra",
        [(0, 500), (128, -1), (128, 0), (128, 1), (300, 7), (255, -1), (255, 0), (256, -1), (256, 0)],
        ids=["500", "128ab-1", "128ab", "128ab+1", "300ab+7", "255ab-1", "255ab", "256ab-1", "256ab"],
    )
    def test_against_the_euler_product(self, a, b, periods, extra):
        order = periods * a * b + extra
        full = tuple(gh.hilbert_series("full_ring_frobenius", a, b, order))
        assert full == tuple(euler_product(a, b, order))
        assert tuple(gh.hilbert_series("kernel", a, b, order)) == ((0,) * (a * b) + full)[: order + 1]

    # a bump in the bytearray of _denumerants (at a and 128ab) and in its list past 255ab
    @pytest.mark.parametrize("degree, order, sequence", [(3, 200 * 15, bytes), (128 * 15, 200 * 15, bytes),
                                                         (255 * 15 + 1, 300 * 15 + 7, tuple)])
    def test_bumped_denumerant_differs_from_the_euler_product(self, monkeypatch, degree, order, sequence):
        bump_denumerant(monkeypatch, lambda a, b: degree)
        for which, shift in (("full_ring_frobenius", 0), ("kernel", 15)):
            s = gh.hilbert_series(which, 3, 5, order)
            expected = [0] * shift + euler_product(3, 5, order - shift)
            assert type(s) is sequence
            assert next(n for n, (c, e) in enumerate(zip(s, expected)) if c != e) == degree + shift


class TestSeriesIdentity:
    """H_E - q^ab H_E = H_R = 1/(1-q) - f_A(q), coefficient by coefficient up to the order."""

    @staticmethod
    def assert_identity(a, b, order):
        full = gh.hilbert_series("full_ring_frobenius", a, b, order)
        ring = gh.hilbert_series("semigroup_ring", a, b, order)
        gaps = set(naive_gaps((a, b), a * b))
        ab = a * b
        for n in range(order + 1):
            assert full[n] - (full[n - ab] if n >= ab else 0) == ring[n]
            assert ring[n] == 1 - (n in gaps)

    def test_examples(self):
        self.assert_identity(3, 5, 100)
        self.assert_identity(2, 3, 50)
        self.assert_identity(4, 9, 200)

    def test_sweep(self):
        for a in range(2, 31):
            for b in range(a + 1, 31):
                if math.gcd(a, b) == 1:
                    self.assert_identity(a, b, a * b + 10)


class TestExactSequenceFaults:
    """A fault in the Apery comparison fails every check that reaches its degree.

    rank_nullity_failure and verify's rank_nullity and series_identity read one comparison of
    the Apery set with Sylvester's thresholds, which reaches every degree: a threshold moved to
    a gap d makes rank_nullity_failure(a, b, N) return d for N >= d and None below, and fails
    both verify keys, while the two K checks, which do not read the thresholds, still pass.
    """

    @staticmethod
    def move_threshold(monkeypatch, degree):
        """Sylvester's threshold of degree's residue class moved to degree."""
        true_thresholds = gh._sylvester_apery

        def moved(s, t):
            thresholds = list(true_thresholds(s, t))
            assert thresholds[degree % s] != degree
            thresholds[degree % s] = degree
            return tuple(thresholds)

        monkeypatch.setattr(gh, "_sylvester_apery", moved)

    SEQUENCE_FAILS = {
        "functional_equation": True,
        "reciprocal_duality": True,
        "series_identity": False,
        "rank_nullity": False,
    }

    # the gap 1, the member a below ab, and the members ab and 2ab
    @pytest.mark.parametrize("a, b", [(3, 5), (4, 7), (5, 9)])
    @pytest.mark.parametrize("degree", ["1", "a", "ab", "2ab"])
    def test_moved_threshold_fails_both_verify_keys(self, monkeypatch, a, b, degree):
        # verify's comparison has no order, so rank_nullity and series_identity fail together
        self.move_threshold(monkeypatch, {"1": 1, "a": a, "ab": a * b, "2ab": 2 * a * b}[degree])
        assert gh.pair_checks(a, b) == self.SEQUENCE_FAILS

    @pytest.mark.parametrize("a, b", [(3, 5), (4, 7), (5, 9)])
    @pytest.mark.parametrize("gap", ["1", "F"])
    def test_moved_threshold_is_the_first_failure(self, monkeypatch, a, b, gap):
        # a gap d lies below the true threshold of its class, so the moved one is the lower of the two
        d = 1 if gap == "1" else a * b - a - b
        self.move_threshold(monkeypatch, d)
        assert gh.rank_nullity_failure(a, b, 3 * a * b) == d
        assert gh.rank_nullity_failure(a, b, d) == d
        assert gh.rank_nullity_failure(a, b, d - 1) is None
        assert gh.pair_checks(a, b) == self.SEQUENCE_FAILS

    @pytest.mark.parametrize("a, b", [(3, 5), (4, 7), (5, 9)])
    def test_dense_faults_do_not_reach_the_route(self, monkeypatch, a, b):
        # rank_nullity_failure reads neither the denumerants nor the gap indicator
        bump_denumerant(monkeypatch, lambda a, b: a)
        monkeypatch.setattr(sc.SemigroupTable, "gap_indicator", None)
        assert gh.rank_nullity_failure(a, b, 3 * a * b) is None


class TestKPolynomial:
    """K(q) = N(q) * prod_{i>=2} (1 - q^{a_i}) from the Apery set, against the dense oracles."""

    def test_pairs(self):
        assert gh.k_polynomial(sc.build_table(sc.validate_pair(3, 5))) == {0: 1, 15: -1}
        assert gh.k_polynomial(sc.build_table(sc.validate_pair(2, 3))) == {0: 1, 6: -1}

    def test_sparse_checks_match_the_dense_ones(self):
        pairs = [(a, b) for a in range(2, 41) for b in range(a + 1, 41) if math.gcd(a, b) == 1]
        # a weight of 1: S(1, b) = N has F = -1 and f_A = g_A = 0
        pairs += [p for b in range(2, 13) for p in ((1, b), (b, 1))]
        for a, b in pairs:
            checks = gh.pair_checks(a, b)
            assert checks["functional_equation"] == dense_functional_equation(a, b)
            assert checks["reciprocal_duality"] == dense_reciprocal_duality(a, b)

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(2, 60), min_size=3, max_size=4).filter(lambda s: math.gcd(*s) == 1))
    def test_frobenius_terms_and_root_at_one(self, elements):
        A = sc.validate_generators(list(elements))
        table = sc.build_table(A)
        k = gh.k_polynomial(table)
        # Schur's bound F <= (a1 - 1)(ak - 1) - 1; a1 members in a row at the top confirm it
        a1, ak = A.elements[0], A.elements[-1]
        limit = (a1 - 1) * (ak - 1) + a1
        F = max(naive_gaps(A.elements, limit), default=-1)
        assert F <= limit - a1
        assert max(k) - sum(A.elements) == table.frobenius == F
        if len(A.elements) == 3:
            assert len(k) <= 6  # Herzog 1970: at most three relations and two syzygies
        assert sum(k.values()) == 0  # K(1) = 0

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.integers(2, 60), min_size=3, max_size=4).filter(lambda s: math.gcd(*s) == 1))
    def test_vanishes_to_order_k_minus_1_at_one(self, sympy, elements):
        # H_R has a simple pole at q = 1 and each of the k factors (1 - q^{a_i}) a simple zero
        A = sc.validate_generators(list(elements))
        k = gh.k_polynomial(sc.build_table(A))
        q = sympy.Symbol("q")
        poly = sympy.Poly(sum(c * q**e for e, c in k.items()), q)
        quotient, remainder = sympy.div(poly, sympy.Poly((q - 1) ** (len(A.elements) - 1), q))
        assert remainder.is_zero
        assert quotient.eval(1) != 0


class TestDenseOracles:
    """The oracles of the exact sequence and of the functional equation can fail."""

    @pytest.mark.parametrize("a, b", [(3, 5), (4, 7), (5, 9)])
    def test_flipped_gap_fails_the_functional_equation(self, a, b):
        f = dict.fromkeys(naive_gaps((a, b)), 1)
        assert dense_functional_equation(a, b, f=f)
        del f[1]  # 1 is a gap of every admissible pair; the degree F stays
        assert not dense_functional_equation(a, b, f=f)

    # a weight of 1 and pairs with a common factor too: the recurrence needs no coprime pair
    @pytest.mark.parametrize("a, b", [(2, 3), (3, 5), (5, 3), (4, 7), (1, 4), (4, 1), (1, 1), (2, 4), (6, 4)])
    def test_euler_product_counts_the_partitions(self, a, b):
        for order in (0, 1, a * b, 50):
            assert euler_product(a, b, order) == [naive_partition_count(a, b, n) for n in range(order + 1)]

    def test_failing_pair_is_read_by_prefix(self):
        # S(2, 4) is not numerical: p(4) = 2 counts 2 + 2 and 4, and dim R_4 + dim K_4 is 1 + 0
        assert sequence_failures(2, 4, (0, 3, 4, 24)) == [None, None, 4, 4]


class TestSylvesterRoute:
    """The Apery comparison of rank-nullity and verify against dense oracles that do not read it."""

    def test_closed_form(self):
        assert gh._sylvester_apery(3, 5) == (0, 10, 5)
        assert gh._sylvester_apery(2, 7) == (0, 7)
        assert sorted(gh._sylvester_apery(5, 8)) == [0, 8, 16, 24, 32]

    def test_pair_checks_agree_with_the_dense_oracles(self):
        for a in range(2, 60):
            for b in range(2, 60):
                if a == b or math.gcd(a, b) != 1:
                    continue
                checks = gh.pair_checks(a, b)
                F, ab = a * b - a - b, a * b
                orders = (0, F, ab, 3 * ab)
                failures = sequence_failures(a, b, orders)
                assert checks["rank_nullity"] == (failures[-1] is None)
                for nmax, failure in zip(orders, failures):
                    assert gh.rank_nullity_failure(a, b, nmax) == failure
                assert checks["series_identity"] == checks["rank_nullity"]
                assert checks["functional_equation"] == dense_functional_equation(a, b)
                assert checks["reciprocal_duality"] == dense_reciprocal_duality(a, b)
                assert all(checks.values())


class TestAperySetFaults:
    """A fault in the semigroup table fails the checks verify reads off the K-polynomial.

    functional_equation is K == 1 - q^ab; reciprocal_duality is that and the
    symmetry 2g = F + 1 of the table's fields. The reflected K,
    q^ab K(1/q) == q^ab - 1, fails exactly when K == 1 - q^ab does. A faulty
    Apery set also differs from Sylvester's, so it fails rank_nullity and
    series_identity too; a fault in the genus alone leaves those two standing.
    """

    @staticmethod
    def patch_table(monkeypatch, fault):
        true_build = sc.build_table

        def faulty(A):
            return fault(true_build(A))

        for module in (sc, gh):
            monkeypatch.setattr(module, "build_table", faulty)

    @staticmethod
    def raised_apery(table):
        """The Apery set with the entry of residue 1 raised by a1: its old value becomes a gap."""
        a1 = table.generators.elements[0]
        return tuple(w + a1 if r == 1 else w for r, w in enumerate(table.apery))

    @pytest.mark.parametrize("a, b", [(3, 5), (4, 7), (5, 9)])
    def test_fake_gap_fails_both_k_checks(self, monkeypatch, a, b):
        def fake_gap(table):
            apery = self.raised_apery(table)
            a1 = len(apery)
            genus = sum(w // a1 for w in apery)
            return table._replace(apery=apery, frobenius=max(apery) - a1, genus=genus)

        self.patch_table(monkeypatch, fake_gap)
        table = sc.build_table(sc.validate_pair(a, b))
        assert table.genus == (a - 1) * (b - 1) // 2 + 1
        checks = gh.pair_checks(a, b)
        assert not any(checks.values())

    @pytest.mark.parametrize("a, b", [(3, 5), (4, 7), (5, 9)])
    def test_apery_fault_behind_true_fields_fails_the_reflected_k(self, monkeypatch, a, b):
        # genus and frobenius keep their true values, so the symmetry test passes and only K,
        # or its reflection, can reject the table
        self.patch_table(monkeypatch, lambda table: table._replace(apery=self.raised_apery(table)))
        table = sc.build_table(sc.validate_pair(a, b))
        assert 2 * table.genus == table.frobenius + 1
        assert {a * b - e: c for e, c in gh.k_polynomial(table).items()} != {a * b: 1, 0: -1}
        checks = gh.pair_checks(a, b)
        assert not any(checks.values())

    @pytest.mark.parametrize("a, b", [(3, 5), (4, 7), (5, 9)])
    def test_genus_fault_fails_the_symmetry_test_only(self, monkeypatch, a, b):
        # the Apery set is true, so K is 1 - q^ab and only 2g = F + 1 can reject the table
        self.patch_table(monkeypatch, lambda table: table._replace(genus=table.genus + 1))
        checks = gh.pair_checks(a, b)
        assert checks["functional_equation"]
        assert not checks["reciprocal_duality"]
        assert checks["series_identity"] and checks["rank_nullity"]
