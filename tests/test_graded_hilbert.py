import math

import pytest

from semialg import gap_polynomials as gp
from semialg import graded_hilbert as gh
from semialg import semigroup_core as sc

from oracles import naive_members, naive_partition_count

TS = gh.TruncatedSeries


class TestTruncatedSeries:
    def test_geometric(self):
        assert TS.geometric(1, 4).coefficients == (1, 1, 1, 1, 1)
        assert TS.geometric(3, 7).coefficients == (1, 0, 0, 1, 0, 0, 1, 0)

    def test_mul_truncates(self):
        g = TS.geometric(1, 5)
        assert (g * g).coefficients == (1, 2, 3, 4, 5, 6)

    def test_str(self):
        assert str(TS(2, [1, 0, 3])) == "1 + 0*q + 3*q^2 + O(q^3)"

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 16384, 16385, 16386, 16387, 32770, 40000])
    def test_str_across_block_boundaries(self, order):
        # the text is built in blocks of 16,384 terms; compare it with one term per coefficient
        s = TS(order, [(-1) ** n * (n * n % 1009) for n in range(order + 1)])
        terms = [str(c) if n == 0 else f"{c}*q" if n == 1 else f"{c}*q^{n}" for n, c in enumerate(s.coefficients)]
        assert str(s) == " + ".join(terms) + f" + O(q^{order + 1})"


class TestPartitionCount:
    def test_examples(self):
        assert gh.partition_count(3, 5, 0) == 1
        assert gh.partition_count(3, 5, 15) == 2
        for n in range(0, 30):
            assert gh.partition_count(1, 1, n) == n + 1

    def test_against_naive(self):
        for a, b in [(3, 5), (2, 3), (4, 6), (1, 1), (2, 2)]:
            for n in range(0, 40):
                assert gh.partition_count(a, b, n) == naive_partition_count(a, b, n)

    def test_below_ab_at_most_one(self):
        # injectivity of (i,j) -> ai+bj below ab, coprime case
        for a in range(2, 13):
            for b in range(a + 1, 13):
                if math.gcd(a, b) == 1:
                    for n in range(a * b):
                        assert gh.partition_count(a, b, n) <= 1


class TestDimensionTables:
    def test_3_5_spot_values(self):
        full, ring, kernel = gh.graded_dims(3, 5, 20)
        assert (full[15], ring[15], kernel[15]) == (2, 1, 1)
        assert (full[7], ring[7], kernel[7]) == (0, 0, 0)
        assert (full[0], ring[0], kernel[0]) == (1, 1, 0)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            gh.graded_dims(4, 6, 10)

    def test_denumerant_tables_match_partition_count(self):
        for a in range(2, 21):
            for b in range(a + 1, 21):
                if math.gcd(a, b) != 1:
                    continue
                ab = a * b
                top = ab + a + b
                p = [gh.partition_count(a, b, n) for n in range(top + 1)]
                for nmax in (0, ab - 1, ab, top):
                    full, _, kernel = gh.graded_dims(a, b, nmax)
                    assert full == tuple(p[: nmax + 1])
                    assert kernel == tuple(
                        p[n - ab] if n >= ab else 0 for n in range(nmax + 1)
                    )

    @pytest.mark.parametrize("nmax", [-1, -5])
    def test_negative_order_rejected(self, nmax):
        with pytest.raises(ValueError, match="truncation order must be nonnegative"):
            gh.graded_dims(3, 5, nmax)

    def test_dim_ring_is_membership(self):
        table = sc.build_table(sc.validate_generators([4, 7]))
        _, ring, _ = gh.graded_dims(4, 7, 60)
        for n in range(61):
            assert ring[n] == (1 if table.is_member(n) else 0)

    def test_dim_ring_and_semigroup_series_match_naive_members(self):
        # N < F stops the gap slices of some residues short of Ap[r]; N >= F keeps every gap
        for a in range(2, 21):
            for b in range(a + 1, 21):
                if math.gcd(a, b) != 1:
                    continue
                F = a * b - a - b
                members = naive_members((a, b), 3 * a * b)
                for nmax in (0, F - 1, F, F + 1, 3 * a * b):
                    expected = tuple(int(m) for m in members[: nmax + 1])
                    _, ring, _ = gh.graded_dims(a, b, nmax)
                    assert ring == expected
                    assert gh.hilbert_series("semigroup_ring", a, b, nmax).coefficients == expected

    def test_order_over_cap_refused(self, monkeypatch):
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "50")
        full, _, _ = gh.graded_dims(3, 5, 49)
        assert len(full) == 50
        message = "series of 51 coefficients exceeds SEMIGROUP_MAX_BOUND=50"
        with pytest.raises(sc.BoundTooLargeError, match=message):
            gh.graded_dims(3, 5, 50)
        with pytest.raises(sc.BoundTooLargeError, match=message):
            gh.hilbert_series("univariate", None, None, 50)
        with pytest.raises(sc.BoundTooLargeError, match=message):
            gh.rank_nullity_failure(3, 5, 50)


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


class TestHilbertSeries:
    def test_univariate(self):
        s = gh.hilbert_series("univariate", None, None, 6)
        assert all(c == 1 for c in s.coefficients)

    def test_full_ring_degree(self):
        s = gh.hilbert_series("full_ring_degree", None, None, 8)
        assert s.coefficients == tuple(n + 1 for n in range(9))

    def test_full_ring_frobenius(self):
        s = gh.hilbert_series("full_ring_frobenius", 3, 5, 40)
        for n in range(41):
            assert s.coefficients[n] == gh.partition_count(3, 5, n)

    def test_semigroup_ring_is_membership_indicator(self):
        table = sc.build_table(sc.validate_generators([3, 5]))
        s = gh.hilbert_series("semigroup_ring", 3, 5, 30)
        for n in range(31):
            assert s.coefficients[n] == (1 if table.is_member(n) else 0)

    def test_kernel_shift(self):
        full = gh.hilbert_series("full_ring_frobenius", 3, 5, 40)
        kernel = gh.hilbert_series("kernel", 3, 5, 40)
        for n in range(41):
            expected = full.coefficients[n - 15] if n >= 15 else 0
            assert kernel.coefficients[n] == expected

    @pytest.mark.parametrize("order", [0, 1, 2, 7, 31, 199, 200, 211])
    def test_closed_forms_match_dense_products(self, order):
        g1 = TS.geometric(1, order)
        assert gh.hilbert_series("full_ring_degree", None, None, order) == g1 * g1
        for a, b in [(2, 3), (3, 5), (4, 7), (9, 11), (13, 17)]:
            product = TS.geometric(a, order) * TS.geometric(b, order)
            assert gh.hilbert_series("full_ring_frobenius", a, b, order) == product
            q_ab = TS(order, [int(n == a * b) for n in range(order + 1)])
            assert gh.hilbert_series("kernel", a, b, order) == product * q_ab

    def test_semigroup_ring_builds_no_denumerants(self, monkeypatch):
        def refused(*args):
            raise AssertionError("the denumerants were built")

        monkeypatch.setattr(gh, "_denumerants", refused)
        s = gh.hilbert_series("semigroup_ring", 5, 9, 40)
        assert s.coefficients == tuple(int(m) for m in naive_members((5, 9), 40))

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

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            gh.hilbert_series("bogus", 3, 5, 10)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            gh.hilbert_series("semigroup_ring", 4, 6, 10)


class TestEulerProduct:
    """H_E(q) = 1/((1-q^a)(1-q^b)), read through hilbert_series("full_ring_frobenius", ...)."""

    @pytest.mark.parametrize("order", [-1, -4])
    def test_negative_order_rejected(self, order):
        with pytest.raises(ValueError, match="truncation order must be nonnegative"):
            gh.hilbert_series("full_ring_frobenius", 3, 5, order)

    def test_order_500(self):
        for a, b in [(3, 5), (2, 3), (5, 8)]:
            product = TS.geometric(a, 500) * TS.geometric(b, 500)
            assert gh.hilbert_series("full_ring_frobenius", a, b, 500) == product


class TestSeriesIdentity:
    """H_E - q^ab H_E = H_R = 1/(1-q) - f_A(q), coefficient by coefficient up to the order."""

    @staticmethod
    def assert_identity(a, b, order):
        full = gh.hilbert_series("full_ring_frobenius", a, b, order).coefficients
        ring = gh.hilbert_series("semigroup_ring", a, b, order).coefficients
        f = gp.gap_polynomial(sc.validate_pair(a, b)).coefficients
        ab = a * b
        for n in range(order + 1):
            assert full[n] - (full[n - ab] if n >= ab else 0) == ring[n]
            assert ring[n] == 1 - (f[n] if n < len(f) else 0)

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
    """A fault in either source of the exact sequence fails every check that reaches its degree.

    The dense pass rank_nullity_failure(a, b, N) reaches the degrees up to N. verify reads
    rank_nullity and series_identity off one comparison of the Apery set with Sylvester's
    thresholds, which reaches every degree: a threshold moved to the fault's degree fails
    both, while the two K checks, which do not read the thresholds, still pass.
    """

    @staticmethod
    def verify_checks(monkeypatch, a, b, degree):
        """pair_checks(a, b) with the dense faults undone and the threshold of degree's residue
        class moved to degree."""
        monkeypatch.undo()
        true_thresholds = gh._sylvester_apery

        def moved(s, t):
            thresholds = list(true_thresholds(s, t))
            assert thresholds[degree % s] != degree
            thresholds[degree % s] = degree
            return tuple(thresholds)

        monkeypatch.setattr(gh, "_sylvester_apery", moved)
        return gh.pair_checks(a, b)

    SEQUENCE_FAILS = {
        "functional_equation": True,
        "reciprocal_duality": True,
        "series_identity": False,
        "rank_nullity": False,
    }

    @staticmethod
    def bump_denumerant(monkeypatch, degree):
        true_denumerants = gh._denumerants

        def bumped(a, b, nmax):
            p = true_denumerants(a, b, nmax)
            if degree(a, b) <= nmax:
                p[degree(a, b)] += 1
            return p

        monkeypatch.setattr(gh, "_denumerants", bumped)

    @pytest.mark.parametrize("a, b", [(3, 5), (4, 7), (5, 9)])
    def test_flipped_ring_indicator_fails(self, monkeypatch, a, b):
        true_indicator = sc.SemigroupTable.gap_indicator

        def flipped(table, nmax):
            is_gap = true_indicator(table, nmax)
            is_gap[1] ^= 1  # 1 is a gap of every admissible pair
            return is_gap

        monkeypatch.setattr(sc.SemigroupTable, "gap_indicator", flipped)
        assert gh.rank_nullity_failure(a, b, 3 * a * b) == 1
        assert gh.rank_nullity_failure(a, b, 3 * a * b) is not None
        assert self.verify_checks(monkeypatch, a, b, 1) == self.SEQUENCE_FAILS

    @pytest.mark.parametrize("a, b", [(3, 5), (4, 7), (5, 9)])
    def test_bumped_denumerant_fails(self, monkeypatch, a, b):
        # ab is the first degree where dim K_n is nonzero
        self.bump_denumerant(monkeypatch, lambda a, b: a * b)
        assert gh.rank_nullity_failure(a, b, 3 * a * b) == a * b
        assert gh.rank_nullity_failure(a, b, 3 * a * b) is not None
        assert self.verify_checks(monkeypatch, a, b, a * b) == self.SEQUENCE_FAILS

    @pytest.mark.parametrize("a, b", [(3, 5), (4, 7), (5, 9)])
    def test_denumerant_bumped_below_ab_fails(self, monkeypatch, a, b):
        # p(a) = 1 is a degree where dim K_n is zero, so dim E_n alone must match dim R_n
        self.bump_denumerant(monkeypatch, lambda a, b: a)
        assert gh.rank_nullity_failure(a, b, 3 * a * b) == a
        assert self.verify_checks(monkeypatch, a, b, a) == self.SEQUENCE_FAILS

    @pytest.mark.parametrize("a, b", [(3, 5), (4, 7), (5, 9)])
    def test_fault_at_2ab_fails_both_verify_keys(self, monkeypatch, a, b):
        # a dense pass stopped below 2ab misses the fault; verify's comparison has no order, so
        # rank_nullity and series_identity fail together
        self.bump_denumerant(monkeypatch, lambda a, b: 2 * a * b)
        assert gh.rank_nullity_failure(a, b, 3 * a * b) == 2 * a * b
        assert gh.rank_nullity_failure(a, b, a * b + 10) is None
        assert self.verify_checks(monkeypatch, a, b, 2 * a * b) == self.SEQUENCE_FAILS


class TestSylvesterRoute:
    """verify's residue comparison against dense oracles that share no code with it."""

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
                assert checks["rank_nullity"] == (gh.rank_nullity_failure(a, b, 3 * a * b) is None)
                assert checks["series_identity"] == checks["rank_nullity"]
                assert checks["functional_equation"] == gp.verify_functional_equation(a, b)
                assert checks["reciprocal_duality"] == gp.reciprocal_duality(a, b)
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

        for module in (sc, gp, gh):
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
        assert {a * b - e: c for e, c in gp.k_polynomial(table).items()} != {a * b: 1, 0: -1}
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
