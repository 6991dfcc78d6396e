"""Tests of the names that only the benchmark tracer reads.

bench/tracing.py patches IntPolynomial.__mul__, gap_polynomial,
verify_functional_equation, TruncatedSeries.__mul__, graded_dims,
partition_count and phi_evaluate by name, so they stay in their modules,
unexported. No command reads them, and they share code with the commands:
gap_polynomial is the gap indicator, graded_dims the denumerants and the
ring dimensions, phi_evaluate the degree sums of in_kernel. So no test of
live code uses them as an oracle, and these tests go with them.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semialg import bivariate_algebra as biv
from semialg import gap_polynomials as gp
from semialg import graded_hilbert as gh
from semialg import semigroup_core as sc

from oracles import (
    bivariate_mul,
    dense_functional_equation,
    dense_reciprocal_duality,
    euler_product,
    monomial_image,
    naive_gaps,
    naive_members,
    naive_partition_count,
    sparse_add,
    sparse_mul,
)
from test_bivariate import B, PRIME_DENOMINATORS, bp, divisor, random_coprime_pair, random_poly
from test_graded_hilbert import bump_denumerant

P = gp.IntPolynomial


def gens(*xs):
    return sc.validate_generators(list(xs))


def poly_from_exponents(exponents):
    coeffs = [0] * (max(exponents) + 1)
    for e in exponents:
        coeffs[e] = 1
    return P(coeffs)


class TestIntPolynomial:
    def test_trailing_zeros_stripped(self):
        assert P([1, 2, 0, 0]).coefficients == (1, 2)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            P([1.5])

    @pytest.mark.parametrize(
        "coeffs",
        [[Fraction(1, 2)], [Fraction(2)], [3, 0.0], [1, Fraction(1, 2), 0], [0.5, -0.5],
         [Fraction(1, 2), Fraction(-1, 2)], [10**400, 1.5]],
    )
    def test_non_int_rejected(self, coeffs):
        with pytest.raises(TypeError):
            P(coeffs)

    def test_arithmetic(self):
        f = P([1, 2])
        g = P([0, 0, 3])
        assert (f + g).coefficients == (1, 2, 3)
        assert (f * g).coefficients == (0, 0, 3, 6)
        assert (g - g).coefficients == ()

    def test_monomial(self):
        assert P.monomial(0) == P.one()
        assert P.monomial(3).coefficients == (0, 0, 0, 1)

    @pytest.mark.parametrize("exponent", [-1, -5])
    def test_negative_monomial_exponent_rejected(self, exponent):
        with pytest.raises(ValueError, match="monomial exponent must be nonnegative"):
            P.monomial(exponent)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


# small and huge coefficients of both signs, then 0-3 trailing zeros
coefficient_lists = st.builds(
    lambda coeffs, zeros: coeffs + [0] * zeros,
    st.lists(st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30)), max_size=12),
    st.integers(0, 3),
)


class TestIntPolynomialAgainstSympy:
    @staticmethod
    def coefficients(poly):
        """Ascending coefficients of a sympy.Poly, trailing zeros stripped."""
        coeffs = [int(c) for c in reversed(poly.all_coeffs())]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return tuple(coeffs)

    @settings(max_examples=200, deadline=None)
    @given(f=coefficient_lists, g=coefficient_lists, negate=st.booleans())
    def test_arithmetic(self, sympy, f, g, negate):
        if negate:  # g = -f padded with zeros: the sum cancels to zero
            g = [-c for c in f] + [0] * len(g)
        q = sympy.Symbol("q")
        sf, sg = (sympy.Poly(list(reversed(c)) or [0], q) for c in (f, g))
        assert (P(f) + P(g)).coefficients == self.coefficients(sf + sg)
        assert (P(f) - P(g)).coefficients == self.coefficients(sf - sg)
        assert (P(f) * P(g)).coefficients == self.coefficients(sf * sg)
        if negate:
            assert (P(f) + P(g)).coefficients == ()
            assert (P(f) - P(f + [0] * len(g))).coefficients == ()


class TestGapPolynomial:
    def test_3_5(self):
        f = gp.gap_polynomial(gens(3, 5))
        assert f == poly_from_exponents(naive_gaps((3, 5), 12))
        assert f == poly_from_exponents([1, 2, 4, 7])

    def test_gap_free_is_zero(self):
        assert gp.gap_polynomial(gens(1, 2)) == P()

    def test_2_3(self):
        assert gp.gap_polynomial(gens(2, 3)) == P([0, 1])

    def test_evaluation_at_one_is_genus(self):
        for elements in [(3, 5), (2, 7), (3, 4, 5), (4, 7, 9)]:
            A = gens(*elements)
            assert sum(gp.gap_polynomial(A).coefficients) == sc.build_table(A).genus


class TestFunctionalEquation:
    def test_examples(self):
        assert gp.verify_functional_equation(3, 5)
        assert gp.verify_functional_equation(2, 3)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            gp.verify_functional_equation(4, 6)

    def test_equal_rejected(self):
        with pytest.raises(ValueError):
            gp.verify_functional_equation(3, 3)

    def test_one_admitted(self):
        # S(1, b) has no gaps: f_A = 0 and both sides are (q - 1)(q^b - 1)
        assert gp.verify_functional_equation(1, 5)
        assert gp.verify_functional_equation(5, 1)

    def test_sweep_to_40(self):
        for a in range(2, 41):
            for b in range(a + 1, 41):
                if math.gcd(a, b) == 1:
                    assert gp.verify_functional_equation(a, b)
                    assert dense_functional_equation(a, b)
                    assert dense_reciprocal_duality(a, b)


class TestClearedIdentityCanFail:
    """A gap polynomial with one coefficient flipped breaks both identities."""

    @pytest.mark.parametrize("a, b", [(3, 5), (4, 7), (5, 9)])
    def test_both_identities_fail(self, monkeypatch, a, b):
        true_f = gp.gap_polynomial(gens(a, b))
        coeffs = list(true_f.coefficients)
        coeffs[1] ^= 1  # 1 is a gap of every admissible pair; the degree F stays
        wrong_f = P(coeffs)
        monkeypatch.setattr(gp, "gap_polynomial", lambda A: wrong_f)
        assert not gp.verify_functional_equation(a, b)
        wrong = {n: c for n, c in enumerate(wrong_f.coefficients) if c}
        assert dense_reciprocal_duality(a, b, f={n: c for n, c in enumerate(true_f.coefficients) if c})
        assert not dense_reciprocal_duality(a, b, f=wrong)
        # with g_A given to match, only the cleared identity can reject it
        F = max(wrong)
        assert not dense_reciprocal_duality(a, b, f=wrong, g={F - n: c for n, c in wrong.items()})


class TestFrobeniusFromDegree:
    """deg f_A = F(A): the top coefficient of f_A sits at the Frobenius number."""

    def test_examples(self):
        for elements, F in [((3, 5), 7), ((2, 3), 1), ((5, 7), 23), ((3, 4, 5), 2)]:
            assert len(gp.gap_polynomial(gens(*elements)).coefficients) - 1 == F

    def test_degree_law_sweep(self):
        for a in range(2, 41):
            for b in range(a + 1, 41):
                if math.gcd(a, b) == 1:
                    f = gp.gap_polynomial(gens(a, b))
                    assert len(f.coefficients) - 1 == a * b - a - b


def sets_with_three_or_four_generators(seed, count):
    """count coprime sets with k = 3 or 4 and generators from 2..24."""
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        elements = sorted(rng.sample(range(2, 25), rng.choice((3, 4))))
        if math.gcd(*elements) == 1:
            sets.append(tuple(elements))
    return sets


class TestIndicatorsAgainstNaiveMembers:
    """f_A of k = 3 and 4 sets against brute-force membership."""

    @pytest.mark.parametrize(
        "elements", [(4, 5, 6), (3, 4, 5), (6, 7, 8, 9)] + sets_with_three_or_four_generators(11, 25)
    )
    def test_against_naive_members(self, elements):
        A = gens(*elements)
        member = naive_members(elements, (elements[-1] - 1) * sum(elements[:-1]))
        F = max(n for n, m in enumerate(member) if not m)
        assert gp.gap_polynomial(A) == P([0 if m else 1 for m in member[: F + 1]])


class TestTruncatedSeries:
    def test_mul_truncates(self):
        g = gh.TruncatedSeries(5, [1] * 6)
        assert (g * g).coefficients == (1, 2, 3, 4, 5, 6)


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

    def test_dim_ring_matches_naive_members(self):
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

    def test_order_over_cap_refused(self, monkeypatch):
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "50")
        full, _, _ = gh.graded_dims(3, 5, 49)
        assert len(full) == 50
        message = "series of 51 coefficients exceeds SEMIGROUP_MAX_BOUND=50"
        with pytest.raises(sc.BoundTooLargeError, match=message):
            gh.graded_dims(3, 5, 50)


class TestWeightOne:
    """graded_dims and the dense functional equation of a pair with a 1: S(1, b) is every n >= 0."""

    @pytest.mark.parametrize("b", range(2, 40))
    def test_against_the_oracles(self, b):
        order = 3 * b
        full = tuple(euler_product(1, b, order))
        kernel = (0,) * b + full[: order + 1 - b]
        for a, c in [(1, b), (b, 1)]:
            assert gh.graded_dims(a, c, order) == (full, (1,) * (order + 1), kernel)
            assert gp.verify_functional_equation(a, c)


def dense_failure(a, b, nmax):
    """The least n <= nmax with dim E_n != dim R_n + dim K_n in the tables of graded_dims."""
    full, ring, kernel = gh.graded_dims(a, b, nmax)
    return next((n for n, (e, r, k) in enumerate(zip(full, ring, kernel)) if e != r + k), None)


class TestExactSequenceFaults:
    """A fault in either package table that graded_dims reads shows in its first failure.

    The faults are those of the live test of the same name, which moves Sylvester's threshold
    to the same degrees instead.
    """

    @pytest.mark.parametrize("a, b", [(3, 5), (4, 7), (5, 9)])
    def test_flipped_ring_indicator_fails(self, monkeypatch, a, b):
        true_indicator = sc.SemigroupTable.gap_indicator

        def flipped(table, nmax):
            is_gap = true_indicator(table, nmax)
            is_gap[1] ^= 1  # 1 is a gap of every admissible pair
            return is_gap

        monkeypatch.setattr(sc.SemigroupTable, "gap_indicator", flipped)
        assert dense_failure(a, b, 3 * a * b) == 1
        assert dense_failure(a, b, 3 * a * b) is not None

    @pytest.mark.parametrize("a, b", [(3, 5), (4, 7), (5, 9)])
    def test_bumped_denumerant_fails(self, monkeypatch, a, b):
        # ab is the first degree where dim K_n is nonzero
        bump_denumerant(monkeypatch, lambda a, b: a * b)
        assert dense_failure(a, b, 3 * a * b) == a * b
        assert dense_failure(a, b, 3 * a * b) is not None

    @pytest.mark.parametrize("a, b", [(3, 5), (4, 7), (5, 9)])
    def test_denumerant_bumped_below_ab_fails(self, monkeypatch, a, b):
        # p(a) = 1 is a degree where dim K_n is zero, so dim E_n alone must match dim R_n
        bump_denumerant(monkeypatch, lambda a, b: a)
        assert dense_failure(a, b, 3 * a * b) == a

    @pytest.mark.parametrize("a, b", [(3, 5), (4, 7), (5, 9)])
    def test_fault_at_2ab_is_missed_below_it(self, monkeypatch, a, b):
        # a dense pass stopped below 2ab misses the fault
        bump_denumerant(monkeypatch, lambda a, b: 2 * a * b)
        assert dense_failure(a, b, 3 * a * b) == 2 * a * b
        assert dense_failure(a, b, a * b + 10) is None


class TestPhiEvaluate:
    def test_divisor_maps_to_zero(self):
        for a, b in [(2, 3), (3, 5), (4, 9)]:
            assert biv.phi_evaluate(B(divisor(a, b)), a, b) == {}

    def test_kernel_member_maps_to_empty_dict(self):
        assert biv.phi_evaluate(biv.parse_bivariate("x^3 - y^2"), 2, 3) == {}

    def test_unital(self):
        assert biv.phi_evaluate(bp((0, 0, 1)), 3, 5) == {0: 1}

    def test_xy(self):
        assert biv.phi_evaluate(bp((1, 1, 1)), 3, 5) == {8: 1}

    def test_huge_exponent_stays_sparse(self):
        g = biv.parse_bivariate("x^1000000000000 - y^3")
        assert biv.phi_evaluate(g, 2, 3) == {2 * 10**12: 1, 9: -1}

    def test_homomorphism_laws(self):
        rng = random.Random(22)
        for _ in range(30):
            a, b = random_coprime_pair(rng)
            g1, g2 = random_poly(rng, 10, 8), random_poly(rng, 10, 8)
            phi1, phi2 = biv.phi_evaluate(g1, a, b), biv.phi_evaluate(g2, a, b)
            assert biv.phi_evaluate(B(sparse_add(g1.terms, g2.terms)), a, b) == sparse_add(phi1, phi2)
            assert biv.phi_evaluate(B(bivariate_mul(g1.terms, g2.terms)), a, b) == sparse_mul(phi1, phi2)

    def test_large_lcm_denominators(self):
        # phi_evaluate sums integer numerators but returns Fractions only
        for a, b in [(2, 3), (3, 5), (1, 4)]:
            _, r = biv.divide(PRIME_DENOMINATORS, a, b)
            image = biv.phi_evaluate(PRIME_DENOMINATORS, a, b)
            assert image and all(type(c) is Fraction for c in image.values())
            assert image == biv.phi_evaluate(r, a, b) == monomial_image(PRIME_DENOMINATORS.terms, a, b)

    def test_members_map_to_empty_dict(self):
        for a, b in [(2, 3), (3, 5), (1, 4)]:
            member = B(bivariate_mul(PRIME_DENOMINATORS.terms, divisor(a, b)))
            assert biv.phi_evaluate(member, a, b) == {}

    @pytest.mark.parametrize(
        "a, b, message",
        [
            (0, 0, "pair must be distinct, got a = b = 0"),
            (-2, 1, "generators must be positive, got -2"),
            (0, 3, "generators must be positive, got 0"),
        ],
    )
    def test_nonpositive_weights_rejected(self, a, b, message):
        with pytest.raises(ValueError) as info:
            biv.phi_evaluate(bp((1, 0, 1)), a, b)
        assert str(info.value) == message
