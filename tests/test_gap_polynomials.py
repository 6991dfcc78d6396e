import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semialg import gap_polynomials as gp
from semialg import graded_hilbert as gh
from semialg import semigroup_core as sc

from oracles import dense_reciprocal_duality, naive_gaps, naive_members

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
        wrong = dict(wrong_f.terms())
        assert dense_reciprocal_duality(a, b, f=dict(true_f.terms()))
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


class TestKPolynomial:
    """K(q) = N(q) * prod_{i>=2} (1 - q^{a_i}) from the Apery set, against the dense route and oracles."""

    def test_pairs(self):
        assert gh.k_polynomial(sc.build_table(gens(3, 5))) == {0: 1, 15: -1}
        assert gh.k_polynomial(sc.build_table(gens(2, 3))) == {0: 1, 6: -1}

    def test_sparse_checks_match_the_dense_ones(self):
        pairs = [(a, b) for a in range(2, 41) for b in range(a + 1, 41) if math.gcd(a, b) == 1]
        # a weight of 1: S(1, b) = N has F = -1 and f_A = g_A = 0
        pairs += [p for b in range(2, 13) for p in ((1, b), (b, 1))]
        for a, b in pairs:
            checks = gh.pair_checks(a, b)
            assert checks["functional_equation"] == gp.verify_functional_equation(a, b)
            assert checks["reciprocal_duality"] == dense_reciprocal_duality(a, b)

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(2, 60), min_size=3, max_size=4).filter(lambda s: math.gcd(*s) == 1))
    def test_frobenius_terms_and_root_at_one(self, elements):
        A = gens(*elements)
        table = sc.build_table(A)
        k = gh.k_polynomial(table)
        # Schur's bound F <= (a1 - 1)(ak - 1) - 1; a1 members in a row at the top confirm it
        a1, ak = A.elements[0], A.elements[-1]
        limit = (a1 - 1) * (ak - 1) + a1
        F = max(naive_gaps(A.elements, limit), default=-1)
        assert F <= limit - a1
        assert max(k) - sum(A.elements) == table.frobenius == F
        if A.k == 3:
            assert len(k) <= 6  # Herzog 1970: at most three relations and two syzygies
        assert sum(k.values()) == 0  # K(1) = 0

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.integers(2, 60), min_size=3, max_size=4).filter(lambda s: math.gcd(*s) == 1))
    def test_vanishes_to_order_k_minus_1_at_one(self, sympy, elements):
        # H_R has a simple pole at q = 1 and each of the k factors (1 - q^{a_i}) a simple zero
        A = gens(*elements)
        k = gh.k_polynomial(sc.build_table(A))
        q = sympy.Symbol("q")
        poly = sympy.Poly(sum(c * q**e for e, c in k.items()), q)
        quotient, remainder = sympy.div(poly, sympy.Poly((q - 1) ** (A.k - 1), q))
        assert remainder.is_zero
        assert quotient.eval(1) != 0
