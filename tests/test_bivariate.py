import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import binomial_normal_form, sparse_add, sparse_mul
from semialg import bivariate_algebra as biv
from semialg.semigroup_core import BoundTooLargeError

B = biv.BivariatePolynomial


def bp(*triples):
    return B.from_terms(triples)


def random_poly(rng, max_terms=30, max_exp=12, max_coeff=100):
    n_terms = rng.randint(1, max_terms)
    return B.from_terms(
        (
            rng.randint(0, max_exp),
            rng.randint(0, max_exp),
            Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, max_coeff)),
        )
        for _ in range(n_terms)
    )


def random_coprime_pair(rng, hi=9):
    while True:
        a, b = rng.randint(1, hi), rng.randint(1, hi)
        if a != b and math.gcd(a, b) == 1:
            return a, b


nonzero_fractions = st.builds(Fraction, st.integers(-100, 100).filter(bool), st.integers(1, 60))


def sparse_polys(max_terms=30, max_exp=12, min_terms=0):
    return st.dictionaries(
        st.tuples(st.integers(0, max_exp), st.integers(0, max_exp)),
        nonzero_fractions,
        min_size=min_terms,
        max_size=max_terms,
    ).map(B)


coprime_pairs = st.tuples(st.integers(1, 9), st.integers(1, 9)).filter(
    lambda p: p[0] != p[1] and math.gcd(*p) == 1
)


class TestExactCoefficients:
    """Coefficients are ints or Fractions only; anything else is a TypeError, never a rounded value."""

    @pytest.mark.parametrize("bad", [0.1, 2.0, Decimal("0.1"), Decimal(3)])
    def test_inexact_coefficient_rejected(self, bad):
        with pytest.raises(TypeError, match="ints or Fractions"):
            B({(1, 0): bad})
        with pytest.raises(TypeError, match="ints or Fractions"):
            B.from_terms([(1, 0, bad)])
        with pytest.raises(TypeError, match="ints or Fractions"):
            B.from_terms([(0, 1, 1), (1, 0, bad)])

    def test_float_beside_huge_int_rejected(self):
        with pytest.raises(TypeError, match="got float"):
            B({(2, 0): 10**400, (1, 0): 0.5})
        with pytest.raises(TypeError, match="got float"):
            B.from_terms([(2, 0, 10**400), (1, 0, 0.5)])

    def test_ints_and_fractions_kept_exact(self):
        g = B.from_terms([(1, 0, 3), (0, 1, Fraction(1, 3)), (1, 0, Fraction(-3))])
        assert g == bp((0, 1, Fraction(1, 3)))
        assert all(type(c) is Fraction for c in B({(0, 0): 7, (1, 1): Fraction(2, 4)}).terms.values())


class TestExponents:
    """A term key is a pair of nonnegative ints, stored as a plain (i, j) tuple."""

    @pytest.mark.parametrize("key", [(1.5, 2), (2, 2.0), (True, 0), (0, False), ("1", 0), (Fraction(1), 0)])
    def test_non_int_exponent_rejected(self, key):
        with pytest.raises(TypeError, match="exponents must be ints"):
            B({key: 1})
        with pytest.raises(TypeError, match="exponents must be ints"):
            B.from_terms([(*key, 1)])

    @pytest.mark.parametrize("key", [(-3, 2), (0, -1), (-1, -1)])
    def test_negative_exponent_rejected(self, key):
        with pytest.raises(ValueError, match="exponents must be nonnegative"):
            B({key: 1})
        with pytest.raises(ValueError, match="exponents must be nonnegative"):
            B({(4, 0): 1, key: 1})

    @pytest.mark.parametrize("key", [(1,), (1, 2, 3), (), 5, "xy", frozenset({1, 2})])
    def test_key_not_a_pair_rejected(self, key):
        with pytest.raises(ValueError, match="must be a pair"):
            B({key: 1})

    def test_zero_coefficient_key_still_checked(self):
        with pytest.raises(ValueError, match="nonnegative"):
            B({(-1, 0): 0})

    def test_keys_are_plain_tuples(self):
        g = biv.parse_bivariate("3*x^4*y - 1/2*x^2 + y^3 + 7")
        q, r = biv.divide(g, 2, 3)
        for p in (g, q, r, B({(1, 2): 1}), bp((4, 1, 1)), g * q, g - r):
            for m in p.terms:
                assert type(m) is tuple and [type(e) for e in m] == [int, int]


class TestMonomialOrder:
    def test_lex_compares_x_first(self):
        assert (0, 100) < (1, 0)
        assert (2, 1) > (1, 5)
        assert (2, 1) < (2, 3)

    @given(
        st.tuples(st.integers(0, 20), st.integers(0, 20)),
        st.tuples(st.integers(0, 20), st.integers(0, 20)),
        st.tuples(st.integers(0, 20), st.integers(0, 20)),
    )
    def test_multiplication_compatible(self, m1, m2, m):
        (i1, j1), (i2, j2), (i, j) = m1, m2, m
        if m1 < m2:
            assert (i1 + i, j1 + j) < (i2 + i, j2 + j)

    def test_sorted_terms_of_parsed_expression_lex_descending(self):
        g = biv.parse_bivariate("y^5 + 2*x*y^3 - x^3 + 7 + x*y - 4*x^3*y^2 + 1/3*y")
        keys = [m for m, _ in g.sorted_terms()]
        assert keys == [(3, 2), (3, 0), (1, 3), (1, 1), (0, 5), (0, 1), (0, 0)]
        assert all(m1 > m2 for m1, m2 in zip(keys, keys[1:]))


class TestDivide:
    def test_self_division(self):
        f = B.binomial_xb_minus_ya(2, 3)
        q, r = biv.divide(f, 2, 3)
        assert q == bp((0, 0, 1))
        assert r.is_zero()

    def test_hand_example(self):
        # x^4 = x*(x^3 - y^2) + x*y^2
        q, r = biv.divide(bp((4, 0, 1)), 2, 3)
        assert q == bp((1, 0, 1))
        assert r == bp((1, 2, 1))
        assert q * B.binomial_xb_minus_ya(2, 3) + r == bp((4, 0, 1))

    def test_indivisible_passes_through(self):
        g = bp((2, 3, 1))
        q, r = biv.divide(g, 2, 3)
        assert q.is_zero()
        assert r == g

    def test_zero_divisor_rejected(self):
        # x^0 - y^0 is the zero polynomial: weights 0, 0 are refused
        with pytest.raises(ValueError, match="must be positive"):
            biv.divide(bp((1, 0, 1)), 0, 0)

    @pytest.mark.parametrize(
        "i, j, a, b, quotient, remainder",
        [
            # x^7 = (x^4 + x*y^2)(x^3 - y^2) + x*y^4
            (7, 0, 2, 3, [(4, 0), (1, 2)], (1, 4)),
            # x^6*y = (x^4*y + x^2*y^4 + y^7)(x^2 - y^3) + y^10
            (6, 1, 3, 2, [(4, 1), (2, 4), (0, 7)], (0, 10)),
            # x^5*y^2 = (x^4*y^2 + x^3*y^4 + x^2*y^6 + x*y^8 + y^10)(x - y^2) + y^12
            (5, 2, 2, 1, [(4, 2), (3, 4), (2, 6), (1, 8), (0, 10)], (0, 12)),
        ],
    )
    def test_monomial_normal_form(self, i, j, a, b, quotient, remainder):
        q, r = biv.divide(bp((i, j, 1)), a, b)
        assert q == bp(*((qi, qj, 1) for qi, qj in quotient))
        assert r == bp((*remainder, 1))

    def test_random_division_correctness(self):
        rng = random.Random(20)
        for _ in range(100):
            a, b = random_coprime_pair(rng)
            g = random_poly(rng)
            f = B.binomial_xb_minus_ya(a, b)
            q, r = biv.divide(g, a, b)
            assert q * f + r == g
            assert all(i < b for i, _ in r.terms)


class TestDivisionStepCap:
    """divide counts its quotient steps, then their numerator words, against SEMIGROUP_MAX_BOUND before any work."""

    @pytest.mark.parametrize(
        "a, b", [(2, 3), (2, 5), (3, 2)], ids=["x^3 - y^2", "x^5 - y^2", "x^2 - y^3"]
    )
    def test_cap_steps_answered_one_more_refused(self, monkeypatch, a, b):
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "100")
        f = B.binomial_xb_minus_ya(a, b)
        g = bp((100 * b, 0, 1))  # x^(100b): 100 steps of x^b
        q, r = biv.divide(g, a, b)
        assert len(q.terms) == 100
        assert q * f + r == g
        refusal = "division of 101 steps exceeds SEMIGROUP_MAX_BOUND=100"
        with pytest.raises(BoundTooLargeError, match=refusal):
            biv.divide(bp((101 * b, 0, 1)), a, b)

    def test_huge_exponent_refused_at_once(self, monkeypatch):
        monkeypatch.delenv("SEMIGROUP_MAX_BOUND", raising=False)
        refusal = "division of 1000000000000 steps exceeds SEMIGROUP_MAX_BOUND=10000000"
        with pytest.raises(BoundTooLargeError, match=refusal):
            biv.divide(bp((3 * 10**12, 0, 1)), 2, 3)

    def test_denominator_words_at_cap_answered_one_more_refused(self, monkeypatch):
        # one step, x^3 over x^3 - y^2, whose numerator is as long as den: 6,400 bits are
        # 100 words of 64 bits, and 6,401 bits are 101
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "100")
        g = bp((3, 0, Fraction(1, 2**6399 + 1)))
        q, r = biv.divide(g, 2, 3)
        assert q * B.binomial_xb_minus_ya(2, 3) + r == g
        refusal = "quotient of 101 numerator words exceeds SEMIGROUP_MAX_BOUND=100"
        with pytest.raises(BoundTooLargeError, match=refusal):
            biv.divide(bp((3, 0, Fraction(1, 2**6400 + 1))), 2, 3)

    def test_thousand_prime_denominators_refused_at_once(self, monkeypatch):
        # 1/p_k*x^k for the first 1,000 primes: about 166,000 steps over a den of 11,000 bits
        monkeypatch.delenv("SEMIGROUP_MAX_BOUND", raising=False)
        primes = [p for p in range(2, 7920) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        assert len(primes) == 1000
        g = bp(*((k, 0, Fraction(1, p)) for k, p in enumerate(primes)))
        refusal = "quotient of 29411559 numerator words exceeds SEMIGROUP_MAX_BOUND=10000000"
        with pytest.raises(BoundTooLargeError, match=refusal):
            biv.divide(g, 2, 3)
        # kernel membership builds no quotient, so the same input is answered
        assert not biv.in_kernel(g, 2, 3, "divide")


# denominators with lcm 3*7*11*13*17*19 = 969969
PRIME_DENOMINATORS = bp(
    *(
        (k, 10 - k, Fraction((-1) ** k * (k + 2), d))
        for k, d in enumerate((3, 7, 11, 13, 17, 19, 21, 33, 969969))
    )
)


def all_fractions(*polys):
    return all(type(c) is Fraction for p in polys for c in p.terms.values())


class TestIntegerNumerators:
    """divide and phi_evaluate work over integer numerators but return Fractions only."""

    def test_large_lcm_denominators(self):
        for a, b in [(2, 3), (3, 5), (1, 4)]:
            f = B.binomial_xb_minus_ya(a, b)
            q, r = biv.divide(PRIME_DENOMINATORS, a, b)
            assert all_fractions(q, r)
            assert q * f + r == PRIME_DENOMINATORS
            assert r.terms == binomial_normal_form(PRIME_DENOMINATORS.terms, a, b)
            image = biv.phi_evaluate(PRIME_DENOMINATORS, a, b)
            assert image and all(type(c) is Fraction for c in image.values())
            assert image == biv.phi_evaluate(r, a, b)

    def test_integral_quotient_and_remainder_are_fractions(self):
        q, r = biv.divide(bp((4, 0, 2), (0, 0, 6)), 2, 3)
        assert q == bp((1, 0, 2)) and r == bp((1, 2, 2), (0, 0, 6))
        assert all_fractions(q, r)

    def test_members_map_to_empty_dict(self):
        for a, b in [(2, 3), (3, 5), (1, 4)]:
            member = PRIME_DENOMINATORS * B.binomial_xb_minus_ya(a, b)
            assert biv.phi_evaluate(member, a, b) == {}
            q, r = biv.divide(member, a, b)
            assert q == PRIME_DENOMINATORS and r.is_zero() and all_fractions(q)


def assert_canonical(p):
    assert p.den >= 1
    assert all(p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1


# coefficients as a caller may pass them: ints, zeros and unreduced Fractions
raw_coefficients = st.one_of(
    st.integers(-20, 20), st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60))
)
raw_terms = st.dictionaries(
    st.tuples(st.integers(0, 12), st.integers(0, 12)), raw_coefficients, max_size=30
)


class TestCommonDenominator:
    """Every route to a BivariatePolynomial gives the canonical den/nums form."""

    @given(raw_terms)
    def test_constructor_and_from_terms(self, terms):
        p = B(terms)
        assert_canonical(p)
        assert p.terms == {m: Fraction(c) for m, c in terms.items() if c}
        q = B.from_terms((i, j, c) for (i, j), c in terms.items())
        assert_canonical(q)
        assert q == p

    @given(sparse_polys(), sparse_polys(max_terms=8), coprime_pairs)
    def test_parse_divide_add_mul(self, p, h, pair):
        for r in (biv.parse_bivariate(str(p)), *biv.divide(p, *pair), p + h, p - h, p * h, p - p):
            assert_canonical(r)

    @pytest.mark.parametrize(
        "text, den, nums",
        [
            ("1/2*x + 1/3*y - 1/6*x*y", 6, {(1, 0): 3, (0, 1): 2, (1, 1): -1}),
            ("1/2*x + 3*y", 2, {(1, 0): 1, (0, 1): 6}),
            ("2/4*x", 2, {(1, 0): 1}),
            ("1/4*x - 1/4*x + 1/3*y", 3, {(0, 1): 1}),
            ("x - x", 1, {}),
            ("3/6*x + 1/6*x", 3, {(1, 0): 2}),
            ("1/3 - 1/3 + 2*y", 1, {(0, 1): 2}),
        ],
    )
    def test_parser_cases(self, text, den, nums):
        g = biv.parse_bivariate(text)
        assert (g.den, g.nums) == (den, nums)
        assert_canonical(g)

    def test_zero_polynomial_has_denominator_one(self):
        for z in (biv.parse_bivariate("x - x"), B(), B({(2, 1): 0}), bp((1, 0, Fraction(1, 3))) * B()):
            assert (z.den, z.nums) == (1, {}) and z.is_zero() and z == B()

    def test_many_prime_denominators(self):
        primes = [p for p in range(2, 600) if all(p % k for k in range(2, math.isqrt(p) + 1))]
        text = " + ".join(f"{k % 5 + 1}/{p}*x^{k % 7}*y^{k % 11}" for k, p in enumerate(primes))
        g = biv.parse_bivariate(text)
        expected = {}
        for k, p in enumerate(primes):
            m = (k % 7, k % 11)
            expected[m] = expected.get(m, 0) + Fraction(k % 5 + 1, p)
        assert_canonical(g)
        assert g.terms == expected and g == B(expected)

    def test_equal_polynomials_built_by_different_routes_are_equal(self):
        half_x_third_y = [
            biv.parse_bivariate("1/2*x + 1/3*y"),
            biv.parse_bivariate("1/3*y + 2/4*x + 0/7*y^2"),
            biv.parse_bivariate("1/6*x + 1/3*x + 1/3*y + x^2 - x^2"),
            B({(1, 0): Fraction(1, 2), (0, 1): Fraction(2, 6)}),
            bp((1, 0, Fraction(1, 4)), (0, 1, Fraction(1, 3)), (1, 0, Fraction(1, 4))),
            bp((1, 0, Fraction(1, 2))) + bp((0, 1, Fraction(1, 3))),
            bp((1, 0, 1), (0, 1, Fraction(2, 3))) - bp((1, 0, Fraction(1, 2)), (0, 1, Fraction(1, 3))),
            bp((1, 0, 3), (0, 1, 2)) * bp((0, 0, Fraction(1, 6))),
            biv.divide(bp((1, 0, Fraction(1, 2)), (0, 1, Fraction(1, 3))) * B.binomial_xb_minus_ya(2, 3), 2, 3)[0],
        ]
        for g in half_x_third_y:
            assert (g.den, g.nums) == (6, {(1, 0): 3, (0, 1): 2})
            assert g == half_x_third_y[0]

    def test_terms_is_a_read_only_view(self):
        g = biv.parse_bivariate("1/2*x + 3*y")
        view = g.terms
        assert view == {(1, 0): Fraction(1, 2), (0, 1): Fraction(3)}
        view[(5, 5)] = Fraction(1)
        assert g.terms == {(1, 0): Fraction(1, 2), (0, 1): Fraction(3)}
        with pytest.raises(AttributeError):
            g.terms = {}

    def test_kernel_routes_build_no_fraction(self, monkeypatch):
        a, b = 2, 3
        rng = random.Random(25)
        # x-degrees below b keep h*x^b and h*y^a apart, so the member has 200 terms
        keys = [(i, j) for i in range(b) for j in range(34)][:100]
        h = B({m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 5, 7))) for m in keys})
        member = h * B.binomial_xb_minus_ya(a, b)
        assert len(member.nums) == 200 and member.den > 1
        text = str(member)

        def no_fraction(*args, **kwargs):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(biv, "Fraction", no_fraction)
        with pytest.raises(AssertionError, match="a Fraction was built"):
            member.terms
        g = biv.parse_bivariate(text)
        assert g == member
        biv.check_division_steps(g, b)
        q, r = biv.divide(g, a, b)
        assert q == h and r.is_zero()
        assert len(biv.bivariate_to_json(q)) == 100 and biv.bivariate_to_json(r) == []
        assert biv.in_kernel(g, a, b, "evaluate")
        assert biv.in_kernel(g, a, b, "divide")


class TestDivideAgainstBinomialNormalForm:
    """Division by x^b - y^a against the closed form in tests/oracles.py."""

    @staticmethod
    def check(g, a, b):
        f = B.binomial_xb_minus_ya(a, b)
        q, r = biv.divide(g, a, b)
        assert r.terms == binomial_normal_form(g.terms, a, b)
        assert q * f + r == g
        assert all(i < b for i, _ in r.terms)

    @given(sparse_polys(), coprime_pairs)
    def test_random_inputs(self, g, pair):
        self.check(g, *pair)

    def test_1600_terms(self):
        g = B.from_terms(
            (i, j, Fraction(((7 * i + 3 * j) % 19 + 1) * (-1) ** (i + j), 1 + (i + j) % 4))
            for i in range(40)
            for j in range(40)
        )
        assert len(g.terms) == 1600
        self.check(g, 3, 5)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


class TestDivideAgainstSympy:
    """Quotient and remainder against sympy.reduced(..., order='lex').

    For one divisor the lex quotient and remainder are unique, so they must
    agree term by term.
    """

    @staticmethod
    def check(sympy, g, a, b):
        f = B.binomial_xb_minus_ya(a, b)
        x, y = sympy.symbols("x y")

        def to_sympy(p):
            return sympy.Add(
                *(sympy.Rational(c.numerator, c.denominator) * x**i * y**j for (i, j), c in p.terms.items())
            )

        def from_sympy(expr):
            return {k: Fraction(int(c.p), int(c.q)) for k, c in sympy.Poly(expr, x, y).as_dict().items()}

        quotients, remainder = sympy.reduced(to_sympy(g), [to_sympy(f)], x, y, order="lex")
        q, r = biv.divide(g, a, b)
        assert q.terms == from_sympy(quotients[0] if quotients else 0)
        assert r.terms == from_sympy(remainder)

    @settings(max_examples=40, deadline=None)
    @given(g=sparse_polys(), pair=coprime_pairs)
    def test_binomial_divisor(self, sympy, g, pair):
        self.check(sympy, g, *pair)

    def test_rational_dividends(self, sympy):
        for g in (PRIME_DENOMINATORS, biv.parse_bivariate("5/4*x^5*y - 7*x^2 + 1/6")):
            self.check(sympy, g, 2, 3)  # divisor x^3 - y^2
            assert all_fractions(*biv.divide(g, 2, 3))


class TestPhiEvaluate:
    def test_divisor_maps_to_zero(self):
        for a, b in [(2, 3), (3, 5), (4, 9)]:
            assert biv.phi_evaluate(B.binomial_xb_minus_ya(a, b), a, b) == {}

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
            assert biv.phi_evaluate(g1 + g2, a, b) == sparse_add(phi1, phi2)
            assert biv.phi_evaluate(g1 * g2, a, b) == sparse_mul(phi1, phi2)


class TestInKernel:
    def test_divisor_in_kernel(self):
        for method in ("evaluate", "divide"):
            assert biv.in_kernel(B.binomial_xb_minus_ya(3, 5), 3, 5, method)

    def test_x_not_in_kernel(self):
        for method in ("evaluate", "divide"):
            assert not biv.in_kernel(bp((1, 0, 1)), 2, 3, method)

    def test_product_example(self):
        g = B.binomial_xb_minus_ya(2, 3) * bp((1, 0, 1), (0, 4, 1))
        for method in ("evaluate", "divide"):
            assert biv.in_kernel(g, 2, 3, method)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            biv.in_kernel(bp((1, 0, 1)), 2, 4)

    def test_equal_rejected(self):
        with pytest.raises(ValueError):
            biv.in_kernel(bp((1, 0, 1)), 3, 3)

    def test_huge_exponent_not_in_kernel(self):
        g = biv.parse_bivariate("x^1000000000000 - y^3")
        assert not biv.in_kernel(g, 2, 3, "evaluate")

    def test_huge_exponent_cancelling_in_kernel(self):
        # x^(3N) and y^(2N) both map to t^(6N)
        g = biv.parse_bivariate("x^3000000000000 - y^2000000000000")
        assert biv.in_kernel(g, 2, 3, "evaluate")

    def test_huge_exponent_division_refused(self):
        g = biv.parse_bivariate("x^3000000000000 - y^2000000000000")
        with pytest.raises(BoundTooLargeError, match="division of 1000000000000 steps exceeds"):
            biv.in_kernel(g, 2, 3, "divide")

    def test_division_steps_are_summed_over_terms(self, monkeypatch):
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "7")
        g = bp((8, 5, 1), (5, 0, 2), (2, 9, 1))  # 4 + 2 + 1 steps by x^2 - y^a
        biv.check_division_steps(g, 2)
        assert biv.in_kernel(g, 3, 2, "divide") == biv.in_kernel(g, 3, 2, "evaluate")
        with pytest.raises(BoundTooLargeError, match="division of 8 steps exceeds SEMIGROUP_MAX_BOUND=7"):
            biv.check_division_steps(g + bp((3, 0, 1)), 2)

    def test_weight_one_allowed(self):
        for method in ("evaluate", "divide"):
            assert biv.in_kernel(bp((3, 0, 1), (0, 1, -1)), 1, 3, method)

    @pytest.mark.parametrize("a, b", [(0, 0), (-2, 1), (0, 3)])
    def test_nonpositive_weights_rejected(self, a, b):
        with pytest.raises(ValueError, match="exponent weights must be positive"):
            biv.in_kernel(bp((1, 0, 1)), a, b)
        with pytest.raises(ValueError, match="exponent weights must be positive"):
            biv.phi_evaluate(bp((1, 0, 1)), a, b)

    def test_methods_agree_randomized(self):
        rng = random.Random(23)
        for _ in range(100):
            a, b = random_coprime_pair(rng)
            g = random_poly(rng)
            assert biv.in_kernel(g, a, b, "evaluate") == biv.in_kernel(g, a, b, "divide")
            h = random_poly(rng, 5, 6)
            multiple = h * B.binomial_xb_minus_ya(a, b)
            assert biv.in_kernel(multiple, a, b, "evaluate")
            assert biv.in_kernel(multiple, a, b, "divide")


class TestParser:
    def test_round_trip(self):
        rng = random.Random(24)
        for _ in range(50):
            g = random_poly(rng, 8, 6)
            assert biv.parse_bivariate(str(g)) == g

    def test_grammar(self):
        assert biv.parse_bivariate("x^3 - y^2") == B.binomial_xb_minus_ya(2, 3)
        assert biv.parse_bivariate("3*x^2*y - 1/2*y^4 + 7") == bp(
            (2, 1, 3), (0, 4, Fraction(-1, 2)), (0, 0, 7)
        )
        assert biv.parse_bivariate("y^2 + x^3 - 2*y^2") == bp((3, 0, 1), (0, 2, -1))
        assert biv.parse_bivariate("0").is_zero()

    def test_parse_error_has_column(self):
        with pytest.raises(biv.ParseError) as exc:
            biv.parse_bivariate("x^2 + @")
        assert exc.value.column == 7

    def test_dangling_operator(self):
        with pytest.raises(biv.ParseError):
            biv.parse_bivariate("x +")

    @pytest.mark.parametrize(
        "text, column",
        [("3*", 2), ("x*", 2), ("x^2*", 4), ("y + 2*x*", 8), ("x - 3*", 6)],
    )
    def test_trailing_star_reported_at_its_column(self, text, column):
        with pytest.raises(biv.ParseError, match="dangling") as exc:
            biv.parse_bivariate(text)
        assert exc.value.column == column

    @pytest.mark.parametrize("text, column", [("1/0*x", 1), ("y + 3/0", 5)])
    def test_zero_denominator(self, text, column):
        with pytest.raises(biv.ParseError, match="zero denominator") as exc:
            biv.parse_bivariate(text)
        assert exc.value.column == column

    @pytest.mark.parametrize(
        "text, column",
        [("x - -y", 5), ("x + -y", 5), ("- -x", 3), ("x - +y", 5), ("-x+-y", 4), ("- - x", 3)],
    )
    def test_stacked_signs_rejected_at_second_sign(self, text, column):
        with pytest.raises(biv.ParseError, match="follows another sign") as exc:
            biv.parse_bivariate(text)
        assert exc.value.column == column

    def test_single_leading_minus(self):
        assert biv.parse_bivariate("-x + y") == bp((1, 0, -1), (0, 1, 1))
        assert biv.parse_bivariate("  -1/2*x^2") == bp((2, 0, Fraction(-1, 2)))

    @given(sparse_polys(max_terms=20, max_exp=15))
    def test_round_trip_property(self, p):
        assert biv.parse_bivariate(str(p)) == p

    @given(
        sparse_polys(max_terms=6, min_terms=1),
        sparse_polys(max_terms=6, min_terms=1),
        st.sampled_from(["stacked sign", "dangling *", "dangling +", "zero denominator"]),
        st.sampled_from(["+", "-"]),
    )
    def test_grammar_error_column_property(self, left, right, error, op):
        """An error spliced between two valid expressions is reported where it is."""
        head = str(left)
        if error == "stacked sign":
            text, column = f"{head} {op} -{right}", len(head) + 4
        elif error == "dangling *":
            text, column = f"{head} {op} 3*x* + {right}", len(head) + 7
        elif error == "dangling +":
            text, column = f"{head} {op}", len(head) + 2
        else:
            text, column = f"{head} {op} 5/0*y {op} {right}", len(head) + 4
        with pytest.raises(biv.ParseError) as exc:
            biv.parse_bivariate(text)
        assert exc.value.column == column

    def test_printer_descending_lex(self):
        g = bp((0, 2, 1), (3, 0, 1), (1, 1, -2))
        assert str(g) == "x^3 - 2*x*y + y^2"


class TestToJson:
    def test_lex_descending_triples(self):
        g = bp((0, 2, 1), (3, 0, 1), (1, 1, -2), (0, 0, 5))
        assert biv.bivariate_to_json(g) == [[3, 0, 1], [1, 1, -2], [0, 2, 1], [0, 0, 5]]

    def test_integral_coefficients_are_ints_others_strings(self):
        g = bp((2, 0, Fraction(6, 3)), (1, 0, Fraction(-1, 2)), (0, 0, Fraction(10**30)))
        out = biv.bivariate_to_json(g)
        assert out == [[2, 0, 2], [1, 0, "-1/2"], [0, 0, 10**30]]
        assert [type(c) for _, _, c in out] == [int, str, int]
