import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    OPTIONAL_GROUP_TERM_RE,
    WalkParseError,
    binomial_normal_form,
    bivariate_mul,
    monomial_image,
    poly_from_terms,
    sparse_add,
    term_matches,
    walk_parse,
)
from semialg import bivariate_algebra as biv
from semialg.semigroup_core import BoundTooLargeError

B = poly_from_terms


def bp(*triples):
    """The polynomial of the (i, j, coefficient) triples, the coefficients of a repeated (i, j) summed."""
    terms = {}
    for i, j, c in triples:
        terms[i, j] = terms.get((i, j), 0) + c
    return B(terms)


def divisor(a, b):
    """The terms of x^b - y^a."""
    return {(b, 0): 1, (0, a): -1}


def rebuilt(q, r, a, b):
    """The terms of q*(x^b - y^a) + r, by the oracles."""
    return sparse_add(bivariate_mul(q.terms, divisor(a, b)), r.terms)


def random_poly(rng, max_terms=30, max_exp=12, max_coeff=100):
    n_terms = rng.randint(1, max_terms)
    return bp(
        *(
            (
                rng.randint(0, max_exp),
                rng.randint(0, max_exp),
                Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, max_coeff)),
            )
            for _ in range(n_terms)
        )
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


def shaped_expression(rng, monomials, twice=False):
    """Text and summed terms of random terms written as kernel-division writes them, e.g. `9/4*x^3*y^7`.

    Coefficients are +-c/q with c in 1..9 and q in 1..4, exponents i <= 24 and
    j <= 120, in shuffled order; with twice set, each monomial is written twice.
    """
    written = []
    for m in rng.sample([(i, j) for i in range(25) for j in range(121)], monomials):
        written += [(m, Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((1, -1)))
                    for _ in range(2 if twice else 1)]
    rng.shuffle(written)
    text, terms = "", {}
    for (i, j), c in written:
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in (("x", i), ("y", j)) if e)
        body = str(abs(c)) if not mono else (mono if abs(c) == 1 else f"{abs(c)}*{mono}")
        text += f" {'-' if c < 0 else '+'} {body}" if text else ("-" if c < 0 else "") + body
        terms[i, j] = terms.get((i, j), 0) + c
    return text, terms


coprime_pairs = st.tuples(st.integers(1, 9), st.integers(1, 9)).filter(
    lambda p: p[0] != p[1] and math.gcd(*p) == 1
)


def assert_parse_refused(text, column):
    """parse_bivariate refuses text at column, with the same message as walk_parse."""
    with pytest.raises(biv.ParseError) as exc:
        biv.parse_bivariate(text)
    assert exc.value.column == column
    with pytest.raises(WalkParseError) as walked:
        walk_parse(text)
    assert (str(walked.value), walked.value.column) == (str(exc.value), column)


class TestExactCoefficients:
    """Int and Fraction coefficients are kept exact, and `terms` shows each as a Fraction."""

    def test_ints_and_fractions_kept_exact(self):
        g = bp((1, 0, 3), (0, 1, Fraction(1, 3)), (1, 0, Fraction(-3)))
        assert g == bp((0, 1, Fraction(1, 3)))
        assert all(type(c) is Fraction for c in B({(0, 0): 7, (1, 1): Fraction(2, 4)}).terms.values())

    @pytest.mark.parametrize(
        "text, column",
        [("0.1*x", 2), ("2.0*x", 2), ("1e3*x", 2), ("x + 0.5", 6), ("y - 3.25*x^2", 6)],
    )
    def test_inexact_coefficient_text_rejected(self, text, column):
        # the parser is the one checked way in: a decimal or exponent numeral is refused, never rounded
        assert_parse_refused(text, column)


class TestExponents:
    """A term key is a pair of nonnegative ints, stored as a plain (i, j) tuple."""

    def test_keys_are_plain_tuples(self):
        g = biv.parse_bivariate("3*x^4*y - 1/2*x^2 + y^3 + 7")
        q, r = biv.divide(g, 2, 3)
        for p in (g, q, r, B({(1, 2): 1}), bp((4, 1, 1))):
            for m in p.terms:
                assert type(m) is tuple and [type(e) for e in m] == [int, int]

    @pytest.mark.parametrize("text, column", [("x^-1", 2), ("y^-3", 2), ("3*x^-2*y", 4)])
    def test_negative_exponent_text_rejected(self, text, column):
        assert_parse_refused(text, column)

    @pytest.mark.parametrize("text, column", [("x^1.5", 4), ("x^2.0", 4), ("x*y^0.5", 6), ("x^1e2", 4)])
    def test_non_int_exponent_text_rejected(self, text, column):
        assert_parse_refused(text, column)


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


class TestDivide:
    def test_self_division(self):
        q, r = biv.divide(B(divisor(2, 3)), 2, 3)
        assert q == bp((0, 0, 1))
        assert r.is_zero()

    def test_hand_example(self):
        # x^4 = x*(x^3 - y^2) + x*y^2
        q, r = biv.divide(bp((4, 0, 1)), 2, 3)
        assert q == bp((1, 0, 1))
        assert r == bp((1, 2, 1))
        assert rebuilt(q, r, 2, 3) == {(4, 0): 1}

    def test_indivisible_passes_through(self):
        g = bp((2, 3, 1))
        q, r = biv.divide(g, 2, 3)
        assert q.is_zero()
        assert r == g

    def test_zero_divisor_rejected(self):
        # x^0 - y^0 is the zero polynomial: weights 0, 0 are refused
        with pytest.raises(ValueError, match=r"^pair must be distinct, got a = b = 0$"):
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
            q, r = biv.divide(g, a, b)
            assert rebuilt(q, r, a, b) == g.terms
            assert all(i < b for i, _ in r.terms)


class TestDivisionStepCap:
    """divide caps its quotient's numerator words, steps times den's words, at SEMIGROUP_MAX_BOUND before any work."""

    @pytest.mark.parametrize(
        "a, b", [(2, 3), (2, 5), (3, 2)], ids=["x^3 - y^2", "x^5 - y^2", "x^2 - y^3"]
    )
    def test_cap_steps_answered_one_more_refused(self, monkeypatch, a, b):
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "100")
        g = bp((100 * b, 0, 1))  # x^(100b): 100 steps of x^b
        q, r = biv.divide(g, a, b)
        assert len(q.terms) == 100
        assert rebuilt(q, r, a, b) == g.terms
        refusal = "quotient of 101 numerator words exceeds SEMIGROUP_MAX_BOUND=100"
        with pytest.raises(BoundTooLargeError, match=refusal):
            biv.divide(bp((101 * b, 0, 1)), a, b)

    def test_huge_exponent_refused_at_once(self, monkeypatch):
        monkeypatch.delenv("SEMIGROUP_MAX_BOUND", raising=False)
        refusal = "quotient of 1000000000000 numerator words exceeds SEMIGROUP_MAX_BOUND=10000000"
        with pytest.raises(BoundTooLargeError, match=refusal):
            biv.divide(bp((3 * 10**12, 0, 1)), 2, 3)

    def test_denominator_words_at_cap_answered_one_more_refused(self, monkeypatch):
        # one step, x^3 over x^3 - y^2, whose numerator is as long as den: 6,400 bits are
        # 100 words of 64 bits, and 6,401 bits are 101
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "100")
        g = bp((3, 0, Fraction(1, 2**6399 + 1)))
        q, r = biv.divide(g, 2, 3)
        assert rebuilt(q, r, 2, 3) == g.terms
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
    """divide works over integer numerators but returns Fractions only."""

    def test_large_lcm_denominators(self):
        for a, b in [(2, 3), (3, 5), (1, 4)]:
            q, r = biv.divide(PRIME_DENOMINATORS, a, b)
            assert all_fractions(q, r)
            assert rebuilt(q, r, a, b) == PRIME_DENOMINATORS.terms
            assert r.terms == binomial_normal_form(PRIME_DENOMINATORS.terms, a, b)
            image = monomial_image(PRIME_DENOMINATORS.terms, a, b)
            assert image and image == monomial_image(r.terms, a, b)

    def test_integral_quotient_and_remainder_are_fractions(self):
        q, r = biv.divide(bp((4, 0, 2), (0, 0, 6)), 2, 3)
        assert q == bp((1, 0, 2)) and r == bp((1, 2, 2), (0, 0, 6))
        assert all_fractions(q, r)

    def test_members_map_to_empty_dict(self):
        for a, b in [(2, 3), (3, 5), (1, 4)]:
            member = B(bivariate_mul(PRIME_DENOMINATORS.terms, divisor(a, b)))
            assert monomial_image(member.terms, a, b) == {}
            assert biv.in_kernel(member, a, b)
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
    def test_constructor(self, terms):
        p = B(terms)
        assert_canonical(p)
        assert p.terms == {m: Fraction(c) for m, c in terms.items() if c}

    @given(raw_terms, st.integers(1, 30))
    def test_constructor_divides_out_a_common_factor(self, terms, k):
        p = B(terms)
        assert biv.BivariatePolynomial(k * p.den, {m: k * c for m, c in p.nums.items()}) == p

    @given(sparse_polys(), coprime_pairs)
    def test_parse_and_divide(self, p, pair):
        for r in (biv.parse_bivariate(str(p)), *biv.divide(p, *pair)):
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
        for z in (biv.parse_bivariate("x - x"), B(), B({(2, 1): 0}), biv.BivariatePolynomial(5, {(3, 3): 0})):
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
            biv.divide(B(bivariate_mul({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)}, divisor(2, 3))), 2, 3)[0],
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
        member = B(bivariate_mul(h.terms, divisor(a, b)))
        assert len(member.nums) == 200 and member.den > 1

        def no_fraction(*args, **kwargs):
            raise AssertionError("a Fraction was built")

        # bivariate_algebra imports fractions where it builds a Fraction, so patch the module itself
        monkeypatch.setattr("fractions.Fraction", no_fraction)
        with pytest.raises(AssertionError, match="a Fraction was built"):
            member.terms
        text = str(member)  # the text form reads the JSON triples: no Fraction either
        g = biv.parse_bivariate(text)
        assert g == member
        q, r = biv.divide(g, a, b)
        assert q == h and r.is_zero()
        assert len(biv.bivariate_to_json(q)) == 100 and biv.bivariate_to_json(r) == []
        assert biv.in_kernel(g, a, b, "evaluate")
        assert biv.in_kernel(g, a, b, "divide")
        # a non-member has nonzero image terms, and the kernel test builds no Fraction for them either
        assert not biv.in_kernel(biv.parse_bivariate(text + " + y"), a, b, "evaluate")


class TestDivideAgainstBinomialNormalForm:
    """Division by x^b - y^a against the closed form in tests/oracles.py."""

    @staticmethod
    def check(g, a, b):
        q, r = biv.divide(g, a, b)
        assert r.terms == binomial_normal_form(g.terms, a, b)
        assert rebuilt(q, r, a, b) == g.terms
        assert all(i < b for i, _ in r.terms)

    @given(sparse_polys(), coprime_pairs)
    def test_random_inputs(self, g, pair):
        self.check(g, *pair)

    def test_1600_terms(self):
        g = B(
            {
                (i, j): Fraction(((7 * i + 3 * j) % 19 + 1) * (-1) ** (i + j), 1 + (i + j) % 4)
                for i in range(40)
                for j in range(40)
            }
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
        x, y = sympy.symbols("x y")

        def to_sympy(p):
            return sympy.Add(
                *(sympy.Rational(c.numerator, c.denominator) * x**i * y**j for (i, j), c in p.terms.items())
            )

        def from_sympy(expr):
            return {k: Fraction(int(c.p), int(c.q)) for k, c in sympy.Poly(expr, x, y).as_dict().items()}

        quotients, remainder = sympy.reduced(to_sympy(g), [x**b - y**a], x, y, order="lex")
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


class TestInKernel:
    def test_divisor_in_kernel(self):
        for method in ("evaluate", "divide"):
            assert biv.in_kernel(B(divisor(3, 5)), 3, 5, method)

    def test_x_not_in_kernel(self):
        for method in ("evaluate", "divide"):
            assert not biv.in_kernel(bp((1, 0, 1)), 2, 3, method)

    def test_product_example(self):
        g = B(bivariate_mul(divisor(2, 3), {(1, 0): 1, (0, 4): 1}))
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

    def test_huge_exponent_division_answers(self, monkeypatch):
        # the division route reads only the remainder, one pass over the terms: no cap at any degree
        monkeypatch.delenv("SEMIGROUP_MAX_BOUND", raising=False)
        g = biv.parse_bivariate("x^3000000000000 - y^2000000000000")
        assert biv.in_kernel(g, 2, 3, "divide") is True
        assert biv.in_kernel(g, 2, 3, "divide") == biv.in_kernel(g, 2, 3, "evaluate")
        g = biv.parse_bivariate("x^1000000000000 - y^3")
        assert biv.in_kernel(g, 2, 3, "divide") is False
        assert biv.in_kernel(g, 2, 3, "divide") == biv.in_kernel(g, 2, 3, "evaluate")

    def test_division_steps_are_summed_over_terms(self, monkeypatch):
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "7")
        g = bp((8, 5, 1), (5, 0, 2), (2, 9, 1))  # 4 + 2 + 1 steps by x^2 - y^a
        q, r = biv.divide(g, 3, 2)
        assert rebuilt(q, r, 3, 2) == g.terms
        assert biv.in_kernel(g, 3, 2, "divide") == biv.in_kernel(g, 3, 2, "evaluate")
        over = bp((8, 5, 1), (5, 0, 2), (2, 9, 1), (3, 0, 1))
        with pytest.raises(BoundTooLargeError, match="quotient of 8 numerator words exceeds SEMIGROUP_MAX_BOUND=7"):
            biv.divide(over, 3, 2)
        assert biv.in_kernel(over, 3, 2, "divide") == biv.in_kernel(over, 3, 2, "evaluate")

    def test_weight_one_allowed(self):
        for method in ("evaluate", "divide"):
            assert biv.in_kernel(bp((3, 0, 1), (0, 1, -1)), 1, 3, method)

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
            biv.in_kernel(bp((1, 0, 1)), a, b)
        assert str(info.value) == message

    def test_methods_agree_randomized(self):
        rng = random.Random(23)
        for _ in range(100):
            a, b = random_coprime_pair(rng)
            g = random_poly(rng)
            assert biv.in_kernel(g, a, b, "evaluate") == biv.in_kernel(g, a, b, "divide")
            h = random_poly(rng, 5, 6)
            multiple = B(bivariate_mul(h.terms, divisor(a, b)))
            assert biv.in_kernel(multiple, a, b, "evaluate")
            assert biv.in_kernel(multiple, a, b, "divide")


PARSER_ALPHABETS = ["xy0123456789^*/+- \t", "xy01^*/+- ", "xy12*/^+-  z@"]


class TestParser:
    def test_round_trip(self):
        rng = random.Random(24)
        for _ in range(50):
            g = random_poly(rng, 8, 6)
            assert biv.parse_bivariate(str(g)) == g

    def test_grammar(self):
        assert biv.parse_bivariate("x^3 - y^2") == B(divisor(2, 3))
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
        # a '*' needs a factor before it, so 3**y is 3* then *y, not 3y
        [("3*", 2), ("x*", 2), ("x^2*", 4), ("y + 2*x*", 8), ("x - 3*", 6), ("3**y", 2), ("2**x", 2)],
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

    @pytest.mark.parametrize(
        "text, message, column",
        [
            # the first faulty term is reported, whichever check finds it
            ("x + 3/0 + 1/" + "9" * 5000, "zero denominator in '3/0'", 5),
            ("x^" + "9" * 5000 + " + @", "numeral of 5000 digits is too long", 3),
            ("2*y - " + "7" * 4301 + "*x", "numeral of 4301 digits is too long", 7),
            ("1/" + "3" * 4400, "numeral of 4400 digits is too long", 3),
            ("x*y^" + "1" * 4500 + " - x", "numeral of 4500 digits is too long", 5),
        ],
        ids=["zero-den-first", "exponent-before-bad-char", "numerator", "denominator", "y-exponent"],
    )
    def test_numeral_past_the_int_digit_limit(self, text, message, column):
        with pytest.raises(biv.ParseError) as exc:
            biv.parse_bivariate(text)
        assert str(exc.value) == f"{message} (column {column})" and exc.value.column == column

    @pytest.mark.parametrize(
        "text, column",
        [("\u0663x", 1), ("x^\u0662", 2), ("x^2\u3000+ y", 4), ("\u3000x", 1), ("x\u3000", 2),
         ("x\xa0+ y", 2), ("\x1cx", 1)],
    )
    def test_non_ascii_digits_and_blanks_refused(self, text, column):
        # \d and \s read ASCII only, and only ASCII blanks are stripped, so a Unicode digit or
        # blank is refused wherever it stands, as walk_parse refuses it
        with pytest.raises(biv.ParseError) as exc:
            biv.parse_bivariate(text)
        assert exc.value.column == column
        with pytest.raises(WalkParseError) as walked:
            walk_parse(text)
        assert (str(walked.value), walked.value.column) == (str(exc.value), column)

    def test_ascii_blanks_stripped(self):
        assert biv.parse_bivariate(" \t\n\r\f\vx^2 +\ty \v") == bp((2, 0, 1), (0, 1, 1))

    @pytest.mark.parametrize("alphabet", PARSER_ALPHABETS)
    def test_agrees_with_the_term_by_term_parser(self, alphabet):
        """Same (den, nums), or the same message and column, as walk_parse on random strings."""

        def outcome(parse, text):
            try:
                g = parse(text)
            except (biv.ParseError, WalkParseError) as exc:
                return str(exc), exc.column
            return (g.den, g.nums) if isinstance(g, biv.BivariatePolynomial) else g

        rng = random.Random(f"parser:{alphabet}")
        answered = 0
        for _ in range(7000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))
            expected = outcome(walk_parse, text)
            assert outcome(biv.parse_bivariate, text) == expected, text
            answered += isinstance(expected[1], dict)
        assert answered > 100  # both outcomes occur: answers and errors

    @pytest.mark.parametrize("alphabet", PARSER_ALPHABETS)
    def test_term_regex_matches_its_optional_group_form(self, alphabet):
        """findall and every finditer match, groups and spans, equal those of the `?`-form regex."""
        rng = random.Random(f"term regex:{alphabet}")
        for _ in range(7000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))
            assert term_matches(biv._TERM_RE, text) == term_matches(OPTIONAL_GROUP_TERM_RE, text), text
            assert biv._TERM_RE.findall(text) == OPTIONAL_GROUP_TERM_RE.findall(text), text

    @pytest.mark.parametrize("seed", range(3))
    def test_term_regex_matches_its_optional_group_form_on_long_expressions(self, seed):
        text, terms = shaped_expression(random.Random(seed), 280)
        assert term_matches(biv._TERM_RE, text) == term_matches(OPTIONAL_GROUP_TERM_RE, text)
        assert biv._TERM_RE.findall(text) == OPTIONAL_GROUP_TERM_RE.findall(text)
        assert biv.parse_bivariate(text) == B(terms)

    def test_term_regex_has_no_optional_group(self):
        # a group followed by `?` compiles to sre's slower REPEAT loop; `(?:X|)` is the same language
        assert ")?" not in biv._TERM_RE.pattern

    @pytest.mark.parametrize(
        "text, triples",
        [
            ("x + x", [(1, 0, 2)]),
            ("x - x", []),
            ("1/2*x + 1/3*x - 5/6*x", []),
            ("2*x^3*y - x^3*y + 3", [(3, 1, 1), (0, 0, 3)]),
        ],
    )
    def test_repeated_monomials_are_summed(self, text, triples):
        g = biv.parse_bivariate(text)
        assert g == bp(*triples)
        assert (g.den, g.nums) == walk_parse(text)

    def test_every_monomial_written_twice(self):
        text, terms = shaped_expression(random.Random("twice"), 100, twice=True)
        assert len(terms) == 100 and text.count(" + ") + text.count(" - ") + 1 == 200
        g = biv.parse_bivariate(text)
        assert g == B(terms)
        assert (g.den, g.nums) == walk_parse(text)

    def test_printer_descending_lex(self):
        g = bp((0, 2, 1), (3, 0, 1), (1, 1, -2))
        assert str(g) == "x^3 - 2*x*y + y^2"

    @pytest.mark.parametrize(
        "triples, text",
        [
            # mixed denominators, an unreduced 6/4 and a constant term
            (((3, 0, Fraction(3, 4)), (1, 1, Fraction(-1, 3)), (0, 0, Fraction(1, 6)), (0, 2, -2)),
             "3/4*x^3 - 1/3*x*y - 2*y^2 + 1/6"),
            (((2, 0, Fraction(-1, 2)),), "-1/2*x^2"),
            (((1, 0, -1), (0, 0, Fraction(6, 4))), "-x + 3/2"),
            (((0, 0, -7),), "-7"),
            (((0, 0, 1), (5, 0, -10**30)), "-1000000000000000000000000000000*x^5 + 1"),
            ((), "0"),
        ],
    )
    def test_printer_coefficients(self, triples, text):
        g = bp(*triples)
        assert str(g) == text
        assert biv.parse_bivariate(text) == g


class TestToJson:
    def test_lex_descending_triples(self):
        g = bp((0, 2, 1), (3, 0, 1), (1, 1, -2), (0, 0, 5))
        assert biv.bivariate_to_json(g) == [[3, 0, 1], [1, 1, -2], [0, 2, 1], [0, 0, 5]]

    def test_integral_coefficients_are_ints_others_strings(self):
        g = bp((2, 0, Fraction(6, 3)), (1, 0, Fraction(-1, 2)), (0, 0, Fraction(10**30)))
        out = biv.bivariate_to_json(g)
        assert out == [[2, 0, 2], [1, 0, "-1/2"], [0, 0, 10**30]]
        assert [type(c) for _, _, c in out] == [int, str, int]
