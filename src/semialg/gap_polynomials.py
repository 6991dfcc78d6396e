"""Gap generating polynomials, the K-polynomial, and the two-generator functional equation.

The central objects are f_A(q), whose monomials enumerate the gaps of S(A),
its reciprocal, the complementary membership polynomial g_A(q), and the
sparse K-polynomial read off the Apery set. All coefficient arithmetic is
exact. The dense checks verify_functional_equation and reciprocal_duality
are kept as library API and as the oracle the K-polynomial is tested against.
"""

from __future__ import annotations

from itertools import compress, starmap, zip_longest
from operator import add, sub

from .semigroup_core import COMPLEMENT, GeneratorSet, SemigroupTable, build_table, validate_pair


class IntPolynomial:
    """Dense univariate polynomial with integer coefficients, lowest degree first.

    Trailing zeros are stripped; a float, Fraction or any other non-int
    coefficient raises TypeError.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients=()):
        # via a list: tuple() of an iterator grows by resizing, which fragments the heap
        coeffs = list(coefficients)
        try:  # a sum of ints is an int; one float or Fraction makes it a float or Fraction
            exact = type(sum(coeffs)) is int
        except OverflowError:  # a float met an int too large to convert
            exact = False
        if not exact:
            raise TypeError("coefficients must be ints")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, exponent: int) -> "IntPolynomial":
        """q^exponent; a negative exponent raises ValueError."""
        if exponent < 0:
            raise ValueError(f"monomial exponent must be nonnegative, got {exponent}")
        return cls((0,) * exponent + (1,))

    def is_zero(self) -> bool:
        return not self.coefficients

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        pairs = zip_longest(self.coefficients, other.coefficients, fillvalue=0)
        return IntPolynomial(starmap(add, pairs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        pairs = zip_longest(self.coefficients, other.coefficients, fillvalue=0)
        return IntPolynomial(starmap(sub, pairs))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        other_terms = other.terms()
        for i, ci in self.terms():
            for j, cj in other_terms:
                out[i + j] += ci * cj
        return IntPolynomial(out)

    def terms(self) -> list[tuple[int, int]]:
        """Nonzero (exponent, coefficient) pairs, ascending."""
        return list(compress(enumerate(self.coefficients), self.coefficients))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in self.terms():
            if i == 0:
                parts.append(str(c))
            else:
                q = "q" if i == 1 else f"q^{i}"
                parts.append(q if c == 1 else f"{c}*{q}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({self})"


Q_MINUS_1 = IntPolynomial((-1, 1))


def gap_polynomial(A: GeneratorSet) -> IntPolynomial:
    """f_A(q): coefficient 1 at each gap of S(A), zero elsewhere."""
    table = build_table(A)
    return IntPolynomial(table.gap_indicator(table.frobenius))  # F = -1 without gaps: zero


def reciprocal(f: IntPolynomial) -> IntPolynomial:
    """Coefficient reversal q^d * f(1/q) for f of degree d."""
    if f.is_zero():
        raise ValueError("reciprocal of the zero polynomial is undefined")
    return IntPolynomial(reversed(f.coefficients))


def g_polynomial(A: GeneratorSet) -> IntPolynomial:
    """g_A(q) = (1 + q + ... + q^F) - f_A(q): indicator of members up to F(A)."""
    table = build_table(A)
    if not table.genus:
        raise ValueError("g_A is undefined for gap-free semigroups (no Frobenius degree)")
    return IntPolynomial(table.gap_indicator(table.frobenius).translate(COMPLEMENT))


def _cleared_identity(a: int, b: int, g: IntPolynomial) -> bool:
    """(q^a - 1)(q^b - 1) g == (q - 1)(q^ab - 1), exactly.

    Both forms of the functional equation take this shape, denominators cleared.
    """
    one = IntPolynomial.one()
    lhs = (IntPolynomial.monomial(a) - one) * (IntPolynomial.monomial(b) - one) * g
    return lhs == Q_MINUS_1 * (IntPolynomial.monomial(a * b) - one)


def verify_functional_equation(a: int, b: int) -> bool:
    """Check (q^a - 1)(q^b - 1)((q-1) f_A + 1) == (q-1)(q^ab - 1) exactly."""
    f = gap_polynomial(validate_pair(a, b))
    return _cleared_identity(a, b, Q_MINUS_1 * f + IntPolynomial.one())


def reciprocal_duality(a: int, b: int) -> bool:
    """Check that reciprocal(f_A) equals g_A and the reciprocal identity holds."""
    A = validate_pair(a, b)
    f_hat = reciprocal(gap_polynomial(A))
    if f_hat != g_polynomial(A):
        return False
    return _cleared_identity(a, b, IntPolynomial.monomial(a * b - a - b + 1) - Q_MINUS_1 * f_hat)


def k_polynomial(table: SemigroupTable) -> dict[int, int]:
    """K(q) = N(q) * prod_{i>=2} (1 - q^{a_i}) as {exponent: nonzero coefficient}.

    N(q) = sum of q^w over the Apery set, so H_R(q) = N(q) / (1 - q^{a1}) and
    K is the numerator of H_R over prod (1 - q^{a_i}): F = max(K) - sum(A).
    For a pair it is 1 - q^ab, the exact sequence 0 -> E(-ab) -> E -> R -> 0.
    One dict pass per generator after the first; at most 2^(k-1) * a1 terms.
    """
    terms = dict.fromkeys(table.apery, 1)  # distinct residues mod a1, so distinct exponents
    for a in table.generators.elements[1:]:
        product = dict(terms)  # terms * (1 - q^a)
        for e, c in terms.items():
            d = product.get(e + a, 0) - c
            if d:
                product[e + a] = d
            else:
                del product[e + a]
        terms = product
    return terms
