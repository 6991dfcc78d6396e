"""The gap polynomial and the dense two-generator functional equation, bench-only.

f_A(q) has coefficient 1 at each gap of S(A); verify_functional_equation checks
its functional equation exactly, with dense IntPolynomial products. verify reads
its verdicts off the sparse K-polynomial of graded_hilbert instead, so no command
reads this module: it stays only because bench/tracing.py patches its names.
"""

from __future__ import annotations

from itertools import starmap, zip_longest
from operator import add, sub

from .semigroup_core import GeneratorSet, build_table, validate_pair


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
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, exponent: int) -> "IntPolynomial":
        """q^exponent; a negative exponent raises ValueError."""
        if exponent < 0:
            raise ValueError(f"monomial exponent must be nonnegative, got {exponent}")
        return cls((0,) * exponent + (1,))

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
        for i, ci in enumerate(self.coefficients):
            if ci:
                for n, cj in enumerate(other.coefficients, i):
                    out[n] += ci * cj
        return IntPolynomial(out)


Q_MINUS_1 = IntPolynomial((-1, 1))


def gap_polynomial(A: GeneratorSet) -> IntPolynomial:
    """f_A(q): coefficient 1 at each gap of S(A), zero elsewhere."""
    table = build_table(A)
    return IntPolynomial(table.gap_indicator(table.frobenius))  # F = -1 without gaps: zero


def verify_functional_equation(a: int, b: int) -> bool:
    """Check (q^a - 1)(q^b - 1)((q-1) f_A + 1) == (q-1)(q^ab - 1) exactly."""
    f = gap_polynomial(validate_pair(a, b))
    one = IntPolynomial.one()
    lhs = (IntPolynomial.monomial(a) - one) * (IntPolynomial.monomial(b) - one) * (Q_MINUS_1 * f + one)
    return lhs == Q_MINUS_1 * (IntPolynomial.monomial(a * b) - one)
