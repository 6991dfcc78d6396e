"""Sparse bivariate polynomials over exact rationals with lex monomial order.

A term x^i y^j is keyed by the plain int tuple (i, j), i and j nonnegative;
tuple comparison is exactly lex order (i first). Implements division by
x^b - y^a through its binomial normal form (the remainder of x^i y^j is
x^(i mod b) y^(j + a*floor(i/b))), the monomial ring map x -> t^a, y -> t^b,
and two independent membership tests for its kernel (the principal ideal
generated by x^b - y^a).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, NamedTuple

from .semigroup_core import check_size


def _monomial_text(i: int, j: int) -> str:
    """x^i y^j as printed, e.g. `x^2*y`, `x` or `y^3`; (i, j) is not (0, 0)."""
    parts = []
    if i:
        parts.append("x" if i == 1 else f"x^{i}")
    if j:
        parts.append("y" if j == 1 else f"y^{j}")
    return "*".join(parts)


class BivariatePolynomial:
    """Finite map from (i, j) keys to nonzero Fraction coefficients.

    Built from ints and Fractions only: a float, Decimal or any other
    coefficient raises TypeError, as does an exponent that is not an int (a
    bool included). A negative exponent or a key that is not a pair raises
    ValueError.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], Fraction] | None = None):
        cleaned = {}
        if terms:
            for m, c in terms.items():
                if not isinstance(m, tuple) or len(m) != 2:
                    raise ValueError(f"a term key must be a pair (i, j), got {m!r}")
                i, j = m
                if type(i) is not int or type(j) is not int:
                    raise TypeError(f"exponents must be ints, got {type(i).__name__} and {type(j).__name__}")
                if i < 0 or j < 0:
                    raise ValueError(f"exponents must be nonnegative, got {m}")
                if type(c) is not Fraction:
                    if type(c) is not int:
                        raise TypeError(f"coefficients must be ints or Fractions, got {type(c).__name__}")
                    c = Fraction(c)
                if c:
                    cleaned[i, j] = c
        self.terms = cleaned

    @classmethod
    def _of(cls, terms: dict[tuple[int, int], Fraction]) -> "BivariatePolynomial":
        """Wrap a dict that already maps (i, j) int keys to nonzero Fractions, unchecked."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def from_terms(cls, triples: Iterable[tuple[int, int, object]]) -> "BivariatePolynomial":
        terms: dict[tuple[int, int], Fraction] = {}
        for i, j, c in triples:
            m = (i, j)
            terms[m] = terms[m] + c if m in terms else c
        return cls(terms)

    @classmethod
    def binomial_xb_minus_ya(cls, a: int, b: int) -> "BivariatePolynomial":
        """The divisor x^b - y^a."""
        return cls.from_terms([(b, 0, 1), (0, a, -1)])

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return BivariatePolynomial(terms)

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return self + BivariatePolynomial._of({m: -c for m, c in other.terms.items()})

    def __mul__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        terms: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                m = (i1 + i2, j1 + j2)
                terms[m] = terms.get(m, Fraction(0)) + c1 * c2
        return BivariatePolynomial(terms)

    def sorted_terms(self) -> list[tuple[tuple[int, int], Fraction]]:
        """Terms in lex-descending order (deterministic printing)."""
        return sorted(self.terms.items(), reverse=True)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        out = ""
        for m, c in self.sorted_terms():
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if m == (0, 0):
                body = str(mag)
            elif mag == 1:
                body = _monomial_text(*m)
            else:
                body = f"{mag}*{_monomial_text(*m)}"
            out += f" {sign} {body}" if out else (f"-{body}" if sign == "-" else body)
        return out

    def __repr__(self) -> str:
        return f"BivariatePolynomial({self})"


class DivisionResult(NamedTuple):
    quotient: BivariatePolynomial
    remainder: BivariatePolynomial


def _numerators(g: BivariatePolynomial) -> tuple[int, list[int]]:
    """L, the lcm of the denominators of g, and the integer L*c per term c of g."""
    ratios = [c.as_integer_ratio() for c in g.terms.values()]
    L = math.lcm(*[d for _, d in ratios])
    return L, [L // d * n for n, d in ratios]


def check_weights(a: int, b: int) -> None:
    """Weights of the ring map x -> t^a, y -> t^b: positive, distinct and coprime.

    Unlike semigroup_core.validate_pair, a weight of 1 is allowed: the kernel
    of x -> t, y -> t^b is still the principal ideal of x^b - y.
    """
    if a < 1 or b < 1:
        raise ValueError("exponent weights must be positive")
    if a == b:
        raise ValueError(f"weights must be distinct, got a = b = {a}")
    if math.gcd(a, b) != 1:
        raise ValueError(f"gcd({a},{b}) = {math.gcd(a, b)} != 1")


def check_division_steps(g: BivariatePolynomial, b: int) -> None:
    """Refuse a division of g by x^b - y^a of more than SEMIGROUP_MAX_BOUND steps.

    A term x^i y^j adds floor(i / b) terms to the quotient sum, so the sum
    over the terms of g counts the steps and bounds the quotient's size.
    """
    check_size("division", sum(i // b for i, _ in g.terms), "steps")


def _remainder_numerators(g: BivariatePolynomial, numerators: list[int], a: int, b: int) -> dict:
    """L times the remainder of g modulo x^b - y^a, by (i, j); zero sums are kept.

    x^b = y^a modulo the divisor, so x^i y^j reduces to x^(i - bs) y^(j + as),
    s = floor(i / b).
    """
    r: dict[tuple[int, int], int] = {}
    for (i, j), c in zip(g.terms, numerators):
        s = i // b
        key = (i - b * s, j + a * s)
        r[key] = r[key] + c if key in r else c
    return r


def _fractions(terms: dict, L: int) -> BivariatePolynomial:
    """The polynomial of the nonzero terms c / L, c an integer numerator by (i, j)."""
    return BivariatePolynomial._of({m: Fraction(c, L) for m, c in terms.items() if c})


def divide(g: BivariatePolynomial, a: int, b: int) -> DivisionResult:
    """Division by x^b - y^a: g = quotient*(x^b - y^a) + remainder, each remainder x-degree below b.

    The binomial normal form: with s = floor(i / b), a term x^i y^j of g is
    x^(i - bs) y^(j + as) plus (x^b - y^a) times the sum of
    x^(i - b(t + 1)) y^(j + at) over t < s. Such a quotient and remainder
    are unique, so they are those of lex division by x^b - y^a.

    The sums run over the integer numerators of L*g, L the lcm of the
    denominators of g, and each nonzero quotient or remainder term becomes
    one Fraction at the end. The quotient steps, the sum of floor(i / b),
    are checked against SEMIGROUP_MAX_BOUND before any work.
    """
    check_weights(a, b)
    check_division_steps(g, b)
    L, numerators = _numerators(g)
    q: dict[tuple[int, int], int] = {}
    for (i, j), c in zip(g.terms, numerators):
        if i >= b:
            # the keys (i - b(t + 1), j + at) for t < s = i // b
            for key in zip(range(i - b, -1, -b), range(j, j + a * (i // b), a)):
                q[key] = q[key] + c if key in q else c
    r = _remainder_numerators(g, numerators, a, b)
    return DivisionResult(_fractions(q, L), _fractions(r, L))


def phi_evaluate(g: BivariatePolynomial, a: int, b: int) -> dict[int, Fraction]:
    """Image of g under x -> t^a, y -> t^b: the nonzero coefficients of g(t^a, t^b) by degree.

    Sparse, so its cost does not grow with the exponents. The sums run over
    the integer numerators of L*g, L the lcm of the denominators of g, and
    only a nonzero sum becomes a Fraction: a kernel member builds none.
    """
    check_weights(a, b)
    L, numerators = _numerators(g)
    sums: dict[int, int] = {}
    for (i, j), c in zip(g.terms, numerators):
        k = a * i + b * j
        sums[k] = sums[k] + c if k in sums else c
    return {k: Fraction(c, L) for k, c in sums.items() if c}


def in_kernel(g: BivariatePolynomial, a: int, b: int, method: str = "evaluate") -> bool:
    """Membership in the kernel ideal, by direct evaluation or by division.

    The two methods agree on every input: the kernel is exactly the
    principal ideal of x^b - y^a.
    """
    check_weights(a, b)
    if method == "evaluate":
        return not phi_evaluate(g, a, b)
    if method == "divide":
        check_division_steps(g, b)
        _, numerators = _numerators(g)
        return not any(_remainder_numerators(g, numerators, a, b).values())
    raise ValueError(f"unknown method {method!r} (expected 'evaluate' or 'divide')")


class ParseError(ValueError):
    """Bivariate grammar violation; .column is the 1-based offending position."""

    def __init__(self, message: str, column: int):
        self.column = column
        super().__init__(f"{message} (column {column})")


_TERM_RE = re.compile(
    r"""
    (?P<sign>[+-])? \s*                                          # the sign before the term
    (?P<term>
      (?P<coeff>(?P<num>\d+)(?:/(?P<den>\d+))?)? (?:(?<=\d)\*)?   # optional rational coefficient
      (?:(?P<x>x)(?:\^(?P<xi>\d+))?)? \*?                        # optional x part
      (?:(?P<y>y)(?:\^(?P<yj>\d+))?)?                            # optional y part
    ) \s*                                                        # blanks up to the next sign
    """,
    re.VERBOSE,
)


def parse_bivariate(text: str) -> BivariatePolynomial:
    """Parse terms like `3*x^2*y - 1/2*y^4 + 7` in any order.

    Only the first term may carry a leading '-'; a sign that follows another
    sign (`x - -y`) is an error at the second sign. One match of _TERM_RE
    reads a term with its sign and the blanks after it, so the loop runs once
    per term. An integer coefficient becomes Fraction(n), and only p/q a
    Fraction(p, q); equal monomials are summed into the term dict as they come.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial expression", 1)
    terms: dict[tuple[int, int], Fraction] = {}
    pos, end = 0, len(s)
    while pos < end:
        # Every part of _TERM_RE is optional, so it always matches; s is
        # stripped and each match takes the blanks after its term, so s[pos]
        # is never a blank.
        m = _TERM_RE.match(s, pos)
        sign, _, coeff, num, den, x, xi, y, yj = m.groups()
        start, stop = m.span(2)
        if sign is None and pos:
            raise ParseError(f"expected '+' or '-' before {s[pos]!r}", pos + 1)
        if sign == "+" and not pos:
            raise ParseError("unexpected '+'", 1)
        if start == stop:
            if start == end:
                raise ParseError("dangling operator at end of expression", end)
            if s[start] in "+-":
                raise ParseError(f"sign {s[start]!r} follows another sign", start + 1)
            raise ParseError(f"cannot parse term starting at {s[start]!r}", start + 1)
        if s[stop - 1] == "*":
            raise ParseError("dangling '*' at end of term", stop)
        n = int(num) if num else 1
        if sign == "-":
            n = -n
        if den is None:
            c = Fraction(n)
        elif int(den):
            c = Fraction(n, int(den))
        else:
            raise ParseError(f"zero denominator in {coeff!r}", start + 1)
        key = (int(xi) if xi else (1 if x else 0), int(yj) if yj else (1 if y else 0))
        if key not in terms:
            if n:
                terms[key] = c
        else:
            c += terms[key]
            if c:
                terms[key] = c
            else:
                del terms[key]
        pos = m.end()
    return BivariatePolynomial._of(terms)


def bivariate_to_json(g: BivariatePolynomial) -> list[list]:
    """JSON form: [i, j, coefficient] triples in lex-descending order."""
    out = []
    for (i, j), c in g.sorted_terms():
        out.append([i, j, c.numerator if c.denominator == 1 else str(c)])
    return out
