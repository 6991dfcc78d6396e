"""Sparse bivariate polynomials over exact rationals with lex monomial order.

Implements single-divisor lexicographic division, the monomial ring map
x -> t^a, y -> t^b, and two independent membership tests for its kernel
(the principal ideal generated by x^b - y^a).
"""

from __future__ import annotations

import heapq
import math
import re
from fractions import Fraction
from typing import Iterable, NamedTuple

from .semigroup_core import check_size


class Monomial2(NamedTuple):
    """Monomial x^i y^j; tuple comparison is exactly lex order (i first)."""

    i: int
    j: int

    def __str__(self) -> str:
        parts = []
        if self.i:
            parts.append("x" if self.i == 1 else f"x^{self.i}")
        if self.j:
            parts.append("y" if self.j == 1 else f"y^{self.j}")
        return "*".join(parts) if parts else "1"


class BivariatePolynomial:
    """Finite map from monomials to nonzero Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial2, Fraction] | None = None):
        cleaned = {}
        if terms:
            for m, c in terms.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    cleaned[m if type(m) is Monomial2 else Monomial2(*m)] = c
        self.terms = cleaned

    @classmethod
    def zero(cls) -> "BivariatePolynomial":
        return cls()

    @classmethod
    def from_terms(cls, triples: Iterable[tuple[int, int, object]]) -> "BivariatePolynomial":
        terms: dict[Monomial2, Fraction] = {}
        for i, j, c in triples:
            m = Monomial2(i, j)
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
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) - c
        return BivariatePolynomial(terms)

    def __mul__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        terms: dict[Monomial2, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = Monomial2(m1.i + m2.i, m1.j + m2.j)
                terms[m] = terms.get(m, Fraction(0)) + c1 * c2
        return BivariatePolynomial(terms)

    def sorted_terms(self) -> list[tuple[Monomial2, Fraction]]:
        """Terms in lex-descending order (deterministic printing)."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        out = ""
        for m, c in self.sorted_terms():
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if m == Monomial2(0, 0):
                body = str(mag)
            elif mag == 1:
                body = str(m)
            else:
                body = f"{mag}*{m}"
            out += f" {sign} {body}" if out else (f"-{body}" if sign == "-" else body)
        return out

    def __repr__(self) -> str:
        return f"BivariatePolynomial({self})"


class DivisionResult(NamedTuple):
    quotient: BivariatePolynomial
    remainder: BivariatePolynomial


def leading_monomial(f: BivariatePolynomial) -> Monomial2:
    """Lex-largest monomial with nonzero coefficient."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no leading monomial")
    return max(f.terms)


def divide(g: BivariatePolynomial, f: BivariatePolynomial) -> DivisionResult:
    """Single-divisor lex reduction: g = quotient*f + remainder.

    No monomial of the remainder is divisible by the leading monomial of f.
    Work terms sit in one dict keyed by (-i, -j); a heap of those keys pops
    the lex-largest first. Each popped term either becomes a quotient term,
    with c/lc(f) times the tail of f subtracted in place, or moves to the
    remainder. The tail only adds lex-smaller monomials, so each enters the
    heap once and a step costs O(|f| log n). There is no step cap here: callers
    dividing outside input by x^b - y^a call check_division_steps first, as
    cli._cmd_divide and in_kernel do.
    """
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lm_f = leading_monomial(f)
    lc_f = f.terms[lm_f]
    # Tail terms as (offset from lm_f in negated exponents, -c / lc(f)).
    tail = [
        (lm_f.i - m.i, lm_f.j - m.j, -c / lc_f) for m, c in f.terms.items() if m != lm_f
    ]

    work = {(-m.i, -m.j): c for m, c in g.terms.items()}
    heap = list(work)
    heapq.heapify(heap)
    quotient: dict[Monomial2, Fraction] = {}
    remainder: dict[Monomial2, Fraction] = {}
    while heap:
        key = heapq.heappop(heap)
        c = work.pop(key)
        if not c:
            continue
        ni, nj = key
        if lm_f.i <= -ni and lm_f.j <= -nj:
            quotient[Monomial2(-ni - lm_f.i, -nj - lm_f.j)] = c / lc_f
            for di, dj, t in tail:
                k = (ni + di, nj + dj)
                if k in work:
                    work[k] += c * t
                else:
                    work[k] = c * t
                    heapq.heappush(heap, k)
        else:
            remainder[Monomial2(-ni, -nj)] = c
    return DivisionResult(BivariatePolynomial(quotient), BivariatePolynomial(remainder))


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


def phi_evaluate(g: BivariatePolynomial, a: int, b: int) -> dict[int, Fraction]:
    """Image of g under x -> t^a, y -> t^b: the nonzero coefficients of g(t^a, t^b) by degree.

    Sparse, so its cost does not grow with the exponents.
    """
    check_weights(a, b)
    sums: dict[int, Fraction] = {}
    for m, c in g.terms.items():
        n = a * m.i + b * m.j
        sums[n] = sums[n] + c if n in sums else c
    return {n: c for n, c in sums.items() if c}


def check_division_steps(g: BivariatePolynomial, b: int) -> None:
    """Refuse a division of g by x^b - y^a of more than SEMIGROUP_MAX_BOUND steps.

    Lex reduction takes floor(i / b) quotient steps for a term x^i y^j, so
    the sum over the terms of g bounds the steps and the quotient's size.
    """
    check_size("division", sum(m.i // b for m in g.terms), "steps")


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
        return divide(g, BivariatePolynomial.binomial_xb_minus_ya(a, b)).remainder.is_zero()
    raise ValueError(f"unknown method {method!r} (expected 'evaluate' or 'divide')")


class ParseError(ValueError):
    """Bivariate grammar violation; .column is the 1-based offending position."""

    def __init__(self, message: str, column: int):
        self.column = column
        super().__init__(f"{message} (column {column})")


_TERM_RE = re.compile(
    r"""
    (?P<coeff>(?P<num>\d+)(?:/(?P<den>\d+))?)? (?:(?<=\d)\*)?   # optional rational coefficient
    (?:(?P<x>x)(?:\^(?P<xi>\d+))?)? \*?                        # optional x part
    (?:(?P<y>y)(?:\^(?P<yj>\d+))?)?                            # optional y part
    """,
    re.VERBOSE,
)


def parse_bivariate(text: str) -> BivariatePolynomial:
    """Parse terms like `3*x^2*y - 1/2*y^4 + 7` in any order.

    Only the first term may carry a leading '-'; a sign that follows another
    sign (`x - -y`) is an error at the second sign.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial expression", 1)
    triples = []
    pos = 0
    negative = False
    expect_term = True
    while pos < len(s):
        ch = s[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-":
            # s is stripped, so past column 1 only a sign leaves expect_term set.
            if expect_term and pos:
                raise ParseError(f"sign {ch!r} follows another sign", pos + 1)
            if expect_term and ch == "+":
                raise ParseError("unexpected '+'", pos + 1)
            negative = ch == "-"
            pos += 1
            expect_term = True
            continue
        if not expect_term:
            raise ParseError(f"expected '+' or '-' before {ch!r}", pos + 1)
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot parse term starting at {ch!r}", pos + 1)
        if s[m.end() - 1] == "*":
            raise ParseError("dangling '*' at end of term", m.end())
        num, den, x, xi, y, yj = m.group("num", "den", "x", "xi", "y", "yj")
        num = int(num) if num else 1
        den = int(den) if den else 1
        if not den:
            raise ParseError(f"zero denominator in {m.group('coeff')!r}", pos + 1)
        xi = int(xi) if xi else (1 if x else 0)
        yj = int(yj) if yj else (1 if y else 0)
        triples.append((xi, yj, Fraction(-num if negative else num, den)))
        pos = m.end()
        negative = False
        expect_term = False
    if expect_term:
        raise ParseError("dangling operator at end of expression", len(s))
    return BivariatePolynomial.from_terms(triples)


def bivariate_to_json(g: BivariatePolynomial) -> list[list]:
    """JSON form: [i, j, coefficient] triples in lex-descending order."""
    out = []
    for m, c in g.sorted_terms():
        out.append([m.i, m.j, int(c) if c.denominator == 1 else str(c)])
    return out
