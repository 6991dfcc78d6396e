"""Sparse bivariate polynomials with lex monomial order, as int numerators over one denominator.

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
from typing import TYPE_CHECKING, NamedTuple

from .semigroup_core import check_size, validate_pair

if TYPE_CHECKING:  # fractions is imported only where a Fraction is built
    from fractions import Fraction


def _monomial_text(i: int, j: int) -> str:
    """x^i y^j as printed, e.g. `x^2*y`, `x` or `y^3`; (i, j) is not (0, 0)."""
    parts = []
    if i:
        parts.append("x" if i == 1 else f"x^{i}")
    if j:
        parts.append("y" if j == 1 else f"y^{j}")
    return "*".join(parts)


class BivariatePolynomial:
    """Nonzero int numerators `nums` by (i, j) over one positive int denominator `den`.

    Canonical, gcd(den, *nums.values()) == 1, so polynomials are equal exactly
    when both fields are; `terms` shows the coefficients as Fractions.

    The one constructor takes den > 0 and int numerators keyed by (i, j) pairs
    of nonnegative ints, unchecked: it drops the zero numerators and divides
    out their common gcd with den. Text is checked where it is read, in
    parse_bivariate.
    """

    __slots__ = ("den", "nums")

    def __init__(self, den: int, nums: dict[tuple[int, int], int]):
        nums = {m: c for m, c in nums.items() if c}
        g = math.gcd(den, *nums.values())
        self.den, self.nums = (den, nums) if g == 1 else (den // g, {m: c // g for m, c in nums.items()})

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """A new dict of the nonzero Fraction coefficients by (i, j)."""
        from fractions import Fraction
        den = self.den
        return {m: Fraction(c, den) for m, c in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __str__(self) -> str:
        """The text form, read off the triples of bivariate_to_json: its only coefficient writer."""
        out = ""
        for i, j, c in bivariate_to_json(self):
            text = str(c)
            sign, mag = ("-", text[1:]) if text[0] == "-" else ("+", text)
            if i == j == 0:
                body = mag
            elif mag == "1":
                body = _monomial_text(i, j)
            else:
                body = f"{mag}*{_monomial_text(i, j)}"
            out += f" {sign} {body}" if out else (f"-{body}" if sign == "-" else body)
        return out or "0"

    def __repr__(self) -> str:
        return f"BivariatePolynomial({self})"


class DivisionResult(NamedTuple):
    quotient: BivariatePolynomial
    remainder: BivariatePolynomial


def _remainder_numerators(g: BivariatePolynomial, a: int, b: int) -> dict[tuple[int, int], int]:
    """g.den times the remainder of g modulo x^b - y^a, by (i, j); zero sums are kept.

    x^b = y^a modulo the divisor, so x^i y^j reduces to x^(i - bs) y^(j + as),
    s = floor(i / b).
    """
    r: dict[tuple[int, int], int] = {}
    for (i, j), c in g.nums.items():
        s = i // b
        key = (i - b * s, j + a * s)
        r[key] = r[key] + c if key in r else c
    return r


def divide(g: BivariatePolynomial, a: int, b: int) -> DivisionResult:
    """Division by x^b - y^a: g = quotient*(x^b - y^a) + remainder, each remainder x-degree below b.

    The binomial normal form: with s = floor(i / b), a term x^i y^j of g is
    x^(i - bs) y^(j + as) plus (x^b - y^a) times the sum of
    x^(i - b(t + 1)) y^(j + at) over t < s. Such a quotient and remainder
    are unique, so they are those of lex division by x^b - y^a.

    The sums run over the int numerators of g, and the quotient and the
    remainder keep its denominator, g.den, until they are put in canonical
    form. Before any work, SEMIGROUP_MAX_BOUND caps the quotient's numerator
    words: each of its steps, the sum of floor(i / b), adds a numerator as
    long as g.den, ceil(den.bit_length() / 64) words, one when den = 1. The
    quotient is the one part that grows with the exponents, so this is the
    one division cap.
    """
    validate_pair(a, b)
    steps = sum(i // b for i, _ in g.nums)
    check_size("quotient", steps * -(-g.den.bit_length() // 64), "numerator words")
    q: dict[tuple[int, int], int] = {}
    for (i, j), c in g.nums.items():
        if i >= b:
            # the keys (i - b(t + 1), j + at) for t < s = i // b
            for key in zip(range(i - b, -1, -b), range(j, j + a * (i // b), a)):
                q[key] = q[key] + c if key in q else c
    r = _remainder_numerators(g, a, b)
    return DivisionResult(BivariatePolynomial(g.den, q), BivariatePolynomial(g.den, r))


def _image_sums(g: BivariatePolynomial, a: int, b: int) -> dict[int, int]:
    """g.den times the image of g under x -> t^a, y -> t^b, by degree; zero sums are kept."""
    sums: dict[int, int] = {}
    for (i, j), c in g.nums.items():
        k = a * i + b * j
        sums[k] = sums[k] + c if k in sums else c
    return sums


def phi_evaluate(g: BivariatePolynomial, a: int, b: int) -> dict[int, Fraction]:
    """Image of g under x -> t^a, y -> t^b: the nonzero coefficients of g(t^a, t^b) by degree.

    Sparse, so its cost does not grow with the exponents. The sums run over
    the int numerators of g, and only a nonzero sum becomes a Fraction, its
    numerator over g.den.
    """
    from fractions import Fraction
    validate_pair(a, b)
    return {k: Fraction(c, g.den) for k, c in _image_sums(g, a, b).items() if c}


def in_kernel(g: BivariatePolynomial, a: int, b: int, method: str = "evaluate") -> bool:
    """Membership in the kernel ideal, by direct evaluation or by division.

    The two methods agree on every input: the kernel is exactly the
    principal ideal of x^b - y^a. Each is one pass over the terms of g, with
    no quotient built, so neither is capped and both answer at any degree.
    """
    validate_pair(a, b)
    if method == "evaluate":
        return not any(_image_sums(g, a, b).values())
    if method == "divide":
        return not any(_remainder_numerators(g, a, b).values())
    raise ValueError(f"unknown method {method!r} (expected 'evaluate' or 'divide')")


class ParseError(ValueError):
    """Bivariate grammar violation; .column is the 1-based offending position."""

    def __init__(self, message: str, column: int):
        self.column = column
        super().__init__(f"{message} (column {column})")


# Each optional part longer than one character is written (?:X|), not (?:X)?:
# the same language and greedy order, but sre compiles `|` to a plain BRANCH
# and a `?` on a group to a REPEAT loop, so findall runs in about 60 % of the time.
_TERM_RE = re.compile(
    r"""
    (?P<sign>[+-]?) \s*                                   # the sign before the term, if any
    (?P<term>
      (?:(?P<num>\d+)(?:/(?P<den>\d+)|)|) (?:(?<=\d)\*|)  # optional rational coefficient
      (?:(?P<x>x(?:\^\d+|)) \*?|)                        # optional x part, x or x^i, and its '*'
      (?P<y>y(?:\^\d+|)|)                                # optional y part, y or y^j
    ) \s*                                                 # blanks up to the next sign
    """,
    re.VERBOSE | re.ASCII,  # \d and \s: ASCII digits and blanks only
)


def _first_fault(s: str) -> ParseError:
    """The ParseError of the first faulty term of stripped s; the matches before it are back to back."""
    for m in _TERM_RE.finditer(s):
        pos, (start, stop) = m.start(), m.span("term")
        sign, term, num, den, _, _ = m.groups("")
        if not sign and pos:
            return ParseError(f"expected '+' or '-' before {s[pos]!r}", pos + 1)
        if sign == "+" and not pos:
            return ParseError("unexpected '+'", 1)
        if start == stop:
            if start == len(s):
                return ParseError("dangling operator at end of expression", start)
            if s[start] in "+-":
                return ParseError(f"sign {s[start]!r} follows another sign", start + 1)
            return ParseError(f"cannot parse term starting at {s[start]!r}", start + 1)
        if term[-1] == "*":
            return ParseError("dangling '*' at end of term", stop)
        for g in ("num", "den", "x", "y"):
            digits = (m[g] or "").lstrip("xy^")
            try:
                int(digits or "0")
            except ValueError:  # past the interpreter's limit on the digits of an int
                return ParseError(f"numeral of {len(digits)} digits is too long", m.end(g) - len(digits) + 1)
        if den and not int(den):
            return ParseError(f"zero denominator in '{num}/{den}'", start + 1)


def parse_bivariate(text: str) -> BivariatePolynomial:
    """Parse terms like `3*x^2*y - 1/2*y^4 + 7` in any order.

    Only the first term may carry a leading '-'; a sign that follows another
    sign (`x - -y`) is an error at the second sign. One findall of _TERM_RE
    reads every term with its sign and the blanks after it; the checks and
    conversions run on its columns, read each distinct denominator and
    exponent once and build no Fraction. Only faulty text is read again.
    """
    s = text.strip(" \t\n\r\f\v")  # the blanks \s matches, so a Unicode blank is refused anywhere
    if not s:
        raise ParseError("empty polynomial expression", 1)
    # every part of _TERM_RE is optional, so the last match is the empty one at len(s)
    parts = _TERM_RE.findall(s)[:-1]
    signs, terms, _, dens, xs, ys = zip(*parts)
    if "" in terms or signs[0] == "+" or "" in signs[1:] or "*\n" in "\n".join(terms) + "\n":
        raise _first_fault(s)
    try:
        ds = {d: int(d or "1") for d in set(dens)}
        L = math.lcm(*ds.values())
        scale = {d: L // v for d, v in ds.items()}  # a zero denominator makes L zero: 0 // 0 raises
        power = {p: int(p[2:] or len(p)) for p in {*xs, *ys}}
        total: dict[tuple[int, int], int] = {}
        for sign, _, num, den, x, y in parts:
            key = (power[x], power[y])
            n = int(sign + (num or "1")) * scale[den]
            total[key] = total[key] + n if key in total else n
    except (ValueError, ZeroDivisionError):  # a numeral past int's digit limit, or a zero denominator
        raise _first_fault(s) from None
    return BivariatePolynomial(L, total)


def bivariate_to_json(g: BivariatePolynomial) -> list[list]:
    """JSON form: [i, j, coefficient] triples in lex-descending order; coefficient an int or "p/q"."""
    out = []
    for (i, j), c in sorted(g.nums.items(), reverse=True):
        k = math.gcd(c, g.den)
        out.append([i, j, c // k if k == g.den else f"{c // k}/{g.den // k}"])
    return out
