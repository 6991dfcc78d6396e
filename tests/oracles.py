"""Independent brute-force oracles, kept deliberately naive.

Nothing here shares code with the library's Apery-set/polynomial paths;
these are the reference enumerations the real implementations are checked
against.
"""

import math
import re


def naive_members(generators, limit):
    """Membership array on 0..limit by k-fold loop over coefficient tuples.

    Each index is bounded by the remaining budget so only feasible tuples
    are visited; the innermost (smallest) generator is marked by stride.
    """
    member = [False] * (limit + 1)
    gs = sorted(generators, reverse=True)
    smallest = gs[-1]

    def walk(idx, total):
        if idx == len(gs) - 1:
            count = (limit - total) // smallest + 1
            member[total :: smallest] = [True] * count
            return
        a = gs[idx]
        for r in range((limit - total) // a + 1):
            walk(idx + 1, total + r * a)

    walk(0, 0)
    return member


def naive_gaps(generators, limit):
    return [n for n, m in enumerate(naive_members(generators, limit)) if not m]


def naive_is_symmetric(generators):
    """n not in S implies F - n in S, by scanning 0..F of naive_members.

    The limit is the conductor bound (a_k - 1) * sum(a_1..a_{k-1}), past F.
    """
    gs = sorted(generators)
    member = naive_members(gs, (gs[-1] - 1) * sum(gs[:-1]) + 1)
    F = max((n for n, m in enumerate(member) if not m), default=-1)
    return all(member[n] or member[F - n] for n in range(F + 1))


def naive_partition_count(a, b, n):
    """Count solutions of a*i + b*j = n by full double loop."""
    count = 0
    for i in range(n + 1):
        for j in range(n + 1):
            if a * i + b * j == n:
                count += 1
    return count


def forward_dp_members(generators):
    """Membership on 0..bound + max(A) by the forward DP the library once used.

    bound = (a_k - 1) * sum(a_1..a_{k-1}) is the conductor bound. Each member
    n marks n + a for every generator a.
    """
    gs = sorted(set(generators))
    extended = (gs[-1] - 1) * sum(gs[:-1]) + gs[-1]
    member = [False] * (extended + 1)
    member[0] = True
    for n in range(extended + 1):
        if member[n]:
            for a in gs:
                if n + a <= extended:
                    member[n + a] = True
    return member


def binomial_normal_form(terms, a, b):
    """Remainder of g modulo x^b - y^a, by the closed form of the binomial.

    Since x^b = y^a modulo the divisor, x^i y^j reduces to
    x^(i mod b) y^(j + a*(i // b)), and no exponent of x is left >= b.
    `terms` maps (i, j) to a coefficient; zero sums are dropped.
    """
    out = {}
    for (i, j), c in terms.items():
        key = (i % b, j + a * (i // b))
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c != 0}


def sparse_add(f, g):
    """Sum of two {degree: coefficient} dicts, or {(i, j): coefficient} dicts; zero sums are dropped."""
    out = dict(f)
    for n, c in g.items():
        out[n] = out.get(n, 0) + c
    return {n: c for n, c in out.items() if c != 0}


def sparse_mul(f, g):
    """Product of two {degree: coefficient} dicts by the full double loop; zero sums are dropped."""
    out = {}
    for n1, c1 in f.items():
        for n2, c2 in g.items():
            out[n1 + n2] = out.get(n1 + n2, 0) + c1 * c2
    return {n: c for n, c in out.items() if c != 0}


def bivariate_mul(f, g):
    """Product of two {(i, j): coefficient} dicts by the full double loop; zero sums are dropped."""
    out = {}
    for (i1, j1), c1 in f.items():
        for (i2, j2), c2 in g.items():
            m = (i1 + i2, j1 + j2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def dense_reciprocal_duality(a, b, f=None, g=None):
    """The reciprocal form of the functional equation of S(a, b), by dense products.

    True when q^F f_A(1/q) equals g_A, the members 0..F as a polynomial, and
    (q^a - 1)(q^b - 1)(q^(F+1) - (q - 1) q^F f_A(1/q)) == (q - 1)(q^ab - 1), with
    F = ab - a - b. f_A and g_A are read off naive_members unless given as
    {degree: coefficient} dicts; f is reversed about its own degree. With a
    weight of 1 there is no gap: F = -1, and f_A and g_A are both zero.
    """
    member = naive_members((a, b), a * b)
    F = max((n for n, m in enumerate(member) if not m), default=-1)
    f = {n: 1 for n in range(F + 1) if not member[n]} if f is None else f
    g = {n: 1 for n in range(F + 1) if member[n]} if g is None else g
    degree = max(f, default=0)
    f_hat = {degree - n: c for n, c in f.items()}
    if f_hat != g:
        return False
    q_minus_1 = {1: 1, 0: -1}
    inner = sparse_add({a * b - a - b + 1: 1}, {n: -c for n, c in sparse_mul(q_minus_1, f_hat).items()})
    lhs = sparse_mul(sparse_mul({a: 1, 0: -1}, {b: 1, 0: -1}), inner)
    return lhs == sparse_mul(q_minus_1, {a * b: 1, 0: -1})


class WalkParseError(ValueError):
    """A parse error of walk_parse, with the same text and .column as the library's ParseError."""

    def __init__(self, message, column):
        self.column = column
        super().__init__(f"{message} (column {column})")


_WALK_TERM_RE = re.compile(
    r"""
    (?P<sign>[+-])? \s*                                          # the sign before the term
    (?P<term>
      (?P<coeff>(?P<num>\d+)(?:/(?P<den>\d+))?)? (?:(?<=\d)\*)?   # optional rational coefficient
      (?:(?P<x>x)(?:\^(?P<xi>\d+))? \*?)?                        # optional x part and its '*'
      (?:(?P<y>y)(?:\^(?P<yj>\d+))?)?                            # optional y part
    ) \s*                                                        # blanks up to the next sign
    """,
    re.VERBOSE | re.ASCII,
)


# The library's findall regex as it was first written, each optional part a
# group followed by `?`. The library writes those parts as empty alternatives,
# (?:X|), which sre runs faster; a test pins the two to the same matches.
OPTIONAL_GROUP_TERM_RE = re.compile(
    r"""
    (?P<sign>[+-])? \s*                                   # the sign before the term
    (?P<term>
      (?:(?P<num>\d+)(?:/(?P<den>\d+))?)? (?:(?<=\d)\*)?  # optional rational coefficient
      (?:(?P<x>x(?:\^\d+)?) \*?)?                        # optional x part, x or x^i, and its '*'
      (?P<y>y(?:\^\d+)?)?                                # optional y part, y or y^j
    ) \s*                                                 # blanks up to the next sign
    """,
    re.VERBOSE | re.ASCII,
)


def term_matches(regex, s):
    """Each finditer match of regex on s as (groups, span, term span), an unmatched group read as ""."""
    return [(m.groups(""), m.span(), m.span("term")) for m in regex.finditer(s)]


def walk_parse(text):
    """(den, nums) of a bivariate expression, read one regex match per term.

    The term-by-term parser the library used before it read all terms in one
    findall: each match starts where the last one ended, and the first faulty
    term raises WalkParseError. nums maps (i, j) to nonzero int numerators
    over den > 0, with their common gcd divided out.
    """
    s = text.strip(" \t\n\r\f\v")
    if not s:
        raise WalkParseError("empty polynomial expression", 1)
    groups = {}  # numerators by denominator
    pos, end = 0, len(s)
    while pos < end:
        # Every part of the regex is optional, so it always matches; s is
        # stripped and each match takes the blanks after its term, so s[pos]
        # is never a blank.
        m = _WALK_TERM_RE.match(s, pos)
        sign, _, coeff, num, den, x, xi, y, yj = m.groups()
        start, stop = m.span(2)
        if sign is None and pos:
            raise WalkParseError(f"expected '+' or '-' before {s[pos]!r}", pos + 1)
        if sign == "+" and not pos:
            raise WalkParseError("unexpected '+'", 1)
        if start == stop:
            if start == end:
                raise WalkParseError("dangling operator at end of expression", end)
            if s[start] in "+-":
                raise WalkParseError(f"sign {s[start]!r} follows another sign", start + 1)
            raise WalkParseError(f"cannot parse term starting at {s[start]!r}", start + 1)
        if s[stop - 1] == "*":
            raise WalkParseError("dangling '*' at end of term", stop)
        n = int(num) if num else 1
        if sign == "-":
            n = -n
        d = int(den) if den else 1
        if not d:
            raise WalkParseError(f"zero denominator in {coeff!r}", start + 1)
        nums = groups.setdefault(d, {})
        key = (int(xi) if xi else (1 if x else 0), int(yj) if yj else (1 if y else 0))
        nums[key] = nums[key] + n if key in nums else n
        pos = m.end()
    L = math.lcm(*groups)
    total = {}
    for d, nums in groups.items():
        for key, n in nums.items():
            total[key] = total.get(key, 0) + L // d * n
    total = {key: n for key, n in total.items() if n}
    g = math.gcd(L, *total.values())
    return L // g, {key: n // g for key, n in total.items()}


def gaps_of(table):
    """The gaps of a SemigroupTable as a tuple of ints, read off its gap indicator of 0..F.

    Not an oracle: a reader of the library's table, for tests that compare a gap list.
    """
    return tuple(n for n, is_gap in enumerate(table.gap_indicator(table.frobenius)) if is_gap)
