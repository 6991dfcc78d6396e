"""Independent brute-force oracles, kept deliberately naive.

Nothing here shares code with the library's Apery-set/polynomial paths;
these are the reference enumerations the real implementations are checked
against.
"""


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
    """Sum of two {degree: coefficient} dicts; zero sums are dropped."""
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


def gaps_of(table):
    """The gaps of a SemigroupTable as a tuple of ints, read off its gap indicator of 0..F.

    Not an oracle: a reader of the library's table, for tests that compare a gap list.
    """
    return tuple(n for n, is_gap in enumerate(table.gap_indicator(table.frobenius)) if is_gap)
