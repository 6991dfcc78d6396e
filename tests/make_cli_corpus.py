"""Generate the CLI golden corpus: argv -> exit code and sha256 of stdout and stderr.

    PYTHONPATH=src python tests/make_cli_corpus.py [OUT]

writes tests/data/cli_corpus.json (or OUT) and prints the sha256 of the
file, so two interpreters or two commits can be compared by one digest.
tests/test_cli_corpus.py replays every entry through `cli.main` and
requires the same exit code and the same bytes on both streams.

Every command reaches a semialg handler: argparse usage errors are left
out, because their wording differs between Python versions.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from semialg import cli

CAP_VAR = "SEMIGROUP_MAX_BOUND"
DEFAULT_PATH = Path(__file__).parent / "data" / "cli_corpus.json"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list[str], cap: str | None) -> tuple[int, str, str]:
    """Run one command with SEMIGROUP_MAX_BOUND set to cap (unset for None)."""
    saved = os.environ.pop(CAP_VAR, None)
    if cap is not None:
        os.environ[CAP_VAR] = cap
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.environ.pop(CAP_VAR, None)
        if saved is not None:
            os.environ[CAP_VAR] = saved
    return code, _sha(out.getvalue()), _sha(err.getvalue())


def _coprime_pairs(amax: int, bmax: int):
    return [(a, b) for a in range(2, amax + 1) for b in range(a + 1, bmax + 1) if math.gcd(a, b) == 1]


GENERATOR_SETS = [
    [1], [1, 7], [2, 3], [3, 5], [5, 3], [3, 4, 5], [4, 6, 9], [6, 9, 20], [5, 7, 11, 13],
    [7, 10, 12, 15, 19], [11, 13], [2, 2, 5], [12, 15, 20], [4, 6], [6, 10, 15, 30], [2],
    [0, 3], [-3, 5], [17, 23, 29], [31, 37],
]

def _term(c: int, den: int, i: int, j: int) -> str:
    """One term of a long expression: a signed coefficient c/den times x^i y^j."""
    mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in (("x", i), ("y", j)) if e)
    coeff = f"{abs(c)}/{den}" if den != 1 else str(abs(c))
    body = coeff if not mono else (mono if (abs(c), den) == (1, 1) else f"{coeff}*{mono}")
    return ("- " if c < 0 else "+ ") + body


def _long_expression(seed: int, member: bool) -> str:
    """About 200 terms with denominators 1..12, from a fixed formula (no RNG).

    With member set, every term pair is c*x^i*y^j*(x^3 - y^2), so the whole
    expression lies in the kernel of x -> t^2, y -> t^3.
    """
    terms = []
    for k in range(100 if member else 200):
        c = (k * k * seed + 7 * k) % 97 - 48 or 1
        den = 1 + (k * seed) % 12
        i, j = (k * seed * 7) % 41, (k * 13 + seed) % 29
        if member:
            terms += [_term(c, den, i + 3, j), _term(-c, den, i, j + 2)]
        else:
            terms.append(_term(c, den, i, j))
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


EXPRESSIONS = [
    "x^4", "x^3 - y^2", "x^5 - y^3", "x^4 - y^2 + 3", "3*x^2*y - 1/2*y^4 + 7", "x^6 - y^4",
    "-x^3 + y^2", "2*x^3*y - 2*y^3", "0", "7", "x*y", "x^10 - y^6", "1/3*x^3 - 1/3*y^2",
    # layouts: no spaces, tabs, leading blanks, a cancelling sum, an unreduced fraction
    "x+y-2*x", "x\t-\ty", "  -1/2*x^2", "x + x - 2*x", "6/4*x",
    _long_expression(5, member=False), _long_expression(11, member=True),
    # parse errors (exit 3)
    "x - -y", "3*", "x*", "1/0*x", "x +", "x^", "2**x", "q^2", "",
    "+x", "x - +y", "x y",
]


def commands():
    """(argv, cap) for every corpus entry, in a fixed order."""
    for gens in GENERATOR_SETS:
        g = [str(x) for x in gens]
        for extra in ([], ["--json"], ["--gaps"], ["--gaps", "--json"]):
            yield ["frobenius", *g, *extra], None
        for n in ("0", "1", "7", "8", "23", "1000000000000", "-4"):
            yield ["frobenius", *g, "--witness", n], None
            yield ["frobenius", *g, "--witness", n, "--gaps", "--json"], None
        for cmd in ("gaps", "gap-poly"):
            yield [cmd, *g], None
            yield [cmd, *g, "--json"], None

    for cap in ("10", "18", "40", "abc"):
        for gens in ([3, 5], [1], [6, 9, 20], [3163, 3167]):
            for cmd in ("frobenius", "gaps", "gap-poly"):
                yield [cmd, *map(str, gens)], cap
    for gens in ([3163, 3167], [2503, 2521, 2531]):
        yield ["frobenius", *map(str, gens)], None
    # genus-sized outputs: 196,560 gaps for the pair, 3,164 and 2,369 for k = 3 and k = 4
    for gens in ([586, 673], [211, 233, 257], [251, 263, 277, 293]):
        g = [str(x) for x in gens]
        for argv in (["gap-poly", *g], ["gaps", *g], ["frobenius", *g, "--gaps"]):
            yield argv, None
            yield [*argv, "--json"], None
    # gap lists across the thousand-blocks of their text: F = 999, 1001, 1,001,999 and
    # 1,003,001 for the pairs (the last with no gap in 1,002,000..1,002,999), F = 1000 and
    # 206,843 for k = 3
    for gens in ([11, 101], [3, 502], [1001, 1003], [1002, 1003], [29, 73, 80], [1009, 1013, 1019]):
        g = [str(x) for x in gens]
        for argv in (["gaps", *g], ["gap-poly", *g], ["frobenius", *g, "--gaps"]):
            yield argv, None
            yield [*argv, "--json"], None

    for a, b in _coprime_pairs(8, 11):
        yield ["verify", str(a), str(b)], None
    for a, b in [(5, 3), (7, 2), (11, 13), (13, 17)]:
        yield ["verify", str(a), str(b)], None
        yield ["verify", str(a), str(b), "--json"], None
    for a, b in [(3, 3), (1, 5), (5, 1), (4, 6), (0, 5), (-2, 3), (2, 2), (1, 1)]:
        yield ["verify", str(a), str(b)], None
    yield ["verify", "3"], None
    yield ["verify"], None
    for bound in (1, 2, 3, 5, 8, 12, 20):
        yield ["verify", "--sweep", str(bound)], None
        yield ["verify", "--sweep", str(bound), "--json"], None
    for cap in ("12", "18", "25", "26", "45", "46", "100", "200", "abc"):
        for a, b in [(3, 5), (2, 7), (5, 6), (2, 13)]:
            yield ["verify", str(a), str(b)], cap
        yield ["verify", "--sweep", "6"], cap

    for expr in EXPRESSIONS:
        for a, b in [(2, 3), (3, 5), (1, 4)]:
            yield ["divide", expr, str(a), str(b)], None
            yield ["kernel", expr, str(a), str(b)], None
        yield ["divide", expr, "2", "3", "--json"], None
        yield ["kernel", expr, "3", "5", "--json"], None
    for a, b in [(0, 0), (-2, 1), (2, 2), (4, 6), (0, 3)]:
        yield ["divide", "x^4", str(a), str(b)], None
        yield ["kernel", "x^4", str(a), str(b)], None

    for a, b in _coprime_pairs(7, 9):
        yield ["rank-nullity", str(a), str(b)], None
    for a, b in [(3, 5), (5, 3), (2, 9)]:
        for order in ("0", "3", "7", "44", "45", "-5"):
            yield ["rank-nullity", str(a), str(b), "--order", order], None
        yield ["rank-nullity", str(a), str(b), "--json"], None
    for a, b in [(3, 3), (1, 4), (4, 6)]:
        yield ["rank-nullity", str(a), str(b)], None
    for cap in ("20", "45", "46", "abc"):
        yield ["rank-nullity", "3", "5"], cap
        yield ["rank-nullity", "3", "5", "--order", "1000000000000"], cap
        for kind in ("kernel", "semigroup_ring", "univariate"):
            yield ["hilbert", kind, "3", "5", "50"], cap
    yield ["hilbert", "kernel", "3", "5", "1000000000000"], None

    for a, b in _coprime_pairs(7, 9):
        ab, F = a * b, a * b - a - b
        for kind in ("full_ring_frobenius", "semigroup_ring", "kernel"):
            for n in sorted({0, 1, F, ab, 3 * ab}):
                yield ["hilbert", kind, str(a), str(b), str(n)], None
            yield ["hilbert", kind, str(a), str(b), "--order", str(ab), "--json"], None
    for kind in ("univariate", "full_ring_degree"):
        for n in ("0", "1", "4", "30"):
            yield ["hilbert", kind, "-", "-", n], None
        yield ["hilbert", kind, "3", "5", "--order", "6", "--json"], None
    for kind in ("full_ring_frobenius", "semigroup_ring", "kernel"):
        for a, b, n in [("-", "5", "4"), ("3", "-", "4"), ("3", "3", "4"), ("4", "6", "4"),
                        ("1", "5", "4"), ("3", "5", "-1"), ("x", "5", "4"), ("3", "5.0", "4")]:
            yield ["hilbert", kind, a, b, n], None
        yield ["hilbert", kind, "3", "5"], None


def build() -> list[dict]:
    entries = []
    for argv, cap in commands():
        code, out, err = run(argv, cap)
        entries.append({"argv": argv, "cap": cap, "exit": code, "stdout": out, "stderr": err})
    return entries


def dump(entries: list[dict]) -> str:
    """One entry per line, so a changed output shows as a one-line diff."""
    return "[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]\n"


def main(argv: list[str]) -> int:
    path = Path(argv[0]) if argv else DEFAULT_PATH
    text = dump(build())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"{len(text.splitlines()) - 2} commands, sha256 {_sha(text)}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
