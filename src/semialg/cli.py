"""Command-line front end: deterministic text and JSON output for scripting.

Exit codes: 0 success, 2 domain precondition violated, 3 expression parse
error. All randomized checking lives in the test suite; every command here
is a pure deterministic function of its arguments.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Callable
from itertools import compress

from . import bivariate_algebra as biv
from . import graded_hilbert as gh
from . import semigroup_core as sc

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_PARSE = 3


_SLOT = "\0"  # result value _emit writes as the fragment; json.dumps prints it as "\u0000"


def _emit(args, command: str, inputs: dict, result: dict, text_lines: Callable[[], list[str]],
          fragment: Callable[[], list[str]] | None = None) -> int:
    """Print the JSON envelope, or the lines text_lines() builds; it is not called for --json.

    With fragment, the one result value equal to _SLOT is written as the JSON
    text whose pieces fragment() returns: a genus-sized array printed piece by
    piece, never built as one string.
    """
    if args.json:
        text = json.dumps({"command": command, "inputs": inputs, "result": result}, sort_keys=True)
        if fragment is None:
            print(text)
        else:
            head, _, tail = text.partition(json.dumps(_SLOT))
            print(head, *fragment(), tail, sep="")
    else:
        for line in text_lines():
            print(line)
    return EXIT_OK


@functools.cache
def _decimal_tokens(padded: bool) -> tuple[str, ...]:
    """The 1000 strings "0" ... "999", or "000" ... "999" when padded."""
    return tuple(f"{n:03}" if padded else str(n) for n in range(1000))


def _gap_pieces(table: sc.SemigroupTable, sep: str) -> list[str]:
    """The gaps of table in decimal with sep between them, as pieces that concatenate to that text.

    Read off the gap indicator of 0..F in blocks of 1000, with no int per gap:
    block h > 0 is sep + str(h) before the three digits of each of its gaps,
    so compress picks existing strings and join copies them, and the Python
    loop runs F/1000 times. A block without gaps adds no piece. For F = -1
    the one piece is "".
    """
    ind = table.gap_indicator(table.frobenius)
    pieces = [sep.join(compress(_decimal_tokens(False), ind[:1000]))]
    low = _decimal_tokens(True)
    for start in range(1000, len(ind), 1000):
        prefix = sep + str(start // 1000)
        block = prefix.join(compress(low, ind[start:start + 1000]))
        if block:
            pieces.append(prefix + block)
    return pieces


def _gap_line(table: sc.SemigroupTable) -> str:
    return "".join(_gap_pieces(table, " ")) if table.genus else "(none)"


def _gap_array(table: sc.SemigroupTable) -> list[str]:
    return ["[", *_gap_pieces(table, ", "), "]"]


def _cmd_frobenius(args) -> int:
    A = sc.validate_generators(args.generators)
    table = sc.build_table(A)
    result = {
        "generators": list(A.elements),
        "frobenius": table.frobenius,
        "genus": table.genus,
        "gap_count": table.genus,
    }
    if args.gaps:
        result["gaps"] = _SLOT
    if args.witness is not None:
        rep = sc.represent_from_table(args.witness, table)
        result["witness"] = rep

    def lines():
        out = [f"frobenius={table.frobenius} genus={table.genus} gap_count={table.genus}"]
        if args.gaps:
            out.append("gaps: " + _gap_line(table))
        if args.witness is None:
            return out
        if rep is None:
            out.append(f"witness({args.witness}): none (gap)")
        else:
            terms = " + ".join(f"{r}*{a}" for a, r in zip(A.elements, rep))
            out.append(f"witness({args.witness}): r={list(rep)} [{terms}]")
        return out

    gap_array = functools.partial(_gap_array, table) if args.gaps else None
    return _emit(args, "frobenius", {"generators": args.generators}, result, lines, gap_array)


def _cmd_gaps(args) -> int:
    A = sc.validate_generators(args.generators)
    table = sc.build_table(A)
    result = {"generators": list(A.elements), "gaps": _SLOT, "genus": table.genus}
    inputs = {"generators": args.generators}
    gap_array = functools.partial(_gap_array, table)
    return _emit(args, "gaps", inputs, result, lambda: [_gap_line(table)], gap_array)


def _poly_pieces(table: sc.SemigroupTable, sep: str, first: str, last: str) -> list[str]:
    """The gap pieces with sep, the leading gap 1 written as first and last appended.

    f_A has coefficient 1 at each gap, and 1 is the first gap whenever there is one.
    """
    pieces = _gap_pieces(table, sep)
    return [first, pieces[0][1:], *pieces[1:], last]


def _cmd_gap_poly(args) -> int:
    A = sc.validate_generators(args.generators)
    table = sc.build_table(A)
    result = {"generators": list(A.elements), "terms": _SLOT}
    inputs = {"generators": args.generators}
    return _emit(
        args, "gap-poly", inputs, result,
        lambda: ["".join(_poly_pieces(table, " + q^", "q", "")) if table.genus else "0"],
        lambda: _poly_pieces(table, ", 1], [", "[[1", ", 1]]") if table.genus else ["[]"],
    )


def _cmd_verify(args) -> int:
    if args.sweep is not None:
        if args.a is not None:
            raise ValueError("verify takes a pair a b or --sweep B, not both")
        # largest pair first: (B - 1, B) has the largest table, so an over-cap sweep is refused at once
        verdicts = [all(gh.pair_checks(a, b).values())
                    for b in range(args.sweep, 2, -1) for a in range(b - 1, 1, -1) if math.gcd(a, b) == 1]
        pairs, passed = len(verdicts), sum(verdicts)
        result = {"sweep": args.sweep, "pairs": pairs, "passed": passed}
        text = f"{pairs} pairs, {passed} PASS"
        code = _emit(args, "verify", {"sweep": args.sweep}, result, lambda: [text])
        return code if passed == pairs else 1
    if args.a is None or args.b is None:
        raise ValueError("verify needs a pair a b, or --sweep B")
    checks = gh.pair_checks(args.a, args.b)
    text = [f"{name}: {'PASS' if ok else 'FAIL'}" for name, ok in checks.items()]
    code = _emit(args, "verify", {"a": args.a, "b": args.b}, checks, lambda: text)
    return code if all(checks.values()) else 1


def _verdict_line(verdicts: dict[str, bool]) -> str:
    return " ".join(f"in_kernel({method})={str(ok).lower()}" for method, ok in verdicts.items())


def _cmd_divide(args) -> int:
    g = biv.parse_bivariate(args.expr)
    q, r = biv.divide(g, args.a, args.b)
    divisor = biv.BivariatePolynomial.binomial_xb_minus_ya(args.a, args.b)
    verdicts = {
        "evaluate": biv.in_kernel(g, args.a, args.b, "evaluate"),
        "divide": r.is_zero(),
    }
    result = {
        "quotient": biv.bivariate_to_json(q),
        "remainder": biv.bivariate_to_json(r),
        "in_kernel": verdicts,
    }
    inputs = {"expr": args.expr, "a": args.a, "b": args.b}
    return _emit(
        args, "divide", inputs, result,
        lambda: [f"divisor: {divisor}", f"quotient: {q}", f"remainder: {r}", _verdict_line(verdicts)],
    )


def _cmd_kernel(args) -> int:
    g = biv.parse_bivariate(args.expr)
    verdicts = {
        "evaluate": biv.in_kernel(g, args.a, args.b, "evaluate"),
        "divide": biv.in_kernel(g, args.a, args.b, "divide"),
    }
    inputs = {"expr": args.expr, "a": args.a, "b": args.b}
    return _emit(args, "kernel", inputs, verdicts, lambda: [_verdict_line(verdicts)])


def _cmd_rank_nullity(args) -> int:
    order = args.order if args.order is not None else 3 * args.a * args.b
    ok = gh.rank_nullity_failure(args.a, args.b, order) is None
    result = {"a": args.a, "b": args.b, "order": order, "holds": ok}
    text = f"rank_nullity up to n={order}: {'PASS' if ok else 'FAIL'}"
    code = _emit(args, "rank-nullity", {"a": args.a, "b": args.b, "order": order}, result, lambda: [text])
    return code if ok else 1


def _opt_int(value: str, name: str) -> int | None:
    if value == "-":
        return None
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"weight {name} must be an integer or '-', got {value!r}") from None


def _cmd_hilbert(args) -> int:
    if args.n is not None and args.order is not None:
        raise ValueError("hilbert takes a truncation order N or --order N, not both")
    order = args.order if args.order is not None else args.n
    if order is None:
        raise ValueError("hilbert needs a truncation order (positional N or --order)")
    a, b = _opt_int(args.a, "a"), _opt_int(args.b, "b")
    series = gh.hilbert_series(args.which, a, b, order)
    result = {"which": args.which, "a": a, "b": b, **gh.series_to_json(series)}
    inputs = {"which": args.which, "a": a, "b": b, "order": order}
    return _emit(args, "hilbert", inputs, result, lambda: [str(series)])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The semialg argument parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="semialg",
        description="Exact computations on numerical semigroups, gap polynomials, "
        "bivariate division, and Hilbert series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")
        p.set_defaults(handler=handler)
        return p

    p = add("frobenius", _cmd_frobenius, help="Frobenius number, genus, and gap count")
    p.add_argument("generators", type=int, nargs="+")
    p.add_argument("--gaps", action="store_true", help="also list the gaps")
    p.add_argument("--witness", type=int, metavar="N", help="print a representation of N")

    p = add("gaps", _cmd_gaps, help="list the gaps of S(A)")
    p.add_argument("generators", type=int, nargs="+")

    p = add("gap-poly", _cmd_gap_poly, help="print the gap generating polynomial")
    p.add_argument("generators", type=int, nargs="+")

    p = add("verify", _cmd_verify, help="run the identity checks for a pair (or a sweep)")
    p.add_argument("a", type=int, nargs="?")
    p.add_argument("b", type=int, nargs="?")
    p.add_argument("--sweep", type=int, metavar="B", help="all coprime pairs 2 <= a < b <= B")

    p = add("divide", _cmd_divide, help="divide an expression by x^b - y^a")
    p.add_argument("expr")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)

    p = add("kernel", _cmd_kernel, help="kernel membership by both methods")
    p.add_argument("expr")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)

    p = add("rank-nullity", _cmd_rank_nullity, help="check dim E_n = dim R_n + dim K_n")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--order", type=int, metavar="N", help="check up to n = N (default 3ab)")

    p = add("hilbert", _cmd_hilbert, help="print a truncated Hilbert series")
    p.add_argument("which", choices=gh.SERIES_KINDS)
    p.add_argument("a", help="first weight, or '-' where unused")
    p.add_argument("b", help="second weight, or '-' where unused")
    p.add_argument("n", type=int, nargs="?", help="truncation order")
    p.add_argument("--order", type=int, metavar="N", help="truncation order (alternative)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except biv.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:  # NotNumericalSemigroupError and BoundTooLargeError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
