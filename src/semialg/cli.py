"""Command-line front end: deterministic text and JSON output for scripting.

Exit codes: 0 success, 1 a failed check or a stdout closed before the
output was written, 2 domain precondition violated or a usage error, 3
expression parse error. All randomized checking lives in the test suite;
every command here is a pure deterministic function of its arguments.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
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


def _emit(args, inputs: dict, result: dict, text_lines: Callable[[], list[str]],
          fragment: Callable[[], list[str]] | None = None) -> int:
    """Print the JSON envelope, or the lines text_lines() builds; it is not called for --json.

    With fragment, the one result value equal to _SLOT is written as the JSON
    text whose pieces fragment() returns: a genus-sized gap array printed piece
    by piece, never built as one string, or an order-sized coefficient array
    that _int_array writes with no Python step per coefficient.
    """
    if args.json:
        text = json.dumps({"command": args.command, "inputs": inputs, "result": result}, sort_keys=True)
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


@functools.cache
def _digit_columns() -> tuple[bytes, bytes, bytes]:
    """Tables from a byte v to the hundreds, tens and ones ASCII digit of v, "\0" for a leading zero."""
    padded = [str(v).rjust(3, "\0").encode() for v in range(256)]
    return tuple(bytes(digits[k] for digits in padded) for k in range(3))


def _int_array(values: tuple[int, ...]) -> str:
    """json.dumps(values), byte for byte, for a tuple of ints.

    When every value is in 0..255, bytes(values) holds them and each value is
    the record ", ddd" of a buffer: three translate tables give its digit
    columns, written by strided slices, and one translate drops the "\0" of
    the leading zeros and of the first record's ", ". Otherwise bytes() raises
    ValueError and one %-format writes the array.
    """
    n = len(values)
    if not n:
        return "[]"
    try:
        octets = bytes(values)
    except ValueError:
        return ("[" + "%d, " * (n - 1) + "%d]") % values
    buf = bytearray(b", \0\0\0") * n
    buf[:2] = b"\0["
    buf += b"]"  # in place: `* n + b"]"` would hold two buffers at once
    for k, table in enumerate(_digit_columns(), 2):
        buf[k::5] = octets.translate(table)
    del octets  # each order-sized copy is dropped once the next is made
    ascii_text = buf.translate(None, b"\0")
    del buf
    return ascii_text.decode()


def _gap_line(table: sc.SemigroupTable) -> str:
    return "".join(_gap_pieces(table, " ")) if table.genus else "(none)"


def _gap_array(table: sc.SemigroupTable) -> list[str]:
    return ["[", *_gap_pieces(table, ", "), "]"]


def _cmd_frobenius(args) -> int:
    A = sc.validate_generators(args.generators)
    if args.witness is not None and args.witness < 0:
        raise ValueError(f"witness must be nonnegative, got {args.witness}")
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
    return _emit(args, {"generators": args.generators}, result, lines, gap_array)


def _cmd_gaps(args) -> int:
    A = sc.validate_generators(args.generators)
    table = sc.build_table(A)
    result = {"generators": list(A.elements), "gaps": _SLOT, "genus": table.genus}
    inputs = {"generators": args.generators}
    gap_array = functools.partial(_gap_array, table)
    return _emit(args, inputs, result, lambda: [_gap_line(table)], gap_array)


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
        args, inputs, result,
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
        code = _emit(args, {"sweep": args.sweep}, result, lambda: [text])
        return code if passed == pairs else 1
    if args.a is None or args.b is None:
        raise ValueError("verify needs a pair a b, or --sweep B")
    checks = gh.pair_checks(args.a, args.b)
    text = [f"{name}: {'PASS' if ok else 'FAIL'}" for name, ok in checks.items()]
    code = _emit(args, {"a": args.a, "b": args.b}, checks, lambda: text)
    return code if all(checks.values()) else 1


def _verdict_line(verdicts: dict[str, bool]) -> str:
    return " ".join(f"in_kernel({method})={str(ok).lower()}" for method, ok in verdicts.items())


def _cmd_divide(args) -> int:
    g = biv.parse_bivariate(args.expr)
    q, r = biv.divide(g, args.a, args.b)
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
        args, inputs, result,
        lambda: [f"divisor: {biv._monomial_text(args.b, 0)} - {biv._monomial_text(0, args.a)}",
                 f"quotient: {q}", f"remainder: {r}", _verdict_line(verdicts)],
    )


def _cmd_kernel(args) -> int:
    g = biv.parse_bivariate(args.expr)
    verdicts = {
        "evaluate": biv.in_kernel(g, args.a, args.b, "evaluate"),
        "divide": biv.in_kernel(g, args.a, args.b, "divide"),
    }
    inputs = {"expr": args.expr, "a": args.a, "b": args.b}
    return _emit(args, inputs, verdicts, lambda: [_verdict_line(verdicts)])


def _cmd_rank_nullity(args) -> int:
    order = args.order if args.order is not None else 3 * args.a * args.b
    ok = gh.rank_nullity_failure(args.a, args.b, order) is None
    result = {"a": args.a, "b": args.b, "order": order, "holds": ok}
    text = f"rank_nullity up to n={order}: {'PASS' if ok else 'FAIL'}"
    code = _emit(args, {"a": args.a, "b": args.b, "order": order}, result, lambda: [text])
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
    inputs = {"which": args.which, "a": a, "b": b, "order": order}
    result = {**inputs, "coefficients": _SLOT}
    return _emit(args, inputs, result, lambda: [str(series)], lambda: [_int_array(series.coefficients)])


def _is_expression(parser: argparse.ArgumentParser, arg: str) -> bool:
    """Whether arg, led by a single '-', is the expression of a signed_expr parser: it is not exactly an option.

    So "-x^3+y^2", which argparse takes for an unknown option, is the expression,
    and so is "-hx", which argparse reads as -h with "x" attached.
    """
    return (parser.signed_expr and arg[:1] == "-" and arg[1:2] != "-"
            and arg not in parser._option_string_actions)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage error is the one line `error: <message>`, exit code 2.

    add_subparsers makes each command's parser of the same class. build_parser
    sets the top-level parser's `commands`, each command's parser by name, and
    `signed_expr` on the parsers whose first positional is an expression.
    """

    commands: dict[str, _Parser]
    signed_expr = False

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")

    def _parse_optional(self, arg_string):
        return None if _is_expression(self, arg_string) else super()._parse_optional(arg_string)

    @functools.cached_property
    def plain_table(self) -> tuple[dict, list, dict, int, float]:
        """(options, positionals, defaults, least, most) for _read_plain, built from the actions on first use.

        defaults are the action defaults over set_defaults, and least and most
        count the arguments the positionals take. -h sets no default and is left
        to argparse. build_parser's positionals are fixed, then '?', or one '+'
        alone, so they can be assigned in order.
        """
        options, positionals, values = {}, [], dict(self._defaults)
        for action in self._actions:
            if action.default is argparse.SUPPRESS:
                continue
            values[action.dest] = action.default
            if action.option_strings:
                options.update(dict.fromkeys(action.option_strings, action))
            else:
                positionals.append(action)
        least = sum(action.nargs != "?" for action in positionals)
        most = math.inf if any(action.nargs == "+" for action in positionals) else len(positionals)
        return options, positionals, values, least, most


def _typed(action: argparse.Action, text: str):
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(value)
    return value


def _read_plain(parser: _Parser, args: list[str]) -> argparse.Namespace | None:
    """The Namespace parser.parse_args(args) builds, when args are plain; None for any other args.

    Plain args are exact option strings, each flag alone and each valued option
    followed by a value not led by '-', and one contiguous run of positionals,
    among them '-' and expressions, assigned in order. argparse decides the rest:
    -h, an abbreviation, --opt=value, --, a negative number, an option inside the
    run, a missing or extra positional, a failed type call or a bad choice.
    """
    options, positionals, defaults, least, most = parser.plain_table
    values, run, closed = dict(defaults), [], False
    tokens = iter(args)
    try:
        for arg in tokens:
            action = options.get(arg)
            if action is None:
                if closed or arg[:1] == "-" and arg != "-" and not _is_expression(parser, arg):
                    return None
                run.append(arg)
                continue
            closed = bool(run)
            if action.nargs == 0:
                values[action.dest] = action.const
                continue
            value = next(tokens, "-")  # a missing value is declined as one led by '-'
            if value[:1] == "-":
                return None
            values[action.dest] = _typed(action, value)
        if not least <= len(run) <= most:
            return None
        spare = len(run) - least
        tokens = iter(run)
        for action in positionals:
            if action.nargs == "?":
                if not spare:
                    continue
                spare -= 1
            values[action.dest] = ([_typed(action, t) for t in tokens] if action.nargs == "+"
                                   else _typed(action, next(tokens)))
    except (argparse.ArgumentTypeError, TypeError, ValueError):  # what argparse catches of a type call
        return None
    return argparse.Namespace(**values)


@functools.cache
def build_parser() -> _Parser:
    """The semialg argument parser, built once per process and shared by every call."""
    parser = _Parser(
        prog="semialg",
        description="Exact computations on numerical semigroups, gap polynomials, "
        "bivariate division, and Hilbert series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")
        p.set_defaults(handler=handler, command=name)
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
    p.signed_expr = True
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)

    p = add("kernel", _cmd_kernel, help="kernel membership by both methods")
    p.add_argument("expr")
    p.signed_expr = True
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

    parser.commands = sub.choices
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of argv, read by _read_plain or else parsed by the named command's own parser.

    The top-level parser reads only argv that names no command first: no
    arguments, -h or an unknown name. Its Namespace would also hold `command`.
    """
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return _read_plain(command, argv[1:]) or command.parse_args(argv[1:])


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader left, as `| head` does; the flush at exit writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except biv.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:  # NotNumericalSemigroupError and BoundTooLargeError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
