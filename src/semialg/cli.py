"""Command-line front end: deterministic text and JSON output for scripting.

Exit codes: 0 success, 1 a failed check or a stdout closed before the
output was written, 2 domain precondition violated or a usage error, 3
expression parse error. All randomized checking lives in the test suite;
every command here is a pure deterministic function of its arguments.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from collections.abc import Callable, Sequence
from itertools import compress, takewhile
from types import SimpleNamespace

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
    that _int_array writes from digit columns or in blocks of 16,384 values.
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


_ONE_DIGIT = bytes(range(10))  # the byte values written as one digit


@functools.cache
def _digit_columns() -> tuple[bytes, bytes, bytes]:
    """Tables from a byte v to the hundreds, tens and ones ASCII digit of v, "\0" for a leading zero."""
    padded = [str(v).rjust(3, "\0").encode() for v in range(256)]
    return tuple(bytes(digits[k] for digits in padded) for k in range(3))


def _int_array(values: Sequence[int]) -> list[str]:
    """Pieces that concatenate to json.dumps(list(values)), byte for byte, for a sequence of ints.

    A bytes-like values is read straight into the digit columns of a buffer
    of fixed records, one piece: ", d" when every value is one digit, else
    ", ddd", whose "\0" of leading zeros one translate drops; the first
    record's ", " becomes "[". Anything else is one %d format per block of
    16,384 values, a piece each, so no template, tuple of every value or
    joined copy of the text is alive at once.
    """
    n = len(values)
    if not n:
        return ["[]"]
    if not isinstance(values, (bytes, bytearray)):
        template = ", %d" * min(n, 16384)
        pieces = ["[", *(template[: 4 * len(block)] % tuple(block)
                         for block in (values[i : i + 16384] for i in range(0, n, 16384))), "]"]
        pieces[1] = pieces[1][2:]  # the first value has no ", " before it
        return pieces
    one_digit = not values.translate(None, _ONE_DIGIT)
    columns = _digit_columns()[2:] if one_digit else _digit_columns()
    buf = bytearray(b", " + b"\0" * len(columns)) * n
    for k, table in enumerate(columns, 2):
        buf[k :: 2 + len(columns)] = values.translate(table)
    buf[:2] = b"["  # shrinks the front in place
    buf += b"]"
    if not one_digit:
        buf = buf.translate(None, b"\0")  # the padded buffer is dropped once this copy is made
    return [buf.decode()]


def _series_text(c: Sequence[int]) -> str:
    """The truncated series c_0 + c_1*q + ... + c_N*q^N + O(q^{N+1}), every coefficient written."""
    # the terms from q^2 on are joined 16,384 at a time, never one string per term at once
    blocks = (" + ".join(map("{}*q^{}".format, c[n : n + 16384], range(n, n + 16384)))
              for n in range(2, len(c), 16384))
    return " + ".join([str(c[0]), *(f"{c1}*q" for c1 in c[1:2]), *blocks, f"O(q^{len(c)})"])


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
        if args.sweep < 0:
            raise ValueError(f"sweep bound must be nonnegative, got {args.sweep}")
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
    coefficients = gh.hilbert_series(args.which, a, b, order)
    inputs = {"which": args.which, "a": a, "b": b, "order": order}
    result = {**inputs, "coefficients": _SLOT}
    return _emit(args, inputs, result, lambda: [_series_text(coefficients)], lambda: _int_array(coefficients))


class _Command:
    """One command of the grammar: its handler, help and arguments, --json first, and what _read_plain reads.

    An argument is an option string or a positional's dest, with the keywords of
    the add_argument call argparse makes of it. options maps each option string,
    and positionals lists the others in order, to the dest, nargs (0 for a flag),
    type and choices argparse reads; defaults are every dest's value when absent,
    with handler and command; least and most count the positionals' arguments:
    fixed ones, then '?' ones, or one '+' alone, so they are assigned in order.
    signed_expr marks a command whose first positional is an expression.
    """

    def __init__(self, name: str, handler: Callable, help: str, *arguments: tuple[str, dict],
                 signed_expr: bool = False):
        self.name, self.help, self.signed_expr = name, help, signed_expr
        self.arguments = (("--json", dict(action="store_true", help="emit a JSON envelope")), *arguments)
        self.options, self.positionals = {}, []
        self.defaults = {"handler": handler, "command": name}
        for first, spec in self.arguments:
            nargs = 0 if spec.get("action") == "store_true" else spec.get("nargs")
            argument = SimpleNamespace(dest=first.lstrip("-").replace("-", "_"), nargs=nargs,
                                       type=spec.get("type"), choices=spec.get("choices"))
            self.defaults[argument.dest] = False if nargs == 0 else None
            if first[:1] == "-":
                self.options[first] = argument
            else:
                self.positionals.append(argument)
        nargs = [argument.nargs for argument in self.positionals]
        self.least, self.most = len(nargs) - nargs.count("?"), math.inf if "+" in nargs else len(nargs)


@functools.cache
def build_parser() -> dict[str, _Command]:
    """The semialg grammar, one _Command by command name, built once per process and shared by every call.

    _read_plain reads plain argv off it; _argparse_parser builds argparse's parsers from it for the rest.
    """
    generators = ("generators", dict(type=int, nargs="+"))
    expr, pair = ("expr", {}), (("a", dict(type=int)), ("b", dict(type=int)))
    commands = [
        _Command("frobenius", _cmd_frobenius, "Frobenius number, genus, and gap count", generators,
                 ("--gaps", dict(action="store_true", help="also list the gaps")),
                 ("--witness", dict(type=int, metavar="N", help="print a representation of N"))),
        _Command("gaps", _cmd_gaps, "list the gaps of S(A)", generators),
        _Command("gap-poly", _cmd_gap_poly, "print the gap generating polynomial", generators),
        _Command("verify", _cmd_verify, "run the identity checks for a pair (or a sweep)",
                 ("a", dict(type=int, nargs="?")), ("b", dict(type=int, nargs="?")),
                 ("--sweep", dict(type=int, metavar="B", help="all coprime pairs 2 <= a < b <= B"))),
        _Command("divide", _cmd_divide, "divide an expression by x^b - y^a", expr, *pair, signed_expr=True),
        _Command("kernel", _cmd_kernel, "kernel membership by both methods", expr, *pair, signed_expr=True),
        _Command("rank-nullity", _cmd_rank_nullity, "check dim E_n = dim R_n + dim K_n", *pair,
                 ("--order", dict(type=int, metavar="N", help="check up to n = N (default 3ab)"))),
        _Command("hilbert", _cmd_hilbert, "print a truncated Hilbert series",
                 ("which", dict(choices=gh.SERIES_KINDS)),
                 ("a", dict(help="first weight, or '-' where unused")),
                 ("b", dict(help="second weight, or '-' where unused")),
                 ("n", dict(type=int, nargs="?", help="truncation order")),
                 ("--order", dict(type=int, metavar="N", help="truncation order (alternative)"))),
    ]
    return {command.name: command for command in commands}


def _is_expression(command: _Command, arg: str) -> bool:
    """Whether arg, led by a single '-', is the expression of a signed_expr command: it is not exactly an option.

    So "-x^3+y^2", which argparse takes for an unknown option, is the expression,
    and so is "-hx", which argparse reads as -h with "x" attached. -h is an option
    of every command.
    """
    return (command.signed_expr and arg[:1] == "-" and arg[1:2] != "-"
            and arg != "-h" and arg not in command.options)


def _typed(argument: SimpleNamespace, text: str):
    value = text if argument.type is None else argument.type(text)
    if argument.choices is not None and value not in argument.choices:
        raise ValueError(value)
    return value


def _read_plain(command: _Command, args: list[str]) -> SimpleNamespace | None:
    """The arguments argparse's parser of command reads from args, when args are plain; None for any other args.

    Plain args are exact option strings, each flag alone and each valued option
    followed by a value not led by '-', and one contiguous run of positionals,
    among them '-' and expressions, assigned in order. argparse decides the rest:
    -h, an abbreviation, --opt=value, --, a negative number, an option inside the
    run, a missing or extra positional, a failed type call or a bad choice.
    """
    values, run, closed = dict(command.defaults), [], False
    tokens = iter(args)
    try:
        for arg in tokens:
            option = command.options.get(arg)
            if option is None:
                if closed or arg[:1] == "-" and arg != "-" and not _is_expression(command, arg):
                    return None
                run.append(arg)
                continue
            closed = bool(run)
            if option.nargs == 0:
                values[option.dest] = True
                continue
            value = next(tokens, "-")  # a missing value is declined as one led by '-'
            if value[:1] == "-":
                return None
            values[option.dest] = _typed(option, value)
        if not command.least <= len(run) <= command.most:
            return None
        spare = len(run) - command.least
        tokens = iter(run)
        for positional in command.positionals:
            if positional.nargs == "?":
                if not spare:
                    continue
                spare -= 1
            values[positional.dest] = ([_typed(positional, t) for t in tokens] if positional.nargs == "+"
                                       else _typed(positional, next(tokens)))
    except (TypeError, ValueError):  # what argparse catches of a type call
        return None
    return SimpleNamespace(**values)


@functools.cache
def _argparse_parser():
    """argparse's parsers of the grammar, for help and usage errors; argparse is imported on the first call.

    Each command's parser, of the same class as the top-level one, makes its
    _Command's add_argument calls in order; the top-level `commands` holds them.
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An ArgumentParser whose usage error is the one line `error: <message>`, exit code 2."""

        grammar: _Command | None = None

        def error(self, message: str):
            self.exit(2, f"error: {message}\n")

        def _parse_optional(self, arg_string):
            if self.grammar is not None and _is_expression(self.grammar, arg_string):
                return None
            return super()._parse_optional(arg_string)

    parser = _Parser(prog="semialg", description="Exact computations on numerical semigroups, gap polynomials, "
                     "bivariate division, and Hilbert series.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in build_parser().items():
        p = sub.add_parser(name, help=command.help)
        p.grammar = command
        for first, spec in command.arguments:
            p.add_argument(first, **spec)
        p.set_defaults(handler=command.defaults["handler"], command=name)
    parser.commands = sub.choices
    return parser


def _parse(argv: list[str]):
    """The arguments of argv, read off the grammar by _read_plain or else parsed by argparse.

    argparse reads them with the named command's own parser, or with the top-level
    parser when argv names no command first: no arguments, -h or an unknown name.
    Two argv whose reading differs between releases are usage errors here: -h with text
    attached before any '--' (-h9, -h=9, -hh), unless it is the expression, and a repeated '--'.
    """
    command = build_parser().get(argv[0]) if argv else None
    args = None if command is None else _read_plain(command, argv[1:])
    if args is not None:
        return args
    parser = _argparse_parser() if command is None else _argparse_parser().commands[argv[0]]
    for arg in takewhile("--".__ne__, argv[1:] if command else argv):
        if arg[:2] == "-h" and arg != "-h" and not (command and _is_expression(command, arg)):
            parser.error(f"argument -h/--help: ignored explicit argument {arg[2:].removeprefix('=')!r}")
    if command is None:
        return parser.parse_args(argv)
    args = parser.parse_args(argv[1:])
    for positional in command.positionals:
        if positional.nargs != "+" and isinstance(getattr(args, positional.dest), list):
            parser.error(f"argument {positional.dest}: expected one argument")
    return args


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
