import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import semialg
from oracles import euler_product, gaps_of, hand_built_parser, naive_gaps, naive_members, naive_partition_count
from semialg import cli
from semialg import graded_hilbert as gh
from semialg import semigroup_core as sc


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gap_poly_text(gaps):
    """f_A written as gap-poly prints it: q^n for each gap n, q for the gap 1, and 0 without gaps."""
    return " + ".join("q" if n == 1 else f"q^{n}" for n in gaps) or "0"


class TestFrobeniusCommand:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "frobenius", "3", "5")
        assert code == 0
        assert "frobenius=7 genus=4" in out

    def test_singleton_one(self, capsys):
        code, out, _ = run(capsys, "frobenius", "1")
        assert code == 0
        assert "frobenius=-1 genus=0" in out

    def test_non_coprime_exit_2(self, capsys):
        code, _, err = run(capsys, "frobenius", "4", "6")
        assert code == 2
        assert "gcd(A)=2, not a numerical semigroup" in err

    def test_non_integer_max_bound_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "abc")
        code, out, err = run(capsys, "frobenius", "3", "5")
        assert code == 2
        assert out == ""
        assert err == "error: SEMIGROUP_MAX_BOUND must be an integer, got 'abc'\n"

    def test_over_cap_exit_2(self, capsys, monkeypatch):
        monkeypatch.delenv("SEMIGROUP_MAX_BOUND", raising=False)
        code, _, err = run(capsys, "frobenius", "3163", "3167", "--json")
        assert code == 2
        assert err == "error: table of 10017226 cells exceeds SEMIGROUP_MAX_BOUND=10000000\n"

    def test_witness_of_huge_n(self, capsys):
        n = 10**12 + 3
        code, out, _ = run(capsys, "frobenius", "1009", "1013", "1019", "--witness", str(n), "--json")
        assert code == 0
        r = json.loads(out)["result"]["witness"]
        assert min(r) >= 0 and 1009 * r[0] + 1013 * r[1] + 1019 * r[2] == n

    def test_gap_count_is_genus(self, capsys):
        code, out, _ = run(capsys, "frobenius", "4", "7", "9", "--json")
        result = json.loads(out)["result"]
        assert result["gap_count"] == result["genus"] == len(gaps_of(sc.build_table(sc.validate_generators([4, 7, 9]))))

    @pytest.mark.parametrize("witness", ["-1", "-4", "-1000000000000"])
    def test_negative_witness_exit_2_one_line(self, capsys, witness):
        for extra in ([], ["--json"], ["--gaps"]):
            code, out, err = run(capsys, "frobenius", "3", "5", "--witness", witness, *extra)
            assert (code, out) == (2, "")
            assert err == f"error: witness must be nonnegative, got {witness}\n"

    def test_negative_witness_after_the_generators(self, capsys):
        code, _, err = run(capsys, "frobenius", "4", "6", "--witness", "-1")
        assert code == 2
        assert "gcd(A)=2, not a numerical semigroup" in err

    def test_gaps_and_witness(self, capsys):
        code, out, _ = run(capsys, "frobenius", "3", "5", "--gaps", "--witness", "8")
        assert code == 0
        assert "gaps: 1 2 4 7" in out
        assert "r=[1, 1]" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "frobenius", "3", "5", "--json", "--gaps")
        payload = json.loads(out)
        table = sc.build_table(sc.validate_generators([3, 5]))
        assert payload["result"]["frobenius"] == table.frobenius
        assert payload["result"]["genus"] == table.genus
        assert payload["result"]["gaps"] == list(gaps_of(table))


class TestGapsAndGapPoly:
    def test_gaps(self, capsys):
        code, out, _ = run(capsys, "gaps", "3", "5")
        assert code == 0
        assert out.strip() == "1 2 4 7"

    def test_gap_poly_text(self, capsys):
        code, out, _ = run(capsys, "gap-poly", "3", "5")
        assert code == 0
        assert out.strip() == "q + q^2 + q^4 + q^7"

    def test_gap_poly_json(self, capsys):
        code, out, _ = run(capsys, "gap-poly", "3", "5", "--json")
        payload = json.loads(out)
        assert payload["result"]["terms"] == [[n, 1] for n in naive_gaps((3, 5))]

    @pytest.mark.parametrize("gens", [["1"], ["1", "7"], ["2", "3"], ["4", "7", "9"], ["6", "10", "15"]])
    def test_gap_poly_json_matches_naive_gaps(self, capsys, gens):
        _, out, _ = run(capsys, "gap-poly", *gens, "--json")
        gaps = naive_gaps([int(a) for a in gens])
        assert json.loads(out)["result"]["terms"] == [[n, 1] for n in gaps]
        _, out, _ = run(capsys, "gap-poly", *gens)
        assert out == gap_poly_text(gaps) + "\n"


class TestGapOutputParity:
    """The gap outputs match, byte for byte, the encodings of one container per gap."""

    @staticmethod
    def envelope(command, gens, result):
        return json.dumps({"command": command, "inputs": {"generators": gens}, "result": result}, sort_keys=True) + "\n"

    # no gaps ({1}, {1, 7}), one gap, k = 3 and k = 4 in the thousands, and genus 196,560
    @pytest.mark.parametrize(
        "gens", [[1], [1, 7], [2, 3], [211, 233, 257], [251, 263, 277, 293], [586, 673]]
    )
    def test_gap_outputs_byte_identical(self, capsys, gens):
        A = sc.validate_generators(gens)
        gaps = naive_gaps(gens)
        line = " ".join(map(str, gaps)) or "(none)"
        F, g = (max(gaps) if gaps else -1), len(gaps)
        argv = [str(a) for a in gens]
        expected = {
            ("gap-poly",): (
                self.envelope("gap-poly", gens, {"generators": A.elements, "terms": [[n, 1] for n in gaps]}),
                gap_poly_text(gaps) + "\n",
            ),
            ("gaps",): (
                self.envelope("gaps", gens, {"generators": A.elements, "gaps": gaps, "genus": g}),
                f"{line}\n",
            ),
            ("frobenius", "--gaps"): (
                self.envelope("frobenius", gens, {
                    "generators": A.elements, "frobenius": F, "genus": g, "gap_count": g, "gaps": gaps,
                }),
                f"frobenius={F} genus={g} gap_count={g}\ngaps: {line}\n",
            ),
        }
        for (command, *flags), (as_json, as_text) in expected.items():
            assert run(capsys, command, *argv, *flags, "--json") == (0, as_json, "")
            assert run(capsys, command, *argv, *flags) == (0, as_text, "")


# the separators of the gap outputs: gaps, frobenius --gaps, gap-poly text and gap-poly --json
SEPARATORS = (" ", ", ", " + q^", ", 1], [")


def int_gap_text(gaps, sep):
    """The gaps in decimal with sep between them, from one json.dumps of the list of ints."""
    return json.dumps(list(gaps))[1:-1].replace(", ", sep)


class TestGapText:
    """The gap text written from the gap indicator in blocks of 1000 equals the text of the int list."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(2, 700), min_size=2, max_size=4, unique=True)
        .filter(lambda elements: math.gcd(*elements) == 1)
    )
    def test_matches_the_int_list(self, elements):
        table = sc.build_table(sc.validate_generators(elements))
        for sep in SEPARATORS:
            assert "".join(cli._gap_pieces(table, sep)) == int_gap_text(gaps_of(table), sep)

    # F = -1, F = 1, F = 999, F = 1000, F = 1001, and F past 10^6 with 4-digit block prefixes
    @pytest.mark.parametrize(
        "elements, F",
        [([1], -1), ([2, 3], 1), ([11, 101], 999), ([29, 73, 80], 1000), ([3, 502], 1001),
         ([1001, 1003], 1_001_999), ([1002, 1003], 1_003_001)],
    )
    def test_block_edges(self, elements, F):
        table = sc.build_table(sc.validate_generators(elements))
        assert table.frobenius == F
        gaps = naive_gaps(elements, F)
        for sep in SEPARATORS:
            assert "".join(cli._gap_pieces(table, sep)) == int_gap_text(gaps, sep)

    def test_block_without_gaps(self):
        # {1002, 1003} has no gap in 1,002,000..1,002,999, below F = 1,003,001
        table = sc.build_table(sc.validate_generators([1002, 1003]))
        pieces = cli._gap_pieces(table, " ")
        assert pieces[-2].endswith(" 1001998 1001999")
        assert pieces[-1] == " 1003001"


class TestVerifyCommand:
    def test_pair(self, capsys):
        code, out, _ = run(capsys, "verify", "3", "5")
        assert code == 0
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--sweep", "10")
        assert code == 0
        # 22 coprime pairs with 2 <= a < b <= 10 (counted by brute force)
        assert "22 pairs, 22 PASS" in out

    def test_pair_reads_the_exact_sequence_once(self, capsys, monkeypatch):
        calls = {"_denumerants": 0, "rank_nullity_failure": 0, "build_table": 0}

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in ("_denumerants", "rank_nullity_failure"):
            monkeypatch.setattr(gh, name, counted(name, getattr(gh, name)))
        original = sc.build_table
        for module in (sc, gh):
            assert module.build_table is original
            monkeypatch.setattr(module, "build_table", counted("build_table", original))
        assert run(capsys, "verify", "29", "31")[0] == 0
        # one S(A): its K-polynomial for the two K checks, its Apery set against Sylvester's
        # for rank-nullity and the series identity; no dense pass and no denumerants
        assert calls == {"_denumerants": 0, "rank_nullity_failure": 0, "build_table": 1}

    def test_pair_with_3ab_over_the_cap_answers(self, capsys, monkeypatch):
        # verify has no series order: only the table of 4,002,002 cells is capped, not 3ab + 1 = 12,006,001
        monkeypatch.delenv("SEMIGROUP_MAX_BOUND", raising=False)
        code, out, err = run(capsys, "verify", "2000", "2001")
        assert (code, out.count(": PASS\n"), err) == (0, 4, "")

    def test_pair_over_the_table_cap_refused(self, capsys, monkeypatch):
        monkeypatch.delenv("SEMIGROUP_MAX_BOUND", raising=False)
        assert run(capsys, "verify", "3163", "3167") == (
            2, "", "error: table of 10017226 cells exceeds SEMIGROUP_MAX_BOUND=10000000\n"
        )

    def test_sweep_20_pair_count(self, capsys):
        import math

        expected = sum(
            1 for a in range(2, 21) for b in range(a + 1, 21) if math.gcd(a, b) == 1
        )
        code, out, _ = run(capsys, "verify", "--sweep", "20")
        assert code == 0
        assert f"{expected} pairs, {expected} PASS" in out

    def test_invalid_pair_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "6", "9")
        assert code == 2
        assert "gcd" in err

    @pytest.mark.parametrize("bound", ["-1", "-5", "-1000000000000"])
    def test_negative_sweep_exit_2_one_line(self, capsys, bound):
        for extra in ([], ["--json"]):
            assert run(capsys, "verify", "--sweep", bound, *extra) == (
                2, "", f"error: sweep bound must be nonnegative, got {bound}\n")

    @pytest.mark.parametrize("bound", ["0", "1", "2"])
    def test_sweep_without_pairs(self, capsys, bound):
        assert run(capsys, "verify", "--sweep", bound) == (0, "0 pairs, 0 PASS\n", "")

    @pytest.mark.parametrize("pair", [["3", "5"], ["3"]])
    def test_pair_with_sweep_exit_2(self, capsys, pair):
        assert run(capsys, "verify", *pair, "--sweep", "4") == (
            2, "", "error: verify takes a pair a b or --sweep B, not both\n"
        )

    def test_checks_exported_from_semialg(self):
        assert semialg.pair_checks is gh.pair_checks

    def test_library_checks_are_the_verify_result(self, capsys):
        for a in range(2, 13):
            for b in range(a + 1, 13):
                if math.gcd(a, b) == 1:
                    code, out, _ = run(capsys, "verify", str(a), str(b), "--json")
                    assert code == 0
                    assert json.loads(out)["result"] == semialg.pair_checks(a, b)


class TestDivideAndKernel:
    def test_divisor_itself(self, capsys):
        code, out, _ = run(capsys, "divide", "x^3 - y^2", "2", "3")
        assert code == 0
        assert "quotient: 1" in out
        assert "remainder: 0" in out
        assert "in_kernel(evaluate)=true in_kernel(divide)=true" in out

    def test_non_member(self, capsys):
        code, out, _ = run(capsys, "divide", "x", "2", "3")
        assert code == 0
        assert "quotient: 0" in out
        assert "remainder: x" in out
        assert "in_kernel(evaluate)=false" in out

    def test_hand_example(self, capsys):
        code, out, _ = run(capsys, "divide", "x^4", "2", "3")
        assert code == 0
        assert "quotient: x" in out
        assert "remainder: x*y^2" in out

    def test_kernel_command(self, capsys):
        code, out, _ = run(capsys, "kernel", "x^3 - y^2", "2", "3")
        assert code == 0
        assert "in_kernel(evaluate)=true in_kernel(divide)=true" in out

    def test_single_leading_minus_accepted(self, capsys):
        code, out, _ = run(capsys, "kernel", "-x + y", "2", "3")
        assert code == 0
        assert "in_kernel(evaluate)=false in_kernel(divide)=false" in out

    def test_parse_error_exit_3(self, capsys):
        code, _, err = run(capsys, "divide", "x^2 + @", "2", "3")
        assert code == 3
        assert "column 7" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["divide", "x", "0", "0"], "pair must be distinct, got a = b = 0"),
            (["divide", "x", "-2", "1"], "generators must be positive, got -2"),
            (["divide", "x", "2", "4"], "gcd(A)=2, not a numerical semigroup"),
            (["kernel", "x", "3", "3"], "pair must be distinct, got a = b = 3"),
        ],
    )
    def test_bad_weights_exit_2_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_weight_one_accepted(self, capsys):
        code, out, _ = run(capsys, "kernel", "x^3 - y", "1", "3")
        assert code == 0
        assert "in_kernel(evaluate)=true in_kernel(divide)=true" in out

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("1/0*x", "zero denominator in '1/0' (column 1)"),
            ("3*", "dangling '*' at end of term (column 2)"),
            ("x*", "dangling '*' at end of term (column 2)"),
            ("x - -y", "sign '-' follows another sign (column 5)"),
            ("x + -y", "sign '-' follows another sign (column 5)"),
            ("- -x", "sign '-' follows another sign (column 3)"),
            ("*y", "cannot parse term starting at '*' (column 1)"),
            ("x - *y", "cannot parse term starting at '*' (column 5)"),
            ("3**y", "dangling '*' at end of term (column 2)"),
        ],
    )
    def test_bad_expression_exit_3_one_line(self, capsys, expr, message):
        code, out, err = run(capsys, "kernel", expr, "2", "3")
        assert code == 3
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("\u0663x^\u0662 - y", "cannot parse term starting at '\u0663' (column 1)"),
            ("x^2\u3000+ y", "expected '+' or '-' before '\\u3000' (column 4)"),
        ],
        ids=["arabic-indic-digits", "ideographic-space"],
    )
    def test_non_ascii_digit_or_blank_exit_3_one_line(self, capsys, expr, message):
        # the grammar's digits and blanks are ASCII: these once read as 3x^2 - y and x^2 + y
        code, out, err = run(capsys, "kernel", expr, "2", "3")
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [["kernel", "-x^3+y^2", "2", "3"], ["kernel", "--json", "-x^3+y^2", "2", "3"],
         ["kernel", "-x^3+y^2", "2", "3", "--js"], ["divide", "-x^4", "2", "3"],
         ["divide", "-x^4", "2", "3", "--json"], ["divide", "-1/2*x^4", "2", "3"]],
    )
    def test_dash_led_expression_without_blank_is_the_expression(self, capsys, argv):
        # argparse alone reads "-x^4" as an unknown option and asks for b; the answer is that after `--`
        command, *rest = argv
        options = [arg for arg in rest if arg.startswith("--")]
        expected = run(capsys, command, *options, "--", *[arg for arg in rest if arg not in options])
        assert expected[0] == 0
        assert run(capsys, *argv) == expected

    def test_dash_led_expression_answers(self, capsys):
        assert run(capsys, "kernel", "-x^3+y^2", "2", "3") == (
            0, "in_kernel(evaluate)=true in_kernel(divide)=true\n", "")
        code, out, _ = run(capsys, "divide", "-x^4", "2", "3")
        assert code == 0
        assert out.splitlines()[1:3] == ["quotient: -x", "remainder: -x*y^2"]
        code, out, _ = run(capsys, "divide", "-x^4", "2", "3", "--json")
        assert json.loads(out)["inputs"] == {"a": 2, "b": 3, "expr": "-x^4"}

    def test_numeral_past_the_int_digit_limit_exit_3_one_line(self, capsys):
        code, out, err = run(capsys, "divide", "x^" + "9" * 5000 + " + @", "2", "3")
        assert code == 3
        assert out == ""
        assert err == "error: numeral of 5000 digits is too long (column 3)\n"

    def test_json_divide_builds_no_divisor(self, capsys, monkeypatch):
        def no_divisor(*args):
            raise AssertionError("the divisor was built")

        monkeypatch.setattr(cli.biv, "_monomial_text", no_divisor)
        code, out, _ = run(capsys, "divide", "x^4", "2", "3", "--json")
        assert code == 0
        assert json.loads(out)["result"]["quotient"] == [[1, 0, 1]]

    @pytest.mark.parametrize(
        "expr, a, b, line",
        [("x^4", "2", "3", "divisor: x^3 - y^2"), ("x", "3", "1", "divisor: x - y^3"),
         ("x", "1", "2", "divisor: x^2 - y"), ("x", "11", "10", "divisor: x^10 - y^11")],
    )
    def test_divisor_line(self, capsys, expr, a, b, line):
        code, out, _ = run(capsys, "divide", expr, a, b)
        assert code == 0
        assert out.splitlines()[0] == line

    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            # kernel reads only the remainder; divide's x^i adds floor(i / b) quotient words
            (["kernel", "x^1000000000000", "2", "3"], 0, "in_kernel(evaluate)=false in_kernel(divide)=false\n", ""),
            (["divide", "x^100000000", "2", "3"], 2, "",
             "error: quotient of 33333333 numerator words exceeds SEMIGROUP_MAX_BOUND=10000000\n"),
            (["divide", "x^100000000 + x^2*y", "2", "3", "--json"], 2, "",
             "error: quotient of 33333333 numerator words exceeds SEMIGROUP_MAX_BOUND=10000000\n"),
            # a member of degree 10^12: both terms map to t^(6 * 10^12)
            (["kernel", "x^3000000000000 - y^2000000000000", "2", "3"], 0,
             "in_kernel(evaluate)=true in_kernel(divide)=true\n", ""),
        ],
        ids=["kernel", "divide", "divide-json", "kernel-member"],
    )
    def test_long_division_exit_2_one_line(self, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.delenv("SEMIGROUP_MAX_BOUND", raising=False)
        assert run(capsys, *argv) == (code, out, err)

    @pytest.mark.parametrize(
        "command, over",
        [
            ("divide", (2, "", "error: quotient of 101 numerator words exceeds SEMIGROUP_MAX_BOUND=100\n")),
            # kernel builds no quotient, so it answers past the cap too
            ("kernel", (0, "in_kernel(evaluate)=false in_kernel(divide)=false\n", "")),
        ],
        ids=["divide", "kernel"],
    )
    def test_division_at_cap_answers(self, capsys, monkeypatch, command, over):
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "100")
        # 90 + 10 quotient words: exactly at the cap
        code, out, _ = run(capsys, command, "x^270*y - x^30", "2", "3")
        assert code == 0
        assert "in_kernel(divide)=false" in out
        # 91 + 10 words
        assert run(capsys, command, "x^273*y - x^30", "2", "3") == over

    @pytest.mark.parametrize(
        "command, code, out, err",
        [
            ("divide", 2, "", "error: SEMIGROUP_MAX_BOUND must be an integer, got 'abc'\n"),
            # kernel reads no cap
            ("kernel", 0, "in_kernel(evaluate)=true in_kernel(divide)=true\n", ""),
        ],
        ids=["divide", "kernel"],
    )
    def test_non_integer_max_bound_exit_2(self, capsys, monkeypatch, command, code, out, err):
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "abc")
        assert run(capsys, command, "x^3 - y^2", "2", "3") == (code, out, err)


# the argv before and after the pair a b of each command that takes one
PAIR_COMMANDS = {
    "verify": (["verify"], []),
    "rank-nullity": (["rank-nullity"], []),
    "hilbert full_ring_frobenius": (["hilbert", "full_ring_frobenius"], ["4"]),
    "hilbert semigroup_ring": (["hilbert", "semigroup_ring"], ["4"]),
    "hilbert kernel": (["hilbert", "kernel"], ["4"]),
    "divide": (["divide", "x^4"], []),
    "kernel": (["kernel", "x^4"], []),
}


def pair_argv(command, a, b):
    before, after = PAIR_COMMANDS[command]
    return [*before, a, b, *after]


class TestOnePairRule:
    """Every command that takes a pair reads it through validate_pair: one line for one bad pair."""

    @pytest.mark.parametrize("command", PAIR_COMMANDS)
    @pytest.mark.parametrize(
        "a, b, message",
        [
            ("3", "3", "pair must be distinct, got a = b = 3"),
            ("0", "5", "generators must be positive, got 0"),
            ("-2", "3", "generators must be positive, got -2"),
            ("4", "6", "gcd(A)=2, not a numerical semigroup"),
        ],
    )
    def test_bad_pair_exit_2_one_line(self, capsys, command, a, b, message):
        assert run(capsys, *pair_argv(command, a, b)) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", PAIR_COMMANDS)
    @pytest.mark.parametrize("a, b", [("1", "5"), ("5", "1")])
    def test_weight_one_answers(self, capsys, command, a, b):
        code, out, err = run(capsys, *pair_argv(command, a, b))
        assert (code, err) == (0, "")
        assert out


class TestHilbertCommand:
    def test_semigroup_ring(self, capsys):
        code, out, _ = run(capsys, "hilbert", "semigroup_ring", "3", "5", "10", "--json")
        payload = json.loads(out)
        assert payload["result"]["coefficients"] == [1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 1]

    def test_univariate_with_dashes(self, capsys):
        code, out, _ = run(capsys, "hilbert", "univariate", "-", "-", "4", "--json")
        assert json.loads(out)["result"]["coefficients"] == [1, 1, 1, 1, 1]

    def test_frobenius_grading_coefficient(self, capsys):
        code, out, _ = run(capsys, "hilbert", "full_ring_frobenius", "3", "5", "15", "--json")
        assert json.loads(out)["result"]["coefficients"][15] == 2

    @pytest.mark.parametrize("which", ["univariate", "full_ring_degree"])
    @pytest.mark.parametrize("pair", [["3", "5"], ["3", "-"], ["-", "5"]])
    def test_pair_free_kind_refuses_a_pair(self, capsys, which, pair):
        assert run(capsys, "hilbert", which, *pair, "4") == (
            2, "", f"error: series kind '{which}' takes no pair (a, b)\n"
        )

    def test_order_flag(self, capsys):
        code, out, _ = run(capsys, "hilbert", "univariate", "-", "-", "--order", "2")
        assert code == 0
        assert "O(q^3)" in out

    def test_missing_order_exit_2(self, capsys):
        code, _, err = run(capsys, "hilbert", "univariate", "-", "-")
        assert code == 2

    def test_order_given_twice_exit_2(self, capsys):
        assert run(capsys, "hilbert", "kernel", "3", "5", "10", "--order", "12") == (
            2, "", "error: hilbert takes a truncation order N or --order N, not both\n"
        )

    @pytest.mark.parametrize("a, b, order, cells", [(11, 13, 20, 146), (9, 11, 99, 102)])
    def test_denumerant_series_answer_over_the_table_cap(self, capsys, monkeypatch, a, b, order, cells):
        # full_ring_frobenius and kernel read no semigroup table; semigroup_ring does
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "100")
        p = [naive_partition_count(a, b, n) for n in range(order + 1)]
        kernel = [p[n - a * b] if n >= a * b else 0 for n in range(order + 1)]
        expected = {"full_ring_frobenius": p, "kernel": kernel}
        for which, coefficients in expected.items():
            code, out, err = run(capsys, "hilbert", which, str(a), str(b), str(order), "--json")
            assert (code, err) == (0, "")
            assert json.loads(out)["result"]["coefficients"] == coefficients
        assert run(capsys, "hilbert", "semigroup_ring", str(a), str(b), str(order)) == (
            2, "", f"error: table of {cells} cells exceeds SEMIGROUP_MAX_BOUND=100\n"
        )

    def test_non_integer_weight_exit_2(self, capsys):
        code, out, err = run(capsys, "hilbert", "kernel", "3", "x", "5")
        assert code == 2
        assert out == ""
        assert err == "error: weight b must be an integer or '-', got 'x'\n"

    # every kind, at orders whose coefficients stay in 0..255 and orders that pass it
    @pytest.mark.parametrize(
        "which, a, b, order",
        [("univariate", None, None, 0), ("univariate", None, None, 300),
         ("full_ring_degree", None, None, 254), ("full_ring_degree", None, None, 300),
         ("semigroup_ring", 3, 5, 0), ("semigroup_ring", 3, 5, 300),
         ("full_ring_frobenius", 3, 5, 60), ("full_ring_frobenius", 2, 3, 1600),
         ("kernel", 3, 5, 60), ("kernel", 2, 3, 1600)],
    )
    def test_json_byte_identical(self, capsys, which, a, b, order):
        inputs = {"which": which, "a": a, "b": b, "order": order}
        coefficients = list(gh.hilbert_series(which, a, b, order))
        envelope = {"command": "hilbert", "inputs": inputs, "result": {**inputs, "coefficients": coefficients}}
        argv = ["-" if w is None else str(w) for w in (a, b)]
        assert run(capsys, "hilbert", which, *argv, str(order), "--json") == (
            0, json.dumps(envelope, sort_keys=True) + "\n", ""
        )

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "hilbert", "kernel", "3", "5", "25", "--json")
        payload = json.loads(out)
        s = gh.hilbert_series("kernel", 3, 5, 25)
        assert payload["result"]["order"] == len(s) - 1
        assert tuple(payload["result"]["coefficients"]) == tuple(s)


def series_text(coefficients):
    """The text of a truncated series with one term per coefficient: c_0 + c_1*q + c_2*q^2 + ... + O(q^{N+1})."""
    terms = [str(c) if n == 0 else f"{c}*q" if n == 1 else f"{c}*q^{n}" for n, c in enumerate(coefficients)]
    return " + ".join(terms) + f" + O(q^{len(coefficients)})"


class TestSeriesText:
    """cli._series_text, the text form of `hilbert`, against one term per coefficient."""

    def test_str(self):
        assert cli._series_text((1, 0, 3)) == "1 + 0*q + 3*q^2 + O(q^3)"

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 16384, 16385, 16386, 16387, 32770, 40000])
    def test_str_across_block_boundaries(self, order):
        # the text is built in blocks of 16,384 terms; compare it with one term per coefficient
        c = tuple((-1) ** n * (n * n % 1009) for n in range(order + 1))
        assert cli._series_text(c) == series_text(c)

    # order 16386: the terms q^2 .. q^16386 pass the first block of 16,384 by one
    @pytest.mark.parametrize(
        "which, a, b, coefficients",
        [("univariate", None, None, lambda n: [1] * (n + 1)),
         ("full_ring_degree", None, None, lambda n: range(1, n + 2)),
         ("semigroup_ring", 3, 5, lambda n: map(int, naive_members((3, 5), n))),
         ("full_ring_frobenius", 3, 5, lambda n: euler_product(3, 5, n)),
         ("kernel", 3, 5, lambda n: [0] * 15 + euler_product(3, 5, n - 15))],
    )
    def test_hilbert_text_past_the_first_block(self, capsys, which, a, b, coefficients):
        argv = ["-" if w is None else str(w) for w in (a, b)]
        assert run(capsys, "hilbert", which, *argv, "16386") == (
            0, series_text(tuple(coefficients(16386))) + "\n", ""
        )


class TestRankNullityCommand:
    def test_default_order(self, capsys):
        code, out, _ = run(capsys, "rank-nullity", "3", "5")
        assert code == 0
        assert "rank_nullity up to n=45: PASS" in out

    def test_explicit_order(self, capsys):
        code, out, _ = run(capsys, "rank-nullity", "2", "7", "--order", "100")
        assert code == 0
        assert "PASS" in out

    def test_negative_order_exit_2(self, capsys):
        code, out, err = run(capsys, "rank-nullity", "3", "5", "--order", "-5")
        assert code == 2
        assert out == ""
        assert err == "error: truncation order must be nonnegative\n"

    @pytest.mark.parametrize(
        "argv, coefficients",
        [
            (["hilbert", "kernel", "3", "5", "1000000000000"], 1000000000001),
            (["hilbert", "kernel", "3", "5", "50"], 51),
        ],
    )
    def test_order_over_cap_exit_2(self, capsys, monkeypatch, argv, coefficients):
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "45")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: series of {coefficients} coefficients exceeds SEMIGROUP_MAX_BOUND=45\n"

    @pytest.mark.parametrize("order", ["1000000000000", "50"])
    def test_order_past_the_cap_answers(self, capsys, monkeypatch, order):
        # rank-nullity builds nothing order-sized: only its table of 18 cells is capped
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "45")
        assert run(capsys, "rank-nullity", "3", "5", "--order", order) == (
            0, f"rank_nullity up to n={order}: PASS\n", ""
        )

    def test_over_table_cap_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "17")
        assert run(capsys, "rank-nullity", "3", "5") == (
            2, "", "error: table of 18 cells exceeds SEMIGROUP_MAX_BOUND=17\n"
        )

    def test_3ab_over_the_cap_answers(self, capsys, monkeypatch):
        # 3ab + 1 = 12,006,001 would be refused as a series; the table of 4,002,002 cells is not
        monkeypatch.delenv("SEMIGROUP_MAX_BOUND", raising=False)
        assert run(capsys, "rank-nullity", "2000", "2001") == (0, "rank_nullity up to n=12006000: PASS\n", "")

    def test_reads_one_table_and_no_denumerants(self, capsys, monkeypatch):
        calls = {"_denumerants": 0, "build_table": 0}

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        monkeypatch.setattr(gh, "_denumerants", counted("_denumerants", gh._denumerants))
        original = sc.build_table
        for module in (sc, gh):
            assert module.build_table is original
            monkeypatch.setattr(module, "build_table", counted("build_table", original))
        assert run(capsys, "rank-nullity", "29", "31")[0] == 0
        # one S(A), its Apery set against Sylvester's: no dense pass and no denumerants
        assert calls == {"_denumerants": 0, "build_table": 1}

    def test_verify_over_table_cap_exit_2(self, capsys, monkeypatch):
        # verify has no series order: only the table of (5 - 1) * 3 + 5 + 1 = 18 cells is capped
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "17")
        assert run(capsys, "verify", "3", "5") == (
            2, "", "error: table of 18 cells exceeds SEMIGROUP_MAX_BOUND=17\n"
        )

    def test_refused_verify_never_reaches_k_polynomial(self, capsys, monkeypatch):
        def k_check(*args):
            raise AssertionError("k_polynomial ran before the refusal")

        monkeypatch.setattr(gh, "k_polynomial", k_check)  # the binding pair_checks reads
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "12")
        code, out, err = run(capsys, "verify", "3", "5")
        assert (code, out) == (2, "")
        assert err == "error: table of 18 cells exceeds SEMIGROUP_MAX_BOUND=12\n"
        # a bad pair still reads as one before any cap is checked
        assert run(capsys, "verify", "3", "3") == (2, "", "error: pair must be distinct, got a = b = 3\n")

    def test_over_cap_sweep_refused_before_any_pair_is_verified(self, capsys, monkeypatch):
        calls = []
        true_k = gh.k_polynomial

        def counted_k(table):
            calls.append(table.generators.elements)
            return true_k(table)

        monkeypatch.setattr(gh, "k_polynomial", counted_k)  # the binding pair_checks reads
        # the sweep starts at its largest pair, (5, 6), whose table of (6 - 1) * 5 + 6 + 1 = 32 cells
        # is the largest of the sweep: over the cap, it is refused before any pair and before K
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "31")
        code, out, err = run(capsys, "verify", "--sweep", "6")
        assert (code, out) == (2, "")
        assert err == "error: table of 32 cells exceeds SEMIGROUP_MAX_BOUND=31\n"
        assert calls == []
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "32")
        assert run(capsys, "verify", "--sweep", "6") == (0, "6 pairs, 6 PASS\n", "")
        assert calls == [(5, 6), (4, 5), (3, 5), (2, 5), (3, 4), (2, 3)]

    def test_sweep_of_a_billion_cells_refused_before_any_pair(self, capsys, monkeypatch):
        def no_pair(*args):
            raise AssertionError("a pair was verified before the refusal")

        monkeypatch.setattr(gh, "k_polynomial", no_pair)
        monkeypatch.delenv("SEMIGROUP_MAX_BOUND", raising=False)
        # (99999, 100000) comes first: (100000 - 1) * 99999 + 100000 + 1 cells
        assert run(capsys, "verify", "--sweep", "100000") == (
            2, "", "error: table of 9999900002 cells exceeds SEMIGROUP_MAX_BOUND=10000000\n"
        )

    def test_order_at_cap_answers(self, capsys, monkeypatch):
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "46")
        assert run(capsys, "verify", "3", "5")[0] == 0
        assert run(capsys, "rank-nullity", "3", "5", "--order", "45")[0] == 0
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "18")  # verify 3 5 needs only its table of 18 cells
        assert run(capsys, "verify", "3", "5")[0] == 0


# one value range per drawn sequence, so that every writer path runs: the one-digit and
# the three-digit columns (bytes or bytearray) and the %-format (a tuple, any value)
INT_ARRAYS = st.one_of(
    *(st.lists(values, max_size=300).map(kind) for values, kinds in (
        (st.integers(0, 9), (bytes, bytearray, tuple)), (st.integers(0, 255), (bytes, bytearray, tuple)),
        (st.integers(250, 260), (tuple,)), (st.integers(0, 10**6), (tuple,)), (st.integers(-300, 300), (tuple,)),
        (st.integers(0, 255) | st.just(10**30), (tuple,)),
    ) for kind in kinds)
)


def writer_cases():
    """The sequence kinds hilbert_series returns, and a tuple of the same values, at the writer's edges.

    No value, order 0, the last one-digit value 9 and the first two-digit 10,
    the byte edges 254, 255 and 256, the denumerants of (3, 5) at orders
    128ab - 1, 128ab and 128ab + 1, ab = 15, and the %-format's blocks of
    16,384 values.
    """
    byte_valued = {
        "empty": [], "order-0": [1], "9": [0, 9, 3, 9], "10": [9, 10, 0],
        "254": list(range(255)), "255": list(range(256)),
        **{name: euler_product(3, 5, 128 * 15 + d) for name, d in (("128ab-1", -1), ("128ab", 0), ("128ab+1", 1))},
    }
    for name, values in byte_valued.items():
        for kind in (bytes, bytearray, tuple):
            yield pytest.param(kind(values), id=f"{kind.__name__}-{name}")
    for last in (1, 9, 10, 254, 255, 256):  # full_ring_degree at order last - 1
        yield pytest.param(range(1, last + 1), id=f"range-{last}")
    yield pytest.param(tuple(range(257)), id="tuple-256")
    for n in (16383, 16384, 16385, 32769):
        yield pytest.param(range(-5, n - 5), id=f"range-{n}-values")
        yield pytest.param(tuple(range(-5, n - 5)), id=f"tuple-{n}-values")


class TestIntArray:
    """The coefficient array writer equals json.dumps byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(INT_ARRAYS)
    def test_matches_json_dumps(self, values):
        assert "".join(cli._int_array(values)) == json.dumps(list(values))

    @pytest.mark.parametrize("values", writer_cases())
    def test_every_sequence_kind(self, values):
        assert "".join(cli._int_array(values)) == json.dumps(list(values))

    # the digit-width edges 9/10, 99/100 and 255/256, in both orders, and every byte
    @pytest.mark.parametrize(
        "values",
        [(), (0,), (9, 10), (10, 9), (99, 100), (100, 99), (255, 256), (256, 255), (0, 255, 0),
         (-1, 0), (10**30,), tuple(range(256)), tuple(range(255, -1, -1)), tuple(range(250, 261))],
    )
    def test_width_edges(self, values):
        assert "".join(cli._int_array(values)) == json.dumps(values)

    def test_import_builds_no_table(self):
        src = os.path.dirname(os.path.dirname(semialg.__file__))
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import semialg.cli as cli; "
            "print(cli._digit_columns.cache_info().currsize)"
        )
        out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True).stdout
        assert out == "0\n"


# one argv of each shape the benchmark workloads run; the plain reader must read them all
PLAIN_SHAPES = [
    ["verify", "29", "31", "--json"],
    ["verify", "--sweep", "12", "--json"],
    ["rank-nullity", "37", "40", "--json"],
    ["hilbert", "full_ring_degree", "-", "-", "830", "--json"],
    ["hilbert", "univariate", "-", "-", "2550", "--json"],
    *[["hilbert", kind, "3", "7", "1700", "--json"] for kind in ("full_ring_frobenius", "kernel", "semigroup_ring")],
    ["frobenius", "300", "317", "--json"],
    ["frobenius", "200", "211", "223", "--witness", "123456", "--json"],
    ["gaps", "200", "211", "223", "227", "--json"],
    ["gap-poly", "300", "317", "--json"],
    ["divide", "-1/2*x^4*y + 3*x - y^2", "2", "3", "--json"],
    ["kernel", "-x^3 + y^2", "3", "5", "--json"],
    ["divide", "x^4 - 1/2*x*y", "2", "3", "--json"],
]

# argv tokens in three groups drawn about equally often, so that runs of positionals split by
# an option come up: ints written in several ways, every option string of every command and
# unusual option forms, and every command name, series kind, expression led by '-', the empty
# string and junk
ARGV_TOKENS = st.one_of(
    st.sampled_from(["5", "+5", " 7", "1_0", "-3", "٣", "3", "2"]),
    st.sampled_from([*sorted({"-h", "--help", *(option for command in cli.build_parser().values()
                                                  for option in command.options)}),
                     "--js", "--order=7", "--witness=-1", "--", "-", "-hx"]),
    st.sampled_from([*cli.build_parser(), *gh.SERIES_KINDS, "-x^3+y^2", "-1/2*x", "-x", "", "x",
                     "x^4 - y", "3.5", "@"]),
)


def oracle_outcome(argv):
    """(exit code, stdout, stderr) of argv read by the hand-built parsers, routed as main routes it."""
    parser = hand_built_parser()
    command = parser.commands.get(argv[0]) if argv else None
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
    return exc.value.code, out.getvalue(), err.getvalue()


# run in a fresh isolated interpreter, so no test module's imports count: the modules each stage loads,
# and the outcome of help and of an unknown command next to the hand-built parsers' outcome
IMPORT_GUARD = """
import contextlib, io, json, sys
src, tests, routes, plain = sys.argv[1], sys.argv[2], json.loads(sys.argv[3]), json.loads(sys.argv[4])
sys.path.insert(0, src)
import semialg, semialg.cli as cli
cli.build_parser()
seen = [sorted({"dataclasses", "inspect"} & set(sys.modules))]

def outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parse(argv), "", err.getvalue()
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()

for argvs, modules in ((routes, {"fractions", "decimal"}), (plain, {"argparse", "gettext", "locale"})):
    seen.append([[outcome(cli.main, argv)[0] for argv in argvs], sorted(modules & set(sys.modules))])
for argv in (["verify", "-h"], ["bogus"]):
    seen.append([outcome(cli.main, argv), "argparse" in sys.modules])
sys.path.insert(0, tests)
from oracles import hand_built_parser
seen.append(outcome(hand_built_parser().commands["verify"].parse_args, ["-h"]))
seen.append(outcome(hand_built_parser().parse_args, ["bogus"]))
print(json.dumps(seen))
"""

USAGE_ERRORS = [
    (["frobenius"], "the following arguments are required: generators"),
    (["divide", "x", "2"], "the following arguments are required: b"),
    (["frobenius", "3", "x"], "argument generators: invalid int value: 'x'"),
    (["frobenius", "3", "5", "--bogus"], "unrecognized arguments: --bogus"),
    (["kernel", "--bogus", "x", "2", "3"], "unrecognized arguments: --bogus"),
    (["kernel", "-x^3+y^2", "2", "3", "--bogus"], "unrecognized arguments: --bogus"),
    (["frobenius", "3", "--json", "5"], "unrecognized arguments: 5"),
    (["verify", "--sweep"], "argument --sweep: expected one argument"),
    (["bogus", "3", "5"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
]


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()
        assert cli._argparse_parser() is cli._argparse_parser()

    def test_import_and_parser_load_neither_dataclasses_nor_inspect(self):
        src = os.path.dirname(os.path.dirname(semialg.__file__))
        # no Fraction is built on these routes, so neither fractions nor its decimal loads
        routes = [
            ["verify", "3", "5"], ["hilbert", "kernel", "3", "5", "9", "--json"], ["gaps", "3", "5", "--json"],
            ["kernel", "x^3 - y^2", "2", "3", "--json"], ["divide", "x^4", "2", "3", "--json"],
        ]
        argv = [sys.executable, "-I", "-c", IMPORT_GUARD, src, os.path.dirname(__file__),
                json.dumps(routes), json.dumps(PLAIN_SHAPES)]
        seen = json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)
        # plain argv loads no argparse, nor the gettext and locale that argparse loads
        assert seen[:3] == [[], [[0] * len(routes), []], [[0] * len(PLAIN_SHAPES), []]]
        (help_code, help_out, help_err), help_loads = seen[3]
        assert (help_code, help_err, help_loads) == (0, "", True) and help_out.startswith("usage: semialg verify [-h]")
        (bogus_code, bogus_out, bogus_err), bogus_loads = seen[4]
        assert (bogus_code, bogus_out, bogus_loads, bogus_err.count("\n")) == (2, "", True, 1)
        assert seen[5:] == [seen[3][0], seen[4][0]]

    @pytest.mark.parametrize(
        "argv",
        [
            ["frobenius", "3", "5"],
            ["frobenius", "--gaps", "--witness=5", "3", "5", "7"],
            ["frobenius", "--js", "3", "5", "--witness", "8"],
            ["gaps", "--json", "4", "6", "9"],
            ["gap-poly", "3", "5"],
            ["verify", "3", "5", "--js"],
            ["verify", "--sweep", "12"],
            ["verify"],
            ["divide", "--json", "x^4 - 1/2*x*y", "2", "3"],
            ["divide", "-x^4 + y", "2", "3"],
            ["divide", "-x^4", "2", "3", "--js"],
            ["kernel", "--json", "-x^3+y^2", "2", "3"],
            ["kernel", "x^3 - y^2", "--js", "2", "3"],
            ["rank-nullity", "--order=40", "3", "5"],
            ["rank-nullity", "3", "5"],
            ["hilbert", "univariate", "-", "-", "10"],
            ["hilbert", "--order", "20", "kernel", "3", "5", "--json"],
            ["hilbert", "full_ring_degree", "-", "-", "--order=7"],
            *PLAIN_SHAPES,
        ],
    )
    def test_command_parser_gives_the_full_parsers_namespace(self, argv):
        # main reads argv off the grammar or with the command's own parser, whose defaults also record `command`
        assert vars(cli._parse(argv)) == vars(cli._argparse_parser().parse_args(argv))

    @pytest.mark.parametrize("argv, message", USAGE_ERRORS)
    def test_usage_error_is_one_line_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1 and err.endswith("\n")
        assert oracle_outcome(argv) == (2, "", err)

    def test_argparse_parsers_have_the_hand_built_help(self):
        built, oracle = cli._argparse_parser(), hand_built_parser()
        assert list(built.commands) == list(oracle.commands) == list(cli.build_parser())
        assert built.format_help() == oracle.format_help()
        for name, parser in built.commands.items():
            assert parser.format_help() == oracle.commands[name].format_help()

    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            (["frobenius", "3", "5", "-h9"], 2, "", "error: argument -h/--help: ignored explicit argument '9'\n"),
            (["frobenius", "-h9", "3"], 2, "", "error: argument -h/--help: ignored explicit argument '9'\n"),
            (["gaps", "3", "5", "--json", "-hx"], 2, "", "error: argument -h/--help: ignored explicit argument 'x'\n"),
            (["-h9"], 2, "", "error: argument -h/--help: ignored explicit argument '9'\n"),
            (["frobenius", "3", "5", "-h=9"], 2, "", "error: argument -h/--help: ignored explicit argument '9'\n"),
            (["gaps", "3", "5", "-h"], 0, "usage: semialg gaps [-h]", ""),
            (["divide", "-hx", "2", "3"], 3, "", "error: cannot parse term starting at 'h' (column 2)\n"),
            (["kernel", "-hx", "2", "3"], 3, "", "error: cannot parse term starting at 'h' (column 2)\n"),
            (["kernel", "-hx", "--js", "2", "3"], 3, "", "error: cannot parse term starting at 'h' (column 2)\n"),
        ],
    )
    def test_dash_h_with_text_attached_is_one_usage_error_on_every_python(self, capsys, argv, code, out, err):
        # argparse reads -h9 as -h with "9" attached: an error on 3.10-3.12, help with exit 0 on 3.13.0;
        # the expression of divide and kernel keeps its -h, also where argparse reads the argv (--js)
        try:
            got = cli.main(argv)
        except SystemExit as exc:
            got = exc.code
        captured = capsys.readouterr()
        assert (got, captured.err) == (code, err)
        assert captured.out.startswith(out) and bool(captured.out) == bool(out)

    @pytest.mark.parametrize("argv", PLAIN_SHAPES)
    def test_plain_reader_reads_the_workload_shapes(self, argv):
        # a shape that fell back to argparse would still answer, only slower: this is what sees it
        read = cli._read_plain(cli.build_parser()[argv[0]], argv[1:])
        assert vars(read) == vars(cli._argparse_parser().parse_args(argv)) == vars(hand_built_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [["verify", "3", "--json", "5"], ["frobenius", "3", "--json", "5"], ["frobenius", "3", "5", "--witness=8"],
         ["frobenius", "--js", "3", "5"], ["verify", "--", "3", "5"], ["verify", "-3", "5"], ["divide", "x", "2"],
         ["divide", "x", "2", "3", "4"], ["hilbert", "bogus", "3", "5", "9"], ["gaps", "3", "x"], ["kernel", "-h"]],
    )
    def test_plain_reader_leaves_other_forms_to_argparse(self, argv):
        assert cli._read_plain(cli.build_parser()[argv[0]], argv[1:]) is None

    def test_witness_with_equals_answers(self, capsys):
        assert run(capsys, "frobenius", "3", "5", "--witness=8") == (
            0, "frobenius=7 genus=4 gap_count=4\nwitness(8): r=[1, 1] [1*3 + 1*5]\n", "")

    @settings(max_examples=800, deadline=None)
    @given(st.sampled_from(sorted(cli.build_parser())), st.lists(ARGV_TOKENS, max_size=7))
    @example("verify", ["3", "--json", "5"])  # runs split by an option, always tried, as a random
    @example("frobenius", ["5", "--json", "5"])  # draw finds one about half the time
    def test_plain_reader_agrees_with_argparse(self, command, rest):
        # the reader may decline any argv, but what it reads is what argparse reads, and it
        # reads nothing argparse refuses (or answers with help)
        read = cli._read_plain(cli.build_parser()[command], rest)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                parsed = cli._argparse_parser().parse_args([command, *rest])
        except SystemExit:
            assert read is None
        else:
            assert read is None or vars(read) == vars(parsed)

    @settings(max_examples=800, deadline=None)
    @given(st.sampled_from(sorted(cli.build_parser())), st.lists(ARGV_TOKENS, max_size=7))
    @example("kernel", ["x", "--", "--", "7"])  # argparse binds [] to a, which reached the handler
    @example("divide", ["x", "--", "--", "7"])
    @example("hilbert", ["kernel", "3", "--", "--", "5"])
    def test_main_ends_with_an_exit_code_and_at_most_one_line(self, command, rest):
        # any argv is answered, refused or helped: no exception escapes and stderr is never a traceback
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main([command, *rest])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3)
        assert err.getvalue() in ("", err.getvalue().partition("\n")[0] + "\n")

    @pytest.mark.parametrize(
        "argv, usage",
        [(["-h"], "semialg [-h]"), (["--help"], "semialg [-h]"), (["frobenius", "-h"], "semialg frobenius [-h]"),
         (["hilbert", "--help"], "semialg hilbert [-h]"), (["kernel", "-h"], "semialg kernel [-h]"),
         (["frobenius", "--help"], "semialg frobenius [-h]")],
    )
    def test_help_is_unchanged(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 0 and err == ""
        assert out.startswith(f"usage: {usage}")
        assert oracle_outcome(argv) == (0, out, "")


def test_console_script_is_cli_main():
    # pip reads [project.scripts] only when it installs; a wrong target would show nowhere else offline
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    target = pyproject["project"]["scripts"]["semialg"]
    assert target == "semialg.cli:main"
    assert EntryPoint("semialg", target, "console_scripts").load() is cli.main


class TestClosedStdout:
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_reader_leaving_early_gives_exit_1_and_no_traceback(self, json_flag):
        # about 1.4 MB of gaps, far more than a pipe holds, so the write meets the closed pipe
        src = os.path.dirname(os.path.dirname(semialg.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "semialg.cli", "gaps", "643", "634", *json_flag],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
        )
        assert len(proc.stdout.read(20)) == 20
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
        proc.stderr.close()


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["frobenius", "3", "5", "--gaps", "--json"],
            ["verify", "3", "5"],
            ["divide", "x^4 - y^2 + 3", "2", "3", "--json"],
            ["hilbert", "full_ring_frobenius", "3", "5", "20", "--json"],
        ],
    )
    def test_byte_identical(self, capsys, argv):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
