import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import semialg
from oracles import gaps_of, naive_gaps, naive_partition_count
from semialg import cli
from semialg import gap_polynomials as gp
from semialg import graded_hilbert as gh
from semialg import semigroup_core as sc


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        f = gp.gap_polynomial(sc.validate_generators([3, 5]))
        assert payload["result"]["terms"] == [[i, c] for i, c in f.terms()]

    @pytest.mark.parametrize("gens", [["1"], ["1", "7"], ["2", "3"], ["4", "7", "9"], ["6", "10", "15"]])
    def test_gap_poly_json_matches_dense_polynomial(self, capsys, gens):
        _, out, _ = run(capsys, "gap-poly", *gens, "--json")
        f = gp.gap_polynomial(sc.validate_generators([int(a) for a in gens]))
        assert json.loads(out)["result"]["terms"] == [[i, c] for i, c in f.terms()]
        _, out, _ = run(capsys, "gap-poly", *gens)
        assert out == f"{f}\n"


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
        f = gp.gap_polynomial(A)
        gaps = [n for n, _ in f.terms()]
        line = " ".join(map(str, gaps)) or "(none)"
        F, g = (max(gaps) if gaps else -1), len(gaps)
        argv = [str(a) for a in gens]
        expected = {
            ("gap-poly",): (
                self.envelope("gap-poly", gens, {"generators": A.elements, "terms": [[n, 1] for n in gaps]}),
                f"{f}\n",
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
        for module in (sc, gp, gh):
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
            (["divide", "x", "0", "0"], "exponent weights must be positive"),
            (["divide", "x", "-2", "1"], "exponent weights must be positive"),
            (["divide", "x", "2", "4"], "gcd(2,4) = 2 != 1"),
            (["kernel", "x", "3", "3"], "weights must be distinct, got a = b = 3"),
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
        ],
    )
    def test_bad_expression_exit_3_one_line(self, capsys, expr, message):
        code, out, err = run(capsys, "kernel", expr, "2", "3")
        assert code == 3
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, steps",
        [
            # x^i takes floor(i / b) quotient steps
            (["kernel", "x^1000000000000", "2", "3"], 333333333333),
            (["divide", "x^100000000", "2", "3"], 33333333),
            (["divide", "x^100000000 + x^2*y", "2", "3", "--json"], 33333333),
        ],
    )
    def test_long_division_exit_2_one_line(self, capsys, argv, steps):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: division of {steps} steps exceeds SEMIGROUP_MAX_BOUND=10000000\n"

    @pytest.mark.parametrize("command", ["divide", "kernel"])
    def test_division_at_cap_answers(self, capsys, monkeypatch, command):
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "100")
        # 90 + 10 steps: exactly at the cap
        code, out, _ = run(capsys, command, "x^270*y - x^30", "2", "3")
        assert code == 0
        assert "in_kernel(divide)=false" in out
        code, out, err = run(capsys, command, "x^273*y - x^30", "2", "3")
        assert code == 2
        assert out == ""
        assert err == "error: division of 101 steps exceeds SEMIGROUP_MAX_BOUND=100\n"

    @pytest.mark.parametrize("command", ["divide", "kernel"])
    def test_non_integer_max_bound_exit_2(self, capsys, monkeypatch, command):
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "abc")
        code, out, err = run(capsys, command, "x^3 - y^2", "2", "3")
        assert code == 2
        assert out == ""
        assert err == "error: SEMIGROUP_MAX_BOUND must be an integer, got 'abc'\n"


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

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "hilbert", "kernel", "3", "5", "25", "--json")
        payload = json.loads(out)
        s = gh.hilbert_series("kernel", 3, 5, 25)
        assert payload["result"]["order"] == s.order
        assert tuple(payload["result"]["coefficients"]) == s.coefficients


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
            (["rank-nullity", "3", "5", "--order", "1000000000000"], 1000000000001),
            (["hilbert", "kernel", "3", "5", "1000000000000"], 1000000000001),
            (["rank-nullity", "3", "5", "--order", "50"], 51),
        ],
    )
    def test_order_over_cap_exit_2(self, capsys, monkeypatch, argv, coefficients):
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "45")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: series of {coefficients} coefficients exceeds SEMIGROUP_MAX_BOUND=45\n"

    def test_verify_over_table_cap_exit_2(self, capsys, monkeypatch):
        # verify has no series order: only the table of (5 - 1) * 3 + 5 + 1 = 18 cells is capped
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "17")
        assert run(capsys, "verify", "3", "5") == (
            2, "", "error: table of 18 cells exceeds SEMIGROUP_MAX_BOUND=17\n"
        )

    def test_refused_verify_skips_the_dense_checks(self, capsys, monkeypatch):
        def dense_check(*args):
            raise AssertionError("a dense check ran before the refusal")

        monkeypatch.setattr(gp, "verify_functional_equation", dense_check)
        monkeypatch.setattr(gh, "k_polynomial", dense_check)  # the binding pair_checks reads
        monkeypatch.setenv("SEMIGROUP_MAX_BOUND", "12")
        code, out, err = run(capsys, "verify", "3", "5")
        assert (code, out) == (2, "")
        assert err == "error: table of 18 cells exceeds SEMIGROUP_MAX_BOUND=12\n"
        # a bad pair still reads as one before any cap is checked
        assert run(capsys, "verify", "3", "3") == (2, "", "error: pair must be distinct, got a = b = 3\n")

    def test_over_cap_sweep_refused_before_any_pair_is_verified(self, capsys, monkeypatch):
        calls = []
        true_k = gp.k_polynomial

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


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_import_and_parser_load_neither_dataclasses_nor_inspect(self):
        # a fresh isolated interpreter, so no test module's imports count
        src = os.path.dirname(os.path.dirname(semialg.__file__))
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import semialg, semialg.cli as cli; cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True).stdout
        assert out == "[]\n"


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
