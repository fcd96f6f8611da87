import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hollowcheck import cli, emptiness
from hollowcheck.cli import (EXIT_EMPTY, EXIT_INTERNAL, EXIT_NOT_PROVEN_EMPTY,
                             EXIT_ORACLE_SIZE, EXIT_USAGE, DimensionError,
                             ParseError, parse_system, run)
from hollowcheck.densemat import DimensionMismatch, RankDeficient, Singular
from hollowcheck.oracle import FEASIBLE, FMResult, SizeExceeded

SRC = Path(__file__).resolve().parent.parent / "src"
# whitespace that str.splitlines also reads as a line break
NOT_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
EMPTY_1D = "3 1\n1 1\n1 2\n-1 -3\n"
OK_1D = "3 1\n1 1\n1 2\n-1 0\n"
# rank 1 < n: column 1 is twice column 0, so `standardize` keeps column 0
DEFICIENT_OK = "3 2\n1 2 1\n2 4 5\n-1 -2 3\n"

GOLDEN_EMPTY = (
    '{\n  "backend": "rational",\n  "certificate": {\n'
    '    "family": "canonical",\n    "farkas_y": [\n      "1/1",\n'
    '      "0/1",\n      "1/1"\n    ],\n    "interval": [\n      "-inf",\n'
    '      "-2/1"\n    ],\n    "k_prime": [\n      "0/1",\n      "1/1"\n'
    '    ]\n  },\n  "families": {\n    "b1_perp": 0,\n    "canonical": 2,\n'
    '    "kernel": 0,\n    "pair": 0,\n    "rb2_perp": 0\n  },\n'
    '  "mode": "algorithm",\n  "tests_run": 2,\n  "verdict": "EMPTY"\n}\n'
)

GOLDEN_OK = (
    '{\n  "backend": "rational",\n  "certificate": null,\n'
    '  "families": {\n    "b1_perp": 1,\n    "canonical": 2,\n'
    '    "kernel": 1,\n    "pair": 1,\n    "rb2_perp": 1\n  },\n'
    '  "mode": "algorithm",\n  "tests_run": 6,\n'
    '  "verdict": "NOT_PROVEN_EMPTY"\n}\n'
)


def run_cli(args, stdin_text=None, tmp_path=None, text=None):
    if text is not None:
        path = tmp_path / "in.txt"
        path.write_text(text)
        args = [a if a != "@IN@" else str(path) for a in args]
    buf = io.StringIO()
    code = run(args, out=buf)
    return code, buf.getvalue()


class TestParse:
    def test_basic(self):
        raw = parse_system("2 1\n1 1\n-1 -3\n")
        assert raw.Atilde.rows == 2 and raw.Atilde.cols == 1
        assert raw.btilde[1] == -3

    def test_comments_and_blanks(self):
        raw = parse_system("# heading\n\n2 1 # m n\n1 1\n-1 -3\n")
        assert raw.Atilde.rows == 2

    def test_fractions_exact(self):
        raw = parse_system("1 1\n1/3 2/5\n")
        assert raw.Atilde.at(0, 0) == Fraction(1, 3)
        assert raw.btilde[0] == Fraction(2, 5)

    def test_bad_row_width(self):
        with pytest.raises(DimensionError):
            parse_system("1 2\n1 2\n")

    def test_bad_number(self):
        with pytest.raises(ParseError):
            parse_system("1 1\nx 1\n")

    def test_missing_rows(self):
        with pytest.raises(ParseError):
            parse_system("2 1\n1 1\n")

    def test_numerals_outside_format_rejected(self):
        # Fraction reads "_" separators and any script's decimal digits
        for tok in ("1_0", "\u0661"):
            with pytest.raises(ParseError, match="bad number"):
                parse_system(f"2 1\n1 {tok}\n-1 -2\n")
        with pytest.raises(ParseError, match="bad header"):
            parse_system("1_0 1\n" + "1 1\n" * 10)

    def test_documented_numerals_parse(self):
        raw = parse_system("+2 1\n5. -.5\n+3/4 -0.25\n")
        assert raw.Atilde.entries == ((Fraction(5),), (Fraction(3, 4),))
        assert raw.btilde.entries == (Fraction(-1, 2), Fraction(-1, 4))
        with pytest.raises(ParseError, match="bad number"):
            parse_system("1 1\n1/0 1\n")

    def test_integer_tokens_parse_as_int(self):
        # an integer token stays an int; a p/q or decimal token is a Fraction
        toks = ("+3", "-0", "007", "-12", "5", "3/1", "-4/6", "2.", "-.5")
        raw = parse_system("1 8\n" + " ".join(toks) + "\n")
        got = raw.Atilde.entries[0] + raw.btilde.entries
        assert got == tuple(Fraction(tok) for tok in toks)
        assert [type(x) for x in got] == [int] * 5 + [Fraction] * 4

    def test_exponent_rejected(self):
        # Fraction would spend practically forever expanding "1e1000000000"
        for tok in ("1e5", "1E5", "2.5e-1"):
            with pytest.raises(ParseError, match="bad number"):
                parse_system(f"1 1\n1 {tok}\n")

    @pytest.mark.parametrize("text, start, end", [
        ("1 1\n" + "1" * 5000 + " 1\n",
         "line 2: bad number '1111", "1' (column 1)"),
        ("1 1\n1 -1/" + "3" * 5000 + "\n",
         "line 2: bad number '-1/333", "3' (column 2)"),
        ("1 1\n1 2." + "5" * 5000 + "\n",
         "line 2: bad number '2.555", "5' (column 2)"),
        ("1" * 5001 + " 1\n1 1\n", "line 1: bad header '1111", "1 1'"),
    ], ids=["integer", "fraction", "decimal", "header"])
    def test_numeral_past_the_int_digit_limit(self, tmp_path, capsys, text,
                                              start, end):
        # int() and Fraction() raise ValueError past 4300 digits: a usage
        # error naming the token, as for any other bad numeral
        path = tmp_path / "in.txt"
        path.write_text(text)
        assert run(["check", str(path)], out=io.StringIO()) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: " + start) and err.endswith(end + "\n")

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS)
    def test_comment_runs_to_the_line_break(self, tmp_path, char):
        path = tmp_path / "in.txt"
        path.write_bytes(f"# note{char} more\n{EMPTY_1D}".encode("utf-8"))
        assert run(["check", str(path)], out=io.StringIO()) == EXIT_EMPTY

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS)
    def test_row_runs_to_the_line_break(self, char):
        raw = parse_system(f"1 2\n1 2{char}3\n")
        assert raw.Atilde.entries == ((1, 2),) and raw.btilde.entries == (3,)


# the per-token parser `parse_system` used before a data line was matched
# whole, kept as the reference for the one-match path
_REF_NUMERAL = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+|[0-9]+/[0-9]+)")
_REF_INTEGER = re.compile(r"[+-]?[0-9]+")


def reference_parse(text: str):
    """(m, n, entries of A then b), or the ParseError, token by token."""
    header = None
    vals = []
    rows = 0
    for lineno, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2:
                raise ParseError(lineno, "expected header 'm n'")
            if not all(_REF_INTEGER.fullmatch(tok) for tok in tokens):
                raise ParseError(lineno, f"bad header {line!r}")
            header = int(tokens[0]), int(tokens[1])
            if min(header) < 1:
                raise ParseError(lineno, "m and n must be >= 1")
            continue
        m, n = header
        if rows == m:
            raise ParseError(lineno, f"more than {m} data rows")
        if len(tokens) != n + 1:
            raise DimensionError(
                lineno, f"expected {n + 1} numbers, got {len(tokens)}")
        for col, tok in enumerate(tokens, start=1):
            try:
                if _REF_INTEGER.fullmatch(tok):
                    vals.append(int(tok))
                elif _REF_NUMERAL.fullmatch(tok):
                    vals.append(Fraction(tok))
                else:
                    raise ValueError(tok)
            except (ValueError, ZeroDivisionError):
                raise ParseError(lineno, f"bad number {tok!r} (column {col})")
        rows += 1
    if header is None:
        raise ParseError(0, "empty input")
    if rows != header[0]:
        raise ParseError(0, f"expected {header[0]} rows, got {rows}")
    m, n = header
    A = [v for i in range(m) for v in vals[i * (n + 1):(i + 1) * (n + 1) - 1]]
    return m, n, A + vals[n::n + 1]


def parse_outcome(parse, text: str):
    """What `parse` makes of `text`: the shape, the entries and their types
    (int == Fraction compares equal), or the error's type and text."""
    try:
        got = parse(text)
    except ParseError as exc:
        return type(exc), str(exc)
    if not isinstance(got, tuple):
        got = (got.Atilde.rows, got.Atilde.cols,
               [x for row in got.Atilde.entries for x in row]
               + list(got.btilde.entries))
    return got, [type(x) for x in got[2]]


def mostly(common, rare, odds=10):
    """`common`, but `rare` once in `odds` draws."""
    return st.integers(1, odds).flatmap(lambda k: common if k > 1 else rare)


NUMERAL_TOKENS = mostly(
    st.integers(-10 ** 30, 10 ** 30).map(str)
    | st.sampled_from(["+3", "-0", "007", "+0/5", "-4/6", "3/1", "2.", "-.5",
                       ".25", "+1.50"])
    | st.builds("{}/{}".format, st.integers(-99, 99), st.integers(1, 12))
    | st.builds("{}.{}".format, st.integers(-99, 99), st.integers(0, 999)),
    st.sampled_from(["1/0", "-0/0", "1_0", "\u0661", "\uff11", "1e3",
                     "2.5E-1", "1/", "/2", ".", "+", "-", "+-1", "1.2.3",
                     "1/2/3", "1./2", "x", "inf", "nan"])
    | st.text("0123456789+-./_eE", min_size=1, max_size=4), odds=40)
SEPARATORS = mostly(st.sampled_from([" ", "  ", "\t", "\xa0", " \t "]),
                    st.sampled_from(NOT_LINE_BREAKS))
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def instance_files(draw):
    """Instance text: a header (at times a bad one), rows of n + 1 tokens
    (at times one more or less), comments and blank lines, joined by one
    line ending throughout."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    sep = draw(SEPARATORS)
    header = draw(mostly(st.sampled_from([f"{m} {n}", f"{m}{sep}{n}",
                                          f"+{m} 0{n}"]),
                         st.sampled_from([f"{m} {n} 1", f"{m} x", "0 2"])))
    lines = ["# a comment", header]
    for _ in range(m + draw(mostly(st.just(0), st.sampled_from([-1, 1])))):
        width = n + 1 + draw(mostly(st.just(0), st.sampled_from([-1, 1]),
                                    odds=30))
        line = sep.join(draw(NUMERAL_TOKENS) for _ in range(width))
        lines.append(line + draw(st.sampled_from(["", " # 1/0 x", "#"])))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "  ", "# note"])))
    nl = draw(NEWLINES)
    return nl.join(lines) + draw(st.sampled_from([nl, ""]))


class TestLineParse:
    """A data line is settled by one match and a type per token; it must
    read exactly as the per-token reference does."""

    @settings(max_examples=400, deadline=None)
    @given(text=instance_files())
    @example(text="2 1\r\n1 1/0\r\n-1 -2\r\n")
    @example(text="2 1\r1\xa02.\r-1\t-.5\r")
    @example(text="2 2\n1 2\x0c3\n-1 -2\x854\n")
    # the one-pass read: integer-only with CRLF ends, a trailing "#", a
    # data token past int's digit limit, and a signed, zero-padded header
    @example(text="2 1\r\n1 -2\r\n-3 4\r\n")
    @example(text="2 1\n1 2#\n-3 4 #\n#")
    @example(text="1 1\n1 " + "7" * 4301 + "\n")
    @example(text="+2 01\n1 2\n-3 4\n")
    def test_matches_the_per_token_reference(self, tmp_path_factory, text):
        assert (parse_outcome(parse_system, text)
                == parse_outcome(reference_parse, text))
        # a file is read as bytes: "\r\n" and "\r" stay in the text, and
        # the lines are those of a text-mode read
        path = tmp_path_factory.mktemp("lines") / "in.txt"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            text_mode = fh.read()
        assert (parse_outcome(parse_system, cli._read_input(str(path)))
                == parse_outcome(reference_parse, text_mode))

    def test_mixed_line_types(self):
        raw = parse_system("1 5\n+3 -4/6 2. 007 -.5 1/1\n")
        got = raw.Atilde.entries[0] + raw.btilde.entries
        assert got == (3, Fraction(-2, 3), 2, 7, Fraction(-1, 2), 1)
        assert [type(x) for x in got] == [int, Fraction, Fraction, int,
                                          Fraction, Fraction]

    @pytest.mark.parametrize("size", [10, 8191, 8192, 8193, 20000])
    @pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xe2\x82"])
    def test_decode_error_as_in_text_mode(self, tmp_path, size, bad):
        # the same UnicodeDecodeError text, at the absolute offset, on
        # either side of an 8 KB read chunk and at the end of the file
        body = (b"1 1\r\n" * (size // 5 + 1))[:size]
        for data in (body + bad + b" 1\n", body + bad):
            path = tmp_path / "bad.txt"
            path.write_bytes(data)
            with pytest.raises(UnicodeDecodeError) as want:
                with open(path, encoding="utf-8") as fh:
                    fh.read()
            with pytest.raises(UnicodeDecodeError) as got:
                cli._read_input(str(path))
            assert str(got.value) == str(want.value)

    def test_crlf_across_a_read_chunk(self, tmp_path):
        # "\r" ends one 8 KB chunk and "\n" starts the next
        data = "1 1\n" + "# " + "x" * (8192 - 7) + "\r\n" + "1 2\r\r\n"
        path = tmp_path / "crlf.txt"
        path.write_bytes(data.encode())
        assert data.encode().index(b"\r\n") == 8191
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert cli._read_input(str(path)).splitlines() == lines


class TestGolden:
    def test_empty_instance_bytes_and_exit(self, tmp_path):
        code, out = run_cli(["check", "@IN@", "--json"],
                            tmp_path=tmp_path, text=EMPTY_1D)
        assert code == EXIT_EMPTY
        assert out == GOLDEN_EMPTY

    def test_ok_instance_bytes_and_exit(self, tmp_path):
        code, out = run_cli(["check", "@IN@", "--json"],
                            tmp_path=tmp_path, text=OK_1D)
        assert code == EXIT_NOT_PROVEN_EMPTY
        assert out == GOLDEN_OK

    def test_byte_stable_across_runs(self, tmp_path):
        outs = set()
        for _ in range(3):
            _, out = run_cli(["check", "@IN@", "--json"],
                             tmp_path=tmp_path, text=EMPTY_1D)
            outs.add(out)
        assert len(outs) == 1

    def test_json_round_trips(self, tmp_path):
        _, out = run_cli(["check", "@IN@", "--json"],
                         tmp_path=tmp_path, text=EMPTY_1D)
        obj = json.loads(out)
        again = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        assert again == out


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(-10 ** 40, 10 ** 40) | st.text(),
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)),
    max_leaves=20)

# (file text, form, command): every kind of report the CLI writes
REPORT_CASES = [
    (EMPTY_1D, "ineq", ["check"]),
    (OK_1D, "ineq", ["check"]),
    (EMPTY_1D, "ineq", ["check", "--oracle-check"]),
    (OK_1D, "ineq", ["check", "--oracle-check"]),
    ("2 2\n0 0 -1\n1 0 5\n", "ineq", ["check"]),          # presolve
    ("2 1\n0 3\n1 1\n", "eq-nonneg", ["check"]),         # presolve
    ("2 2\n0 0 0\n0 0 0\n", "ineq-nonneg", ["check"]),   # trivial
    ("1 1\n1 5\n", "ineq", ["check", "--oracle-check"]),  # full row rank
    ("2 2\n0 0 -1\n1 0 5\n", "ineq", ["check", "--oracle-check"]),
    (DEFICIENT_OK, "ineq", ["check", "--oracle-check"]),
    ("3 2\n1 2 1\n0 0 1\n-2 -4 -3\n", "ineq", ["check"]),
    (EMPTY_1D, "ineq", ["oracle"]),
    (OK_1D, "ineq-nonneg", ["oracle"]),
    ("2 2\n0 0 -1\n1 0 5\n", "ineq", ["oracle"]),
    ("2 2\n0 0 0\n0 0 0\n", "ineq", ["oracle"]),
]


class TestJsonWriter:
    """`_emit_json` writes the bytes of json.dumps(obj, sort_keys=True,
    indent=2) and a newline, without the pure-Python encoder."""

    @staticmethod
    def emitted(obj) -> str:
        buf = io.StringIO()
        cli._emit_json(obj, buf)
        return buf.getvalue()

    @settings(max_examples=200, deadline=None)
    @given(JSON_VALUES)
    @example({"": [], "a": {}, "\x00\u00e9\u2028\U0001f600": [None, True]})
    def test_matches_json_dumps(self, obj):
        assert self.emitted(obj) == json.dumps(obj, sort_keys=True,
                                               indent=2) + "\n"

    def test_rejects_a_fraction_as_json_does(self):
        with pytest.raises(TypeError):
            self.emitted({"x": Fraction(1, 2)})

    def test_every_report(self, tmp_path, monkeypatch):
        reports = []
        emit = cli._emit_json

        def recording(obj, out):
            reports.append(obj)
            emit(obj, out)
        monkeypatch.setattr(cli, "_emit_json", recording)
        outputs = []
        for text, form, cmd in REPORT_CASES:
            outputs.append(run_cli(
                cmd[:1] + ["@IN@", "--json", "--form", form] + cmd[1:],
                tmp_path=tmp_path, text=text)[1])
        # seed 100 has an agreement discrepancy, with its rows and bounds
        outputs.append(run_cli(["probe", "--instances", "3", "--trials", "2",
                                "--seed", "100"])[1])
        outputs.append(run_cli(["probe", "--suite", "agreement",
                                "--instances", "20", "--seed", "100"])[1])
        assert len(reports) == len(outputs) == len(REPORT_CASES) + 2
        assert reports[-1]["agreement"]["discrepancy_count"] == 1
        for obj, out in zip(reports, outputs):
            assert out == json.dumps(obj, sort_keys=True, indent=2) + "\n"


class TestCheck:
    def test_human_output_empty(self, tmp_path):
        code, out = run_cli(["check", "@IN@"], tmp_path=tmp_path, text=EMPTY_1D)
        assert code == EXIT_EMPTY
        assert out.startswith("EMPTY")
        assert "farkas_y = 1/1 0/1 1/1" in out

    def test_human_output_ok(self, tmp_path):
        code, out = run_cli(["check", "@IN@"], tmp_path=tmp_path, text=OK_1D)
        assert code == EXIT_NOT_PROVEN_EMPTY
        assert "NOT-PROVEN-EMPTY (claimed nonempty)" in out

    def test_oracle_check_agreement(self, tmp_path):
        code, out = run_cli(["check", "@IN@", "--oracle-check", "--json"],
                            tmp_path=tmp_path, text=OK_1D)
        obj = json.loads(out)
        assert obj["oracle"]["status"] == "feasible"
        assert obj["oracle"]["witness"] == ["1/2"]

    @pytest.mark.parametrize("flags", [["--mode", "theorem"],
                                       ["--stated-order"]],
                             ids=["mode-theorem", "stated-order"])
    def test_removed_option_exit_2(self, tmp_path, capsys, flags):
        # decide runs one battery: no option sets its count or its order
        code, out = run_cli(["check", "@IN@"] + flags, tmp_path=tmp_path,
                            text=OK_1D)
        assert (code, out) == (EXIT_USAGE, "")
        assert ("error: unrecognized arguments: " + " ".join(flags)
                in capsys.readouterr().err)

    def test_early_empty_presolve(self, tmp_path):
        text = "2 2\n0 0 -1\n1 0 5\n"
        code, out = run_cli(["check", "@IN@", "--json"],
                            tmp_path=tmp_path, text=text)
        assert code == EXIT_EMPTY
        obj = json.loads(out)
        assert obj["certificate"]["family"] == "presolve"
        assert obj["certificate"]["farkas_y"] == ["1/1", "0/1"]

    def test_eq_nonneg_presolve_multiplier_sign(self, tmp_path):
        # 0 = 3 is infeasible; in the embedding (A; -A; -I) the multiplier
        # is 1 on the negated copy 0 <= -3, row m + 0, so t(y)b = -3 < 0
        code, out = run_cli(["check", "@IN@", "--form", "eq-nonneg", "--json"],
                            tmp_path=tmp_path, text="2 1\n0 3\n1 1\n")
        assert code == EXIT_EMPTY
        assert json.loads(out)["certificate"]["farkas_y"] == [
            "0/1", "0/1", "1/1", "0/1", "0/1"]

    @pytest.mark.parametrize("form, name", [
        ("ineq", "whole space"), ("ineq-nonneg", "nonnegative orthant"),
        ("eq-nonneg", "nonnegative orthant")])
    def test_trivial_names_the_set(self, tmp_path, form, name):
        # only redundant zero rows: the set is R^n, or with x >= 0 the orthant
        text = "2 2\n0 0 0\n0 0 0\n"
        code, out = run_cli(["check", "@IN@", "--form", form],
                            tmp_path=tmp_path, text=text)
        assert (code, out) == (EXIT_NOT_PROVEN_EMPTY,
                               f"NOT-PROVEN-EMPTY (trivial: {name})\n")
        code, out = run_cli(["check", "@IN@", "--form", form, "--json"],
                            tmp_path=tmp_path, text=text)
        assert code == EXIT_NOT_PROVEN_EMPTY
        assert json.loads(out)["note"] == (
            "all constraints redundant; polyhedron is the " + name)

    def test_farkas_y_on_the_file_rows(self, tmp_path):
        # row 1 is a redundant zero row; the certificate is rows 0 and 2
        code, out = run_cli(["check", "@IN@"], tmp_path=tmp_path,
                            text="4 1\n1 1\n0 5\n-1 -3\n1 2\n")
        assert code == EXIT_EMPTY
        assert "farkas_y = 1/1 0/1 1/1 0/1\n" in out

    def test_farkas_y_of_a_projected_file(self, tmp_path):
        # rank 1 < n = 2: the certificate has one entry per file row
        code, out = run_cli(["check", "@IN@", "--json"], tmp_path=tmp_path,
                            text="3 2\n1 2 1\n0 0 1\n-2 -4 -3\n")
        assert code == EXIT_EMPTY
        assert json.loads(out)["certificate"]["farkas_y"] == [
            "2/1", "0/1", "1/1"]

    def test_oracle_witness_in_the_file_variables(self, tmp_path):
        code, out = run_cli(["check", "@IN@", "--oracle-check", "--json"],
                            tmp_path=tmp_path, text=DEFICIENT_OK)
        assert code == EXIT_NOT_PROVEN_EMPTY
        wit = json.loads(out)["oracle"]["witness"]
        assert wit == ["-1/1", "0/1"]
        _, text = run_cli(["check", "@IN@", "--oracle-check"],
                          tmp_path=tmp_path, text=DEFICIENT_OK)
        assert text.endswith("witness (original variables): -1/1 0/1\n")
        _, out = run_cli(["oracle", "@IN@", "--json"], tmp_path=tmp_path,
                         text=DEFICIENT_OK)
        assert json.loads(out)["witness"] == wit

    def test_full_row_rank_skips_the_battery(self, tmp_path):
        # x <= 5 alone: A is invertible, so x = 5 is a point of the set
        code, out = run_cli(["check", "@IN@", "--oracle-check", "--json"],
                            tmp_path=tmp_path, text="1 1\n1 5\n")
        assert code == EXIT_NOT_PROVEN_EMPTY
        obj = json.loads(out)
        assert (obj["verdict"], obj["tests_run"]) == ("NOT_PROVEN_EMPTY", 0)
        assert "redundant" not in obj["note"]
        assert obj["oracle"] == {"status": "feasible", "witness": ["5/1"]}
        _, out = run_cli(["check", "@IN@"], tmp_path=tmp_path,
                         text="1 1\n1 5\n")
        assert out == "NOT-PROVEN-EMPTY (trivial: full row rank)\n"
        code, out = run_cli(["oracle", "@IN@", "--json"], tmp_path=tmp_path,
                            text="1 1\n1 5\n")
        assert code == EXIT_NOT_PROVEN_EMPTY
        assert json.loads(out) == {"status": "feasible", "witness": ["5/1"]}

    @pytest.mark.parametrize("text, form, status, lines", [
        ("2 2\n0 0 -1\n1 0 5\n", "ineq", "infeasible",
         "EMPTY (presolve: zero row 0 with negative bound -1)\n"
         "farkas_y = 1/1 0/1\noracle: infeasible\n"),
        ("2 1\n0 3\n1 1\n", "eq-nonneg", "infeasible",
         "EMPTY (presolve: zero row 0 with nonzero equality bound)\n"
         "farkas_y = 0/1 0/1 1/1 0/1 0/1\noracle: infeasible\n"),
        ("2 2\n0 0 0\n0 0 0\n", "ineq-nonneg", "feasible",
         "NOT-PROVEN-EMPTY (trivial: nonnegative orthant)\n"
         "oracle: feasible\nwitness (original variables): 0/1 0/1\n"),
        ("2 3\n1 2 0 1\n0 1 1 2\n", "ineq", "feasible",
         "NOT-PROVEN-EMPTY (trivial: full row rank)\n"
         "oracle: feasible\nwitness (original variables): -3/1 2/1 0/1\n"),
    ])
    def test_oracle_check_on_a_presolved_file(self, tmp_path, text, form,
                                              status, lines):
        # presolve decides the file; --oracle-check reports the answer
        # `oracle` gives, in both renderings
        code, out = run_cli(["check", "@IN@", "--form", form,
                             "--oracle-check"], tmp_path=tmp_path, text=text)
        assert out == lines
        assert code == (EXIT_EMPTY if status == "infeasible"
                        else EXIT_NOT_PROVEN_EMPTY)
        _, out = run_cli(["check", "@IN@", "--form", form, "--oracle-check",
                          "--json"], tmp_path=tmp_path, text=text)
        _, oracle = run_cli(["oracle", "@IN@", "--form", form, "--json"],
                            tmp_path=tmp_path, text=text)
        want = json.loads(oracle)
        want.pop("presolve", None)     # `oracle` also names the zero row
        assert json.loads(out)["oracle"] == want
        assert want["status"] == status


class TestOneParser:
    def test_no_parser_built_after_first_run(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)
        # `oracle` builds the parsers; a plain `check` argv needs none
        run_cli(["oracle", "@IN@"], tmp_path=tmp_path, text=OK_1D)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        run_cli(["check", "@IN@", "--json"], tmp_path=tmp_path, text=OK_1D)
        run_cli(["check", "@IN@", "--js"], tmp_path=tmp_path, text=OK_1D)
        run_cli(["oracle", "@IN@"], tmp_path=tmp_path, text=EMPTY_1D)
        assert built == []

    def test_import_builds_no_parser(self):
        # in a fresh interpreter, so the import really runs
        code = ("import argparse\n"
                "built = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counting(self, *a, **k):\n"
                "    built.append(1)\n"
                "    init(self, *a, **k)\n"
                "argparse.ArgumentParser.__init__ = counting\n"
                "import hollowcheck.cli\n"
                "assert built == [], built\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


    def test_check_json_makes_no_parse_and_writes_no_text(self, tmp_path,
                                                          monkeypatch):
        # a plain `check` argv is read without argparse, and --json builds
        # no text report, so the failing test is never named
        parses, labels = [], []
        parse = argparse.ArgumentParser.parse_known_args
        label = emptiness.Certificate.label

        def counting_parse(self, *args, **kwargs):
            parses.append(self.prog)
            return parse(self, *args, **kwargs)

        def counting_label(self):
            labels.append(self.family)
            return label(self)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                            counting_parse)
        monkeypatch.setattr(emptiness.Certificate, "label", counting_label)
        code, out = run_cli(["check", "@IN@", "--json"], tmp_path=tmp_path,
                            text=EMPTY_1D)
        assert (code, out) == (EXIT_EMPTY, GOLDEN_EMPTY)
        assert parses == []
        assert labels == []
        _, out = run_cli(["check", "@IN@"], tmp_path=tmp_path, text=EMPTY_1D)
        assert "failing family: canonical[" in out
        assert labels == ["canonical"]
        # an abbreviation is argparse's to settle
        code, out = run_cli(["check", "@IN@", "--js"], tmp_path=tmp_path,
                            text=EMPTY_1D)
        assert (code, out) == (EXIT_EMPTY, GOLDEN_EMPTY)
        assert parses == ["hollowcheck check"]


def old_parse_args(argv):
    return cli.build_parser().parse_args(argv)


class TestDispatch:
    """`run` hands argv[1:] straight to the named subcommand's parser; exit
    code, stdout and stderr are those of the top-level parse_args."""

    ARGVS = [
        ["check", "@IN@", "--json"],
        ["check", "@IN@", "--bogus"],
        ["check", "--bogus", "@IN@"],
        ["check", "@IN@", "extra"],
        ["check"],
        ["check", "@IN@", "--form", "bad"],
        ["check", "--form", "bad", "@IN@", "--bogus"],
        ["check", "-h"],
        ["check", "@IN@", "--help"],
        ["--help"],
        [],
        ["nope", "@IN@"],
        ["che", "@IN@"],
        ["--json", "check", "@IN@"],
        ["check", "@IN@", "--js"],
        ["check", "@IN@", "--form=eq-nonneg"],
        ["check", "--", "@IN@"],
        ["check", "@IN@", "--", "--json"],
        ["check", "@IN@", "--mode", "theorem", "--stated-order",
         "--oracle-check"],
        ["oracle", "@IN@", "--json"],
        ["oracle", "@IN@", "--mode", "theorem"],
        ["gen", "-", "-m", "4", "-n", "2", "--seed", "3"],
        ["gen", "-", "-m", "2", "-n", "3"],
        ["probe", "--suite", "lemma2", "--instances", "1", "--trials", "1"],
        ["probe", "--instances", "x"],
    ]

    @pytest.mark.parametrize("argv", ARGVS,
                             ids=lambda argv: " ".join(argv) or "(none)")
    def test_same_bytes_as_the_top_level_parse(self, tmp_path, monkeypatch,
                                               capsys, argv):
        path = tmp_path / "in.txt"
        path.write_text(EMPTY_1D)
        argv = [str(path) if a == "@IN@" else a for a in argv]
        got = (run(list(argv)),) + tuple(capsys.readouterr())
        monkeypatch.setattr(cli, "_parse_args", old_parse_args)
        want = (run(list(argv)),) + tuple(capsys.readouterr())
        assert got == want
        assert got[1] or got[2]

    # "@IN@" and "@OK@" are files; "-" reads EMPTY_1D from stdin
    ARGV_PARTS = st.sampled_from([
        ["--json"], ["--stated-order"], ["--oracle-check"], ["--js"],
        ["--form", "bad"], ["--mode", "theorem"], ["-"], ["--"], ["-5"],
        ["-h"]])

    @settings(max_examples=300, deadline=None)
    @given(head=st.sampled_from(["check", "oracle"]),
           parts=st.lists(ARGV_PARTS, max_size=5),
           paths=st.lists(st.sampled_from(["@IN@", "@OK@", "-"]),
                          min_size=1, max_size=2),
           order=st.randoms(use_true_random=False))
    @example(head="check", parts=[["--json"], ["--oracle-check"]],
             paths=["-"], order=random.Random(0))
    @example(head="check", parts=[["--json"], ["--json"]], paths=["@IN@"],
             order=random.Random(0))
    def test_argv_reader_matches_argparse(self, tmp_path_factory, head,
                                          parts, paths, order):
        files = tmp_path_factory.getbasetemp() / "argv-reader"
        files.mkdir(exist_ok=True)
        named = {"@IN@": files / "empty.txt", "@OK@": files / "ok.txt"}
        named["@IN@"].write_text(EMPTY_1D)
        named["@OK@"].write_text(OK_1D)
        parts = parts + [[str(named.get(p, p))] for p in paths]
        order.shuffle(parts)
        argv = [head] + [tok for part in parts for tok in part]
        outcomes = []
        for parse_args in (cli._parse_args, old_parse_args):
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.object(cli, "_parse_args", parse_args), \
                    mock.patch.object(sys, "stdin", io.StringIO(EMPTY_1D)), \
                    contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = run(list(argv))
            outcomes.append((code, out.getvalue(), err.getvalue()))
        assert outcomes[0] == outcomes[1]
        read = cli._read_check(argv)
        if read is not None:
            sub = cli._parsers()[1][head]
            assert vars(read) == vars(sub.parse_known_args(argv[1:])[0])

    @pytest.mark.parametrize("argv", [
        ["check", "in.txt"],
        ["check", "--json", "-"],
        ["check", "--oracle-check", "in.txt", "--json"],
    ])
    def test_argv_reader_settles_a_plain_check(self, argv):
        assert cli._read_check(argv) is not None

    @pytest.mark.parametrize("argv", [
        [], ["oracle", "in.txt"], ["check"], ["check", "a", "b"],
        ["check", "in.txt", "--js"], ["check", "in.txt", "--json", "--json"],
        ["check", "in.txt", "--stated_order"], ["check", "--", "in.txt"],
        ["check", "in.txt", "--form", "ineq"], ["check", "-5"],
        ["check", "in.txt", "-h"],
        ["check", "--oracle-check", "in.txt", "--stated-order", "--json"],
    ])
    def test_argv_reader_leaves_the_rest_to_argparse(self, argv):
        assert cli._read_check(argv) is None


class TestModuleEntryPoint:
    @pytest.mark.parametrize("argv", [["check", "@IN@", "--json"],
                                      ["check", "@IN@", "--bogus"],
                                      ["oracle", "@IN@"]])
    def test_python_m_matches_run(self, tmp_path, monkeypatch, capsys, argv):
        path = tmp_path / "in.txt"
        path.write_text(EMPTY_1D)
        argv = [str(path) if a == "@IN@" else a for a in argv]
        # one usage width in both processes
        monkeypatch.setenv("COLUMNS", "80")
        code = run(argv)
        out, err = capsys.readouterr()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.run([sys.executable, "-m", "hollowcheck"] + argv,
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


class TestReadme:
    def test_cli_synopsis_lists_each_long_option(self):
        text = (SRC.parent / "README.md").read_text()
        block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
        block = block.split("```", 1)[0]
        synopsis = {}
        for entry in re.split(r"^hollowcheck ", block, flags=re.M)[1:]:
            name, rest = entry.split(None, 1)
            synopsis[name] = set(re.findall(r"--[a-z][a-z-]*", rest))
        defined = {
            name: {opt for action in sp._actions
                   for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"}
            for name, sp in cli._parsers()[1].items()}
        assert synopsis == defined


class TestOtherSubcommands:
    def test_oracle_subcommand(self, tmp_path):
        code, out = run_cli(["oracle", "@IN@", "--json"],
                            tmp_path=tmp_path, text=EMPTY_1D)
        assert code == EXIT_EMPTY
        assert json.loads(out)["status"] == "infeasible"

    def test_gen_then_check(self, tmp_path):
        target = tmp_path / "inst.txt"
        code, _ = run_cli(["gen", str(target), "--seed", "5", "-m", "5", "-n", "2"])
        assert code == 0 and target.exists()
        code, out = run_cli(["check", str(target), "--json"])
        assert code in (EXIT_EMPTY, EXIT_NOT_PROVEN_EMPTY)

    def test_probe_small(self, tmp_path):
        code, out = run_cli(["probe", "--suite", "agreement",
                             "--instances", "10", "--seed", "0"])
        assert code == 0
        obj = json.loads(out)
        assert obj["agreement"]["total"] == 10

    def test_malformed_file_exit_2(self, tmp_path):
        code, _ = run_cli(["check", "@IN@"], tmp_path=tmp_path, text="oops\n")
        assert code == EXIT_USAGE

    def test_missing_file_exit_2(self):
        code, _ = run_cli(["check", "/nonexistent/nope.txt"])
        assert code == EXIT_USAGE


class TestExitCodes:
    def test_directory_exit_2(self, tmp_path):
        code, _ = run_cli(["check", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_non_utf8_file_exit_2(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1 1\n\xff 1\n")
        code, _ = run_cli(["check", str(path)])
        assert code == EXIT_USAGE

    def test_gen_bad_shape_exit_2(self):
        code, out = run_cli(["gen", "-", "-m", "2", "-n", "3"])
        assert code == EXIT_USAGE
        assert out == ""

    def test_gen_unsatisfiable_spec_exit_2(self, capsys):
        # 40 rows drawn from {-1, 0, 1} all but surely hold a zero row
        code, out = run_cli(["gen", "-", "-m", "40", "-n", "1",
                             "--range", "1"])
        assert (code, out) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == (
            "error: no admissible system after 1000 draws\n")

    @pytest.mark.parametrize("flags", [
        ["--suite", "agreement", "--instances", "-1"],
        ["--suite", "lemma1", "--trials", "-3"]])
    def test_probe_negative_count_exit_2(self, capsys, flags):
        code, out = run_cli(["probe"] + flags)
        assert (code, out) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == (
            "error: --instances and --trials must be >= 0\n")

    def test_probe_mode_exit_2(self, capsys):
        # the agreement run has no mode: `--mode` is a check option only
        code, out = run_cli(["probe", "--suite", "agreement",
                             "--instances", "1", "--mode", "theorem"])
        assert (code, out) == (EXIT_USAGE, "")
        assert ("error: unrecognized arguments: --mode theorem"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("fault", [Singular, DimensionMismatch, RankDeficient])
    def test_internal_fault_exit_3(self, tmp_path, monkeypatch, fault):
        def broken(*args, **kwargs):
            raise fault("injected")
        monkeypatch.setattr(cli, "decide", broken)
        code, _ = run_cli(["check", "@IN@"], tmp_path=tmp_path, text=OK_1D)
        assert code == EXIT_INTERNAL

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_oracle_check_contradiction_exit_3(self, tmp_path, monkeypatch,
                                               capsys, flags):
        monkeypatch.setattr(cli, "fm_feasible",
                            lambda A, b: FMResult(FEASIBLE, witness=None))
        code, out = run_cli(["check", "@IN@", "--oracle-check"] + flags,
                            tmp_path=tmp_path, text=EMPTY_1D)
        assert code == EXIT_INTERNAL
        assert out == ""
        assert capsys.readouterr().err == (
            "soundness violation: Empty verdict on an oracle-feasible system\n")

    @pytest.mark.parametrize("cmd", [["oracle"], ["check", "--oracle-check"]])
    def test_oracle_size_limit_exit_4(self, tmp_path, monkeypatch, capsys,
                                      cmd):
        def too_large(A, b):
            raise SizeExceeded("row cap 100000 exceeded eliminating x_0")
        monkeypatch.setattr(cli, "fm_feasible", too_large)
        code, out = run_cli(cmd[:1] + ["@IN@"] + cmd[1:],
                            tmp_path=tmp_path, text=OK_1D)
        assert code == EXIT_ORACLE_SIZE == 4
        assert out == ""
        assert capsys.readouterr().err == (
            "oracle size limit: row cap 100000 exceeded eliminating x_0\n")

    def test_tampered_certificate_exit_3(self, tmp_path, monkeypatch):
        farkas_from = emptiness.farkas_from
        monkeypatch.setattr(emptiness, "farkas_from",
                            lambda *args: farkas_from(*args).neg())
        code, out = run_cli(["check", "@IN@", "--json"],
                            tmp_path=tmp_path, text=EMPTY_1D)
        assert code == EXIT_INTERNAL
        assert out == ""
