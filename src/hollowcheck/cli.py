"""Command-line front end.

Subcommands:
  check   parse a system, standardize, run the emptiness test
  oracle  exact Fourier-Motzkin feasibility with a rational witness
  probe   randomized lemma/theorem probes and oracle agreement runs
  gen     write a random admissible instance file

`run` settles a `check` argv of one input and `check`'s switches (each
at most once) without argparse, which such a call never imports.  Any
other argv goes to argparse: the arguments after a known subcommand name
go straight to that subcommand's parser, which is what the top-level
parser would do with them, and the top level parses only what that
leaves unsettled (an unknown or missing subcommand, leftover arguments),
so every usage error reads as before.  Under --json, `check` builds no
text report.

Exit codes: 0 not-proven-empty, 1 empty, 2 input/usage error, 3 internal
error, including an Empty certificate that fails its exact self-check, 4
the Fourier-Motzkin oracle (`oracle`, `check --oracle-check`) passed its
row cap.

Certificates and witnesses are written in the file's own frame: a
`farkas_y` has one entry per row of the form's embedding of the file
(see `standardize`), a witness one entry per variable of the file.

Input format: first data line "m n", then m lines of n+1 numbers (row of
A then b_i).  Numbers are integers, decimals, or fractions "p/q" in ASCII
digits, with no exponent notation, within int's 4300-digit limit; "#"
starts a comment; blank lines are ignored; path "-" reads stdin.  A
well-formed file is read in one pass; a file with an error is read again,
line by line, for the first error.
"""
from __future__ import annotations

import functools
import math
import re
import sys as _sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import harness
from .densemat import Matrix, Vector
from .emptiness import EMPTY, SoundnessViolation, decide
from .oracle import FEASIBLE, INFEASIBLE, SizeExceeded, fm_feasible
from .standardize import (EarlyEmpty, FORMS, RawSystem, TriviallyNonEmpty,
                          standardize)

EXIT_NOT_PROVEN_EMPTY = 0
EXIT_EMPTY = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_ORACLE_SIZE = 4


class ParseError(ValueError):
    def __init__(self, line: int, msg: str):
        super().__init__(f"line {line}: {msg}")
        self.line = line


class DimensionError(ParseError):
    pass


class UsageError(Exception):
    """A command-line value the command cannot use."""


# the documented numerals, in ASCII digits.  Fraction and int also read "_"
# separators, non-ASCII digits and (Fraction) exponents, and expanding
# 1e1000000000 takes practically forever.  An integer is tried first,
# which settles an integer token without backtracking
_NUMERAL = r"[+-]?(?:[0-9]+|[0-9]+\.[0-9]*|[0-9]+/[0-9]+|\.[0-9]+)"
# a line of numerals joined by single spaces
_ROW = re.compile(f"{_NUMERAL}(?: {_NUMERAL})*")


def _values(tokens: list) -> list:
    """The numbers of tokens, a line's or a whole file's: one match of
    `_ROW`, then a token with no "." or "/" is an int, any other a
    Fraction.  ValueError unless every token is a documented numeral,
    ZeroDivisionError for p/0; int and Fraction also raise ValueError past
    int's digit limit (4300 digits by default)."""
    joined = " ".join(tokens)
    if not _ROW.fullmatch(joined):
        raise ValueError(tokens)
    if "." in joined or "/" in joined:
        return [Fraction(tok) if "." in tok or "/" in tok else int(tok)
                for tok in tokens]
    return list(map(int, tokens))


def _bad_number(tokens: list, lineno: int) -> ParseError:
    """The error of a data line `_values` rejects: its first token that
    `_values` rejects alone."""
    for col, tok in enumerate(tokens, start=1):
        try:
            _values([tok])
        except (ValueError, ZeroDivisionError):
            return ParseError(lineno, f"bad number {tok!r} (column {col})")


def _first_error(lines: list) -> ParseError:
    """The error of the first bad line of a file that `parse_system`'s one
    pass rejects, each line read by `_values`."""
    header = None
    rows = 0
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if header is None:
            if len(tokens) != 2:
                return ParseError(lineno, "expected header 'm n'")
            try:
                m, n = header = _values(tokens)
                if type(m) is not int or type(n) is not int:
                    raise ValueError(tokens)
            except (ValueError, ZeroDivisionError):
                line = raw.split("#", 1)[0].strip()
                return ParseError(lineno, f"bad header {line!r}")
            if m < 1 or n < 1:
                return ParseError(lineno, "m and n must be >= 1")
            continue
        if rows == m:
            return ParseError(lineno, f"more than {m} data rows")
        if len(tokens) != n + 1:
            return DimensionError(
                lineno, f"expected {n + 1} numbers, got {len(tokens)}")
        try:
            _values(tokens)
        except (ValueError, ZeroDivisionError):
            return _bad_number(tokens, lineno)
        rows += 1
    if header is None:
        return ParseError(0, "empty input")
    return ParseError(0, f"expected {m} rows, got {rows}")


def _read_rows(rows: list, form: str):
    """The system of a file's nonblank lines, each a list of tokens, when
    the file is well formed, else None.  One `_values` call reads every
    token, the header's two and each data line's n + 1."""
    if not rows or len(rows[0]) != 2:
        return None
    try:
        vals = _values([tok for row in rows for tok in row])
    except (ValueError, ZeroDivisionError):
        return None
    m, n = vals[0], vals[1]
    w = n + 1
    if not (type(m) is int and type(n) is int and m >= 1 and n >= 1
            and len(rows) == m + 1 and all(len(row) == w for row in rows[1:])):
        return None
    return RawSystem(form,
                     Matrix(m, n, tuple(tuple(vals[k:k + n])
                                        for k in range(2, len(vals), w))),
                     Vector(m, tuple(vals[2 + n::w])))


def parse_system(text: str, form: str = "ineq") -> RawSystem:
    """The system of an instance file.  A well-formed file is read in one
    pass (`_read_rows`); any other is read line by line for its first
    error (`_first_error`).  The header's two numbers must be ints.  A
    line ends only at LF, CRLF or CR; str.splitlines would also end one at
    form feed, U+0085 and other characters that a data line's `split`
    reads as spaces."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    system = _read_rows([tokens for tokens in (line.split("#", 1)[0].split()
                                               for line in lines) if tokens],
                        form)
    if system is None:
        raise _first_error(lines)
    return system


def _ratio_str(x: int, s: int) -> str:
    """The rational x / s, for ints x and s > 0, as "p/q" in lowest terms:
    the one format of every number a report writes."""
    g = math.gcd(x, s)
    return f"{x // g}/{s // g}"


def _frac_str(x) -> str:
    return _ratio_str(x.numerator, x.denominator)


def _vec_json(v: Vector) -> list:
    return [_frac_str(x) for x in v.entries]


def _report_obj(verdict, tests_run, families, certificate) -> dict:
    # the arithmetic is always exact rational and the battery counts the
    # algorithm's tests; the two keys stay for stable output
    return {
        "verdict": verdict,
        "mode": "algorithm",
        "backend": "rational",
        "tests_run": tests_run,
        "families": families,
        "certificate": certificate,
    }


def report_to_jsonable(report, std) -> dict:
    """The JSON report of `decide` on `std`, with the Farkas vector mapped
    back to the file.  The certificate's numbers are written from its
    ints, each over its positive scale, with the side of
    `Certificate.interval`: [-inf, end] iff the endpoint is negative."""
    cert = None
    if report.certificate is not None:
        c = report.certificate
        s = c.s
        end = _ratio_str(*c.endpoint)
        cert = {
            "family": c.family,
            "k_prime": [_ratio_str(x, s) for x in c.head],
            "interval": (["-inf", end] if c.endpoint[0] < 0
                         else [end, "+inf"]),
            "farkas_y": [_ratio_str(x, s)
                         for x in std.original_farkas(c.y).entries],
        }
    return _report_obj(report.verdict, report.tests_run,
                       dict(sorted(report.family_counts.items())), cert)


def _oracle_answer(std) -> dict:
    """The exact oracle's answer on a `standardize` result, as JSON: its
    status and its witness in the file's variables, or None.  That is
    presolve's answer, or Fourier-Motzkin's on the standard system."""
    if isinstance(std, EarlyEmpty):
        status, wit = INFEASIBLE, None
    elif isinstance(std, TriviallyNonEmpty):
        status, wit = FEASIBLE, std.witness
    else:
        res = fm_feasible(std.A, std.b)
        status, wit = res.status, res.witness
        if wit is not None:
            wit = std.original_point(wit)
    return {"status": status,
            "witness": None if wit is None else _vec_json(wit)}


def _witness_lines(obj) -> list:
    """The text line of an oracle JSON answer's witness, if it has one."""
    if obj["witness"] is None:
        return []
    return ["witness (original variables): " + " ".join(obj["witness"])]


def _json_text(obj, indent: str = "") -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2) for a report,
    nested at `indent`: dicts with str keys, lists, strs, ints, bools and
    None.  json's pure-Python encoder, which indent forces, takes nearly
    twice as long on a report."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                 for k, v in sorted(obj.items())]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [encode_basestring_ascii(v) if isinstance(v, str)
                 else _json_text(v, inner) for v in obj]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                        f"serializable")
    return (brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n"
            + indent + brackets[1])


def _emit_json(obj, out) -> None:
    out.write(_json_text(obj))
    out.write("\n")


def _emit(obj, lines, args, out) -> None:
    """Write one report: `obj` as JSON under --json, else the text `lines`."""
    if args.json:
        _emit_json(obj, out)
    else:
        out.write("\n".join(lines) + "\n")


def _read_input(path: str) -> str:
    if path == "-":
        return _sys.stdin.read()
    # "\r\n" and a lone "\r" stay in the text; parse_system ends a line at
    # each, as text mode's newline translation would
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8")


def _check_lines(std, report, obj) -> list:
    """The text report of `check`: `obj` in lines, with the presolve detail
    of `std` or the failing test of `report` (None for a presolve `std`)."""
    cert = obj["certificate"]
    if isinstance(std, EarlyEmpty):
        lines = ["EMPTY (presolve: " + std.detail + ")",
                 "farkas_y = " + " ".join(cert["farkas_y"])]
    elif isinstance(std, TriviallyNonEmpty):
        lines = [f"NOT-PROVEN-EMPTY (trivial: {std.detail})"]
    else:
        if cert is None:
            lines = ["NOT-PROVEN-EMPTY (claimed nonempty)"]
        else:
            lines = ["EMPTY",
                     "failing family: " + report.certificate.label(),
                     "k_prime  = " + " ".join(cert["k_prime"]),
                     "interval = [" + ", ".join(cert["interval"]) + "]",
                     "farkas_y = " + " ".join(cert["farkas_y"])]
        lines.append(f"tests run: {report.tests_run}")
    oracle = obj.get("oracle")
    if oracle is not None:
        lines += ["oracle: " + oracle["status"]] + _witness_lines(oracle)
    return lines


def cmd_check(args, out) -> int:
    std = standardize(parse_system(_read_input(args.input), args.form))
    report = None
    if isinstance(std, EarlyEmpty):
        obj = _report_obj(EMPTY, 0, {}, {
            "family": "presolve",
            "k_prime": None,
            "interval": None,
            "farkas_y": _vec_json(std.farkas_y),
        })
    elif isinstance(std, TriviallyNonEmpty):
        obj = _report_obj("NOT_PROVEN_EMPTY", 0, {}, None)
        obj["note"] = std.note
    else:
        report = decide(std)
        obj = report_to_jsonable(report, std)
    if args.oracle_check:
        obj["oracle"] = _oracle_answer(std)
        if obj["verdict"] == EMPTY and obj["oracle"]["status"] == FEASIBLE:
            raise SoundnessViolation(
                "Empty verdict on an oracle-feasible system")
    lines = None if args.json else _check_lines(std, report, obj)
    _emit(obj, lines, args, out)
    return EXIT_EMPTY if obj["verdict"] == EMPTY else EXIT_NOT_PROVEN_EMPTY


def cmd_oracle(args, out) -> int:
    std = standardize(parse_system(_read_input(args.input), args.form))
    obj = _oracle_answer(std)
    lines = [obj["status"]] + _witness_lines(obj)
    if isinstance(std, EarlyEmpty):
        obj["presolve"] = std.detail
        lines = ["infeasible (presolve)"]
    _emit(obj, lines, args, out)
    return EXIT_NOT_PROVEN_EMPTY if obj["status"] == FEASIBLE else EXIT_EMPTY


def _agreement_specs(count, seed):
    specs = []
    i = 0
    while len(specs) < count:
        m = 2 + i % 7
        n = 1 + i % 3
        if m > n:
            specs.append(harness.GenSpec(seed=seed + i, m=m, n=n))
        i += 1
    return specs


def cmd_probe(args, out) -> int:
    if args.instances < 0 or args.trials < 0:
        raise UsageError("--instances and --trials must be >= 0")
    results = {}
    if args.suite in ("lemma1", "all"):
        for i in range(args.instances):
            spec = harness.GenSpec(seed=args.seed + i, m=4 + i % 5, n=1 + i % 3)
            sysi = harness.gen_random_system(spec)
            harness.probe_lemma1(sysi, trials=args.trials, seed=args.seed + i)
        results["lemma1"] = {"instances": args.instances, "ok": True}
    if args.suite in ("lemma2", "all"):
        for i in range(args.instances):
            n = 1 + i % 4
            k = 1 + i % n
            harness.probe_lemma2(n=n, k=k, trials=args.trials, seed=args.seed + i)
        results["lemma2"] = {"instances": args.instances, "ok": True}
    if args.suite in ("theorem1", "all"):
        agree = 0
        total = 0
        for i in range(args.instances):
            spec = harness.GenSpec(seed=args.seed + i, m=4 + i % 5, n=1 + i % 3)
            sysi = harness.gen_random_system(spec)
            rep = harness.probe_theorem1(sysi)
            total += len(rep["rows"])
            agree += sum(1 for r in rep["rows"] if r["agree"])
        results["theorem1"] = {"rows_checked": total, "rows_agree": agree}
    if args.suite in ("agreement", "all"):
        specs = _agreement_specs(args.instances, args.seed)
        results["agreement"] = harness.agreement_run(specs).to_jsonable()
    _emit_json(results, out)
    return EXIT_NOT_PROVEN_EMPTY


def cmd_gen(args, out) -> int:
    try:
        spec = harness.GenSpec(seed=args.seed, m=args.m, n=args.n,
                               entry_range=args.range, b_range=args.range)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    try:
        sysg = harness.gen_random_system(spec)
    except harness.GenerationExhausted as exc:
        # the spec is the user's flags: no draw meets them
        raise UsageError(str(exc)) from exc
    lines = [f"# generated instance seed={args.seed}",
             f"{sysg.m} {sysg.n}"]
    for row, x in zip(sysg.A.entries, sysg.b.entries):
        lines.append(" ".join(map(str, row + (x,))))
    text = "\n".join(lines) + "\n"
    if args.output == "-":
        out.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_NOT_PROVEN_EMPTY


# `check`'s store-true switches.  `_read_check` reads a `check` argv of
# these and one input; `_parsers` adds them to the `check` parser, and the
# first to `oracle`'s too
_SWITCHES = ("--json", "--oracle-check")
# each switch's dest, as argparse derives it: "--oracle-check" sets
# oracle_check
_SWITCH_DESTS = {opt: opt[2:].replace("-", "_") for opt in _SWITCHES}


@functools.cache
def _parsers() -> tuple:
    """(the top-level parser, {subcommand: its parser}), built once per
    process, on the first call."""
    import argparse
    p = argparse.ArgumentParser(prog="hollowcheck",
                                description="algebraic polyhedron emptiness test")
    sub = p.add_subparsers(dest="subcommand", required=True)
    subparsers = {}

    form_choices = sorted(set(FORMS) | {f.replace("_", "-") for f in FORMS})

    def add_switches(sp, switches):
        for opt in switches:
            sp.add_argument(opt, action="store_true")

    def common_io(sp):
        sp.add_argument("input", help="instance file, or - for stdin")
        sp.add_argument("--form", choices=form_choices, default="ineq",
                        type=lambda s: s.replace("-", "_"))
        add_switches(sp, _SWITCHES[:1])

    sp = subparsers["check"] = sub.add_parser(
        "check", help="run the emptiness test")
    common_io(sp)
    add_switches(sp, _SWITCHES[1:])
    sp.set_defaults(fn=cmd_check)

    sp = subparsers["oracle"] = sub.add_parser(
        "oracle", help="exact feasibility via Fourier-Motzkin")
    common_io(sp)
    sp.set_defaults(fn=cmd_oracle)

    sp = subparsers["probe"] = sub.add_parser(
        "probe", help="randomized probe suites")
    sp.add_argument("--suite",
                    choices=["lemma1", "lemma2", "theorem1", "agreement", "all"],
                    default="all")
    sp.add_argument("--instances", type=int, default=harness.DEFAULT_INSTANCES)
    sp.add_argument("--trials", type=int, default=harness.DEFAULT_TRIALS)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_probe)

    sp = subparsers["gen"] = sub.add_parser(
        "gen", help="write a random admissible instance")
    sp.add_argument("output", help="output path, or - for stdout")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-m", type=int, default=5)
    sp.add_argument("-n", type=int, default=2)
    sp.add_argument("--range", type=int, default=5)
    sp.set_defaults(fn=cmd_gen)
    return p, subparsers


def build_parser():
    """The top-level argparse parser."""
    return _parsers()[0]


def _read_check(argv: list):
    """What the `check` parser makes of argv[1:], when argv is "check", one
    input (a token that does not start with "-", or "-") and switches of
    `_SWITCHES`, each at most once; else None."""
    if argv[:1] != ["check"]:
        return None
    args = dict.fromkeys(_SWITCH_DESTS.values(), False)
    inputs = []
    for tok in argv[1:]:
        dest = _SWITCH_DESTS.get(tok)
        if dest is None and (tok == "-" or not tok.startswith("-")):
            inputs.append(tok)
        elif dest is None or args[dest]:
            return None
        else:
            args[dest] = True
    if len(inputs) != 1:
        return None
    return SimpleNamespace(input=inputs[0], form="ineq", fn=cmd_check,
                           **args)


def _parse_args(argv: list):
    """build_parser().parse_args(argv).  `_read_check` settles a plain
    `check` argv without argparse.  Otherwise argv[1:] goes straight to
    the parser of the subcommand argv[0] names: the top level would hand
    it all of argv[1:] anyway.  Arguments that parser leaves over, and an
    unknown or missing subcommand, go through the top level, whose error
    names the program rather than the subcommand."""
    args = _read_check(argv)
    if args is not None:
        return args
    top, subparsers = _parsers()
    sub = subparsers.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            return args
    return top.parse_args(argv)


def run(argv=None, out=None) -> int:
    out = out or _sys.stdout
    if argv is None:
        argv = _sys.argv[1:]
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize others
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.fn(args, out)
    except (ParseError, UsageError, OSError, UnicodeDecodeError) as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except SoundnessViolation as exc:
        _sys.stderr.write(f"soundness violation: {exc}\n")
        return EXIT_INTERNAL
    except SizeExceeded as exc:
        _sys.stderr.write(f"oracle size limit: {exc}\n")
        return EXIT_ORACLE_SIZE
    except Exception as exc:  # internal error
        _sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
