"""Command-line interface for the sl(3,O) toolkit.

Verbs:
    table     emit the 78x78 structure-constant table (JSON or CSV)
    verify    run identity suites (dependencies, jacobi, det, all)
    killing   print the Killing-form signature
    subalg    report a subalgebra fixed by involutions, or an assembled one
    roots     emit root/weight diagram data for a named algebra
    stab-l    report the stabilizer of the octonionic unit l
    apply     apply a finite one-parameter transformation to a Jordan element
    gellmann  check the su(3) correspondence of the A/G generators

Every verb takes --out (default stdout); verify also takes --seed and --tol,
and table and roots take --format.  The only randomness is verify's samples,
keyed by --seed (default 0); identical invocations produce byte-identical
JSON (sorted keys, rationals as "p/q" strings).  Exit status: 0 success,
1 a failed verification, 2 bad input (a bad flag prints the usage, any other
bad input one line on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

# Each verb is a fresh process, which compiles every e6kit module it imports:
# the commands import the modules they run (and json, csv and fractions, which
# the parser does not need), so `--help` compiles only this one.  The bodies
# of verify (the verify module) and of roots and apply (floatcli) are modules
# of their own, so the other verbs do not compile them either.

# subalgebra.CELL_NAMES, for the --assemble help; a test keeps the two equal
_CELL_NAMES = ("R1H", "B1H", "R23H", "B23H", "R1Hp", "B1Hp", "R23Hp", "B23Hp")
# verify.SUITES, for --suite; a test keeps the two equal
_SUITE_NAMES = ("dependencies", "jacobi", "det")


def _dump_json(obj, out) -> None:
    import json
    out.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


class InputError(Exception):
    """Bad input, or output that cannot be written: one line on stderr, exit status 2."""


def _drop_stdout() -> None:
    """Point stdout at the null device, so bytes it failed to write are not retried at exit."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


@contextlib.contextmanager
def _output(path):
    """stdout for None or "-", else the file at path; flushed on leaving.

    Callers compute first, so an OSError here is a failed write: an
    InputError, except a closed pipe, which is left to main.
    """
    to_stdout = path is None or path == "-"
    try:
        out = sys.stdout if to_stdout else open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write --out {path}: {exc.strerror or exc}") from None
    try:
        with contextlib.nullcontext() if to_stdout else out:
            yield out
            out.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        if to_stdout:
            _drop_stdout()
        raise InputError(f"cannot write output: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# table

def cmd_table(args) -> int:
    """Each constant c_ij^k as (i, j, k, "p/q"), in the table's sorted order."""
    from fractions import Fraction

    from . import group
    from .structure import structure_table
    table = structure_table()
    text: dict = {}    # the 2750 integers L c take a few distinct values; format each once
    rows = ((i, j, k, text.get(v) or text.setdefault(v, str(Fraction(v, table.scale))))
            for (i, j), row in table.constants.items() for k, v in row.items())
    with _output(args.out) as out:
        if args.format == "csv":
            import csv
            writer = csv.writer(out)
            writer.writerow(["i", "j", "k", "v"])
            writer.writerows(rows)
        else:
            import json
            # the text json.dumps(..., sort_keys=True) gives, one constant at a time
            labels = json.dumps([group.format_label(lab) for lab in table.basis],
                                separators=(",", ":"))
            out.write(f'{{"basis":{labels},"constants":[')
            out.write(",".join('{"i":%d,"j":%d,"k":%d,"v":"%s"}' % row for row in rows))
            out.write("]}\n")
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    if args.tol <= 0:
        raise InputError(f"--tol must be positive, got {args.tol:g}")
    from .verify import report
    text, rc = report(args)
    with _output(args.out) as out:
        out.write(text)
    return rc


# ---------------------------------------------------------------------------
# killing / stab-l / gellmann

def cmd_killing(args) -> int:
    from . import algebra
    km = algebra.killing_matrix()
    neg, pos, zero = algebra.signature(km)
    with _output(args.out) as out:
        if args.out in (None, "-"):
            out.write(f"({neg},{pos})\n")
        else:
            text: dict = {}    # the 6084 entries take a few distinct values; format each once
            _dump_json({"signature": [neg, pos, zero],
                        "matrix": [[text.get(v) or text.setdefault(v, str(v)) for v in row]
                                   for row in km]}, out)
    return 0


def cmd_stab_l(args) -> int:
    from .stabilizer import stabilizer_of_l
    data = {k: v for k, v in stabilizer_of_l().items() if k != "kernel"}
    with _output(args.out) as out:
        _dump_json(data, out)
    failed = ["dim == 52"] * (data["dim"] != 52) + [k for k, v in data.items() if v is False]
    if failed:
        print(f"FAILED: stabilizer check {', '.join(failed)} does not hold",
              file=sys.stderr)
        return 1
    return 0


def cmd_gellmann(args) -> int:
    from .algebra import NotClosed
    from .gellmann import MismatchAt, gellmann_check
    try:
        result = gellmann_check()
    except (MismatchAt, NotClosed, ValueError) as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    with _output(args.out) as out:
        _dump_json(result, out)
    return 0


# ---------------------------------------------------------------------------
# subalg

_AUTO_TOKENS = {"t": "t", "23": "two_three", "two_three": "two_three",
                "hperp": "h_perp", "h_perp": "h_perp"}


def cmd_subalg(args) -> int:
    if (args.auto is None) == (args.assemble is None):
        raise InputError("exactly one of --auto or --assemble is required")
    if args.part and args.assemble is not None:
        raise InputError("--part applies only to --auto")
    from . import subalgebra
    if args.auto is not None:
        try:
            which = [_AUTO_TOKENS[tok.strip()] for tok in args.auto.split(",")]
        except KeyError as exc:
            raise InputError(f"unknown involution token {exc}") from None
        phi = subalgebra.make_involution(which)
        if args.part == "compact":
            report = subalgebra.compact_preimage(phi)
        else:
            report = subalgebra.fixed_subalgebra(phi)
    else:
        names = [tok.strip() for tok in args.assemble.split(",")]
        bad = [n for n in names if n not in subalgebra.CELL_NAMES]
        if bad:
            raise InputError(f"unknown cell names {bad}")
        try:
            report = subalgebra.assemble(names)
        except subalgebra.NotClosed as exc:
            print(f"FAILED: assembly not closed: {exc}", file=sys.stderr)
            return 1
    with _output(args.out) as out:
        _dump_json(report.to_json_dict(), out)
    return 0


# ---------------------------------------------------------------------------
# roots / apply: float verbs that no benchmark runs (floatcli)

def cmd_roots(args) -> int:
    from .floatcli import roots
    return roots(args)


def cmd_apply(args) -> int:
    from .floatcli import apply
    return apply(args)


# ---------------------------------------------------------------------------
# driver

# int() and float() also take Unicode digits ("١"), "_" separators and
# blanks, and float() "inf" and "nan": numeric flags take ASCII numbers only.
_DECIMAL = frozenset("0123456789.eE+-")


def _seed(text: str) -> int:
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _finite(text: str) -> float:
    try:
        value = float(text) if set(text) <= _DECIMAL else math.nan
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


_NUMERIC_FLAGS = ("--alpha", "--tol")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads `--alpha -1e-3` as `--alpha=-1e-3`.

    argparse (that of Python 3.11, at least) takes a "-"-led token for an
    option unless it is a plain negative decimal such as -0.001, so a
    numeric flag would miss a negative value with an exponent.  Each flag of
    _NUMERIC_FLAGS, or an abbreviation of one, is joined to a next token
    that is "-", a digit or ".", and then decimal characters only.
    """

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        for n in range(len(args) - 1, 0, -1):
            flag, value = args[n - 1], args[n]
            if (len(flag) > 2 and any(f.startswith(flag) for f in _NUMERIC_FLAGS)
                    and len(value) > 1 and value[0] == "-" and value[1] in "0123456789."
                    and set(value) <= _DECIMAL):
                args[n - 1:n + 1] = [f"{flag}={value}"]
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="e6kit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)
    formats = {"choices": ("json", "csv"), "default": "json"}

    def verb(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        return p

    p = verb("table", "structure-constant table")
    p.add_argument("--format", **formats)
    p = verb("verify", "identity suites")
    p.add_argument("--suite", choices=(*_SUITE_NAMES, "all"), default="all")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tol", type=_finite, default=1e-9)
    verb("killing", "Killing-form signature")
    p = verb("subalg", "subalgebra reports")
    p.add_argument("--auto", default=None,
                   help="comma list of involutions: t, 23, hperp")
    p.add_argument("--assemble", default=None,
                   help="comma list of cells: " + ",".join(_CELL_NAMES))
    p.add_argument("--part", choices=("fixed", "compact"),
                   help="with --auto: the fixed part (default) or its compact preimage")
    p = verb("roots", "root/weight diagram data")
    p.add_argument("--algebra", required=True, help="e.g. A2, B3, C4, D4, G2, F4, E6")
    p.add_argument("--highest", default=None, help="comma list of Dynkin marks")
    p.add_argument("--format", **formats)
    verb("stab-l", "stabilizer of the unit l")
    p = verb("apply", "apply a finite transformation")
    p.add_argument("--label", required=True, help='e.g. "R:z,kl:2", "A:i", "B:t,x:3"')
    p.add_argument("--alpha", type=_finite, required=True)
    p.add_argument("--chi", required=True,
                   help='JSON path or "-" for stdin: 27 JSON numbers, as a list '
                        'or as {"coords": [...]}')
    verb("gellmann", "su(3) correspondence check")
    return parser


_COMMANDS = {"table": cmd_table, "verify": cmd_verify, "killing": cmd_killing,
             "subalg": cmd_subalg, "roots": cmd_roots, "stab-l": cmd_stab_l,
             "apply": cmd_apply, "gellmann": cmd_gellmann}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.verb](args)
    except InputError as exc:
        print(f"{args.verb}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()    # argparse's help is still buffered here
    except BrokenPipeError:
        _drop_stdout()
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    # `python -m e6kit.cli` runs this file as __main__: register it as e6kit.cli
    # as well, so that floatcli's InputError is the one run() catches
    sys.modules.setdefault("e6kit.cli", sys.modules[__name__])
    main()
