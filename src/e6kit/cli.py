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
import io
import math
import os
import random
import sys

# Each verb is a fresh process, which compiles every e6kit module it imports:
# the commands import the modules they run (and json, csv and fractions, which
# the parser does not need), so `--help` compiles only this one.

# subalgebra.CELL_NAMES, for the --assemble help; a test keeps the two equal
_CELL_NAMES = ("R1H", "B1H", "R23H", "B23H", "R1Hp", "B1Hp", "R23Hp", "B23Hp")


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

    from . import algebra, group
    table = algebra.structure_table()
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

def _doubled_combo(parts) -> dict:
    """2 sum c T(label) in integers, {(row, col): int}: the weights 2c times
    the doubled tangents 2T."""
    from fractions import Fraction

    from . import algebra, group
    total: dict = {}
    for c, lab in parts:
        two = 2 * Fraction(c)
        if two.denominator != 1:
            raise AssertionError(f"2 * {c} is not an integer")
        for r, row in algebra.doubled_tangent(group.parse_label(lab)).items():
            for col, v in row.items():
                total[r, col] = total.get((r, col), 0) + two.numerator * v
    return total


def _verify_dependencies(out, args) -> int:
    """The 15 vanishing sums, 14 type-2 expressions, and A/G independence, in integers."""
    from fractions import Fraction

    from .octonion import IMAGINARY_UNITS
    checks = []
    for q in IMAGINARY_UNITS:
        checks.append((f"S:{q} + S:{q}:2 + S:{q}:3 = 0",
                       [(1, f"S:{q}"), (1, f"S:{q}:2"), (1, f"S:{q}:3")]))
    for q in IMAGINARY_UNITS:
        checks.append((f"R:x,{q} + R:x,{q}:2 + R:x,{q}:3 = 0",
                       [(1, f"R:x,{q}"), (1, f"R:x,{q}:2"), (1, f"R:x,{q}:3")]))
    checks.append(("B:t,z + B:t,z:2 + B:t,z:3 = 0",
                   [(1, "B:t,z"), (1, "B:t,z:2"), (1, "B:t,z:3")]))
    for q in IMAGINARY_UNITS:
        checks.append((f"R:x,{q}:2 = -1/2 R:x,{q} - 1/2 S:{q}",
                       [(1, f"R:x,{q}:2"), (Fraction(1, 2), f"R:x,{q}"),
                        (Fraction(1, 2), f"S:{q}")]))
    for q in IMAGINARY_UNITS:
        checks.append((f"S:{q}:2 = 3/2 R:x,{q} - 1/2 S:{q}",
                       [(1, f"S:{q}:2"), (Fraction(-3, 2), f"R:x,{q}"),
                        (Fraction(1, 2), f"S:{q}")]))
    # one identity, 14 differences, each checked on its own so none can cancel another
    for cat in ("A", "G"):
        checks.append((f"{cat}:q = {cat}:q:2 = {cat}:q:3 for all q",
                       *([(1, f"{cat}:{q}"), (-1, f"{cat}:{q}:{t}")]
                         for q in IMAGINARY_UNITS for t in (2, 3))))
    for name, *combos in checks:
        if any(any(_doubled_combo(parts).values()) for parts in combos):
            out.write(f"FAILED: {name}\n")
            return 1
        out.write(f"confirmed: {name}\n")
    out.write(f"{len(checks)} identities confirmed\n")
    return 0


def _verify_jacobi(out, args) -> int:
    """A seeded sample of Jacobi triples, exact.

    The brackets use the integer constants L c_ij^k; each Jacobi sum is then
    L^2 times the exact one, and vanishes exactly when it does.
    """
    from . import algebra, group
    table = algebra.structure_table()
    n = len(table.basis)
    rng = random.Random(args.seed)
    triples = [tuple(sorted(rng.sample(range(n), 3))) for _ in range(500)]
    for (a, b, c) in triples:
        ua, ub, uc = {a: 1}, {b: 1}, {c: 1}
        total: dict = {}
        for x, y, z in ((ua, ub, uc), (ub, uc, ua), (uc, ua, ub)):
            inner = table.bracket_vectors(y, z)
            for k, v in table.bracket_vectors(x, inner).items():
                total[k] = total.get(k, 0) + v
        if any(total.values()):
            la, lb, lc = (group.format_label(table.basis[i]) for i in (a, b, c))
            out.write(f"FAILED: jacobi({la}, {lb}, {lc}) != 0\n")
            return 1
    out.write(f"jacobi holds on {len(triples)} seeded triples\n")
    return 0


def _verify_det(out, args) -> int:
    """det preservation for every label over seeded rational chi samples."""
    from . import group, jordan
    rng = random.Random(args.seed)
    chis = []
    for _ in range(3):
        chi = jordan.from_coords([rng.randint(-4, 4) / 2.0 for _ in range(27)])
        chis.append((chi, float(jordan.det(chi))))
    for label in group.all_labels():
        for alpha in (0.3, -0.7):
            for chi, det_before in chis:
                moved = group.apply(label, alpha, chi)
                det_after = float(jordan.det(moved))
                if abs(det_after - det_before) > args.tol:
                    out.write(f"FAILED: det drift {abs(det_after - det_before):.3e}"
                              f" for {group.format_label(label)} at alpha={alpha}\n")
                    return 1
    out.write(f"det preserved for all {len(group.all_labels())} labels (tol {args.tol:g})\n")
    return 0


_SUITES = {"dependencies": _verify_dependencies, "jacobi": _verify_jacobi, "det": _verify_det}


def cmd_verify(args) -> int:
    if args.tol <= 0:
        raise InputError(f"--tol must be positive, got {args.tol:g}")
    report, rc = io.StringIO(), 0
    for suite in _SUITES if args.suite == "all" else [args.suite]:
        rc = _SUITES[suite](report, args)
        if rc != 0:
            break
    with _output(args.out) as out:
        out.write(report.getvalue())
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
    from . import algebra
    data = {k: v for k, v in algebra.stabilizer_of_l().items() if k != "kernel"}
    with _output(args.out) as out:
        _dump_json(data, out)
    failed = ["dim == 52"] * (data["dim"] != 52) + [k for k, v in data.items() if v is False]
    if failed:
        print(f"FAILED: stabilizer check {', '.join(failed)} does not hold",
              file=sys.stderr)
        return 1
    return 0


def cmd_gellmann(args) -> int:
    from . import algebra
    try:
        result = algebra.gellmann_check()
    except (algebra.MismatchAt, algebra.NotClosed, ValueError) as exc:
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
    from . import subalgebra
    if bool(args.auto) == bool(args.assemble):
        raise InputError("exactly one of --auto or --assemble is required")
    if args.part and args.assemble:
        raise InputError("--part applies only to --auto")
    if args.auto:
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
# roots

def _rounded(v) -> list:
    return [round(x, 12) + 0.0 for x in v]  # + 0.0: a -0.0 prints as 0.0


def cmd_roots(args) -> int:
    from . import rootweight
    try:
        d = rootweight.diagram(args.algebra)
    except ValueError as exc:
        raise InputError(exc) from None
    data: dict = {
        "rank": d.rank,
        "simple_roots": [_rounded(r) for r in rootweight.simple_roots(d)],
    }
    if args.highest:
        try:
            marks = [int(x) for x in args.highest.split(",")]
        except ValueError:
            raise InputError("--highest must be a comma list of integers") from None
        if len(marks) != d.rank:
            raise InputError(f"--highest needs {d.rank} marks")
        try:
            wd = rootweight.weights_from_highest(d, marks)
        except ValueError as exc:
            raise InputError(exc) from None
        index = {w.mark: n for n, w in enumerate(wd.weights)}
        data["weights"] = [{"mark": list(w.mark),
                            "coords": _rounded(w.coords)}
                           for w in wd.weights]
        data["edges"] = [{"from": index[a], "to": index[b], "root": j}
                         for a, b, j in wd.edges]
        vertices = [w.coords for w in wd.weights]
    else:
        roots = rootweight.root_system(d)
        data["roots"] = [_rounded(r) for r in roots]
        vertices = roots
    with _output(args.out) as out:
        if args.format == "csv":
            import csv
            writer = csv.writer(out)
            writer.writerow([f"x{i+1}" for i in range(len(vertices[0]))])
            for v in vertices:
                writer.writerow(_rounded(v))
        else:
            _dump_json(data, out)
    return 0


# ---------------------------------------------------------------------------
# apply

def cmd_apply(args) -> int:
    import json

    from . import group, jordan
    try:
        label = group.parse_label(args.label)
    except group.IllegalLabel as exc:
        raise InputError(exc) from None
    try:
        if args.chi == "-":
            raw = sys.stdin.read()
        else:
            with open(args.chi, "r", encoding="utf-8") as fh:
                raw = fh.read()
        payload = json.loads(raw)
        coords = payload["coords"] if isinstance(payload, dict) else payload
        if not isinstance(coords, list) or len(coords) != 27:
            raise ValueError("need a list of 27 coordinates")
        if any(type(x) not in (int, float) for x in coords):    # not isinstance: bool is an int
            raise ValueError("coordinates must be JSON numbers")
        coords = [float(x) for x in coords]
        if not all(math.isfinite(x) for x in coords):
            raise ValueError("coordinates must be finite")
    except OSError as exc:
        raise InputError(f"cannot read --chi {args.chi}: {exc.strerror or exc}") from None
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise InputError(f"bad chi JSON: {exc}") from None
    try:
        moved = group.apply(label, args.alpha, jordan.from_coords(coords))
        coords, det = jordan.to_coords(moved), float(jordan.det(moved))
    except OverflowError:
        coords, det = [math.inf], math.inf
    if not all(math.isfinite(x) for x in coords + [det]):
        raise InputError("the result is not finite; use a smaller --alpha or chi")
    with _output(args.out) as out:
        _dump_json({"coords": [round(x, 15) for x in coords], "det": round(det, 12)}, out)
    return 0


# ---------------------------------------------------------------------------
# driver

def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="e6kit", description=__doc__,
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
    p.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
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
    main()
