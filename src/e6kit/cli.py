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
import csv
import json
import math
import random
import sys
from fractions import Fraction

from . import algebra, group, jordan, subalgebra
from .octonion import IMAGINARY_UNITS


def _frac_str(v: Fraction) -> str:
    return str(Fraction(v))


def _dump_json(obj, out) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    out.write(text)


class InputError(Exception):
    """Bad input: reported as one line on stderr, exit status 2."""


@contextlib.contextmanager
def _output(path):
    """stdout for None or "-", else the file at path."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write --out {path}: {exc.strerror or exc}") from None
    with fh:
        yield fh


# ---------------------------------------------------------------------------
# table

def _table_json() -> dict:
    table = algebra.structure_table()
    labels = [group.format_label(lab) for lab in table.basis]
    constants = []
    for (i, j), row in table.constants.items():
        for k, v in row.items():
            constants.append({"i": i, "j": j, "k": k, "v": _frac_str(v)})
    constants.sort(key=lambda e: (e["i"], e["j"], e["k"]))
    return {"basis": labels, "constants": constants}


def cmd_table(args) -> int:
    data = _table_json()
    with _output(args.out) as out:
        if args.format == "csv":
            writer = csv.writer(out)
            writer.writerow(["i", "j", "k", "v"])
            for e in data["constants"]:
                writer.writerow([e["i"], e["j"], e["k"], e["v"]])
        else:
            _dump_json(data, out)
    return 0


# ---------------------------------------------------------------------------
# verify

def _tangent_combo(parts):
    return algebra.element_sum([(Fraction(c), algebra.tangent(group.parse_label(lab)))
                                for c, lab in parts])


def _verify_dependencies(out) -> int:
    """The 15 vanishing sums, 14 type-2 expressions, and A/G independence."""
    checks = []
    for q in IMAGINARY_UNITS:
        d = q
        checks.append((f"S:{d} + S:{d}:2 + S:{d}:3 = 0",
                       [(1, f"S:{d}"), (1, f"S:{d}:2"), (1, f"S:{d}:3")]))
    for q in IMAGINARY_UNITS:
        d = q
        checks.append((f"R:x,{d} + R:x,{d}:2 + R:x,{d}:3 = 0",
                       [(1, f"R:x,{d}"), (1, f"R:x,{d}:2"), (1, f"R:x,{d}:3")]))
    checks.append(("B:t,z + B:t,z:2 + B:t,z:3 = 0",
                   [(1, "B:t,z"), (1, "B:t,z:2"), (1, "B:t,z:3")]))
    for q in IMAGINARY_UNITS:
        d = q
        checks.append((f"R:x,{d}:2 = -1/2 R:x,{d} - 1/2 S:{d}",
                       [(1, f"R:x,{d}:2"), (Fraction(1, 2), f"R:x,{d}"),
                        (Fraction(1, 2), f"S:{d}")]))
    for q in IMAGINARY_UNITS:
        d = q
        checks.append((f"S:{d}:2 = 3/2 R:x,{d} - 1/2 S:{d}",
                       [(1, f"S:{d}:2"), (Fraction(-3, 2), f"R:x,{d}"),
                        (Fraction(1, 2), f"S:{d}")]))
    for cat in ("A", "G"):
        parts = []
        for q in IMAGINARY_UNITS:
            d = q
            parts += [(1, f"{cat}:{d}"), (-1, f"{cat}:{d}:2")]
            parts += [(1, f"{cat}:{q}"), (-1, f"{cat}:{q}:3")]
        checks.append((f"{cat}:q = {cat}:q:2 = {cat}:q:3 for all q", parts))
    for name, parts in checks:
        if not _tangent_combo(parts).is_zero():
            out.write(f"FAILED: {name}\n")
            return 1
        out.write(f"confirmed: {name}\n")
    out.write(f"{len(checks)} identities confirmed\n")
    return 0


def _verify_jacobi(out, seed: int) -> int:
    """Antisymmetry and a seeded sample of Jacobi triples (exact arithmetic)."""
    table = algebra.structure_table()
    n = len(table.basis)
    rng = random.Random(seed)
    triples = [tuple(sorted(rng.sample(range(n), 3))) for _ in range(500)]
    for (a, b, c) in triples:
        ua, ub, uc = ({a: Fraction(1)}, {b: Fraction(1)}, {c: Fraction(1)})
        total: dict = {}
        for x, y, z in ((ua, ub, uc), (ub, uc, ua), (uc, ua, ub)):
            inner = table.bracket_vectors(y, z)
            for k, v in table.bracket_vectors(x, inner).items():
                total[k] = total.get(k, Fraction(0)) + v
        if any(v != 0 for v in total.values()):
            la, lb, lc = (group.format_label(table.basis[i]) for i in (a, b, c))
            out.write(f"FAILED: jacobi({la}, {lb}, {lc}) != 0\n")
            return 1
    out.write(f"jacobi holds on {len(triples)} seeded triples\n")
    return 0


def _verify_det(out, seed: int, tol: float) -> int:
    """det preservation for every label over seeded rational chi samples."""
    rng = random.Random(seed)
    chis = []
    for _ in range(3):
        coords = [rng.randint(-4, 4) / 2.0 for _ in range(27)]
        chis.append((coords, float(jordan.det(jordan.from_coords(coords)))))
    for label in group.all_labels():
        for alpha in (0.3, -0.7):
            for coords, det_before in chis:
                moved = group.apply(label, alpha, jordan.from_coords(coords))
                det_after = float(jordan.det(moved))
                if abs(det_after - det_before) > tol:
                    out.write(f"FAILED: det drift {abs(det_after - det_before):.3e}"
                              f" for {group.format_label(label)} at alpha={alpha}\n")
                    return 1
    out.write(f"det preserved for all {len(group.all_labels())} labels (tol {tol:g})\n")
    return 0


def cmd_verify(args) -> int:
    if args.tol <= 0:
        raise InputError(f"--tol must be positive, got {args.tol:g}")
    suites = ["dependencies", "jacobi", "det"] if args.suite == "all" else [args.suite]
    with _output(args.out) as out:
        for suite in suites:
            if suite == "dependencies":
                rc = _verify_dependencies(out)
            elif suite == "jacobi":
                rc = _verify_jacobi(out, args.seed)
            else:
                rc = _verify_det(out, args.seed, args.tol)
            if rc != 0:
                return rc
    return 0


# ---------------------------------------------------------------------------
# killing / stab-l / gellmann

def cmd_killing(args) -> int:
    km = algebra.killing_matrix()
    neg, pos, zero = algebra.signature(km)
    if args.out in (None, "-"):
        print(f"({neg},{pos})")
        return 0
    data = {"signature": [neg, pos, zero],
            "matrix": [[_frac_str(v) for v in row] for row in km]}
    with _output(args.out) as out:
        _dump_json(data, out)
    return 0


def cmd_stab_l(args) -> int:
    report = algebra.stabilizer_of_l()
    data = {
        "dim": report["dim"],
        "documented_basis_in_kernel": report["documented_basis_in_kernel"],
        "so81_dim": report["so81_dim"],
        "so81_closed": report["so81_closed"],
        "b_dims": list(report["b_dims"]),
        "b_abelian": report["b_abelian"],
        "b_is_ideal_under_so81": report["b_is_ideal_under_so81"],
        "b2_killing_null": report["b2_killing_null"],
    }
    with _output(args.out) as out:
        _dump_json(data, out)
    checks = {"dim == 52": report["dim"] == 52}
    for flag in ("documented_basis_in_kernel", "so81_closed", "b_abelian",
                 "b_is_ideal_under_so81", "b2_killing_null"):
        checks[flag] = report[flag]
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        print(f"FAILED: stabilizer check {', '.join(failed)} does not hold",
              file=sys.stderr)
        return 1
    return 0


def cmd_gellmann(args) -> int:
    result = algebra.gellmann_check()
    with _output(args.out) as out:
        _dump_json(result, out)
    return 0 if result["match"] else 1


# ---------------------------------------------------------------------------
# subalg

_AUTO_TOKENS = {"t": "t", "23": "two_three", "two_three": "two_three",
                "hperp": "h_perp", "h_perp": "h_perp"}


def cmd_subalg(args) -> int:
    if bool(args.auto) == bool(args.assemble):
        raise InputError("exactly one of --auto or --assemble is required")
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
        coords = [float(x) for x in coords]
        if len(coords) != 27:
            raise ValueError("need 27 coordinates")
        if not all(math.isfinite(x) for x in coords):
            raise ValueError("coordinates must be finite")
    except OSError as exc:
        raise InputError(f"cannot read --chi {args.chi}: {exc.strerror or exc}") from None
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise InputError(f"bad chi JSON: {exc}") from None
    try:
        moved = group.apply(label, args.alpha, jordan.from_coords(coords))
        coords, det = [float(x) for x in jordan.to_coords(moved)], float(jordan.det(moved))
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
    p.add_argument("--suite", choices=("dependencies", "jacobi", "det", "all"),
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_finite, default=1e-9)
    verb("killing", "Killing-form signature")
    p = verb("subalg", "subalgebra reports")
    p.add_argument("--auto", default=None,
                   help="comma list of involutions: t, 23, hperp")
    p.add_argument("--assemble", default=None,
                   help="comma list of cells: " + ",".join(subalgebra.CELL_NAMES))
    p.add_argument("--part", choices=("fixed", "compact"), default="fixed")
    p = verb("roots", "root/weight diagram data")
    p.add_argument("--algebra", required=True, help="e.g. A2, B3, C4, D4, G2, F4, E6")
    p.add_argument("--highest", default=None, help="comma list of Dynkin marks")
    p.add_argument("--format", **formats)
    verb("stab-l", "stabilizer of the unit l")
    p = verb("apply", "apply a finite transformation")
    p.add_argument("--label", required=True, help='e.g. "R:z,kl:2", "A:i", "B:t,x:3"')
    p.add_argument("--alpha", type=_finite, required=True)
    p.add_argument("--chi", required=True,
                   help='JSON path or "-" for stdin; {"coords":[27 numbers]}')
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
        sys.exit(run())
    except BrokenPipeError:
        sys.exit(0)


if __name__ == "__main__":
    main()
