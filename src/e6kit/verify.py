"""The identity suites of `e6kit verify`: dependencies, jacobi and det.

Only the verify verb imports this module; each suite imports the modules it
runs, so `--suite det` compiles no exact algebra.
"""

from __future__ import annotations

import io
import random


def _doubled_combo(parts) -> dict:
    """2 sum c T(label) in integers, flat: the weights 2c times the doubled tangents 2T."""
    from fractions import Fraction

    from . import algebra, group
    terms = []
    for c, lab in parts:
        two = 2 * Fraction(c)
        if two.denominator != 1:
            raise AssertionError(f"2 * {c} is not an integer")
        terms.append((two.numerator, algebra.doubled_tangent(group.parse_label(lab))))
    return algebra._weighted_sum(terms)


def _verify_dependencies(out, args) -> int:
    """The 15 vanishing sums, 14 type-2 expressions, and A/G independence, in integers."""
    from fractions import Fraction

    from .units import IMAGINARY_UNITS
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
        if any(_doubled_combo(parts) for parts in combos):
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
    from . import group
    from .algebra import _weighted_sum
    from .structure import structure_table
    table = structure_table()
    n = len(table.basis)
    rng = random.Random(args.seed)
    triples = [tuple(sorted(rng.sample(range(n), 3))) for _ in range(500)]
    for (a, b, c) in triples:
        ua, ub, uc = {a: 1}, {b: 1}, {c: 1}
        if _weighted_sum((1, table.bracket_vectors(x, table.bracket_vectors(y, z)))
                         for x, y, z in ((ua, ub, uc), (ub, uc, ua), (uc, ua, ub))):
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
                if not abs(det_after - det_before) <= args.tol:    # a nan fails too
                    out.write(f"FAILED: det drift {abs(det_after - det_before):.3e}"
                              f" for {group.format_label(label)} at alpha={alpha}\n")
                    return 1
    out.write(f"det preserved for all {len(group.all_labels())} labels (tol {args.tol:g})\n")
    return 0


SUITES = {"dependencies": _verify_dependencies, "jacobi": _verify_jacobi, "det": _verify_det}


def report(args) -> tuple[str, int]:
    """(report, exit status) of args.suite, or of every suite in turn up to the first failure."""
    out, rc = io.StringIO(), 0
    for suite in SUITES if args.suite == "all" else [args.suite]:
        rc = SUITES[suite](out, args)
        if rc != 0:
            break
    return out.getvalue(), rc
