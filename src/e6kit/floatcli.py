"""The float verbs of the CLI, roots and apply: no exact algebra, and no benchmark runs them.

cli imports this module only when one of them runs, so the parser and the
other verbs do not compile it; each verb imports the modules it needs.
"""

from __future__ import annotations

import math
import sys

from .cli import InputError, _dump_json, _output


def _rounded(v) -> list:
    return [round(x, 12) + 0.0 for x in v]  # + 0.0: a -0.0 prints as 0.0


def _mark(text: str) -> int:
    """A Dynkin mark: ASCII digits after an optional "-" (int() takes "+1", "1_0", "١" too)."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a mark: {text!r}")
    return int(text)


def roots(args) -> int:
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
            marks = [_mark(x) for x in args.highest.split(",")]
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


def apply(args) -> int:
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
