"""Span tracing of e6kit from outside the package.

Tracer.install() wraps the public functions named in SPANS and COUNTS.  A
function is replaced wherever an e6kit module holds a reference to it, so
names brought in with ``from .x import y`` are traced where they are looked
up.  Each call records a span (name, start, end, parent span, request id) in
memory; summarize() derives call counts, inclusive and self time from them.
"""

from __future__ import annotations

import functools
import importlib
import marshal
import sys
import time

# span name -> (defining module, attribute path)
SPANS = {
    "group.apply": ("e6kit.group", "apply"),
    "group.apply_dual": ("e6kit.group", "apply_dual"),
    "group.action_matrix": ("e6kit.group", "action_matrix"),
    "jordan.matmul": ("e6kit.jordan", "matmul"),
    "jordan.det": ("e6kit.jordan", "det"),
    "linalg.SpanBasis.add": ("e6kit.linalg", "SpanBasis.add"),
    "linalg.SpanBasis.express": ("e6kit.linalg", "SpanBasis.express"),
    "linalg.rank_mod_p": ("e6kit.linalg", "rank_mod_p"),
    "linalg.signature_symmetric": ("e6kit.linalg", "signature_symmetric"),
    "algebra.tangent": ("e6kit.algebra", "tangent"),
    "algebra.commutator": ("e6kit.algebra", "commutator"),
    "algebra.structure_table": ("e6kit.algebra", "structure_table"),
    "algebra.rank_estimate": ("e6kit.algebra", "rank_estimate"),
    "algebra.killing_matrix": ("e6kit.algebra", "killing_matrix"),
    "algebra.stabilizer_of_l": ("e6kit.algebra", "stabilizer_of_l"),
    "algebra.gellmann_check": ("e6kit.algebra", "gellmann_check"),
    # defined in algebra, called only by subalgebra
    "subalgebra.killing_restricted": ("e6kit.algebra", "killing_restricted"),
    "subalgebra.fixed_subalgebra": ("e6kit.subalgebra", "fixed_subalgebra"),
    "subalgebra.compact_preimage": ("e6kit.subalgebra", "compact_preimage"),
    "rootweight.root_system": ("e6kit.rootweight", "root_system"),
    "rootweight.weights_from_highest": ("e6kit.rootweight", "weights_from_highest"),
    "rootweight.inverse_cartan": ("e6kit.rootweight", "inverse_cartan"),
    "rootweight.slice_diagram": ("e6kit.rootweight", "slice_diagram"),
    "rootweight.project": ("e6kit.rootweight", "project"),
    "rootweight.embed_check": ("e6kit.rootweight", "embed_check"),
    "cli.run": ("e6kit.cli", "run"),
}

# Called too often for a span each: counted only.
COUNTS = {"octonion.mul": ("e6kit.octonion", "Octonion.__mul__")}

# Counters derived from a traced call's result.
RESULT_COUNTS = {
    "algebra.commutator": ("algebra.commutator.nonzero",
                           lambda r: 0 if r.is_zero() else 1),
    "rootweight.weights_from_highest": ("rootweight.weights",
                                        lambda r: len(r.weights)),
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []          # [name id, start, end, parent, request]
        self.counts: dict[str, int] = {}
        self.request = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _span_wrapper(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        result_count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.request)
            if result_count is not None:
                key, of = result_count
                self.counts[key] = self.counts.get(key, 0) + of(result)
            return result
        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> "Tracer":
        for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for name, (module, path) in table.items():
                try:
                    owner, attr = _resolve(module, path)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(name)
                    continue
                self._replace(original, make(name, original), owner, attr)
        return self

    def _replace(self, original, wrapper, owner, attr) -> None:
        """Swap `original` for `wrapper` in its owner and every e6kit module."""
        targets = [(owner, attr)]
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "e6kit" or modname.startswith("e6kit.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original and (mod, key) != (owner, attr):
                    targets.append((mod, key))
        for obj, key in targets:
            self._undo.append((obj, key, original))
            setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counts": dict(self.counts), "missing": self.missing}


def summarize(trace: dict) -> dict:
    """Per span name: calls, inclusive seconds (outermost spans), self seconds."""
    names, spans = trace["names"], trace["spans"]
    child = [0.0] * len(spans)
    for nid, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names}
    for i, (nid, start, end, parent, _) in enumerate(spans):
        row = out[names[nid]]
        row["calls"] += 1
        row["self_s"] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != nid:
            p = spans[p][3]
        if p < 0:
            row["s"] += end - start
    return out


def parents_with_child(trace: dict, parent: str, child: str) -> int:
    """Number of `parent` spans with at least one direct `child` span."""
    names, spans = trace["names"], trace["spans"]
    hits = {span[3] for span in spans
            if names[span[0]] == child and span[3] >= 0
            and names[spans[span[3]][0]] == parent}
    return len(hits)


def merge(total: dict, part: dict) -> dict:
    for name, row in part.items():
        acc = total.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for key in acc:
            acc[key] += row[key]
    return total


def write(trace: dict, path: str) -> None:
    # marshal is several times faster than json for a long list of tuples, so
    # writing the trace adds little to the traced child's wall time.
    with open(path, "wb") as fh:
        marshal.dump(trace, fh)


def read(path: str) -> dict:
    with open(path, "rb") as fh:
        return marshal.load(fh)
