"""The float-stream workload: a closed loop of float requests in-process.

One client sends the next request when the previous one has returned.
Requests come in batches with a fixed mix of kinds (inputs.BATCH), and the
loop runs whole batches until --seconds have passed.  Every request's result
is checked; a failed check counts as a failed request.  Between requests the
speed kernel is timed whenever a sample is due, and each batch's latencies
are scaled to the reference speed by the samples over that batch (speed.py).
"""

from __future__ import annotations

import math
import os
import resource
import sys
import time

import inputs
import metrics
import tracer
import warm_session
from proc import Env, spawn
from speed import Speed

DET_TOL = 1e-9
TRACED_BATCHES = 4


def _close(x: float, y: float, scale: float) -> bool:
    return abs(x - y) <= DET_TOL * max(1.0, scale)


def _key(v) -> tuple:
    return tuple(round(x, 6) + 0.0 for x in v)


class Requests:
    """Executes and checks one request of each kind against e6kit."""

    def __init__(self) -> None:
        from e6kit import group, jordan, rootweight
        self.group, self.jordan, self.rw = group, jordan, rootweight

    def apply(self, word: tuple, alphas: tuple, coords: list) -> str | None:
        """Act on chi with each label of the word in turn; det must not drift."""
        g, j = self.group, self.jordan
        chi = moved = j.from_coords(coords)
        for label, alpha in zip(word, alphas):
            moved = g.apply(g.parse_label(label), alpha, moved)
        scale = max(abs(float(v)) for v in j.to_coords(moved)) ** 3
        before, after = float(j.det(chi)), float(j.det(moved))
        if not _close(before, after, scale):
            return f"apply {word} {alphas}: det drift {abs(after - before):.2e}"
        return None

    def action(self, word: tuple, alphas: tuple, coords: list) -> str | None:
        """The product of the word's action matrices must act like apply."""
        g, j = self.group, self.jordan
        moved, direct = list(coords), j.from_coords(coords)
        for label, alpha in zip(word, alphas):
            lab = g.parse_label(label)
            mat = g.action_matrix(lab, alpha)
            moved = [sum(m * c for m, c in zip(row, moved)) for row in mat]
            direct = g.apply(lab, alpha, direct)
        direct = [float(v) for v in j.to_coords(direct)]
        scale = max(abs(v) for v in direct)
        if any(not _close(a, b, scale) for a, b in zip(moved, direct)):
            return f"action {word} {alphas}: matrix image differs from apply"
        before = float(j.det(j.from_coords(coords)))
        after = float(j.det(j.from_coords(moved)))
        if not _close(before, after, scale ** 3):
            return f"action {word} {alphas}: det drift {abs(after - before):.2e}"
        return None

    def diagram(self, name: str, marks: tuple, nweights: int, pick: int) -> str | None:
        rw = self.rw
        d = rw.diagram(name)
        roots = rw.root_system(d)
        if len(roots) != inputs.ROOT_COUNTS[name]:
            return f"{name}: {len(roots)} roots, expected {inputs.ROOT_COUNTS[name]}"
        wd = rw.weights_from_highest(d, marks)
        found = {w.mark for w in wd.weights}
        if len(found) != nweights:
            return f"{name}{marks}: {len(found)} weights, expected {nweights}"
        a = rw.cartan_matrix(d)
        for m in found:
            for s in range(d.rank):
                if tuple(m[k] - m[s] * a[k][s] for k in range(d.rank)) not in found:
                    return f"{name}{marks}: weights not closed under reflection {s}"
        points = [w.coords for w in wd.weights]
        normal = roots[pick % len(roots)]
        slices, struts = rw.slice_diagram(points, normal, roots=roots)
        if sum(len(s.vertices) for s in slices) != len(points):
            return f"{name}{marks}: slices lose points"
        rkeys = {_key(r) for r in roots}
        if any(_key(tuple(x - y for x, y in zip(p, q))) not in rkeys for p, q in struts):
            return f"{name}{marks}: a strut is not a root"
        image = rw.project(points, normal)
        nn = math.sqrt(sum(x * x for x in normal))
        for p, q in zip(points, image):
            along = sum(x * y for x, y in zip(p, normal)) / nn
            rest = sum(x * x for x in p) - along * along
            if len(q) != d.rank - 1 or abs(sum(x * x for x in q) - rest) > 1e-9 * max(1.0, rest):
                return f"{name}{marks}: projection does not preserve the orthogonal norm"
        return None

    def embed(self, small: str, big: str, expected: bool) -> str | None:
        rw = self.rw
        got = rw.embed_check(rw.root_system(rw.diagram(small)),
                             rw.root_system(rw.diagram(big)))
        return None if got == expected else f"embed {small} in {big}: got {got}"


def _execute(requests: Requests, req: tuple) -> str | None:
    kind = req[0]
    fn = requests.diagram if kind.startswith("diagram") else getattr(requests, kind)
    try:
        return fn(*req[1:])
    except Exception as exc:  # a raising request is a failed request
        return f"{kind}: {type(exc).__name__}: {exc}"


def run(seed: int, seconds: float, traced: bool, root: str, workdir: str) -> dict:
    stream = inputs.FloatStream(seed)
    # Set-up: a fresh session (interpreter, import, first use of each label).
    speed = None if traced else Speed()
    env = Env(root, workdir, speed=speed)
    if speed:
        speed.sample()
    setup, setup_raw, failures = [], [], []
    for _ in range(1 if traced else 3):
        res = spawn([sys.executable, os.path.join(root, "perfbench", "warm_session.py")], env)
        setup.append(res["wall"] * (speed.factor() if speed else 1.0))
        setup_raw.append(res["wall"])
        if res["rc"] != 0:
            failures.append(f"session set-up: exit {res['rc']}")
    requests = Requests()
    setup_failed = len(failures)
    warm_session.main()  # the in-process session pays it too, before the clock

    batches: list[list[tuple]] = []
    latencies: dict[str, list[float]] = {kind: [] for kind in inputs.BATCH}
    raw: dict[str, list[float]] = {kind: [] for kind in inputs.BATCH}
    tr = tracer.Tracer().install() if traced else None
    clock = time.perf_counter
    if speed:
        speed.factor()  # opens the first batch's interval
    start = clock()
    try:
        while (len(batches) < TRACED_BATCHES if traced
               else not batches or clock() - start < seconds):
            batch = stream.batch()
            batches.append(batch)
            times = []
            for req in batch:
                if speed and clock() >= speed.due:
                    speed.sample()
                if tr is not None:
                    tr.request += 1
                t0 = clock()
                failure = _execute(requests, req)
                times.append((req[0], clock() - t0))
                if failure:
                    failures.append(failure)
            scale = speed.factor() if speed else 1.0
            for kind, wall in times:
                latencies[kind].append(wall * scale)
                raw[kind].append(wall)
    finally:
        if tr is not None:
            tr.uninstall()
    elapsed = clock() - start

    result = {"attempted": sum(map(len, batches)) + setup_failed, "failed": len(failures),
              "failures": failures[:20], "inputs": inputs.float_summary(batches)}
    if not traced:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"], result["detail"] = metrics.timed_metrics(
            latencies, raw, setup, setup_raw, peak_kb, speed.samples)
        return result

    # Tracing overhead: the same batches again, untraced.
    start = clock()
    for batch in batches:
        for req in batch:
            _execute(requests, req)
    untraced = clock() - start
    trace = tr.dump()
    extra = {"algebra.tangent.computed": 0, "cache.bytes": 0, "cache.hit": 0,
             "cli.startup_s": 0.0, "cli.out_bytes": 0,
             "trace.overhead_ratio": elapsed / untraced}
    result["metrics"] = metrics.layer_metrics(tracer.summarize(trace), trace["counts"], extra)
    result["detail"] = {"untraced_s": untraced, "missing_spans": trace["missing"]}
    return result
