"""The cli-cold and cli-cached workloads.

Each round runs the six verbs of inputs.cli_plan() one after another, each in
a fresh interpreter (`python -m e6kit.cli`), and checks every output.  On
cli-cold no E6KIT_CACHE reaches the child; on cli-cached it points at a cache
file filled during set-up in this run's own temporary directory.  Each
child's wall time, less the moments it was stopped for a speed sample, is
scaled to the reference speed (speed.py).
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time

import inputs
import metrics
import tracer
from proc import Env, spawn
from speed import Speed

# SHA-256 of the seed commit's outputs.
GOLDEN = {
    "table": "8bbe61ca9cacaf584f5825733cd407b5beb93ecf8e90ec8da2a50021272b7925",
    "killing": "ad1c84d7ba8cfcfae8600e0a6644c364eaf372ed95bbfb7474367bc5e9c5cf81",
    "stab-l": "54e118e03bf290a67ffd2417839e33efa927f67e6aabfe80907328f1db39ea67",
    "gellmann": "2f1456b917466fe5cd6b030e81ae558f0b29367b43fa93d336d4f2a091d758d6",
}


# Per-verb wall-time names, reported in the detail line.
VERB_METRICS = {"killing": "killing_s", "table": "table_s", "verify": "verify_all_s",
                "stab-l": "stab_l_s", "subalg": "subalg_s", "gellmann": "gellmann_s"}


def _cmd(env: Env, argv: list[str], trace_out: str | None = None) -> list[str]:
    if trace_out is None:
        return [sys.executable, "-m", "e6kit.cli"] + argv
    return [sys.executable, os.path.join(env.root, "perfbench", "trace_cli.py"),
            trace_out] + argv


def _read(env: Env, name: str) -> bytes:
    path = os.path.join(env.workdir, name)
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data


def check(op: dict, res: dict, env: Env) -> tuple[str | None, int]:
    """(failure reason or None, bytes the verb wrote to stdout and --out)."""
    verb, out = op["verb"], res["stdout"]
    written = len(out)
    if verb in ("table", "killing"):
        try:
            out = _read(env, f"{verb}.json")
        except OSError as exc:
            return f"{verb}: no output file ({exc})", written
        written += len(out)
    if res["rc"] != 0:
        tail = res["stderr"].decode(errors="replace").strip().splitlines()[-1:]
        return f"{verb}: exit {res['rc']} {tail}", written
    try:
        return _check_output(op, out), written
    except (ValueError, KeyError, TypeError) as exc:
        return f"{verb}: unreadable output ({exc})", written


def _check_output(op: dict, out: bytes) -> str | None:
    verb = op["verb"]
    if verb == "killing":
        sig = json.loads(out)["signature"]
        if sig != [52, 26, 0]:
            return f"killing: signature {sig}"
    elif verb == "verify":
        lines = out.decode().splitlines()
        want = ["31 identities confirmed", "jacobi holds on 500 seeded triples",
                "det preserved for all 135 labels (tol 1e-09)"]
        if [ln for ln in lines if not ln.startswith("confirmed: ")] != want:
            return f"verify: unexpected report {lines[-3:]}"
        if sum(ln.startswith("confirmed: ") for ln in lines) != 31:
            return "verify: wrong number of confirmed identities"
        return None
    elif verb == "subalg":
        report = json.loads(out)
        got = (report["dim"], report["signature"], report["rank"], report["names"])
        if got != tuple(op["expect"]) or len(report["basis"]) != got[0]:
            return f"subalg {' '.join(op['argv'])}: got {got}"
        return None
    digest = hashlib.sha256(out).hexdigest()
    if digest != GOLDEN[verb]:
        return f"{verb}: output hash {digest[:12]} differs from the seed's"
    return None


def fill_cache(env: Env, path: str) -> tuple[float, str | None]:
    """Set-up for cli-cached: one cold `table` run that writes the cache file."""
    fill_env = Env(env.root, env.workdir, path, env.speed)
    res = spawn(_cmd(fill_env, ["table", "--out", "table.json"]), fill_env)
    failure = check({"verb": "table"}, res, env)[0]
    if failure is None and not os.path.exists(path):
        failure = "cache fill: no cache file written"
    return res["wall"], failure


def run(workload: str, seed: int, seconds: float, traced: bool, root: str,
        workdir: str, plan: list[dict] | None = None, prepare_cache=None) -> dict:
    """Run a CLI workload; `plan` and `prepare_cache` let tests substitute inputs."""
    plan = plan if plan is not None else inputs.cli_plan(seed)
    cached = workload == "cli-cached"
    failures: list[str] = []
    setup: list[float] = []
    setup_raw: list[float] = []
    attempted = cache_bytes = 0
    # Traced children are not stopped for speed samples: their spans would
    # count the stops.
    speed = None if traced else Speed()
    env = Env(root, workdir, speed=speed)
    if speed:
        speed.sample()

    def run_op(op: dict, trace_out: str | None = None) -> dict:
        nonlocal attempted
        res = spawn(_cmd(env, op["argv"], trace_out), env)
        attempted += 1
        failure, res["written"] = check(op, res, env)
        if failure:
            failures.append(failure)
        return res

    def setup_step(wall: float, failure: str | None) -> None:
        nonlocal attempted
        setup.append(wall * (speed.factor() if speed else 1.0))
        setup_raw.append(wall)
        if failure:  # a failed set-up step counts as a failed op
            attempted += 1
            failures.append(failure)

    latencies: dict[str, list[float]] = {op["verb"]: [] for op in plan}
    raw: dict[str, list[float]] = {op["verb"]: [] for op in plan}
    peak_kb = rounds = 0
    elapsed = 0.0
    traces: list[tuple[dict, dict]] = []
    trace_out = os.path.join(workdir, "trace.bin") if traced else None
    # cli-cached alternates set-up and measurement (fill, rounds, fill, rounds)
    # with a fresh cache path per fill.  Machine speed drifts over minutes, and
    # spreading the measured rounds over the whole run averages more of it.
    phases = 2 if cached and not traced else 1
    for phase in range(phases):
        if cached:
            path = os.path.join(workdir, f"cache-{phase}.json")
            setup_step(*(prepare_cache or fill_cache)(env, path))
            cache_bytes = os.path.getsize(path) if os.path.exists(path) else 0
            env = Env(root, workdir, path, speed)
        else:
            # Set-up for cli-cold: interpreter start, package import and parser.
            for _ in range(1 if traced else 3):
                res = spawn(_cmd(env, ["--help"]), env)
                setup_step(res["wall"], f"--help: exit {res['rc']}" if res["rc"] else None)
        start = time.perf_counter()
        until = seconds * (phase + 1) / phases - elapsed
        phase_rounds = 0
        while phase_rounds == 0 or (not traced and time.perf_counter() - start < until):
            for op in plan:
                res = run_op(op, trace_out)
                scale = speed.factor() if speed else 1.0
                latencies[op["verb"]].append(res["wall"] * scale)
                raw[op["verb"]].append(res["wall"])
                peak_kb = max(peak_kb, res["maxrss_kb"])
                if traced and os.path.exists(trace_out):
                    traces.append((tracer.read(trace_out), res))
                    os.remove(trace_out)
            phase_rounds += 1
        rounds += phase_rounds
        elapsed += time.perf_counter() - start

    result = {"attempted": attempted, "failed": len(failures), "failures": failures[:20],
              "rounds": rounds, "inputs": inputs.cli_summary(plan)}
    if not traced:
        result["metrics"], result["detail"] = metrics.timed_metrics(
            latencies, raw, setup, setup_raw, peak_kb, speed.samples)
        per_round = [sum(xs[n] for xs in latencies.values()) for n in range(rounds)]
        named = {VERB_METRICS[verb]: statistics.median(xs) for verb, xs in latencies.items()}
        named["cli_total_s"] = statistics.median(per_round)
        result["detail"]["verbs"] = {k: {"value": v, "unit": "s"} for k, v in named.items()}
        return result

    # Tracing overhead: the same round again, untraced.
    untraced = sum(run_op(op)["wall"] for op in plan)
    result.update(attempted=attempted, failed=len(failures), failures=failures[:20])
    summary, counts = {}, {}
    startup = written = hits = computed = 0
    for trace, res in traces:
        part = tracer.summarize(trace)
        tracer.merge(summary, part)
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
        startup += res["wall"] - part.get("cli.run", {"s": 0.0})["s"]
        written += res["written"]
        computed += tracer.parents_with_child(trace, "algebra.tangent", "group.apply_dual")
        hits += int(cached and part.get("group.apply_dual", {"calls": 0})["calls"] == 0)
    extra = {"algebra.tangent.computed": computed, "cache.bytes": cache_bytes,
             "cache.hit": hits, "cli.startup_s": startup, "cli.out_bytes": written,
             "trace.overhead_ratio": sum(res["wall"] for _, res in traces) / untraced}
    result["metrics"] = metrics.layer_metrics(summary, counts, extra)
    result["detail"] = {"untraced_round_s": untraced,
                        "missing_spans": traces[0][0]["missing"] if traces else None}
    return result
