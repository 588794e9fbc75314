"""End-to-end and per-layer metric definitions.

END_TO_END and PER_LAYER mirror BENCHMARK.json (the tests check that they
agree).  PER_LAYER also records, for each layer metric, which end-to-end
metric it should move and on which workload, so a later change can say in
advance which numbers it expects to shift.
"""

from __future__ import annotations

import math
import statistics

# name, unit, better, bound.  Times are scaled to a reference machine speed
# (see speed.py); the bounds allow for what the scaling cannot remove.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("req_per_s", "1/s", "higher", 0.25),
    ("req_p50_ms", "ms", "lower", 0.25),
    ("req_tail_ms", "ms", "lower", 0.25),
    ("kind_geomean_ms", "ms", "lower", 0.25),
]

COLD, CACHED, FLOAT = "cli-cold", "cli-cached", "float-stream"
CLI = f"{COLD}, {CACHED}"
VERBS_ALL = "req_per_s, req_p50_ms, req_tail_ms, kind_geomean_ms"

# name, unit, better, end-to-end metrics it should move, workloads it moves on
PER_LAYER = [
    ("group.apply_dual.calls", "count", "lower", VERBS_ALL, f"{COLD} (0 on {CACHED})"),
    ("group.apply_dual.s", "s", "lower", VERBS_ALL, COLD),
    ("algebra.tangent.s", "s", "lower", VERBS_ALL, COLD),
    ("algebra.tangent.computed", "count", "lower", VERBS_ALL, f"{COLD} (0 on {CACHED})"),
    ("octonion.mul.calls", "count", "lower", "req_per_s", f"{COLD}, {FLOAT}"),
    ("jordan.matmul.s", "s", "lower", "req_per_s", f"{COLD}, {FLOAT}"),
    ("algebra.structure_table.s", "s", "lower", "req_p50_ms, kind_geomean_ms (table, killing)",
     f"{COLD}; the cache load on {CACHED}"),
    ("algebra.structure_table.self_s", "s", "lower", "req_p50_ms, kind_geomean_ms (table, killing)",
     f"{COLD}; the cache load on {CACHED}"),
    ("algebra.commutator.calls", "count", "lower", "kind_geomean_ms (table, killing)", COLD),
    ("algebra.commutator.nonzero_ratio", "ratio", "higher", "kind_geomean_ms (table, killing)", COLD),
    ("linalg.SpanBasis.add.s", "s", "lower", "kind_geomean_ms (table, stab-l, gellmann)", COLD),
    ("linalg.SpanBasis.express.calls", "count", "lower", "kind_geomean_ms (table, stab-l, gellmann)", COLD),
    ("linalg.SpanBasis.express.s", "s", "lower", "kind_geomean_ms (table, stab-l, gellmann)", COLD),
    ("linalg.rank_mod_p.calls", "count", "lower", "kind_geomean_ms (subalg)", f"{CLI}; dominant on {CACHED}"),
    ("linalg.rank_mod_p.s", "s", "lower", "kind_geomean_ms (subalg)", f"{CLI}; dominant on {CACHED}"),
    ("algebra.rank_estimate.s", "s", "lower", "kind_geomean_ms (subalg)", f"{CLI}; dominant on {CACHED}"),
    ("linalg.signature_symmetric.s", "s", "lower", "kind_geomean_ms (killing, subalg)", CLI),
    ("algebra.killing_matrix.s", "s", "lower", "kind_geomean_ms (killing, subalg)", CLI),
    ("subalgebra.killing_restricted.s", "s", "lower", "kind_geomean_ms (subalg)", CLI),
    ("algebra.stabilizer_of_l.s", "s", "lower", "kind_geomean_ms (stab-l)", CLI),
    ("algebra.gellmann_check.s", "s", "lower", "kind_geomean_ms (gellmann)", CLI),
    ("subalgebra.fixed_subalgebra.s", "s", "lower", "kind_geomean_ms (subalg)", CLI),
    ("subalgebra.compact_preimage.s", "s", "lower", "kind_geomean_ms (subalg)", CLI),
    ("cache.bytes", "bytes", "lower", "setup_s, req_p50_ms", CACHED),
    ("cache.hit", "count", "higher", "setup_s, req_p50_ms", CACHED),
    ("cli.run.s", "s", "lower", VERBS_ALL, f"{CLI}; mostly {CACHED}"),
    ("cli.startup_s", "s", "lower", VERBS_ALL, f"{CLI}; mostly {CACHED}"),
    ("cli.out_bytes", "bytes", "lower", VERBS_ALL, f"{CLI}; mostly {CACHED}"),
    ("group.apply.calls", "count", "lower", "req_p50_ms, req_per_s, req_tail_ms (verify)",
     f"{FLOAT}; the det suite in verify on {CLI}"),
    ("group.apply.s", "s", "lower", "req_p50_ms, req_per_s, req_tail_ms (verify)",
     f"{FLOAT}; the det suite in verify on {CLI}"),
    ("group.action_matrix.s", "s", "lower", "req_p50_ms, req_per_s, req_tail_ms (verify)",
     f"{FLOAT}; the det suite in verify on {CLI}"),
    ("jordan.det.calls", "count", "lower", "req_p50_ms, req_per_s, req_tail_ms (verify)",
     f"{FLOAT}; the det suite in verify on {CLI}"),
    ("jordan.det.s", "s", "lower", "req_p50_ms, req_per_s, req_tail_ms (verify)",
     f"{FLOAT}; the det suite in verify on {CLI}"),
    ("rootweight.weights_from_highest.s", "s", "lower", "req_tail_ms, req_per_s", FLOAT),
    ("rootweight.weights", "count", "lower", "req_tail_ms, req_per_s", FLOAT),
    ("rootweight.inverse_cartan.calls", "count", "lower", "req_tail_ms, req_per_s", FLOAT),
    ("rootweight.slice_diagram.s", "s", "lower", "req_tail_ms, req_per_s", FLOAT),
    ("rootweight.root_system.s", "s", "lower", "req_tail_ms, req_per_s", FLOAT),
    ("rootweight.embed_check.s", "s", "lower", "req_tail_ms, req_per_s", FLOAT),
    ("trace.overhead_ratio", "ratio", "lower", "none: checks the tracing itself", "all"),
]


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(value, percentile): the highest percentile with ten samples beyond it.

    None below 100 samples, where that percentile would fall under p90.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 100:
        return None
    return xs[n - 11], 100.0 * (n - 10) / n


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def latency_metrics(latencies: dict[str, list[float]], setup: list[float],
                    peak_rss_kb: int) -> tuple[dict, dict]:
    """End-to-end metrics from per-kind latencies (seconds) of one run.

    req_per_s is the closed loop's rate over the time spent in requests, so
    the benchmark's own checks between requests do not count.  Returns
    (metrics, detail); detail holds the tail rule (percentile), the sample
    count and per-kind medians and means.
    """
    flat = [x for xs in latencies.values() for x in xs]
    kind_p50 = {kind: statistics.median(xs) for kind, xs in latencies.items() if xs}
    found = tail(flat)
    if found is None:
        # The CLI workloads make too few requests for a percentile tail; the
        # slowest verb's median is less noisy than the single slowest sample.
        tail_value, tail_rule = max(kind_p50.values()), "median of the slowest kind"
    else:
        tail_value, tail_rule = found[0], f"p{found[1]:.2f}"
    kind_mean = {kind: statistics.fmean(xs) for kind, xs in latencies.items() if xs}
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "req_per_s": len(flat) / sum(flat),
        "req_p50_ms": statistics.median(flat) * 1e3,
        "req_tail_ms": tail_value * 1e3,
        "kind_geomean_ms": geomean(list(kind_mean.values())) * 1e3,
    }
    detail = {"samples": len(flat), "tail": tail_rule,
              "setup_samples_s": setup,
              "kind_p50_ms": {k: v * 1e3 for k, v in kind_p50.items()},
              "kind_mean_ms": {k: v * 1e3 for k, v in kind_mean.items()},
              "kind_samples": {k: len(v) for k, v in latencies.items()}}
    return metrics, detail


def timed_metrics(scaled: dict[str, list[float]], raw: dict[str, list[float]],
                  setup_scaled: list[float], setup_raw: list[float], peak_rss_kb: int,
                  samples: list[float]) -> tuple[dict, dict]:
    """latency_metrics of the speed-scaled times, with the raw ones in the detail."""
    result, detail = latency_metrics(scaled, setup_scaled, peak_rss_kb)
    detail["raw_wall"] = latency_metrics(raw, setup_raw, peak_rss_kb)[0]
    detail["speed_samples_ms"] = {"n": len(samples), "mean": statistics.fmean(samples) * 1e3,
                                  "min": min(samples) * 1e3, "max": max(samples) * 1e3}
    return result, detail


def layer_metrics(summary: dict, counts: dict, extra: dict) -> dict:
    """Per-layer metrics from a merged span summary, counters and extras."""
    def row(name):
        return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    out = {}
    for name, *_ in PER_LAYER:
        if name in extra:
            out[name] = extra[name]
            continue
        span, _, field = name.rpartition(".")
        if field == "calls" and span in counts:
            out[name] = counts[span]
        elif field in ("calls", "s", "self_s"):
            out[name] = row(span)[field]
    calls = row("algebra.commutator")["calls"]
    out["algebra.commutator.nonzero_ratio"] = (
        counts.get("algebra.commutator.nonzero", 0) / calls if calls else 0.0)
    out["rootweight.weights"] = counts.get("rootweight.weights", 0)
    return {name: out[name] for name, *_ in PER_LAYER}
