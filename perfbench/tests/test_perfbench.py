"""Tests of the benchmark itself: contract, checks that fire, exact counts.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import cli_bench  # noqa: E402
import float_bench  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import proc  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402


def _op(verb, argv, expect=None):
    return {"verb": verb, "argv": argv, "expect": expect}


def test_benchmark_json_matches_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [row[:3] for row in metrics.PER_LAYER]


def test_inputs_depend_only_on_seed():
    labels = inputs.label_texts()
    assert len(set(labels)) == 135
    from e6kit import group
    assert [group.format_label(group.parse_label(t)) for t in labels] \
        == [group.format_label(lab) for lab in group.all_labels()]
    assert inputs.cli_plan(7) == inputs.cli_plan(7)
    assert inputs.FloatStream(3).batch() == inputs.FloatStream(3).batch()
    assert inputs.FloatStream(3).batch() != inputs.FloatStream(4).batch()


def test_tail_is_highest_percentile_with_ten_beyond():
    xs = list(range(1, 201))
    assert metrics.tail(xs) == (190, 95.0)
    assert metrics.tail([3.0, 1.0, 2.0]) is None


def test_empty_constants_cache_is_a_failed_op(tmp_path):
    """A cache with the right version and no constants makes killing print (0,0)."""
    def poison(env, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"version": "e6kit-structure-2", "tangents": {}, "constants": []}, fh)
        return 0.0, None

    plan = [_op("killing", ["killing", "--out", "killing.json"]),
            _op("table", ["table", "--out", "table.json"])]
    result = cli_bench.run("cli-cached", 0, 0, False, ROOT, str(tmp_path),
                           plan=plan, prepare_cache=poison)
    assert result["attempted"] == result["failed"] == 4  # two fills, one round after each
    assert "signature [0, 0, 78]" in result["failures"][0]


def test_traced_counts_repeat_exactly(tmp_path):
    plan = [_op("gellmann", ["gellmann"])]
    cli = [cli_bench.run("cli-cold", 0, 0, True, ROOT, str(tmp_path), plan=plan)["metrics"]
           for _ in range(2)]
    for name in ("group.apply_dual.calls", "octonion.mul.calls",
                 "linalg.SpanBasis.express.calls", "algebra.commutator.calls"):
        assert cli[0][name] == cli[1][name] > 0, name
    assert cli[0]["group.apply_dual.calls"] == 27 * cli[0]["algebra.tangent.computed"]
    flt = [float_bench.run(5, 0, True, ROOT, str(tmp_path))["metrics"] for _ in range(2)]
    for name in ("rootweight.inverse_cartan.calls", "group.apply.calls",
                 "octonion.mul.calls", "jordan.det.calls"):
        assert flt[0][name] == flt[1][name] > 0, name
    assert flt[0]["group.apply_dual.calls"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_float_run_reports_every_layer_metric(tmp_path):
    result = float_bench.run(1, 0, True, ROOT, str(tmp_path))
    assert set(result["metrics"]) == {row[0] for row in metrics.PER_LAYER}
    assert result["failed"] == 0


def test_speed_factor_is_reference_over_mean_kernel_time():
    sp = speed.Speed()
    sp.sample()
    sp.sample()
    first = sp.factor()
    assert first == pytest.approx(speed.REF_S * 3 / sum(sp.samples))
    second = sp.factor()  # the closing sample of one interval opens the next
    assert second == pytest.approx(speed.REF_S * 2 / sum(sp.samples[-2:]))


def test_speed_samples_are_left_out_of_a_childs_time(tmp_path):
    sp = speed.Speed()
    sp.sample()
    env = proc.Env(ROOT, str(tmp_path), speed=sp)
    start = time.perf_counter()
    res = proc.spawn([sys.executable, "-c", "sum(range(6 * 10 ** 7))"], env)
    total = time.perf_counter() - start
    assert res["rc"] == 0
    during = sp.samples[1:]
    assert len(during) >= 2
    assert res["wall"] <= total - sum(during)
