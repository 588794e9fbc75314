"""e6kit benchmark: one workload per invocation, checked, with a JSON summary.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 10 --trace 0

Workloads: cli-cold, cli-cached, float-stream (see BENCHMARK.json for why).
With --trace 0 the last stdout line carries the end-to-end metrics, measured
untraced and scaled to a reference machine speed (speed.py); with --trace 1
it carries the per-layer metrics of a traced run of one round (cli) or a
fixed number of batches (float-stream).  The line before it holds
provenance, the input summary and details such as per-verb times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cli-cold", "cli-cached", "float-stream")


def _commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree (see src_sha256)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "e6kit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(args) -> dict:
    return {"python": platform.python_version(), "commit": _commit(),
            "src_sha256": _src_digest(), "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "e6kit", "cli.py")):
        print(f"perfbench: no e6kit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cli_bench
    import float_bench
    import metrics
    import speed

    # A terminated run still stops its child (proc.spawn kills it on any exit).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cpu = speed.pin()
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        if args.workload == "float-stream":
            result = float_bench.run(args.seed, args.seconds, bool(args.trace), ROOT, workdir)
        else:
            result = cli_bench.run(args.workload, args.seed, args.seconds,
                                   bool(args.trace), ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)  # only when no other run is using it

    attempted, failed = result["attempted"], result["failed"]
    units = {name: unit for name, unit, *_ in
             (metrics.PER_LAYER if args.trace else metrics.END_TO_END)}
    detail = dict(result["detail"], failures=result["failures"], rounds=result.get("rounds"),
                  error_rate={"value": failed / attempted, "unit": "ratio"})
    print(json.dumps({"provenance": dict(provenance(args), pinned_cpu=cpu),
                      "inputs": result["inputs"],
                      "detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
