"""Child processes of a benchmark run: environment, timing and peak memory."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import time

CHILD_TIMEOUT_S = 150


class Env:
    """Working directory, environment and speed sampler shared by the children of one run.

    Any E6KIT_* variable of the caller is dropped, so only `cache` (when
    given) reaches the child as E6KIT_CACHE.
    """

    def __init__(self, root: str, workdir: str, cache: str | None = None, speed=None):
        self.root, self.workdir, self.speed = root, workdir, speed
        env = {k: v for k, v in os.environ.items() if not k.startswith("E6KIT_")}
        env["PYTHONPATH"] = os.path.join(root, "src")
        if cache is not None:
            env["E6KIT_CACHE"] = cache
        self.vars = env


def spawn(cmd: list[str], env: Env) -> dict:
    """Run `cmd` to completion; returns wall time, exit code, output and max RSS.

    The child's exit is seen through a pidfd, so the wall time is not rounded
    to a poll interval, and os.wait4 gives this child's own peak RSS.  With
    env.speed set, the child is stopped for one kernel sample whenever one is
    due (see speed.py); the stopped time is left out of `wall`.
    """
    speed = env.speed
    out_path = os.path.join(env.workdir, "stdout.txt")
    err_path = os.path.join(env.workdir, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                cwd=env.workdir, env=env.vars)
        paused = 0.0
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(fd, select.POLLIN)
                deadline = start + CHILD_TIMEOUT_S
                while True:
                    now = time.perf_counter()
                    if now >= deadline:
                        proc.kill()
                        deadline = float("inf")
                    wake = min(deadline, speed.due) if speed else deadline
                    if poller.poll(None if wake == float("inf") else max(0.0, wake - now) * 1e3):
                        break
                    if speed and time.perf_counter() >= speed.due:
                        t0 = time.perf_counter()
                        os.kill(proc.pid, signal.SIGSTOP)
                        speed.sample()
                        os.kill(proc.pid, signal.SIGCONT)
                        paused += time.perf_counter() - t0
            finally:
                os.close(fd)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start - paused
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return {"wall": wall, "rc": proc.returncode, "stdout": stdout, "stderr": stderr,
            "maxrss_kb": usage.ru_maxrss}
