"""Order statistics for op timings and the run-environment record."""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np
import scipy

MIN_BEYOND = 10


def timing_summary(times: list[float]) -> dict:
    """Median and tail of op times by the nearest-rank rule.

    The tail is the highest percentile with at least ``MIN_BEYOND`` samples
    beyond it: the (n - MIN_BEYOND)-th smallest of n samples, reported with
    its percentile 100 (n - MIN_BEYOND) / n.  With fewer than 2 MIN_BEYOND
    samples it falls back to the median.
    """
    ordered = sorted(times)
    n = len(ordered)
    median_rank = math.ceil(n / 2)
    tail_rank = max(median_rank, n - MIN_BEYOND)
    return {
        "samples": n,
        "p50_s": ordered[median_rank - 1],
        "tail_s": ordered[tail_rank - 1],
        "tail_percentile": 100.0 * tail_rank / n,
        "tail_samples_beyond": n - tail_rank,
    }


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop: a gauge of this machine's
    speed at the moment, recorded next to the timings so that drift between
    runs can be told apart from a change in the program."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return sorted(times)[2]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_sha(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def environment(root: str, seed: int, blas_threads: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": dict(_blas(), threads=blas_threads),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": _git_sha(root),
        "seed": seed,
        "executable": os.path.basename(sys.executable),
    }
