"""Percentiles, machine fingerprint and /proc readers."""

from __future__ import annotations

import math
import os
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence

# Each reported tail percentile must have at least this many samples
# beyond it; fewer and the run is reported as unsupported.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in (0, 1])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def tail_supported(count: int, fraction: float) -> bool:
    """Whether ``count`` samples leave >= MIN_TAIL_SAMPLES beyond the percentile."""
    return count - math.ceil(fraction * count) >= MIN_TAIL_SAMPLES


def timing_summary(seconds: Sequence[float], tails: Sequence[float]) -> Dict[str, object]:
    """Median and each tail percentile in ms, with the sample count.

    ``unsupported`` lists the tails with fewer than MIN_TAIL_SAMPLES
    samples beyond them.
    """
    summary: Dict[str, object] = {"p50_ms": percentile(seconds, 0.5) * 1000.0}
    for tail in tails:
        summary[f"p{round(tail * 100)}_ms"] = percentile(seconds, tail) * 1000.0
    summary["samples"] = len(seconds)
    summary["unsupported"] = [tail for tail in tails if not tail_supported(len(seconds), tail)]
    return summary


def calibration_score() -> float:
    """Millions of iterations per second of a fixed pure-Python loop (best of 3)."""
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(1_000_000):
            total += value * value % 7
        best = min(best, time.perf_counter() - started)
    return 1.0 / best


def machine_fingerprint() -> Dict[str, object]:
    """What a result needs to tell a hardware change from a code change."""
    try:
        affinity: Optional[List[int]] = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "calibration_mops": round(calibration_score(), 3),
    }


def worker_count() -> int:
    """Usable cores: connections, threads and cluster nodes scale with it."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # not on Linux
        return max(1, os.cpu_count() or 1)


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of process ``pid`` in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """utime + stime of process ``pid`` in seconds."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
