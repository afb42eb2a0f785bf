"""Compare two sets of benchmark results, metric by metric and workload by workload.

Usage::

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds the records ``run.py --out FILE`` appends, one JSON line
per run.  With one file, prints each metric's median and quartile
spread per workload.  With two, prints for every (workload, metric)
pair both medians, the change, and a verdict against the metric's bound
in ``BENCHMARK.json``:

* ``worse`` / ``better`` — the medians differ by more than the bound;
* ``unresolved`` — a side's own quartile spread exceeds the bound, so a
  change within it cannot be told from noise;
* ``same`` — otherwise.

For traced runs (``--trace 1``) it also names, per workload, the layer
(span) whose self time moved most between the two sets.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> List[dict]:
    """Records of one result set."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def metric_values(records: List[dict], trace: int) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values over the runs with this trace setting."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for record in records:
        if record["trace"] != trace:
            continue
        for name, metric in record["result"]["metrics"].items():
            values[(record["workload"], name)].append(metric["value"])
    return values


def self_times(records: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, span name) -> self seconds over the traced runs."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for record in records:
        trace = record.get("details", {}).get("trace")
        if record["trace"] != 1 or not trace:
            continue
        for name, totals in trace["totals"].items():
            values[(record["workload"], name)].append(totals["self_s"])
    return values


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / abs(median) if median else 0.0


def bounds() -> Dict[str, dict]:
    """End-to-end metric definitions from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric for metric in json.load(handle)["end_to_end"]}


def summarise(records: List[dict]) -> None:
    """Median and spread of every metric of one result set."""
    for trace in (0, 1):
        values = metric_values(records, trace)
        for (workload, name), series in sorted(values.items()):
            print(
                f"{workload:8s} {name:40s} n={len(series):2d} "
                f"median={statistics.median(series):12.4f} spread={spread(series):7.2%}"
            )


def verdict(base: List[float], new: List[float], metric: dict) -> Tuple[float, str]:
    """Relative change of the medians (positive = worse) and its verdict."""
    base_median, new_median = statistics.median(base), statistics.median(new)
    change = (new_median - base_median) / abs(base_median)
    worse = change if metric["better"] == "lower" else -change
    if max(spread(base), spread(new)) > metric["bound"]:
        return worse, "unresolved"
    if worse > metric["bound"]:
        return worse, "worse"
    if -worse > metric["bound"]:
        return worse, "better"
    return worse, "same"


def compare(base: List[dict], new: List[dict]) -> None:
    """Print the end-to-end verdicts and the most-moved layer per workload."""
    metrics = bounds()
    base_values, new_values = metric_values(base, 0), metric_values(new, 0)
    print(f"{'workload':8s} {'metric':16s} {'base':>12s} {'new':>12s} {'worse by':>9s} verdict")
    for key in sorted(set(base_values) & set(new_values)):
        workload, name = key
        if name not in metrics:
            continue
        worse, label = verdict(base_values[key], new_values[key], metrics[name])
        print(
            f"{workload:8s} {name:16s} {statistics.median(base_values[key]):12.4f} "
            f"{statistics.median(new_values[key]):12.4f} {worse:9.2%} {label}"
        )
    base_self, new_self = self_times(base), self_times(new)
    moved: Dict[str, Tuple[float, str]] = {}
    for key in set(base_self) & set(new_self):
        workload, name = key
        delta = statistics.median(new_self[key]) - statistics.median(base_self[key])
        if workload not in moved or abs(delta) > abs(moved[workload][0]):
            moved[workload] = (delta, name)
    for workload, (delta, name) in sorted(moved.items()):
        print(f"{workload:8s} self time moved most in {name}: {delta:+.4f} s")


def main(argv: List[str]) -> int:
    """Entry point."""
    if len(argv) == 1:
        summarise(load(argv[0]))
        return 0
    if len(argv) == 2:
        compare(load(argv[0]), load(argv[1]))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
