"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout of the repository::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Workloads: ``ingest``, ``cluster``, ``query``, ``mixed`` (see
``workloads.py`` and ``BENCHMARK.json``).  The program under test is
imported from ``src/`` of the same checkout.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  The line before it
(``perfbench-detail ...``) carries sample counts, the machine
fingerprint and the span totals; ``--out FILE`` appends the whole record
to FILE as one JSON line, which ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# Offline set-up is repeated and its median reported, so one slow
# repetition does not move setup_s.
SETUP_REPEATS = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=["ingest", "cluster", "query", "mixed"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured window")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append the full result record to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    """Run one workload; returns the exit code."""
    args = _parse_args(argv)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(
            f"perfbench: no program to measure: {SRC_DIR}/repro is missing "
            "(run from the root of a checkout of the repository)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC_DIR)
    # A SIGTERM unwinds like an error, so the server, writer and cluster
    # nodes this run started are stopped on the way out.
    signal.signal(signal.SIGTERM, _terminate)
    work_dir = os.path.join(ROOT, ".perfbench-run", str(os.getpid()))
    os.makedirs(work_dir)
    try:
        record = _run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print("perfbench-detail " + json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(record["result"]))
    return 0


def _terminate(signum: int, frame: object) -> None:
    sys.exit(128 + signum)


def _run(args, work_dir: str) -> dict:
    import inputs
    import layers
    import workloads
    from measure import machine_fingerprint, worker_count
    from tracer import Tracer, aggregate

    ctx = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        src_dir=SRC_DIR,
        bench_dir=BENCH_DIR,
        work_dir=work_dir,
        out_dir=os.path.join(ROOT, ".perfbench-out"),
        nproc=worker_count(),
    )
    data = inputs.make_inputs(args.seed)

    offline_s = []
    offline_layers = {}
    if ctx.trace:
        tracer = Tracer()
        layers.install_offline(tracer)
        try:
            began = time.perf_counter()
            learned = inputs.offline_setup(data)
            offline_s.append(time.perf_counter() - began)
        finally:
            tracer.uninstall()
        layers.from_totals(aggregate(tracer.spans), offline_layers)
        offline_layers["extraction.history_s"] = learned.steps["extraction.history_s"]
        offline_layers["classify.train_s"] = learned.steps["classify.train_s"]
    else:
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            learned = inputs.offline_setup(data)
            offline_s.append(time.perf_counter() - began)

    outcome = workloads.WORKLOADS[args.workload](ctx, data, learned)

    if ctx.trace:
        outcome.layers.update(offline_layers)
        metrics = layers.complete(outcome.layers)
    else:
        values = dict(outcome.metrics)
        values["setup_s"] = statistics.median(offline_s) + outcome.setup_s
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_fingerprint(),
        "setup": {
            "offline_s": offline_s,
            "offline_steps_s": learned.steps,
            "workload_s": outcome.setup_s,
        },
        "details": outcome.details,
        "result": result,
    }


if __name__ == "__main__":
    sys.exit(main())
