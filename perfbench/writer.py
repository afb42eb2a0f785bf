"""The ``mixed`` workload's writer: a separate process ingesting on a schedule.

Usage (started by ``run.py``; ``src`` must be on ``PYTHONPATH``)::

    python3 perfbench/writer.py JOB.pickle OUT.pickle

It opens a :class:`~repro.runtime.SynthesisEngine` on the store file the
server is serving, prints ``ready``, waits for ``go <t0>`` on stdin and
then ingests batch *b* at ``t0 + b / rate`` (``time.monotonic``, which is
system-wide on Linux, so the benchmark can compare it with its own
clock).  Every :class:`~repro.runtime.CommitEvent` is collected through
``add_commit_listener`` and written to OUT with the schedule.
"""

from __future__ import annotations

import os
import pickle
import sys
import time

# The writer yields the CPU to the server and the load generator, as a
# background ingest beside a serving tier would: on a box with few cores
# its batches otherwise compete with both for the CPU, and the reported
# request latency follows the writer's bursts.
WRITER_NICE = 10


def main(job_path: str, out_path: str) -> int:
    """Run one scheduled writer job."""
    os.nice(WRITER_NICE)
    from repro.runtime import SynthesisEngine
    from repro.serving.reader import CatalogReader

    with open(job_path, "rb") as handle:
        job = pickle.load(handle)
    engine = SynthesisEngine(**job["parts"], store="sqlite", store_path=job["store_path"])
    events = []
    engine.add_commit_listener(events.append)
    print("ready", flush=True)
    line = sys.stdin.readline().split()
    if len(line) != 2 or line[0] != "go":
        engine.close()
        return 2
    start = float(line[1])
    rate = job["rate"]
    schedule = []
    failed = 0
    try:
        for index, batch in enumerate(job["batches"]):
            due = start + index / rate
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            began = time.monotonic()
            try:
                engine.ingest(batch)
            except Exception as error:  # noqa: BLE001 - counted as a failed operation
                failed += 1
                print(f"writer: batch {index} failed: {error!r}", file=sys.stderr)
                continue
            schedule.append((due, began, time.monotonic(), engine.store.commit_count))
    finally:
        engine.close()
    # close() commits once more without a CommitEvent (nothing changes).
    with CatalogReader(job["store_path"]) as reader:
        head = reader.commit_count()
    with open(out_path, "wb") as handle:
        pickle.dump(
            {"events": events, "schedule": schedule, "failed": failed, "head": head}, handle
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
