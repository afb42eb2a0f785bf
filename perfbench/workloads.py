"""The four workloads: ingest, cluster, query and mixed.

Every workload reports the same end-to-end metrics, each defined for the
operation that workload loads:

* ``ops_per_s`` — ingest/cluster: stream offers committed per second
  (closed loop); query: queries per second with ``nproc`` connections
  back to back; mixed: queries answered per second at the fixed offered
  rate while the writer commits.
* ``op_p50_ms`` — ingest/cluster: time in one ``ingest(batch)`` call
  including its commit; query/mixed: open-loop request latency from its
  due time.  The tails (p90, p99 where the samples support it) are in
  the detail line and, for traced runs, the per-layer ``tail.*`` metrics:
  on a few shared cores they follow machine speed far beyond any bound.
* ``peak_rss_mb`` — peak resident memory of the processes doing the work
  (benchmark process for ingest, coordinator plus nodes for cluster, the
  server for query and mixed).
* ``setup_s`` — everything before the measured window except corpus
  generation.

A failed operation is an ingest exception, a non-200 response, a timeout
or an output-check mismatch.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import inputs as inp
import layers
import loadgen
from measure import cpu_seconds, peak_rss_mb, percentile, timing_summary
from tracer import (
    LayerTotals,
    Tracer,
    aggregate,
    children_coverage,
    read_spans,
    totals_to_dict,
)

from repro.model.persistence import product_to_dict
from repro.obs import get_registry
from repro.runtime import MultiProcessEngine, SynthesisEngine
from repro.serving.index import CatalogIndex
from repro.serving.reader import CatalogReader
from repro.text.memo import clear_text_caches, text_cache_info

# Fixed shape of each workload; recorded in BENCHMARK.json's "why" lines.
INGEST_BATCH = 40
QUERY_RATE = 200.0
QUERY_OPEN_SHARE = 0.6
WRITER_BATCH = 5
WRITER_RATE = 5.0
CLUSTER_PIPELINE_DEPTH = 2
CLUSTER_SHARDS = 8


@dataclass
class Context:
    """Run-wide settings and directories."""

    seed: int
    seconds: float
    trace: bool
    src_dir: str
    bench_dir: str
    work_dir: str
    out_dir: str
    nproc: int


@dataclass
class Outcome:
    """What a workload measured."""

    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Seconds of workload-specific set-up (store build, server, nodes).
    setup_s: float = 0.0


def _remove_store(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        try:
            os.remove(path + suffix)
        except FileNotFoundError:
            pass


def _store_bytes(path: str) -> int:
    return sum(
        os.path.getsize(path + suffix)
        for suffix in ("", "-wal")
        if os.path.exists(path + suffix)
    )


def _busy(totals: Dict[str, LayerTotals], name: str) -> float:
    """Busy seconds of one span name (0 when its wrap target is missing)."""
    return totals[name].busy_s if name in totals else 0.0


def _overhead(untraced: Dict[str, float], traced: Dict[str, float]) -> Dict[str, float]:
    return {
        "trace.overhead_ops_per_s_share": 1.0 - traced["ops_per_s"] / untraced["ops_per_s"],
        "trace.overhead_op_p50_share": traced["op_p50_ms"] / untraced["op_p50_ms"] - 1.0,
    }


# -- ingest and cluster ---------------------------------------------------------


@dataclass
class _Pass:
    batch_s: List[float]
    elapsed_s: float
    matched: bool
    failed: int
    reports: list
    stats: Dict[str, float] = field(default_factory=dict)


def _stream_passes(ctx: Context, run_pass, batches) -> List[_Pass]:
    """Whole passes over the stream until the window has elapsed."""
    passes: List[_Pass] = []
    deadline = time.perf_counter() + ctx.seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(batches))
    return passes


def _ingest_batches(engine, batches, flush=None) -> Tuple[List[float], float, int, list]:
    times: List[float] = []
    reports = []
    failed = 0
    started = time.perf_counter()
    for batch in batches:
        began = time.perf_counter()
        try:
            reports.append(engine.ingest(batch))
        except Exception as error:  # noqa: BLE001 - a failed operation, counted
            failed += 1
            print(f"perfbench: ingest failed: {error!r}", file=sys.stderr)
        times.append(time.perf_counter() - began)
    if flush is not None:
        began = time.perf_counter()
        flush()
        times[-1] += time.perf_counter() - began
    return times, time.perf_counter() - started, failed, reports


def _stream_metrics(stream_len: int, passes: List[_Pass]) -> Dict[str, float]:
    batch_s = [value for one in passes for value in one.batch_s]
    return {
        "ops_per_s": stream_len * len(passes) / sum(one.elapsed_s for one in passes),
        "op_p50_ms": percentile(batch_s, 0.5) * 1000.0,
    }


def _count_passes(outcome: Outcome, passes: List[_Pass]) -> None:
    for one in passes:
        outcome.attempted += len(one.batch_s)
        # A pass whose products differ from the reference fails every batch.
        outcome.failed += len(one.batch_s) if not one.matched else one.failed


def _stream_outcome(stream_len: int, passes: List[_Pass]) -> Outcome:
    outcome = Outcome(metrics=_stream_metrics(stream_len, passes))
    _count_passes(outcome, passes)
    batch_s = [value for one in passes for value in one.batch_s]
    outcome.details = {
        "passes": len(passes),
        "batches": timing_summary(batch_s, (0.9, 0.99)),
        "mismatched_passes": sum(1 for one in passes if not one.matched),
    }
    return outcome


def ingest(ctx: Context, data: inp.Inputs, learned: inp.Learned) -> Outcome:
    """Closed-loop raw stream through one serial engine in this process."""
    parts = inp.engine_parts(data, learned)
    batches = inp.batches_with_resends(data.stream, INGEST_BATCH, ctx.seed)
    reference = inp.reference_fingerprint(data, learned, data.stream)
    path = os.path.join(ctx.work_dir, "ingest.sqlite3")

    def run_pass(batch_list) -> _Pass:
        _remove_store(path)
        clear_text_caches()
        engine = SynthesisEngine(**parts, store="sqlite", store_path=path)
        try:
            times, elapsed, failed, reports = _ingest_batches(engine, batch_list)
            # Each pass starts with cleared caches, so these are its own.
            memo = text_cache_info().values()
            matched = inp.fingerprint(engine.products()) == reference
        finally:
            engine.close()
        stats = {
            "file_bytes": _store_bytes(path),
            "memo_hits": sum(cache["hits"] for cache in memo),
            "memo_misses": sum(cache["misses"] for cache in memo),
        }
        return _Pass(times, elapsed, matched, failed, reports, stats)

    passes = _stream_passes(ctx, run_pass, batches)
    outcome = _stream_outcome(len(data.stream), passes)
    outcome.metrics["peak_rss_mb"] = peak_rss_mb(os.getpid())
    if not ctx.trace:
        return outcome

    tracer = Tracer()
    layers.install_ingest(tracer)
    registry = get_registry()
    before = registry.snapshot()
    try:
        traced = _stream_passes(ctx, run_pass, batches)
    finally:
        tracer.uninstall()
    after = registry.snapshot()
    _count_passes(outcome, traced)
    totals = aggregate(tracer.spans)
    values = outcome.layers
    layers.from_totals(totals, values)
    hits = sum(one.stats["memo_hits"] for one in traced)
    misses = sum(one.stats["memo_misses"] for one in traced)
    reports = [report for one in traced for report in one.reports]
    offers = sum(report.offers_in_batch for report in reports)
    values.update(
        {
            "text.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "engine.duplicate_share": sum(r.offers_duplicate for r in reports) / offers,
            "engine.children_coverage_share": children_coverage(tracer.spans, "engine.ingest"),
            "store.journal_write_s": layers.span_sum_delta(before, after, "store.journal_write"),
            "store.file_bytes": traced[-1].stats["file_bytes"],
            "xcheck.ingest.classify.span_s": _busy(totals, "classify"),
            "xcheck.ingest.classify.registry_s": layers.span_sum_delta(
                before, after, "ingest.classify"
            ),
            "xcheck.ingest.fuse.span_s": _busy(totals, "fuse"),
            "xcheck.ingest.fuse.registry_s": layers.span_sum_delta(before, after, "ingest.fuse"),
            "xcheck.ingest.commit_barrier.span_s": _busy(totals, "store.commit"),
            "xcheck.ingest.commit_barrier.registry_s": layers.span_sum_delta(
                before, after, "ingest.commit_barrier"
            ),
        }
    )
    values.update(_overhead(outcome.metrics, _stream_metrics(len(data.stream), traced)))
    values["tail.op_p90_ms"] = outcome.details["batches"]["p90_ms"]
    # The cluster is not a workload of its own (too noisy on few cores to
    # bound); one pass through it gives its per-layer figures here.
    cluster_pass, _, _ = _cluster_runner(
        ctx, parts, reference, os.path.join(ctx.work_dir, "cluster.sqlite3")
    )
    cluster_passes = [cluster_pass(batches)]
    _count_passes(outcome, cluster_passes)
    values.update(_cluster_layers(cluster_passes))
    _write_spans(ctx, tracer, "ingest")
    outcome.details["trace"] = {"totals": totals_to_dict(totals), "missing": tracer.missing}
    return outcome


def _cluster_runner(ctx: Context, parts: Dict[str, object], reference, path: str):
    """A pass over the stream through a fresh multi-process cluster.

    Returns the pass function and the lists it appends node start-up
    seconds and peak memory (coordinator plus nodes) to.
    """
    node_start_s: List[float] = []
    rss: List[float] = []

    def run_pass(batch_list) -> _Pass:
        _remove_store(path)
        began = time.perf_counter()
        engine = MultiProcessEngine(
            **parts,
            num_nodes=ctx.nproc,
            num_shards=CLUSTER_SHARDS,
            pipeline_depth=CLUSTER_PIPELINE_DEPTH,
            hint_routing=True,
            store_path=path,
        )
        # Node processes come up asynchronously; one stats round trip
        # waits until every node answers, so start-up stays out of batch 1.
        engine.node_metrics()
        node_start_s.append(time.perf_counter() - began)
        try:
            times, elapsed, failed, reports = _ingest_batches(engine, batch_list, engine.flush)
            matched = inp.fingerprint(engine.products()) == reference
            nodes = engine.node_stats()
            transport = engine.transport_stats()
            stats = {
                "cluster.coordinator_s": engine.coordinator_seconds,
                "cluster.barrier_wait_s": engine.barrier_wait_seconds,
                "cluster.node_busy_max_s": max(node.busy_seconds for node in nodes),
                "cluster.node_busy_total_s": sum(node.busy_seconds for node in nodes),
                "cluster.pipe_bytes": transport.frame_bytes_sent + transport.frame_bytes_received,
                "misrouted": transport.misrouted_offers,
                "hinted": transport.hinted_offers,
            }
            rss.append(
                peak_rss_mb(os.getpid())
                + sum(peak_rss_mb(node.pid) for node in multiprocessing.active_children())
            )
        finally:
            engine.close()
        return _Pass(times, elapsed, matched, failed, reports, stats)

    return run_pass, node_start_s, rss


def _cluster_layers(passes: List[_Pass]) -> Dict[str, float]:
    values = {
        name: sum(one.stats[name] for one in passes)
        for name in (
            "cluster.coordinator_s",
            "cluster.barrier_wait_s",
            "cluster.node_busy_max_s",
            "cluster.node_busy_total_s",
            "cluster.pipe_bytes",
        )
    }
    hinted = sum(one.stats["hinted"] for one in passes)
    misrouted = sum(one.stats["misrouted"] for one in passes)
    values["cluster.misrouted_share"] = misrouted / hinted if hinted else 0.0
    return values


def cluster(ctx: Context, data: inp.Inputs, learned: inp.Learned) -> Outcome:
    """The ingest stream through the multi-process cluster."""
    parts = inp.engine_parts(data, learned)
    batches = inp.batches_with_resends(data.stream, INGEST_BATCH, ctx.seed)
    reference = inp.reference_fingerprint(data, learned, data.stream)
    path = os.path.join(ctx.work_dir, "cluster.sqlite3")
    run_pass, node_start_s, rss = _cluster_runner(ctx, parts, reference, path)
    passes = _stream_passes(ctx, run_pass, batches)
    outcome = _stream_outcome(len(data.stream), passes)
    outcome.metrics["peak_rss_mb"] = max(rss)
    outcome.setup_s = node_start_s[0]
    outcome.details["node_start_s"] = node_start_s
    if not ctx.trace:
        return outcome

    tracer = Tracer()
    layers.install_cluster(tracer)
    try:
        traced = _stream_passes(ctx, run_pass, batches)
    finally:
        tracer.uninstall()
    _count_passes(outcome, traced)
    totals = aggregate(tracer.spans)
    layers.from_totals(totals, outcome.layers)
    outcome.layers.update(_cluster_layers(traced))
    outcome.layers.update(_overhead(outcome.metrics, _stream_metrics(len(data.stream), traced)))
    outcome.layers["tail.op_p90_ms"] = outcome.details["batches"]["p90_ms"]
    _write_spans(ctx, tracer, "cluster")
    outcome.details["trace"] = {"totals": totals_to_dict(totals), "missing": tracer.missing}
    return outcome


# -- query and mixed ---------------------------------------------------------------


def _build_store(path: str, parts: Dict[str, object], batches) -> float:
    """Ingest ``batches`` into a fresh SQLite store; returns seconds."""
    _remove_store(path)
    clear_text_caches()
    began = time.perf_counter()
    with SynthesisEngine(**parts, store="sqlite", store_path=path) as engine:
        for batch in batches:
            engine.ingest(batch)
    return time.perf_counter() - began


def _copy_store(source: str, target: str) -> None:
    _remove_store(target)
    shutil.copyfile(source, target)


def _start_server(ctx: Context, store_path: str, traced: bool, tag: str) -> loadgen.Server:
    """``runtime-serve`` on ``store_path``: the plain CLI, or the traced launcher."""
    serve_args = ["runtime-serve", "--store-path", store_path, "--port", "0"]
    log = os.path.join(ctx.work_dir, f"server-{tag}.log")
    spans = None
    if traced:
        spans = os.path.join(ctx.work_dir, f"spans-{tag}.jsonl")
        argv = [os.path.join(ctx.bench_dir, "traced_serve.py"), spans, *serve_args]
    else:
        argv = ["-m", "repro.experiments.cli", *serve_args]
    return loadgen.Server(argv, ctx.src_dir, log, spans_path=spans)


class _Reference:
    """An in-benchmark index answering what the server should answer."""

    def __init__(self, store_path: str) -> None:
        with CatalogReader(store_path) as reader:
            self.snapshot, products = reader.read_products()
        self.products = products
        self.index = CatalogIndex(products)

    def advance(self, event) -> None:
        """Apply one writer commit (the snapshot moves to its count)."""
        self.index.apply_commit(event)
        self.snapshot = event.commit_count

    def expected(self, query: inp.Query) -> Dict[str, object]:
        """The JSON body the server must return for ``query``."""
        kind, key, category = query.spec
        if kind == "product":
            product = self.index.get_product(key)
            body = product_to_dict(product)
            body["snapshot_commit_count"] = self.snapshot
        else:
            results = self.index.search(key, top_k=10, category=category)
            body = {
                "query": key,
                "top_k": 10,
                "snapshot_commit_count": self.snapshot,
                "num_results": len(results),
                "results": [result.to_dict() for result in results],
            }
        return json.loads(json.dumps(body))


def _check(reference: _Reference, response: loadgen.Response) -> bool:
    if response.status != 200:
        return False
    try:
        body = json.loads(response.body)
    except ValueError:
        return False
    return body == reference.expected(response.query)


def _snapshot_of(response: loadgen.Response) -> int:
    try:
        return int(json.loads(response.body)["snapshot_commit_count"])
    except (ValueError, KeyError, TypeError):
        return -1


@dataclass
class _Window:
    """One serving window: responses, server figures, and its spans."""

    open_responses: List[loadgen.Response]
    closed_responses: List[loadgen.Response] = field(default_factory=list)
    closed_elapsed_s: float = 0.0
    server_rss_mb: float = 0.0
    server_cpu_s: float = 0.0
    stats: Dict[str, object] = field(default_factory=dict)
    registry: Dict[str, object] = field(default_factory=dict)
    spans_path: Optional[str] = None
    writer: Optional[Dict[str, object]] = None

    def responses(self) -> List[loadgen.Response]:
        """Open-loop then closed-loop responses."""
        return self.open_responses + self.closed_responses


def _finish_server(server: loadgen.Server, window: _Window, cpu_before: float) -> None:
    """Read the server's figures at the end of a window (it is stopped after)."""
    status, body = server.get("/stats")
    window.stats = json.loads(body) if status == 200 else {}
    status, body = server.get("/metrics.json")
    window.registry = json.loads(body) if status == 200 else {}
    window.server_rss_mb = peak_rss_mb(server.pid)
    window.server_cpu_s = cpu_seconds(server.pid) - cpu_before


def _serving_metrics(window: _Window, ops_per_s: float) -> Dict[str, float]:
    latencies = [response.latency_s for response in window.open_responses]
    return {
        "ops_per_s": ops_per_s,
        "op_p50_ms": percentile(latencies, 0.5) * 1000.0,
        "peak_rss_mb": window.server_rss_mb,
    }


def _serving_layers(ctx: Context, window: _Window, tag: str) -> Dict[str, object]:
    """Per-layer values of a traced serving window."""
    header, spans = read_spans(window.spans_path)
    totals = aggregate(spans)
    values: Dict[str, float] = {}
    layers.from_totals(totals, values)
    resync = window.stats.get("resync", {})
    resyncs = resync.get("resyncs", 0)
    values.update(
        {
            "server.cpu_s": window.server_cpu_s,
            "service.resyncs": resyncs,
            "service.delta_resync_share": resync.get("delta_resyncs", 0) / resyncs
            if resyncs
            else 0.0,
            "xcheck.serving.resync.span_s": _busy(totals, "service.resync"),
            "xcheck.serving.resync.registry_s": layers.span_sum(window.registry, "serving.resync"),
        }
    )
    os.makedirs(ctx.out_dir, exist_ok=True)
    shutil.copyfile(
        window.spans_path, os.path.join(ctx.out_dir, f"spans-{tag}-seed{ctx.seed}.jsonl")
    )
    return {"values": values, "totals": totals_to_dict(totals), "missing": header["missing"]}


def _loadgen_layers(window: _Window, failed: int) -> Dict[str, float]:
    responses = window.open_responses
    late = [max(0.0, response.sent - response.due) for response in responses]
    seen = set()
    repeats = 0
    for response in window.responses():
        repeats += response.query.path in seen
        seen.add(response.query.path)
    sent = len(window.responses())
    return {
        "loadgen.sent": sent,
        "loadgen.failed": failed,
        "loadgen.late_p99_ms": percentile(late, 0.99) * 1000.0,
        "loadgen.repeat_share": repeats / sent,
    }


def query(ctx: Context, data: inp.Inputs, learned: inp.Learned) -> Outcome:
    """Read-only serving: open loop at a fixed rate, then a closed loop."""
    parts = inp.engine_parts(data, learned)
    store = os.path.join(ctx.work_dir, "query.sqlite3")
    build_s = _build_store(
        store, parts, inp.batches_with_resends(data.stream, INGEST_BATCH, ctx.seed)
    )
    reference = _Reference(store)
    mix = inp.query_mix(reference.products, ctx.seed, 40_000, zipf=True)
    open_s = ctx.seconds * QUERY_OPEN_SHARE
    open_count = int(open_s * QUERY_RATE)

    def window_on(traced: bool) -> Tuple[_Window, float]:
        began = time.perf_counter()
        with _start_server(ctx, store, traced, tag="query") as server:
            start_s = time.perf_counter() - began
            window = _Window([])
            cpu_before = cpu_seconds(server.pid)
            start = time.monotonic() + 0.05
            window.open_responses = loadgen.open_loop(
                server, mix, QUERY_RATE, start, open_s, ctx.nproc
            )
            window.closed_responses, window.closed_elapsed_s = loadgen.closed_loop(
                server, mix[open_count:], ctx.seconds - open_s, ctx.nproc
            )
            _finish_server(server, window, cpu_before)
        window.spans_path = server.spans_path
        return window, start_s

    untraced, start_s = window_on(traced=False)
    outcome = Outcome(setup_s=build_s + start_s)
    failed = _check_all(reference, untraced.responses())
    outcome.attempted, outcome.failed = len(untraced.responses()), failed
    outcome.metrics = _serving_metrics(untraced, _closed_rate(untraced))
    outcome.details = _serving_details(untraced)
    if not ctx.trace:
        return outcome

    traced, _ = window_on(traced=True)
    outcome.attempted += len(traced.responses())
    outcome.failed += _check_all(reference, traced.responses())
    trace = _serving_layers(ctx, traced, "query")
    outcome.layers = trace.pop("values")
    outcome.layers.update(_loadgen_layers(untraced, failed))
    outcome.layers["tail.op_p90_ms"] = outcome.details["open_loop"]["p90_ms"]
    outcome.layers["tail.op_p99_ms"] = outcome.details["open_loop"]["p99_ms"]
    outcome.layers.update(
        _overhead(outcome.metrics, _serving_metrics(traced, _closed_rate(traced)))
    )
    outcome.details["trace"] = trace
    return outcome


def _closed_rate(window: _Window) -> float:
    """OK closed-loop responses per second."""
    ok = sum(1 for response in window.closed_responses if response.status == 200)
    return ok / window.closed_elapsed_s


def _check_all(reference: _Reference, responses: Sequence[loadgen.Response]) -> int:
    """Failures among responses that must all match one snapshot."""
    return sum(
        1
        for response in responses
        if _snapshot_of(response) != reference.snapshot or not _check(reference, response)
    )


def _serving_details(window: _Window) -> Dict[str, object]:
    latencies = [response.latency_s for response in window.open_responses]
    late = [max(0.0, response.sent - response.due) for response in window.open_responses]
    return {
        "open_loop": timing_summary(latencies, (0.9, 0.99)),
        "open_loop_late_p99_ms": percentile(late, 0.99) * 1000.0,
        "closed_loop": {
            "responses": len(window.closed_responses),
            "elapsed_s": window.closed_elapsed_s,
        },
        "resync": window.stats.get("resync", {}),
    }


def mixed(ctx: Context, data: inp.Inputs, learned: inp.Learned) -> Outcome:
    """Queries at a fixed rate beside a writer process committing on a schedule."""
    parts = inp.engine_parts(data, learned)
    half = len(data.stream) // 2
    base = os.path.join(ctx.work_dir, "mixed-base.sqlite3")
    served = os.path.join(ctx.work_dir, "mixed.sqlite3")
    writer_batches = inp.batches_with_resends(data.stream, WRITER_BATCH, ctx.seed, start=half)
    # The writer finishes within the window, so every commit can be seen.
    writer_batches = writer_batches[: max(1, int(WRITER_RATE * ctx.seconds * 0.8))]
    job_path = os.path.join(ctx.work_dir, "writer-job.pickle")
    with open(job_path, "wb") as handle:
        pickle.dump(
            {"parts": parts, "store_path": served, "batches": writer_batches, "rate": WRITER_RATE},
            handle,
        )
    build_s = _build_store(
        base, parts, inp.batches_with_resends(data.stream[:half], INGEST_BATCH, ctx.seed)
    )

    def window_on(traced: bool) -> Tuple[_Window, _Reference, float]:
        _copy_store(base, served)
        reference = _Reference(served)
        mix = inp.query_mix(reference.products, ctx.seed, 40_000, zipf=False)
        tag = "traced" if traced else "untraced"
        began = time.perf_counter()
        with _start_server(ctx, served, traced, tag="mixed") as server, _Writer(
            ctx, job_path, tag
        ) as writer:
            start_s = time.perf_counter() - began
            window = _Window([])
            cpu_before = cpu_seconds(server.pid)
            start = time.monotonic() + 0.05
            writer.go(start)
            window.open_responses = loadgen.open_loop(
                server, mix, QUERY_RATE, start, ctx.seconds, ctx.nproc
            )
            window.writer = writer.result()
            _finish_server(server, window, cpu_before)
        window.spans_path = server.spans_path
        return window, reference, start_s

    untraced, reference, start_s = window_on(traced=False)
    outcome = Outcome(setup_s=build_s + start_s)
    failed = _check_mixed(reference, untraced)
    outcome.attempted = len(untraced.open_responses) + len(writer_batches)
    outcome.failed = failed + untraced.writer["failed"]
    outcome.metrics = _serving_metrics(untraced, _answered_rate(untraced))
    freshness = _freshness(untraced)
    outcome.details = _serving_details(untraced)
    outcome.details["freshness"] = timing_summary(freshness, (0.9,))
    outcome.details["writer_commits"] = len(untraced.writer["schedule"])
    if not ctx.trace:
        return outcome

    traced, traced_reference, _ = window_on(traced=True)
    outcome.attempted += len(traced.open_responses) + len(writer_batches)
    outcome.failed += _check_mixed(traced_reference, traced) + traced.writer["failed"]
    trace = _serving_layers(ctx, traced, "mixed")
    outcome.layers = trace.pop("values")
    outcome.layers.update(_loadgen_layers(untraced, failed))
    late = [sent - due for due, sent, _, _ in untraced.writer["schedule"]]
    outcome.layers.update(
        {
            "tail.op_p90_ms": outcome.details["open_loop"]["p90_ms"],
            "tail.op_p99_ms": outcome.details["open_loop"]["p99_ms"],
            "freshness_p50_ms": percentile(freshness, 0.5) * 1000.0,
            "freshness_p90_ms": percentile(freshness, 0.9) * 1000.0,
            "writer.late_p99_ms": percentile(late, 0.99) * 1000.0,
        }
    )
    outcome.layers.update(
        _overhead(outcome.metrics, _serving_metrics(traced, _answered_rate(traced)))
    )
    outcome.details["trace"] = trace
    return outcome


def _answered_rate(window: _Window) -> float:
    """OK open-loop responses per second, first due time to last receipt."""
    responses = window.open_responses
    ok = sum(1 for response in responses if response.status == 200)
    elapsed = max(r.received for r in responses) - min(r.due for r in responses)
    return ok / elapsed


def _check_mixed(reference: _Reference, window: _Window) -> int:
    """Check each response against the snapshot it reported.

    The reference index advances through the writer's commit events in
    order; a response that reports snapshot *s* must equal the reference
    after every commit up to *s* — the snapshot-isolation proof.  Commits
    without an event (the writer's final ``close()``) change no product.
    """
    events = sorted(window.writer["events"], key=lambda event: event.commit_count)
    head = window.writer["head"]
    failed = 0
    cursor = 0
    for response in sorted(window.open_responses, key=_snapshot_of):
        snapshot = _snapshot_of(response)
        while cursor < len(events) and events[cursor].commit_count <= snapshot:
            reference.advance(events[cursor])
            cursor += 1
        if reference.snapshot <= snapshot <= head:
            reference.snapshot = snapshot
        if snapshot != reference.snapshot or not _check(reference, response):
            failed += 1
    return failed


def _freshness(window: _Window) -> List[float]:
    """Batch due time to the first response that saw its commit, seconds."""
    schedule = sorted(window.writer["schedule"], key=lambda row: row[3])
    responses = sorted(
        (r for r in window.open_responses if r.status == 200), key=lambda r: r.received
    )
    samples: List[float] = []
    cursor = 0
    for response in responses:
        snapshot = _snapshot_of(response)
        while cursor < len(schedule) and schedule[cursor][3] <= snapshot:
            samples.append(response.received - schedule[cursor][0])
            cursor += 1
    return samples


class _Writer:
    """The writer process of the mixed workload."""

    def __init__(self, ctx: Context, job_path: str, tag: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = ctx.src_dir + os.pathsep + env.get("PYTHONPATH", "")
        self._out = os.path.join(ctx.work_dir, f"writer-{tag}.pickle")
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(ctx.bench_dir, "writer.py"), job_path, self._out],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        line = self.process.stdout.readline()
        if line.strip() != "ready":
            self.stop()
            raise RuntimeError(f"writer did not start: {line!r}")

    def go(self, start: float) -> None:
        """Start the schedule at monotonic time ``start``."""
        self.process.stdin.write(f"go {start!r}\n")
        self.process.stdin.flush()

    def result(self) -> Dict[str, object]:
        """Wait for the writer to finish and load what it recorded."""
        code = self.process.wait(timeout=120)
        if code != 0:
            raise RuntimeError(f"writer exited with {code}")
        with open(self._out, "rb") as handle:
            return pickle.load(handle)

    def __enter__(self) -> "_Writer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def stop(self) -> None:
        """Make sure the writer process has ended."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()


def _write_spans(ctx: Context, tracer: Tracer, tag: str) -> None:
    os.makedirs(ctx.out_dir, exist_ok=True)
    tracer.write(
        os.path.join(ctx.out_dir, f"spans-{tag}-seed{ctx.seed}.jsonl"),
        header={"missing": tracer.missing},
    )


WORKLOADS = {"ingest": ingest, "cluster": cluster, "query": query, "mixed": mixed}
