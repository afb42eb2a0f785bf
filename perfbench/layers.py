"""Which public calls the traced run wraps, and the per-layer metrics.

Each ``install_*`` function wraps the calls into one part of the system
(offline learning, the serial ingest path, the cluster coordinator, the
serving process).  :data:`PER_LAYER` is the full list of per-layer
metric names; a workload that does not exercise a layer reports 0 for
it, which is the "no change" prediction for that layer.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from tracer import LayerTotals, Tracer

PER_LAYER: List[str] = [
    # offline learning (setup_s on every workload)
    "matching.value_index_s",
    "matching.training_set_s",
    "matching.features_s",
    "matching.feature_calls_per_candidate",
    "learning.logistic_fit_s",
    "extraction.history_s",
    "classify.train_s",
    # serial ingest path (ingest workload; mixed's writer is not traced)
    "extraction.offers",
    "extraction.busy_s",
    "classify.offers",
    "classify.busy_s",
    "reconcile.busy_s",
    "route.busy_s",
    "route.clusters_touched",
    "fuse.clusters",
    "fuse.offers_per_cluster",
    "fuse.busy_s",
    "text.memo_hit_ratio",
    "engine.batches",
    "engine.duplicate_share",
    "engine.self_s",
    "engine.children_coverage_share",
    "store.commits",
    "store.commit_s",
    "store.journal_write_s",
    "store.file_bytes",
    # cluster coordinator (cluster workload)
    "cluster.coordinator_s",
    "cluster.barrier_wait_s",
    "cluster.node_busy_max_s",
    "cluster.node_busy_total_s",
    "cluster.pipe_bytes",
    "cluster.misrouted_share",
    # serving process (query and mixed workloads)
    "http.requests",
    "http.handler_s",
    "http.self_s",
    "server.cpu_s",
    "service.search_s",
    "index.search_calls",
    "index.search_s",
    "index.results_per_query",
    "reader.head_reads",
    "reader.head_read_s",
    "reader.resyncs_per_head_read",
    "service.resyncs",
    "service.delta_resync_share",
    "service.resync_s",
    "reader.read_delta_s",
    "index.upserts",
    "freshness_p50_ms",
    "freshness_p90_ms",
    # end-to-end tails, unbounded: too noisy on few shared cores to gate
    "tail.op_p90_ms",
    "tail.op_p99_ms",
    # load generator and writer: validity checks, not optimisation targets
    "loadgen.sent",
    "loadgen.failed",
    "loadgen.late_p99_ms",
    "loadgen.repeat_share",
    "writer.late_p99_ms",
    # the instrument itself
    "trace.overhead_ops_per_s_share",
    "trace.overhead_op_p50_share",
    "xcheck.ingest.classify.span_s",
    "xcheck.ingest.classify.registry_s",
    "xcheck.ingest.fuse.span_s",
    "xcheck.ingest.fuse.registry_s",
    "xcheck.ingest.commit_barrier.span_s",
    "xcheck.ingest.commit_barrier.registry_s",
    "xcheck.serving.resync.span_s",
    "xcheck.serving.resync.registry_s",
]

_UNITS = {"_s": "s", "_ms": "ms", "_share": "share", "_ratio": "ratio", "_bytes": "bytes"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in _UNITS.items():
        if name.endswith(suffix):
            return unit
    if name.endswith("_per_candidate") or name.endswith("_per_cluster"):
        return "ratio"
    if name.endswith("_per_query") or name.endswith("_per_head_read"):
        return "ratio"
    return "count"


def _count(args: tuple, result: object) -> int:
    return len(args[1])


def install_offline(tracer: Tracer) -> None:
    """Offline learning: value index, candidates, training set, features, fit."""
    from repro.learning.logistic import LogisticRegressionClassifier
    from repro.matching import learner
    from repro.matching.features import DistributionalFeatureExtractor
    from repro.matching.grouping import MatchedValueIndex

    tracer.wrap(learner.OfflineLearner, "learn", "offline.learn")
    tracer.wrap(MatchedValueIndex, "__init__", "matching.value_index")
    tracer.wrap(
        learner, "generate_candidates", "matching.candidates", size=lambda a, r: len(r)
    )
    tracer.wrap(learner, "build_training_set", "matching.training_set")
    tracer.wrap(DistributionalFeatureExtractor, "extract", "matching.feature")
    tracer.wrap(LogisticRegressionClassifier, "fit_dataset", "learning.logistic_fit")


def install_ingest(tracer: Tracer) -> None:
    """The serial engine's stages, each around the call the engine makes.

    Route and fuse have no public per-stage method, so the engine's own
    stage methods are wrapped; a rename shows up in ``trace.missing``.
    """
    from repro.extraction.extractor import WebPageAttributeExtractor
    from repro.runtime import engine
    from repro.runtime.store.sqlite import SqliteCatalogStore
    from repro.synthesis.category_classifier import TitleCategoryClassifier
    from repro.synthesis.reconciliation import SchemaReconciler

    tracer.wrap(engine.SynthesisEngine, "ingest", "engine.ingest", size=_count)
    tracer.wrap(TitleCategoryClassifier, "assign_categories", "classify", size=_count)
    tracer.wrap(WebPageAttributeExtractor, "extract_offer", "extraction", size=lambda a, r: 1)
    tracer.wrap(SchemaReconciler, "reconcile_offers", "reconcile", size=_count)
    tracer.wrap(
        engine.SynthesisEngine, "_route_to_clusters", "route", size=lambda a, r: len(r)
    )
    tracer.wrap(engine.SynthesisEngine, "_refuse_clusters", "fuse")
    tracer.wrap(
        engine, "build_product_from_cluster", "fuse.cluster", size=lambda a, r: a[0].size()
    )
    tracer.wrap(SqliteCatalogStore, "commit", "store.commit")


def install_cluster(tracer: Tracer) -> None:
    """The cluster coordinator's public calls."""
    from repro.runtime.procnode import MultiProcessEngine

    tracer.wrap(MultiProcessEngine, "ingest", "engine.ingest", size=_count)
    tracer.wrap(MultiProcessEngine, "flush", "cluster.flush")


def install_serving(tracer: Tracer) -> None:
    """HTTP handling, service, index and reader calls of one server process."""
    from repro.serving.http import CatalogRequestHandler
    from repro.serving.index import CatalogIndex
    from repro.serving.reader import CatalogReader
    from repro.serving.service import CatalogSearchService

    tracer.wrap(CatalogRequestHandler, "do_GET", "http.request")
    tracer.wrap(CatalogSearchService, "search_pinned", "service.search")
    tracer.wrap(CatalogSearchService, "get_product_pinned", "service.product")
    tracer.wrap(CatalogSearchService, "resync", "service.resync")
    tracer.wrap(CatalogIndex, "search", "index.search", size=lambda a, r: len(r))
    tracer.wrap(CatalogIndex, "upsert", "index.upsert")
    tracer.wrap(CatalogReader, "commit_count", "reader.head_read")
    tracer.wrap(CatalogReader, "read_delta", "reader.read_delta")
    tracer.wrap(CatalogReader, "read_products", "reader.read_products")


def span_sum(snapshot: Mapping[str, object], span: str) -> float:
    """Sum of the registry's ``span_seconds`` histogram for one span name."""
    histograms = snapshot.get("histograms", {})
    entry = histograms.get(f'span_seconds{{span="{span}"}}')
    return float(entry["sum"]) if entry else 0.0


def span_sum_delta(
    before: Mapping[str, object], after: Mapping[str, object], span: str
) -> float:
    """Registry span seconds accumulated between two snapshots."""
    return span_sum(after, span) - span_sum(before, span)


def from_totals(totals: Mapping[str, LayerTotals], into: Dict[str, float]) -> None:
    """Fill the span-derived per-layer metrics present in ``totals``."""

    def get(name: str) -> LayerTotals:
        return totals.get(name, LayerTotals())

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    candidates = get("matching.candidates").size
    feature = get("matching.feature")
    offline = {
        "matching.value_index_s": get("matching.value_index").busy_s,
        "matching.training_set_s": get("matching.training_set").busy_s,
        "matching.features_s": feature.busy_s,
        "matching.feature_calls_per_candidate": ratio(feature.count, candidates),
        "learning.logistic_fit_s": get("learning.logistic_fit").busy_s,
    }
    ingest = {
        "extraction.offers": get("extraction").count,
        "extraction.busy_s": get("extraction").busy_s,
        "classify.offers": get("classify").size,
        "classify.busy_s": get("classify").busy_s,
        "reconcile.busy_s": get("reconcile").busy_s,
        "route.busy_s": get("route").busy_s,
        "route.clusters_touched": get("route").size,
        "fuse.clusters": get("fuse.cluster").count,
        "fuse.offers_per_cluster": ratio(get("fuse.cluster").size, get("fuse.cluster").count),
        "fuse.busy_s": get("fuse").busy_s,
        "engine.batches": get("engine.ingest").count,
        "engine.self_s": get("engine.ingest").self_s,
        "store.commits": get("store.commit").count,
        "store.commit_s": get("store.commit").busy_s,
    }
    head_reads = get("reader.head_read").count
    serving = {
        "http.requests": get("http.request").count,
        "http.handler_s": get("http.request").busy_s,
        "http.self_s": get("http.request").self_s,
        "service.search_s": get("service.search").busy_s,
        "index.search_calls": get("index.search").count,
        "index.search_s": get("index.search").busy_s,
        "index.results_per_query": ratio(get("index.search").size, get("index.search").count),
        "reader.head_reads": head_reads,
        "reader.head_read_s": get("reader.head_read").busy_s,
        "reader.resyncs_per_head_read": ratio(get("service.resync").count, head_reads),
        "service.resync_s": get("service.resync").busy_s,
        "reader.read_delta_s": get("reader.read_delta").busy_s,
        "index.upserts": get("index.upsert").count,
    }
    for group in (offline, ingest, serving):
        for name, value in group.items():
            if value:
                into[name] = float(value)


def complete(values: Mapping[str, float]) -> Dict[str, Dict]:
    """Every per-layer metric by name with its unit; absent layers read 0."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit_of(name)}
        for name in PER_LAYER
    }
