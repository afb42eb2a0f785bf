"""High-throughput batched runtime for the offer-synthesis pipeline.

The paper's Run-Time Offer Processing Pipeline (Figure 4) absorbs
continuous merchant feeds; this package provides the runtime that makes
that practical at scale.  There is one parallelism story: node
processes (``procnode``), each hosting one serial engine.

``engine``
    :class:`~repro.runtime.engine.SynthesisEngine` — a sharded,
    micro-batched, incrementally clustering wrapper around the pipeline
    stages.  Feed it a stream with repeated ``ingest(offers)`` calls;
    touched clusters are re-fused in one in-process loop.
``cluster``
    Horizontal scaling: a :class:`~repro.runtime.cluster.ShardCoordinator`
    partitions category shards across N engine nodes over one shared
    store, with per-shard epoch fencing so a lagging or crashed node can
    never commit stale cluster state;
    :class:`~repro.runtime.cluster.MultiNodeEngine` is the single-engine-
    compatible facade (join/leave/fence, crash recovery via rollback),
    and :class:`~repro.runtime.cluster.LoadSkewWatcher` closes the loop
    with automatic load-aware rebalancing.
``procnode``
    True multi-*process* nodes: :class:`~repro.runtime.procnode.MultiProcessEngine`
    runs each node in its own OS process with a private store connection
    and mirror over the shared WAL file, coordinated through a small
    message protocol (ingest, commit-barrier vote, fence/handoff,
    shutdown) — same byte-identity contract, real multi-core scaling.
``state`` / ``store``
    The pluggable catalog state layer: a
    :class:`~repro.runtime.state.CatalogStore` protocol with an
    in-memory backend (zero-copy default) and a durable WAL-mode SQLite
    backend (per-ingest commits, snapshot/restore across restarts).
``sharding``
    Stable (cross-process deterministic) category sharding.
"""

from repro.runtime.cluster import (
    FencedStoreView,
    LoadSkewWatcher,
    MultiNodeEngine,
    NodeStats,
    ShardCoordinator,
    ShardLease,
    TransportStats,
)
from repro.runtime.procnode import MultiProcessEngine, NodeDeadError, ProcessNode
from repro.runtime.engine import CommitEvent, EngineSnapshot, IngestReport, SynthesisEngine
from repro.runtime.sharding import partition_by_shard, shard_for_category
from repro.runtime.state import CatalogStore, ClusterState, StaleEpochError, resolve_store
from repro.runtime.store import MemoryCatalogStore, SqliteCatalogStore

__all__ = [
    "SynthesisEngine",
    "CommitEvent",
    "IngestReport",
    "EngineSnapshot",
    "MultiNodeEngine",
    "MultiProcessEngine",
    "ProcessNode",
    "NodeDeadError",
    "ShardCoordinator",
    "ShardLease",
    "FencedStoreView",
    "LoadSkewWatcher",
    "NodeStats",
    "StaleEpochError",
    "partition_by_shard",
    "shard_for_category",
    "CatalogStore",
    "ClusterState",
    "resolve_store",
    "MemoryCatalogStore",
    "SqliteCatalogStore",
    "TransportStats",
]
