"""True multi-process cluster nodes over the shared WAL store.

:class:`~repro.runtime.cluster.MultiNodeEngine` scales by *threads*: its
nodes share one in-process store mirror under a lock, so fusion work
still funnels through one interpreter.  This module removes that wall.
:class:`MultiProcessEngine` runs every node in its **own OS process**
(:class:`ProcessNode` is the coordinator-side handle): each node opens
its own :class:`~repro.runtime.store.sqlite.SqliteCatalogStore`
connection and mirror over the shared WAL file, and nothing on the
ingest critical path crosses a shared lock — real multi-core scaling,
bounded only by the coordinator's routing work.

The coordinator and its nodes speak a small message protocol over pipes
(one duplex pipe per node, strictly request/reply per node, fanned out
across nodes):

``ingest``
    One routed sub-batch of offers.  The node runs its engine over it
    — all mutations land in the store's *journal*, nothing touches the
    file — and answers with a ``vote``: its ingest report and busy time
    on success, the error otherwise.
``classify`` / ``apply``
    The hint-routing rounds (``hint_routing=True``): the coordinator
    routes each batch on a cheap :class:`~repro.runtime.cluster.CategoryHinter`
    guess, and the *nodes* run the real classifier in parallel —
    removing per-offer classification from the coordinator's serial
    path.  ``classify`` ships a hinted, position-tagged sub-batch; the
    node classifies it, retains what it truly owns and answers with the
    misrouted remainder.  ``apply`` delivers every misroute to its true
    owner, which merges retained + incoming offers back into original
    batch order and ingests — so placement and order (and therefore
    every output byte) match coordinator-side classification exactly.
``commit`` / ``abort``
    The cluster commit barrier.  When every involved node voted ready,
    the coordinator durably records a *commit intent* (the batch's
    offers, pickled into the store) and tells the voters to flush their
    journals (each node's flush is one SQLite transaction; WAL + busy
    timeouts serialise the concurrent writers).  Any failed or dead
    node instead aborts the others: they roll their journals away and
    rebuild their mirrors from the last barrier, the coordinator fences
    the failure, and the whole batch replays on the survivors.  With
    ``pipeline_depth=2`` the coordinator does not wait for the flush
    acks: it returns to the caller and collects them at the *next*
    ingest, overlapping batch N's node-side flushes with batch N+1's
    coordinator-side dedup and routing.  A death discovered at the
    barrier is replayed from the intent (only the offers the file does
    not already hold), and a coordinator that dies mid-barrier leaves
    the intent behind — a reopened cluster replays it on startup, so
    the once-fatal "commit barrier failed partway" state is now
    self-healing.
``lease``
    Fence/handoff: the new epoch map of the node, plus the shards it
    just gained and must reload from the file
    (:meth:`~repro.runtime.store.sqlite.SqliteCatalogStore.refresh_shards`).
``crash``
    Test/drill hook: arm a fault that hard-kills the node process
    (``os._exit``) at the Nth store operation — a genuine mid-batch
    death, exercised by the crash suites and the ops example.
``shutdown``
    Graceful leave; the node closes its store.

**Safety.**  The shared-row strategy keeps cross-process writes
race-free: each offer is routed to exactly one node (seen-set rows are
disjoint), each shard has exactly one owner (cluster rows are disjoint),
and reconciliation totals live in per-node partition rows merged on
read.  Fencing is the store-side epoch check inherited from the thread
cluster — but a node process reads epochs *from the file*, so a zombie
that the coordinator fenced from another process still bounces on its
very next write.  Because a node journals everything until the barrier,
a killed node leaves **zero** bytes of the in-flight batch behind; crash
recovery is: abort survivors, fence, reassign, replay, byte-identical.

Mid-stream, the coordinator's :class:`~repro.runtime.cluster.LoadSkewWatcher`
(when armed) watches per-batch busy-time skew and triggers a load-aware
:meth:`MultiProcessEngine.rebalance` automatically.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import os
import pickle
import time
import weakref
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.extraction.extractor import WebPageAttributeExtractor
from repro.matching.correspondence import CorrespondenceSet
from repro.model.catalog import Catalog
from repro.model.offers import Offer
from repro.model.products import Product
from repro.obs import get_registry, merge_snapshot
from repro.runtime.cluster import (
    CategoryHinter,
    FencedStoreView,
    LoadSkewWatcher,
    NodeStats,
    ShardCoordinator,
    ShardLease,
    TransportStats,
    assign_routing_categories,
    partition_offers_by_hint,
    partition_offers_by_node,
)
from repro.runtime.engine import EngineSnapshot, IngestReport, SynthesisEngine
from repro.runtime.sharding import shard_for_category
from repro.runtime.store.sqlite import SqliteCatalogStore
from repro.synthesis.category_classifier import TitleCategoryClassifier
from repro.synthesis.clustering import KeyAttributeClusterer
from repro.synthesis.fusion import CentroidValueFusion
from repro.text.tfidf import IncrementalTfIdf

__all__ = [
    "NodeDeadError",
    "NodeVote",
    "ProcessNode",
    "MultiProcessEngine",
]


class NodeDeadError(RuntimeError):
    """A node process died (or stopped answering) mid-conversation."""

    def __init__(self, node_id: str, reason: str) -> None:
        """Record which node failed and how the failure was observed."""
        super().__init__(f"node {node_id!r} is dead: {reason}")
        self.node_id = node_id
        self.reason = reason


@dataclass
class NodeVote:
    """A node's answer to one ``ingest`` message (its barrier vote)."""

    #: Whether the sub-batch was absorbed into the node's journal.
    ready: bool
    #: ``repr`` of the node-side exception when ``ready`` is false.
    error: Optional[str] = None
    #: The node engine's report for the sub-batch (when ready).
    report: Optional[IngestReport] = None
    #: Seconds the node spent in ``engine.ingest`` for this sub-batch.
    busy_seconds: float = 0.0


def _node_main(
    channel: multiprocessing.connection.Connection,
    store_path: str,
    node_id: str,
    num_shards: int,
    epochs: Dict[int, int],
    engine_kwargs: Dict[str, object],
    inherited_channels: Sequence[multiprocessing.connection.Connection] = (),
) -> None:
    """Entry point of one node process: serve protocol messages forever.

    The node owns a private store connection + mirror over the shared
    WAL file, partitioned under its node id, and a private
    :class:`~repro.runtime.engine.SynthesisEngine` writing through a
    :class:`~repro.runtime.cluster.FencedStoreView` with deferred
    commits — the flush happens only on an explicit ``commit`` message.
    A vanished coordinator (``EOFError``) means exit *without* flushing:
    whatever the journal holds was never barrier-committed.

    ``inherited_channels`` are the coordinator-side pipe ends of the
    *other* nodes that a fork-started child inherits: they are closed
    immediately, because a sibling holding a duplicate write end would
    keep every node's pipe open after a coordinator hard crash — no
    node would ever see the EOF that tells it to exit.
    """
    for sibling_channel in inherited_channels:
        try:
            sibling_channel.close()
        except OSError:  # pragma: no cover - already closed
            pass
    store = SqliteCatalogStore(store_path, partition=node_id)
    store.bind(num_shards)
    lease = ShardLease(node_id=node_id, epochs=dict(epochs))
    view = FencedStoreView(store, lease, deferred_commit=True)
    engine = SynthesisEngine(num_shards=num_shards, store=view, **engine_kwargs)
    # Offers retained from a hint-routing ``classify`` round, position-
    # tagged; the following ``apply`` merges them with incoming
    # misroutes and ingests.  An ``abort`` discards them with the
    # journal.
    classify_buffer: List[Tuple[int, Offer]] = []

    def ingest_vote(sub_batch: Sequence[Offer]) -> NodeVote:
        """Ingest one routed sub-batch and build the vote reply."""
        started = time.perf_counter()
        try:
            report = engine.ingest(sub_batch)
        except Exception as exc:  # noqa: BLE001 - shipped to coordinator
            return NodeVote(
                ready=False,
                error=repr(exc),
                busy_seconds=time.perf_counter() - started,
            )
        return NodeVote(
            ready=True,
            report=report,
            busy_seconds=time.perf_counter() - started,
        )

    try:
        while True:
            kind, payload = channel.recv()
            if kind == "ingest":
                channel.send(("vote", ingest_vote(payload)))
            elif kind == "classify":
                started = time.perf_counter()
                try:
                    positioned = payload["offers"]
                    assignment = payload["assignment"]
                    fallback = payload["fallback"]
                    categorised = engine.classify_offers(
                        [offer for _, offer in positioned]
                    )
                    owned: List[Tuple[int, Offer]] = []
                    outgoing: Dict[str, List[Tuple[int, Offer]]] = {}
                    for (position, _), offer in zip(positioned, categorised):
                        if offer.category_id is None:
                            destination = fallback
                        else:
                            destination = assignment[
                                shard_for_category(offer.category_id, num_shards)
                            ]
                        if destination == node_id:
                            owned.append((position, offer))
                        else:
                            outgoing.setdefault(destination, []).append(
                                (position, offer)
                            )
                except Exception as exc:  # noqa: BLE001 - shipped to coordinator
                    classify_buffer = []
                    channel.send(("classify-error", repr(exc)))
                else:
                    classify_buffer = owned
                    channel.send(
                        (
                            "classified",
                            {
                                "outgoing": outgoing,
                                "busy_seconds": time.perf_counter() - started,
                            },
                        )
                    )
            elif kind == "apply":
                merged = classify_buffer + list(payload["incoming"])
                classify_buffer = []
                merged.sort(key=lambda item: item[0])
                channel.send(("vote", ingest_vote([offer for _, offer in merged])))
            elif kind == "commit":
                try:
                    view.validate_lease()
                    store.commit()
                except Exception as exc:  # noqa: BLE001 - shipped to coordinator
                    channel.send(("commit-error", repr(exc)))
                else:
                    channel.send(("committed", None))
            elif kind == "abort":
                store.rollback()
                classify_buffer = []
                channel.send(("aborted", None))
            elif kind == "lease":
                lease.epochs.clear()
                lease.epochs.update(payload["epochs"])
                store.refresh_shards(payload["refresh"])
                channel.send(("lease-ok", None))
            elif kind == "stats":
                # The node's whole registry snapshot (engine counters,
                # spans, its store series) rides the pipe back; the
                # coordinator folds the live nodes' fragments into one
                # fleet view with merge_snapshot (counters sum across
                # processes).
                channel.send(("stats", get_registry().snapshot()))
            elif kind == "crash":
                _arm_fault(
                    store,
                    payload["operation"],
                    payload["countdown"],
                    payload.get("hard", True),
                )
                channel.send(("crash-armed", None))
            elif kind == "shutdown":
                store.close()
                channel.send(("bye", None))
                return
            else:  # pragma: no cover - protocol misuse guard
                channel.send(("error", f"unknown message kind {kind!r}"))
    except (EOFError, OSError, KeyboardInterrupt):
        # The coordinator went away: exit without flushing anything.
        pass


def _arm_fault(
    store: SqliteCatalogStore, operation: str, countdown: int, hard: bool
) -> None:
    """Install a fault hook that fails this node at the Nth store op.

    ``hard=True`` hard-kills the process with ``os._exit`` — no journal
    flush, no reply, no cleanup — a genuine mid-batch death.
    ``hard=False`` raises instead (one-shot): the process survives, its
    engine fails mid-ingest, and the node votes not-ready — the
    alive-but-failed path whose partial journal the coordinator must
    abort.
    """
    remaining = {"count": countdown}

    def hook(name: str) -> None:
        """Fail (hard or soft) at the armed store operation."""
        if name != operation:
            return
        remaining["count"] -= 1
        if remaining["count"] == 0:
            if hard:
                os._exit(17)
            store.set_fault_hook(None)
            raise RuntimeError(f"injected node fault at {operation}")

    store.set_fault_hook(hook)


def _start_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing start method for node processes.

    ``fork`` when the platform offers it: node processes inherit the
    pipeline components (catalog, classifier, extractor) without
    pickling them.  Elsewhere ``spawn`` is used and those components
    must be picklable.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class ProcessNode:
    """Coordinator-side handle of one node process.

    Owns the process object and the coordinator's end of the pipe, plus
    the routing/timing accounting the facade reports.  All protocol I/O
    funnels through :meth:`send` / :meth:`recv`, which translate a dead
    or silent process into :class:`NodeDeadError`.  Each message
    travels as one explicitly pickled frame, and every frame and its
    payload bytes are counted into ``pipe_stats`` — the engine-level
    :class:`~repro.runtime.cluster.TransportStats` that makes the pipe
    protocol's cost measurable (and regressions visible).
    """

    def __init__(
        self,
        node_id: str,
        lease: ShardLease,
        store_path: str,
        num_shards: int,
        engine_kwargs: Dict[str, object],
        context: multiprocessing.context.BaseContext,
        timeout: float,
        sibling_channels: Sequence[multiprocessing.connection.Connection] = (),
        pipe_stats: Optional[TransportStats] = None,
    ) -> None:
        """Spawn the node process with its initial lease epochs.

        ``sibling_channels`` — the coordinator-side pipe ends of nodes
        that already exist — travel to the child only so it can close
        its inherited duplicates (see :func:`_node_main`).
        ``pipe_stats`` is the frame-accounting sink, usually shared by
        every node of one engine; a private one is made when omitted.
        """
        self.node_id = node_id
        self.lease = lease
        self.offers_routed = 0
        self.batches = 0
        self.busy_seconds = 0.0
        self.pipe_stats = pipe_stats if pipe_stats is not None else TransportStats()
        self._timeout = timeout
        parent_end, child_end = context.Pipe(duplex=True)
        self._channel = parent_end
        # The child closes every coordinator-side duplicate it inherits:
        # the siblings' parent ends AND its own (created before the
        # fork) — any one left open would mask the EOF that tells nodes
        # a crashed coordinator is gone.
        self._process = context.Process(
            target=_node_main,
            args=(
                child_end,
                store_path,
                node_id,
                num_shards,
                dict(lease.epochs),
                engine_kwargs,
                list(sibling_channels) + [parent_end],
            ),
            name=f"repro-{node_id}",
            daemon=True,
        )
        self._process.start()
        child_end.close()

    @property
    def channel(self) -> multiprocessing.connection.Connection:
        """The coordinator-side end of this node's pipe."""
        return self._channel

    def alive(self) -> bool:
        """Whether the node process is currently running."""
        return self._process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        """OS process id of the node (``None`` before start)."""
        return self._process.pid

    def send(self, kind: str, payload: object = None) -> None:
        """Ship one protocol message as one pickled frame.

        The whole message is serialized here (highest pickle protocol)
        and written with ``send_bytes`` — a single frame whose size is
        known and counted, rather than whatever the connection's
        implicit pickler produces.  Raises :class:`NodeDeadError` when
        the process is gone.
        """
        frame = pickle.dumps((kind, payload), protocol=pickle.HIGHEST_PROTOCOL)
        try:
            self._channel.send_bytes(frame)
        except (BrokenPipeError, OSError) as exc:
            raise NodeDeadError(self.node_id, f"send failed: {exc!r}") from exc
        self.pipe_stats.frames_sent += 1
        self.pipe_stats.frame_bytes_sent += len(frame)

    def recv(self) -> Tuple[str, object]:
        """Await one reply frame; raises :class:`NodeDeadError` on death/timeout."""
        try:
            if not self._channel.poll(self._timeout):
                raise NodeDeadError(
                    self.node_id, f"no reply within {self._timeout:.0f}s"
                )
            frame = self._channel.recv_bytes()
        except (EOFError, ConnectionResetError, BrokenPipeError, OSError) as exc:
            raise NodeDeadError(self.node_id, f"connection lost: {exc!r}") from exc
        self.pipe_stats.frames_received += 1
        self.pipe_stats.frame_bytes_received += len(frame)
        return pickle.loads(frame)

    def request(self, kind: str, payload: object = None) -> object:
        """Send one message and await its reply, checking the reply kind.

        Error replies (``commit-error`` and friends) surface as
        :class:`RuntimeError`; transport failures as
        :class:`NodeDeadError`.
        """
        self.send(kind, payload)
        reply_kind, reply = self.recv()
        if reply_kind.endswith("-error") or reply_kind == "error":
            raise RuntimeError(f"node {self.node_id!r} answered {reply_kind}: {reply}")
        return reply

    def kill(self) -> None:
        """SIGKILL the node process (crash simulation; no bookkeeping)."""
        self._process.kill()
        self._process.join(timeout=10)

    def destroy(self) -> None:
        """Tear the handle down: close the pipe, terminate, reap."""
        try:
            self._channel.close()
        except OSError:  # pragma: no cover - already gone
            pass
        if self._process.is_alive():
            self._process.terminate()
        self._process.join(timeout=10)


@dataclass
class _CommitWindow:
    """An in-flight pipelined commit round (batch N's barrier).

    Held by the coordinator between the fire-and-forget ``commit``
    fan-out and the ack collection at the next ingest (or any view /
    membership call).  ``offers`` keeps the batch's fresh offers so a
    node death discovered at the drain can be replayed precisely.
    """

    node_ids: List[str]
    offers: List[Offer]


class MultiProcessEngine:
    """N synthesis engines in N OS processes over one shared WAL store.

    The multi-*process* sibling of
    :class:`~repro.runtime.cluster.MultiNodeEngine`, with the same
    ``ingest`` / ``products`` / ``snapshot`` facade and the same
    byte-identity contract against a single engine.  Differences:

    * a durable shared store is **required** (``store_path``): the WAL
      file is the only state the processes share;
    * each node runs a private engine + store connection in its own
      process — no shared mirror, no cluster lock, true multi-core
      ingest;
    * the commit barrier is a vote/commit message round instead of one
      in-process flush, preceded by a durable *commit intent* in the
      shared file.  A node that dies before voting costs nothing (its
      journal dies with it); recovery aborts the survivors, fences the
      dead node and replays the batch.  A failure *during* the commit
      round (after some nodes flushed) is replayed from the intent when
      ``auto_recover`` holds — only the offers the file does not already
      hold are re-dispatched — and a coordinator crash at that point
      leaves the intent behind for the next cluster opened over the
      same store path to replay on startup.

    Parameters mirror :class:`~repro.runtime.cluster.MultiNodeEngine`
    where they overlap; the process-specific ones:

    node_timeout:
        Seconds to wait for a node's reply before declaring it dead.
    pipeline_depth:
        ``1`` (default) waits for every commit ack before ``ingest``
        returns — today's semantics.  ``2`` pipelines: ``ingest``
        returns once the nodes voted and the commit was sent, and the
        acks are collected at the start of the *next* ingest — so batch
        N's node-side SQLite flushes overlap batch N+1's coordinator-
        side dedup and routing.  Any view or membership call first
        drains the open window (:meth:`flush`), so reads always observe
        fully committed state and products stay byte-identical.
    hint_routing:
        Route each batch on a cheap :class:`~repro.runtime.cluster.CategoryHinter`
        guess and run the real per-offer classification on the nodes,
        in parallel, instead of on the coordinator (the dominant serial
        routing cost).  Misrouted offers are re-shipped to their true
        owner before ingest with their batch positions, so per-node
        order — and every output byte — matches coordinator routing.
    """

    def __init__(
        self,
        catalog: Catalog,
        correspondences: CorrespondenceSet,
        extractor: Optional[WebPageAttributeExtractor] = None,
        category_classifier: Optional[TitleCategoryClassifier] = None,
        clusterer: Optional[KeyAttributeClusterer] = None,
        fusion: Optional[CentroidValueFusion] = None,
        min_cluster_size: int = 1,
        num_nodes: int = 2,
        num_shards: int = 8,
        track_category_statistics: bool = True,
        store_path: Optional[str] = None,
        auto_recover: bool = True,
        auto_rebalance_skew: Optional[float] = None,
        auto_rebalance_patience: int = 2,
        node_timeout: float = 300.0,
        pipeline_depth: int = 1,
        hint_routing: bool = False,
    ) -> None:
        """Open the shared store, compute the layout, spawn the nodes.

        Replays a pending commit intent (a previous coordinator died
        mid-barrier over this store path) before returning, so the
        resumed catalog equals an uninterrupted run's.
        """
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if pipeline_depth not in (1, 2):
            raise ValueError(f"pipeline_depth must be 1 or 2, got {pipeline_depth}")
        if store_path is None:
            raise ValueError(
                "MultiProcessEngine requires store_path: the shared WAL "
                "file is the only state its node processes have in common"
            )
        self._classifier = category_classifier
        self._num_shards = num_shards
        self._engine_kwargs: Dict[str, object] = dict(
            catalog=catalog,
            correspondences=correspondences,
            extractor=extractor,
            category_classifier=category_classifier,
            clusterer=clusterer,
            fusion=fusion,
            min_cluster_size=min_cluster_size,
            track_category_statistics=track_category_statistics,
        )
        self._context = _start_context()
        self._timeout = node_timeout
        self._auto_recover = auto_recover
        self._skew_watcher: Optional[LoadSkewWatcher] = None
        if auto_rebalance_skew is not None:
            self._skew_watcher = LoadSkewWatcher(
                threshold=auto_rebalance_skew, patience=auto_rebalance_patience
            )
        # The coordinator's own connection: epochs (authoritative writer),
        # the initial restore, and the refresh-on-read view surface.
        self._store = SqliteCatalogStore(store_path)
        self._store_path = self._store.path
        self._store.bind(num_shards)
        self._coordinator = ShardCoordinator(self._store, num_shards)
        self._nodes: Dict[str, ProcessNode] = {}
        self._node_counter = itertools.count(1)
        self._retired_busy = 0.0
        # Coordinator-side dedup: offers absorbed since the last mirror
        # refresh.  Updated only after a barrier commits, so a recovered
        # or replayed batch is never half-seen; the mirror's own seen
        # set covers everything restored or refreshed from the file.
        self._seen = set()
        self._dirty = False
        self._closed = False
        self._pipeline_depth = pipeline_depth
        self._hint_routing = hint_routing
        self._hinter: Optional[CategoryHinter] = None
        # Frame accounting shared by every node handle, plus the batch
        # sequence for commit intents, the open pipelined commit window,
        # and the coordinator's serial-overhead split for the bench.
        self._pipe_stats = TransportStats()
        self._batch_counter = itertools.count(1)
        self._window: Optional[_CommitWindow] = None
        self._routing_seconds = 0.0
        self._barrier_seconds = 0.0
        # Observability: the coordinator bridges its own accounting
        # (pipe frames, hint routing) plus the *cached* node-process
        # fragments fetched by node_metrics() — a scrape must never talk
        # to the node processes, so the cache is only as fresh as the
        # last explicit fetch.
        registry = get_registry()
        self._obs = registry
        self._obs_cluster_batches = registry.counter(
            "cluster_batches_total",
            help="Micro-batches absorbed by cluster coordinators.",
        )
        self._node_metrics: Dict[str, object] = {}
        cluster_ref = weakref.ref(self)

        def _coordinator_provider() -> Dict[str, object]:
            cluster = cluster_ref()
            if cluster is None:
                return {}
            fragment = cluster._pipe_stats.metrics_fragment()
            merge_snapshot(fragment, cluster._node_metrics)
            return fragment

        self._obs_provider = registry.add_provider(_coordinator_provider)
        registry.gauge(
            "cluster_routing_seconds",
            help="Coordinator time spent deduplicating and routing batches.",
            callback=lambda: (lambda c: 0.0 if c is None else c._routing_seconds)(
                cluster_ref()
            ),
        )
        registry.gauge(
            "cluster_barrier_wait_seconds",
            help="Coordinator time spent waiting on commit barriers.",
            callback=lambda: (lambda c: 0.0 if c is None else c._barrier_seconds)(
                cluster_ref()
            ),
        )
        registry.gauge(
            "cluster_nodes",
            help="Live cluster members.",
            callback=lambda: (lambda c: 0 if c is None else len(c._nodes))(cluster_ref()),
        )
        # One layout pass for the whole initial membership, then spawn
        # each node with its final epochs.
        node_ids = [f"node-{next(self._node_counter)}" for _ in range(num_nodes)]
        for node_id in node_ids:
            self._coordinator.register_node(node_id, rebalance=False)
        self._coordinator.apply_layout()
        for node_id in node_ids:
            self._spawn(node_id)
        pending = self._store.pending_commit_intent()
        if pending is not None:
            # A previous coordinator died between vote and barrier; its
            # intent names the batch.  Replay is idempotent — only the
            # offers absent from the file are re-dispatched.
            self._replay_offers(pickle.loads(pending[1]))

    def _spawn(self, node_id: str) -> ProcessNode:
        """Start the node process for an already-registered lease."""
        node = ProcessNode(
            node_id=node_id,
            lease=self._coordinator.lease_for(node_id),
            store_path=self._store_path,
            num_shards=self._num_shards,
            engine_kwargs=self._engine_kwargs,
            context=self._context,
            timeout=self._timeout,
            sibling_channels=[peer.channel for peer in self._nodes.values()],
            pipe_stats=self._pipe_stats,
        )
        self._nodes[node_id] = node
        return node

    # -- membership ------------------------------------------------------------

    def node_ids(self) -> List[str]:
        """Ids of the live cluster members, ascending."""
        return sorted(self._nodes)

    @property
    def coordinator(self) -> ShardCoordinator:
        """The shard coordinator (assignment and fencing authority)."""
        return self._coordinator

    @property
    def store(self) -> SqliteCatalogStore:
        """The coordinator's connection to the shared WAL store."""
        return self._store

    @property
    def skew_watcher(self) -> Optional[LoadSkewWatcher]:
        """The automatic-rebalance trigger, or ``None`` when manual."""
        return self._skew_watcher

    def _push_leases(self, before: Dict[int, str], exclude: Optional[str] = None) -> List[str]:
        """Push post-layout-change leases (and refresh lists) to nodes.

        ``before`` is the shard assignment prior to the change; each
        node learns its new epoch map plus which shards it *gained* —
        those it must reload from the file, because their previous
        owner's commits never touched this node's mirror.  ``exclude``
        skips a node that is already current (a freshly spawned joiner
        restored the whole file after the layout change).  Returns the
        ids of nodes that could not be reached — the caller fences them
        (:meth:`_fence_unreachable`) instead of aborting half-way
        through a layout change.
        """
        after = self._coordinator.assignment()
        dead: List[str] = []
        for node_id, node in sorted(self._nodes.items()):
            if node_id == exclude:
                continue
            gained = [
                shard
                for shard, owner in after.items()
                if owner == node_id and before.get(shard) != node_id
            ]
            try:
                node.request(
                    "lease",
                    {"epochs": dict(node.lease.epochs), "refresh": sorted(gained)},
                )
            except NodeDeadError:
                dead.append(node_id)
        return dead

    def _fence_unreachable(self, pending: List[str]) -> None:
        """Fence every listed node, cascading onto newly found corpses.

        Each fence reassigns shards and pushes fresh leases; a lease
        push can itself discover another dead node, which joins the
        queue — so one call settles the membership no matter how many
        nodes died together.  Raises ``RuntimeError`` if fencing would
        remove the last member.
        """
        queue = list(pending)
        while queue:
            target = queue.pop(0)
            if target not in self._nodes:
                continue
            node = self._retire(target)
            before = self._coordinator.assignment()
            self._coordinator.retire_node(target, fence=True)
            node.destroy()
            queue.extend(self._push_leases(before))

    def add_node(self, node_id: Optional[str] = None) -> str:
        """Join a node process: rebalance, re-fence, spawn, resync.

        The fresh process restores the *entire* committed state from the
        WAL file at startup, so the shards it gains need no transfer;
        the surviving nodes just learn their shrunken leases.
        """
        self._ensure_open()
        self._drain_window()
        if node_id is None:
            node_id = f"node-{next(self._node_counter)}"
        before = self._coordinator.assignment()
        self._coordinator.register_node(node_id)
        self._spawn(node_id)
        # The newcomer restored from the file *after* the epochs were
        # bumped, so it is already current.  The survivors resync: the
        # modulo layout can move shards *between* survivors on a join
        # (shard i -> node i mod N reshuffles most owners), and a
        # survivor's mirror has never seen what another node committed
        # into a shard it just gained.
        self._fence_unreachable(self._push_leases(before, exclude=node_id))
        return node_id

    def _retire(self, node_id: str) -> ProcessNode:
        """Drop a member from the books (shared by leave/fence paths)."""
        if node_id not in self._nodes:
            raise ValueError(f"node {node_id!r} is not a cluster member")
        if len(self._nodes) == 1:
            raise RuntimeError(
                f"cannot retire {node_id!r}: it is the last node of the cluster"
            )
        node = self._nodes.pop(node_id)
        self._retired_busy += node.busy_seconds
        return node

    def remove_node(self, node_id: str) -> None:
        """Gracefully leave: shut the process down, reassign, resync.

        Between barriers the node's journal is empty and everything it
        produced is committed in the shared file, so the handoff is pure
        bookkeeping: fresh epochs for its shards and a ``lease`` message
        telling each new owner which shards to reload.  A node that does
        not acknowledge the shutdown is not trusted to be quiescent:
        removal then degrades to the fence path (stale lease, store-side
        write rejection), exactly as :meth:`fence_node`.
        """
        self._ensure_open()
        self._drain_window()
        node = self._retire(node_id)
        graceful = True
        try:
            node.request("shutdown")
        except (NodeDeadError, RuntimeError):
            graceful = False
        node.destroy()
        before = self._coordinator.assignment()
        self._coordinator.retire_node(node_id, fence=not graceful)
        self._fence_unreachable(self._push_leases(before))

    def fence_node(self, node_id: str) -> None:
        """Forcibly fence a node: epochs first, then kill the process.

        The epoch bumps are durable and immediate (coordinator store),
        so even a zombie that somehow survives the terminate cannot
        commit — its next write reads the advanced epoch from the file
        and raises :class:`~repro.runtime.state.StaleEpochError`.
        Cascades: another node found dead while the new leases are
        pushed is fenced in the same call.
        """
        if node_id not in self._nodes:
            raise ValueError(f"node {node_id!r} is not a cluster member")
        # Drain first: surviving nodes must not have a commit ack in
        # flight when the fence's lease pushes expect lease replies.  If
        # the drain's own recovery already fenced the target, the fence
        # below is a no-op.
        self._drain_window()
        self._fence_unreachable([node_id])

    def kill_node(self, node_id: str) -> None:
        """SIGKILL a node process *without* any coordinator bookkeeping.

        Crash simulation for tests and drills: the membership still
        lists the node, and the next :meth:`ingest` discovers the death
        and runs the real recovery path.
        """
        if node_id not in self._nodes:
            raise ValueError(f"node {node_id!r} is not a cluster member")
        self._nodes[node_id].kill()

    def inject_crash(
        self, node_id: str, operation: str, countdown: int = 1, hard: bool = True
    ) -> None:
        """Arm a mid-batch node failure (tests/drills).

        The node fails at the ``countdown``-th occurrence of the named
        store operation (``"append_offers"``, ``"mark_seen"``,
        ``"set_product"``, ``"commit"``) during a later ingest.
        ``hard=True`` (default) hard-exits the process (``os._exit``) —
        a genuine kill at a precise point in the write path;
        ``hard=False`` raises inside the node instead, so it survives
        and votes not-ready (the alive-but-failed recovery path).
        """
        if node_id not in self._nodes:
            raise ValueError(f"node {node_id!r} is not a cluster member")
        self._drain_window()
        self._nodes[node_id].request(
            "crash", {"operation": operation, "countdown": countdown, "hard": hard}
        )

    def rebalance(self, loads: Optional[Dict[int, float]] = None) -> Dict[int, str]:
        """Reassign shards by load between batches; returns the layout.

        ``loads=None`` reads observed load (offers held per shard) from
        the shared file — the coordinator refreshes its mirror first, so
        the measurement includes everything the nodes committed.  Moved
        shards are re-fenced and their new owners reload them from the
        file, exactly like a membership handoff.
        """
        self._ensure_open()
        self._drain_window()
        if loads is None:
            self._refresh_if_dirty()
            loads = {}
            for _, state in self._store.iter_clusters():
                loads[state.shard_index] = loads.get(state.shard_index, 0.0) + state.size()
        before = self._coordinator.assignment()
        layout = self._coordinator.rebalance_by_load(loads)
        self._fence_unreachable(self._push_leases(before))
        return layout

    # -- routing ---------------------------------------------------------------

    def _route_categories(self, offers: Sequence[Offer]) -> List[Offer]:
        """Assign categories for routing (one classification per offer)."""
        return assign_routing_categories(offers, self._classifier)

    def _partition(self, categorised: Sequence[Offer]) -> Dict[str, List[Offer]]:
        """Group offers by owning node, preserving stream order per node."""
        return partition_offers_by_node(
            categorised,
            self._num_shards,
            self._coordinator.node_for_shard,
            fallback_node_id=self.node_ids()[0],
        )

    # -- ingest ----------------------------------------------------------------

    def _ensure_open(self) -> None:
        """Refuse API calls after :meth:`close` or a closed store."""
        if self._closed or self._store.closed:
            raise RuntimeError(
                "cannot use this multi-process cluster: it is closed "
                "(reopen the store path with a new cluster to resume)"
            )

    def ingest(self, offers: Sequence[Offer]) -> IngestReport:
        """Absorb one micro-batch across the node processes.

        Same contract as the single engine's ``ingest``: idempotent per
        offer id, one commit barrier per batch.  A node that dies
        before voting (killed, crashed, engine error) triggers recovery
        when ``auto_recover`` holds: survivors abort (journals dropped,
        mirrors rebuilt from the last barrier), the dead node is fenced,
        and the batch replays on the new layout — products stay
        byte-identical to an uninterrupted run.  A failure *at* the
        barrier replays from the durable commit intent (only what the
        file does not hold).  Raises the node-side error when recovery
        is disabled or impossible.

        With ``pipeline_depth=2`` the previous batch's commit acks are
        collected here, *after* this batch's dedup and routing — the
        overlap that hides the coordinator's serial work behind the
        nodes' flushes.
        """
        self._ensure_open()
        report = IngestReport(offers_in_batch=len(offers))
        routing_started = time.perf_counter()
        fresh: List[Offer] = []
        batch_ids = set()
        for offer in offers:
            if (
                offer.offer_id in self._seen
                or offer.offer_id in batch_ids
                or self._store.is_seen(offer.offer_id)
            ):
                continue
            batch_ids.add(offer.offer_id)
            fresh.append(offer)
        report.offers_duplicate = report.offers_in_batch - len(fresh)
        self._routing_seconds += time.perf_counter() - routing_started
        if not fresh:
            return report

        categorised: Optional[List[Offer]] = None
        if not self._hint_routing:
            # Classify before draining the previous batch's commit
            # window: this is the pipelining overlap — the per-offer
            # classification sweep runs while the nodes flush.  (In
            # hint mode there is nothing heavy to overlap here; the
            # partition is a dict lookup per offer and classification
            # itself runs on the nodes.)
            routing_started = time.perf_counter()
            with self._obs.span("cluster.route"):
                categorised = self._route_categories(fresh)
            self._routing_seconds += time.perf_counter() - routing_started
        self._drain_window()
        votes = self._dispatch_with_retry(fresh, categorised)

        aggregate = IngestReport()
        for _, vote in sorted(votes.items()):
            aggregate.merge(vote.report)
        report.offers_new = aggregate.offers_new
        report.offers_duplicate += aggregate.offers_duplicate
        report.offers_clustered = aggregate.offers_clustered
        report.offers_without_key = aggregate.offers_without_key
        report.offers_uncategorised = aggregate.offers_uncategorised
        report.clusters_touched = aggregate.clusters_touched
        report.products_refreshed = aggregate.products_refreshed
        self._commit_phase(sorted(votes), fresh)
        self._obs_cluster_batches.inc()
        self._seen.update(offer.offer_id for offer in fresh)
        self._dirty = True
        if self._skew_watcher is not None:
            busy = {node_id: 0.0 for node_id in self._nodes}
            busy.update({node_id: vote.busy_seconds for node_id, vote in votes.items()})
            if self._skew_watcher.observe(busy):
                self.rebalance()
        return report

    def _dispatch_with_retry(
        self, fresh: Sequence[Offer], categorised: Optional[List[Offer]] = None
    ) -> Dict[str, NodeVote]:
        """Dispatch one batch, fencing and re-dispatching on node death.

        ``categorised`` carries a pre-computed classification (the
        pipelined overlap); it stays valid across retries because
        classification does not depend on the layout — only the
        partition is recomputed against the post-fence assignment.
        """
        attempts = 0
        max_attempts = len(self._nodes) + 1
        while True:
            try:
                if self._hint_routing:
                    return self._dispatch_hint(fresh)
                if categorised is None:
                    routing_started = time.perf_counter()
                    categorised = self._route_categories(fresh)
                    self._routing_seconds += time.perf_counter() - routing_started
                return self._dispatch_batch(self._partition(categorised))
            except _BatchFailure as failure:
                attempts += 1
                if (
                    not self._auto_recover
                    or len(self._nodes) <= 1
                    or attempts >= max_attempts
                ):
                    raise failure.cause
                self.fence_node(failure.node_id)

    def _abort_answered(
        self, answered: List[str], failures: Dict[str, BaseException]
    ) -> None:
        """Roll every answering journal (and classify buffer) back.

        Ready voters and failed-but-alive nodes alike: a node whose
        engine raised mid-ingest holds a *partial* journal; left in
        place it would flush half-processed offers at the next barrier
        (or survive a caller retry with auto_recover off).
        """
        for node_id in answered:
            try:
                self._nodes[node_id].request("abort")
            except NodeDeadError as exc:
                failures.setdefault(node_id, exc)

    def _dispatch_batch(self, routed: Dict[str, List[Offer]]) -> Dict[str, NodeVote]:
        """One dispatch wave: fan out sub-batches, collect votes.

        Returns the ready votes by node id on success.  On any node
        failure the survivors' journals are aborted and
        :class:`_BatchFailure` carries the first failed node (id order)
        for the recovery loop.  All sends go out before any receive, so
        the node processes genuinely overlap.
        """
        ordered = [(node_id, routed[node_id]) for node_id in sorted(routed)]
        failures: Dict[str, BaseException] = {}
        dispatched: List[str] = []
        for node_id, sub_batch in ordered:
            try:
                self._nodes[node_id].send("ingest", sub_batch)
                dispatched.append(node_id)
            except NodeDeadError as exc:
                failures[node_id] = exc
        votes: Dict[str, NodeVote] = {}
        answered: List[str] = []
        for node_id in dispatched:
            node = self._nodes[node_id]
            try:
                kind, vote = node.recv()
            except NodeDeadError as exc:
                failures[node_id] = exc
                continue
            answered.append(node_id)
            if kind != "vote":  # pragma: no cover - protocol guard
                failures[node_id] = RuntimeError(
                    f"node {node_id!r} answered {kind!r} to an ingest"
                )
                continue
            node.busy_seconds += vote.busy_seconds
            if vote.ready:
                votes[node_id] = vote
            else:
                failures[node_id] = RuntimeError(
                    f"node {node_id!r} failed mid-batch: {vote.error}"
                )
        if failures:
            self._abort_answered(answered, failures)
            first = sorted(failures)[0]
            raise _BatchFailure(first, failures[first])
        for node_id, sub_batch in ordered:
            node = self._nodes[node_id]
            node.offers_routed += len(sub_batch)
            node.batches += 1
        return votes

    def _dispatch_hint(self, fresh: Sequence[Offer]) -> Dict[str, NodeVote]:
        """Hint-routed dispatch: nodes classify, misroutes re-ship, owners apply.

        Two message rounds instead of one.  ``classify`` ships each
        hinted, position-tagged sub-batch (plus the shard assignment)
        to its guessed owner, which runs the real classifier and
        answers with the offers that belong elsewhere.  ``apply`` then
        delivers every misroute to its true owner, which merges its
        retained offers with the incoming ones in original batch order
        and ingests.  The per-offer classification sweep — the dominant
        serial cost of coordinator routing — thus runs on all nodes in
        parallel, and only misrouted offers cross the pipes twice.
        """
        if any(offer.category_id is None for offer in fresh) and (
            self._classifier is None or not self._classifier.is_trained
        ):
            # Same error contract as assign_routing_categories, checked
            # up front so no node sees a doomed batch.
            raise ValueError(
                "offers without a category require a trained category classifier"
            )
        if self._hinter is None:
            self._hinter = CategoryHinter.from_classifier(self._classifier)
        routing_started = time.perf_counter()
        fallback = self.node_ids()[0]
        hinted = partition_offers_by_hint(
            fresh, self._num_shards, self._coordinator.node_for_shard, fallback, self._hinter
        )
        # Every fresh offer is hint-routed; with the misroute counter
        # below this feeds the hint_accuracy gauge.
        self._pipe_stats.hinted_offers += len(fresh)
        assignment = {
            shard: self._coordinator.node_for_shard(shard)
            for shard in range(self._num_shards)
        }
        self._routing_seconds += time.perf_counter() - routing_started
        failures: Dict[str, BaseException] = {}
        dispatched: List[str] = []
        for node_id in sorted(hinted):
            try:
                self._nodes[node_id].send(
                    "classify",
                    {
                        "offers": hinted[node_id],
                        "assignment": assignment,
                        "fallback": fallback,
                    },
                )
                dispatched.append(node_id)
            except NodeDeadError as exc:
                failures[node_id] = exc
        answered: List[str] = []
        incoming: Dict[str, List[Tuple[int, Offer]]] = {}
        owned_counts: Dict[str, int] = {}
        for node_id in dispatched:
            node = self._nodes[node_id]
            try:
                kind, payload = node.recv()
            except NodeDeadError as exc:
                failures[node_id] = exc
                continue
            answered.append(node_id)
            if kind != "classified":
                failures[node_id] = RuntimeError(
                    f"node {node_id!r} answered {kind!r} to a classify"
                )
                continue
            node.busy_seconds += payload["busy_seconds"]
            moved = 0
            for destination, items in payload["outgoing"].items():
                incoming.setdefault(destination, []).extend(items)
                moved += len(items)
            self._pipe_stats.misrouted_offers += moved
            owned_counts[node_id] = len(hinted[node_id]) - moved
        if failures:
            self._abort_answered(answered, failures)
            first = sorted(failures)[0]
            raise _BatchFailure(first, failures[first])
        targets = sorted(
            {node_id for node_id, count in owned_counts.items() if count}
            | set(incoming)
        )
        routed_counts: Dict[str, int] = {}
        dispatched = []
        for node_id in targets:
            items = sorted(incoming.get(node_id, ()), key=lambda item: item[0])
            routed_counts[node_id] = owned_counts.get(node_id, 0) + len(items)
            try:
                self._nodes[node_id].send("apply", {"incoming": items})
                dispatched.append(node_id)
            except NodeDeadError as exc:
                failures[node_id] = exc
        votes: Dict[str, NodeVote] = {}
        answered = []
        for node_id in dispatched:
            node = self._nodes[node_id]
            try:
                kind, vote = node.recv()
            except NodeDeadError as exc:
                failures[node_id] = exc
                continue
            answered.append(node_id)
            if kind != "vote":  # pragma: no cover - protocol guard
                failures[node_id] = RuntimeError(
                    f"node {node_id!r} answered {kind!r} to an apply"
                )
                continue
            node.busy_seconds += vote.busy_seconds
            if vote.ready:
                votes[node_id] = vote
            else:
                failures[node_id] = RuntimeError(
                    f"node {node_id!r} failed mid-batch: {vote.error}"
                )
        if failures:
            self._abort_answered(answered, failures)
            first = sorted(failures)[0]
            raise _BatchFailure(first, failures[first])
        for node_id in targets:
            node = self._nodes[node_id]
            node.offers_routed += routed_counts[node_id]
            node.batches += 1
        return votes

    # -- commit barrier --------------------------------------------------------

    def _commit_phase(self, node_ids: List[str], fresh: Sequence[Offer]) -> None:
        """Phase two: record the intent, then flush the voters' journals.

        The intent — the batch's fresh offers, pickled into the shared
        store *before* any node flushes — is what turns a mid-barrier
        death (node or coordinator) from a fatal partway state into a
        replayable one.  At ``pipeline_depth=1`` the acks are awaited
        here; at 2 the round is left open as the commit window and
        drained at the next ingest.
        """
        sequence = next(self._batch_counter)
        payload = pickle.dumps(list(fresh), protocol=pickle.HIGHEST_PROTOCOL)
        self._store.write_commit_intent(sequence, payload)
        if self._pipeline_depth > 1:
            sent, failed, errors = self._commit_fanout(node_ids)
            if failed:
                more_failed, more_errors = self._collect_commit_acks(sent)
                self._recover_commit(
                    list(fresh), failed + more_failed, errors + more_errors
                )
            else:
                self._window = _CommitWindow(node_ids=sent, offers=list(fresh))
        else:
            self._sync_commit_round(node_ids, list(fresh))

    def _commit_fanout(self, node_ids: List[str]) -> Tuple[List[str], List[str], List[str]]:
        """Send ``commit`` to every voter; returns (sent, failed, errors)."""
        sent: List[str] = []
        failed: List[str] = []
        errors: List[str] = []
        for node_id in sorted(node_ids):
            try:
                self._nodes[node_id].send("commit")
                sent.append(node_id)
            except NodeDeadError as exc:
                failed.append(node_id)
                errors.append(str(exc))
        return sent, failed, errors

    def _collect_commit_acks(self, sent: List[str]) -> Tuple[List[str], List[str]]:
        """Await one commit ack per listed node; returns (failed, errors)."""
        failed: List[str] = []
        errors: List[str] = []
        started = time.perf_counter()
        with self._obs.span("cluster.commit_barrier"):
            for node_id in sent:
                try:
                    kind, payload = self._nodes[node_id].recv()
                except NodeDeadError as exc:
                    failed.append(node_id)
                    errors.append(str(exc))
                    continue
                if kind != "committed":
                    failed.append(node_id)
                    errors.append(f"node {node_id!r}: {payload}")
        self._barrier_seconds += time.perf_counter() - started
        return failed, errors

    def _sync_commit_round(self, node_ids: List[str], offers: List[Offer]) -> None:
        """One full synchronous commit round (fan out + await every ack)."""
        sent, failed, errors = self._commit_fanout(node_ids)
        more_failed, more_errors = self._collect_commit_acks(sent)
        failed += more_failed
        errors += more_errors
        if failed:
            self._recover_commit(offers, failed, errors)
        else:
            self._store.clear_commit_intent()

    def _drain_window(self) -> None:
        """Collect the open commit window's acks (no-op when none is open)."""
        if self._window is None:
            return
        window = self._window
        self._window = None
        failed, errors = self._collect_commit_acks(window.node_ids)
        if failed:
            self._recover_commit(window.offers, failed, errors)
        else:
            self._store.clear_commit_intent()

    def flush(self) -> None:
        """Land the pipelined commit window (no-op when none is open).

        After this returns, every previously ingested batch is durably
        committed in the shared WAL file and its intent is cleared.
        Views and membership operations drain implicitly; an explicit
        flush is only needed before e.g. reading the file from outside.
        """
        self._drain_window()

    def _recover_commit(
        self, offers: List[Offer], failed: List[str], errors: List[str]
    ) -> None:
        """A commit round lost nodes: fence them and replay what is missing.

        Only possible because the batch's intent is already durable and
        every node's flush is one atomic SQLite transaction: after
        fencing, the coordinator refreshes its mirror from the file —
        the only authority on which sub-batches landed — and re-runs
        the batch's *unseen* offers through a normal dispatch + commit.
        Node-side dedup could not replace the refresh: fencing just
        moved shards, and a surviving node's mirror may predate another
        node's flushed sub-batch.
        """
        if not self._auto_recover:
            raise RuntimeError(
                "cluster commit barrier failed partway — the shared store "
                "holds the last fully-voted state of the nodes that "
                "flushed, plus this batch's durable commit intent; reopen "
                "the store path (or keep auto_recover on) to replay it: "
                + "; ".join(errors)
            )
        self._fence_unreachable([node_id for node_id in failed if node_id in self._nodes])
        self._store.refresh()
        self._seen.clear()
        self._dirty = False
        self._replay_offers(offers)

    def _replay_offers(self, offers: Sequence[Offer]) -> None:
        """Re-dispatch and durably commit whichever offers never landed.

        Shared by barrier recovery and the startup replay of a leftover
        intent; idempotent because the store's seen set filters first.
        """
        remainder = [
            offer for offer in offers if not self._store.is_seen(offer.offer_id)
        ]
        if not remainder:
            self._store.clear_commit_intent()
            return
        votes = self._dispatch_with_retry(remainder)
        self._sync_commit_round(sorted(votes), remainder)
        self._seen.update(offer.offer_id for offer in remainder)
        self._dirty = True

    # -- views ----------------------------------------------------------------

    def _refresh_if_dirty(self) -> None:
        """Fold the nodes' barrier commits into the coordinator mirror.

        Once refreshed, the mirror's own seen set covers everything the
        side set accumulated since the last refresh, so the side set is
        dropped — the coordinator never holds the stream's offer ids
        twice for long streams.
        """
        if self._dirty and not self._store.closed:
            self._store.refresh()
            self._dirty = False
            self._seen.clear()

    def products(self) -> List[Product]:
        """All current synthesized products (same order as a single engine)."""
        self._ensure_open()
        self._drain_window()
        self._refresh_if_dirty()
        return self._store.sorted_products()

    def num_clusters(self) -> int:
        """Number of clusters tracked so far (including sub-threshold ones)."""
        self._ensure_open()
        self._drain_window()
        self._refresh_if_dirty()
        return self._store.num_clusters()

    def category_statistics(self, category_id: str) -> Optional[IncrementalTfIdf]:
        """The incremental TF-IDF statistics of one category (or ``None``)."""
        self._ensure_open()
        self._drain_window()
        self._refresh_if_dirty()
        return self._store.category_stats(category_id)

    def snapshot(self) -> EngineSnapshot:
        """A consistent summary of everything ingested so far."""
        self._ensure_open()
        self._drain_window()
        self._refresh_if_dirty()
        return EngineSnapshot(
            products=self._store.sorted_products(),
            num_clusters=self._store.num_clusters(),
            offers_ingested=self._store.num_seen(),
            reconciliation_stats=self._store.reconciliation_stats(),
            assigned_categories=self._store.assigned_categories(),
            category_vocabulary=self._store.category_vocabulary(),
        )

    def transport_stats(self) -> TransportStats:
        """Cluster-wide transport accounting: pipe frames and hint routing."""
        return replace(self._pipe_stats)

    def node_metrics(self) -> Dict[str, object]:
        """Fetch and merge every live node process's metrics snapshot.

        One explicit ``stats`` pipe round per node.  The pipelined
        commit window is drained first so the round can never race a
        pending flush ack, which is also why this runs on demand (the
        benches call it right before ``close``) rather than at scrape
        time: the merged result is cached, and the registry provider
        serves the cache.  Nodes that died since the last layout change
        simply drop out of the merge.
        """
        self._ensure_open()
        self._drain_window()
        merged: Dict[str, object] = {}
        for _, node in sorted(self._nodes.items()):
            try:
                fragment = node.request("stats")
            except (NodeDeadError, RuntimeError):
                continue
            if isinstance(fragment, dict):
                merge_snapshot(merged, fragment)
        self._node_metrics = merged
        return merged

    @property
    def routing_seconds(self) -> float:
        """Coordinator time spent deduplicating, classifying and routing."""
        return self._routing_seconds

    @property
    def barrier_wait_seconds(self) -> float:
        """Coordinator time spent waiting on commit acks."""
        return self._barrier_seconds

    @property
    def coordinator_seconds(self) -> float:
        """Total serial coordinator overhead (routing + barrier waits)."""
        return self._routing_seconds + self._barrier_seconds

    def node_stats(self) -> List[NodeStats]:
        """Per-node routing/timing accounting, in node-id order."""
        return [
            NodeStats(
                node_id=node.node_id,
                shards=node.lease.shards(),
                offers_routed=node.offers_routed,
                batches=node.batches,
                busy_seconds=node.busy_seconds,
            )
            for _, node in sorted(self._nodes.items())
        ]

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Shut every node process down and close the coordinator store."""
        if self._closed:
            return
        self._closed = True
        self._obs.remove_provider(self._obs_provider)
        try:
            self._drain_window()
        except Exception:  # noqa: BLE001 - teardown proceeds regardless
            # A failed final barrier leaves its durable intent behind;
            # the next cluster opened over this store path replays it.
            pass
        for _, node in sorted(self._nodes.items()):
            try:
                node.request("shutdown")
            except (NodeDeadError, RuntimeError):
                pass
            node.destroy()
        self._nodes = {}
        if not self._store.closed:
            self._store.close()

    def __enter__(self) -> "MultiProcessEngine":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, exc_type: object, exc: object, traceback: object) -> None:
        """Context-manager exit: tear the cluster down."""
        self.close()


class _BatchFailure(Exception):
    """Internal: one dispatch wave failed; carries the node to fence."""

    def __init__(self, node_id: str, cause: BaseException) -> None:
        """Record the first failed node (id order) and its cause."""
        super().__init__(f"batch failed on node {node_id!r}: {cause}")
        self.node_id = node_id
        self.cause = cause
