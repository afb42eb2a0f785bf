"""Multi-node shard coordination with per-shard version fencing.

One :class:`~repro.runtime.engine.SynthesisEngine` fuses its shards in
one in-process loop; this module scales it *horizontally*: a
:class:`ShardCoordinator` partitions the category shards across N engine
nodes that cooperate over one shared :class:`~repro.runtime.state.CatalogStore`
— the paper's catalog-at-web-scale scenario, with the authoritative
state kept in a single fenced store and only compact per-batch deltas
moving between processes.

The safety mechanism is **epoch fencing**.  Every shard carries a
monotonic *epoch* in the store: granting a shard to a node bumps the
epoch, and the grant — a :class:`ShardLease` — records the epoch the
node was given.  Every cluster write a node issues travels through its
:class:`FencedStoreView`, carries the leased epoch, and is checked
against the store's authoritative epoch
(:meth:`~repro.runtime.state.CatalogStore.check_shard_epoch`).  A node
that lags, restarts, or loses a shard to reassignment therefore cannot
commit stale cluster state: its next write (or at latest its commit)
raises :class:`~repro.runtime.state.StaleEpochError`.

:class:`MultiNodeEngine` is the facade: it exposes the same ``ingest`` /
``products`` / ``snapshot`` API as a single engine, routes each batch to
the owning nodes (category -> shard -> node), and handles membership:

* **join** (:meth:`MultiNodeEngine.add_node`) — the coordinator
  rebalances; moved shards get fresh epochs and the new node reads their
  cluster state from the shared store.
* **leave** (:meth:`MultiNodeEngine.remove_node`) — drain (ingest is a
  batch barrier, so the node is quiescent between batches and its state
  already lives in the shared store), reassign with fresh epochs.
* **crash** (:meth:`MultiNodeEngine.fence_node`, or automatic when a
  node dies mid-batch) — the store is rolled back to the last commit
  barrier, the dead node's epochs are fenced, its shards are reassigned,
  and the in-flight batch is replayed on the survivors.  With a durable
  store the resumed catalog is byte-identical to an uninterrupted run.

Determinism: batches commit through a single barrier per cluster ingest,
offers of one category always land on one node in stream order, and
fusion is content-deterministic — so the product set is byte-identical
to a single engine's for any node count, dispatch mode, and store
backend (the property-based equivalence suite pins this down).
"""

from __future__ import annotations

import concurrent.futures
import itertools
import threading
import time
import weakref
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.extraction.extractor import WebPageAttributeExtractor
from repro.matching.correspondence import CorrespondenceSet
from repro.model.catalog import Catalog
from repro.model.offers import Offer
from repro.model.products import Product
from repro.obs import get_registry
from repro.runtime.engine import EngineSnapshot, IngestReport, SynthesisEngine
from repro.runtime.sharding import shard_for_category
from repro.runtime.state import (
    CatalogStore,
    ClusterId,
    ClusterState,
    StaleEpochError,
    resolve_store,
)
from repro.synthesis.category_classifier import TitleCategoryClassifier
from repro.synthesis.clustering import KeyAttributeClusterer
from repro.synthesis.fusion import CentroidValueFusion
from repro.synthesis.reconciliation import ReconciliationStats
from repro.text.tfidf import IncrementalTfIdf

__all__ = [
    "ShardLease",
    "FencedStoreView",
    "ShardCoordinator",
    "CategoryHinter",
    "LoadSkewWatcher",
    "NodeStats",
    "TransportStats",
    "MultiNodeEngine",
    "ProcessNode",
    "MultiProcessEngine",
]


@dataclass
class ShardLease:
    """The shards one node currently holds, with their granted epochs.

    The coordinator mutates the lease in place on every grant or
    revocation, so the node's :class:`FencedStoreView` always writes with
    the epochs it actually holds.  When a node is *fenced* the lease is
    deliberately left stale instead: its epochs no longer match the
    store, which is exactly what makes the node's writes bounce.
    """

    node_id: str
    #: shard index -> epoch the store had when the shard was granted.
    epochs: Dict[int, int] = field(default_factory=dict)
    #: Set (never cleared) when the coordinator forcibly fences the node.
    #: The in-process fast path: a fenced node's very first write raises,
    #: before it can touch even the globally-scoped state.  The epochs
    #: above stay authoritative for writers the coordinator cannot reach
    #: (a lagging node fenced by someone else hits the store-side check).
    fenced: bool = False

    def shards(self) -> List[int]:
        """The shard indices this lease covers, ascending."""
        return sorted(self.epochs)


class FencedStoreView(CatalogStore):
    """One node's epoch-carrying, lock-serialised view of a shared store.

    Reads and global writes delegate to the base store under the cluster
    lock; cluster-scoped writes (create/append/product/version) first
    present the leased epoch of the target shard for validation, so a
    fenced-out node fails fast instead of corrupting reassigned shards.
    Global writes are fenced at the commit barrier: ``commit`` validates
    the whole lease before anything is flushed.

    With ``deferred_commit=True`` (how :class:`MultiNodeEngine` mounts
    it) the view's ``commit`` only validates — the cluster engine flushes
    the base store once per cluster batch, giving all nodes one shared
    commit barrier.
    """

    def __init__(
        self,
        base: CatalogStore,
        lease: ShardLease,
        lock: Optional[threading.RLock] = None,
        deferred_commit: bool = False,
    ) -> None:
        super().__init__()
        self._base = base
        self._lease = lease
        self._lock = lock if lock is not None else threading.RLock()
        self._deferred_commit = deferred_commit
        self.name = f"fenced-{base.name}"
        self._num_shards = base.num_shards

    @property
    def lease(self) -> ShardLease:
        """The shard lease this view writes under."""
        return self._lease

    @property
    def base(self) -> CatalogStore:
        """The shared store this view delegates to."""
        return self._base

    @property
    def commit_count(self) -> int:
        """The *base* store's snapshot counter.

        The view never counts commits itself: with ``deferred_commit``
        its ``commit`` only validates the lease, and either way the
        snapshot identity readers care about is the shared store's.  A
        node engine's commit listeners therefore see the same counter a
        reader of the shared file would.
        """
        return self._base.commit_count

    # -- fencing ---------------------------------------------------------------

    def _check_writable(self) -> None:
        if self._lease.fenced:
            raise StaleEpochError(
                f"node {self._lease.node_id!r} was fenced: its lease is "
                "revoked and no write of it may reach the shared store"
            )

    def _check_shard(self, shard_index: int) -> None:
        self._check_writable()
        epoch = self._lease.epochs.get(shard_index)
        if epoch is None:
            raise StaleEpochError(
                f"node {self._lease.node_id!r} holds no lease on shard "
                f"{shard_index}: the shard was reassigned (or never granted)"
            )
        self._base.check_shard_epoch(shard_index, epoch)

    def validate_lease(self) -> None:
        """Raise :class:`StaleEpochError` unless every held epoch is current."""
        self._check_writable()
        for shard_index, epoch in self._lease.epochs.items():
            self._base.check_shard_epoch(shard_index, epoch)

    # -- lifecycle -------------------------------------------------------------

    def bind(self, num_shards: int) -> None:
        """Validate the engine's shard count against the cluster store's."""
        if num_shards != self._base.num_shards:
            raise ValueError(
                f"node engine wants {num_shards} shards but the cluster "
                f"store is bound to {self._base.num_shards}"
            )
        self._num_shards = num_shards

    def commit(self) -> None:
        """Validate the whole lease; flush the base unless deferred."""
        with self._lock:
            self.validate_lease()
            if not self._deferred_commit:
                self._base.commit()

    def close(self) -> None:
        """Views release nothing: the cluster owns the base store.

        Best-effort commit only — ``close`` must stay safe on any path
        (the ``CatalogStore`` contract), and a fenced node has nothing
        it is allowed to flush anyway.
        """
        try:
            self.commit()
        except StaleEpochError:
            pass

    @property
    def closed(self) -> bool:
        """Whether the shared base store can no longer accept writes."""
        return self._base.closed

    # -- changed-cluster commit journal (delegated) ----------------------------
    # Mutations delegate to the base store, so the touched-cluster set —
    # and therefore the journal written at the barrier — lives there;
    # the read API follows it.

    def journal_floor(self) -> int:
        """The shared base store's journal floor."""
        with self._lock:
            return self._base.journal_floor()

    def journal_entries(self, since: int):
        """The shared base store's per-commit deltas after ``since``."""
        with self._lock:
            return self._base.journal_entries(since)

    def compact_journal(self, retain_commits: int = 0, auto: bool = False) -> int:
        """Compact the shared base store's journal."""
        with self._lock:
            return self._base.compact_journal(retain_commits, auto=auto)

    # -- seen offers -----------------------------------------------------------

    def is_seen(self, offer_id: str) -> bool:
        """Whether an offer id was absorbed, read under the cluster lock."""
        with self._lock:
            return self._base.is_seen(offer_id)

    def mark_seen(self, offer_id: str) -> bool:
        """Record an offer id (global write; fence flag checked first)."""
        with self._lock:
            self._check_writable()
            return self._base.mark_seen(offer_id)

    def num_seen(self) -> int:
        """Distinct offer ids absorbed cluster-wide."""
        with self._lock:
            return self._base.num_seen()

    # -- assigned categories ---------------------------------------------------

    def record_category(self, offer_id: str, category_id: str) -> None:
        """Remember an offer's category (global, fence-flag-checked write)."""
        with self._lock:
            self._check_writable()
            self._base.record_category(offer_id, category_id)

    def assigned_categories(self) -> Dict[str, str]:
        """A copy of the cluster-wide offer-id -> category-id map."""
        with self._lock:
            return self._base.assigned_categories()

    # -- clusters (epoch-checked writes) ---------------------------------------

    def get_cluster(self, cluster_id: ClusterId) -> Optional[ClusterState]:
        """One cluster's shared state, read under the cluster lock."""
        with self._lock:
            return self._base.get_cluster(cluster_id)

    def create_cluster(self, shard_index: int, cluster_id: ClusterId) -> ClusterState:
        """Create a cluster after validating this node's shard epoch."""
        with self._lock:
            self._check_shard(shard_index)
            return self._base.create_cluster(shard_index, cluster_id)

    def append_offers(self, cluster_id: ClusterId, offers: List[Offer]) -> None:
        """Append offers after validating the owning shard's epoch."""
        with self._lock:
            state = self._base.get_cluster(cluster_id)
            if state is not None:
                self._check_shard(state.shard_index)
            self._base.append_offers(cluster_id, offers)

    def set_product(self, cluster_id: ClusterId, product: Optional[Product]) -> None:
        """Record a fused product after validating the shard's epoch."""
        with self._lock:
            state = self._base.get_cluster(cluster_id)
            if state is not None:
                self._check_shard(state.shard_index)
            self._base.set_product(cluster_id, product)

    def iter_clusters(self) -> Iterator[Tuple[ClusterId, ClusterState]]:
        """Iterate over a stable copy of every tracked cluster."""
        with self._lock:
            return iter(list(self._base.iter_clusters()))

    def shard_cluster_ids(self, shard_index: int) -> List[ClusterId]:
        """Ids of every cluster living in one shard."""
        with self._lock:
            return self._base.shard_cluster_ids(shard_index)

    def num_clusters(self) -> int:
        """Number of clusters tracked cluster-wide."""
        with self._lock:
            return self._base.num_clusters()

    # -- per-category statistics -----------------------------------------------

    def category_stats_for_update(self, category_id: str) -> IncrementalTfIdf:
        # The returned object is mutated lock-free by the engine: safe,
        # because one category belongs to one shard and so to one node.
        """Mutable TF-IDF statistics of an owned category (fence-checked)."""
        with self._lock:
            self._check_writable()
            return self._base.category_stats_for_update(category_id)

    def category_stats(self, category_id: str) -> Optional[IncrementalTfIdf]:
        """Read-only TF-IDF statistics of one category (or ``None``)."""
        with self._lock:
            return self._base.category_stats(category_id)

    def category_vocabulary(self) -> Dict[str, int]:
        """category_id -> vocabulary size, cluster-wide."""
        with self._lock:
            return self._base.category_vocabulary()

    # -- reconciliation stats --------------------------------------------------

    def merge_reconciliation_stats(self, stats: ReconciliationStats) -> None:
        """Fold batch counters into the shared totals (fence-checked)."""
        with self._lock:
            self._check_writable()
            self._base.merge_reconciliation_stats(stats)

    def reconciliation_stats(self) -> ReconciliationStats:
        """A copy of the cluster-wide reconciliation totals."""
        with self._lock:
            return self._base.reconciliation_stats()

    # -- shard epochs ----------------------------------------------------------

    def shard_epoch(self, shard_index: int) -> int:
        """The authoritative fencing epoch of one shard."""
        with self._lock:
            return self._base.shard_epoch(shard_index)

    def advance_shard_epoch(self, shard_index: int) -> int:
        """Always refused: only the shard coordinator fences shards."""
        raise RuntimeError(
            "only the shard coordinator advances fencing epochs; a node "
            "bumping its own epoch would un-fence itself"
        )


class ShardCoordinator:
    """Authoritative shard -> node assignment with epoch fencing.

    Assignment is deterministic — shard ``i`` belongs to the ``i mod N``-th
    node in node-id order — so any observer can recompute the layout, and
    membership changes move the minimal ``1/N`` slice of shards.  Every
    ownership change bumps the shard's epoch *in the store* before the
    new lease is granted: fence first, hand over second.
    """

    def __init__(self, store: CatalogStore, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self._store = store
        self._num_shards = num_shards
        self._assignment: Dict[int, str] = {}
        self._leases: Dict[str, ShardLease] = {}

    @property
    def num_shards(self) -> int:
        """Number of category shards under coordination."""
        return self._num_shards

    def nodes(self) -> List[str]:
        """Registered node ids, ascending."""
        return sorted(self._leases)

    def assignment(self) -> Dict[int, str]:
        """A copy of the current shard -> node-id map."""
        return dict(self._assignment)

    def node_for_shard(self, shard_index: int) -> str:
        """The node currently owning one shard."""
        return self._assignment[shard_index]

    def lease_for(self, node_id: str) -> ShardLease:
        """The live lease of one registered node."""
        return self._leases[node_id]

    def register_node(self, node_id: str, rebalance: bool = True) -> ShardLease:
        """Add a node and rebalance; returns its (live) lease.

        ``rebalance=False`` defers the layout change: callers registering
        several nodes at once (cluster bootstrap) apply one final
        :meth:`apply_layout` instead of re-fencing shards through every
        intermediate membership.
        """
        if node_id in self._leases:
            raise ValueError(f"node {node_id!r} is already registered")
        lease = ShardLease(node_id=node_id)
        self._leases[node_id] = lease
        if rebalance:
            self._rebalance()
        return lease

    def apply_layout(self) -> None:
        """(Re-)apply the deterministic modulo layout for the current
        membership — the explicit finish of deferred registrations."""
        self._rebalance()

    def retire_node(self, node_id: str, fence: bool = False) -> None:
        """Remove a node and reassign its shards (with fresh epochs).

        ``fence=False`` is the graceful leave: the departing lease is
        emptied so the node object, if kept around, knows it holds
        nothing.  ``fence=True`` is the crash path: the lease is left
        *stale* on purpose — a zombie still holding the object presents
        outdated epochs and every write it attempts is rejected.
        """
        if node_id not in self._leases:
            raise ValueError(f"node {node_id!r} is not registered")
        if len(self._leases) == 1:
            raise RuntimeError(
                f"cannot retire {node_id!r}: it is the last node of the cluster"
            )
        lease = self._leases.pop(node_id)
        if fence:
            # Flag first: the zombie's next write bounces before the
            # reassignment below even finishes.
            lease.fenced = True
        self._rebalance()
        if not fence:
            lease.epochs.clear()

    def rebalance_by_load(self, loads: Dict[int, float]) -> Dict[int, str]:
        """Reassign shards greedily by observed load (largest first).

        ``loads`` maps shard index to any monotone load measure (offers
        held, ingest seconds); unknown or zero-load shards weigh 1 so
        they still spread.  Deterministic: ties break on shard index and
        node id.  Every shard that changes owner is re-fenced exactly as
        in a membership change, so in-flight holders are cut off and the
        new owner reads the shard's state from the store.  Returns the
        new assignment.
        """
        nodes = self.nodes()
        bins = {node_id: 0.0 for node_id in nodes}
        order = sorted(
            range(self._num_shards),
            key=lambda shard: (-loads.get(shard, 0.0), shard),
        )
        for shard_index in order:
            target = min(nodes, key=lambda node_id: (bins[node_id], node_id))
            bins[target] += loads.get(shard_index, 0.0) or 1.0
            self._grant(shard_index, target)
        return self.assignment()

    def _grant(self, shard_index: int, owner: str) -> None:
        """Move one shard to ``owner`` (no-op if already there).

        Fence first: the epoch is bumped in the store before the new
        lease entry exists, so no previous holder can write in between.
        """
        previous = self._assignment.get(shard_index)
        if previous == owner:
            return
        epoch = self._store.advance_shard_epoch(shard_index)
        if previous is not None and previous in self._leases:
            self._leases[previous].epochs.pop(shard_index, None)
        self._leases[owner].epochs[shard_index] = epoch
        self._assignment[shard_index] = owner

    def _rebalance(self) -> None:
        """Recompute the deterministic modulo layout after a membership
        change (a load-aware layout can be re-applied afterwards via
        :meth:`rebalance_by_load`)."""
        nodes = self.nodes()
        for shard_index in range(self._num_shards):
            self._grant(shard_index, nodes[shard_index % len(nodes)])


def assign_routing_categories(
    offers: Sequence[Offer], classifier: Optional[TitleCategoryClassifier]
) -> List[Offer]:
    """Assign categories for routing (shared by both cluster facades).

    The classifier is per-offer and deterministic, and node engines keep
    pre-assigned categories, so classification happens once per offer no
    matter how many nodes the batch fans out to.  Raises ``ValueError``
    when offers lack categories and no trained classifier is available.
    """
    needs_classification = [offer for offer in offers if offer.category_id is None]
    if not needs_classification:
        return list(offers)
    if classifier is None or not classifier.is_trained:
        raise ValueError("offers without a category require a trained category classifier")
    return classifier.assign_categories(list(offers))


def partition_offers_by_node(
    categorised: Sequence[Offer],
    num_shards: int,
    node_for_shard,
    fallback_node_id: str,
) -> Dict[str, List[Offer]]:
    """Group offers by owning node, preserving stream order per node.

    Offers without a category have no shard: they only need global
    bookkeeping (seen-set, reconciliation counters), which lands the
    same wherever it runs — they go to the stable ``fallback_node_id``.
    Shared by both cluster facades so their routing can never diverge
    (the byte-identity contract hangs on identical placement).
    """
    routed: Dict[str, List[Offer]] = {}
    for offer in categorised:
        if offer.category_id is None:
            node_id = fallback_node_id
        else:
            shard_index = shard_for_category(offer.category_id, num_shards)
            node_id = node_for_shard(shard_index)
        routed.setdefault(node_id, []).append(offer)
    return routed


class CategoryHinter:
    """Cheap per-offer routing hints derived from the real classifier.

    The full classifier scores every category's posterior for every
    title — that sweep is the dominant serial cost when a coordinator
    classifies whole batches before routing them.  A hinter instead
    looks each title feature up in a precomputed ``feature -> dominant
    category`` table (:meth:`TitleCategoryClassifier.routing_hints`) and
    majority-votes, which is an order of magnitude cheaper and needs no
    model state beyond one dict.

    Hints are allowed to be *wrong*: a cluster coordinator routes on the
    hint, the receiving node runs the real classifier, and misrouted
    offers are re-shipped to their true owner before ingest — so hint
    accuracy only affects transport volume, never the output bytes.
    """

    def __init__(self, table: Dict[str, str], features) -> None:
        """Wrap a ``feature -> category`` table and a feature extractor.

        ``features`` may be ``None`` (no trained model): every offer
        without a pre-assigned category then hints ``None`` and falls
        back to the coordinator's stable fallback node.
        """
        self._table = table
        self._features = features

    @classmethod
    def from_classifier(cls, classifier: Optional[TitleCategoryClassifier]) -> "CategoryHinter":
        """Build a hinter from a classifier; untrained/absent = empty table."""
        if classifier is None or not classifier.is_trained:
            return cls({}, None)
        return cls(classifier.routing_hints(), classifier.routing_features)

    def hint(self, offer: Offer) -> Optional[str]:
        """Best-effort category guess for ``offer`` (``None`` = no idea).

        Pre-assigned categories are authoritative (the node-side
        classifier keeps them too, so such hints are always right);
        otherwise the dominant categories of the title's features vote,
        ties breaking on the lexicographically smallest category so the
        guess is deterministic.
        """
        if offer.category_id is not None:
            return offer.category_id
        if self._features is None:
            return None
        votes: Dict[str, int] = {}
        for feature in self._features(offer.title):
            category = self._table.get(feature)
            if category is not None:
                votes[category] = votes.get(category, 0) + 1
        if not votes:
            return None
        return min(votes.items(), key=lambda item: (-item[1], item[0]))[0]


def partition_offers_by_hint(
    offers: Sequence[Offer],
    num_shards: int,
    node_for_shard,
    fallback_node_id: str,
    hinter: CategoryHinter,
) -> Dict[str, List[Tuple[int, Offer]]]:
    """Group *unclassified* offers by hinted owner, tagging each with its
    batch position.

    The position tag is what keeps hint routing byte-identical: after
    nodes classify their hinted sub-batches and re-ship misroutes, every
    true owner sorts its merged offers by position, recovering exactly
    the per-node stream order coordinator-side routing would have
    produced.  Shared by both cluster facades.
    """
    routed: Dict[str, List[Tuple[int, Offer]]] = {}
    for position, offer in enumerate(offers):
        category = hinter.hint(offer)
        if category is None:
            node_id = fallback_node_id
        else:
            node_id = node_for_shard(shard_for_category(category, num_shards))
        routed.setdefault(node_id, []).append((position, offer))
    return routed


class LoadSkewWatcher:
    """Watches per-batch busy-time skew and fires automatic rebalances.

    The coordinator's modulo layout ignores how skewed the category
    distribution is; this watcher closes the manual-`rebalance` gap.
    After every cluster batch it observes each node's busy seconds; when
    the busiest node exceeds ``threshold`` times the mean for
    ``patience`` *consecutive* batches (the hysteresis — one noisy batch
    never triggers a layout change), it reports that a load-aware
    rebalance is due and resets.  Batches with fewer than two nodes or
    no measurable work reset the streak: there is nothing to balance.
    """

    def __init__(self, threshold: float = 1.5, patience: int = 2) -> None:
        """Configure the trigger.

        threshold:
            Minimum ``max(busy) / mean(busy)`` ratio that counts as a
            skewed batch; must be >= 1.0 (1.0 = any imbalance counts).
        patience:
            Consecutive skewed batches required before firing (>= 1).
        """
        if threshold < 1.0:
            raise ValueError(f"threshold must be >= 1.0, got {threshold}")
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.threshold = threshold
        self.patience = patience
        self._streak = 0

    @property
    def streak(self) -> int:
        """Consecutive skewed batches observed so far (diagnostics)."""
        return self._streak

    def observe(self, busy_by_node: Dict[str, float]) -> bool:
        """Record one batch's per-node busy seconds; ``True`` = rebalance.

        Returns whether the skew streak just reached ``patience`` (the
        caller should run a load-aware rebalance now); the streak resets
        on firing, so back-to-back triggers need the skew to persist for
        another full ``patience`` window after the layout change.
        """
        total = sum(busy_by_node.values())
        if len(busy_by_node) < 2 or total <= 0.0:
            self._streak = 0
            return False
        skew = max(busy_by_node.values()) * len(busy_by_node) / total
        if skew < self.threshold:
            self._streak = 0
            return False
        self._streak += 1
        if self._streak >= self.patience:
            self._streak = 0
            return True
        return False


@dataclass
class TransportStats:
    """Cumulative pipe-frame and hint-routing accounting of a coordinator.

    The frame counters measure the multi-process pipe protocol
    (:mod:`repro.runtime.procnode`); the hint counters measure how often
    a :class:`CategoryHinter` guess sent an offer to the wrong node.
    """

    #: Pipe-protocol frames a cluster coordinator sent to its nodes.
    frames_sent: int = 0
    #: Pipe-protocol frames a cluster coordinator received from nodes.
    frames_received: int = 0
    #: Serialized payload bytes of the sent frames.
    frame_bytes_sent: int = 0
    #: Serialized payload bytes of the received frames.
    frame_bytes_received: int = 0
    #: Offers whose routing hint pointed at the wrong node and that were
    #: re-shipped to their true owner at the classification barrier.
    misrouted_offers: int = 0
    #: Offers that were hint-routed at all (misrouted or not); the
    #: denominator of :attr:`hint_accuracy`.
    hinted_offers: int = 0

    @property
    def hint_accuracy(self) -> Optional[float]:
        """Fraction of hint-routed offers whose hint was correct.

        ``None`` when hint routing never ran (no denominator).  An
        accuracy that degrades over a stream is the signal to retrain or
        widen the hinter's vote table, *before* misroute re-ships start
        dominating transport.
        """
        if self.hinted_offers == 0:
            return None
        return 1.0 - self.misrouted_offers / self.hinted_offers

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible summary."""
        payload: Dict[str, object] = asdict(self)
        payload["hint_accuracy"] = self.hint_accuracy
        return payload

    def merge(self, other: "TransportStats") -> None:
        """Fold another accounting's counters into this one (plain sums)."""
        for item in fields(self):
            setattr(self, item.name, getattr(self, item.name) + getattr(other, item.name))

    def metrics_fragment(self, labels: Optional[Dict[str, str]] = None) -> Dict[str, object]:
        """This accounting as a :mod:`repro.obs` snapshot fragment.

        The registry *reads through* this object instead of
        double-writing it: cluster coordinators register a provider that
        calls this, so ``registry.snapshot()`` and ``/metrics`` expose
        the same counters ``transport_stats()`` reports.
        """
        from repro.obs import series_key, snapshot_fragment

        counters: Dict[str, float] = {}
        families: Dict[str, Dict[str, str]] = {}
        for name, (family, help_text) in _TRANSPORT_FAMILIES.items():
            value = getattr(self, name)
            if value:
                counters[series_key(family, labels)] = float(value)
                families[family] = {"type": "counter", "help": help_text}
        gauges: Dict[str, float] = {}
        accuracy = self.hint_accuracy
        if accuracy is not None:
            gauges[series_key("routing_hint_accuracy", labels)] = accuracy
            families["routing_hint_accuracy"] = {
                "type": "gauge",
                "help": "Fraction of hint-routed offers whose hint was correct.",
            }
        return snapshot_fragment(counters=counters, gauges=gauges, families=families)


#: TransportStats field -> (metric family, help text).
_TRANSPORT_FAMILIES: Dict[str, Tuple[str, str]] = {
    "frames_sent": (
        "pipe_frames_sent_total",
        "Pipe-protocol frames sent to cluster node processes.",
    ),
    "frames_received": (
        "pipe_frames_received_total",
        "Pipe-protocol frames received from node processes.",
    ),
    "frame_bytes_sent": (
        "pipe_frame_bytes_sent_total",
        "Serialized payload bytes of sent pipe frames.",
    ),
    "frame_bytes_received": (
        "pipe_frame_bytes_received_total",
        "Serialized payload bytes of received pipe frames.",
    ),
    "misrouted_offers": (
        "routing_misrouted_offers_total",
        "Hint-routed offers re-homed at the classify barrier.",
    ),
    "hinted_offers": (
        "routing_hinted_offers_total",
        "Offers routed via category hints at all.",
    ),
}


@dataclass
class NodeStats:
    """Per-node accounting of one :class:`MultiNodeEngine`."""

    node_id: str
    shards: List[int]
    offers_routed: int
    batches: int
    busy_seconds: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible summary."""
        return {
            "node_id": self.node_id,
            "shards": list(self.shards),
            "offers_routed": self.offers_routed,
            "batches": self.batches,
            "busy_seconds": round(self.busy_seconds, 4),
        }


@dataclass
class _EngineNode:
    """One cluster member: its lease, fenced view, and engine."""

    node_id: str
    lease: ShardLease
    view: FencedStoreView
    engine: SynthesisEngine
    offers_routed: int = 0
    batches: int = 0
    busy_seconds: float = 0.0


class _NodeFailure(Exception):
    """Internal: a node died mid-batch; carries who and why."""

    def __init__(self, node_id: str, cause: BaseException) -> None:
        super().__init__(f"node {node_id!r} failed mid-batch: {cause}")
        self.node_id = node_id
        self.cause = cause


class MultiNodeEngine:
    """N cooperating synthesis engines over one shared, fenced store.

    Exposes the same ``ingest`` / ``products`` / ``snapshot`` surface as
    :class:`~repro.runtime.engine.SynthesisEngine`; behind it, each batch
    is routed by category shard to the owning node and every node writes
    through its :class:`FencedStoreView`.

    Parameters mirror the single engine's; the additional ones:

    num_nodes:
        Initial cluster size (nodes are named ``node-1`` ... ``node-N``;
        membership can change later via :meth:`add_node` /
        :meth:`remove_node` / :meth:`fence_node`).
    concurrent:
        Dispatch the per-node sub-batches on one thread per node instead
        of sequentially.  Store access is serialised by the cluster lock
        either way, and the product set is identical — concurrency only
        overlaps the nodes' compute.
    auto_recover:
        When a node raises mid-batch and the store supports rollback,
        roll back to the commit barrier, fence the node, reassign its
        shards, and replay the batch on the survivors (default on).
    auto_rebalance_skew, auto_rebalance_patience:
        Automatic load-aware rebalancing: when set, a
        :class:`LoadSkewWatcher` observes every batch's per-node busy
        seconds and triggers :meth:`rebalance` once the busiest node
        exceeds ``auto_rebalance_skew`` times the mean for
        ``auto_rebalance_patience`` consecutive batches.  ``None``
        (default) keeps rebalancing manual.  Rebalancing never changes
        the synthesized products, only the layout.
    pipeline_depth:
        ``1`` (default) commits every batch before ``ingest`` returns —
        today's semantics.  ``2`` defers the commit barrier of batch N
        until batch N+1 (or any view/membership call) via :meth:`flush`,
        the in-process twin of the multi-process engine's pipelined
        commit window.  Products are byte-identical either way.
    hint_routing:
        Route each batch on a cheap :class:`CategoryHinter` guess and
        run the real classifier on the nodes instead of the
        coordinator, re-shipping misrouted offers to their true owner
        before ingest (position-tagged, so per-node stream order — and
        therefore every output byte — is preserved).  In this
        in-process facade the "node-side" classification still runs on
        the coordinator thread; the knob exists so equivalence tests
        can pin the routing protocol itself against coordinator-side
        classification.
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
        store: Union[str, CatalogStore, None] = None,
        store_path: Optional[str] = None,
        concurrent: bool = False,
        auto_recover: bool = True,
        auto_rebalance_skew: Optional[float] = None,
        auto_rebalance_patience: int = 2,
        pipeline_depth: int = 1,
        hint_routing: bool = False,
    ) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if pipeline_depth not in (1, 2):
            raise ValueError(f"pipeline_depth must be 1 or 2, got {pipeline_depth}")
        self._classifier = category_classifier
        self._engine_kwargs = dict(
            catalog=catalog,
            correspondences=correspondences,
            extractor=extractor,
            category_classifier=category_classifier,
            clusterer=clusterer,
            fusion=fusion,
            min_cluster_size=min_cluster_size,
            track_category_statistics=track_category_statistics,
        )
        self._num_shards = num_shards
        self._owns_store = not isinstance(store, CatalogStore)
        self._store = resolve_store(store, path=store_path)
        self._store.bind(num_shards)
        self._lock = threading.RLock()
        self._coordinator = ShardCoordinator(self._store, num_shards)
        self._concurrent = concurrent
        self._auto_recover = auto_recover
        self._skew_watcher: Optional[LoadSkewWatcher] = None
        if auto_rebalance_skew is not None:
            self._skew_watcher = LoadSkewWatcher(
                threshold=auto_rebalance_skew, patience=auto_rebalance_patience
            )
        self._nodes: Dict[str, _EngineNode] = {}
        self._node_counter = itertools.count(1)
        self._pipeline_depth = pipeline_depth
        self._hint_routing = hint_routing
        self._hinter: Optional[CategoryHinter] = None
        self._pending_commit = False
        # Coordinator-side accounting: misroute counters for hint mode,
        # and the routing / barrier-wait split the cluster bench reports.
        self._coordinator_transport = TransportStats()
        self._routing_seconds = 0.0
        self._barrier_seconds = 0.0
        self._closed = False
        # Observability: the coordinator publishes its hint-routing
        # accounting (the same counters transport_stats() reports).
        # Callback gauges hold a weakref only.
        registry = get_registry()
        self._obs = registry
        self._obs_cluster_batches = registry.counter(
            "cluster_batches_total",
            help="Micro-batches absorbed by cluster coordinators.",
        )
        cluster_ref = weakref.ref(self)

        def _coordinator_provider() -> Dict[str, object]:
            cluster = cluster_ref()
            if cluster is None:
                return {}
            return cluster._coordinator_transport.metrics_fragment()

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
        # Bootstrap membership in one layout pass: registering the nodes
        # first and granting shards once avoids fencing every shard
        # through N-1 intermediate layouts (and, on sqlite, one durable
        # epoch flush per intermediate move).
        for _ in range(num_nodes):
            self.add_node(defer_layout=True)
        self._coordinator.apply_layout()

    # -- membership ------------------------------------------------------------

    def node_ids(self) -> List[str]:
        """Ids of the live cluster members, ascending."""
        return sorted(self._nodes)

    @property
    def coordinator(self) -> ShardCoordinator:
        """The shard coordinator (assignment and fencing authority)."""
        return self._coordinator

    @property
    def store(self) -> CatalogStore:
        """The shared catalog store holding the cluster's state."""
        return self._store

    @property
    def skew_watcher(self) -> Optional["LoadSkewWatcher"]:
        """The automatic-rebalance trigger, or ``None`` when manual."""
        return self._skew_watcher

    def node_view(self, node_id: str) -> FencedStoreView:
        """The fenced store view of one live node (tests, diagnostics)."""
        return self._nodes[node_id].view

    def add_node(self, node_id: Optional[str] = None, defer_layout: bool = False) -> str:
        """Join a node: rebalance, grant a lease, build its engine.

        The moved shards' cluster state needs no explicit transfer — it
        already lives in the shared store the new node's engine reads.
        ``defer_layout`` is the bootstrap
        path: leases stay empty until the coordinator applies one final
        layout for the whole initial membership.
        """
        if node_id is None:
            node_id = f"node-{next(self._node_counter)}"
        self.flush()
        lease = self._coordinator.register_node(node_id, rebalance=not defer_layout)
        view = FencedStoreView(self._store, lease, self._lock, deferred_commit=True)
        engine = SynthesisEngine(num_shards=self._num_shards, store=view, **self._engine_kwargs)
        self._nodes[node_id] = _EngineNode(node_id=node_id, lease=lease, view=view, engine=engine)
        return node_id

    def _retire(self, node_id: str, fence: bool) -> _EngineNode:
        if node_id not in self._nodes:
            raise ValueError(f"node {node_id!r} is not a cluster member")
        if len(self._nodes) == 1:
            raise RuntimeError(
                f"cannot retire {node_id!r}: it is the last node of the cluster"
            )
        self.flush()
        node = self._nodes.pop(node_id)
        self._coordinator.retire_node(node_id, fence=fence)
        return node

    def remove_node(self, node_id: str) -> None:
        """Gracefully leave: drain, reassign with fresh epochs, release.

        Ingest is a batch barrier, so between batches the node is
        quiescent and everything it produced is in the shared store
        (committed at the last barrier for durable backends) — the
        "drain + snapshot via the store" half of the handoff protocol.
        """
        self._retire(node_id, fence=False)

    def fence_node(self, node_id: str) -> None:
        """Forcibly fence a node (crash path, or an operator evicting it).

        The node's shards get fresh epochs and new owners; its lease is
        left stale, so any write the zombie still attempts raises
        :class:`~repro.runtime.state.StaleEpochError`.
        """
        self._retire(node_id, fence=True)

    def rebalance(self, loads: Optional[Dict[int, float]] = None) -> Dict[int, str]:
        """Reassign shards by load between batches; returns the layout.

        With ``loads=None`` the observed load is read from the shared
        store (offers held per shard) — the modulo layout membership
        starts from ignores how skewed the category distribution is, and
        a warm cluster can pull its busiest shards apart this way.
        Moved shards are re-fenced and their new owners read them from
        the shared store, exactly like a membership handoff.
        """
        self.flush()
        if loads is None:
            loads = {}
            for _, state in self._store.iter_clusters():
                loads[state.shard_index] = loads.get(state.shard_index, 0.0) + state.size()
        return self._coordinator.rebalance_by_load(loads)

    # -- routing ---------------------------------------------------------------

    def _route_categories(self, offers: Sequence[Offer]) -> List[Offer]:
        """Assign categories for routing (mirrors the engine's stage)."""
        return assign_routing_categories(offers, self._classifier)

    def _partition(self, categorised: Sequence[Offer]) -> Dict[str, List[Offer]]:
        """Group offers by owning node, preserving stream order per node."""
        return partition_offers_by_node(
            categorised,
            self._num_shards,
            self._coordinator.node_for_shard,
            fallback_node_id=self.node_ids()[0],
        )

    def _hint_route(self, fresh: Sequence[Offer]) -> Dict[str, List[Offer]]:
        """Route ``fresh`` via hints, classifying on the hinted nodes.

        The in-process emulation of the multi-process classify round:
        each hinted node runs the real classifier over its guessed
        sub-batch (billed to that node's busy time), misroutes are
        counted and re-homed, and every true owner's final sub-batch is
        re-sorted by batch position — byte-identical placement and order
        to coordinator-side classification.
        """
        if any(offer.category_id is None for offer in fresh) and (
            self._classifier is None or not self._classifier.is_trained
        ):
            # Same error contract as assign_routing_categories — checked
            # up front so no node sees a half-routed batch.
            raise ValueError(
                "offers without a category require a trained category classifier"
            )
        if self._hinter is None:
            self._hinter = CategoryHinter.from_classifier(self._classifier)
        fallback = self.node_ids()[0]
        hinted = partition_offers_by_hint(
            fresh, self._num_shards, self._coordinator.node_for_shard, fallback, self._hinter
        )
        # Every fresh offer is routed by hint here; together with the
        # misroute counter below this yields the hint_accuracy gauge.
        self._coordinator_transport.hinted_offers += len(fresh)
        merged: Dict[str, List[Tuple[int, Offer]]] = {}
        for node_id in sorted(hinted):
            node = self._nodes[node_id]
            started = time.perf_counter()
            categorised = node.engine.classify_offers(
                [offer for _, offer in hinted[node_id]]
            )
            node.busy_seconds += time.perf_counter() - started
            for (position, _), offer in zip(hinted[node_id], categorised):
                if offer.category_id is None:
                    owner = fallback
                else:
                    owner = self._coordinator.node_for_shard(
                        shard_for_category(offer.category_id, self._num_shards)
                    )
                if owner != node_id:
                    self._coordinator_transport.misrouted_offers += 1
                merged.setdefault(owner, []).append((position, offer))
        return {
            node_id: [offer for _, offer in sorted(items, key=lambda item: item[0])]
            for node_id, items in merged.items()
        }

    def _route(self, fresh: Sequence[Offer]) -> Dict[str, List[Offer]]:
        """One batch's node -> fully-categorised sub-batch map."""
        if self._hint_routing:
            return self._hint_route(fresh)
        return self._partition(self._route_categories(fresh))

    # -- ingest ----------------------------------------------------------------

    def ingest(self, offers: Sequence[Offer]) -> IngestReport:
        """Absorb one micro-batch across the cluster.

        Same contract as the single engine's ``ingest``: idempotent per
        offer id, and one commit barrier at the end — a crash loses at
        most the cluster batch in flight.  If a node dies mid-batch (and
        ``auto_recover`` holds), the store rolls back to the barrier,
        the node is fenced, and the batch replays on the survivors.
        """
        report = IngestReport(offers_in_batch=len(offers))
        if self._store.closed:
            raise RuntimeError(
                "cannot ingest: the cluster's catalog store is closed "
                "(reopen the store path with a new cluster to resume)"
            )
        self._closed = False
        # A deferred commit from the previous pipelined batch must land
        # before this batch mutates the store: crash recovery rolls back
        # to the last commit barrier, and that barrier must never
        # straddle two batches.
        self.flush()
        routing_started = time.perf_counter()
        fresh: List[Offer] = []
        batch_ids = set()
        for offer in offers:
            if self._store.is_seen(offer.offer_id) or offer.offer_id in batch_ids:
                continue
            batch_ids.add(offer.offer_id)
            fresh.append(offer)
        report.offers_duplicate = report.offers_in_batch - len(fresh)
        self._routing_seconds += time.perf_counter() - routing_started
        if not fresh:
            self._store.commit()
            return report

        busy_before = {node_id: node.busy_seconds for node_id, node in self._nodes.items()}
        attempts = 0
        while True:
            try:
                # Routing sits inside the retry loop: a recovery replay
                # re-routes against the post-fence layout (deterministic,
                # so an un-fenced replay routes identically).
                routing_started = time.perf_counter()
                with self._obs.span("cluster.route"):
                    routed = self._route(fresh)
                self._routing_seconds += time.perf_counter() - routing_started
                node_reports = self._dispatch(routed)
                break
            except _NodeFailure as failure:
                attempts += 1
                if (
                    not self._auto_recover
                    or not self._store.supports_rollback
                    or len(self._nodes) <= 1
                    or attempts >= len(self._nodes) + 1
                ):
                    # Unrecoverable: still return the store to the commit
                    # barrier where possible, so the caller can retry the
                    # batch without its offers being half-absorbed.
                    if self._store.supports_rollback and not self._store.closed:
                        self._store.rollback()
                    raise failure.cause
                # Crash recovery: back to the commit barrier, fence the
                # dead node, replay the whole batch on the survivors
                # (rollback un-saw the batch's offers, so the replay is
                # not deduplicated away).
                self._store.rollback()
                self.fence_node(failure.node_id)

        aggregate = IngestReport()
        for node_report in node_reports:
            aggregate.merge(node_report)
        report.offers_new = aggregate.offers_new
        report.offers_duplicate += aggregate.offers_duplicate
        report.offers_clustered = aggregate.offers_clustered
        report.offers_without_key = aggregate.offers_without_key
        report.offers_uncategorised = aggregate.offers_uncategorised
        report.clusters_touched = aggregate.clusters_touched
        report.products_refreshed = aggregate.products_refreshed
        # The single commit barrier of this cluster batch.  A failed
        # flush is a *store* failure, not a node crash: fencing cannot
        # help, so discard the batch (where the backend allows it) and
        # surface the error — the caller may then retry the whole batch.
        # At pipeline_depth 2 the barrier is deferred to the next batch
        # (or the next view/membership call) via :meth:`flush`.
        if self._pipeline_depth > 1:
            self._pending_commit = True
        else:
            barrier_started = time.perf_counter()
            try:
                with self._obs.span("cluster.commit_barrier"):
                    self._store.commit()
            except Exception:
                if self._store.supports_rollback and not self._store.closed:
                    self._store.rollback()
                raise
            finally:
                self._barrier_seconds += time.perf_counter() - barrier_started
        self._obs_cluster_batches.inc()
        self._maybe_auto_rebalance(busy_before)
        return report

    def flush(self) -> None:
        """Land the deferred commit barrier of a pipelined batch.

        No-op unless ``pipeline_depth`` is 2 and a batch is pending.
        Runs at the start of the next ingest and before any view or
        membership operation, so the deferred window is invisible to
        callers — reads always observe fully committed state.
        """
        if not self._pending_commit:
            return
        self._pending_commit = False
        barrier_started = time.perf_counter()
        try:
            with self._obs.span("cluster.commit_barrier"):
                self._store.commit()
        except Exception:
            if self._store.supports_rollback and not self._store.closed:
                self._store.rollback()
            raise
        finally:
            self._barrier_seconds += time.perf_counter() - barrier_started

    def _maybe_auto_rebalance(self, busy_before: Dict[str, float]) -> None:
        """Feed the skew watcher one batch; rebalance when it fires.

        Runs strictly *after* the commit barrier, so a triggered
        rebalance behaves exactly like a manual between-batches
        :meth:`rebalance` (re-fence moved shards, resync new owners).
        """
        if self._skew_watcher is None:
            return
        busy = {
            node_id: node.busy_seconds - busy_before.get(node_id, 0.0)
            for node_id, node in self._nodes.items()
        }
        if self._skew_watcher.observe(busy):
            self.rebalance()

    def _ingest_on(self, node: _EngineNode, sub_batch: List[Offer]) -> IngestReport:
        started = time.perf_counter()
        try:
            return node.engine.ingest(sub_batch)
        except Exception as exc:  # noqa: BLE001 - re-raised via recovery
            raise _NodeFailure(node.node_id, exc) from exc
        finally:
            # Busy time accrues even for an attempt that is later rolled
            # back (the node really did spend it); the routing counters
            # below are applied only once the whole wave succeeded, so a
            # recovery replay never double-counts offers.
            node.busy_seconds += time.perf_counter() - started

    def _dispatch(self, routed: Dict[str, List[Offer]]) -> List[IngestReport]:
        """Run one batch's routed sub-batches on their nodes; first failure wins."""
        ordered = [(node_id, routed[node_id]) for node_id in sorted(routed)]
        if not self._concurrent or len(ordered) == 1:
            results = [
                self._ingest_on(self._nodes[node_id], sub_batch)
                for node_id, sub_batch in ordered
            ]
        else:
            with concurrent.futures.ThreadPoolExecutor(
                max_workers=len(ordered), thread_name_prefix="cluster-node"
            ) as pool:
                futures = [
                    pool.submit(self._ingest_on, self._nodes[node_id], sub_batch)
                    for node_id, sub_batch in ordered
                ]
                results = []
                failure: Optional[_NodeFailure] = None
                for future in futures:
                    try:
                        results.append(future.result())
                    except _NodeFailure as exc:
                        # Deterministic pick: first failed node in id order.
                        if failure is None:
                            failure = exc
                if failure is not None:
                    raise failure
        for node_id, sub_batch in ordered:
            node = self._nodes[node_id]
            node.offers_routed += len(sub_batch)
            node.batches += 1
        return results

    # -- views ----------------------------------------------------------------

    def products(self) -> List[Product]:
        """All current synthesized products (same order as a single engine)."""
        self.flush()
        return self._store.sorted_products()

    def num_clusters(self) -> int:
        """Number of clusters tracked so far (including sub-threshold ones)."""
        self.flush()
        return self._store.num_clusters()

    def category_statistics(self, category_id: str) -> Optional[IncrementalTfIdf]:
        """The incremental TF-IDF statistics of one category (or ``None``)."""
        self.flush()
        return self._store.category_stats(category_id)

    def snapshot(self) -> EngineSnapshot:
        """A consistent summary of everything ingested so far."""
        self.flush()
        return EngineSnapshot(
            products=self.products(),
            num_clusters=self.num_clusters(),
            offers_ingested=self._store.num_seen(),
            reconciliation_stats=self._store.reconciliation_stats(),
            assigned_categories=self._store.assigned_categories(),
            category_vocabulary=self._store.category_vocabulary(),
        )

    def transport_stats(self) -> TransportStats:
        """Cluster-wide hint-routing accounting (see :class:`TransportStats`)."""
        return replace(self._coordinator_transport)

    @property
    def routing_seconds(self) -> float:
        """Coordinator time spent deduplicating and routing batches."""
        return self._routing_seconds

    @property
    def barrier_wait_seconds(self) -> float:
        """Coordinator time spent waiting on commit barriers."""
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
        """Flush and close the shared store."""
        if self._closed:
            return
        self._closed = True
        self._obs.remove_provider(self._obs_provider)
        if not self._store.closed:
            self.flush()
        if self._owns_store:
            self._store.close()
        else:
            self._store.commit()

    def __enter__(self) -> "MultiNodeEngine":
        return self

    def __exit__(self, exc_type: object, exc: object, traceback: object) -> None:
        self.close()


def __getattr__(name: str):
    """Lazily re-export the multi-process members from their module.

    ``ProcessNode`` / ``MultiProcessEngine`` live in
    :mod:`repro.runtime.procnode` (which imports the fencing primitives
    from here); resolving them on attribute access keeps
    ``repro.runtime.cluster`` their import home without a cycle.
    """
    if name in ("ProcessNode", "MultiProcessEngine"):
        from repro.runtime import procnode

        return getattr(procnode, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
