"""JSON-over-HTTP serving endpoints (stdlib ``http.server`` only).

The ``runtime-serve`` CLI command and the tests/examples both run this
tiny server: a :class:`CatalogHTTPServer` (threading, optionally with a
bounded worker pool) that answers

* ``GET /search?q=<text>&k=<top-k>&category=<id>&attr=<Name=Value>`` —
  ranked top-k search (``attr`` may repeat; every pair must match),
* ``GET /product/<product-id>`` — full product JSON by id,
* ``GET /health`` — liveness: fleet/replica health, 503 when no replica
  can serve,
* ``GET /lag`` — per-replica pinned ``commit_count`` vs the store head,
* ``GET /stats`` — service, index, and snapshot statistics,
* ``GET /metrics`` — the process metrics registry in Prometheus text
  exposition format (scrape target; see docs/observability.md),
* ``GET /metrics.json`` — the same snapshot as JSON (what the
  ``runtime-obs`` CLI pretty-prints).

Every request is timed into the ``http_request_seconds`` histogram,
labelled by endpoint.

The server fronts either a single
:class:`~repro.serving.service.CatalogSearchService` or a whole
:class:`~repro.serving.fleet.ServingFleet` — the handler only branches
on which endpoints attribute extra routing metadata (``replica``).  All
query semantics (ranking, filters, snapshot discipline, load balancing,
route-around) live below the HTTP layer, which therefore needs no
locking of its own.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro.model.persistence import product_to_dict
from repro.obs import MetricsRegistry, get_registry
from repro.serving.fleet import FleetUnavailableError, ServingFleet
from repro.serving.service import CatalogSearchService

__all__ = ["CatalogHTTPServer", "CatalogRequestHandler", "serve"]

#: Hard cap on ``k`` so a typo cannot ask the index for a million hits.
_MAX_TOP_K = 1000

#: Either back end the server can front.
ServingTarget = Union[CatalogSearchService, ServingFleet]


class CatalogRequestHandler(BaseHTTPRequestHandler):
    """Route table for the serving endpoints."""

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Quiet by default; benchmark traffic would spam one line per request.

        ``CatalogHTTPServer(log_requests=True)`` restores the stdlib
        per-request stderr logging for interactive runs.
        """
        if getattr(self.server, "log_requests", False):
            super().log_message(format, *args)

    @property
    def _target(self) -> ServingTarget:
        return self.server.service  # type: ignore[attr-defined]

    @property
    def _fleet(self) -> Optional[ServingFleet]:
        target = self._target
        return target if isinstance(target, ServingFleet) else None

    def _reply(self, status: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    _ENDPOINTS = ("/search", "/health", "/lag", "/stats", "/metrics", "/metrics.json")

    @property
    def _registry(self) -> "MetricsRegistry":
        return self.server.registry  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler contract
        """Dispatch one GET request to its endpoint (timed per endpoint)."""
        parsed = urlparse(self.path)
        # Bounded label cardinality: known endpoints by literal path,
        # point lookups collapse to "/product", everything else "other".
        if parsed.path in self._ENDPOINTS:
            endpoint = parsed.path
        elif parsed.path.startswith("/product/"):
            endpoint = "/product"
        else:
            endpoint = "other"
        started = time.perf_counter()
        try:
            if parsed.path == "/search":
                self._do_search(parse_qs(parsed.query))
            elif parsed.path.startswith("/product/"):
                self._do_product(parsed.path[len("/product/") :])
            elif parsed.path == "/health":
                self._do_health()
            elif parsed.path == "/lag":
                self._do_lag()
            elif parsed.path == "/stats":
                self._reply(200, self._target.stats())
            elif parsed.path == "/metrics":
                self._do_metrics()
            elif parsed.path == "/metrics.json":
                self._reply(200, self._registry.snapshot())
            else:
                self._error(404, f"unknown endpoint {parsed.path!r}")
        finally:
            self._registry.histogram(
                "http_request_seconds",
                help="Serving endpoint latency, by endpoint.",
                labels={"endpoint": endpoint},
            ).observe(time.perf_counter() - started)

    def _do_metrics(self) -> None:
        """The registry in Prometheus text exposition format."""
        body = self._registry.render().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _parse_search_params(
        self, params: Dict[str, list]
    ) -> Tuple[str, int, Optional[str], Optional[Dict[str, str]]]:
        query = params.get("q", [""])[0]
        if not query.strip():
            raise ValueError("missing or empty query parameter 'q'")
        raw_k = params.get("k", ["10"])[0]
        try:
            top_k = int(raw_k)
        except ValueError:
            raise ValueError(f"parameter 'k' must be an integer, got {raw_k!r}")
        if not 1 <= top_k <= _MAX_TOP_K:
            raise ValueError(f"parameter 'k' must be in [1, {_MAX_TOP_K}], got {top_k}")
        category = params.get("category", [None])[0]
        attributes: Optional[Dict[str, str]] = None
        for pair in params.get("attr", []):
            name, separator, value = pair.partition("=")
            if not separator or not name or not value:
                raise ValueError(
                    f"parameter 'attr' must look like Name=Value, got {pair!r}"
                )
            attributes = attributes or {}
            attributes[name] = value
        return query, top_k, category, attributes

    def _do_search(self, params: Dict[str, list]) -> None:
        try:
            query, top_k, category, attributes = self._parse_search_params(params)
        except ValueError as error:
            self._error(400, str(error))
            return
        payload: Dict[str, object] = {"query": query, "top_k": top_k}
        fleet = self._fleet
        try:
            if fleet is not None:
                response = fleet.search(
                    query, top_k=top_k, category=category, attributes=attributes
                )
                snapshot, results = response.snapshot_commit_count, response.results
                payload["replica"] = response.replica_id
            else:
                snapshot, results = self._target.search_pinned(  # type: ignore[union-attr]
                    query, top_k=top_k, category=category, attributes=attributes
                )
        except FleetUnavailableError as error:
            self._error(503, str(error))
            return
        payload.update(
            {
                "snapshot_commit_count": snapshot,
                "num_results": len(results),
                "results": [result.to_dict() for result in results],
            }
        )
        self._reply(200, payload)

    def _do_product(self, product_id: str) -> None:
        if not product_id:
            self._error(400, "missing product id")
            return
        fleet = self._fleet
        try:
            if fleet is not None:
                replica_id, snapshot, product = fleet.get_product(product_id)
            else:
                replica_id = None
                snapshot, product = self._target.get_product_pinned(product_id)  # type: ignore[union-attr]
        except FleetUnavailableError as error:
            self._error(503, str(error))
            return
        if product is None:
            self._error(404, f"no product with id {product_id!r}")
            return
        payload = product_to_dict(product)
        payload["snapshot_commit_count"] = snapshot
        if replica_id is not None:
            payload["replica"] = replica_id
        self._reply(200, payload)

    def _do_health(self) -> None:
        fleet = self._fleet
        if fleet is not None:
            payload = fleet.health()
            self._reply(200 if payload["healthy"] else 503, payload)
            return
        service = self._target
        self._reply(
            200,
            {
                "healthy": True,
                "num_replicas": 1,
                "healthy_replicas": 1,
                "snapshot_commit_count": service.snapshot_commit_count,  # type: ignore[union-attr]
            },
        )

    def _do_lag(self) -> None:
        fleet = self._fleet
        if fleet is not None:
            self._reply(200, fleet.lag())
            return
        service = self._target
        snapshot = service.snapshot_commit_count  # type: ignore[union-attr]
        head = service.head_commit_count()  # type: ignore[union-attr]
        entry: Dict[str, object] = {
            "replica_id": 0,
            "healthy": True,
            "snapshot_commit_count": snapshot,
            "lag": max(0, head - snapshot),
            "resync": service.resync_stats(),  # type: ignore[union-attr]
        }
        self._reply(
            200,
            {
                "head_commit_count": head,
                "max_lag_commits": 0,
                "max_lag": max(0, head - snapshot),
                "replicas": [entry],
            },
        )


class CatalogHTTPServer(ThreadingHTTPServer):
    """A threaded HTTP server bound to one service or serving fleet.

    ``port=0`` binds an ephemeral port (tests and examples);
    ``server_address`` reports the actual one after construction.
    Start it with ``serve_forever()`` (blocking) or on a daemon thread.

    By default every connection gets its own thread (the stdlib
    ``ThreadingHTTPServer`` behaviour).  ``max_workers=N`` switches to a
    **bounded worker pool**: accepted connections queue up and exactly
    ``N`` pre-started workers drain them, so a traffic burst degrades
    into queueing delay instead of thousands of threads — the shape a
    replica fleet wants, since more threads than replicas only adds
    lock contention.
    """

    #: Worker threads die with the process; a hung client never blocks
    #: shutdown of a drill or test run.
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: ServingTarget,
        log_requests: bool = False,
        max_workers: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        # The pool fields exist before the socket binds: a failed bind
        # calls server_close(), which must see them to re-raise the
        # bind error instead of an AttributeError.
        self._max_workers = max_workers
        self._work_queue: Optional["queue.Queue[Optional[Tuple[object, object]]]"] = None
        self._workers: List[threading.Thread] = []
        super().__init__(address, CatalogRequestHandler)
        self.service = service
        self.registry = registry if registry is not None else get_registry()
        self.log_requests = log_requests
        if max_workers is not None:
            self._work_queue = queue.Queue()
            for worker_id in range(max_workers):
                worker = threading.Thread(
                    target=self._worker_loop,
                    name=f"http-worker-{worker_id}",
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)

    def process_request(self, request, client_address) -> None:  # noqa: ANN001
        """Hand the accepted connection to the pool (or a fresh thread)."""
        if self._work_queue is None:
            super().process_request(request, client_address)
        else:
            self._work_queue.put((request, client_address))

    def _worker_loop(self) -> None:
        assert self._work_queue is not None
        while True:
            item = self._work_queue.get()
            if item is None:
                return
            request, client_address = item
            # Same finish/shutdown/error handling a per-request thread
            # would run, minus the thread churn.
            self.process_request_thread(request, client_address)

    def server_close(self) -> None:
        """Stop the listener, then drain and join the worker pool."""
        super().server_close()
        if self._work_queue is not None:
            for _ in self._workers:
                self._work_queue.put(None)
            for worker in self._workers:
                worker.join(timeout=5)
            self._workers = []


def serve(
    service: ServingTarget,
    host: str = "127.0.0.1",
    port: int = 8080,
    log_requests: bool = True,
    max_workers: Optional[int] = None,
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Run the serving endpoints until interrupted (the CLI entry point)."""
    server = CatalogHTTPServer(
        (host, port),
        service,
        log_requests=log_requests,
        max_workers=max_workers,
        registry=registry,
    )
    bound_host, bound_port = server.server_address[:2]
    mode = (
        f"fleet of {service.num_replicas} replicas"
        if isinstance(service, ServingFleet)
        else "single service"
    )
    pool = f", {max_workers} workers" if max_workers is not None else ""
    print(f"runtime-serve: listening on http://{bound_host}:{bound_port} ({mode}{pool})")
    print(
        "  endpoints: /search?q=...&k=10  /product/<id>  /health  /lag  /stats"
        "  /metrics  /metrics.json"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nruntime-serve: shutting down")
    finally:
        server.server_close()
        service.close()
