"""The ``runtime-serve`` process and the HTTP load generator.

One generator process (the benchmark itself) with at most ``nproc``
threads, each holding one connection at a time.  Open-loop requests are
timed from when they were *due*, so a generator stall counts against
the latency it causes; how late the generator ran is reported.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from inputs import Query

_LISTENING = re.compile(r"listening on http://([0-9.]+):([0-9]+)")
REQUEST_TIMEOUT_S = 10.0
START_TIMEOUT_S = 60.0


@dataclass
class Response:
    """One request as the generator saw it."""

    query: Query
    #: ``time.monotonic()`` the request was due (open loop) or sent (closed).
    due: float
    sent: float
    received: float
    status: int
    body: bytes

    @property
    def latency_s(self) -> float:
        """Due-to-received time."""
        return self.received - self.due


class Server:
    """A ``runtime-serve`` child process on an ephemeral port.

    Its stderr (one log line per request) goes to ``/dev/null``: an
    unread pipe fills after ~64 KB and stalls the server.  Stdout goes to
    a file, from which the bound port is parsed.
    """

    def __init__(
        self, argv: Sequence[str], src_dir: str, log_path: str, spans_path: Optional[str] = None
    ) -> None:
        #: Where a traced server writes its spans when it stops (else None).
        self.spans_path = spans_path
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        self._log_path = log_path
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, *argv],
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            self.host, self.port = self._await_listening()
        except BaseException:
            self.stop()
            raise

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _await_listening(self) -> "tuple[str, int]":
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self._log_path, encoding="utf-8", errors="replace") as handle:
                match = _LISTENING.search(handle.read())
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"runtime-serve exited with {self.process.returncode} before listening"
                )
            time.sleep(0.02)
        self.stop()
        raise RuntimeError("runtime-serve did not report a listening port")

    @property
    def pid(self) -> int:
        """Process id of the server."""
        return self.process.pid

    def get(self, path: str) -> "tuple[int, bytes]":
        """One blocking GET against the server."""
        return request(self.host, self.port, path)

    def stop(self) -> None:
        """SIGTERM, then wait; SIGKILL if it does not end in time."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        self._log.close()


def request(host: str, port: int, path: str) -> "tuple[int, bytes]":
    """GET ``path``; returns (status, body)."""
    connection = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        connection.request("GET", path)
        reply = connection.getresponse()
        return reply.status, reply.read()
    finally:
        connection.close()


def _send(server: Server, query: Query, due: float) -> Response:
    sent = time.monotonic()
    try:
        status, body = request(server.host, server.port, query.path)
    except (OSError, http.client.HTTPException) as error:
        status, body = 0, repr(error).encode()
    return Response(query, due, sent, time.monotonic(), status, body)


def open_loop(
    server: Server,
    queries: Sequence[Query],
    rate: float,
    start: float,
    seconds: float,
    threads: int,
) -> List[Response]:
    """Send ``queries[i]`` at ``start + i / rate`` until ``seconds`` elapse."""
    count = min(len(queries), int(seconds * rate))
    responses: List[Optional[Response]] = [None] * count
    cursor = iter(range(count))
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + index / rate
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            responses[index] = _send(server, queries[index], due)

    _run_threads(worker, threads)
    return [response for response in responses if response is not None]


def closed_loop(
    server: Server, queries: Sequence[Query], seconds: float, threads: int
) -> "tuple[List[Response], float]":
    """``threads`` connections back to back; returns responses and elapsed s."""
    responses: List[Response] = []
    cursor = iter(queries)
    lock = threading.Lock()
    started = time.monotonic()
    deadline = started + seconds

    def worker() -> None:
        while time.monotonic() < deadline:
            with lock:
                query = next(cursor, None)
            if query is None:
                return
            response = _send(server, query, time.monotonic())
            with lock:
                responses.append(response)

    _run_threads(worker, threads)
    return responses, time.monotonic() - started


def _run_threads(target, count: int) -> None:
    workers = [threading.Thread(target=target, daemon=True) for _ in range(count)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=600)
        if worker.is_alive():
            raise RuntimeError("load generator thread did not finish")
