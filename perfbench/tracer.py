"""In-memory span tracer that wraps public calls from outside the program.

The benchmark never edits ``src/``: it replaces a method or function
with a wrapper that records a span (name, start, end, parent span id,
trace id) and calls the original.  Spans stay in memory; the run writes
them out when it ends.  A span's self time is its duration minus the
time its child spans cover.

A wrap target that no longer exists (a later refactor renamed it) is
recorded in :attr:`Tracer.missing` and skipped, so the traced run keeps
working and reports that layer as zero.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    """One timed call."""

    span_id: int
    parent_id: Optional[int]
    trace_id: int
    name: str
    start: float
    end: float
    #: Work items the call handled (offers, results, cluster size), if noted.
    size: Optional[int] = None

    @property
    def seconds(self) -> float:
        """Wall time of the call."""
        return self.end - self.start


SizeOf = Callable[[tuple, object], int]


class Tracer:
    """Installs wrappers, collects spans, and removes the wrappers again."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str, size: Optional[SizeOf] = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = getattr(owner, attr, None)
        if original is None or not callable(original):
            self.missing.append(label)
            return
        if isinstance(owner, type):
            # Patch the function found on the class, unbound.
            original = _class_attribute(owner, attr)
        spans = self.spans
        ids = self._ids
        local = self._local

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span_id = next(ids)
            trace_id = parent[1] if parent is not None else span_id
            stack.append((span_id, trace_id))
            started = time.perf_counter()
            noted = None
            try:
                result = original(*args, **kwargs)
                if size is not None:
                    noted = size(args, result)
                return result
            finally:
                ended = time.perf_counter()
                stack.pop()
                parent_id = None if parent is None else parent[0]
                spans.append(Span(span_id, parent_id, trace_id, name, started, ended, noted))

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str, header: Optional[Dict[str, object]] = None) -> None:
        """Write ``header`` (if any), then every span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            if header is not None:
                handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


def _class_attribute(owner: type, attr: str) -> object:
    for klass in owner.__mro__:
        if attr in klass.__dict__:
            return klass.__dict__[attr]
    raise AttributeError(attr)


@dataclass
class LayerTotals:
    """Aggregate of every span with one name."""

    count: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    size: int = 0


def aggregate(spans: Iterable[Span]) -> Dict[str, LayerTotals]:
    """Count, busy time, self time and noted sizes per span name."""
    spans = list(spans)
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] = child_time.get(span.parent_id, 0.0) + span.seconds
    totals: Dict[str, LayerTotals] = {}
    for span in spans:
        entry = totals.setdefault(span.name, LayerTotals())
        entry.count += 1
        entry.busy_s += span.seconds
        # Children of one span run on its thread, one after another, so
        # their summed durations are the part of its interval they cover.
        entry.self_s += max(0.0, span.seconds - child_time.get(span.span_id, 0.0))
        entry.size += span.size or 0
    return totals


def totals_to_dict(totals: Dict[str, LayerTotals]) -> Dict[str, Dict[str, float]]:
    """JSON-friendly form of :func:`aggregate`."""
    return {name: dict(entry.__dict__) for name, entry in sorted(totals.items())}


def read_spans(path: str) -> "Tuple[Dict[str, object], List[Span]]":
    """Read a file written by :meth:`Tracer.write` with a header line."""
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        return header, [Span(**json.loads(line)) for line in handle if line.strip()]


def children_coverage(spans: Iterable[Span], parent_name: str) -> float:
    """Share of ``parent_name`` span time that its direct children cover."""
    spans = list(spans)
    parents = {span.span_id: span for span in spans if span.name == parent_name}
    covered = sum(span.seconds for span in spans if span.parent_id in parents)
    total = sum(span.seconds for span in parents.values())
    return covered / total if total > 0 else 0.0
