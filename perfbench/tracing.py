"""In-memory span recording for the benchmark's traced runs.

The program under test is not instrumented.  Instead the benchmark
wraps calls into each module's public functions from its own files
(:meth:`Tracer.wrap`) and records one span per call: an id, the span
that caused it, a request id shared by every span of one request, a
name, and start/end times.  Spans stay in memory until the run ends.

A span's *self time* is its duration minus the part of its interval
that its child spans cover; summing self time by name gives each
layer's share of the work without double counting nested layers.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_json(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "request": self.request,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Span":
        return cls(
            span_id=data["id"],
            parent=data["parent"],
            request=data["request"],
            name=data["name"],
            start=data["start"],
            end=data["end"],
            attrs=dict(data.get("attrs") or {}),
        )


class Tracer:
    """Records spans while ``enabled``; a disabled tracer costs one
    attribute read per wrapped call."""

    def __init__(self, clock=time.perf_counter):
        self.enabled = False
        self._clock = clock
        self._lock = threading.Lock()
        self._ids = itertools.count(1)  # guarded-by: _lock
        self._spans: list[Span] = []  # guarded-by: _lock
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span nested under the span open on this thread."""
        if not self.enabled:
            yield None
            return
        parent = self.current()
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            span_id=span_id,
            parent=parent.span_id if parent is not None else None,
            request=parent.request if parent is not None else span_id,
            name=name,
            start=self._clock(),
            attrs=attrs,
        )
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self._clock()
            stack.pop()
            with self._lock:
                self._spans.append(span)

    @contextmanager
    def adopt(self, parent: Span | None):
        """Make ``parent`` the open span on this thread (pool workers)."""
        stack = self._stack()
        if parent is not None:
            stack.append(parent)
        try:
            yield
        finally:
            if parent is not None:
                stack.pop()

    def take(self) -> list[Span]:
        """Every finished span so far; the tracer starts empty again."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans

    def wrap(self, owner, attr: str, name, attrs=None) -> None:
        """Replace ``owner.attr`` by a version that records a span.

        ``name`` is a string or a callable of the call's arguments;
        ``attrs`` optionally maps the arguments to span attributes.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            extra = attrs(*args, **kwargs) if attrs is not None else {}
            with tracer.span(label, **extra):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)


def propagating_executor(tracer: Tracer):
    """A ThreadPoolExecutor class whose tasks run under the submitting
    thread's open span, so fan-out work nests under its request."""

    class PropagatingExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()

            def run():
                with tracer.adopt(parent):
                    return fn(*args, **kwargs)

            return super().submit(run)

    return PropagatingExecutor


# -- arithmetic over finished spans -------------------------------------------


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    end = None
    start = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if end is None or lo > end:
            if end is not None:
                total += end - start
            start, end = lo, hi
        else:
            end = max(end, hi)
    if end is not None:
        total += end - start
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            kids[span.parent].append(span)
    return kids


def self_times(spans: list[Span]) -> dict[int, float]:
    """span id -> duration minus the union of its children's intervals
    (clipped to the span)."""
    kids = children_of(spans)
    out = {}
    for span in spans:
        covered = union_length(
            [
                (max(k.start, span.start), min(k.end, span.end))
                for k in kids.get(span.span_id, ())
            ]
        )
        out[span.span_id] = max(0.0, span.duration - covered)
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed self time (seconds) per span name."""
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += selfs[span.span_id]
    return dict(totals)


def duration_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed wall duration (seconds) per span name, outermost spans
    only: a span nested in one of the same name is not counted twice."""
    by_id = {span.span_id: span for span in spans}
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None and parent.name == span.name:
            continue
        totals[span.name] += span.duration
    return dict(totals)


def coverage(spans: list[Span], root_name: str) -> tuple[float, float, int]:
    """(covered share, unattributed seconds, root count) over the spans
    named ``root_name``: the share of their wall time that child spans
    cover, and the remainder summed."""
    selfs = self_times(spans)
    roots = [s for s in spans if s.name == root_name]
    wall = sum(s.duration for s in roots)
    unattributed = sum(selfs[s.span_id] for s in roots)
    share = (wall - unattributed) / wall if wall > 0 else 0.0
    return share, unattributed, len(roots)


def fold_time(spans: list[Span], route: str, call: str) -> float:
    """Summed (route duration - slowest child call) over ``route`` spans:
    the router's own time on the critical path of each fan-out."""
    kids = children_of(spans)
    total = 0.0
    for span in spans:
        if span.name != route:
            continue
        calls = [k.duration for k in kids.get(span.span_id, ()) if k.name == call]
        total += span.duration - (max(calls) if calls else 0.0)
    return total
