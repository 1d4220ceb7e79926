"""Benchmark-side tracing: spans around calls into each layer.

Nothing under ``src/`` is edited.  The benchmark wraps bound methods of
the objects it constructs (``platform.scanner.scan``, the store's
``write_shards`` …) on the *instance*, so a span is recorded where one
layer calls into the next.  Spans stay in memory and are written out
once, when the workload ends.

A span carries ``name``, ``start``, ``end``, the ``parent`` span that
caused it and the ids (``round`` / ``request``) it shares with the rest
of that round or request.  The current span lives in a context
variable, which asyncio copies into every task and ``to_thread`` call,
so parents survive the pipeline's stage tasks and the writer thread.

Per-probe and per-page boundaries are too many for a span each: they
go through :meth:`Tracer.add`, which keeps a count and a time sum, both
overall and under the span that was current.
"""

from __future__ import annotations

import contextvars
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    ids: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(span: Span, children: list[Span]) -> float:
    """A span's duration minus the part of it its children cover:
    overlapping children count once and a child is clipped to its
    parent's interval."""
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        begin = max(child.start, reach)
        end = min(child.end, span.end)
        if end > begin:
            covered += end - begin
            reach = end
    return span.duration - covered


class Tracer:
    """Records spans and counts; a disabled tracer records nothing and
    wraps nothing, so the untraced pass runs the product's own code."""

    def __init__(self, enabled: bool, clock=time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span] = []
        # next() on a count is atomic, so the writer thread and the
        # event loop never hand out the same id.
        self._ids = itertools.count()
        #: name -> [count, seconds]; ``"name<parent"`` holds the share
        #: recorded while a span called *parent* was current.
        self.counts: dict[str, list] = {}
        # Large pages are extracted on an executor thread while the
        # event loop keeps counting probes.
        self._counts_lock = threading.Lock()
        self._current: contextvars.ContextVar[Span | None] = (
            contextvars.ContextVar("perf_span", default=None)
        )

    @contextmanager
    def span(self, name: str, **ids):
        if not self.enabled:
            yield None
            return
        parent = self._current.get()
        span = Span(
            id=next(self._ids), name=name, start=self.clock(),
            parent=parent.id if parent else None,
            ids={**(parent.ids if parent else {}), **ids},
        )
        self.spans.append(span)
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._current.reset(token)

    def record(self, name: str, start: float, end: float,
               parent: Span | None = None, **ids) -> Span | None:
        """Append a span whose interval was measured elsewhere (the
        load generator stamps each request as it goes)."""
        if not self.enabled:
            return None
        span = Span(
            id=next(self._ids), name=name, start=start, end=end,
            parent=parent.id if parent else None,
            ids={**(parent.ids if parent else {}), **ids},
        )
        self.spans.append(span)
        return span

    def add(self, name: str, seconds: float, n: int = 1) -> None:
        """Count *n* events taking *seconds* at a high-fan-out boundary."""
        if not self.enabled:
            return
        keys = [name]
        parent = self._current.get()
        if parent is not None:
            keys.append(f"{name}<{parent.name}")
        with self._counts_lock:
            for key in keys:
                slot = self.counts.setdefault(key, [0, 0.0])
                slot[0] += n
                slot[1] += seconds

    def wrap(self, obj, attr: str, name: str, *, counted: bool = False):
        """Replace ``obj.attr`` (a bound method, sync or async) on the
        instance with one that records a span — or, with *counted*, a
        count and a time sum — around every call."""
        if not self.enabled:
            return
        fn = getattr(obj, attr)

        @contextmanager
        def recorded():
            if counted:
                begun = self.clock()
                try:
                    yield
                finally:
                    self.add(name, self.clock() - begun)
            else:
                with self.span(name):
                    yield

        if inspect.iscoroutinefunction(fn):
            async def wrapper(*args, **kwargs):
                with recorded():
                    return await fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                with recorded():
                    return fn(*args, **kwargs)
        setattr(obj, attr, wrapper)

    # -- reading back ---------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(span.duration for span in self.named(name))

    def self_total(self, name: str) -> float:
        """Summed self time of every span called *name*."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        return sum(
            self_time(span, children.get(span.id, []))
            for span in self.named(name)
        )

    def count(self, name: str) -> int:
        return self.counts.get(name, [0, 0.0])[0]

    def seconds(self, name: str) -> float:
        return self.counts.get(name, [0, 0.0])[1]

    def write(self, path) -> None:
        """One JSON object per line: every span, then every count."""
        if not self.enabled:
            return
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "id": span.id, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent, **span.ids,
                }) + "\n")
            for name, (n, seconds) in sorted(self.counts.items()):
                out.write(json.dumps(
                    {"count": name, "n": n, "seconds": seconds}
                ) + "\n")
