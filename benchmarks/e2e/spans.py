"""Benchmark-side spans: who called which layer, for how long.

The benchmark wraps every call into a layer of the program
(``load_benchmark``, ``partition``, ``run()``, an HTTP request, ...) in
a span.  A span always times itself — the untraced run reads its
``seconds`` for the end-to-end numbers — but it is *kept* only while
``Tracer.enabled`` is true, so the untraced run allocates nothing that
outlives the call.  Kept spans stay in memory and are written once, at
exit (``--trace-out``).

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; the self times of one job's spans must
add up to the job's independently measured wall (``reconcile``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Span:
    """One timed interval; ``parent`` and ``job`` tie it to its cause."""

    __slots__ = ("id", "name", "job", "parent", "start", "end", "wall")

    def __init__(self, span_id: int, name: str, job, parent) -> None:
        self.id = span_id
        self.name = name
        self.job = job
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        #: Root spans only: the job's wall measured outside the span.
        self.wall: float | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        record = {
            "id": self.id,
            "name": self.name,
            "job": self.job,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }
        if self.wall is not None:
            record["wall"] = self.wall
        return record


class Tracer:
    """Span factory with an in-memory store (single-threaded use)."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, job=None):
        """Time the body; children opened inside nest under it.

        A span without an explicit *job* inherits its parent's, so all
        spans of one request share one identifier.
        """
        parent = self._open[-1] if self._open else None
        self._next_id += 1
        span = Span(
            self._next_id,
            name,
            job if job is not None else (parent.job if parent else None),
            parent.id if parent else None,
        )
        self._open.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if self.enabled:
                self.spans.append(span)


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover.

    Children are clipped to the parent's interval and overlapping
    siblings are counted once, so a child opened outside its parent
    takes nothing from it — and the job it belongs to stops
    reconciling, which is how a mis-nested span shows.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    own: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        own[span.id] = span.seconds - covered
    return own


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Layer (span name) -> total self time over all kept spans."""
    own = self_seconds(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
    return totals


def reconcile(spans: list[Span]) -> list[tuple[Span, float]]:
    """(root span, residual share) for every root that carries a wall.

    The residual is ``|sum of the tree's self times - wall| / wall``:
    zero when every span nests inside its parent and the root covers
    the whole measured wall, large when a span was opened outside its
    job or the job did work no span accounts for.
    """
    own = self_seconds(spans)
    by_id = {span.id: span for span in spans}
    sums: dict[int, float] = {}
    for span in spans:
        top = span
        while top.parent in by_id:
            top = by_id[top.parent]
        sums[top.id] = sums.get(top.id, 0.0) + own[span.id]
    return [
        (by_id[top], abs(total - by_id[top].wall) / by_id[top].wall)
        for top, total in sums.items()
        if by_id[top].wall
    ]
