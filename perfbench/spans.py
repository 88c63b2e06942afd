"""In-memory host-time spans recorded around calls into the program.

A traced pass opens one span per layer call (``sqlflow.compile``,
``parallelism.split``, ``engine.run``, ``caching.fetch`` ...); the
name up to its first dot is the layer's module.  Spans nest: a span
opened while another is open becomes its child and, unless given its
own, shares the parent's request id.  A span's *self time* is its
duration minus the time its child spans cover, so the cache calls made
from inside ``engine.run`` are charged to ``caching`` and not twice.

Untraced passes use :data:`NULL_SPANS`, whose ``span()`` is a shared
no-op context manager, so the end-to-end numbers carry no recording
cost.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, List, Optional

from hostspeed import clock


class _Span:
    __slots__ = ("recorder", "name", "rid", "parent", "start", "end")

    def __init__(self, recorder: "Spans", name: str, rid: Optional[str]) -> None:
        self.recorder = recorder
        self.name = name
        self.rid = rid
        self.parent: Optional[int] = None
        self.start = 0.0
        self.end = 0.0

    def __enter__(self) -> "_Span":
        stack = self.recorder._stack
        if stack:
            self.parent = stack[-1]
            if self.rid is None:
                self.rid = self.recorder.spans[self.parent].rid
        self.recorder.spans.append(self)
        stack.append(len(self.recorder.spans) - 1)
        self.start = clock()
        return self

    def __exit__(self, *exc) -> None:
        self.end = clock()
        self.recorder._stack.pop()


class Spans:
    """Records spans in memory; :meth:`dump` writes them out at the end."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[_Span] = []
        self._stack: List[int] = []

    def span(self, name: str, rid: Optional[str] = None) -> _Span:
        return _Span(self, name, rid)

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name, in seconds."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span.name] += span.end - span.start - child_time[index]
        return dict(totals)

    def to_records(self, origin: float) -> List[dict]:
        return [
            {
                "name": span.name,
                "rid": span.rid,
                "parent": span.parent,
                "start_us": round((span.start - origin) * 1e6, 1),
                "end_us": round((span.end - origin) * 1e6, 1),
            }
            for span in self.spans
        ]


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


class _NullSpans:
    enabled = False
    _span = _NullSpan()

    def span(self, name: str, rid: Optional[str] = None) -> _NullSpan:
        return self._span


NULL_SPANS = _NullSpans()


def dump_spans(path: str, passes: List[Spans]) -> None:
    """Write every traced pass's spans as one JSON document."""
    origin = min((s.spans[0].start for s in passes if s.spans), default=0.0)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"passes": [spans.to_records(origin) for spans in passes]},
            handle,
            separators=(",", ":"),
        )
