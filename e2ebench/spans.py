"""Request spans for the traced run: recording, self time, per-layer totals.

A span is one call into a layer, made by the benchmark around a public
entry point: ``(name, start, end, parent, request)``.  Spans are kept in
memory and written out when the run ends.  A layer's self time is its
span's duration minus the part of that interval its child spans cover, so
the self times of one request's spans add up to the request's wall time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator, Optional

#: Root span of a request the benchmark composes from stage calls itself;
#: its self time is the benchmark's own glue between those calls.
UNATTRIBUTED = "request"

#: A composed request's layer spans must cover its wall time up to
#: ``max(UNATTRIBUTED_FLOOR_S, UNATTRIBUTED_SHARE * wall)``.
UNATTRIBUTED_FLOOR_S = 0.001
UNATTRIBUTED_SHARE = 0.05


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the parent among its request's spans (None for the root).
    parent: Optional[int]
    request: int


class RequestTrace:
    """The spans and counts of one request."""

    def __init__(self, request: int, case: str, root: str):
        self.request = request
        self.case = case
        self.root_name = root
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time one call into a layer as a child of the innermost open span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a child span whose interval was measured elsewhere."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, start, end, parent, self.request))

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    @property
    def wall(self) -> float:
        return self.spans[0].end - self.spans[0].start

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over this request's spans."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span.name] += (span.end - span.start) - _covered(
                span, children.get(index, ())
            )
        return totals


def _covered(parent: Span, children) -> float:
    """Length of the union of the children's intervals, clipped to the parent."""
    covered = 0.0
    reach = parent.start
    for child in sorted(children, key=lambda span: span.start):
        start = max(child.start, reach)
        end = min(child.end, parent.end)
        if end > start:
            covered += end - start
            reach = end
    return covered


class Tracer:
    """Collects the requests of one traced run."""

    def __init__(self) -> None:
        self.requests: list[RequestTrace] = []

    @contextmanager
    def request(self, case: str, root: str = UNATTRIBUTED) -> Iterator[RequestTrace]:
        trace = RequestTrace(len(self.requests), case, root)
        self.requests.append(trace)
        with trace.span(root):
            yield trace

    def layer_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds per layer and counts per counter, over all requests."""
        seconds: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for trace in self.requests:
            for name, value in trace.self_times().items():
                seconds[name] += value
            for name, value in trace.counts.items():
                counts[name] += value
        return seconds, counts

    def uncovered(self) -> list[RequestTrace]:
        """Composed requests whose layer spans miss more than the tolerance."""
        late = []
        for trace in self.requests:
            if trace.root_name != UNATTRIBUTED:
                continue
            glue = trace.self_times()[UNATTRIBUTED]
            if glue > max(UNATTRIBUTED_FLOOR_S, UNATTRIBUTED_SHARE * trace.wall):
                late.append(trace)
        return late

    def dump(self) -> list[dict]:
        return [asdict(span) for trace in self.requests for span in trace.spans]
