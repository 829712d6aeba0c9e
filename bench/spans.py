"""In-memory span recorder that wraps functions where the program looks them up.

`Recorder.wrap(owner, attr, name)` replaces `owner.attr` (a module function or
a class method) with a wrapper that records one span per call: name, start,
end, parent span and query id. Spans stay in memory until the caller dumps
them; `restore()` puts every original back. A layer's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    query_id: str = ""
    attrs: dict = field(default_factory=dict)
    error: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Single-threaded span recorder; the benchmark calls the program serially."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Record a span per call of `owner.attr`.

        `describe(args, kwargs, result)` returns the span's attrs. It runs after
        the span has ended but inside its parent, so it must stay cheap.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            query_id = kwargs.get("query_id") or (
                self.spans[parent].query_id if parent is not None else ""
            )
            span = Span(name, 0.0, parent=parent, query_id=query_id)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.error = type(exc).__name__
                raise
            finally:
                self._stack.pop()
            span.end = time.perf_counter()
            if describe is not None:
                span.attrs = describe(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [s.duration - covered(children[i], s.start, s.end) for i, s in enumerate(spans)]


def max_overlap(intervals: list[tuple[float, float]]) -> int:
    """Largest number of intervals open at one instant."""
    events = sorted([(lo, 1) for lo, _ in intervals] + [(hi, -1) for _, hi in intervals])
    best = current = 0
    for _, step in events:
        current += step
        best = max(best, current)
    return best
