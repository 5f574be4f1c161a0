"""In-memory spans for the benchmark's traced run.

Spans are taken from outside the package: ``instrument`` swaps a module
attribute (the name a caller inside ``mixopt`` resolves at call time) for a
wrapper that opens a span around the original function, and puts the
original back on exit. Nothing inside ``src/`` knows it is being traced.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed call. ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; nesting follows the call stack of one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), math.nan, parent, attrs))
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._stack.pop()
            self.spans[idx].end = self.clock()

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` with a span around every call; ``attrs(*args)`` tags the span."""

        def traced(*args, **kwargs):
            with self.span(name, **(attrs(*args, **kwargs) if attrs else {})):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one span never overlap (they come from one call stack),
        so the covered time is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def named(self, name: str, parent: str | None = None) -> list[int]:
        """Indices of spans called ``name``, optionally only under a ``parent``-named span."""
        return [i for i, s in enumerate(self.spans)
                if s.name == name and (parent is None or (
                    s.parent is not None and self.spans[s.parent].name == parent))]

    def child_index(self) -> dict[int, list[int]]:
        """Parent index -> indices of its direct children, in start order."""
        kids: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(i)
        return kids

    def write_jsonl(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            for i, (s, own) in enumerate(zip(self.spans, selfs)):
                fh.write(json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end, "self": own,
                                     **s.attrs}) + "\n")


@contextmanager
def instrument(tracer: Tracer, patches):
    """Replace ``module.attr`` by a traced wrapper for each
    ``(module, attr, span_name, attrs_fn)`` in ``patches``; restore on exit."""
    saved = []
    try:
        for module, attr, name, attrs in patches:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, attrs))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
