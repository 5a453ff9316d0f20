"""Spans recorded by the benchmark around its calls into seqtypes.

A `Tracer` keeps every span in memory: layer name, start, end, parent span
and the phase (`setup` or `pass`) it ran in.  A layer's self time is its
span's duration minus the time its direct child spans cover.  `NULL` is
the tracer of untraced runs: it calls the function and records nothing.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    phase: str
    parent: int | None
    start: float
    end: float = 0.0
    child: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


class NullTracer:
    enabled = False

    def call(self, layer, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: int) -> None:
        pass


NULL = NullTracer()


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.phase = "setup"
        self.first_pass_end = 0
        self._stack: list[int] = []

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.phase, parent, time.perf_counter(), attrs=attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            self.spans[span.parent].child += span.end - span.start

    def call(self, layer, fn, *args, **kwargs):
        index = self.open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def count(self, name: str, n: int) -> None:
        """Add to a size counter, and to the outermost open span's attrs."""
        self.counts[(self.phase, name)] += n
        if self._stack:
            attrs = self.spans[self._stack[0]].attrs
            attrs[name] = attrs.get(name, 0) + n

    def layer_totals(self, phase: str) -> dict[str, tuple[float, int]]:
        """Per span name: (self seconds, calls) over the spans of one phase."""
        out: dict[str, list] = {}
        for span in self.spans:
            if span.phase == phase:
                entry = out.setdefault(span.name, [0.0, 0])
                entry[0] += span.self_s
                entry[1] += 1
        return {name: (s, n) for name, (s, n) in out.items()}

    def to_json(self) -> list[dict]:
        return [
            {
                "id": i,
                "name": s.name,
                "phase": s.phase,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "self_s": s.self_s,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for i, s in enumerate(self.spans)
        ]
