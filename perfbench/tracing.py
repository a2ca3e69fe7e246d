"""Spans and counts recorded around the benchmark's calls into ``ddna``.

A disabled tracer hands out one shared no-op context, so untraced runs pay
a method call per span and nothing else.  An enabled tracer keeps every
span in memory: its name, the index of the op it belongs to, start, end,
and how many calls it covers (a batch of ``n`` calls is one span).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

_OFF = nullcontext()


@dataclass
class Span:
    name: str
    op: int
    start: float
    end: float
    calls: int
    size: int = 0


class _Open:
    __slots__ = ("tracer", "name", "calls", "start")

    def __init__(self, tracer: "Tracer", name: str, calls: int):
        self.tracer, self.name, self.calls = tracer, name, calls

    def __enter__(self) -> None:
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer.spans.append(Span(self.name, tracer.op, self.start, end, self.calls))


@dataclass
class Tracer:
    on: bool = False
    op: int = -1
    counting: bool = False
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)

    def span(self, name: str, calls: int = 1):
        if not self.on:
            return _OFF
        return _Open(self, name, calls)

    def size(self, value: int) -> None:
        """Attach an output size to the span that ended last."""
        if self.on:
            self.spans[-1].size = value

    def count(self, name: str, value: float) -> None:
        """Add to a count; only during the one pass that counts are taken on."""
        if self.counting:
            self.counts[name] = self.counts.get(name, 0) + value

    def per_call_ms(self, name: str) -> list[tuple[Span, float]]:
        """Each span called ``name`` with its milliseconds per call."""
        return [(s, (s.end - s.start) * 1000 / s.calls) for s in self.spans if s.name == name and s.calls]

    def per_size_us(self, name: str) -> float:
        """Summed time of the spans called ``name`` per unit of their size."""
        spans = [s for s in self.spans if s.name == name]
        size = sum(s.size for s in spans)
        return sum(s.end - s.start for s in spans) * 1e6 / size if size else 0.0
