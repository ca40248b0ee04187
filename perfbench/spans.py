"""Spans and boundary counts recorded from outside the library.

The benchmark wraps public functions of seqrel's modules by rebinding every
module attribute that holds them, so no tracing code lives in the package.
Each call records a span (name, start, end, enclosing span) and, where a
counter is given, counts taken from the call's arguments and result. Spans
stay in memory until the run ends and are summarised there.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "hidden")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts = None
        # seconds spent counting after the span closed; charged to tracing,
        # not to the enclosing span's self time
        self.hidden = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span log with a stack of open spans (one thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def span(self, name: str):
        return _Block(self, name)

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(args, out)
                span.hidden = perf_counter() - span.end
            return out

        return traced


class _Block:
    def __init__(self, rec: Recorder, name: str):
        self.rec, self.name = rec, name

    def __enter__(self):
        rec = self.rec
        self.span = Span(self.name, rec._open[-1] if rec._open else -1)
        rec._open.append(len(rec.spans))
        rec.spans.append(self.span)
        self.span.start = perf_counter()
        return self.span

    def __exit__(self, *exc):
        self.span.end = perf_counter()
        self.rec._open.pop()
        return False


class Instrumentation:
    """Rebinds traced functions in every loaded seqrel module, and back.

    `targets` holds (owner, attribute, span name, counter or None); owner is
    a module or a class. A function imported by name into another module is
    found there by identity and rebound too.
    """

    def __init__(self, recorder: Recorder, targets):
        self.recorder = recorder
        self.targets = targets
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, count in self.targets:
            original = getattr(owner, attr)
            wrapper = self.recorder.wrap(name, original, count)
            holders = [owner] + [m for key, m in list(sys.modules.items())
                                 if m is not None and key.startswith("seqrel")]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()


class Summary:
    """Queries over a finished span log."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        root = []
        for i, s in enumerate(spans):
            root.append(i if s.parent < 0 else root[s.parent])
        self.phase = [spans[r].name for r in root]
        self.child_cost = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                self.child_cost[s.parent] += s.seconds + s.hidden

    def select(self, name: str, phase: str | None = None,
               parent: str | None = None) -> list[int]:
        spans = self.spans
        return [i for i, s in enumerate(spans)
                if s.name == name
                and (phase is None or self.phase[i] == phase)
                and (parent is None
                     or (s.parent >= 0 and spans[s.parent].name == parent))]

    def seconds(self, idx: list[int]) -> list[float]:
        return [self.spans[i].seconds for i in idx]

    def self_seconds(self, idx: list[int]) -> list[float]:
        return [self.spans[i].seconds - self.child_cost[i] for i in idx]

    def total(self, name: str, phase: str | None = None) -> float:
        return sum(self.seconds(self.select(name, phase)))

    def ancestor(self, i: int, names) -> str | None:
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name in names:
                return self.spans[p].name
            p = self.spans[p].parent
        return None
