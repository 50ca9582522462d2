"""Spans recorded from outside the program, around calls into its layers.

Every call the benchmark makes into ssdkb goes through a tracer's `call`,
and every unit of benchmark work (warm-up, one set-up, one operation, one
output check) through its `op`. Three tracers share that interface:

- `Tracer` records nothing; the end-to-end run uses it.
- `SpanTracer` keeps one span per call in memory (name, start, end,
  parent span, operation id, phase) and charges each garbage collection,
  seen through `gc.callbacks`, to the innermost open span.
- `MemTracer` records the tracemalloc peak of each layer call; it runs in
  a pass of its own because tracemalloc slows allocation several-fold.
"""

from __future__ import annotations

import gc
import json
import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    def call(self, name, fn, *args):
        return fn(*args)

    @contextmanager
    def op(self, name, phase):
        yield


class Span:
    __slots__ = ("id", "name", "phase", "parent", "op", "start", "end", "gc_count", "gc_pause")

    def __init__(self, span_id, name, phase, parent):
        self.id = span_id
        self.name = name
        self.phase = phase
        self.parent = parent
        # spans of one operation share the id of its outermost span
        self.op = parent.op if parent is not None else span_id
        self.start = time.perf_counter()
        self.end = None
        self.gc_count = 0
        self.gc_pause = 0.0

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "phase": self.phase,
            "parent": self.parent.id if self.parent is not None else None,
            "op": self.op,
            "start": self.start,
            "end": self.end,
            "gc_count": self.gc_count,
            "gc_pause_s": self.gc_pause,
        }


class SpanTracer(Tracer):
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._gc_start = None
        gc.callbacks.append(self._on_gc)

    def close(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None and self._open:
            span = self._open[-1]
            span.gc_count += 1
            span.gc_pause += time.perf_counter() - self._gc_start

    def _enter(self, name, phase):
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, phase or parent.phase, parent)
        self.spans.append(span)
        self._open.append(span)
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._open.pop()

    def call(self, name, fn, *args):
        span = self._enter(name, None)
        try:
            return fn(*args)
        finally:
            self._exit(span)

    @contextmanager
    def op(self, name, phase):
        span = self._enter(name, phase)
        try:
            yield
        finally:
            self._exit(span)

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(span.to_json()) + "\n")


class MemTracer(Tracer):
    """Peak traced memory above the level at entry, per layer call. Layer
    calls never nest, so resetting the peak at each entry is safe."""

    def __init__(self):
        self.peaks: list[tuple[str, str, float]] = []  # (phase, name, MiB)
        self._phase = None

    def call(self, name, fn, *args):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return fn(*args)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            self.peaks.append((self._phase, name, (peak - base) / 2**20))

    @contextmanager
    def op(self, name, phase):
        outer = self._phase
        self._phase = phase or outer
        try:
            yield
        finally:
            self._phase = outer
