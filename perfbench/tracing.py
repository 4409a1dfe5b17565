"""Span recorder for the traced run.

Spans come only from this benchmark's files: :meth:`Tracer.wrap` replaces a
public function at the module attribute its callers look up (for example
``repairkit.mask.align_statements``) with a wrapper that records a span, and
:class:`ForwardProxy` stands between the decoder and a backend's
``forward``.  Spans stay in memory, each with a name, start, end and parent,
and are written out once the run ends.  A layer's self time is its spans'
duration minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "tag")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent      # index into Tracer.spans, -1 for a root
        self.child_s = 0.0
        self.tag: object = None   # what the wrapped call returned, if asked for

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.active = False
        self.scope = ""           # prefixed to the name of every span begun

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(self.scope + name, perf_counter(),
                               self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def end(self, idx: int, tag: object = None) -> None:
        span = self.spans[idx]
        span.end = perf_counter()
        span.tag = tag
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start

    def call(self, name: str, fn: Callable, *args, keep: Callable | None = None,
             **kwargs):
        """Run ``fn`` inside a span; ``keep(result, args)`` becomes its tag."""
        if not self.active:
            return fn(*args, **kwargs)
        idx = self.begin(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            self.end(idx, keep(result, args) if keep and result is not None else None)

    def wrap(self, module: object, attr: str, name: str,
             keep: Callable | None = None) -> None:
        """Record a span around every call made through ``module.attr``."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, *args, keep=keep, **kwargs)

        setattr(module, attr, traced)
        self._undo.append((module, attr, original))

    def unwrap_all(self) -> None:
        self.active = False
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # -- reading -----------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_total_s(self, name: str) -> float:
        return sum(s.self_s for s in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def p50_ms(self, name: str, self_time: bool = False) -> float:
        vals = [(s.self_s if self_time else s.duration) for s in self.named(name)]
        return 1000.0 * statistics.median(vals) if vals else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0].start if self.spans else 0.0
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                     "start": s.start - t0, "end": s.end - t0}) + "\n")


class ForwardProxy:
    """A backend seen through a counting and timing wrapper.

    Counts forward passes and the token positions fed to them, whatever the
    tracer's state; records a span per pass while the tracer is active.
    """

    def __init__(self, backend: object, tracer: Tracer | None, span_name: str):
        self._backend = backend
        self._tracer = tracer
        self._span = span_name
        self.eos_token = backend.eos_token
        self.concurrent_safe = backend.concurrent_safe
        self.passes = 0
        self.positions = 0

    def forward(self, tokens: Sequence[str]) -> list[str]:
        self.passes += 1
        self.positions += len(tokens)
        if self._tracer is None:
            return self._backend.forward(tokens)
        return self._tracer.call(self._span, self._backend.forward, tokens)
