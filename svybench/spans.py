"""In-memory spans taken around calls into the package's public functions.

A span records its name, start, end, parent span and counts attached to
it.  ``patched`` swaps a module attribute for a wrapper that opens a span,
so the package's own call sites are traced without editing the package;
the original is restored on exit.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

_NAME, _START, _END, _PARENT, _COUNTS = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Open a span; the yielded dict takes counts for it."""
        counts: dict = {}
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, counts]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield counts
        finally:
            rec[_END] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """fn(*args, **kwargs) inside a span; ``count(result, args, kwargs)``
        returns counts to attach."""
        with self.span(name) as counts:
            out = fn(*args, **kwargs)
            if count is not None:
                counts.update(count(out, args, kwargs))
        return out

    @contextmanager
    def patched(self, targets):
        """targets: (module, attribute, span name, count or None) tuples."""
        saved = []
        try:
            for module, attr, name, count in targets:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrapper(fn, name, count))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _wrapper(self, fn, name, count):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, **kwargs)
        return traced

    def busy(self, name: str) -> float:
        return sum(s[_END] - s[_START] for s in self.spans if s[_NAME] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[_NAME] == name)

    def records(self, name: str) -> list[tuple[float, dict]]:
        """(duration, counts) of every span with this name."""
        return [(s[_END] - s[_START], s[_COUNTS]) for s in self.spans if s[_NAME] == name]

    def total(self, name: str, key: str) -> float:
        return sum(c.get(key, 0) for _, c in self.records(name))


class NullTracer(Tracer):
    """Same interface, records nothing: the untraced path."""

    @contextmanager
    def span(self, name: str):
        yield {}


def span_cost_s(n: int = 20000) -> float:
    """Mean cost one traced call adds over the bare call, measured now."""
    def noop():
        return None

    traced = Tracer()._wrapper(noop, "calibrate", None)
    t0 = time.perf_counter()
    for _ in range(n):
        traced()
    t1 = time.perf_counter()
    for _ in range(n):
        noop()
    return max(0.0, ((t1 - t0) - (time.perf_counter() - t1)) / n)
