"""In-memory span tracer that times the program's public calls from outside.

The benchmark never edits the program: it swaps a module or class
attribute for a timing wrapper while a traced op runs and puts the original
back afterwards.  A span records its name, start, end, parent span and op
id; spans stay in memory until the run writes them out.

A span opened on a worker thread has no open span on its own thread, so it
hangs off the op's root span.  Self times are exact for single-threaded
ops; for multi-threaded ops only whole-call durations are meaningful.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

ROOT_SPAN = "op"


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; one root span per traced op."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: Span | None = None

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one op; every span opened meanwhile belongs to it."""
        self._root = Span(next(self._ids), ROOT_SPAN, op_id, None, time.perf_counter())
        self.spans.append(self._root)
        try:
            yield self._root
        finally:
            self._root.end = time.perf_counter()
            self._root = None

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        root = self._root
        parent = stack[-1].id if stack else (root.id if root else None)
        s = Span(next(self._ids), name, root.op if root else -1, parent, time.perf_counter())
        self.spans.append(s)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str, count=None):
        """``fn`` timed as span ``name``; ``count(result, *args)`` fills its counters.

        Counters are taken after the span closes, so they cost the span nothing.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            if count is not None:
                s.counts.update(count(out, *args, **kwargs))
            return out

        return traced

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


@contextlib.contextmanager
def patched(targets):
    """Replace ``owner.attr`` by ``make(original)`` for each target, then restore."""
    saved = []
    try:
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextlib.contextmanager
def capture(owner, attr: str):
    """Record every result ``owner.attr`` returns while the block runs."""
    results: list = []

    def make(fn):
        @functools.wraps(fn)
        def recording(*args, **kwargs):
            out = fn(*args, **kwargs)
            results.append(out)
            return out

        return recording

    with patched([(owner, attr, make)]):
        yield results


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out
