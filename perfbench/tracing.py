"""In-memory span tracing around the program's public entry points.

The tracer never edits the program: :meth:`Tracer.wrap` replaces an
attribute (a method or module-level function) with a timing wrapper for
the lifetime of the tracer, and :meth:`Tracer.close` puts the originals
back.  Spans nest through a per-thread stack, so a span's parent is the
span open on the same thread when it began.  Spans stay in memory and are
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "thread", "info")

    def __init__(self, name, start, parent, rid, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.rid = rid
        self.thread = thread
        self.info = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


class Tracer:
    """Records ``(name, start, end, parent, request id)`` spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid=None) -> Span:
        stack = self._stack()
        span = Span(
            name,
            time.perf_counter_ns(),
            stack[-1] if stack else None,
            rid,
            threading.get_ident(),
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def add(self, name: str, start_ns: int, end_ns: int, *, rid=None):
        """Record a span measured elsewhere (e.g. a server-reported interval)."""
        span = Span(name, start_ns, None, rid, threading.get_ident())
        span.end = end_ns
        self.spans.append(span)
        return span

    def wrap(self, owner, attr: str, name: str, *, probe=None, after=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``probe(first_argument)`` reads a dict of public counters before
        and after the call; the deltas go to ``span.info``.
        ``after(span, result)`` may attach more to ``span.info``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            before = probe(args[0]) if probe is not None else None
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
                if probe is not None:
                    counts = probe(args[0])
                    span.info = {k: counts[k] - before.get(k, 0) for k in counts}
            if after is not None:
                after(span, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def close(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ---------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.end is not None]

    def children(self) -> dict[int, list[Span]]:
        """Finished spans grouped by the ``id`` of their parent span."""
        index: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None and span.end is not None:
                index[id(span.parent)].append(span)
        return index

    def covered_ms(self, span: Span, names, children) -> float:
        """Time within ``span`` covered by its descendants named in ``names``.

        The search stops at a named span: what runs inside it is its own.
        ``children`` is the index :meth:`children` returns.
        """
        found, stack = [], list(children.get(id(span), ()))
        while stack:
            child = stack.pop()
            if child.name in names:
                found.append(child)
            else:
                stack.extend(children.get(id(child), ()))
        return _covered_ns(span, found) / 1e6

    def self_ms(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus what its children cover."""
        children = self.children()
        out: dict[str, list[float]] = defaultdict(list)
        for span in self.spans:
            if span.end is None:
                continue
            covered = _covered_ns(span, children.get(id(span), ()))
            out[span.name].append((span.end - span.start - covered) / 1e6)
        return out

    def dump(self, path: Path, provenance: dict) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            {
                "name": s.name,
                "start_ns": s.start,
                "end_ns": s.end,
                "parent": None if s.parent is None else index.get(id(s.parent)),
                "rid": s.rid,
                "thread": s.thread,
                **({"info": s.info} if s.info else {}),
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"provenance": provenance, "spans": rows}))


def _covered_ns(span: Span, children) -> int:
    """Length of the union of ``children`` intervals clipped to ``span``."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered = 0
    cur_start = cur_end = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_end is None or lo > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered
