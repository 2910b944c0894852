"""In-memory spans recorded around calls into the program's layers.

The benchmark times each layer from the outside: :meth:`Tracer.wrap`
replaces a public function (a module attribute or a method in a class
``__dict__``) with a wrapper that records a span around every call, and
:meth:`Tracer.remove` puts the original objects back.  Nothing inside
the program changes; a later change can move spans into the program
itself.

A span records its name, start and end (``perf_counter_ns``), its
parent span (the innermost open span on the same thread) and the
request id current when it opened.  Spans stay in memory until
:meth:`Tracer.dump` writes them out after the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict

__all__ = ["Span", "Tracer", "layer_times", "covered_ns"]


class Span:
    """One timed call."""

    __slots__ = ("name", "start", "end", "parent", "request", "info")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.info = None

    @property
    def duration(self) -> int:
        return self.end - self.start

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start_ns": self.start,
                "end_ns": self.end, "parent": self.parent,
                "request": self.request, "info": self.info}


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Use as a context manager: wrappers installed inside the ``with``
    block are removed on exit, whatever happens inside it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        #: Request id stamped on spans opened from now on.
        self.request = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        """Start a span under the innermost open span of this thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, time.perf_counter_ns(), parent, self.request)
        with self._lock:  # the index must be this span's, not a peer's
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()

    def record(self, name: str, start_ns: int, end_ns: int,
               request=None) -> Span:
        """Add a finished root span timed by the caller.

        For calls that ``await``: coroutines interleave on one thread,
        so an open span around an ``await`` would adopt the spans of
        whichever coroutine runs while it waits.
        """
        span = Span(name, start_ns, None, request)
        span.end = end_ns
        with self._lock:
            self.spans.append(span)
        return span

    # -- wrappers ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, observe=None) -> bool:
        """Wrap ``owner.attr`` (a plain synchronous function in
        ``owner.__dict__``) so every call records a span ``name``.

        ``observe(span, args, kwargs, result)`` runs after each call
        that returned.  Returns False, wrapping nothing, when the
        attribute is absent or not such a function, so a benchmark
        built against one version of the program still runs on the
        next.
        """
        original = vars(owner).get(attr)
        if not inspect.isfunction(original) \
                or inspect.iscoroutinefunction(original):
            return False

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        return True

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patches)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- output --------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_dict(i), default=str) + "\n")


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of ``[lo, hi)`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def layer_times(spans: list[Span], layer_of) -> dict:
    """Per-layer ``calls``, ``total_ns`` and ``self_ns``.

    ``layer_of(name)`` maps a span name to its layer.  A layer's calls
    and total time count only its outermost spans (a span whose
    ancestors all belong to other layers), so a layer function calling
    another function of the same layer is counted once.  Self time is
    a span's duration minus the part of it covered by its nearest
    descendants from other layers.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)

    def layer_ancestor(i: int, layer) -> bool:
        p = spans[i].parent
        while p is not None:
            if layer_of(spans[p].name) == layer:
                return True
            p = spans[p].parent
        return False

    def foreign(i: int, layer) -> list:
        out = []
        for c in children.get(i, ()):
            if layer_of(spans[c].name) == layer:
                out.extend(foreign(c, layer))
            else:
                out.append((spans[c].start, spans[c].end))
        return out

    totals: dict = {}
    for i, span in enumerate(spans):
        layer = layer_of(span.name)
        if layer is None or layer_ancestor(i, layer):
            continue
        entry = totals.setdefault(layer,
                                  {"calls": 0, "total_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["total_ns"] += span.duration
        entry["self_ns"] += span.duration - covered_ns(
            foreign(i, layer), span.start, span.end)
    return totals
