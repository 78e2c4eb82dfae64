"""In-memory spans recorded around calls into the program's public API.

The benchmark never edits the program to trace it.  :class:`Tracer`
replaces a public method on one object (or a function in one module)
with a wrapper that times the call and records a span, and puts the
original back on :meth:`Tracer.uninstall`.  Spans stay in memory until
the run ends and are then written out as JSON lines.

A span carries its name, start, end (``time.perf_counter``, which is
CLOCK_MONOTONIC on Linux and so comparable between the client and the
server process), the ID of the span that caused it, and a request ID
shared by every span of one request.  The context lives in a
thread-local stack; :meth:`Tracer.wrap_pool` carries it onto the shard
fan-out threads by wrapping the executor pool's public ``submit``.
Calls too frequent for a span each (block reads) are only counted, per
request, by :meth:`Tracer.count`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import types
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Name of the synthetic span from ``submit`` to the task's start.
POOL_WAIT = "sharding.pool_wait"


class Span:
    """One timed call.  ``note`` is an optional number the wrapper kept
    from the call (a result count, or the request path for a root)."""

    __slots__ = ("span_id", "name", "start", "end", "parent", "request", "note")

    def __init__(self, span_id, name, start, end, parent, request, note=None):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.note = note

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "Span":
        return cls(
            doc["id"], doc["name"], doc["start"], doc["end"],
            doc["parent"], doc["request"], doc.get("note"),
        )


class Tracer:
    """Records spans from wrappers it installs; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        # itertools.count.__next__ and list.append are atomic under the
        # interpreter lock, so handler and pool threads need no lock here.
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[object, str, bool, object]] = []
        #: ``(request, name) -> calls`` recorded by :meth:`count`.
        self.calls: Counter = Counter()
        self._calls_lock = threading.Lock()

    # ------------------------------------------------------------------
    # context
    # ------------------------------------------------------------------
    def _context(self) -> Tuple[Optional[int], List[int]]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = None
        return local.request, local.stack

    def _run(self, name: str, fn: Callable, args, kwargs, *, root: bool,
             note: Optional[Callable]) -> object:
        request, stack = self._context()
        local = self._local
        opened_request = root and not stack
        if opened_request:
            request = local.request = next(self._request_ids)
        parent = stack[-1] if stack else None
        span_id = next(self._span_ids)
        stack.append(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if opened_request:
                local.request = None
            value = note(args, result) if note is not None else None
            self.spans.append(Span(span_id, name, start, end, parent, request, value))

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str, *, root: bool = False,
             note: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``root`` opens a new request when no span is active on the
        calling thread.  ``note(args, result)`` extracts the span's note.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return self._run(name, original, args, kwargs, root=root, note=note)

        self._patch(owner, attr, wrapper)

    def count(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts its calls,
        per request (for calls too frequent to record each as a span)."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            request, _ = self._context()
            with self._calls_lock:  # shard threads count concurrently
                self.calls[(request, name)] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def wrap_pool(self, pool: object) -> None:
        """Carry the request context onto ``pool``'s worker threads.

        Each submitted task records a :data:`POOL_WAIT` span from the
        ``submit`` call to the moment a worker starts it, then runs with
        the submitter's request ID and innermost span as its parent.
        """
        original_submit = pool.submit

        def submit(fn, *args, **kwargs):
            request, stack = self._context()
            parent = stack[-1] if stack else None
            submitted = time.perf_counter()

            def task():
                started = time.perf_counter()
                self.spans.append(Span(next(self._span_ids), POOL_WAIT, submitted,
                                       started, parent, request))
                _, task_stack = self._context()
                saved = (self._local.request, list(task_stack))
                self._local.request = request
                task_stack[:] = [parent] if parent is not None else []
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._local.request = saved[0]
                    task_stack[:] = saved[1]

            return original_submit(task)

        self._patch(pool, "submit", submit)

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        had_own = isinstance(owner, types.ModuleType) or attr in vars(owner)
        self._installed.append((owner, attr, had_own, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put back every original, newest first."""
        while self._installed:
            owner, attr, had_own, original = self._installed.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write every span, then every call count, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), separators=(",", ":")) + "\n")
            for (request, name), calls in self.calls.items():
                line = {"calls": name, "request": request, "n": calls}
                handle.write(json.dumps(line, separators=(",", ":")) + "\n")


def read_trace(path: str) -> Tuple[List[Span], Counter]:
    """What :meth:`Tracer.write` wrote: the spans and the call counts."""
    spans, calls = [], Counter()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            doc = json.loads(line)
            if "calls" in doc:
                calls[(doc["request"], doc["calls"])] += doc["n"]
            else:
                spans.append(Span.from_dict(doc))
    return spans, calls


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span ID -> self time: duration minus the part of the span's
    interval that its children cover (children on parallel threads may
    overlap; their union counts once)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = span.duration - covered
    return result
