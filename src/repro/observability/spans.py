"""Hierarchical spans with context propagation across thread hops.

A span is one timed unit of work; spans nest (parent/child links share
a ``trace_id``), and the *current* span travels in a
:class:`contextvars.ContextVar`.  Thread pools do **not** inherit
context variables, so the concurrent layers — the wavefront
:class:`repro.runtime.parallel.ParallelEnactor` submitting firing
tasks and :class:`repro.runtime.service.ExecutionService` workers —
capture :func:`current_span` at submission and re-activate it with
:func:`use_span` inside the task.  That is what makes a
processor firing on a pool thread a *child* of the job span that
queued it.

Spans double as the runtime's exact-attribution carrier: every span
keeps shared counters on its **root** (:meth:`Span.add`), so e.g. an
annotation-store lookup performed three thread-hops deep still counts
against precisely the job that caused it — this replaces the old
window-delta accounting whose counts cross-talked when jobs
overlapped.

Finished spans land in a bounded in-memory recorder
(:func:`recent_spans`) and are emitted as structured events; tracing
can be switched off (:func:`set_tracing`), in which case only spans
started with ``always=True`` (one per runtime job, needed for exact
metrics) are created.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import threading
import time
from collections import deque
from typing import Any, Dict, Iterator, List, Optional

_current: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_current_span", default=None
)

#: Monotonic span-id source; ``itertools.count`` is atomic in CPython.
_ids = itertools.count(1)


class Span:
    """One timed, attributed unit of work in a trace tree."""

    __slots__ = (
        "name", "span_id", "trace_id", "parent_id", "attributes",
        "started_at", "ended_at", "status", "error",
        "_root", "_counters", "_counters_lock",
    )

    def __init__(
        self,
        name: str,
        parent: Optional["Span"] = None,
        attributes: Optional[Dict[str, Any]] = None,
        boundary: bool = False,
    ) -> None:
        token = next(_ids)
        self.name = name
        self.span_id = f"s{token:06d}"
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.started_at = time.perf_counter()
        self.ended_at: Optional[float] = None
        self.status = "started"
        self.error: Optional[str] = None
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        else:
            self.trace_id = f"t{token:06d}"
            self.parent_id = None
        if parent is None or boundary:
            # A counter boundary: descendants attribute here, not to any
            # enclosing trace.  Runtime job spans use this so two jobs
            # queued from one submitter trace never pool their counts.
            self._root = self
            self._counters: Optional[Dict[str, float]] = {}
            self._counters_lock = threading.Lock()
        else:
            self._root = parent._root
            self._counters = None
            self._counters_lock = None

    # -- shared counters (root-attributed) ---------------------------------

    @property
    def root(self) -> "Span":
        """The trace's root span (the attribution target)."""
        return self._root

    def add(self, key: str, amount: float = 1) -> None:
        """Accumulate a named count on this trace's root span.

        Thread-safe; any descendant span — on any thread — adds to the
        same totals, which is how per-job measurements stay exact when
        jobs overlap.
        """
        root = self._root
        with root._counters_lock:
            root._counters[key] = root._counters.get(key, 0) + amount

    def counter(self, key: str, default: float = 0) -> float:
        """One root-accumulated count (0 when never added)."""
        root = self._root
        with root._counters_lock:
            return root._counters.get(key, default)

    def counters(self) -> Dict[str, float]:
        """A copy of every root-accumulated count of this trace."""
        root = self._root
        with root._counters_lock:
            return dict(root._counters)

    # -- lifecycle ---------------------------------------------------------

    def end(self, status: str = "ok", error: Optional[str] = None) -> None:
        """Close the span (idempotent) and record it."""
        if self.ended_at is not None:
            return
        self.ended_at = time.perf_counter()
        self.status = status
        self.error = error
        _recorder.record(self)

    @property
    def duration(self) -> Optional[float]:
        """Wall-clock seconds, or None while running."""
        if self.ended_at is None:
            return None
        return self.ended_at - self.started_at

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready rendering (exporters and the recorder use this)."""
        data: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "status": self.status,
            "duration": self.duration,
        }
        if self.attributes:
            data["attributes"] = dict(self.attributes)
        if self.error is not None:
            data["error"] = self.error
        return data

    def __repr__(self) -> str:
        return (
            f"<Span {self.name!r} {self.trace_id}/{self.span_id} "
            f"({self.status})>"
        )


class _NullSpan:
    """The span handed out while tracing is disabled; records nothing.

    ``add``/``counter`` still work when an *enclosing* real span is
    active — they delegate to it — so exact job attribution survives
    tracing being off.
    """

    __slots__ = ()

    name = "null"
    trace_id = span_id = parent_id = None
    status = "ok"
    duration = None
    attributes: Dict[str, Any] = {}

    def add(self, key: str, amount: float = 1) -> None:
        enclosing = _current.get()
        if enclosing is not None:
            enclosing.add(key, amount)

    def counter(self, key: str, default: float = 0) -> float:
        enclosing = _current.get()
        if enclosing is not None:
            return enclosing.counter(key, default)
        return default

    def counters(self) -> Dict[str, float]:
        enclosing = _current.get()
        if enclosing is not None:
            return enclosing.counters()
        return {}

    def end(self, status: str = "ok", error: Optional[str] = None) -> None:
        pass

    def to_dict(self) -> Dict[str, Any]:
        return {"name": "null"}


_NULL_SPAN = _NullSpan()


class SpanRecorder:
    """A bounded ring of finished spans (newest last)."""

    def __init__(self, capacity: int = 2048) -> None:
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=capacity)

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span.to_dict())

    def recent(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        with self._lock:
            spans = list(self._spans)
        return spans if limit is None else spans[-limit:]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()


_recorder = SpanRecorder()
_tracing_enabled = True


def set_tracing(enabled: bool) -> bool:
    """Switch span creation on or off; returns the previous setting.

    Disabled tracing still creates ``always=True`` spans (one per
    runtime job) because exact metric attribution rides on them.
    """
    global _tracing_enabled
    previous = _tracing_enabled
    _tracing_enabled = enabled
    return previous


def tracing_enabled() -> bool:
    """Whether ordinary (non-``always``) spans are being created."""
    return _tracing_enabled


def current_span() -> Optional[Span]:
    """The calling context's active span, or None."""
    return _current.get()


def recent_spans(limit: Optional[int] = None) -> List[Dict[str, Any]]:
    """Recently finished spans as dicts (bounded ring, newest last)."""
    return _recorder.recent(limit)


def clear_recorded_spans() -> None:
    """Empty the finished-span ring (test isolation)."""
    _recorder.clear()


@contextlib.contextmanager
def start_span(
    name: str, always: bool = False, boundary: bool = False, **attributes: Any
) -> Iterator[Span]:
    """Open a child of the current span, activate it, close on exit.

    A failure inside the block marks the span ``status="error"`` with
    the exception text and re-raises.  ``always=True`` creates the
    span even while tracing is disabled (the runtime's per-job root
    spans carry exact metric attribution and must always exist);
    ``boundary=True`` makes the span its own counter-attribution root
    while keeping the parent/trace linkage.
    """
    if not _tracing_enabled and not always:
        yield _NULL_SPAN
        return
    span = Span(
        name, parent=_current.get(), attributes=attributes, boundary=boundary
    )
    token = _current.set(span)
    try:
        yield span
    except BaseException as exc:
        span.end(status="error", error=f"{type(exc).__name__}: {exc}")
        raise
    finally:
        _current.reset(token)
        span.end()


@contextlib.contextmanager
def use_span(span: Optional[Span]) -> Iterator[Optional[Span]]:
    """Re-activate a captured span on this thread (the pool-hop helper).

    ``None`` is accepted and does nothing, so callers can always write
    ``with use_span(captured):`` around pool tasks.
    """
    if span is None:
        yield None
        return
    token = _current.set(span)
    try:
        yield span
    finally:
        _current.reset(token)


def add_to_current(key: str, amount: float = 1) -> None:
    """Accumulate on the active trace's root span, if any.

    The annotation store calls this per lookup; outside any span (a
    bare ``view.run`` with no runtime) it is a no-op.
    """
    span = _current.get()
    if span is not None:
        span.add(key, amount)
