"""Thread-safe span tracing with a process-safe no-op default.

A :class:`Span` is one timed operation — a mapping-pipeline stage, an
evaluation wave, a suite's profile build — with an id, a parent id, a
monotonic duration, a status and a free-form attribute dict.  A
:class:`Tracer` produces spans as context managers, keeps a per-thread
span stack (so nested spans parent automatically), aggregates named
counters, and buffers everything in memory until a collector drains the
buffer into a :class:`~repro.trace.db.TraceDB`.

The module-level default tracer is a :class:`NullTracer`: every
instrumentation point in the engine, the mapping pipeline and the store
layer calls :func:`get_tracer` unconditionally, and the no-op keeps that
call at a few hundred nanoseconds — untraced runs pay ~zero cost.  The
null tracer carries no state at all, so it is trivially safe across
``fork`` and pickling.

Process model: a real :class:`Tracer` buffers in the process that created
it, and the trace DB is only ever written by the process that opened it
(see :class:`repro.trace.db.TraceDB`).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Span status values.
STATUS_OK = "ok"
STATUS_ERROR = "error"

#: Well-known span kinds (free-form — these are the ones the repo emits).
SPAN_KINDS: Tuple[str, ...] = (
    "campaign",
    "suite",
    "wave",
    "stage",
    "eval",
    "span",
)


@dataclass
class TraceBatch:
    """One drain of a tracer: finished spans, counter deltas, annotations."""

    spans: List[dict] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    annotations: List[dict] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.spans or self.counters or self.annotations)


class Span:
    """One timed operation; use as a context manager or via :meth:`end`.

    Spans measure with ``time.perf_counter`` (monotonic) and stamp a
    wall-clock start time for cross-process ordering.  Exiting the
    context manager with an exception sets the status to ``"error"``
    (and re-raises); everything else ends ``"ok"`` unless
    :meth:`end` was given an explicit status.
    """

    __slots__ = (
        "tracer",
        "name",
        "kind",
        "span_id",
        "parent_id",
        "attributes",
        "status",
        "start_ts",
        "duration_s",
        "_t0",
        "_ended",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        kind: str,
        span_id: str,
        parent_id: Optional[str],
        attributes: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.kind = kind
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes = attributes
        self.status = STATUS_OK
        self.start_ts = time.time()
        self.duration_s = 0.0
        self._t0 = time.perf_counter()
        self._ended = False

    def set(self, key: str, value: Any) -> "Span":
        """Attach one attribute; chainable."""
        self.attributes[key] = value
        return self

    def end(self, status: Optional[str] = None) -> None:
        """Finish the span (idempotent) and hand its record to the tracer."""
        if self._ended:
            return
        self._ended = True
        self.duration_s = time.perf_counter() - self._t0
        if status is not None:
            self.status = status
        self.tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end(STATUS_ERROR if exc_type is not None else None)


class _NullSpan:
    """The do-nothing span the null tracer hands out (one shared instance)."""

    __slots__ = ()
    span_id = ""
    parent_id = None
    status = STATUS_OK
    attributes: Dict[str, Any] = {}

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self

    def end(self, status: Optional[str] = None) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    """The process-safe default: every operation is a no-op.

    Stateless by construction — forking, pickling or sharing it between
    threads cannot go wrong, and the per-call cost is one attribute check
    plus a constant return.
    """

    active = False

    def span(self, name: str, kind: str = "span", parent_id: Optional[str] = None, **attributes: Any) -> _NullSpan:
        return NULL_SPAN

    def record_span(
        self,
        name: str,
        kind: str = "span",
        duration_s: float = 0.0,
        status: str = STATUS_OK,
        parent_id: Optional[str] = None,
        **attributes: Any,
    ) -> None:
        pass

    def counter(self, name: str, value: float = 1.0) -> None:
        pass

    def annotate(self, message: str, **attributes: Any) -> None:
        pass

    def drain(self) -> TraceBatch:
        return TraceBatch()

    @property
    def current_span_id(self) -> Optional[str]:
        return None

    @property
    def pending(self) -> int:
        return 0


class Tracer:
    """Thread-safe span factory and in-memory buffer.

    Span ids are ``"<pid hex>-<sequence hex>"``: unique within a process,
    and unique across forked processes sharing one trace DB because the
    pid prefix diverges at fork (the inherited sequence counter cannot
    collide).
    """

    active = True

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._spans: List[dict] = []
        self._counters: Dict[str, float] = {}
        self._annotations: List[dict] = []
        self._stacks = threading.local()
        #: Lifetime totals (never reset by drains).
        self.spans_recorded = 0
        self.counter_increments = 0

    # ------------------------------------------------------------------
    # Span production
    # ------------------------------------------------------------------
    def _stack(self) -> List[str]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    def _next_id(self) -> str:
        return f"{self.pid:x}-{next(self._ids):x}"

    @property
    def current_span_id(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1] if stack else None

    def span(
        self, name: str, kind: str = "span", parent_id: Optional[str] = None, **attributes: Any
    ) -> Span:
        """Open a span; parents to the thread's innermost open span."""
        if parent_id is None:
            parent_id = self.current_span_id
        span = Span(self, name, kind, self._next_id(), parent_id, attributes)
        self._stack().append(span.span_id)
        return span

    def record_span(
        self,
        name: str,
        kind: str = "span",
        duration_s: float = 0.0,
        status: str = STATUS_OK,
        parent_id: Optional[str] = None,
        **attributes: Any,
    ) -> None:
        """Record an already-measured span without the context manager."""
        if parent_id is None:
            parent_id = self.current_span_id
        record = {
            "span_id": self._next_id(),
            "parent_id": parent_id,
            "name": name,
            "kind": kind,
            "start_ts": time.time() - duration_s,
            "duration_s": duration_s,
            "status": status,
            "pid": self.pid,
            "thread": threading.current_thread().name,
            "attrs": dict(attributes),
        }
        with self._lock:
            self._spans.append(record)
            self.spans_recorded += 1

    def _finish(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] == span.span_id:
            stack.pop()
        elif span.span_id in stack:  # out-of-order end; drop it anyway
            stack.remove(span.span_id)
        record = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "kind": span.kind,
            "start_ts": span.start_ts,
            "duration_s": span.duration_s,
            "status": span.status,
            "pid": self.pid,
            "thread": threading.current_thread().name,
            "attrs": dict(span.attributes),
        }
        with self._lock:
            self._spans.append(record)
            self.spans_recorded += 1

    # ------------------------------------------------------------------
    # Counters and annotations
    # ------------------------------------------------------------------
    def counter(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the named counter (aggregated until drained)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value
            self.counter_increments += 1

    def annotate(self, message: str, **attributes: Any) -> None:
        """Attach a timestamped note to the current span (or the trace root)."""
        record = {
            "span_id": self.current_span_id,
            "ts": time.time(),
            "message": message,
            "attrs": dict(attributes),
        }
        with self._lock:
            self._annotations.append(record)

    # ------------------------------------------------------------------
    # Buffer management
    # ------------------------------------------------------------------
    def drain(self) -> TraceBatch:
        """Atomically take everything buffered since the previous drain."""
        with self._lock:
            batch = TraceBatch(self._spans, self._counters, self._annotations)
            self._spans = []
            self._counters = {}
            self._annotations = []
        return batch

    @property
    def pending(self) -> int:
        """Buffered span records awaiting a drain."""
        with self._lock:
            return len(self._spans)


#: The installed tracer every instrumentation point consults.
_TRACER = NullTracer()


def get_tracer():
    """The currently installed tracer (the no-op default unless replaced)."""
    return _TRACER


def set_tracer(tracer) -> object:
    """Install ``tracer`` globally; returns the one it replaced."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous
