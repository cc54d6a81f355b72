"""Clock-aware spans and the tracer that collects them.

A span is an interval ``[t0_ns, t1_ns]`` on *some* clock's timeline plus
a name and a flat attribute dict.  Which clock matters: under simulated
replay the interesting timeline is the :class:`SimulatedClock`'s virtual
nanoseconds (span durations there are exactly the cost-model charges the
work incurred), while backend fan-out is a real-time
quantity stamped on the process monotonic clock.  Every record
therefore carries the *name* of the clock that stamped it, and consumers
(:func:`repro.obs.trace_io.summarize_records`) group by timeline instead
of assuming one.

Two emission styles:

- ``with tracer.span("stepper.stage2", clock=job.clock) as sp:`` — reads
  the clock on entry/exit and maintains a thread-local parent stack, so
  spans emitted *inside* the block (e.g. backend windows during a step)
  nest under it.
- ``tracer.span_at(name, t0, t1, clock=...)`` — explicit timestamps, for
  the engine's queue-wait/step tiling where the interval endpoints are
  already known (``TrackedJob.last_progress_ns`` → now).

The no-op path is load-bearing: :data:`NULL_TRACER` is a shared
singleton whose ``enabled`` is ``False`` and whose ``span()`` hands back
one preallocated context manager — instrumented hot paths guard with
``if tracer.enabled:`` and the untraced engine allocates nothing.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping

__all__ = ["NULL_TRACER", "NullTracer", "SpanRecord", "Tracer"]


def _clock_label(clock) -> str:
    if clock is None or isinstance(clock, str):
        # A string is a timeline label for pre-taken timestamps (callers
        # pass clock="monotonic" with t0/t1 from time.monotonic_ns()).
        return clock or "monotonic"
    return type(clock).__name__


def _now_ns(clock) -> float:
    if clock is None or isinstance(clock, str):
        return float(time.monotonic_ns())
    return clock.elapsed_ns


@dataclass(frozen=True)
class SpanRecord:
    """One finished span (or instantaneous event) as consumers see it."""

    name: str
    t0_ns: float
    t1_ns: float
    kind: str = "span"  # "span" | "event"
    clock: str = "monotonic"
    span_id: int = 0
    parent_id: int | None = None
    attrs: Mapping = field(default_factory=dict)

    @property
    def duration_ns(self) -> float:
        return self.t1_ns - self.t0_ns

    def to_json(self) -> dict:
        """Flat dict matching the JSONL trace schema (``kind`` span/event)."""
        return {
            "kind": self.kind,
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "t0_ns": self.t0_ns,
            "t1_ns": self.t1_ns,
            "clock": self.clock,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "SpanRecord":
        return cls(
            name=obj["name"],
            t0_ns=float(obj["t0_ns"]),
            t1_ns=float(obj["t1_ns"]),
            kind=obj["kind"],
            clock=obj.get("clock", "monotonic"),
            span_id=int(obj["id"]),
            parent_id=obj.get("parent"),
            attrs=obj.get("attrs", {}),
        )


class _NullSpan:
    """The no-op context manager ``NULL_TRACER.span()`` always returns."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: every method is a no-op, nothing is allocated.

    Hot paths additionally guard with ``if tracer.enabled:`` so even the
    argument construction for ``span_at``/``event`` is skipped.
    """

    enabled = False
    clock = None

    def span(self, name: str, /, clock=None, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def span_at(self, name: str, t0_ns: float, t1_ns: float, /, clock=None, **attrs):
        return None

    def event(self, name: str, /, clock=None, **attrs):
        return None

    def subscribe(self, sink) -> None:
        pass


NULL_TRACER = NullTracer()


class _ActiveSpan:
    """Live span from :meth:`Tracer.span`; emits its record on ``__exit__``."""

    __slots__ = ("_tracer", "name", "clock", "attrs", "span_id", "parent_id", "t0_ns")

    def __init__(self, tracer: "Tracer", name: str, clock, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.clock = clock
        self.attrs = attrs
        self.span_id = tracer._next_id()
        self.parent_id = None
        self.t0_ns = 0.0

    def set(self, **attrs) -> "_ActiveSpan":
        """Attach attributes discovered mid-span (e.g. the step's report)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_ActiveSpan":
        stack = self._tracer._stack()
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self.t0_ns = _now_ns(self.clock)
        return self

    def __exit__(self, *exc_info) -> bool:
        t1 = _now_ns(self.clock)
        stack = self._tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        self._tracer._emit(
            SpanRecord(
                name=self.name,
                t0_ns=self.t0_ns,
                t1_ns=t1,
                kind="span",
                clock=_clock_label(self.clock),
                span_id=self.span_id,
                parent_id=self.parent_id,
                attrs=self.attrs,
            )
        )
        return False


class Tracer:
    """Collects spans from every layer and fans them out to sinks.

    Parameters
    ----------
    clock:
        Default time source for spans that don't pass their own (backend
        fan-outs).  ``None`` falls back to the process
        monotonic clock; front doors bind it to the service clock on
        construction so the default timeline matches the engine's.
    max_spans:
        In-memory retention (a deque; oldest dropped).  Sinks see every
        record regardless — retention only bounds :attr:`spans`.

    Sinks subscribe via :meth:`subscribe` and must expose
    ``observe_span(record)``; both :class:`~repro.serving.ServingMetrics`
    (per-stage sketches) and :class:`~repro.obs.trace_io.TraceWriter`
    (JSONL export) implement that seam.  Emission is thread-safe: id
    allocation and retention share one lock, sinks lock themselves.
    """

    enabled = True

    def __init__(self, clock=None, max_spans: int = 65536) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._id = 0
        self.spans: deque[SpanRecord] = deque(maxlen=max_spans)
        self._sinks: list = []
        self._local = threading.local()

    # ------------------------------------------------------------- plumbing

    def _next_id(self) -> int:
        with self._lock:
            self._id += 1
            return self._id

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _emit(self, record: SpanRecord) -> None:
        with self._lock:
            self.spans.append(record)
            sinks = tuple(self._sinks)
        for sink in sinks:
            sink.observe_span(record)

    def subscribe(self, sink) -> None:
        """Register ``sink`` (anything with ``observe_span(record)``)."""
        with self._lock:
            if sink not in self._sinks:
                self._sinks.append(sink)

    # ------------------------------------------------------------- emission

    def span(self, name: str, /, clock=None, **attrs) -> _ActiveSpan:
        """Context manager measuring its block on ``clock`` (or the default).

        ``name`` and the timestamps are positional-only so attribute keys
        of the same spelling (every request span carries a ``name`` attr)
        land in ``attrs`` instead of colliding."""
        return _ActiveSpan(self, name, clock if clock is not None else self.clock, attrs)

    def span_at(
        self, name: str, t0_ns: float, t1_ns: float, /, clock=None, **attrs
    ) -> SpanRecord:
        """Emit a span with explicit endpoints (already-known intervals)."""
        stack = self._stack()
        record = SpanRecord(
            name=name,
            t0_ns=t0_ns,
            t1_ns=t1_ns,
            kind="span",
            clock=_clock_label(clock if clock is not None else self.clock),
            span_id=self._next_id(),
            parent_id=stack[-1] if stack else None,
            attrs=attrs,
        )
        self._emit(record)
        return record

    def event(self, name: str, /, clock=None, **attrs) -> SpanRecord:
        """Instantaneous mark (``t0 == t1``) on ``clock`` (or the default)."""
        resolved = clock if clock is not None else self.clock
        now = _now_ns(resolved)
        stack = self._stack()
        record = SpanRecord(
            name=name,
            t0_ns=now,
            t1_ns=now,
            kind="event",
            clock=_clock_label(resolved),
            span_id=self._next_id(),
            parent_id=stack[-1] if stack else None,
            attrs=attrs,
        )
        self._emit(record)
        return record

    # ----------------------------------------------------------- convenience

    def records(self) -> list[SpanRecord]:
        """Retained records, oldest first (a snapshot copy)."""
        with self._lock:
            return list(self.spans)

    def callback(self) -> Callable[[str], None]:
        """``(name, **attrs) -> None`` adapter for layers that shouldn't
        import the tracer type (e.g. the shared-memory store's ``on_event``)."""

        def emit(name: str, /, **attrs) -> None:
            self.event(name, **attrs)

        return emit
