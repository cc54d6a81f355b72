"""Schema-versioned JSONL traces: write, read, validate, summarize.

One trace file is a header line followed by one JSON object per span or
event, in emission order::

    {"v": 1, "kind": "header", "format": "repro.trace"}
    {"v": 1, "kind": "span", "id": 3, "parent": null, "name": "queue.wait",
     "t0_ns": 0.0, "t1_ns": 81920.0, "clock": "SimulatedClock",
     "attrs": {"name": "q-0", "tenant": "flights"}}

:class:`TraceWriter` is a tracer *sink* (``tracer.subscribe(writer)``),
so recording costs one dict + one line per span and nothing when tracing
is off.  :class:`TraceReader` validates every line on iteration — a trace
that round-trips is schema-correct by construction.

:func:`summarize_records` rebuilds the per-stage time budget the CLI's
``repro trace summarize`` prints: for each lifecycle stage the span
count, total time and p50/p99 durations, plus the tiling check the
acceptance criterion asks for — per request, the queue-wait and
engine-step spans must tile ``[submitted, finished]`` exactly, so their
sum matches the engine's end-to-end latency stamp within one clock tick.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .tracer import SpanRecord

__all__ = [
    "SCHEMA_VERSION",
    "STAGE_OF_SPAN",
    "TraceReader",
    "TraceSchemaError",
    "TraceSummary",
    "TraceWriter",
    "summarize_records",
    "validate_record",
]

SCHEMA_VERSION = 1

#: Span name → lifecycle stage for per-stage aggregation.  ``queue`` and
#: ``step`` tile the request's engine-clock lifetime; ``stage1/2/3`` and
#: ``scan`` split step time by stepper stage; ``shard`` is the
#: real-time (monotonic-clock) backend fan-out cost nested inside steps
#: (``backend.window`` is one fanned-out ``count_blocks``: a whole sampling
#: call's blocks on a worker backend, not one window's — the name is kept).
STAGE_OF_SPAN = {
    "queue.wait": "queue",
    "engine.step": "step",
    "engine.settle": "settle",
    "stepper.stage1": "stage1",
    "stepper.stage2": "stage2",
    "stepper.stage3": "stage3",
    "stepper.scan": "scan",
    "backend.window": "shard",
    "backend.table": "shard",
}


class TraceSchemaError(ValueError):
    """A trace line that does not conform to the span schema."""


def validate_record(obj) -> None:
    """Raise :class:`TraceSchemaError` unless ``obj`` is a valid trace line."""
    if not isinstance(obj, dict):
        raise TraceSchemaError(f"trace line must be an object, got {type(obj).__name__}")
    version = obj.get("v")
    if version != SCHEMA_VERSION:
        raise TraceSchemaError(f"unsupported schema version {version!r}")
    kind = obj.get("kind")
    if kind == "header":
        return
    if kind not in ("span", "event"):
        raise TraceSchemaError(f"unknown record kind {kind!r}")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise TraceSchemaError(f"span name must be a non-empty string, got {name!r}")
    span_id = obj.get("id")
    if not isinstance(span_id, int) or span_id < 1:
        raise TraceSchemaError(f"span id must be a positive int, got {span_id!r}")
    parent = obj.get("parent")
    if parent is not None and not isinstance(parent, int):
        raise TraceSchemaError(f"span parent must be an int or null, got {parent!r}")
    for key in ("t0_ns", "t1_ns"):
        value = obj.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TraceSchemaError(f"{key} must be numeric, got {value!r}")
    if obj["t1_ns"] < obj["t0_ns"]:
        raise TraceSchemaError(
            f"span {span_id} ends before it starts ({obj['t1_ns']} < {obj['t0_ns']})"
        )
    if not isinstance(obj.get("clock"), str):
        raise TraceSchemaError(f"clock must be a string, got {obj.get('clock')!r}")
    if not isinstance(obj.get("attrs", {}), dict):
        raise TraceSchemaError("attrs must be an object")


class TraceWriter:
    """Append-only JSONL trace sink; subscribe it to a :class:`Tracer`."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._file = self.path.open("w", encoding="utf-8")
        self.written = 0
        self._file.write(
            json.dumps({"v": SCHEMA_VERSION, "kind": "header", "format": "repro.trace"})
            + "\n"
        )

    def observe_span(self, record: SpanRecord) -> None:
        line = json.dumps({"v": SCHEMA_VERSION, **record.to_json()}, default=str)
        with self._lock:
            if self._file.closed:
                return
            self._file.write(line + "\n")
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TraceReader:
    """Iterate a JSONL trace, validating every line against the schema."""

    def __init__(self, path) -> None:
        self.path = Path(path)

    def __iter__(self) -> Iterator[SpanRecord]:
        with self.path.open("r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceSchemaError(
                        f"{self.path}:{lineno}: not valid JSON ({exc})"
                    ) from exc
                try:
                    validate_record(obj)
                except TraceSchemaError as exc:
                    raise TraceSchemaError(f"{self.path}:{lineno}: {exc}") from exc
                if obj["kind"] == "header":
                    continue
                yield SpanRecord.from_json(obj)

    def records(self) -> list[SpanRecord]:
        return list(self)


@dataclass(frozen=True)
class _StageBudget:
    """One stage's aggregate over a trace."""

    count: int
    total_ns: float
    p50_ns: float
    p99_ns: float
    max_ns: float
    rows: int


@dataclass(frozen=True)
class TraceSummary:
    """Per-stage time budget reconstructed from a recorded trace."""

    stages: dict = field(default_factory=dict)  # stage -> _StageBudget
    requests: int = 0
    total_latency_ns: float = 0.0
    #: Worst per-request |latency - (queue + step span sums)| — the tiling
    #: invariant; must be within one clock tick on a healthy trace.
    max_drift_ns: float = 0.0
    events: int = 0
    spans: int = 0

    def format_table(self) -> str:
        """Aligned per-stage table for the CLI."""
        header = (
            f"{'stage':<8} {'count':>7} {'total_ms':>10} {'share':>7} "
            f"{'p50_ms':>9} {'p99_ms':>9} {'rows':>10}"
        )
        lines = [header, "-" * len(header)]
        denominator = self.total_latency_ns or 1.0
        order = ["queue", "step", "settle", "stage1", "stage2", "stage3", "scan", "shard"]
        for stage in sorted(self.stages, key=lambda s: (order.index(s) if s in order else 99, s)):
            budget = self.stages[stage]
            share = budget.total_ns / denominator
            lines.append(
                f"{stage:<8} {budget.count:>7} {budget.total_ns * 1e-6:>10.3f} "
                f"{share:>6.1%} {budget.p50_ns * 1e-6:>9.4f} "
                f"{budget.p99_ns * 1e-6:>9.4f} {budget.rows:>10}"
            )
        lines.append(
            f"requests={self.requests}  spans={self.spans}  events={self.events}  "
            f"total_latency_ms={self.total_latency_ns * 1e-6:.3f}  "
            f"max_tiling_drift_ns={self.max_drift_ns:.3f}"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "spans": self.spans,
            "events": self.events,
            "total_latency_ns": self.total_latency_ns,
            "max_drift_ns": self.max_drift_ns,
            "stages": {
                stage: {
                    "count": b.count,
                    "total_ms": b.total_ns * 1e-6,
                    "p50_ms": b.p50_ns * 1e-6,
                    "p99_ms": b.p99_ns * 1e-6,
                    "max_ms": b.max_ns * 1e-6,
                    "rows": b.rows,
                }
                for stage, b in self.stages.items()
            },
        }


def summarize_records(records: Iterable[SpanRecord]) -> TraceSummary:
    """Fold a trace into its per-stage time budget + the tiling check.

    Lifecycle accounting keys on the ``name`` attribute the engine stamps
    on every queue/step span and on the ``request.finalized`` event, so
    the per-request sums compare like with like even when spans from many
    requests interleave.
    """
    durations: dict[str, list[float]] = {}
    rows: dict[str, int] = {}
    lifecycle: dict[str, float] = {}  # request name -> queue+step span sum
    latencies: dict[str, float] = {}  # request name -> engine latency stamp
    events = spans = 0
    for record in records:
        if record.kind == "event":
            events += 1
            if record.name == "request.finalized":
                request = record.attrs.get("name", "?")
                latencies[request] = latencies.get(request, 0.0) + float(
                    record.attrs.get("latency_ns", 0.0)
                )
            continue
        spans += 1
        stage = STAGE_OF_SPAN.get(record.name)
        if stage is None:
            continue
        durations.setdefault(stage, []).append(record.duration_ns)
        fresh = record.attrs.get("fresh_rows", record.attrs.get("rows", 0))
        try:
            rows[stage] = rows.get(stage, 0) + int(fresh)
        except (TypeError, ValueError):
            pass
        if record.name in ("queue.wait", "engine.step"):
            request = record.attrs.get("name", "?")
            lifecycle[request] = lifecycle.get(request, 0.0) + record.duration_ns
    stages = {}
    for stage, values in durations.items():
        arr = np.asarray(values, dtype=np.float64)
        p50, p99 = np.percentile(arr, (50, 99)).tolist()
        stages[stage] = _StageBudget(
            count=arr.size,
            total_ns=float(arr.sum()),
            p50_ns=p50,
            p99_ns=p99,
            max_ns=float(arr.max()),
            rows=rows.get(stage, 0),
        )
    max_drift = 0.0
    for request, latency in latencies.items():
        drift = abs(latency - lifecycle.get(request, 0.0))
        if drift > max_drift:
            max_drift = drift
    return TraceSummary(
        stages=stages,
        requests=len(latencies),
        total_latency_ns=float(sum(latencies.values())),
        max_drift_ns=max_drift,
        events=events,
        spans=spans,
    )
