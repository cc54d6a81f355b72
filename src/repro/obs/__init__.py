"""Observability: tracing, profiling, health, sketches.

The serving spine (front doors → engine → stepper → backends) emits
nested spans through a :class:`Tracer` stamped on the *job's own*
:class:`~repro.system.clock.Clock` — correct under both simulated replay
and wall-clock serving.  The default tracer is :data:`NULL_TRACER`, a
shared no-op whose ``span()`` returns one preallocated context manager,
so the untraced path stays byte-identical and allocation-free.
:class:`Profiler` applies the same null-object discipline to hot-path
effort counters (rows gathered, blocks touched, bytes moved, bincount
calls, per-kernel ns) via :data:`NULL_PROFILER`.

Layout:

- :mod:`~repro.obs.tracer` — spans, events, the tracer and its no-op twin.
- :mod:`~repro.obs.profiler` — deterministic kernel counters per HistSim
  stage plus a sampling wall profiler (collapsed flamegraph stacks).
- :mod:`~repro.obs.sketch` — bounded streaming quantiles (exact below a
  threshold, seeded reservoir above) backing per-stage metrics; sketches
  merge without re-recording.
- :mod:`~repro.obs.trace_io` — schema-versioned JSONL trace files:
  :class:`TraceWriter` (a tracer sink), :class:`TraceReader`, validation,
  and the per-stage time-budget summary behind ``repro trace summarize``.
- :mod:`~repro.obs.health` — :class:`HealthMonitor` over a live front
  door (queue/steps/workers/shm/cache/clock-skew probes) and the
  :class:`StatsExporter` frames ``repro top`` renders.
"""

from .health import (
    CRITICAL,
    DEGRADED,
    OK,
    HealthCheck,
    HealthMonitor,
    HealthReport,
    StatsExporter,
)
from .profiler import (
    NULL_PROFILER,
    NullProfiler,
    ProfileSnapshot,
    Profiler,
    WallProfiler,
)
from .sketch import QuantileSketch
from .tracer import NULL_TRACER, NullTracer, SpanRecord, Tracer
from .trace_io import (
    SCHEMA_VERSION,
    TraceReader,
    TraceSchemaError,
    TraceSummary,
    TraceWriter,
    summarize_records,
    validate_record,
)

__all__ = [
    "CRITICAL",
    "DEGRADED",
    "HealthCheck",
    "HealthMonitor",
    "HealthReport",
    "NULL_PROFILER",
    "NULL_TRACER",
    "NullProfiler",
    "NullTracer",
    "OK",
    "ProfileSnapshot",
    "Profiler",
    "QuantileSketch",
    "SCHEMA_VERSION",
    "SpanRecord",
    "StatsExporter",
    "TraceReader",
    "TraceSchemaError",
    "TraceSummary",
    "TraceWriter",
    "Tracer",
    "WallProfiler",
    "summarize_records",
    "validate_record",
]
