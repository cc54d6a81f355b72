"""Health monitoring: poll the live serving spine, report OK/DEGRADED/CRITICAL.

:class:`HealthMonitor` is constructed over a front door (sync or asyncio —
both expose the same ``admission``/``engine``/``metrics``/``service``
surface) and reads the spine without touching it: queue depth against the
admission bound, in-flight steps against the step slots, worker-pool
liveness, shared-memory bytes against a budget, artifact-cache pressure,
and clock skew across tenants.  Every poll yields a typed
:class:`HealthReport` whose :meth:`~HealthReport.to_dict` is exactly what
an HTTP tier's ``/healthz`` will serialize.

Checks are purely observational: the monitor never creates pools, never
steps jobs, and never takes engine locks — serving answers are unperturbed
by any polling frequency.

:class:`StatsExporter` is the file-based bridge to ``repro top``: a
background thread that periodically snapshots metrics + health into a JSON
file (atomic rename), which the dashboard tails from another process.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field

__all__ = [
    "CRITICAL",
    "DEGRADED",
    "HealthCheck",
    "HealthMonitor",
    "HealthReport",
    "OK",
    "StatsExporter",
]

OK = "ok"
DEGRADED = "degraded"
CRITICAL = "critical"

_SEVERITY = {OK: 0, DEGRADED: 1, CRITICAL: 2}

#: Utilization thresholds for bounded resources (queue, steps, shm, cache).
DEGRADED_UTILIZATION = 0.8
CRITICAL_UTILIZATION = 1.0


@dataclass(frozen=True)
class HealthCheck:
    """One probe's outcome: a named value against an optional limit."""

    name: str
    status: str
    detail: str
    value: float
    limit: float | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
            "value": self.value,
            "limit": self.limit,
        }


@dataclass(frozen=True)
class HealthReport:
    """Aggregate health: the worst check wins."""

    status: str
    checks: tuple = field(default_factory=tuple)

    @property
    def reasons(self) -> tuple:
        """Details of every non-OK check."""
        return tuple(c.detail for c in self.checks if c.status != OK)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "reasons": list(self.reasons),
            "checks": [c.to_dict() for c in self.checks],
        }


def _utilization_check(
    name: str, value: float, limit: float | None, what: str
) -> HealthCheck:
    """Grade ``value`` against ``limit`` (None = unbounded, always OK)."""
    if limit is None or limit <= 0:
        return HealthCheck(name, OK, f"{what}: {value:g} (unbounded)", value, None)
    utilization = value / limit
    if utilization >= CRITICAL_UTILIZATION:
        status = CRITICAL
    elif utilization >= DEGRADED_UTILIZATION:
        status = DEGRADED
    else:
        status = OK
    return HealthCheck(
        name, status,
        f"{what}: {value:g}/{limit:g} ({utilization:.0%})",
        value, limit,
    )


class HealthMonitor:
    """Read-only poller over one front door's serving spine.

    Parameters
    ----------
    door:
        A :class:`~repro.serving.FrontDoor` or
        :class:`~repro.serving.AsyncFrontDoor`; admission, engine, and the
        served service (session or registry) are resolved from it.
    shm_budget_bytes:
        Optional budget the shared-memory store's live bytes are graded
        against (``None``: report bytes, never alarm).
    max_clock_skew_ns:
        Tolerated spread between tenants' clock readings before the skew
        check degrades.  Registry-routed tenants share one clock, so any
        nonzero skew means a session was wired onto a foreign timeline;
        the default tolerance is one clock tick.
    """

    def __init__(
        self,
        door,
        *,
        shm_budget_bytes: int | None = None,
        max_clock_skew_ns: float | None = None,
    ) -> None:
        self.door = door
        self.admission = getattr(door, "admission", None)
        self.engine = getattr(door, "engine", None)
        self.metrics = getattr(door, "metrics", None)
        self.max_concurrent_steps = getattr(door, "max_concurrent_steps", 1)
        self.service = getattr(door, "service", None)
        self.shm_budget_bytes = shm_budget_bytes
        self.max_clock_skew_ns = max_clock_skew_ns

    # ------------------------------------------------------------ resolution

    def _sessions(self) -> list:
        """The served sessions (one for a session door, N for a registry)."""
        service = self.service
        if service is None:
            return []
        if hasattr(service, "keys") and hasattr(service, "session"):
            return [service.session(key) for key in service.keys()]
        return [service]

    def _backend(self):
        service = self.service
        return getattr(service, "backend", None)

    # ---------------------------------------------------------------- checks

    def _check_queue(self) -> HealthCheck | None:
        if self.admission is None:
            return None
        return _utilization_check(
            "queue",
            float(self.admission.in_flight),
            None if self.admission.max_queue is None
            else float(self.admission.max_queue),
            "admitted requests in flight",
        )

    def _check_steps(self) -> HealthCheck | None:
        if self.engine is None:
            return None
        return _utilization_check(
            "steps",
            float(self.engine.in_flight),
            float(self.max_concurrent_steps),
            "concurrent step slots in use",
        )

    def _check_workers(self) -> HealthCheck | None:
        backend = self._backend()
        # The slots, not the spawning ``executor`` property: a probe never
        # starts workers.
        slots = getattr(backend, "_slots", None)
        if slots is None:
            return None  # no workers started (serial, or still lazy)
        alive, started = slots.alive(), slots.started
        if alive >= started:
            return HealthCheck(
                "workers", OK, f"worker pool: {alive}/{started} alive",
                float(alive), float(started),
            )
        status = CRITICAL if alive == 0 else DEGRADED
        return HealthCheck(
            "workers", status,
            f"worker pool: only {alive}/{started} workers alive",
            float(alive), float(started),
        )

    def _check_shm(self) -> HealthCheck | None:
        backend = self._backend()
        store = getattr(backend, "store", None)
        if store is None:
            return None
        used = float(store.total_bytes)
        check = _utilization_check(
            "shm", used,
            None if self.shm_budget_bytes is None else float(self.shm_budget_bytes),
            "/dev/shm bytes published",
        )
        return HealthCheck(
            check.name, check.status,
            f"{check.detail} across {store.num_segments} segments",
            check.value, check.limit,
        )

    def _check_cache(self) -> HealthCheck | None:
        # A session door and a registry door alike: the service's one cache.
        cache = getattr(self.service, "cache", None)
        if cache is None:
            return None
        return _utilization_check(
            "cache",
            float(cache.nbytes),
            None if cache.max_cached_bytes is None
            else float(cache.max_cached_bytes),
            "prepared-artifact cache bytes",
        )

    def _check_clock_skew(self) -> HealthCheck | None:
        sessions = self._sessions()
        clocks = []
        seen: set[int] = set()
        for session in sessions:
            clock = getattr(session, "clock", None)
            if clock is not None and id(clock) not in seen:
                seen.add(id(clock))
                clocks.append(clock)
        if len(clocks) < 2:
            return HealthCheck(
                "clock_skew", OK, "tenants share one clock", 0.0, None
            )
        readings = [float(clock.elapsed_ns) for clock in clocks]
        skew = max(readings) - min(readings)
        tolerance = self.max_clock_skew_ns
        if tolerance is None:
            tolerance = max(float(c.resolution_ns) for c in clocks)
        status = OK if skew <= tolerance else DEGRADED
        return HealthCheck(
            "clock_skew", status,
            f"clock skew across {len(clocks)} tenant clocks: {skew:g} ns",
            skew, tolerance,
        )

    # ------------------------------------------------------------------ poll

    def check(self) -> HealthReport:
        """One poll of every probe; the worst status wins."""
        checks = [
            c
            for c in (
                self._check_queue(),
                self._check_steps(),
                self._check_workers(),
                self._check_shm(),
                self._check_cache(),
                self._check_clock_skew(),
            )
            if c is not None
        ]
        status = OK
        for check in checks:
            if _SEVERITY[check.status] > _SEVERITY[status]:
                status = check.status
        return HealthReport(status=status, checks=tuple(checks))


class StatsExporter:
    """Periodic metrics+health snapshots to a JSON file (for ``repro top``).

    Writes atomically (temp file + rename) so the dashboard never reads a
    torn frame.  Runs on a daemon thread; purely read-only against the
    serving spine.
    """

    def __init__(
        self,
        door,
        path,
        *,
        interval_s: float = 0.5,
        monitor: HealthMonitor | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.door = door
        self.path = path
        self.interval_s = interval_s
        self.monitor = monitor if monitor is not None else HealthMonitor(door)
        self.frames = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def frame(self) -> dict:
        """One dashboard frame: serving snapshot + health + spine gauges."""
        snapshot = self.door.metrics.snapshot()
        serving = snapshot.to_dict()
        # Aggregate tenant latency by merging the per-tenant sketches
        # (no re-recording) — the merged view the dashboard's ALL row shows.
        merged = self.door.metrics.merged_tenant_latency()
        if merged is not None and merged.count:
            p50, p99 = merged.percentiles((50, 99))
            serving["all_tenants"] = {
                "requests": merged.count,
                "p50_latency_ms": p50 * 1e-6,
                "p99_latency_ms": p99 * 1e-6,
            }
        admission = getattr(self.door, "admission", None)
        engine = getattr(self.door, "engine", None)
        backend = self.monitor._backend()
        store = getattr(backend, "store", None)
        return {
            "frame": self.frames,
            "queue": {
                "in_flight": getattr(admission, "in_flight", 0),
                "max_queue": getattr(admission, "max_queue", None),
                "pending": getattr(engine, "pending", 0),
                "stepping": getattr(engine, "in_flight", 0),
                "step_slots": getattr(self.door, "max_concurrent_steps", 1),
            },
            "shm": {
                "bytes": getattr(store, "total_bytes", 0),
                "segments": getattr(store, "num_segments", 0),
            },
            "serving": serving,
            "health": self.monitor.check().to_dict(),
        }

    def write_frame(self) -> None:
        frame = self.frame()
        self.frames += 1
        tmp = f"{self.path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(frame, fh)
        os.replace(tmp, self.path)

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.write_frame()
            except Exception:  # pragma: no cover - a torn poll must not kill serving
                pass
            self._stop.wait(self.interval_s)
        try:
            self.write_frame()  # final frame so `top` sees the end state
        except Exception:  # pragma: no cover - shutdown race
            pass

    def start(self) -> "StatsExporter":
        if self._thread is not None:
            raise RuntimeError("StatsExporter already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-stats-exporter", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "StatsExporter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
