"""Serving metrics: what the front door observed, snapshottable at any time.

The counters update as requests finalize; :meth:`ServingMetrics.snapshot`
condenses them into a frozen :class:`~repro.system.report.ServingReport`
(percentile latencies, deadline-hit rate, shed count, per-stage and
per-tenant breakdowns) for benchmarks and the CLI.  Internally locked:
with executor-offloaded steps (``max_concurrent_steps > 1``) settles can
land from multiple threads, so recording and snapshotting serialize on
the metrics' own lock rather than relying on any driver's.

Three observability upgrades over the endpoint-only original:

- **bounded memory** — latency/service samples live in
  :class:`~repro.obs.QuantileSketch`\\ es (exact below a threshold,
  seeded reservoir above) instead of one-float-per-request-forever lists.
- **one recording seam** — every one of the five outcome statuses
  (including ``SHED``) routes through :meth:`record_outcome`, so tracing
  hooks and tenant attribution observe every outcome in one place;
  :meth:`record_shed` is a thin admission-time wrapper over it.
- **span-fed stage budgets** — the metrics object is a tracer *sink*
  (:meth:`observe_span`): subscribe it to a :class:`~repro.obs.Tracer`
  and per-stage duration sketches (queue/step/stage1..3/shard) fill
  themselves from the same spans the trace file records.

:meth:`expose_text` renders everything in Prometheus text exposition
format, ready to sit behind a future HTTP tier's ``/metrics``.
"""

from __future__ import annotations

import threading

from ..obs.sketch import DEFAULT_SKETCH_CAPACITY, QuantileSketch
from ..obs.trace_io import STAGE_OF_SPAN
from ..system.report import ServingReport

__all__ = ["ServingMetrics"]

#: Outcome statuses (mirrored by :class:`repro.serving.ServingOutcome`).
COMPLETED = "completed"
PARTIAL = "partial"
MISS = "miss"
SHED = "shed"
CANCELLED = "cancelled"

_STATUSES = (COMPLETED, PARTIAL, MISS, SHED, CANCELLED)


class _ShedOutcome:
    """Admission-time shed, shaped like a ServingOutcome for recording.

    Sheds never ran, so they carry no latency/service sample; the only
    field recording consults besides ``status`` is ``deadline_ns`` (a
    shed deadline-carrying request counts against the hit rate).
    """

    __slots__ = ("deadline_ns",)
    status = SHED
    deadline_hit = False
    latency_ns = 0.0
    service_ns = 0.0

    def __init__(self, had_deadline: bool) -> None:
        self.deadline_ns = 0.0 if had_deadline else None


class ServingMetrics:
    """Mutable counters + bounded sketches behind the snapshot API."""

    def __init__(self, *, sketch_capacity: int = DEFAULT_SKETCH_CAPACITY) -> None:
        self._lock = threading.Lock()
        self._sketch_capacity = sketch_capacity
        self.completed = 0
        self.partial = 0
        self.missed = 0
        self.shed = 0
        self.cancelled = 0
        self.deadline_requests = 0
        self.deadline_hits = 0
        self._latency = QuantileSketch(sketch_capacity)
        self._service = QuantileSketch(sketch_capacity)
        # stage -> duration sketch (ns) and rows processed, fed by spans.
        self._stage_ns: dict[str, QuantileSketch] = {}
        self._stage_rows: dict[str, int] = {}
        # tenant -> {status -> count} and latency sketch (ns).
        self._tenant_counts: dict[str, dict[str, int]] = {}
        self._tenant_latency: dict[str, QuantileSketch] = {}
        # Calibration: Eq. 1-estimated vs observed stage cost, accumulated
        # from stepper spans (which carry est_ns_before), per stage and per
        # tenant.  ratio = observed / estimated; 1.0 means the analytic
        # cost model predicts measured stage time exactly.
        self._stage_est_ns: dict[str, float] = {}
        self._tenant_est_ns: dict[str, float] = {}
        self._tenant_observed_ns: dict[str, float] = {}

    # ------------------------------------------------------------- recording

    def record_outcome(self, outcome, tenant: str | None = None) -> None:
        """Fold one finalized outcome into the counters — any of the five
        statuses, so every request's terminal state lands in one place."""
        status = outcome.status
        if status not in _STATUSES:
            # pragma: no cover - statuses are closed
            raise ValueError(f"unknown outcome status {status!r}")
        with self._lock:
            if status == COMPLETED:
                self.completed += 1
            elif status == PARTIAL:
                self.partial += 1
            elif status == MISS:
                self.missed += 1
            elif status == SHED:
                self.shed += 1
            else:
                self.cancelled += 1
            if outcome.deadline_ns is not None:
                self.deadline_requests += 1
                if outcome.deadline_hit:
                    self.deadline_hits += 1
            if status != SHED:
                # Shed requests never ran; they have no latency sample.
                self._latency.observe(outcome.latency_ns)
                self._service.observe(outcome.service_ns)
            if tenant is not None:
                counts = self._tenant_counts.setdefault(
                    tenant, {s: 0 for s in _STATUSES}
                )
                counts[status] += 1
                if status != SHED:
                    sketch = self._tenant_latency.get(tenant)
                    if sketch is None:
                        sketch = self._tenant_latency[tenant] = QuantileSketch(
                            self._sketch_capacity
                        )
                    sketch.observe(outcome.latency_ns)

    def record_shed(self, had_deadline: bool = True, tenant: str | None = None) -> None:
        """One request shed at admission, routed through the unified seam.

        Shed requests count against the deadline-hit rate when they carried
        a deadline — shedding must not flatter the rate it exists to
        protect.
        """
        self.record_outcome(_ShedOutcome(had_deadline), tenant=tenant)

    # ----------------------------------------------------------- tracer sink

    def observe_span(self, record) -> None:
        """Tracer-sink seam: fold one span into the per-stage sketches.

        Only span names with a lifecycle stage mapping contribute
        (``queue.wait``, ``engine.step``, ``stepper.*``, backend
        fan-outs); events and unknown spans are ignored.
        """
        if record.kind != "span":
            return
        stage = STAGE_OF_SPAN.get(record.name)
        if stage is None:
            return
        attrs = record.attrs
        rows = attrs.get("fresh_rows", attrs.get("rows", 0))
        est_ns = attrs.get("est_slice_ns")
        tenant = attrs.get("tenant")
        with self._lock:
            sketch = self._stage_ns.get(stage)
            if sketch is None:
                sketch = self._stage_ns[stage] = QuantileSketch(self._sketch_capacity)
            sketch.observe(record.duration_ns)
            if isinstance(rows, (int, float)):
                self._stage_rows[stage] = self._stage_rows.get(stage, 0) + int(rows)
            if isinstance(est_ns, (int, float)) and est_ns > 0:
                # Stepper spans carry the Eq. 1 cost of the slice they ran
                # (est_slice_ns: delivered rows at sequential-read cost);
                # fold estimate and observation side by side so the
                # snapshot exposes observed/estimated calibration.
                self._stage_est_ns[stage] = (
                    self._stage_est_ns.get(stage, 0.0) + float(est_ns)
                )
                if tenant is not None:
                    self._tenant_est_ns[tenant] = (
                        self._tenant_est_ns.get(tenant, 0.0) + float(est_ns)
                    )
                    self._tenant_observed_ns[tenant] = (
                        self._tenant_observed_ns.get(tenant, 0.0)
                        + record.duration_ns
                    )

    # ------------------------------------------------------------- snapshot

    @property
    def requests(self) -> int:
        return (
            self.completed + self.partial + self.missed + self.cancelled + self.shed
        )

    @property
    def deadline_hit_rate(self) -> float:
        """Hits over deadline-carrying requests (1.0 when none had deadlines)."""
        if self.deadline_requests == 0:
            return 1.0
        return self.deadline_hits / self.deadline_requests

    def snapshot(self) -> ServingReport:
        """Frozen aggregate view of everything recorded so far."""
        with self._lock:
            p50, p95, p99 = self._latency.percentiles((50, 95, 99))
            per_stage = {}
            for stage, sketch in sorted(self._stage_ns.items()):
                entry = {
                    "count": sketch.count,
                    "total_ms": sketch.total * 1e-6,
                    "p50_ms": sketch.percentile(50) * 1e-6,
                    "p99_ms": sketch.percentile(99) * 1e-6,
                    "rows": self._stage_rows.get(stage, 0),
                }
                est_ns = self._stage_est_ns.get(stage)
                if est_ns:
                    # Eq. 1 estimate next to the observed stage cost.
                    entry["est_total_ms"] = est_ns * 1e-6
                    entry["calibration_ratio"] = sketch.total / est_ns
                per_stage[stage] = entry
            per_tenant = {}
            for tenant, counts in sorted(self._tenant_counts.items()):
                sketch = self._tenant_latency.get(tenant)
                est_ns = self._tenant_est_ns.get(tenant, 0.0)
                per_tenant[tenant] = {
                    **counts,
                    "p50_latency_ms": (
                        sketch.percentile(50) * 1e-6 if sketch is not None else 0.0
                    ),
                    "mean_latency_ms": (
                        sketch.mean * 1e-6 if sketch is not None else 0.0
                    ),
                    # observed/Eq. 1-estimated stage cost; 0.0 until this
                    # tenant's stepper spans have been observed.
                    "calibration_ratio": (
                        self._tenant_observed_ns.get(tenant, 0.0) / est_ns
                        if est_ns > 0
                        else 0.0
                    ),
                }
            return ServingReport(
                requests=self.requests,
                completed=self.completed,
                partial=self.partial,
                missed=self.missed,
                shed=self.shed,
                cancelled=self.cancelled,
                deadline_hit_rate=self.deadline_hit_rate,
                p50_latency_ms=p50 * 1e-6,
                p95_latency_ms=p95 * 1e-6,
                p99_latency_ms=p99 * 1e-6,
                mean_latency_ms=self._latency.mean * 1e-6,
                mean_service_ms=self._service.mean * 1e-6,
                per_stage=per_stage,
                per_tenant=per_tenant,
            )

    def merged_tenant_latency(self) -> QuantileSketch | None:
        """All tenants' latency sketches merged into one (no re-recording).

        Uses :meth:`QuantileSketch.merge`; ``None`` when no tenant-tagged
        requests have finalized.  The merged sketch is a fresh object — the
        per-tenant sketches are read, never mutated.
        """
        with self._lock:
            if not self._tenant_latency:
                return None
            merged = QuantileSketch(self._sketch_capacity)
            for tenant in sorted(self._tenant_latency):
                merged.merge(self._tenant_latency[tenant])
            return merged

    # ------------------------------------------------------------ exposition

    def expose_text(self) -> str:
        """Prometheus text-exposition rendering of every counter and sketch.

        Latencies and stage durations export in seconds (Prometheus base
        units) as summaries with p50/p95/p99 quantile samples; tenants and
        stages become labels.  No client library is required — the text
        format is plain lines.
        """
        with self._lock:
            lines: list[str] = []

            def summary(metric: str, help_text: str, series) -> None:
                # series: iterable of (label_str, sketch)
                lines.append(f"# HELP {metric} {help_text}")
                lines.append(f"# TYPE {metric} summary")
                for labels, sketch in series:
                    sep = "," if labels else ""
                    p50, p95, p99 = sketch.percentiles((50, 95, 99))
                    for q, value in (("0.5", p50), ("0.95", p95), ("0.99", p99)):
                        lines.append(
                            f'{metric}{{{labels}{sep}quantile="{q}"}} {value * 1e-9:.9f}'
                        )
                    label_part = f"{{{labels}}}" if labels else ""
                    lines.append(f"{metric}_sum{label_part} {sketch.total * 1e-9:.9f}")
                    lines.append(f"{metric}_count{label_part} {sketch.count}")

            lines.append("# HELP repro_requests_total Finalized requests by status.")
            lines.append("# TYPE repro_requests_total counter")
            for status, value in (
                (COMPLETED, self.completed),
                (PARTIAL, self.partial),
                (MISS, self.missed),
                (SHED, self.shed),
                (CANCELLED, self.cancelled),
            ):
                lines.append(f'repro_requests_total{{status="{status}"}} {value}')
            lines.append(
                "# HELP repro_deadline_requests_total Requests that carried a deadline."
            )
            lines.append("# TYPE repro_deadline_requests_total counter")
            lines.append(f"repro_deadline_requests_total {self.deadline_requests}")
            lines.append(
                "# HELP repro_deadline_hits_total Deadline-carrying requests that completed in time."
            )
            lines.append("# TYPE repro_deadline_hits_total counter")
            lines.append(f"repro_deadline_hits_total {self.deadline_hits}")
            summary(
                "repro_request_latency_seconds",
                "Submission-to-finalization latency.",
                [("", self._latency)],
            )
            summary(
                "repro_request_service_seconds",
                "Per-request service time (own steps only).",
                [("", self._service)],
            )
            if self._stage_ns:
                summary(
                    "repro_stage_seconds",
                    "Time spent per lifecycle stage (span-fed).",
                    [
                        (f'stage="{stage}"', sketch)
                        for stage, sketch in sorted(self._stage_ns.items())
                    ],
                )
            if self._tenant_counts:
                lines.append(
                    "# HELP repro_tenant_requests_total Finalized requests by tenant and status."
                )
                lines.append("# TYPE repro_tenant_requests_total counter")
                for tenant, counts in sorted(self._tenant_counts.items()):
                    for status in _STATUSES:
                        lines.append(
                            f'repro_tenant_requests_total{{tenant="{tenant}",status="{status}"}}'
                            f" {counts[status]}"
                        )
            if self._tenant_latency:
                summary(
                    "repro_tenant_latency_seconds",
                    "Submission-to-finalization latency by tenant.",
                    [
                        (f'tenant="{tenant}"', sketch)
                        for tenant, sketch in sorted(self._tenant_latency.items())
                    ],
                )
            if self._tenant_est_ns:
                lines.append(
                    "# HELP repro_tenant_calibration_ratio "
                    "Observed over Eq. 1-estimated stage cost."
                )
                lines.append("# TYPE repro_tenant_calibration_ratio gauge")
                for tenant in sorted(self._tenant_est_ns):
                    est = self._tenant_est_ns[tenant]
                    observed = self._tenant_observed_ns.get(tenant, 0.0)
                    lines.append(
                        f'repro_tenant_calibration_ratio{{tenant="{tenant}"}} '
                        f"{observed / est:.6f}"
                    )
            return "\n".join(lines) + "\n"
