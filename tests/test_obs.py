"""Observability subsystem: tracer, sketches, metrics, trace IO, CLI.

Covers the acceptance criteria of the tracing PR:

- the no-op tracer allocates nothing and is a shared singleton, so the
  untraced serving path is byte-identical to the pre-tracing code;
- spans stamp on the clock they are handed (simulated virtual time or the
  process monotonic clock) and nest via the thread-local parent stack;
- :class:`QuantileSketch` is exact below its capacity (byte-identical to
  the historical full-list percentiles) and bounded + close above it;
- every outcome status — including SHED, which used to raise — routes
  through one ``record_outcome`` seam, with per-tenant attribution;
- a traced replay exports schema-valid JSONL that round-trips through
  :class:`TraceReader`, and the reconstructed per-stage budget's
  queue+step sums tile each request's end-to-end latency within one
  clock tick;
- ``repro trace summarize`` prints the per-stage table from that file.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro import FrontDoor, MatchSession, QueryRequest, SessionRegistry
from repro.cli import main as cli_main
from repro.core import HistSimConfig
from repro.core.target import TargetSpec
from repro.obs import (
    NULL_TRACER,
    QuantileSketch,
    SpanRecord,
    TraceReader,
    TraceSchemaError,
    TraceWriter,
    Tracer,
    summarize_records,
    validate_record,
)
from repro.obs import tracer as tracer_module
from repro.query import HistogramQuery
from repro.serving import metrics as metrics_module
from repro.serving.metrics import ServingMetrics
from repro.storage import CategoricalAttribute, ColumnTable, Schema
from repro.system.clock import SimulatedClock

CANDIDATES, GROUPS = 10, 5


def make_table(seed: int = 11, n: int = 20_000) -> ColumnTable:
    rng = np.random.default_rng(seed)
    z = rng.integers(0, CANDIDATES, size=n)
    x = np.empty(n, dtype=np.int64)
    for c in range(CANDIDATES):
        mask = z == c
        base = np.full(GROUPS, 1.0 / GROUPS)
        if c >= 2:
            base[c % GROUPS] += 0.5
            base /= base.sum()
        x[mask] = rng.choice(GROUPS, size=int(mask.sum()), p=base)
    schema = Schema(
        (
            CategoricalAttribute("product", tuple(f"p{i}" for i in range(CANDIDATES))),
            CategoricalAttribute("age", tuple(f"a{i}" for i in range(GROUPS))),
        )
    )
    return ColumnTable(schema, {"product": z, "age": x})


@pytest.fixture(scope="module")
def table():
    return make_table()


def make_request(name: str, *, k: int = 3, **overrides) -> QueryRequest:
    query = HistogramQuery(
        "product", "age", target=TargetSpec(kind="closest_to_uniform"), k=k,
        name=name,
    )
    config = HistSimConfig(k=k, epsilon=0.2, delta=0.05, sigma=0.0)
    return QueryRequest(query, config=config, seed=3, name=name, **overrides)


def outcome_like(status: str, *, deadline_ns=None, deadline_hit=False,
                 latency_ns=1e6, service_ns=5e5) -> SimpleNamespace:
    return SimpleNamespace(
        status=status, deadline_ns=deadline_ns, deadline_hit=deadline_hit,
        latency_ns=latency_ns, service_ns=service_ns,
    )


# ---------------------------------------------------------------------------
# NullTracer: the allocation-free default
# ---------------------------------------------------------------------------


class TestNullTracer:
    def test_disabled_singleton(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.clock is None

    def test_span_is_one_preallocated_object(self):
        first = NULL_TRACER.span("a", clock=SimulatedClock(), name="x")
        second = NULL_TRACER.span("b")
        assert first is second  # no per-call allocation on the hot path

    def test_span_usable_as_context_manager(self):
        with NULL_TRACER.span("anything") as span:
            assert span.set(rows=7) is span

    def test_other_emissions_are_noops(self):
        assert NULL_TRACER.span_at("a", 0.0, 1.0) is None
        assert NULL_TRACER.event("a", name="x") is None
        NULL_TRACER.subscribe(object())  # accepted, ignored


# ---------------------------------------------------------------------------
# Tracer: clock stamping, nesting, sinks
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_stamps_on_simulated_clock(self):
        clock = SimulatedClock()
        tracer = Tracer(clock)
        with tracer.span("work", name="j0"):
            clock.charge_serial(io=1500.0)
        (record,) = tracer.records()
        assert record.name == "work"
        assert record.duration_ns == 1500.0
        assert record.clock == "SimulatedClock"
        assert record.attrs["name"] == "j0"

    def test_nesting_via_thread_local_stack(self):
        tracer = Tracer(SimulatedClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        inner_rec, outer_rec = tracer.records()  # inner exits first
        assert inner_rec.name == "inner"
        assert inner_rec.parent_id == outer.span_id
        assert outer_rec.parent_id is None

    def test_span_at_with_string_clock_label(self):
        tracer = Tracer(SimulatedClock())
        record = tracer.span_at("backend.window", 10.0, 30.0, clock="monotonic", shards=2)
        assert record.clock == "monotonic"  # not the tracer's default clock
        assert record.duration_ns == 20.0

    def test_event_is_instantaneous(self):
        clock = SimulatedClock()
        clock.charge_serial(io=42.0)
        tracer = Tracer(clock)
        record = tracer.event("cache.hit", layer="prepared")
        assert record.kind == "event"
        assert record.t0_ns == record.t1_ns == 42.0

    def test_sinks_see_every_record(self):
        tracer = Tracer(SimulatedClock())
        seen: list[SpanRecord] = []
        tracer.subscribe(SimpleNamespace(observe_span=seen.append))
        with tracer.span("a"):
            pass
        tracer.event("b")
        assert [r.name for r in seen] == ["a", "b"]

    def test_callback_adapter_emits_events(self):
        tracer = Tracer(SimulatedClock())
        emit = tracer.callback()
        emit("shm.publish", segment="seg-0", nbytes=64)
        (record,) = tracer.records()
        assert record.kind == "event"
        assert record.attrs == {"segment": "seg-0", "nbytes": 64}

    def test_retention_is_bounded_but_sinks_are_not(self, monkeypatch):
        monkeypatch.setattr(tracer_module, "MAX_SPANS", 8)
        tracer = Tracer(SimulatedClock())
        count = SimpleNamespace(n=0)
        tracer.subscribe(
            SimpleNamespace(observe_span=lambda r: setattr(count, "n", count.n + 1))
        )
        for i in range(50):
            tracer.event(f"e{i}")
        assert len(tracer.records()) == 8
        assert count.n == 50


# ---------------------------------------------------------------------------
# QuantileSketch: exact regime, bounded regime
# ---------------------------------------------------------------------------


class TestQuantileSketch:
    def test_exact_below_capacity_matches_full_list(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 100, size=1000)
        sketch = QuantileSketch(4096)
        for v in values:
            sketch.observe(v)
        assert sketch.exact
        for q in (50, 95, 99):
            assert sketch.percentile(q) == float(np.percentile(values, q))
        assert sketch.mean == float(np.mean(values))
        assert sketch.count == 1000

    def test_bounded_and_close_above_capacity(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0.0, 1.0, size=20_000)
        sketch = QuantileSketch(1024)
        for v in values:
            sketch.observe(v)
        assert not sketch.exact
        assert len(sketch._samples) == 1024  # bounded memory — the bug fix
        assert sketch.count == 20_000
        assert sketch.minimum == float(values.min())
        assert sketch.maximum == float(values.max())
        assert sketch.total == pytest.approx(float(values.sum()))
        for q in (50, 95):
            exact = float(np.percentile(values, q))
            assert abs(sketch.percentile(q) - exact) < 0.05, q

    def test_deterministic_reservoir(self):
        a, b = QuantileSketch(64), QuantileSketch(64)
        for i in range(5000):
            a.observe(i)
            b.observe(i)
        assert a._samples == b._samples  # seeded: runs reproduce

    @pytest.mark.parametrize("observed", [0, 10, 5000])
    def test_copy_is_an_independent_twin(self, observed):
        """A copy holds the same samples and aggregates, and neither sees
        the other's later observations."""
        sketch = QuantileSketch(64)
        for i in range(observed):
            sketch.observe(i)
        twin = sketch.copy()
        assert twin._samples == sketch._samples and twin._samples is not sketch._samples
        assert (twin.count, twin.total, twin.minimum, twin.maximum) == (
            sketch.count, sketch.total, sketch.minimum, sketch.maximum
        )
        assert twin.percentiles((50, 99)) == sketch.percentiles((50, 99))
        sketch.observe(-1.0)
        assert twin.count == sketch.count - 1 and twin.minimum != -1.0
        twin.observe(-2.0)
        assert sketch.minimum == -1.0 and sketch.count == twin.count


# ---------------------------------------------------------------------------
# ServingMetrics: one recording seam, bounded sketches, exposition
# ---------------------------------------------------------------------------


class TestServingMetrics:
    def test_all_five_statuses_route_through_record_outcome(self):
        metrics = ServingMetrics()
        for status in ("completed", "partial", "miss", "cancelled", "shed"):
            metrics.record_outcome(outcome_like(status))
        assert metrics.completed == metrics.partial == 1
        assert metrics.missed == metrics.cancelled == metrics.shed == 1
        assert metrics.requests == 5

    def test_record_shed_counts_deadline_but_not_latency(self):
        metrics = ServingMetrics()
        metrics.record_shed(had_deadline=True, tenant="flights")
        metrics.record_shed(had_deadline=False)
        assert metrics.shed == 2
        assert metrics.deadline_requests == 1
        assert metrics.deadline_hits == 0
        snap = metrics.snapshot()
        assert snap.p50_latency_ms == 0.0  # sheds never ran: no samples
        assert snap.per_tenant["flights"]["shed"] == 1

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError, match="unknown outcome status"):
            ServingMetrics().record_outcome(outcome_like("exploded"))

    def test_bounded_snapshot_close_to_exact(self, monkeypatch):
        monkeypatch.setattr(metrics_module, "DEFAULT_SKETCH_CAPACITY", 256)
        rng = np.random.default_rng(2)
        latencies = rng.uniform(1e6, 9e6, size=5000)
        metrics = ServingMetrics()
        for latency in latencies:
            metrics.record_outcome(
                outcome_like("completed", latency_ns=latency, service_ns=latency / 2)
            )
        snap = metrics.snapshot()
        for got_ms, q in ((snap.p50_latency_ms, 50), (snap.p99_latency_ms, 99)):
            exact_ms = float(np.percentile(latencies, q)) * 1e-6
            assert got_ms == pytest.approx(exact_ms, rel=0.10), q
        assert snap.mean_latency_ms == pytest.approx(
            float(np.mean(latencies)) * 1e-6, rel=1e-9
        )

    def test_span_fed_stage_budgets(self):
        metrics = ServingMetrics()
        tracer = Tracer(SimulatedClock())
        tracer.subscribe(metrics)
        tracer.span_at("queue.wait", 0.0, 100.0, name="r0")
        tracer.span_at("stepper.stage2", 100.0, 400.0, name="r0", fresh_rows=64)
        tracer.event("request.submitted", name="r0")  # events never contribute
        snap = metrics.snapshot()
        assert snap.per_stage["queue"]["count"] == 1
        assert snap.per_stage["stage2"]["rows"] == 64
        assert snap.per_stage["stage2"]["total_ms"] == pytest.approx(300.0 * 1e-6)

    def test_readers_compute_no_percentile_under_the_lock(self, monkeypatch):
        """``snapshot``, ``expose_text`` and ``merged_tenant_latency`` copy
        under the lock and compute every percentile, mean and merge outside
        it — the ``record_*`` calls of the step path wait for a copy at
        most — and read exactly what they read before."""
        monkeypatch.setattr(metrics_module, "DEFAULT_SKETCH_CAPACITY", 32)
        metrics = ServingMetrics()
        tracer = Tracer(SimulatedClock())
        tracer.subscribe(metrics)
        for i in range(200):
            tenant = ("flights", "police")[i % 2]
            metrics.record_outcome(
                outcome_like("completed", deadline_ns=5e6, deadline_hit=i % 3 == 0,
                             latency_ns=1e5 * (i + 1)),
                tenant=tenant,
            )
            tracer.span_at("stepper.stage2", 10.0 * i, 10.0 * i + 7.0 + i,
                           name="r", fresh_rows=i, est_slice_ns=5.0, tenant=tenant)
        metrics.record_shed(tenant="taxi")
        expected = (metrics.snapshot(), metrics.expose_text(),
                    metrics.merged_tenant_latency().percentiles((50, 99)))

        reads = []

        def outside_the_lock(read):
            def checked(sketch, *args):
                assert not metrics._lock.locked(), read.__name__
                reads.append(read.__name__)
                return read(sketch, *args)
            return checked

        for name in ("percentile", "percentiles", "merge"):
            monkeypatch.setattr(
                QuantileSketch, name, outside_the_lock(getattr(QuantileSketch, name))
            )
        monkeypatch.setattr(
            QuantileSketch, "mean", property(outside_the_lock(QuantileSketch.mean.fget))
        )
        got = (metrics.snapshot(), metrics.expose_text(),
               metrics.merged_tenant_latency().percentiles((50, 99)))
        assert got == expected
        assert {"percentile", "percentiles", "mean", "merge"} <= set(reads)

    def test_prometheus_exposition(self):
        metrics = ServingMetrics()
        metrics.record_outcome(
            outcome_like("completed", deadline_ns=5e6, deadline_hit=True),
            tenant="flights",
        )
        metrics.record_shed(tenant="police")
        text = metrics.expose_text()
        assert 'repro_requests_total{status="completed"} 1' in text
        assert 'repro_requests_total{status="shed"} 1' in text
        assert "repro_deadline_hits_total 1" in text
        assert 'quantile="0.99"' in text
        assert 'repro_tenant_requests_total{tenant="police",status="shed"} 1' in text
        assert 'repro_tenant_latency_seconds{tenant="flights",quantile="0.5"}' in text


# ---------------------------------------------------------------------------
# Trace IO: schema validation + JSONL round-trip
# ---------------------------------------------------------------------------


class TestTraceIO:
    def test_writer_reader_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(SimulatedClock())
        with TraceWriter(path) as writer:
            tracer.subscribe(writer)
            tracer.span_at("engine.step", 0.0, 50.0, name="r0", step=1)
            tracer.event("request.finalized", name="r0", latency_ns=50.0)
        records = TraceReader(path).records()
        assert [r.kind for r in records] == ["span", "event"]
        assert records[0].name == "engine.step"
        assert records[0].attrs == {"name": "r0", "step": 1}
        assert records[0].duration_ns == 50.0

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"v": 99, "kind": "span"}, "schema version"),
            ({"v": 1, "kind": "blob"}, "kind"),
            ({"v": 1, "kind": "span", "name": "", "id": 1}, "name"),
            (
                {"v": 1, "kind": "span", "name": "a", "id": 1, "parent": None,
                 "t0_ns": 5.0, "t1_ns": 1.0, "clock": "monotonic"},
                "ends before it starts",
            ),
            ([1, 2], "must be an object"),
        ],
    )
    def test_validate_rejects(self, obj, message):
        with pytest.raises(TraceSchemaError, match=message):
            validate_record(obj)

    def test_reader_rejects_corrupt_line_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"v": 1, "kind": "header", "format": "repro.trace"})
            + "\nnot json at all\n"
        )
        with pytest.raises(TraceSchemaError, match="bad.jsonl:2"):
            TraceReader(path).records()


# ---------------------------------------------------------------------------
# End to end: traced replay == untraced replay, trace file is coherent
# ---------------------------------------------------------------------------


def replay_requests(table, tracer=None, writer=None):
    session = MatchSession(table, tracer=tracer)
    if tracer is not None and writer is not None:
        tracer.subscribe(writer)
    door = FrontDoor(session, policy="edf")
    try:
        outcomes = door.replay(
            [
                (0.0, make_request("r0", k=3)),
                (0.0, make_request("r1", k=2)),
                (50_000.0, make_request("r2", k=3)),
            ]
        )
    finally:
        door.shutdown()
    return session, outcomes


class TestEndToEnd:
    def test_traced_replay_identical_and_trace_coherent(self, table, tmp_path):
        _, untraced = replay_requests(table)
        path = tmp_path / "replay.jsonl"
        tracer = Tracer()
        writer = TraceWriter(path)
        session, traced = replay_requests(table, tracer, writer)
        writer.close()

        # Tracing never changes answers or the simulated timeline.
        for a, b in zip(untraced, traced):
            assert a.status == b.status == "completed"
            assert a.report.result.matching == b.report.result.matching
            assert np.array_equal(
                a.report.result.histograms, b.report.result.histograms
            )
            assert a.report.result.stats == b.report.result.stats
            assert a.latency_ns == b.latency_ns
            assert a.steps == b.steps

        records = TraceReader(path).records()  # validates every line
        summary = summarize_records(records)
        assert summary.requests == 3
        # Acceptance criterion: queue+step spans tile [submitted, finished]
        # within one tick of the clock that stamped them.
        assert summary.max_drift_ns <= session.clock.resolution_ns
        assert summary.total_latency_ns == pytest.approx(
            sum(o.latency_ns for o in traced)
        )
        # engine.step spans match the engine's own step accounting.
        step_spans = [r for r in records if r.name == "engine.step"]
        assert len(step_spans) == sum(o.steps for o in traced)
        # Stepper stages appear with calibration attributes.
        stage2 = [r for r in records if r.name == "stepper.stage2"]
        assert stage2, "no stage-2 spans recorded"
        for record in stage2:
            assert record.attrs["est_rows_before"] >= 0
            assert "fresh_rows" in record.attrs

    def test_registry_cache_events_carry_tenant(self, table):
        tracer = Tracer()
        registry = SessionRegistry(tracer=tracer)
        registry.add_dataset("flights", table)
        door = FrontDoor(registry, policy="fifo")
        try:
            door.replay(
                [
                    (0.0, make_request("c0", dataset="flights")),
                    (0.0, make_request("c0-again", dataset="flights")),
                ]
            )
        finally:
            door.shutdown()
        cache_events = [
            r for r in tracer.records() if r.name in ("cache.hit", "cache.miss")
        ]
        assert cache_events
        assert all(r.attrs["tenant"] == "flights" for r in cache_events)
        hits = [r for r in cache_events if r.name == "cache.hit"]
        assert hits, "second identical request should hit the prepared cache"
        snap = door.metrics.snapshot()
        assert snap.per_tenant["flights"]["completed"] == 2

    def test_cli_trace_summarize(self, table, tmp_path, capsys):
        path = tmp_path / "cli.jsonl"
        writer = TraceWriter(path)
        tracer = Tracer()
        replay_requests(table, tracer, writer)
        writer.close()
        assert cli_main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stage" in out and "queue" in out and "stage2" in out
        assert "requests=3" in out

    def test_cli_trace_summarize_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text('{"v": 1, "kind": "nonsense"}\n')
        assert cli_main(["trace", "summarize", str(path)]) == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_cli_trace_summarize_missing_file(self, tmp_path, capsys):
        assert cli_main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 1
        assert "not found" in capsys.readouterr().err
