"""Performance observability: profiler, sketches, health, ``repro top``.

Covers the acceptance criteria of the continuous-profiling PR:

- :data:`NULL_PROFILER` is a shared no-op and the profiling-disabled hot
  loop allocates nothing from the profiler module;
- profiled runs are byte-identical (answers *and* simulated clock) to
  unprofiled ones across the serial, thread-pool, and sharded backends;
- per-stage profile durations reconcile exactly with the stepper's trace
  spans (same clock endpoints by construction);
- :class:`WallProfiler` samples real stacks into collapsed flamegraph
  lines without signals or trace hooks;
- :meth:`QuantileSketch.merge` is exact while the union fits and keeps
  the reservoir quantile error bound beyond capacity;
- :class:`HealthMonitor` grades utilization OK/DEGRADED/CRITICAL and
  never perturbs the spine (no lazy pool spawn); :class:`StatsExporter`
  writes complete frames ``repro top`` can render;
- the ``profile``/``top``/``trace --json`` CLI commands work end to end,
  and their interval flags (and ``serve --deadline-ms``) reject a value
  that is not positive at parse time.
"""

from __future__ import annotations

import json
import math
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro import FrontDoor, MatchSession, QueryRequest, SessionRegistry
from repro.cli import main as cli_main
from repro.core import HistSimConfig
from repro.data import load_dataset, workload_query
from repro.obs import (
    CRITICAL,
    DEGRADED,
    NULL_PROFILER,
    OK,
    HealthMonitor,
    ProfileSnapshot,
    Profiler,
    QuantileSketch,
    StatsExporter,
    Tracer,
    WallProfiler,
)
from repro.obs import profiler as profiler_module
from repro.obs.health import _utilization_check
from repro.parallel import ShardedBackend, ThreadPoolBackend

ROWS = 20_000


@pytest.fixture(scope="module")
def flights_table():
    return load_dataset("flights", rows=ROWS, seed=7).table


@pytest.fixture(scope="module")
def flights_query():
    _, query = workload_query("flights-q1")
    return query


def small_config(query) -> HistSimConfig:
    return HistSimConfig(
        k=query.k, epsilon=0.1, delta=0.01, sigma=0.0008,
        stage1_samples=ROWS // 20,
    )


def run_once(table, query, *, backend="serial", profiler=None, tracer=None):
    with MatchSession(
        table, backend=backend, profiler=profiler, tracer=tracer
    ) as session:
        return session.match(
            query, approach="fastmatch", config=small_config(query), seed=3
        )


# ---------------------------------------------------------------- profiler


def test_null_profiler_is_a_shared_noop():
    assert NULL_PROFILER.enabled is False
    assert NULL_PROFILER.fork() is NULL_PROFILER
    # One preallocated stage scope, reused for every call: no per-step
    # allocation on the disabled path.
    assert NULL_PROFILER.stage("stage1") is NULL_PROFILER.stage("stage2")
    with NULL_PROFILER.stage("stage1"):
        NULL_PROFILER.record_kernel("k", 1.0, rows=5)
        NULL_PROFILER.bump("windows")
    snapshot = NULL_PROFILER.snapshot()
    assert snapshot.totals == {} and snapshot.kernels == {}


def test_disabled_profiling_allocates_nothing_from_profiler_module(
    flights_table, flights_query
):
    run_once(flights_table, flights_query)  # warm caches outside the trace
    tracemalloc.start()
    try:
        run_once(flights_table, flights_query)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    from_profiler = snapshot.filter_traces(
        [tracemalloc.Filter(True, profiler_module.__file__)]
    )
    assert sum(stat.size for stat in from_profiler.statistics("filename")) == 0


def test_fork_rolls_up_into_parent_with_stage_attribution():
    parent = Profiler()
    child = parent.fork()
    with child.stage("stage2"):
        child.record_kernel(
            "serial.count", 1000.0, rows=64, blocks=2, nbytes=512, bincounts=1
        )
        child.record_kernel("engine.deliver", 9999.0)
    child.bump("windows")

    per_job = child.snapshot()
    assert per_job.stages == {}  # record_stage is the stepper's job
    assert per_job.kernels["stage2"]["serial.count"]["rows"] == 64
    assert per_job.totals["rows_gathered"] == 64
    # engine.* ns is the simulated I/O charge, excluded from kernel time.
    assert per_job.totals["kernel_ns"] == 1000.0
    assert per_job.totals["windows"] == 1

    aggregate = parent.snapshot()
    assert aggregate.totals["rows_gathered"] == 64
    assert aggregate.totals["windows"] == 1


def test_profiled_runs_are_byte_identical_across_backends(
    flights_table, flights_query
):
    baseline = run_once(flights_table, flights_query)
    assert baseline.report.profile is None  # no profiler, no payload

    backends = [
        "serial",
        ThreadPoolBackend(2, min_fan_out_rows=0),
        ShardedBackend(2, min_fan_out_rows=0),
    ]
    for backend in backends:
        profiler = Profiler()
        try:
            outcome = run_once(
                flights_table, flights_query, backend=backend, profiler=profiler
            )
        finally:
            if not isinstance(backend, str):
                backend.close()
        report = outcome.report
        np.testing.assert_array_equal(
            report.result.matching, baseline.report.result.matching
        )
        np.testing.assert_allclose(
            report.result.distances, baseline.report.result.distances
        )
        # Same simulated clock too: profiling charged nothing.
        assert report.elapsed_ns == baseline.report.elapsed_ns

        profile = report.profile
        assert profile is not None
        assert profile["totals"]["rows_gathered"] > 0
        assert profile["totals"]["blocks_touched"] > 0
        assert profile["totals"]["bytes_moved"] > 0
        assert profile["totals"]["bincount_calls"] >= 1
        assert {"stage1", "stage2"} <= set(profile["stages"])
        # The rendered table covers every recorded kernel row.
        table_text = ProfileSnapshot(**profile).format_table()
        for stage, kernels in profile["kernels"].items():
            for kernel in kernels:
                assert kernel in table_text


def test_stage_durations_reconcile_with_trace_spans(flights_table, flights_query):
    profiler = Profiler()
    tracer = Tracer()
    outcome = run_once(
        flights_table, flights_query, profiler=profiler, tracer=tracer
    )
    stages = outcome.report.profile["stages"]

    span_ns: dict[str, float] = {}
    for span in tracer.spans:
        if span.name.startswith("stepper."):
            stage = span.name[len("stepper."):]
            span_ns[stage] = span_ns.get(stage, 0.0) + span.duration_ns
    assert span_ns  # tracing was on
    for stage, stats in stages.items():
        assert stats["ns"] == pytest.approx(span_ns[stage], abs=1.0)


def test_wall_profiler_collapses_stacks():
    stop = threading.Event()

    def busy():
        while not stop.is_set():
            math.sqrt(12345.6789)

    worker = threading.Thread(target=busy, name="busy-loop", daemon=True)
    worker.start()
    try:
        with WallProfiler(interval_s=0.001) as wall:
            time.sleep(0.08)
    finally:
        stop.set()
        worker.join()
    assert wall.samples > 0
    stacks = wall.collapsed()
    assert stacks and all(count >= 1 for count in stacks.values())
    assert any(";" in stack for stack in stacks)  # real multi-frame stacks
    lines = wall.format_collapsed(top=5).splitlines()
    assert 0 < len(lines) <= 5
    for line in lines:
        stack, _, count = line.rpartition(" ")
        assert stack and int(count) >= 1


# ------------------------------------------------------------ sketch merge


def test_sketch_merge_exact_regime_matches_direct_observation():
    left, right, direct = (
        QuantileSketch(64), QuantileSketch(64), QuantileSketch(128)
    )
    values_left = [float(v) for v in range(10)]
    values_right = [float(v) for v in range(100, 140)]
    for v in values_left:
        left.observe(v)
        direct.observe(v)
    for v in values_right:
        right.observe(v)
        direct.observe(v)
    merged = QuantileSketch(128)
    merged.merge(left).merge(right)
    assert merged.count == direct.count
    assert merged.total == direct.total
    assert merged.minimum == direct.minimum
    assert merged.maximum == direct.maximum
    for q in (1, 25, 50, 75, 99):
        assert merged.percentile(q) == direct.percentile(q)
    # The sources were read, never mutated.
    assert left.count == len(values_left)
    assert right.count == len(values_right)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sketch_merge_keeps_reservoir_quantile_error_bound(seed):
    # Property: after merging two over-capacity sketches of very different
    # streams, each estimated quantile's *rank* error stays within the
    # documented ~sqrt(q(1-q)/capacity) reservoir bound (x4 margin).
    capacity = 512
    rng = np.random.default_rng(seed)
    stream_a = rng.exponential(10.0, size=3000)
    stream_b = 100.0 + rng.normal(0.0, 5.0, size=5000)
    sketch_a = QuantileSketch(capacity, seed=seed)
    sketch_b = QuantileSketch(capacity, seed=seed + 1)
    for v in stream_a:
        sketch_a.observe(v)
    for v in stream_b:
        sketch_b.observe(v)
    merged = sketch_a.merge(sketch_b)

    union = np.sort(np.concatenate([stream_a, stream_b]))
    assert merged.count == union.size
    assert merged.total == pytest.approx(union.sum())
    for q in (0.1, 0.25, 0.5, 0.75, 0.9):
        estimate = merged.percentile(100 * q)
        rank = np.searchsorted(union, estimate) / union.size
        bound = 4.0 * math.sqrt(q * (1 - q) / capacity)
        assert abs(rank - q) <= bound, (
            f"q={q}: rank {rank:.4f} off by more than {bound:.4f}"
        )


# ----------------------------------------------------------------- health


def test_utilization_thresholds():
    assert _utilization_check("queue", 3.0, None, "x").status == OK
    assert _utilization_check("queue", 3.0, 8.0, "x").status == OK
    assert _utilization_check("queue", 7.0, 8.0, "x").status == DEGRADED
    assert _utilization_check("queue", 8.0, 8.0, "x").status == CRITICAL
    assert _utilization_check("queue", 9.0, 8.0, "x").status == CRITICAL


def test_health_monitor_grades_a_fake_door():
    door = SimpleNamespace(
        admission=SimpleNamespace(in_flight=8, max_queue=8),
        engine=SimpleNamespace(in_flight=1, pending=0),
        metrics=None,
        max_concurrent_steps=4,
        service=None,
    )
    report = HealthMonitor(door).check()
    assert report.status == CRITICAL
    assert any("in flight" in reason for reason in report.reasons)
    by_name = {c.name: c for c in report.checks}
    assert by_name["queue"].status == CRITICAL
    assert by_name["steps"].status == OK


def test_health_monitor_never_spawns_the_lazy_worker_pool(flights_table):
    with SessionRegistry(backend="sharded", workers=2) as registry:
        registry.add_dataset("flights", flights_table)
        door = FrontDoor(registry, policy="edf")
        try:
            report = HealthMonitor(door).check()
        finally:
            door.shutdown()
        assert report.status == OK
        # The probe must read the worker slots, not the spawning property.
        assert registry.backend._executor is None
        names = [c.name for c in report.checks]
        assert "workers" not in names  # nothing spawned -> nothing to grade
        assert "clock_skew" in names


def test_stats_exporter_frames_and_calibration(
    tmp_path, flights_table, flights_query
):
    tracer = Tracer()
    registry = SessionRegistry(tracer=tracer)
    registry.add_dataset("flights", flights_table)
    door = FrontDoor(registry, policy="edf")
    request = QueryRequest(
        flights_query, approach="fastmatch", config=small_config(flights_query),
        seed=3, dataset="flights", name="q",
    )
    try:
        outcomes = door.replay([(0.0, request)])
    finally:
        door.shutdown()
    assert outcomes[0].status == "completed"

    # Per-tenant calibration (observed vs Eq. 1-estimated stage cost) is in
    # the snapshot, and sits near 1.0: the simulated clock charges exactly
    # the modeled cost, plus stage overheads beyond the delivered slice.
    snap = door.metrics.snapshot()
    ratio = snap.per_tenant["flights"]["calibration_ratio"]
    assert 0.5 < ratio < 3.0
    assert any(
        "calibration_ratio" in stage for stage in snap.per_stage.values()
    )

    exporter = StatsExporter(door, tmp_path / "stats.json", interval_s=0.01)
    exporter.write_frame()
    frame = json.loads((tmp_path / "stats.json").read_text())
    assert frame["serving"]["per_tenant"]["flights"]["calibration_ratio"] == ratio
    assert frame["health"]["status"] == OK
    assert frame["queue"]["in_flight"] == 0
    assert frame["serving"]["all_tenants"]["requests"] == 1

    with exporter:
        time.sleep(0.05)
    assert exporter.frames >= 2
    registry.close()


# -------------------------------------------------------------------- CLI


def test_cli_profile_json(capsys):
    code = cli_main(
        ["profile", "flights-q1", "--rows", str(ROWS), "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["query"] == "flights-q1"
    profile = payload["profile"]
    assert profile["totals"]["rows_gathered"] > 0
    # Trace spans and profile stages agree stage by stage.
    for stage, stats in profile["stages"].items():
        assert stats["ns"] == pytest.approx(
            payload["trace_stage_ns"][stage], abs=1.0
        )


def test_cli_profile_table_and_wall(capsys):
    code = cli_main([
        "profile", "flights-q1", "--rows", str(ROWS),
        "--wall", "--wall-interval-ms", "2", "--top", "5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "serial.count" in out
    assert "drift ns" in out
    assert "wall stacks" in out


def test_cli_top_once_renders_a_frame(tmp_path, capsys):
    frame = {
        "frame": 3,
        "queue": {"in_flight": 2, "max_queue": 8, "pending": 1,
                  "stepping": 1, "step_slots": 4},
        "shm": {"bytes": 2 * 2**20, "segments": 3},
        "serving": {
            "requests": 10, "completed": 9, "partial": 1, "missed": 0,
            "shed": 0, "p50_latency_ms": 2.0, "p95_latency_ms": 4.0,
            "p99_latency_ms": 5.0, "deadline_hit_rate": 0.9,
            "per_tenant": {"flights": {
                "completed": 9, "p50_latency_ms": 2.0,
                "calibration_ratio": 1.05,
            }},
            "all_tenants": {"requests": 10, "p50_latency_ms": 2.0,
                            "p99_latency_ms": 5.0},
        },
        "health": {"status": "degraded", "reasons": ["queue hot"]},
    }
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps(frame))
    assert cli_main(["top", str(stats), "--once"]) == 0
    out = capsys.readouterr().out
    assert "2 in flight" in out
    assert "calibration=1.050" in out
    assert "DEGRADED" in out
    assert "queue hot" in out

    missing = cli_main(["top", str(tmp_path / "nope.json"), "--once"])
    assert missing == 1


def test_cli_serve_stats_out_then_top(tmp_path, capsys):
    stats = tmp_path / "stats.json"
    trace = tmp_path / "trace.jsonl"
    code = cli_main([
        "--rows", str(ROWS), "serve", "--queries", "flights-q1",
        "--stats-out", str(stats), "--stats-interval", "0.05",
        "--trace-out", str(trace),
    ])
    assert code == 0
    serve_out = capsys.readouterr().out
    assert "stats      :" in serve_out
    assert stats.exists()

    assert cli_main(["top", str(stats), "--once"]) == 0
    top_out = capsys.readouterr().out
    assert "health     : OK" in top_out
    assert "completed" in top_out

    assert cli_main(["trace", "summarize", str(trace), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["requests"] == 1
    assert "stage2" in summary["stages"]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["top", "stats.json", "--interval"],
    ["profile", "flights-q1", "--wall", "--wall-interval-ms"],
    ["serve", "--queries", "flights-q1", "--stats-interval"],
    ["serve", "--queries", "flights-q1", "--deadline-ms"],
])
def test_cli_rejects_non_positive_intervals(argv, value, capsys):
    # Rejected by the parser, before any dataset is loaded or loop entered.
    with pytest.raises(SystemExit) as excinfo:
        cli_main(argv + [value])
    assert excinfo.value.code == 2
    assert "must be > 0" in capsys.readouterr().err
