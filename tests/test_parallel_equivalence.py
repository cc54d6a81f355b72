"""Byte-identity of the sharded backend vs serial execution.

The sharded backend's whole contract is that parallelism changes *nothing*
observable: same chosen top-k, same per-group counts, same rows sampled,
same stopping round, same simulated cost.  These tests compare full
:class:`MatchResult`/report state across backends on the edges the ISSUE
calls out — one worker, more shards than blocks, candidates exhausted
mid-round, predicates — plus session-level serving and resource cleanup
(no leaked ``/dev/shm`` segments or worker processes after
``MatchSession.close()``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.config import HistSimConfig
from repro.data.generator import conditional_column, jittered
from repro.match import match_histograms
from repro.parallel import ShardedBackend, ThreadPoolBackend
from repro.query.predicate import IsIn
from repro.query.spec import HistogramQuery
from repro.storage.schema import CategoricalAttribute, Schema
from repro.storage.table import ColumnTable
from repro.system.session import MatchSession

NUM_CANDIDATES = 10
NUM_GROUPS = 6


def shm_files() -> set[str]:
    if not os.path.isdir("/dev/shm"):
        return set()
    return {f for f in os.listdir("/dev/shm") if f.startswith("repro-")}


@pytest.fixture(scope="module")
def table() -> ColumnTable:
    rng = np.random.default_rng(42)
    # Uneven candidate sizes, one deliberately rare (exhausts early).
    sizes = np.array([900, 800, 700, 600, 500, 400, 300, 200, 100, 24])
    base = np.full(NUM_GROUPS, 1.0 / NUM_GROUPS)
    distributions = np.stack(
        [jittered(base, concentration=30.0, rng=rng) for _ in sizes]
    )
    z = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    x = conditional_column(sizes, distributions, rng)
    order = rng.permutation(z.size)
    schema = Schema(
        (
            CategoricalAttribute("z", tuple(f"z{i}" for i in range(NUM_CANDIDATES))),
            CategoricalAttribute("x", tuple(f"x{i}" for i in range(NUM_GROUPS))),
        )
    )
    return ColumnTable(schema, {"z": z[order], "x": x[order]})


def run_match(table, backend, approach="fastmatch", predicate=None, epsilon=0.15):
    return match_histograms(
        table,
        "z",
        "x",
        k=3,
        epsilon=epsilon,
        delta=0.05,
        approach=approach,
        seed=9,
        block_size=32,
        predicate=predicate,
        backend=backend,
    )


def assert_reports_identical(serial, sharded, backend_name="sharded"):
    a, b = serial.result, sharded.result
    assert a.matching == b.matching
    np.testing.assert_array_equal(a.histograms, b.histograms)
    np.testing.assert_array_equal(a.distances, b.distances)
    assert a.pruned == b.pruned
    assert a.exact == b.exact
    assert a.stats == b.stats  # samples per stage + stopping round
    assert len(a.rounds) == len(b.rounds)
    for ra, rb in zip(a.rounds, b.rounds):
        assert ra == rb
    assert serial.counters == sharded.counters
    assert serial.elapsed_ns == sharded.elapsed_ns
    assert serial.backend == "serial"
    assert sharded.backend == backend_name


@pytest.mark.parametrize("approach", ["scanmatch", "syncmatch", "fastmatch"])
def test_byte_identity_across_approaches(table, approach):
    serial = run_match(table, "serial", approach=approach)
    with ShardedBackend(2, min_fan_out_rows=0) as backend:
        sharded = run_match(table, backend, approach=approach)
    assert_reports_identical(serial, sharded)


def test_single_worker_identity(table):
    serial = run_match(table, "serial")
    with ShardedBackend(1, min_fan_out_rows=0) as backend:
        sharded = run_match(table, backend)
    assert_reports_identical(serial, sharded)


def test_more_shards_than_blocks(table):
    # block_size 2048 over ~4.5k rows -> 3 blocks, 8 workers: the planner
    # must degrade to <= 3 single-block shards, never an empty one.
    serial = match_histograms(
        table, "z", "x", k=3, epsilon=0.15, seed=9, block_size=2048,
        backend="serial",
    )
    with ShardedBackend(8, min_fan_out_rows=0) as backend:
        sharded = match_histograms(
            table, "z", "x", k=3, epsilon=0.15, seed=9, block_size=2048,
            backend=backend,
        )
    assert_reports_identical(serial, sharded)


def test_exhausted_candidates_mid_round(table):
    # A tight tolerance drives sampling until rare candidates run dry; the
    # run ends exact, with the rare candidate's rows fully consumed.
    serial = run_match(table, "serial", epsilon=0.02)
    with ShardedBackend(2, min_fan_out_rows=0) as backend:
        sharded = run_match(table, backend, epsilon=0.02)
    assert serial.result.exact, "test premise: tolerance forces a full scan"
    assert_reports_identical(serial, sharded)


def test_predicate_row_filter_identity(table):
    predicate = IsIn("x", (0, 1, 2, 3))
    serial = run_match(table, "serial", predicate=predicate)
    with ShardedBackend(2, min_fan_out_rows=0) as backend:
        sharded = run_match(table, backend, predicate=predicate)
    assert_reports_identical(serial, sharded)


@pytest.mark.parametrize("approach", ["scanmatch", "syncmatch", "fastmatch"])
def test_threadpool_backend_identity(table, approach):
    """The in-process thread backend: same kernel, same partition, same
    merge — byte-identical to serial across every approach."""
    serial = run_match(table, "serial", approach=approach)
    with ThreadPoolBackend(2, min_fan_out_rows=0) as backend:
        threaded = run_match(table, backend, approach=approach)
        assert backend.shard_tasks > 0
    assert_reports_identical(serial, threaded, backend_name="threads")


def test_threadpool_predicate_identity(table):
    predicate = IsIn("x", (0, 1, 2, 3))
    serial = run_match(table, "serial", predicate=predicate)
    with ThreadPoolBackend(2, min_fan_out_rows=0) as backend:
        threaded = run_match(table, backend, predicate=predicate)
    assert_reports_identical(serial, threaded, backend_name="threads")


# ---------------------------------------------------------------------------
# Session-level equivalence and lifecycle
# ---------------------------------------------------------------------------


def queries():
    return [
        HistogramQuery(candidate_attribute="z", grouping_attribute="x", k=3,
                       name="q-uniform"),
        HistogramQuery(candidate_attribute="z", grouping_attribute="x", k=2,
                       name="q-filtered",
                       predicate=IsIn("x", (0, 1, 2))),
    ]


def session_config(k):
    return HistSimConfig(k=k, epsilon=0.15, delta=0.05, sigma=0.0)


def drain(session):
    for query in queries():
        session.submit(query, config=session_config(query.k), seed=4,
                       max_step_rows=500)
    return session.run()


def test_session_equivalence_and_backend_attribution(table):
    with MatchSession(table, audit=True) as serial_session:
        serial_run = drain(serial_session)
    # A passed-in backend instance is the caller's to close (the session
    # only closes backends it created from a string spec).
    with ShardedBackend(2, min_fan_out_rows=0) as backend:
        with MatchSession(table, audit=True, backend=backend) as sharded_session:
            sharded_run = drain(sharded_session)
        assert not backend.closed  # survived session close: reusable

    assert serial_run.backend == {"backend": "serial"}
    assert sharded_run.backend["backend"] == "sharded"
    assert sharded_run.backend["workers"] == 2
    assert sharded_run.backend["shard_tasks"] > 0

    assert len(serial_run) == len(sharded_run)
    for a, b in zip(serial_run, sharded_run):
        assert a.name == b.name
        assert a.report.result.matching == b.report.result.matching
        np.testing.assert_array_equal(
            a.report.result.histograms, b.report.result.histograms
        )
        assert a.report.result.stats == b.report.result.stats
        assert a.latency_ns == b.latency_ns
        assert a.steps == b.steps
        assert b.report.backend == "sharded"


def test_session_close_releases_shared_memory_and_workers(table):
    before = shm_files()
    session = MatchSession(table, backend="sharded", workers=2)
    # Force pool usage even on tiny calls.
    session.backend.min_fan_out_rows = 0
    session.submit(queries()[0], config=session_config(3), seed=4)
    session.run()
    store = session.backend.store
    pool = session.backend.pool
    assert store.num_segments > 0
    created = set(store.segment_names())
    if os.path.isdir("/dev/shm"):
        assert created <= shm_files()
    assert pool.alive_workers == 2

    session.close()
    assert shm_files() <= before  # nothing we created survives
    assert store.num_segments == 0
    assert pool.alive_workers == 0
    session.close()  # idempotent
    with pytest.raises(RuntimeError):
        session.backend.pool.run([])


def test_closed_backend_refuses_new_work(table):
    backend = ShardedBackend(1, min_fan_out_rows=0)
    backend.close()
    with pytest.raises(RuntimeError):
        _ = backend.pool


def test_shared_backend_reused_across_sessions(table):
    # One pool + one set of published segments serves two sessions over the
    # same dataset; the second session's results still match serial.
    serial = run_match(table, "serial")
    with ShardedBackend(2, min_fan_out_rows=0) as backend:
        for _ in range(2):
            with MatchSession(table, backend=backend) as session:
                session.submit(
                    HistogramQuery(candidate_attribute="z",
                                   grouping_attribute="x", k=3),
                    config=session_config(3),
                    seed=9,
                )
                run = session.run()
            assert run[0].report.result.stats == serial.result.stats
        assert backend.pool.alive_workers == 2


def test_exact_counts_sharded_identity(table):
    """Satellite: the ground-truth pass shards with byte-identical output,
    with and without a predicate (the filter ships as per-shard slices)."""
    from repro.query.executor import exact_candidate_counts

    plain = HistogramQuery("z", "x", k=3)
    filtered = HistogramQuery("z", "x", k=3, predicate=IsIn("x", (0, 1, 2, 3)))
    with ShardedBackend(2, min_fan_out_rows=0) as backend:
        for query in (plain, filtered):
            serial = exact_candidate_counts(table, query)
            sharded = exact_candidate_counts(table, query, backend=backend)
            assert serial.dtype == sharded.dtype
            assert np.array_equal(serial, sharded)
        assert backend.shard_tasks > 0  # the pool really ran the pass
    assert shm_files() == set()


def test_scan_baseline_sharded_identity(table):
    """Satellite: the Scan baseline through the sharded backend reports the
    exact same result and simulated cost as serial."""
    serial = run_match(table, "serial", approach="scan")
    with ShardedBackend(2, min_fan_out_rows=0) as backend:
        sharded = run_match(table, backend, approach="scan")
    assert sharded.backend == "sharded"
    assert sharded.result.matching == serial.result.matching
    assert np.array_equal(sharded.result.histograms, serial.result.histograms)
    assert sharded.elapsed_ns == serial.elapsed_ns
    assert shm_files() == set()


def test_cli_workers_ignored_with_warning_on_serial(table, capsys):
    """Satellite bugfix: --workers with --backend serial is ignored with a
    warning — neither silently accepted nor a hard error."""
    from repro.cli import main

    code = main(["--query", "flights-q1", "--rows", "20000",
                 "--workers", "2", "--no-render"])
    captured = capsys.readouterr()
    assert code == 0
    assert "--workers 2 is ignored" in captured.err
    assert "backend    : serial" in captured.out


def test_cli_scan_accepts_sharded_backend(table, capsys):
    """The exact scan baseline now routes its counting pass through the
    sharded backend (byte-identical; previously a hard CLI error)."""
    from repro.cli import main

    code = main(["--query", "flights-q1", "--rows", "20000",
                 "--approach", "scan", "--backend", "sharded",
                 "--workers", "2", "--no-render"])
    out = capsys.readouterr().out
    assert code == 0
    assert "backend    : sharded" in out
    assert shm_files() == set()


def test_cli_batch_sharded(table, capsys):
    from repro.cli import main

    code = main(
        [
            "batch",
            "--queries", "flights-q1",
            "--rows", "20000",
            "--backend", "sharded",
            "--workers", "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "backend=sharded" in out
    assert "workers=2" in out
    assert shm_files() == set()
