"""Unit tests for the sharded execution subsystem's building blocks:
planner, shared-memory store, worker kernel, workers, and merger, the
worker-backend contract both transports hold, and the process transport's
faults (a killed worker, a close racing a count)."""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro

from repro.obs import Profiler, Tracer
from repro.parallel import (
    CountSource,
    SegmentRef,
    Shard,
    ShardMerger,
    ShardPlanner,
    ShardedBackend,
    SharedMemoryStore,
    ThreadPoolBackend,
    count_window,
    make_backend,
)
from repro.parallel.backend import DEFAULT_MIN_FAN_OUT_ROWS, SerialBackend
from repro.parallel.worker import ShardResult, ShardTask, run_task
from repro.sampling import BlockSamplingEngine, ScanAllPolicy
from repro.storage import CostModel
from repro.storage.blocks import BlockLayout
from repro.storage.shuffle import ShuffledTable
from repro.system import SimulatedClock


def shm_files() -> set[str]:
    """Current repro-owned segments in /dev/shm (Linux) or empty elsewhere."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return {f for f in os.listdir("/dev/shm") if f.startswith("repro-")}


# ---------------------------------------------------------------------------
# ShardPlanner
# ---------------------------------------------------------------------------


class TestShardPlanner:
    def test_partition_covers_blocks_exactly_once(self):
        layout = BlockLayout(num_rows=1000, block_size=32)
        blocks = np.arange(layout.num_blocks, dtype=np.int64)
        shards = ShardPlanner(4).plan(blocks, layout)
        recovered = np.concatenate([s.blocks for s in shards])
        np.testing.assert_array_equal(recovered, blocks)
        assert sum(s.rows for s in shards) == 1000

    def test_balanced_by_rows(self):
        layout = BlockLayout(num_rows=64 * 100, block_size=64)
        blocks = np.arange(100, dtype=np.int64)
        shards = ShardPlanner(4).plan(blocks, layout)
        assert len(shards) == 4
        rows = [s.rows for s in shards]
        assert max(rows) - min(rows) <= 64  # within one block of perfect

    def test_more_shards_than_blocks(self):
        layout = BlockLayout(num_rows=96, block_size=32)
        blocks = np.arange(3, dtype=np.int64)
        shards = ShardPlanner(8).plan(blocks, layout)
        assert 1 <= len(shards) <= 3
        assert all(s.blocks.size >= 1 for s in shards)
        recovered = np.concatenate([s.blocks for s in shards])
        np.testing.assert_array_equal(recovered, blocks)

    def test_empty_blocks(self):
        layout = BlockLayout(num_rows=100, block_size=10)
        assert ShardPlanner(4).plan(np.empty(0, dtype=np.int64), layout) == []

    def test_single_block(self):
        layout = BlockLayout(num_rows=100, block_size=10)
        shards = ShardPlanner(4).plan(np.array([3]), layout)
        assert len(shards) == 1 and shards[0].rows == 10

    def test_short_final_block_rows(self):
        layout = BlockLayout(num_rows=105, block_size=10)  # last block: 5 rows
        blocks = np.arange(layout.num_blocks, dtype=np.int64)
        shards = ShardPlanner(3).plan(blocks, layout)
        assert sum(s.rows for s in shards) == 105

    def test_rejects_unsorted(self):
        layout = BlockLayout(num_rows=100, block_size=10)
        with pytest.raises(ValueError):
            ShardPlanner(2).plan(np.array([3, 1]), layout)
        with pytest.raises(ValueError):
            ShardPlanner(2).plan(np.array([1, 1]), layout)

    def test_rejects_bad_n_shards(self):
        with pytest.raises(ValueError):
            ShardPlanner(0)

    def test_shard_validation(self):
        with pytest.raises(ValueError):
            Shard(index=0, blocks=np.empty(0, dtype=np.int64), rows=1)
        with pytest.raises(ValueError):
            Shard(index=0, blocks=np.array([1]), rows=0)


# ---------------------------------------------------------------------------
# SharedMemoryStore
# ---------------------------------------------------------------------------


class TestSharedMemoryStore:
    def test_publish_roundtrip_preserves_dtype_and_values(self):
        from repro.parallel.shm import attach_segment

        store = SharedMemoryStore()
        try:
            data = np.arange(100, dtype=np.uint16)
            ref = store.publish("key", data)
            assert ref.dtype == np.dtype(np.uint16).str
            # The creating process shares its own tracker: undoing the
            # attach-time registration would strip the store's.
            shm, view = attach_segment(ref, shared_tracker=True)
            np.testing.assert_array_equal(view, data)
            assert view.dtype == np.uint16
            shm.close()
        finally:
            store.close()

    def test_publish_is_memoized_per_key(self):
        with SharedMemoryStore() as store:
            a = store.publish("k", np.arange(10))
            b = store.publish("k", np.arange(10))
            assert a == b and store.num_segments == 1

    def test_close_unlinks_segments(self):
        store = SharedMemoryStore()
        store.publish("k1", np.arange(64))
        store.publish("k2", np.ones(64, dtype=bool))
        names = set(store.segment_names())
        assert len(names) == 2
        if os.path.isdir("/dev/shm"):
            assert names <= set(os.listdir("/dev/shm"))
        store.close()
        if os.path.isdir("/dev/shm"):
            assert not (names & set(os.listdir("/dev/shm")))

    def test_close_is_idempotent_and_publish_after_close_raises(self):
        store = SharedMemoryStore()
        store.publish("k", np.arange(4))
        store.close()
        store.close()
        with pytest.raises(RuntimeError):
            store.publish("k2", np.arange(4))

    def test_unpublish_unlinks_one_segment(self):
        with SharedMemoryStore() as store:
            store.publish("keep", np.arange(32))
            ref = store.publish("evict", np.arange(32))
            store.unpublish("evict")
            assert store.keys() == ["keep"]
            if os.path.isdir("/dev/shm"):
                assert ref.name not in os.listdir("/dev/shm")
            # Idempotent: unknown/already-evicted keys are ignored.
            store.unpublish("evict")
            store.unpublish("never-published")
            # A fresh publish under the evicted key gets a new segment.
            fresh = store.publish("evict", np.arange(8))
            assert fresh.name != ref.name

    def test_unpublish_then_close_is_safe(self):
        store = SharedMemoryStore()
        store.publish("a", np.arange(8))
        store.publish("b", np.arange(8))
        store.unpublish("a")
        store.close()
        if os.path.isdir("/dev/shm"):
            assert not {f for f in os.listdir("/dev/shm") if f.startswith("repro-")}


class TestBackendUnpublish:
    """Eviction hooks: artifacts matched by identity drop their segments."""

    def test_sharded_unpublish_drops_table_and_filter_segments(self):
        from repro.storage.schema import CategoricalAttribute, Schema
        from repro.storage.table import ColumnTable

        schema = Schema(
            (
                CategoricalAttribute("z", ("a", "b")),
                CategoricalAttribute("x", ("u", "v")),
            )
        )
        table = ColumnTable(
            schema,
            {"z": np.zeros(64, dtype=np.int64), "x": np.ones(64, dtype=np.int64)},
        )
        other = ColumnTable(
            schema,
            {"z": np.ones(64, dtype=np.int64), "x": np.zeros(64, dtype=np.int64)},
        )
        row_filter = np.ones(64, dtype=bool)
        backend = ShardedBackend(1, min_fan_out_rows=0)
        try:
            # Publish under the exact keys the counting paths use.
            backend.store.publish(("column", id(table), "z"), table.column("z"))
            backend.store.publish(("column", id(table), "x"), table.column("x"))
            backend.store.publish(("column", id(other), "z"), other.column("z"))
            backend.store.publish(("filter", id(row_filter)), row_filter)
            backend._pinned_tables[id(table)] = table
            backend._pinned_tables[id(other)] = other
            backend.unpublish(table, row_filter)
            remaining = backend.store.keys()
            assert remaining == [("column", id(other), "z")]
            assert id(table) not in backend._pinned_tables
            assert id(other) in backend._pinned_tables
            # Unknown artifacts and repeats are no-ops.
            backend.unpublish(table, None)
        finally:
            backend.close()

    def test_serial_unpublish_is_a_noop(self):
        SerialBackend().unpublish(object(), None)

    def test_session_close_unpublishes_its_segments(self):
        """A session over a borrowed backend takes its segments with it
        on close, so sessions closed one after another over one shared
        backend leave /dev/shm as they found it."""
        from repro.core import HistSimConfig
        from repro.core.target import TargetSpec
        from repro.query import Equals, HistogramQuery
        from repro.storage.schema import CategoricalAttribute, Schema
        from repro.storage.table import ColumnTable
        from repro.system import MatchSession

        rng = np.random.default_rng(9)
        n = 60_000
        schema = Schema(
            (
                CategoricalAttribute("z", tuple(f"c{i}" for i in range(8))),
                CategoricalAttribute("x", tuple(f"g{i}" for i in range(4))),
            )
        )
        table = ColumnTable(
            schema, {"z": rng.integers(0, 8, n), "x": rng.integers(0, 4, n)}
        )
        config = HistSimConfig(k=2, epsilon=0.25, delta=0.05, sigma=0.0)
        queries = [
            HistogramQuery("z", "x", target=TargetSpec(kind="closest_to_uniform"),
                           k=2, name="plain"),
            HistogramQuery("z", "x", target=TargetSpec(kind="closest_to_uniform"),
                           k=2, predicate=Equals("x", 1), name="filtered"),
        ]
        backend = ShardedBackend(1, min_fan_out_rows=0)
        try:
            for kernel in ("auto", "fused"):
                session = MatchSession(
                    table, backend=backend, kernel=kernel, audit=False
                )
                for query in queries:
                    session.match(query, config=config, seed=0)
                names = set(backend.store.segment_names())
                assert names
                session.close()
                assert backend.store.keys() == []
                assert not (names & shm_files())
                assert not backend.closed  # borrowed: still the creator's
        finally:
            backend.close()


# ---------------------------------------------------------------------------
# Counting kernel
# ---------------------------------------------------------------------------


class TestCountShard:
    def test_matches_direct_bincount(self):
        rng = np.random.default_rng(3)
        n, c, g = 1000, 7, 5
        z = rng.integers(0, c, n).astype(np.uint8)
        x = rng.integers(0, g, n).astype(np.uint8)
        layout = BlockLayout(n, 32)
        blocks = np.arange(layout.num_blocks, dtype=np.int64)
        counts = count_window(z, x, blocks, layout, c, g)[0]
        expected = np.bincount(
            z.astype(np.int64) * g + x, minlength=c * g
        ).reshape(c, g)
        np.testing.assert_array_equal(counts, expected)
        assert counts.dtype == np.int64

    def test_respects_row_filter_and_partial_blocks(self):
        rng = np.random.default_rng(4)
        n, c, g = 517, 4, 3  # short final block
        z = rng.integers(0, c, n)
        x = rng.integers(0, g, n)
        keep = rng.random(n) < 0.5
        layout = BlockLayout(n, 64)
        blocks = np.array([0, 2, layout.num_blocks - 1], dtype=np.int64)
        counts = count_window(z, x, blocks, layout, c, g, row_filter=keep)[0]
        rows = layout.rows_of_blocks(blocks)
        kept = rows[keep[rows]]
        expected = np.bincount(
            z[kept] * g + x[kept], minlength=c * g
        ).reshape(c, g)
        np.testing.assert_array_equal(counts, expected)


# ---------------------------------------------------------------------------
# ShardMerger
# ---------------------------------------------------------------------------


class TestShardMerger:
    def test_merge_sums_exactly(self):
        a = np.arange(6, dtype=np.int64).reshape(2, 3)
        b = np.ones((2, 3), dtype=np.int64)
        merged = ShardMerger(2, 3).merge(
            [
                ShardResult(task_id=0, counts=a, rows=int(a.sum())),
                ShardResult(task_id=1, counts=b, rows=int(b.sum())),
            ]
        )
        np.testing.assert_array_equal(merged, a + b)

    def test_merge_rejects_shape_mismatch(self):
        bad = ShardResult(task_id=0, counts=np.zeros((3, 3), dtype=np.int64), rows=0)
        with pytest.raises(ValueError):
            ShardMerger(2, 3).merge([bad])

    def test_merge_rejects_float_counts(self):
        bad = ShardResult(task_id=0, counts=np.zeros((2, 3)), rows=0)
        with pytest.raises(ValueError):
            ShardMerger(2, 3).merge([bad])

    def test_merge_rejects_inconsistent_rows_tally(self):
        """The tally is checked against the planner's rows — a number the
        producer of the result never saw — not against the result's own
        matrix: it may not exceed them, and equals them when nothing
        filters rows."""
        layout = BlockLayout(96, 16)
        shards = ShardPlanner(2).plan(np.arange(6), layout)
        assert [shard.rows for shard in shards] == [48, 48]

        def results(*rows):
            counts = np.zeros((2, 3), dtype=np.int64)
            return [
                ShardResult(task_id=i, counts=counts, rows=tally)
                for i, tally in enumerate(rows)
            ]

        merger = ShardMerger(2, 3)
        merger.merge(results(48, 48), shards, exact=True)
        merger.merge(results(48, 31), shards)  # a filter dropped rows
        merger.merge(results(48, 49))  # nothing planned: nothing to check
        with pytest.raises(ValueError, match="shard 1 tallied 49 rows, planned at most 48"):
            merger.merge(results(48, 49), shards)
        with pytest.raises(ValueError, match="shard 1 tallied 31 rows, planned 48"):
            merger.merge(results(48, 31), shards, exact=True)
        with pytest.raises(ValueError, match="1 shard results for 2 planned"):
            merger.merge(results(48), shards)


# ---------------------------------------------------------------------------
# Worker executors (process transport unless parametrised)
# ---------------------------------------------------------------------------


def make_tasks(store: SharedMemoryStore, n: int, c: int, g: int, n_shards: int):
    """Random (z, x) data published to shm + one task per planner shard."""
    rng = np.random.default_rng(11)
    z = rng.integers(0, c, n).astype(np.uint8)
    x = rng.integers(0, g, n).astype(np.uint8)
    layout = BlockLayout(n, 32)
    z_ref = store.publish("z", z)
    x_ref = store.publish("x", x)
    blocks = np.arange(layout.num_blocks, dtype=np.int64)
    shards = ShardPlanner(n_shards).plan(blocks, layout)
    tasks = [
        ShardTask(
            task_id=s.index,
            blocks=s.blocks,
            z_ref=z_ref,
            x_ref=x_ref,
            filter_ref=None,
            block_size=layout.block_size,
            num_rows=layout.num_rows,
            num_candidates=c,
            num_groups=g,
        )
        for s in shards
    ]
    expected = np.bincount(z.astype(np.int64) * g + x, minlength=c * g).reshape(c, g)
    return tasks, expected


def wait_started(backend, n: int, timeout: float = 30.0) -> None:
    """Block until ``n`` workers of the backend's executor claimed a slot."""
    deadline = time.monotonic() + timeout
    while backend._slots.started < n and time.monotonic() < deadline:
        time.sleep(0.01)
    assert backend._slots.started == n


def wait_until(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert predicate()


def workers_health(backend):
    """The health monitor's ``workers`` check over a bare backend."""
    from repro.obs.health import HealthMonitor

    door = SimpleNamespace(service=SimpleNamespace(backend=backend))
    return HealthMonitor(door)._check_workers()


class TestWorkerPool:
    def test_run_counts_match_local(self):
        table = fake_table(20_000, 6, 4, seed=3)
        with ShardedBackend(2, min_fan_out_rows=0) as backend:
            counts = backend.count_table(table, "z", "x", 6, 4)
            assert backend.shard_tasks >= 2
        np.testing.assert_array_equal(
            counts, SerialBackend().count_table(table, "z", "x", 6, 4)
        )

    def test_task_failure_raises_with_context(self, transport, monkeypatch):
        """A failed shard is a RuntimeError naming its task, chained to the
        worker's own exception; the workers stay up for the next count."""
        bad = ShardTask(
            task_id=0,
            blocks=np.array([0], dtype=np.int64),
            z_ref=SegmentRef(name="repro-definitely-missing", dtype="<i8", shape=(8,)),
            x_ref=SegmentRef(name="repro-definitely-missing", dtype="<i8", shape=(8,)),
            filter_ref=None,
            block_size=8,
            num_rows=8,
            num_candidates=2,
            num_groups=2,
        )
        table = fake_table(2048, 6, 4, seed=3)
        with transport(2, min_fan_out_rows=0) as backend:
            with monkeypatch.context() as patch:
                patch.setattr(
                    backend, "_shard_calls", lambda *args: [partial(run_task, bad)]
                )
                with pytest.raises(RuntimeError, match="shard task 7 failed") as info:
                    backend._run_shards(None, [], 7, None)
            assert isinstance(info.value.__cause__, FileNotFoundError)
            np.testing.assert_array_equal(
                backend.count_table(table, "z", "x", 6, 4),
                SerialBackend().count_table(table, "z", "x", 6, 4),
            )

    def test_failed_shard_cancels_the_calls_unstarted_shards(self, monkeypatch):
        ran, release = [], threading.Event()

        def fail():
            raise ValueError("kernel broke")

        calls = [fail, partial(release.wait, 10), partial(ran.append, "late")]
        with ThreadPoolBackend(1, min_fan_out_rows=0) as backend:
            monkeypatch.setattr(backend, "_shard_calls", lambda *args: calls)
            with pytest.raises(RuntimeError, match="shard task 0 failed: kernel broke"):
                backend._run_shards(None, [], 0, None)
            release.set()
        assert ran == []

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ShardedBackend(0)

    def test_bad_affinity_starts_no_process(self):
        """An unknown pinning policy is refused before any worker starts."""
        before = len(multiprocessing.active_children())
        with pytest.raises(ValueError, match="cpu_affinity"):
            ShardedBackend(2, cpu_affinity="bogus")
        assert len(multiprocessing.active_children()) == before

    def test_close_stops_workers(self):
        backend = ShardedBackend(2, min_fan_out_rows=0)
        table = fake_table(2048, 6, 4, seed=3)
        backend.count_table(table, "z", "x", 6, 4)
        wait_started(backend, 2)
        assert backend.alive_workers == 2
        backend.close()
        assert backend.alive_workers == 0
        backend.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            backend.count_table(table, "z", "x", 6, 4)


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="SIGKILL required")
class TestWorkerFaults:
    """A dead process worker ends the count it breaks in a typed error and
    the next count on fresh workers; nothing is left in /dev/shm."""

    def test_killed_worker_is_seen_then_fails_one_count_then_respawns(self):
        before = shm_files()
        table = fake_table(5000, 6, 4, seed=7)
        serial = SerialBackend().count_table(table, "z", "x", 6, 4)
        with ShardedBackend(2, min_fan_out_rows=0) as backend:
            np.testing.assert_array_equal(
                backend.count_table(table, "z", "x", 6, 4), serial
            )
            wait_started(backend, 2)
            assert workers_health(backend).status == "ok"
            os.kill(backend._slots.pids()[0], signal.SIGKILL)
            # Read from the slots alone: no count runs in between.
            wait_until(lambda: workers_health(backend).status != "ok")
            with pytest.raises(RuntimeError, match="worker died"):
                backend.count_table(table, "z", "x", 6, 4)
            np.testing.assert_array_equal(
                backend.count_table(table, "z", "x", 6, 4), serial
            )
            wait_started(backend, 2)
            assert backend.alive_workers == 2
            assert workers_health(backend).status == "ok"
        assert shm_files() <= before

    def test_worker_killed_mid_count_fails_that_count(self, monkeypatch):
        before = shm_files()
        table = fake_table(5000, 6, 4, seed=7)
        with ShardedBackend(2, min_fan_out_rows=0) as backend:
            backend.count_table(table, "z", "x", 6, 4)
            wait_started(backend, 2)
            victim = backend._slots.pids()[0]
            # The shards sleep in the workers, so the kill lands mid-count.
            calls = [partial(time.sleep, 5.0), partial(time.sleep, 5.0)]
            with monkeypatch.context() as patch:
                patch.setattr(backend, "_shard_calls", lambda *args: calls)
                killer = threading.Timer(0.3, os.kill, (victim, signal.SIGKILL))
                killer.start()
                try:
                    with pytest.raises(RuntimeError, match="worker died"):
                        backend._run_shards(None, [], 0, None)
                finally:
                    killer.join()
            np.testing.assert_array_equal(
                backend.count_table(table, "z", "x", 6, 4),
                SerialBackend().count_table(table, "z", "x", 6, 4),
            )
        assert shm_files() <= before

    def test_close_racing_a_count_ends_in_an_error_or_the_answer(self):
        before = shm_files()
        table = fake_table(200_000, 6, 4, seed=9)
        serial = SerialBackend().count_table(table, "z", "x", 6, 4)
        for delay in (0.0, 0.005, 0.02, 0.05):
            backend = ShardedBackend(2, min_fan_out_rows=0)
            outcomes = []

            def count():
                try:
                    for _ in range(20):
                        counts = backend.count_table(table, "z", "x", 6, 4)
                        outcomes.append(np.array_equal(counts, serial))
                except RuntimeError as exc:
                    outcomes.append(exc)

            counter = threading.Thread(target=count)
            counter.start()
            time.sleep(delay)
            backend.close()
            counter.join(timeout=60)
            assert not counter.is_alive(), "count hung on a closed backend"
            assert outcomes and all(
                outcome is True or isinstance(outcome, RuntimeError)
                for outcome in outcomes
            ), outcomes
        assert shm_files() <= before


#: A whole process's worth of sharded counting — the pool starts before the
#: first segment is published, as it does in every real run.
TRACKER_CYCLE = textwrap.dedent(
    """
    import os
    import numpy as np
    from repro.parallel import ShardedBackend
    from repro.query.executor import exact_candidate_counts
    from repro.query.spec import HistogramQuery
    from repro.storage import CategoricalAttribute, ColumnTable, Schema

    rng = np.random.default_rng(0)
    schema = Schema((
        CategoricalAttribute("z", tuple("abcd")),
        CategoricalAttribute("x", tuple("uvw")),
    ))
    table = ColumnTable(
        schema, {"z": rng.integers(0, 4, 4096), "x": rng.integers(0, 3, 4096)}
    )
    backend = ShardedBackend(2, min_fan_out_rows=0)
    try:
        counts = exact_candidate_counts(
            table, HistogramQuery("z", "x", k=1), backend=backend
        )
        assert backend.shard_tasks > 0 and backend.store.num_segments > 0
        assert int(counts.sum()) == 4096
    finally:
        backend.close()
    print(os.getpid())
    """
)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="/dev/shm tmpfs required")
class TestResourceTracker:
    def test_publish_count_close_leaves_no_tracker_noise(self):
        """Fork workers must share the coordinator's resource tracker: one
        forked before the tracker exists starts its own on first attach,
        which then reports the coordinator's segments as leaked at shutdown
        (and would unlink them under a live pool if the worker died)."""
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH", "")])
        )
        done = subprocess.run(
            [sys.executable, "-c", TRACKER_CYCLE],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        child_pid = int(done.stdout.strip())
        assert not {f for f in shm_files() if f.startswith(f"repro-{child_pid}-")}


# ---------------------------------------------------------------------------
# make_backend factory
# ---------------------------------------------------------------------------


class TestMakeBackend:
    def test_serial_default(self):
        backend = make_backend()
        assert isinstance(backend, SerialBackend)
        assert backend.describe() == {"backend": "serial"}

    def test_sharded_backend_respawns_a_dead_pool(self):
        table = fake_table(2048, 6, 4, seed=3)
        with ShardedBackend(1, min_fan_out_rows=0) as backend:
            first = backend.executor
            backend._drop_executor(first)  # as after a worker death mid-count
            replacement = backend.executor
            assert replacement is not first
            backend.count_table(table, "z", "x", 6, 4)
            wait_started(backend, 1)
            assert backend.alive_workers == 1

    def test_existing_instance_passthrough(self):
        backend = SerialBackend()
        assert make_backend(backend) is backend
        with pytest.raises(ValueError):
            make_backend(backend, workers=2)

    def test_rejects_unknown_and_bad_args(self):
        with pytest.raises(ValueError):
            make_backend("distributed")
        with pytest.raises(ValueError):
            make_backend("serial", workers=2)


# ---------------------------------------------------------------------------
# Worker-side segment forgetting (epoch-based attachment GC)
# ---------------------------------------------------------------------------


def shm_free_bytes() -> int:
    """Free bytes on the /dev/shm tmpfs (0 where it does not exist)."""
    if not os.path.isdir("/dev/shm"):
        return 0
    stat = os.statvfs("/dev/shm")
    return stat.f_bavail * stat.f_frsize


class TestAttachmentGC:
    def test_gc_state_tracks_epoch_and_live_names(self):
        with SharedMemoryStore() as store:
            assert store.gc_state() == (0, ())
            a = store.publish("a", np.arange(8))
            b = store.publish("b", np.arange(8))
            epoch, live = store.gc_state()
            assert epoch == 0 and set(live) == {a.name, b.name}
            store.unpublish("a")
            epoch, live = store.gc_state()
            assert epoch == 1 and live == (b.name,)
            store.unpublish("a")  # idempotent: no epoch churn for no-ops
            assert store.gc_state()[0] == 1

    def test_worker_drops_stale_attachments_on_epoch_advance(self):
        """A single worker caches attachments across tasks, then forgets the
        ones a newer task's GC watermark no longer lists as live."""
        backend = ShardedBackend(1)

        def run(tasks):
            return [backend.executor.submit(run_task, t).result() for t in tasks]

        try:
            with SharedMemoryStore() as store:
                tasks_a, _ = make_tasks(store, n=512, c=3, g=2, n_shards=1)
                epoch, live = store.gc_state()
                stamped_a = [
                    ShardTask(
                        **{
                            **{f: getattr(t, f) for f in ShardTask.__dataclass_fields__},
                            "gc_epoch": epoch,
                            "live_segments": live,
                        }
                    )
                    for t in tasks_a
                ]
                (res_a,) = run(stamped_a)
                assert res_a.cached_attachments == 2  # z + x of dataset A

                # A second dataset joins: the worker now caches 4 segments.
                z2 = np.arange(512, dtype=np.uint8) % 3
                x2 = np.arange(512, dtype=np.uint8) % 2
                z2_ref = store.publish("z2", z2)
                x2_ref = store.publish("x2", x2)
                layout = BlockLayout(512, 32)
                epoch, live = store.gc_state()
                task_b = ShardTask(
                    task_id=100,
                    blocks=np.arange(layout.num_blocks, dtype=np.int64),
                    z_ref=z2_ref,
                    x_ref=x2_ref,
                    filter_ref=None,
                    block_size=32,
                    num_rows=512,
                    num_candidates=3,
                    num_groups=2,
                    gc_epoch=epoch,
                    live_segments=live,
                )
                (res_b,) = run([task_b])
                assert res_b.cached_attachments == 4

                # Dataset A is evicted: the next watermark drops its two.
                store.unpublish("z")
                store.unpublish("x")
                epoch, live = store.gc_state()
                task_b2 = ShardTask(
                    **{
                        **{f: getattr(task_b, f) for f in ShardTask.__dataclass_fields__},
                        "task_id": 101,
                        "gc_epoch": epoch,
                        "live_segments": live,
                    }
                )
                (res_b2,) = run([task_b2])
                assert res_b2.cached_attachments == 2
                np.testing.assert_array_equal(res_b2.counts, res_b.counts)
        finally:
            backend.close()

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="/dev/shm tmpfs required"
    )
    def test_dev_shm_shrinks_after_lru_eviction_with_live_pool(self):
        """Regression: evicting a prepared query must actually free its
        shared-memory pages while the worker pool keeps running.

        Before epoch GC, workers cached attachments until shutdown, so an
        unlinked segment's pages stayed pinned; now the first post-eviction
        task makes the worker close them.
        """
        from repro.core.config import HistSimConfig
        from repro.core.target import TargetSpec
        from repro.query import HistogramQuery
        from repro.storage.schema import CategoricalAttribute, Schema
        from repro.storage.table import ColumnTable
        from repro.system import MatchSession

        rng = np.random.default_rng(5)
        n = 200_000
        z = rng.integers(0, 8, n)
        x = rng.integers(0, 4, n)
        schema = Schema(
            (
                CategoricalAttribute("z", tuple(f"c{i}" for i in range(8))),
                CategoricalAttribute("x", tuple(f"g{i}" for i in range(4))),
            )
        )
        table = ColumnTable(schema, {"z": z, "x": x})
        query = HistogramQuery(
            "z", "x", target=TargetSpec(kind="closest_to_uniform"), k=2, name="q"
        )
        config = HistSimConfig(k=2, epsilon=0.25, delta=0.05, sigma=0.0)

        backend = ShardedBackend(1, min_fan_out_rows=0)
        session = MatchSession(
            table, backend=backend, max_cached_queries=1, audit=False
        )
        try:
            session.submit(query, config=config, seed=0)
            session.run()
            prepared0 = session.prepared(query, seed=0)  # cache hit, no work
            evicted_bytes = (
                prepared0.shuffled.table.column("z").nbytes
                + prepared0.shuffled.table.column("x").nbytes
            )
            old_names = set(backend.store.segment_names())
            free_before = shm_free_bytes()

            # Preparing a second seed evicts seed 0 (unlink; worker still
            # pins the pages) and the subsequent run's first pooled window
            # carries the new epoch, making the worker let go.
            session.submit(query, config=config, seed=1)
            session.run()
            free_after = shm_free_bytes()

            assert backend.store.epoch > 0
            assert not (old_names & set(os.listdir("/dev/shm")))
            assert backend.alive_workers == 1  # workers never restarted
            # Seed 1's columns were published (− evicted_bytes) AND seed 0's
            # pages were released (+ evicted_bytes): net /dev/shm usage must
            # not grow by another dataset's worth, which it did before GC.
            assert free_after >= free_before - 0.5 * evicted_bytes
        finally:
            session.close()


# ---------------------------------------------------------------------------
# WorkerBackend contract (threads and sharded) and ThreadPoolBackend
# ---------------------------------------------------------------------------


def fake_table(n: int, c: int, g: int, seed: int):
    """Column-access duck: the whole surface count_table touches."""
    from types import SimpleNamespace

    rng = np.random.default_rng(seed)
    columns = {
        "z": rng.integers(0, c, n).astype(np.int64),
        "x": rng.integers(0, g, n).astype(np.int64),
    }
    return SimpleNamespace(num_rows=n, column=columns.__getitem__)


def table_source(table, c: int, g: int, **fields) -> CountSource:
    """``table`` in 256-row blocks, as an engine's count source."""
    return CountSource(
        shuffled=ShuffledTable(table, BlockLayout(table.num_rows, 256)),
        z_name="z", x_name="x", num_candidates=c, num_groups=g, row_filter=None,
        **fields,
    )


def kernel_rows(profiler: Profiler) -> dict:
    """The profiler's kernel rows by label, whatever stage they landed in."""
    return {
        label: stats
        for kernels in profiler.snapshot().kernels.values()
        for label, stats in kernels.items()
    }


@pytest.fixture(params=[ThreadPoolBackend, ShardedBackend], ids=["threads", "sharded"])
def transport(request):
    return request.param


@pytest.fixture(scope="module")
def fullpass_world():
    """2M rows of 64 candidates x 24 groups in 4096-row blocks, with its
    bitmap index: the end-to-end benchmark's full-pass shape."""
    from repro.bitmap import build_bitmap_index
    from repro.storage import CategoricalAttribute, ColumnTable, Schema

    rng = np.random.default_rng(27)
    schema = Schema((
        CategoricalAttribute("z", tuple(f"z{i}" for i in range(64))),
        CategoricalAttribute("x", tuple(f"x{i}" for i in range(24))),
    ))
    n = 2_000_000
    table = ColumnTable(
        schema, {"z": rng.integers(0, 64, n), "x": rng.integers(0, 24, n)}
    )
    shuffled = ShuffledTable(table, BlockLayout(n, 4096))
    return shuffled, build_bitmap_index(shuffled, "z")


class TestWorkerBackendContract:
    """What ``WorkerBackend`` promises, held by each transport: the same
    floor, fan-out, telemetry and exact merge, whatever carries a shard."""

    def test_below_the_floor_counts_inline(self, transport):
        table = fake_table(2000, 5, 3, seed=1)
        source = table_source(table, 5, 3)
        blocks = np.arange(source.shuffled.layout.num_blocks, dtype=np.int64)
        expected = SerialBackend().count_blocks(source, blocks)
        tracer = Tracer()
        with transport(2) as backend:  # the default floor: 1,048,576 rows
            backend.set_tracer(tracer)
            counts = backend.count_blocks(source, blocks)
            table_counts = backend.count_table(table, "z", "x", 5, 3)
            assert backend.inline_windows == 1
            assert backend.shard_tasks == 0
            # Never even spun up.
            assert backend._executor is None
        np.testing.assert_array_equal(counts, expected)
        np.testing.assert_array_equal(
            table_counts, SerialBackend().count_table(table, "z", "x", 5, 3)
        )
        inline = [r for r in tracer.records() if r.name == "backend.inline"]
        assert [(r.kind, r.attrs["backend"], r.attrs["rows"]) for r in inline] == [
            ("event", transport.name, 2000)
        ]

    def test_default_floor_keeps_a_sampling_pass_inline(
        self, transport, fullpass_world
    ):
        """A 2M-row full pass in 61k-row windows is counted as serial counts
        it — one inline count per window, no executor, no pool — while a
        whole-table count past the floor crosses to the workers once."""
        shuffled, index = fullpass_world
        window_blocks = shuffled.num_blocks // 32
        assert window_blocks * shuffled.layout.block_size == 61_440

        def full_pass(backend):
            engine = BlockSamplingEngine(
                shuffled=shuffled, candidate_attribute="z", grouping_attribute="x",
                index=index, cost_model=CostModel(), clock=SimulatedClock(),
                policy=ScanAllPolicy(), window_blocks=window_blocks, start_block=0,
                backend=backend,
            )
            return engine, engine.sample_until(np.full(engine.num_candidates, np.inf))

        _, expected = full_pass(SerialBackend())
        table = shuffled.table
        tracer = Tracer()
        with transport(2) as backend:
            engine, counts = full_pass(backend)
            assert engine.counters.windows == 33
            assert backend.inline_windows == engine.counters.windows
            assert backend.shard_tasks == 0
            assert backend._executor is None
            np.testing.assert_array_equal(counts, expected)

            backend.set_tracer(tracer)
            table_counts = backend.count_table(table, "z", "x", 64, 24)
            assert backend.shard_tasks > 0
        np.testing.assert_array_equal(
            table_counts, SerialBackend().count_table(table, "z", "x", 64, 24)
        )
        spans = [r.name for r in tracer.records() if r.name.startswith("backend.")]
        assert spans == ["backend.table"]

    def test_above_the_floor_makes_one_round_trip(self, transport):
        table = fake_table(5000, 6, 4, seed=7)
        source = table_source(table, 6, 4, profiler=Profiler())
        layout = source.shuffled.layout
        blocks = np.array([0, 2, 3, 5, 8, 11, 14, 15, layout.num_blocks - 1])
        total = int(layout.rows_per_block(blocks).sum())
        expected, _ = count_window(
            table.column("z"), table.column("x"), blocks, layout, 6, 4
        )
        tracer = Tracer()
        with transport(2, min_fan_out_rows=0) as backend:
            backend.set_tracer(tracer)
            shards = backend.plan_shards(blocks, layout, total, 6 * 4)
            counts = backend.count_blocks(source, blocks)
            assert backend.shard_tasks == len(shards)
            assert backend.inline_windows == 0
        np.testing.assert_array_equal(counts, expected)
        spans = [r for r in tracer.records() if r.name.startswith("backend.")]
        assert [r.name for r in spans] == ["backend.window"]
        attrs = spans[0].attrs
        assert attrs["backend"] == transport.name
        assert (attrs["shards"], attrs["rows"]) == (len(shards), total)
        assert attrs["shard_ns_max"] >= attrs["shard_ns_mean"] > 0
        row = kernel_rows(source.profiler)[f"{transport.name}.window"]
        assert row["rows"] == counts.sum()
        assert (row["calls"], row["blocks"], row["bincounts"]) == (
            1, blocks.size, len(shards)
        )

    @pytest.mark.parametrize("filtered", [False, True], ids=["plain", "filtered"])
    def test_count_table_equals_serial(self, transport, filtered):
        table = fake_table(5000, 6, 4, seed=7)
        keep = np.random.default_rng(8).random(5000) < 0.5 if filtered else None
        serial = SerialBackend().count_table(table, "z", "x", 6, 4, keep)
        tracer, profiler = Tracer(), Profiler()
        with transport(3, min_fan_out_rows=0) as backend:
            backend.set_tracer(tracer)
            backend.set_profiler(profiler)
            counts = backend.count_table(table, "z", "x", 6, 4, keep)
            assert backend.shard_tasks > 0  # really went through the workers
        np.testing.assert_array_equal(counts, serial)
        spans = [r.name for r in tracer.records() if r.name.startswith("backend.")]
        assert spans == ["backend.table"]
        assert kernel_rows(profiler)[f"{transport.name}.table"]["rows"] == serial.sum()

    def test_task_ids_advance_past_a_failed_run(self, transport, monkeypatch):
        """Ids are spent before the run: a retry can never reuse the ids a
        failed call's stragglers may still report under."""
        table = fake_table(5000, 6, 4, seed=7)
        with transport(2, min_fan_out_rows=0) as backend:
            run_shards = backend._run_shards
            bases = []

            def failing(source, shards, base_id, table_filter):
                bases.append(base_id)
                raise RuntimeError("transport down")

            monkeypatch.setattr(backend, "_run_shards", failing)
            with pytest.raises(RuntimeError, match="transport down"):
                backend.count_table(table, "z", "x", 6, 4)
            spent = backend.shard_tasks
            assert bases == [0] and spent > 0

            def recording(source, shards, base_id, table_filter):
                bases.append(base_id)
                return run_shards(source, shards, base_id, table_filter)

            monkeypatch.setattr(backend, "_run_shards", recording)
            counts = backend.count_table(table, "z", "x", 6, 4)
            assert bases == [0, spent]
        np.testing.assert_array_equal(
            counts, SerialBackend().count_table(table, "z", "x", 6, 4)
        )

    def test_describe_close_and_validation(self, transport):
        with pytest.raises(ValueError):
            transport(0)
        with pytest.raises(ValueError):
            transport(2, min_fan_out_rows=-1)
        with pytest.raises(ValueError, match="cpu_affinity"):
            transport(2, cpu_affinity="diagonal")
        with transport(2, cpu_affinity="compact") as pinned:
            assert pinned.describe()["cpu_affinity"] == "compact"
        backend = make_backend(transport.name, workers=3)
        assert isinstance(backend, transport)
        assert backend.describe() == {
            "backend": transport.name,
            "workers": 3,
            "min_fan_out_rows": DEFAULT_MIN_FAN_OUT_ROWS,
            "shard_tasks": 0,
            "cpu_affinity": "none",
        }
        backend.close()
        backend.close()  # idempotent
        forced = transport(2, min_fan_out_rows=0)
        forced.close()
        with pytest.raises(RuntimeError, match="closed"):
            forced.count_table(fake_table(5000, 6, 4, seed=7), "z", "x", 6, 4)


class TestThreadPoolBackend:
    def test_concurrent_count_calls_are_safe(self):
        """Steps of different sessions hit one shared backend concurrently;
        every caller must get its own exact counts."""
        import threading

        tables = [fake_table(4000, 5, 3, seed=20 + i) for i in range(4)]
        expected = [
            SerialBackend().count_table(t, "z", "x", 5, 3) for t in tables
        ]
        backend = ThreadPoolBackend(2, min_fan_out_rows=0)
        results = [None] * len(tables)
        errors = []
        barrier = threading.Barrier(len(tables))

        def worker(i):
            try:
                barrier.wait(timeout=10)
                for _ in range(5):
                    results[i] = backend.count_table(tables[i], "z", "x", 5, 3)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(len(tables))
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            backend.close()
        assert not errors
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got, want)

    #: 1.2M rows in 4096-row blocks: 293 blocks, the last 3,968 rows short.
    SHARD_LAYOUT = BlockLayout(1_200_000, 4096)

    @staticmethod
    def block_set(seed: int, keep: float, with_last: bool) -> np.ndarray:
        """A sorted block subset of ``SHARD_LAYOUT``: everything, or a
        gappy draw; with or without the short last block."""
        layout = TestThreadPoolBackend.SHARD_LAYOUT
        rng = np.random.default_rng(seed)
        blocks = np.flatnonzero(rng.random(layout.num_blocks - 1) < keep)
        if blocks.size == 0:
            blocks = np.array([int(rng.integers(layout.num_blocks - 1))])
        if with_last:
            blocks = np.append(blocks, layout.num_blocks - 1)
        return blocks.astype(np.int64)

    @given(
        seed=st.integers(0, 2**16),
        keep=st.sampled_from([1.0, 0.9, 0.5, 0.05]),
        with_last=st.booleans(),
        n_workers=st.integers(1, 4),
        cells=st.sampled_from([1, 1536, 121_797, 300_000, 5_000_000]),
    )
    @settings(max_examples=150, deadline=None)
    def test_shard_bound_partitions_a_call_in_order(
        self, seed, keep, with_last, n_workers, cells
    ):
        """In-process shards of a whole sampling call: bounded above (a
        shard closes at the first block reaching its boundary, so by one
        block more than ``MAX_SHARD_ROWS``), never fewer than one per
        worker, and — past one per worker — never smaller than the matrix
        each returns."""
        from repro.parallel import ThreadPoolBackend
        from repro.parallel.threaded import MAX_SHARD_ROWS

        layout = self.SHARD_LAYOUT
        blocks = self.block_set(seed, keep, with_last)
        total = int(layout.rows_per_block(blocks).sum())
        backend = ThreadPoolBackend(n_workers)  # plans only: no executor
        shards = backend.plan_shards(blocks, layout, total, cells)
        np.testing.assert_array_equal(
            np.concatenate([shard.blocks for shard in shards]), blocks
        )
        assert [shard.index for shard in shards] == list(range(len(shards)))
        rows = [shard.rows for shard in shards]
        assert rows == [int(layout.rows_per_block(s.blocks).sum()) for s in shards]
        assert sum(rows) == total
        assert len(shards) >= min(n_workers, blocks.size)
        assert max(rows) < total / len(shards) + layout.block_size  # balanced
        if len(shards) > n_workers:
            assert min(rows) + layout.block_size > cells
        if total // cells >= -(-total // MAX_SHARD_ROWS):
            # The matrix does not hold the split back: the bound applies.
            assert max(rows) < MAX_SHARD_ROWS + layout.block_size
        assert backend._executor is None

    @pytest.mark.parametrize("with_last", [True, False], ids=["short-last", "full"])
    @pytest.mark.parametrize(("c", "g"), [(64, 24), (700, 300)])
    def test_shard_bound_merged_call_equals_one_count(self, c, g, with_last):
        """A ~1M-row call through the executor — more shards than workers,
        each under the bound — merges to ``count_window`` on the whole set."""
        from repro.parallel import CountSource, ThreadPoolBackend, count_window
        from repro.parallel.threaded import MAX_SHARD_ROWS
        from repro.storage import CategoricalAttribute, ColumnTable, Schema
        from repro.storage.shuffle import ShuffledTable

        layout = self.SHARD_LAYOUT
        rng = np.random.default_rng(5)
        schema = Schema((
            CategoricalAttribute("z", tuple(f"z{i}" for i in range(c))),
            CategoricalAttribute("x", tuple(f"x{i}" for i in range(g))),
        ))
        table = ColumnTable(schema, {
            "z": rng.integers(0, c, layout.num_rows),
            "x": rng.integers(0, g, layout.num_rows),
        })
        source = CountSource(
            shuffled=ShuffledTable(table, layout), z_name="z", x_name="x",
            num_candidates=c, num_groups=g, row_filter=None,
        )
        blocks = self.block_set(3, 0.9, with_last)
        total = int(layout.rows_per_block(blocks).sum())
        assert total > 1_000_000
        expected, _ = count_window(
            table.column("z"), table.column("x"), blocks, layout, c, g
        )
        with ThreadPoolBackend(2, min_fan_out_rows=0) as backend:
            shards = backend.plan_shards(blocks, layout, total, c * g)
            assert len(shards) == min(-(-total // MAX_SHARD_ROWS), total // (c * g)) > 2
            assert max(shard.rows for shard in shards) < MAX_SHARD_ROWS + 4096
            counts = backend.count_blocks(source, blocks)
            assert backend.shard_tasks == len(shards)
        np.testing.assert_array_equal(counts, expected)
        assert counts.sum() == total

    def test_merge_check_catches_a_shard_that_lost_rows(self, monkeypatch):
        """The merge compares each shard's tally with the rows the planner
        gave it, so a kernel that dropped a block is an error, not a
        slightly smaller histogram."""
        from repro.parallel import ThreadPoolBackend, count_window, worker

        def lossy(z, x, blocks, *args, **kwargs):
            return count_window(z, x, blocks[:-1], *args, **kwargs)

        monkeypatch.setattr(worker, "count_window", lossy)
        table = fake_table(5000, 6, 4, seed=7)
        with ThreadPoolBackend(2, min_fan_out_rows=0) as backend:
            with pytest.raises(ValueError, match="tallied .* rows, planned"):
                backend.count_table(table, "z", "x", 6, 4)


# ---------------------------------------------------------------------------
# One worker backend under concurrent callers
# ---------------------------------------------------------------------------


class TestWorkerPoolConcurrentRuns:
    def test_interleaved_runs_never_cross_settle(self, transport):
        """Two threads count through one shared backend at once — one whole
        tables, one block sets — and each must get exactly its own counts,
        every time."""
        tables = [fake_table(2048 + 256 * i, 5, 3, seed=30 + i) for i in range(2)]
        source = table_source(tables[1], 5, 3)
        blocks = np.arange(1, source.shuffled.layout.num_blocks, 2, dtype=np.int64)
        expected = [
            SerialBackend().count_table(tables[0], "z", "x", 5, 3),
            SerialBackend().count_blocks(source, blocks),
        ]
        errors = []
        barrier = threading.Barrier(2)
        with transport(2, min_fan_out_rows=0) as backend:
            calls = [
                lambda: backend.count_table(tables[0], "z", "x", 5, 3),
                lambda: backend.count_blocks(source, blocks),
            ]

            def caller(i):
                try:
                    barrier.wait(timeout=10)
                    for _ in range(8):
                        np.testing.assert_array_equal(calls[i](), expected[i])
                except Exception as exc:
                    errors.append((i, exc))

            threads = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert backend.shard_tasks >= 2 * 8
        assert not errors, errors
