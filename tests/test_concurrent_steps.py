"""Executor-offloaded step execution: identity matrix + wall-clock latency.

Two acceptance properties of ``max_concurrent_steps``:

1. **Byte-identity matrix** — answers under every combination of
   ``max_concurrent_steps`` ∈ {1, 4} × backend ∈ {serial, threads, sharded}
   × policy ∈ {fifo, edf-f} equal the standalone serial run.  Concurrency,
   backends, and policies shape latency, never answers (each job consumes
   its own fixed sampling order).
2. **Wall-clock regression** — with more than one step slot, a slow
   tenant's long step no longer blocks another tenant's deadline on the
   wall clock; with the classic single slot it does.
"""

from __future__ import annotations

import asyncio
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import (
    AsyncFrontDoor,
    FrontDoor,
    MatchSession,
    QueryRequest,
    SessionRegistry,
    match_histograms,
)
from repro.core import HistSimConfig
from repro.core.target import TargetSpec
from repro.parallel import ShardedBackend, ThreadPoolBackend
from repro.query import HistogramQuery
from repro.system.clock import WallClock

EPS, DELTA = 0.2, 0.05
CANDIDATES, GROUPS = 12, 5


def make_table(seed: int, n: int = 24_000):
    from repro.storage import CategoricalAttribute, ColumnTable, Schema

    rng = np.random.default_rng(seed)
    z = rng.integers(0, CANDIDATES, size=n)
    x = np.empty(n, dtype=np.int64)
    for c in range(CANDIDATES):
        mask = z == c
        base = np.full(GROUPS, 1.0 / GROUPS)
        if c >= 2:
            base[c % GROUPS] += 0.6
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
    return make_table(31)


def make_request(k: int, name: str, **overrides) -> QueryRequest:
    query = HistogramQuery(
        "product", "age", target=TargetSpec(kind="closest_to_uniform"), k=k,
        name=name,
    )
    config = HistSimConfig(k=k, epsilon=EPS, delta=DELTA, sigma=0.0)
    return QueryRequest(query, config=config, seed=3, name=name, **overrides)


def standalone(table, k: int):
    return match_histograms(
        table, "product", "age", k=k, epsilon=EPS, delta=DELTA, sigma=0.0,
        seed=3,
    )


def assert_reports_identical(report, reference, where: str) -> None:
    assert report.result.matching == reference.result.matching, where
    assert np.array_equal(report.result.histograms, reference.result.histograms), where
    assert np.array_equal(report.result.distances, reference.result.distances), where
    assert report.result.stats == reference.result.stats, where


@pytest.fixture(scope="module")
def references(table):
    return {2: standalone(table, 2), 3: standalone(table, 3)}


def make_backend_under_test(spec: str):
    """Backend instances sized to really exercise the executor/pool."""
    if spec == "serial":
        return "serial"
    if spec == "threads":
        return ThreadPoolBackend(2, min_fan_out_rows=0)
    if spec == "sharded":
        return ShardedBackend(2, min_fan_out_rows=0)
    raise AssertionError(spec)


# ---------------------------------------------------------------------------
# Byte-identity matrix: slots x backends x policies vs standalone serial
# ---------------------------------------------------------------------------


class TestConcurrencyIdentityMatrix:
    @pytest.mark.parametrize("concurrency", [1, 4])
    @pytest.mark.parametrize("backend_spec", ["serial", "threads", "sharded"])
    @pytest.mark.parametrize("policy", ["fifo", "edf-f"])
    def test_async_door_matches_standalone(
        self, table, references, policy, backend_spec, concurrency
    ):
        backend = make_backend_under_test(backend_spec)

        async def drive():
            session = MatchSession(table, backend=backend)
            async with AsyncFrontDoor(
                session, policy=policy, max_concurrent_steps=concurrency
            ) as door:
                handles = [
                    await door.submit(make_request(3, "first")),
                    await door.submit(make_request(2, "second")),
                    await door.submit(make_request(3, "third")),
                ]
                return [await handle.result() for handle in handles]

        try:
            reports = asyncio.run(drive())
            if backend_spec != "serial":
                assert backend.shard_tasks > 0  # the executor really ran
        finally:
            if backend_spec != "serial":
                backend.close()
        where = f"{policy}/{backend_spec}/slots={concurrency}"
        assert_reports_identical(reports[0], references[3], f"{where}/first")
        assert_reports_identical(reports[1], references[2], f"{where}/second")
        assert_reports_identical(reports[2], references[3], f"{where}/third")

    def test_thread_door_concurrent_slots_match_standalone(
        self, table, references
    ):
        """The thread FrontDoor's multi-slot loop: same identity contract."""
        backend = ThreadPoolBackend(2, min_fan_out_rows=0)
        try:
            session = MatchSession(table, backend=backend)
            with FrontDoor(
                session, policy="fifo", max_concurrent_steps=4
            ) as door:
                door.start()
                handles = [
                    door.submit(make_request(3, "first")),
                    door.submit(make_request(2, "second")),
                    door.submit(make_request(3, "third")),
                ]
                reports = [handle.result(timeout=120) for handle in handles]
            assert backend.shard_tasks > 0
            assert not backend.closed  # a passed-in backend is borrowed
        finally:
            backend.close()
        assert_reports_identical(reports[0], references[3], "thread/first")
        assert_reports_identical(reports[1], references[2], "thread/second")
        assert_reports_identical(reports[2], references[3], "thread/third")

    def test_multi_tenant_registry_concurrent_slots(self, table, references):
        """Two tenants behind one concurrent async door on a wall clock —
        the live-serving deployment shape — still answer byte-identically."""
        table_b = make_table(32)
        ref_b = standalone(table_b, 3)
        registry = SessionRegistry(
            backend=ThreadPoolBackend(2, min_fan_out_rows=0), clock=WallClock()
        )
        registry.add_dataset("a", table)
        registry.add_dataset("b", table_b)

        async def drive():
            async with AsyncFrontDoor(
                registry, policy="fifo", max_concurrent_steps=2
            ) as door:
                handles = [
                    await door.submit(make_request(3, "a0", dataset="a")),
                    await door.submit(make_request(3, "b0", dataset="b")),
                ]
                return [await handle.result() for handle in handles]

        try:
            reports = asyncio.run(drive())
        finally:
            registry.backend.close()
        assert_reports_identical(reports[0], references[3], "registry/a0")
        assert_reports_identical(reports[1], ref_b, "registry/b0")


# ---------------------------------------------------------------------------
# Wall-clock regression: a slow step must not block another tenant's deadline
# ---------------------------------------------------------------------------


class SleepJob:
    """Resumable job whose steps just sleep — wall-clock behaviour only."""

    def __init__(self, name, clock, step_s, steps):
        self.name = name
        self.clock = clock
        self.step_s = step_s
        self._remaining = steps

    @property
    def done(self):
        return self._remaining == 0

    def step(self):
        time.sleep(self.step_s)
        self._remaining -= 1

    def finish(self, service_ns):
        return SimpleNamespace(name=self.name, service_ns=service_ns)


class FakeService:
    """Minimal front-door service seam: routes requests to canned jobs."""

    def __init__(self, jobs):
        self.clock = WallClock()
        self.backend = None
        self._jobs = jobs
        self.closed = False

    def job_for_request(self, request, default_max_step_rows=None):
        return self._jobs[request.name]

    def close(self):
        self.closed = True


def fake_request(name, deadline_ns=None, on_deadline="miss"):
    return SimpleNamespace(
        name=name,
        query=SimpleNamespace(name=name),
        deadline_ns=deadline_ns,
        on_deadline=on_deadline,
    )


SLOW_STEP_S = 1.0
FAST_DEADLINE_NS = 0.5e9  # expires inside the slow step


class TestWallClockConcurrency:
    def run_scenario(self, max_concurrent_steps):
        service = FakeService({})
        service._jobs["slow"] = SleepJob("slow", service.clock, SLOW_STEP_S, 1)
        service._jobs["fast"] = SleepJob("fast", service.clock, 0.005, 3)
        door = FrontDoor(
            service, policy="fifo", max_concurrent_steps=max_concurrent_steps
        )
        # Submit both before starting the scheduler so FIFO deterministically
        # grants the slow tenant's long step first.
        slow_handle = door.submit(fake_request("slow"))
        fast_handle = door.submit(
            fake_request("fast", deadline_ns=FAST_DEADLINE_NS, on_deadline="miss")
        )
        door.start()
        fast = fast_handle.outcome(timeout=30)
        slow = slow_handle.outcome(timeout=30)
        door.shutdown()
        assert service.closed
        return slow, fast

    def test_single_slot_head_of_line_blocks_deadline(self):
        """Classic single-slot serving: the fast tenant sits behind the slow
        tenant's 1 s step and misses its 0.5 s deadline."""
        slow, fast = self.run_scenario(max_concurrent_steps=1)
        assert slow.status == "completed"
        assert fast.status == "miss"

    def test_concurrent_slots_isolate_the_fast_tenant(self):
        """With two step slots the fast tenant's 15 ms of work runs beside
        the slow step and completes well inside its deadline."""
        slow, fast = self.run_scenario(max_concurrent_steps=2)
        assert slow.status == "completed"
        assert fast.status == "completed"
        assert fast.deadline_hit
        # The whole point: latency is bounded by the tenant's own work,
        # not the neighbour's step (generous margin for loaded CI hosts).
        assert fast.latency_seconds < SLOW_STEP_S
