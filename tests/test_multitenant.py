"""Multi-tenant serving tests: SessionRegistry routing, the global cache
budget, and the driver-equivalence acceptance matrix.

Acceptance property of the engine/driver split: per-query answers are
byte-identical across the thread ``FrontDoor``, the asyncio
``AsyncFrontDoor``, and the ``BatchScheduler`` drain, for every policy —
drivers and policies shape latency, never answers.
"""

import asyncio

import numpy as np
import pytest

from repro import (
    FrontDoor,
    MatchSession,
    QueryRequest,
    SessionRegistry,
    match_histograms,
)
from repro.core import HistSimConfig
from repro.core.target import TargetSpec
from repro.query import HistogramQuery
from repro.serving import POLICIES, UnknownDataset
from repro.storage import CategoricalAttribute, ColumnTable, Schema

EPS, DELTA = 0.2, 0.05
CANDIDATES, GROUPS = 12, 5


def make_table(seed: int, n: int = 24_000) -> ColumnTable:
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
def table_a():
    return make_table(21)


@pytest.fixture(scope="module")
def table_b():
    return make_table(22)


def make_query(k: int = 3, name: str = "q") -> HistogramQuery:
    return HistogramQuery(
        "product", "age", target=TargetSpec(kind="closest_to_uniform"), k=k,
        name=name,
    )


def make_request(k: int = 3, seed: int = 3, name: str = "q", **overrides):
    config = HistSimConfig(k=k, epsilon=EPS, delta=DELTA, sigma=0.0)
    return QueryRequest(
        make_query(k, name), config=config, seed=seed, name=name, **overrides
    )


def standalone(table, k: int = 3, seed: int = 3):
    return match_histograms(
        table, "product", "age", k=k, epsilon=EPS, delta=DELTA, sigma=0.0,
        seed=seed,
    )


def assert_reports_identical(report, reference, where: str) -> None:
    assert report.result.matching == reference.result.matching, where
    assert np.array_equal(report.result.histograms, reference.result.histograms), where
    assert np.array_equal(report.result.distances, reference.result.distances), where
    assert report.result.stats == reference.result.stats, where


# ---------------------------------------------------------------------------
# Driver equivalence: every adapter of the drive core, every policy
# ---------------------------------------------------------------------------


def requests():
    return [make_request(3, name="first"), make_request(k=2, name="second")]


def serve_via_batch(table, policy):
    session = MatchSession(table, policy=policy)
    for request in requests():
        session.submit(request.query, config=request.config, seed=request.seed)
    run = session.run()
    session.close()
    return list(run)


def serve_via_thread_door(table, policy, slots=1):
    session = MatchSession(table)
    with FrontDoor(session, policy=policy, max_concurrent_steps=slots) as door:
        door.start()
        handles = [door.submit(request) for request in requests()]
        return [handle.outcome(timeout=60) for handle in handles]


def serve_via_async_door(table, policy, slots=1):
    async def drive():
        session = MatchSession(table)
        async with session.serve_async(
            policy=policy, max_concurrent_steps=slots
        ) as door:
            handles = [await door.submit(request) for request in requests()]
            return [await handle.outcome() for handle in handles]

    return asyncio.run(drive())


def serve_via_replay(table, policy):
    door = MatchSession(table).serve(policy=policy)
    outcomes = door.replay([(0.0, request) for request in requests()])
    door.shutdown()
    return list(outcomes)


def serve_via_thread_pump(table, policy):
    door = MatchSession(table).serve(policy=policy)
    handles = [door.submit(request) for request in requests()]
    outcomes = door.pump()
    assert outcomes == [handle.outcome(timeout=0) for handle in handles]
    door.shutdown()
    return outcomes


def serve_via_async_pump(table, policy):
    async def drive():
        door = MatchSession(table).serve_async(policy=policy)
        handles = [await door.submit(request) for request in requests()]
        outcomes = await door.pump()
        assert outcomes == [await handle.outcome() for handle in handles]
        await door.shutdown()
        return outcomes

    return asyncio.run(drive())


DRIVERS = {
    "thread-1": serve_via_thread_door,
    "thread-2": lambda table, policy: serve_via_thread_door(table, policy, 2),
    "async-1": serve_via_async_door,
    "async-2": lambda table, policy: serve_via_async_door(table, policy, 2),
    "replay": serve_via_replay,
    "thread-pump": serve_via_thread_pump,
    "async-pump": serve_via_async_pump,
    "batch": serve_via_batch,
}
#: Single slot, simulated clock, every request submitted before the first
#: slice: the schedule itself is deterministic, not only the answers.
DETERMINISTIC = ("async-1", "replay", "thread-pump", "async-pump", "batch")


class TestDriverEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_reports_identical_across_drivers_and_policies(
        self, table_a, policy, driver
    ):
        """Acceptance: byte-identical per-query answers for every
        (driver, policy) combination, against the standalone pipeline."""
        first = standalone(table_a, k=3)
        second = standalone(table_a, k=2)
        outcomes = DRIVERS[driver](table_a, policy)
        assert [o.status for o in outcomes] == ["completed", "completed"]
        assert_reports_identical(outcomes[0].report, first, f"{driver}/{policy}/first")
        assert_reports_identical(outcomes[1].report, second, f"{driver}/{policy}/second")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_single_slot_schedule_identical_across_drivers(self, table_a, policy):
        """One turn, one schedule: the single-slot adapters agree on when
        every request finished, in how many steps, at what service time."""
        schedules = {
            driver: [
                (o.finished_ns, o.steps, o.service_ns)
                for o in DRIVERS[driver](table_a, policy)
            ]
            for driver in DETERMINISTIC
        }
        assert len(set(map(tuple, schedules.values()))) == 1, schedules


class TestAsyncDoorLifecycle:
    def test_concurrent_shutdowns_wait_for_one_drain(self, table_a):
        """Two coroutines racing shutdown(): the second must wait for the
        first to finish draining instead of closing the service under the
        still-stepping scheduler task."""

        async def drive():
            session = MatchSession(table_a)
            door = session.serve_async(policy="fifo")
            door.start()
            handle = await door.submit(make_request(name="inflight"))
            await asyncio.gather(door.shutdown(), door.shutdown())
            outcome = await handle.outcome()
            assert outcome.status == "completed"  # drained before close
            assert session.closed
            await door.shutdown()  # idempotent afterwards too

        asyncio.run(drive())

    def test_submit_after_shutdown_raises(self, table_a):
        from repro.serving import ServingError

        async def drive():
            session = MatchSession(table_a)
            door = session.serve_async()
            door.start()
            await door.shutdown()
            with pytest.raises(ServingError):
                await door.submit(make_request())

        asyncio.run(drive())


# ---------------------------------------------------------------------------
# Multi-tenant routing through a SessionRegistry
# ---------------------------------------------------------------------------


class TestRegistryRouting:
    def test_interleaved_tenants_match_standalone(self, table_a, table_b):
        """Two datasets behind one door, interleaved requests: every
        tenant's answers equal its standalone run."""
        registry = SessionRegistry()
        registry.add_dataset("a", table_a)
        registry.add_dataset("b", table_b)
        door = registry.serve(policy="rr")
        outcomes = door.replay(
            [
                (0.0, make_request(name="a0", dataset="a")),
                (0.0, make_request(name="b0", dataset="b")),
                (0.0, make_request(k=2, name="a1", dataset="a")),
                (0.0, make_request(k=2, name="b1", dataset="b")),
            ]
        )
        door.shutdown()
        refs = {
            "a0": standalone(table_a, 3), "b0": standalone(table_b, 3),
            "a1": standalone(table_a, 2), "b1": standalone(table_b, 2),
        }
        assert [o.status for o in outcomes] == ["completed"] * 4
        for outcome in outcomes:
            assert_reports_identical(outcome.report, refs[outcome.name], outcome.name)

    def test_sessions_share_clock_and_backend(self, table_a, table_b):
        registry = SessionRegistry()
        a = registry.add_dataset("a", table_a)
        b = registry.add_dataset("b", table_b)
        assert a.clock is registry.clock and b.clock is registry.clock
        assert a.backend is registry.backend and b.backend is registry.backend
        registry.close()
        assert a.closed and b.closed

    def test_unknown_dataset_is_typed(self, table_a):
        registry = SessionRegistry()
        registry.add_dataset("a", table_a)
        with pytest.raises(UnknownDataset):
            registry.route(make_request(dataset="missing"))
        registry.add_dataset("b", make_table(9, n=4_000))
        with pytest.raises(UnknownDataset):
            # Ambiguous: no key with two tenants registered.
            registry.route(make_request())
        registry.close()

    def test_keyless_request_routes_to_single_tenant(self, table_a):
        registry = SessionRegistry()
        session = registry.add_dataset("a", table_a)
        assert registry.route(make_request()) is session
        registry.close()

    def test_duplicate_and_post_close_registration_rejected(self, table_a):
        registry = SessionRegistry()
        registry.add_dataset("a", table_a)
        with pytest.raises(ValueError, match="already"):
            registry.add_dataset("a", table_a)
        registry.close()
        registry.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            registry.add_dataset("b", table_a)

    def test_shed_request_releases_slot_across_tenants(self, table_a, table_b):
        registry = SessionRegistry()
        registry.add_dataset("a", table_a)
        registry.add_dataset("b", table_b)
        door = registry.serve(policy="fifo", max_queue=1)
        outcomes = door.replay(
            [
                (0.0, make_request(name="a0", dataset="a")),
                (0.0, make_request(name="b0", dataset="b")),  # queue full
                (1e9, make_request(name="b1", dataset="b")),  # capacity back
            ]
        )
        door.shutdown()
        assert [o.status for o in outcomes] == ["completed", "shed", "completed"]

    def test_sharded_backend_is_shared_and_identical(self, table_a, table_b):
        """One sharded backend (one pool, one shm store) serves both
        tenants with answers identical to the serial registry."""
        from repro.parallel import ShardedBackend

        backend = ShardedBackend(2, min_fan_out_rows=0)
        registry = SessionRegistry(backend=backend)
        try:
            registry.add_dataset("a", table_a)
            registry.add_dataset("b", table_b)
            door = registry.serve(policy="rr")
            outcomes = door.replay(
                [
                    (0.0, make_request(name="a0", dataset="a")),
                    (0.0, make_request(name="b0", dataset="b")),
                ]
            )
            door.shutdown()
            assert backend.shard_tasks > 0  # the pool really ran
            assert_reports_identical(
                outcomes[0].report, standalone(table_a, 3), "sharded/a"
            )
            assert_reports_identical(
                outcomes[1].report, standalone(table_b, 3), "sharded/b"
            )
            # The registry treats a passed-in backend as borrowed.
            assert not backend.closed
        finally:
            backend.close()


# ---------------------------------------------------------------------------
# Global cache budget across tenants
# ---------------------------------------------------------------------------


class TestRegistryCacheBudget:
    def prepare(self, registry, key, seed):
        session = registry.session(key)
        prepared = session.prepared(make_query(3, "q"), seed=seed)
        return session, (prepared.query, session.block_size, seed)

    def test_global_lru_eviction_ordering(self, table_a, table_b):
        """The globally least-recently-used evictable entry goes first,
        regardless of which tenant holds it."""
        registry = SessionRegistry()
        registry.add_dataset("a", table_a)
        registry.add_dataset("b", table_b)
        session_a, key_a1 = self.prepare(registry, "a", seed=1)
        session_b, key_b1 = self.prepare(registry, "b", seed=1)
        _, key_b2 = self.prepare(registry, "b", seed=2)
        _, key_a2 = self.prepare(registry, "a", seed=2)
        # Global recency: a1, b1, b2, a2.  Touch a1 -> b1, b2, a2, a1.
        session_a.prepared(make_query(3, "q"), seed=1)
        assert registry.cached_entries == 4
        # Shrink the budget below the current footprint: b1 (globally the
        # oldest evictable entry) must go first — not a2, and not the
        # just-touched a1, even though tenant a holds more bytes.
        registry.max_cached_bytes = registry.cache_bytes - 1
        assert registry.enforce_budget() >= 1
        assert key_b1 not in session_b._prepared_cache
        assert key_b2 in session_b._prepared_cache
        assert key_a1 in session_a._prepared_cache
        assert key_a2 in session_a._prepared_cache
        assert session_b.cache_stats.evictions.get("prepared", 0) == 1
        # Next squeeze: b2 is now tenant b's sole (in-use) entry and is
        # skipped; the next globally-oldest evictable entry is a2.
        registry.max_cached_bytes = registry.cache_bytes - 1
        assert registry.enforce_budget() >= 1
        assert key_b2 in session_b._prepared_cache
        assert key_a2 not in session_a._prepared_cache
        assert key_a1 in session_a._prepared_cache
        registry.close()

    def test_budget_enforced_on_insert(self, table_a, table_b):
        registry = SessionRegistry(max_cached_bytes=1)  # one entry's worth
        registry.add_dataset("a", table_a)
        registry.add_dataset("b", table_b)
        session_a, key_a1 = self.prepare(registry, "a", seed=1)
        session_b, key_b1 = self.prepare(registry, "b", seed=1)
        # Over budget on insert: the older tenant entry was evicted, but
        # each session's most recent (in-use) entry survives, so the floor
        # is one entry per tenant.
        assert key_a1 in session_a._prepared_cache
        assert key_b1 in session_b._prepared_cache
        _, key_b2 = self.prepare(registry, "b", seed=2)
        assert key_b1 not in session_b._prepared_cache  # evictable, gone
        assert key_b2 in session_b._prepared_cache
        assert key_a1 in session_a._prepared_cache  # a's most recent
        registry.close()

    def test_most_recent_entry_is_never_evicted(self, table_a):
        registry = SessionRegistry(max_cached_bytes=1)
        registry.add_dataset("a", table_a)
        session, key = self.prepare(registry, "a", seed=1)
        assert key in session._prepared_cache  # over budget but in use
        assert registry.enforce_budget() == 0
        registry.close()

    def test_results_identical_under_eviction_pressure(self, table_a, table_b):
        """A thrashing global budget changes recomputation, never answers."""
        registry = SessionRegistry(max_cached_bytes=1)
        registry.add_dataset("a", table_a)
        registry.add_dataset("b", table_b)
        door = registry.serve(policy="fifo")
        outcomes = door.replay(
            [
                (0.0, make_request(name="a0", dataset="a")),
                (0.0, make_request(name="b0", dataset="b")),
                (0.0, make_request(name="a1", dataset="a")),
            ]
        )
        door.shutdown()
        assert_reports_identical(outcomes[0].report, standalone(table_a, 3), "a0")
        assert_reports_identical(outcomes[1].report, standalone(table_b, 3), "b0")
        assert_reports_identical(outcomes[2].report, standalone(table_a, 3), "a1")
