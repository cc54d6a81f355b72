"""Tests for the multi-query serving layer (system/session.py + scheduler.py).

Acceptance properties: a MatchSession interleaving many queries must share
prepared artifacts (cache hits), report per-query latency on the shared
clock, and produce per-query results identical to standalone runs.
"""

import dataclasses
import hashlib
from unittest.mock import Mock

import numpy as np
import pytest

import repro.system.session as session_module
from repro import MatchSession, SessionRegistry, match_many
from repro.core import HistSimConfig
from repro.core.target import TargetSpec
from repro.data.flights import build_flights
from repro.data.workloads import workload_query
from repro.query import Equals, HistogramQuery, InRange
from repro.storage import CategoricalAttribute, ColumnTable, Schema
from repro.system import BatchScheduler, PreparedQuery, SimulatedClock, run_approach


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(101)
    n = 100_000
    candidates, groups = 18, 6
    z = rng.integers(0, candidates, size=n)
    x = np.empty(n, dtype=np.int64)
    for c in range(candidates):
        mask = z == c
        base = np.full(groups, 1.0 / groups)
        if c >= 3:
            base[c % groups] += 0.7
            base /= base.sum()
        x[mask] = rng.choice(groups, size=int(mask.sum()), p=base)
    schema = Schema(
        (
            CategoricalAttribute("product", tuple(f"p{i}" for i in range(candidates))),
            CategoricalAttribute("age", tuple(f"a{i}" for i in range(groups))),
            CategoricalAttribute("channel", ("web", "store")),
        )
    )
    return ColumnTable(
        schema,
        {"product": z, "age": x, "channel": rng.integers(0, 2, size=n)},
    )


def make_queries(count):
    """A mix of >= count distinct queries over the fixture table."""
    queries = [
        HistogramQuery("product", "age",
                       target=TargetSpec(kind="closest_to_uniform"), k=3,
                       name="uniform"),
        HistogramQuery("product", "age",
                       target=TargetSpec(kind="candidate", candidate=4), k=2,
                       name="like-4"),
        HistogramQuery("product", "age",
                       target=TargetSpec(kind="candidate", candidate=5), k=2,
                       name="like-5"),
        HistogramQuery("product", "channel",
                       target=TargetSpec(kind="closest_to_uniform"), k=3,
                       name="channel"),
    ]
    out = []
    i = 0
    while len(out) < count:
        base = queries[i % len(queries)]
        out.append(base)
        i += 1
    return out[:count]


CONFIG_EPS = 0.15


class TestMatchSession:
    def test_eight_interleaved_queries_match_standalone(self, table):
        """>= 8 concurrent queries: cache hits, identical per-query results."""
        queries = make_queries(8)
        session = MatchSession(table)
        for query in queries:
            config = HistSimConfig(k=query.k, epsilon=CONFIG_EPS, delta=0.05, sigma=0.0)
            session.submit(query, config=config, seed=3)
        run = session.run()

        assert len(run) == 8
        assert session.cache_hits > 0

        for outcome, query in zip(run, queries):
            config = HistSimConfig(k=query.k, epsilon=CONFIG_EPS, delta=0.05, sigma=0.0)
            prepared = session.prepared(query, seed=3)
            standalone = run_approach(prepared, "fastmatch", config, seed=3)
            assert outcome.report.result.matching == standalone.result.matching
            assert np.array_equal(
                outcome.report.result.histograms, standalone.result.histograms
            )
            assert np.array_equal(
                outcome.report.result.distances, standalone.result.distances
            )
            assert outcome.report.result.stats == standalone.result.stats
            assert outcome.report.result.rounds == standalone.result.rounds
            # Service time equals the standalone simulated latency.
            assert outcome.report.elapsed_ns == pytest.approx(standalone.elapsed_ns)

    def test_artifact_layers_shared(self, table):
        session = MatchSession(table)
        for query in make_queries(4):
            session.submit(query, seed=0)
        # 4 distinct queries, one shuffle, one index (same Z), three distinct
        # ground truths (uniform + like-4 + like-5 share one template).
        assert session.cache_stats.misses["shuffle"] == 1
        assert session.cache_stats.hits["shuffle"] == 3
        assert session.cache_stats.misses["index"] == 1
        assert session.cache_stats.hits["index"] == 3
        assert session.cache_stats.misses["ground_truth"] == 2
        assert "shuffle" in session.cache_stats.summary()

    def test_repeated_identical_query_hits_prepared_cache(self, table):
        session = MatchSession(table)
        query = make_queries(1)[0]
        session.prepared(query, seed=1)
        session.prepared(query, seed=1)
        assert session.cache_stats.hits["prepared"] == 1
        # Different seed: new shuffle, but ground truth is reused.
        session.prepared(query, seed=2)
        assert session.cache_stats.misses["shuffle"] == 2
        assert session.cache_stats.hits["ground_truth"] >= 1

    def test_latency_includes_queueing_service_does_not(self, table):
        queries = make_queries(6)
        session = MatchSession(table)
        for query in queries:
            session.submit(query, seed=2)
        run = session.run()
        for outcome in run:
            assert outcome.latency_ns >= outcome.service_ns > 0
        # The drain's span covers every query's completion.
        assert run.elapsed_ns >= max(o.latency_ns for o in run)
        assert run.throughput_qps > 0
        assert run.mean_latency_seconds > 0

    def test_audits_attached_and_ok(self, table):
        session = MatchSession(table)
        run = session.match_many(make_queries(4), seed=5)
        for outcome in run:
            assert outcome.report.audit is not None
            assert outcome.report.audit.ok

    def test_scan_approach_supported(self, table):
        session = MatchSession(table)
        query = make_queries(1)[0]
        outcome = session.match(query, approach="scan")
        assert outcome.report.result.exact
        assert outcome.report.approach == "scan"
        assert outcome.steps == 1

    def test_unknown_approach_rejected(self, table):
        session = MatchSession(table)
        with pytest.raises(ValueError, match="approach"):
            session.submit(make_queries(1)[0], approach="magic")

    def test_predicate_query_row_filter_cached(self, table):
        session = MatchSession(table)
        query = HistogramQuery(
            "product", "age", target=TargetSpec(kind="closest_to_uniform"),
            k=2, predicate=Equals("channel", 0), name="web-only",
        )
        session.submit(query, seed=1)
        session.prepared(query, seed=1)
        assert session.cache_stats.misses["row_filter"] == 1
        run = session.run()
        assert run[0].report.audit.ok

    def test_max_step_rows_same_results_more_steps(self, table):
        queries = make_queries(3)
        coarse = MatchSession(table)
        for q in queries:
            coarse.submit(q, seed=4)
        coarse_run = coarse.run()

        fine = MatchSession(table)
        for q in queries:
            fine.submit(q, seed=4, max_step_rows=1000)
        fine_run = fine.run()

        for a, b in zip(coarse_run, fine_run):
            assert a.report.result.matching == b.report.result.matching
            assert np.array_equal(a.report.result.histograms, b.report.result.histograms)
            assert a.report.result.stats == b.report.result.stats
        assert fine_run.total_steps > coarse_run.total_steps

    def test_adopt_external_prepared(self, table):
        query = make_queries(1)[0]
        rng = np.random.default_rng(9)
        prepared = PreparedQuery.prepare(table, query, rng)
        session = MatchSession(table)
        session.adopt(prepared, seed=9)
        assert session.prepared(query, seed=9) is prepared

    def test_submit_rejects_mismatched_prepared(self, table):
        uniform, like4 = make_queries(2)
        prepared = PreparedQuery.prepare(table, uniform, np.random.default_rng(9))
        session = MatchSession(table)
        with pytest.raises(ValueError, match="different query"):
            session.submit(like4, prepared=prepared)


class TestMatchManyFrontDoor:
    def test_match_many_results_and_order(self, table):
        queries = make_queries(5)
        run = match_many(table, queries, epsilon=CONFIG_EPS, delta=0.05, seed=3)
        assert len(run) == 5
        names = [o.name for o in run]
        assert names[0] == "uniform" and names[3] == "channel"
        assert set(run[0].report.result.matching) == {0, 1, 2}
        # k comes from each query, shared tolerances from the call.
        assert run[1].report.result.k == 2

    def test_match_many_iterates_and_indexes(self, table):
        run = match_many(table, make_queries(2), epsilon=CONFIG_EPS, seed=1)
        assert [o.name for o in run] == [run[0].name, run[1].name]
        assert len(list(run)) == 2


class _FakeReport:
    def __init__(self):
        self.elapsed_ns = 0.0


class _FakeJob:
    """Deterministic job: charges 1ns per step, finishes after `work` steps."""

    def __init__(self, name, work, clock, log):
        self.name = name
        self._work = work
        self._clock = clock
        self._log = log

    @property
    def done(self):
        return self._work == 0

    def step(self):
        self._log.append(self.name)
        self._work -= 1
        self._clock.charge_serial(io=1.0)

    def finish(self, service_ns):
        report = _FakeReport()
        report.elapsed_ns = service_ns
        return report


class TestRoundRobinScheduler:
    def test_round_robin_interleaving_order(self):
        clock = SimulatedClock()
        scheduler = BatchScheduler(clock)
        log = []
        scheduler.add(_FakeJob("a", 3, clock, log))
        scheduler.add(_FakeJob("b", 1, clock, log))
        scheduler.add(_FakeJob("c", 2, clock, log))
        result = scheduler.run()
        # Cycle 1: a b c; cycle 2: a c (b done); cycle 3: a.
        assert log == ["a", "b", "c", "a", "c", "a"]
        assert [o.name for o in result] == ["a", "b", "c"]
        assert result.total_steps == 6
        assert scheduler.pending == 0

    def test_latency_reflects_interleaving(self):
        clock = SimulatedClock()
        scheduler = BatchScheduler(clock)
        log = []
        scheduler.add(_FakeJob("a", 2, clock, log))
        scheduler.add(_FakeJob("b", 2, clock, log))
        result = scheduler.run()
        a, b = result
        # b finishes last: at 4ns; a at 3ns.  Both submitted at 0.
        assert a.finished_ns == 3.0 and b.finished_ns == 4.0
        assert a.latency_ns == 3.0 and b.latency_ns == 4.0
        assert a.service_ns == 2.0 and b.service_ns == 2.0
        assert result.elapsed_ns == 4.0

    def test_empty_drain(self):
        scheduler = BatchScheduler(SimulatedClock())
        result = scheduler.run()
        assert len(result) == 0
        assert result.mean_latency_seconds == 0.0
        assert result.throughput_qps == 0.0

    def test_repeated_drains_never_double_report(self):
        clock = SimulatedClock()
        scheduler = BatchScheduler(clock)
        log = []
        scheduler.add(_FakeJob("a", 2, clock, log))
        first = scheduler.run()
        assert [o.name for o in first] == ["a"]
        scheduler.add(_FakeJob("b", 1, clock, log))
        second = scheduler.run()
        # Only the newly completed job is reported, with its own drain span.
        assert [o.name for o in second] == ["b"]
        assert second.elapsed_ns == 1.0
        assert scheduler.run().outcomes == ()


class _RecordingBackend:
    """SerialBackend plus a log of unpublish calls (eviction hook checks)."""

    def __init__(self):
        from repro.parallel import SerialBackend

        self._inner = SerialBackend()
        self.unpublished = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def unpublish(self, *artifacts):
        self.unpublished.extend(artifacts)


class TestBoundedCache:
    """Satellite: LRU eviction with backend unpublish on evict."""

    def queries(self):
        return [
            HistogramQuery("product", "age",
                           target=TargetSpec(kind="closest_to_uniform"), k=2,
                           name="q-uniform"),
            HistogramQuery("product", "age",
                           target=TargetSpec(kind="candidate", candidate=4), k=2,
                           name="q-like4"),
            HistogramQuery("product", "channel",
                           target=TargetSpec(kind="closest_to_uniform"), k=2,
                           name="q-channel"),
        ]

    def test_max_cached_queries_evicts_lru(self, table):
        from repro.parallel import ExecutionBackend

        backend = _RecordingBackend()
        assert isinstance(backend._inner, ExecutionBackend)
        session = MatchSession(table, backend=backend._inner, max_cached_queries=2)
        session.backend = backend  # route eviction hooks through the recorder
        q = self.queries()
        # Distinct seeds give each query its own shuffle, so evicting one
        # prepared entry releases a whole shuffled table.
        for seed, query in enumerate(q):
            session.prepared(query, seed=seed)
        assert session.cache_stats.evictions["prepared"] == 1
        # The first (LRU) query's exclusive artifacts were released...
        assert session.cache_stats.evictions.get("shuffle") == 1
        assert any(
            getattr(a, "num_rows", None) == table.num_rows for a in backend.unpublished
        )
        # ...so preparing it again is a miss, evicting the next-oldest.
        misses_before = session.cache_stats.misses["prepared"]
        session.prepared(q[0], seed=0)
        assert session.cache_stats.misses["prepared"] == misses_before + 1
        assert session.cache_stats.evictions["prepared"] == 2

    def test_lru_touch_on_hit_protects_entry(self, table):
        session = MatchSession(table, max_cached_queries=2)
        q = self.queries()
        session.prepared(q[0], seed=0)
        session.prepared(q[1], seed=1)
        session.prepared(q[0], seed=0)  # touch: q0 becomes most-recent
        session.prepared(q[2], seed=2)  # evicts q1, not q0
        hits_before = session.cache_stats.hits["prepared"]
        session.prepared(q[0], seed=0)
        assert session.cache_stats.hits["prepared"] == hits_before + 1

    def test_max_cached_bytes_enforced_but_newest_survives(self, table):
        session = MatchSession(table, max_cached_bytes=1)  # everything is over
        q = self.queries()
        session.prepared(q[0], seed=0)
        session.prepared(q[1], seed=1)
        # The newest entry always survives; everything older is evicted.
        assert session.cache_stats.evictions["prepared"] == 1
        assert session.cache_bytes > 1  # one entry retained despite the bound

    def test_shared_artifacts_not_released_while_referenced(self, table):
        backend = _RecordingBackend()
        session = MatchSession(table, max_cached_queries=1)
        session.backend = backend
        q = self.queries()
        # Same seed: q0 and q1 share one shuffle/index/table.
        session.prepared(q[0], seed=0)
        session.prepared(q[1], seed=0)
        assert session.cache_stats.evictions["prepared"] == 1
        # The shared shuffled table is still referenced by the survivor.
        assert session.cache_stats.evictions.get("shuffle") is None
        assert backend.unpublished == []

    def test_eviction_shows_in_summary_and_results_stay_correct(self, table):
        session = MatchSession(table, max_cached_queries=1)
        run = session.match_many(self.queries(), seed=5)
        assert "evicted=" in session.cache_stats.summary()
        for outcome in run:
            assert outcome.report.audit is not None and outcome.report.audit.ok

    def test_invalid_bounds_rejected(self, table):
        with pytest.raises(ValueError, match="max_cached_queries"):
            MatchSession(table, max_cached_queries=0)
        with pytest.raises(ValueError, match="max_cached_bytes"):
            MatchSession(table, max_cached_bytes=0)


class TestSessionLifecycle:
    """Satellite bugfix: close() idempotent under the front door's shutdown."""

    def test_double_close_and_submit_after_close(self, table):
        session = MatchSession(table)
        session.close()
        session.close()
        assert session.closed
        with pytest.raises(RuntimeError, match="closed"):
            session.submit(make_queries(1)[0])
        with pytest.raises(RuntimeError, match="closed"):
            session.make_job(make_queries(1)[0])

    def test_context_manager_then_explicit_close(self, table):
        with MatchSession(table) as session:
            session.match(make_queries(1)[0])
        session.close()  # second close via the other path
        assert session.closed


class TestPreparedQueryReuse:
    """Satellite: prepared-artifact reuse yields identical MatchResults."""

    def test_repeated_run_approach_identical(self, table):
        query = make_queries(1)[0]
        prepared = PreparedQuery.prepare(table, query, np.random.default_rng(11))
        config = HistSimConfig(k=3, epsilon=CONFIG_EPS, delta=0.05, sigma=0.0)
        first = run_approach(prepared, "fastmatch", config, seed=6)
        second = run_approach(prepared, "fastmatch", config, seed=6)
        assert first.result.matching == second.result.matching
        assert np.array_equal(first.result.histograms, second.result.histograms)
        assert np.array_equal(first.result.distances, second.result.distances)
        assert first.result.stats == second.result.stats
        assert first.result.rounds == second.result.rounds
        assert first.elapsed_ns == second.elapsed_ns

    def test_reuse_across_approaches_same_substrate(self, table):
        """One PreparedQuery serves every approach on identical artifacts."""
        query = make_queries(1)[0]
        prepared = PreparedQuery.prepare(table, query, np.random.default_rng(12))
        config = HistSimConfig(k=3, epsilon=0.2, delta=0.05, sigma=0.0)
        results = {
            approach: run_approach(prepared, approach, config, seed=2)
            for approach in ("scanmatch", "syncmatch", "fastmatch")
        }
        for report in results.values():
            assert report.audit is not None and report.audit.ok


def assert_same(got, want, path="report"):
    """Recursive equality over dataclasses, arrays and containers."""
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want), path
        for f in dataclasses.fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name), f"{path}.{f.name}")
    elif isinstance(want, np.ndarray):
        assert np.array_equal(got, want), path
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same(a, b, f"{path}[{i}]")
    else:
        assert got == want, path


class TestAdoptedEviction:
    """Evicting an adopted entry counts only the layers that dropped
    something: its shuffle, index and ground truth were never cached."""

    def test_adopted_entry_eviction_counts_only_prepared(self):
        flights = build_flights(rows=20_000, seed=7).table
        _, q1 = workload_query("flights-q1")
        _, q3 = workload_query("flights-q3")
        adopted = PreparedQuery.prepare(flights, q1, np.random.default_rng(5))
        session = MatchSession(flights, max_cached_queries=1)
        session.adopt(adopted, seed=5)
        session.prepared(q3, seed=5)
        assert session.cache_stats.evictions == {"prepared": 1}
        layers = [layer for layer, _ in session._artifacts]
        assert layers.count("shuffle") == 1
        assert layers.count("index") == 1
        assert len(session._exact_cache) == 1
        # The adopted ground truth was never in the session's cache, so it
        # is not kept as an orphan either.
        assert session._orphans() == []
        fresh = MatchSession(flights)
        fresh.prepared(q3, seed=5)
        assert session.cache_bytes == fresh.cache_bytes

    def test_adopt_over_own_entry_releases_its_artifacts(self):
        """Adopting under a key the session built itself replaces that
        entry: its shuffle and index are dropped and unpublished, its
        ground truth kept as an orphan, and nothing of it outlives the
        adopted entry's own eviction."""
        flights = build_flights(rows=20_000, seed=7).table
        _, q1 = workload_query("flights-q1")
        _, q3 = workload_query("flights-q3")
        backend = _RecordingBackend()
        session = MatchSession(flights, backend=backend._inner, max_cached_queries=1)
        session.backend = backend
        own = session.prepared(q1, seed=5)
        adopted = PreparedQuery.prepare(flights, q1, np.random.default_rng(5))
        session.adopt(adopted, seed=5)
        assert session.cache_stats.evictions == {"shuffle": 1, "index": 1}
        assert any(a is own.shuffled.table for a in backend.unpublished)
        assert session._orphans() == [(session_module._template(q1), own.exact_counts)]
        fresh = MatchSession(flights)
        fresh.adopt(adopted, seed=5)
        assert session.cache_bytes == fresh.cache_bytes + own.exact_counts.nbytes
        # Evicting the adopted entry leaves only q3's artifacts held.
        last = session.prepared(q3, seed=5)
        assert session.cache_stats.evictions["prepared"] == 1
        assert [a for a in session._artifacts.values()] == [last.shuffled, last.index]


class TestOrphanGroundTruth:
    """An evicted template's ground truth outlives its prepared entry."""

    def queries(self):
        return (
            HistogramQuery("product", "age",
                           target=TargetSpec(kind="closest_to_uniform"), k=3,
                           predicate=Equals("channel", 0), name="web-uniform"),
            HistogramQuery("product", "channel",
                           target=TargetSpec(kind="closest_to_uniform"), k=3,
                           name="channel"),
        )

    @pytest.mark.parametrize("kernel", ["auto", "fused"])
    def test_re_miss_is_a_ground_truth_hit(self, table, kernel, monkeypatch):
        evicted, other = self.queries()
        config = HistSimConfig(k=3, epsilon=CONFIG_EPS, delta=0.05, sigma=0.0)
        session = MatchSession(table, kernel=kernel, max_cached_queries=1)
        session.prepared(evicted, seed=4)
        session.prepared(other, seed=4)
        assert session.cache_stats.evictions["prepared"] == 1
        assert "ground_truth" not in session.cache_stats.evictions
        counters = {
            name: Mock(wraps=getattr(session_module, name))
            for name in ("count_codes", "exact_candidate_counts")
        }
        for name, counter in counters.items():
            monkeypatch.setattr(session_module, name, counter)
        gt_hits = session.cache_stats.hits.get("ground_truth", 0)
        misses = session.cache_stats.misses["prepared"]
        report = session.match(evicted, config=config, seed=4).report
        assert session.cache_stats.misses["prepared"] == misses + 1
        assert session.cache_stats.hits["ground_truth"] == gt_hits + 1
        assert {name: c.call_count for name, c in counters.items()} == {
            "count_codes": 0, "exact_candidate_counts": 0,
        }
        monkeypatch.undo()
        fresh = MatchSession(table, kernel=kernel)
        assert_same(report, fresh.match(evicted, config=config, seed=4).report)

    def test_cache_bytes_counts_orphans(self, table):
        evicted, other = self.queries()
        session = MatchSession(table, kernel="fused", max_cached_queries=1)
        orphan = session.prepared(evicted, seed=4).exact_counts
        session.prepared(other, seed=4)
        fresh = MatchSession(table, kernel="fused")
        fresh.prepared(other, seed=4)
        assert session._orphans() == [(session_module._template(evicted), orphan)]
        assert session.cache_bytes == fresh.cache_bytes + orphan.nbytes

    def test_close_drops_orphans(self, table):
        evicted, other = self.queries()
        session = MatchSession(table, max_cached_queries=1)
        session.prepared(evicted, seed=4)
        session.prepared(other, seed=4)
        assert len(session._orphans()) == 1
        session.close()
        assert session._orphans() == []
        # The entries leave the cache with their session.
        assert session.cache_bytes == 0 and len(session.cache) == 0

    def test_table_nbytes_caps_orphans_coldest_first(self):
        """A small table with a large code space: two ground truths fit in
        ``table.nbytes``, a third pushes out the one orphaned first."""
        rng = np.random.default_rng(28)
        rows, candidates, groups, templates = 10_000, 125, 25, 5
        names = [f"x{i}" for i in range(templates)]
        schema = Schema(
            (CategoricalAttribute("z", tuple(range(candidates))),)
            + tuple(CategoricalAttribute(n, tuple(range(groups))) for n in names)
        )
        columns = {"z": rng.integers(0, candidates, size=rows)}
        columns.update({n: rng.integers(0, groups, size=rows) for n in names})
        small = ColumnTable(schema, columns)
        truth_bytes = candidates * groups * 8
        assert 2 * truth_bytes <= small.nbytes < 3 * truth_bytes
        q = [
            HistogramQuery("z", n, target=TargetSpec(kind="closest_to_uniform"),
                           k=3, name=n)
            for n in names
        ]
        session = MatchSession(small, max_cached_queries=2)
        session.prepared(q[0])
        session.prepared(q[1])
        session.prepared(q[0])  # touch: q1 is now the LRU entry
        session.prepared(q[2])  # evicts q1: its truth is orphaned first
        session.prepared(q[3])  # evicts q0: two orphans, within the cap
        assert [t for t, _ in session._orphans()] == [
            session_module._template(q[1]), session_module._template(q[0]),
        ]
        assert "ground_truth" not in session.cache_stats.evictions
        session.prepared(q[4])  # evicts q2: three would exceed the cap
        assert [t for t, _ in session._orphans()] == [
            session_module._template(q[0]), session_module._template(q[2]),
        ]
        assert session.cache_stats.evictions["ground_truth"] == 1
        assert sum(c.nbytes for _, c in session._orphans()) <= small.nbytes


class TestSharedCacheBytes:
    """A registry's sessions share one ArtifactCache: one LRU, one byte
    bound, read by the health monitor behind either kind of door."""

    def test_sessions_share_the_registry_cache(self, table):
        registry = SessionRegistry(max_cached_bytes=10**9)
        a = registry.add_dataset("a", table)
        b = registry.add_dataset("b", table)
        assert a.cache is b.cache is registry.cache
        a.prepared(make_queries(1)[0], seed=1)
        b.prepared(make_queries(1)[0], seed=2)
        assert len(registry.cache) == 2
        assert registry.cache.nbytes == a.cache_bytes + b.cache_bytes > 0
        registry.close()
        assert len(registry.cache) == 0

    @pytest.mark.parametrize("bound", ["max_cached_queries", "max_cached_bytes"])
    def test_per_tenant_bounds_rejected(self, table, bound):
        registry = SessionRegistry(max_cached_bytes=10**9)
        with pytest.raises(ValueError, match="shared cache"):
            registry.add_dataset("a", table, **{bound: 4})
        assert "a" not in registry
        with pytest.raises(ValueError, match="shared cache"):
            MatchSession(table, cache=registry.cache, **{bound: 4})

    def test_health_reads_the_shared_byte_bound(self, table):
        from repro.obs.health import HealthMonitor
        from repro.serving import FrontDoor

        def cache_check(service):
            door = FrontDoor(service)
            try:
                (check,) = [
                    c for c in HealthMonitor(door).check().checks if c.name == "cache"
                ]
            finally:
                door.shutdown()
            return check.value, check.limit

        session = MatchSession(table, max_cached_bytes=10**9)
        session.prepared(make_queries(1)[0])
        nbytes = session.cache_bytes
        assert cache_check(session) == (nbytes, 10**9)
        registry = SessionRegistry(max_cached_bytes=2 * 10**9)
        tenant = registry.add_dataset("a", table)
        other = registry.add_dataset("b", table)
        tenant.prepared(make_queries(1)[0])
        other.prepared(make_queries(1)[0])
        both, other_bytes = registry.cache.nbytes, other.cache_bytes
        # A tenant's own door reads the cache it shares, bound and bytes...
        assert cache_check(tenant) == (both, 2 * 10**9)
        # ...and its entries leave the cache when that door closes it.
        assert cache_check(registry) == (other_bytes, 2 * 10**9)


# The session_cache_mix workload's twelve templates at 20k rows, and the
# values its op sequence gave before ground truths outlived their entries:
# prepared-layer (hits, misses, evictions), ground-truth misses, and a
# digest of every answer.
CACHE_MIX_PREDICATE = InRange("dep_delay", 0, 1)
CACHE_MIX_CONFIG = HistSimConfig(k=5, epsilon=0.2, delta=0.05, sigma=0.0)
CACHE_MIX_BYTES = 600_000
PINNED_QUERIES_BOUND = ((32, 28, 22), 28, "efe36db41f32fd4d")
PINNED_BYTES_BOUND = ((18, 42, 39), 42, "efe36db41f32fd4d")
PINNED_REGISTRY = {"a": ((7, 23, 20), 23), "b": ((5, 25, 22), 25)}
PINNED_REGISTRY_DIGEST = "b5c5b05c12566f95"


def cache_mix_templates():
    queries = []
    for z in ("origin", "dest"):
        for x in ("dep_hour", "day_of_week", "day_of_month"):
            for predicate in (None, CACHE_MIX_PREDICATE):
                kwargs = {"predicate": predicate} if predicate is not None else {}
                queries.append(HistogramQuery(
                    z, x, target=TargetSpec(kind="closest_to_uniform"), k=5,
                    name=f"{z}.{x}" + (".delay" if predicate is not None else ""),
                    **kwargs,
                ))
    return queries


def cache_mix_sequence(ops=60):
    weights = 1.0 / np.arange(1, 13)
    return np.random.default_rng(28).choice(12, size=ops, p=weights / weights.sum())


def answer_digest(reports):
    digest = hashlib.sha256()
    for report in reports:
        result = report.result
        digest.update(repr((
            tuple(result.matching),
            np.asarray(result.histograms).astype(np.int64).tobytes(),
            report.counters["rows_delivered"],
            report.counters["blocks_read"],
        )).encode())
    return digest.hexdigest()[:16]


def prepared_layer(stats):
    return tuple(
        counter.get("prepared", 0)
        for counter in (stats.hits, stats.misses, stats.evictions)
    )


@pytest.fixture(scope="module")
def cache_mix_tables():
    return {
        "a": build_flights(rows=20_000, seed=7).table,
        "b": build_flights(rows=20_000, seed=8).table,
    }


class TestOrphanInvariance:
    """Kept ground truths change no prepared-layer decision and no answer,
    under either session bound or a registry budget: only ground-truth
    misses fall."""

    def run_session(self, table, **bounds):
        templates = cache_mix_templates()
        with MatchSession(table, kernel="fused", **bounds) as session:
            reports = [
                session.match(templates[i], config=CACHE_MIX_CONFIG, seed=3).report
                for i in cache_mix_sequence()
            ]
            return session.cache_stats, answer_digest(reports)

    @pytest.mark.parametrize(
        "bounds, pinned",
        [
            ({"max_cached_queries": 6}, PINNED_QUERIES_BOUND),
            ({"max_cached_bytes": CACHE_MIX_BYTES}, PINNED_BYTES_BOUND),
        ],
        ids=["queries", "bytes"],
    )
    def test_session_bounds(self, cache_mix_tables, bounds, pinned):
        layer, truth_misses, digest = pinned
        stats, got_digest = self.run_session(cache_mix_tables["a"], **bounds)
        assert prepared_layer(stats) == layer
        assert got_digest == digest
        assert stats.misses["ground_truth"] < truth_misses

    def test_registry_budget(self, cache_mix_tables):
        templates = cache_mix_templates()
        registry = SessionRegistry(max_cached_bytes=2 * CACHE_MIX_BYTES, kernel="fused")
        for key, table in cache_mix_tables.items():
            registry.add_dataset(key, table)
        reports = [
            registry.session("ab"[n % 2])
            .match(templates[i], config=CACHE_MIX_CONFIG, seed=3)
            .report
            for n, i in enumerate(cache_mix_sequence())
        ]
        assert answer_digest(reports) == PINNED_REGISTRY_DIGEST
        for key, (layer, truth_misses) in PINNED_REGISTRY.items():
            stats = registry.session(key).cache_stats
            assert prepared_layer(stats) == layer
            assert stats.misses["ground_truth"] <= truth_misses
        sessions = [registry.session(key) for key in registry]
        # An evicted entry leaves its ground truth behind...
        tenant = sessions[0]
        assert tenant.cache.evict(tenant, next(iter(tenant.cache.entries(tenant))))
        orphans = sum(len(s._orphans()) for s in sessions)
        assert orphans > 0
        # ...and a squeeze of one byte sheds an orphan, not an entry.
        entries = len(registry.cache)
        registry.cache.max_cached_bytes = registry.cache.nbytes - 1
        assert registry.cache.trim() == 0
        assert len(registry.cache) == entries
        assert sum(len(s._orphans()) for s in sessions) == orphans - 1
        # Past every orphan and every evictable entry, it still stops.
        registry.cache.max_cached_bytes = 1
        assert registry.cache.trim() == entries - len(sessions)
        assert all(s._orphans() == [] for s in sessions)
        assert len(registry.cache) == len(sessions)
        registry.close()
