"""Tests for block-selection policies and the block sampling engine."""

import numpy as np
import pytest

from repro.bitmap import BlockBitmapIndex, build_bitmap_index
from repro.core.sampler import TupleSampler
from repro.parallel import ShardedBackend, ThreadPoolBackend
from repro.sampling import (
    AnyActiveLookaheadPolicy,
    AnyActiveSyncPolicy,
    BlockSamplingEngine,
    ScanAllPolicy,
)
from repro.storage import (
    CategoricalAttribute,
    ColumnTable,
    CostModel,
    Schema,
    shuffle_table,
)
from repro.system import SimulatedClock


def make_world(n=6000, candidates=8, groups=4, block_size=50, seed=0):
    rng = np.random.default_rng(seed)
    schema = Schema(
        (
            CategoricalAttribute("z", tuple(f"z{i}" for i in range(candidates))),
            CategoricalAttribute("x", tuple(f"x{i}" for i in range(groups))),
        )
    )
    table = ColumnTable(
        schema,
        {
            "z": rng.integers(0, candidates, size=n),
            "x": rng.integers(0, groups, size=n),
        },
    )
    shuffled = shuffle_table(table, block_size, rng)
    index = build_bitmap_index(shuffled, "z")
    return shuffled, index


def make_engine(shuffled, index, policy, window=16, seed=1, row_filter=None):
    clock = SimulatedClock()
    engine = BlockSamplingEngine(
        shuffled=shuffled,
        candidate_attribute="z",
        grouping_attribute="x",
        index=index,
        cost_model=CostModel(),
        clock=clock,
        policy=policy,
        rng=np.random.default_rng(seed),
        window_blocks=window,
        row_filter=row_filter,
    )
    return engine, clock


class TestPolicies:
    def setup_method(self):
        self.shuffled, self.index = make_world()
        self.cm = CostModel()

    def test_scan_all_reads_everything_free(self):
        policy = ScanAllPolicy()
        blocks = np.arange(5, 25)
        d = policy.select(self.index, blocks, np.array([0, 1]), self.cm, True)
        assert d.read_mask.all()
        assert d.mark_cost_ns == 0.0
        assert d.overlaps_io

    def test_sync_reads_only_blocks_with_active(self):
        policy = AnyActiveSyncPolicy()
        active = np.array([3])
        blocks = np.arange(0, 40)
        d = policy.select(self.index, blocks, active, self.cm, True)
        expected = self.index.blocks_with_value(3)[blocks]
        np.testing.assert_array_equal(d.read_mask, expected)
        assert not d.overlaps_io
        assert d.probes > 0

    def test_sync_probe_count_models_early_exit(self):
        policy = AnyActiveSyncPolicy()
        active = np.array([0, 1, 2])
        blocks = np.arange(0, 10)
        d = policy.select(self.index, blocks, active, self.cm, True)
        expected_probes = 0
        for b in blocks:
            hits = [r for r, v in enumerate(active) if self.index.contains(int(v), int(b))]
            expected_probes += (hits[0] + 1) if hits else active.size
        assert d.probes == expected_probes

    def test_lookahead_same_reads_as_sync(self):
        blocks = np.arange(10, 60)
        active = np.array([2, 5])
        sync = AnyActiveSyncPolicy().select(self.index, blocks, active, self.cm, True)
        look = AnyActiveLookaheadPolicy().select(self.index, blocks, active, self.cm, True)
        np.testing.assert_array_equal(sync.read_mask, look.read_mask)
        assert look.overlaps_io

    def test_lookahead_decision_pinned_on_gappy_windows(self):
        """Packed-byte marking decides exactly what the unpacked presence
        matrix did: same mask, same probes, same marking cost."""
        from repro.storage.cost_model import CACHELINE_BITS

        rng = np.random.default_rng(3)
        for active in (np.arange(8), np.array([6]), np.array([1, 4, 7])):
            blocks = np.flatnonzero(rng.random(120) < 0.6)[3:]  # unaligned, gappy
            lo, hi = int(blocks.min()), int(blocks.max()) + 1
            d = AnyActiveLookaheadPolicy().select(
                self.index, blocks, active, self.cm, True
            )
            presence = self.index.chunk_presence(active, lo, hi)
            np.testing.assert_array_equal(
                d.read_mask, presence[:, blocks - lo].any(axis=0)
            )
            assert d.probes == active.size * -(-(hi - lo) // CACHELINE_BITS)
            assert d.mark_cost_ns == self.cm.lookahead_mark_cost(
                active.size, hi - lo, True
            )

    def test_lookahead_cheaper_per_block_than_sync_probes(self):
        """The Algorithm 3 cache win: marking a batch costs far less than
        per-block probing for the same decision."""
        blocks = np.arange(0, 120)  # all blocks (world has 120)
        active = np.arange(8)
        sync = AnyActiveSyncPolicy().select(self.index, blocks, active, self.cm, False)
        look = AnyActiveLookaheadPolicy().select(self.index, blocks, active, self.cm, False)
        assert look.mark_cost_ns < sync.mark_cost_ns

    def test_empty_active_reads_nothing(self):
        for policy in (AnyActiveSyncPolicy(), AnyActiveLookaheadPolicy()):
            d = policy.select(
                self.index, np.arange(5), np.array([], dtype=int), self.cm, True
            )
            assert not d.read_mask.any()
            assert d.mark_cost_ns == 0.0


class TestEngineProtocol:
    def test_implements_tuple_sampler(self):
        shuffled, index = make_world()
        engine, _ = make_engine(shuffled, index, ScanAllPolicy())
        assert isinstance(engine, TupleSampler)
        assert engine.total_rows == 6000
        assert engine.num_candidates == 8
        assert engine.num_groups == 4
        np.testing.assert_array_equal(
            engine.candidate_rows(),
            np.bincount(shuffled.table.column("z"), minlength=8),
        )


class TestSampleUniform:
    def test_delivers_requested_rows(self):
        shuffled, index = make_world()
        engine, clock = make_engine(shuffled, index, ScanAllPolicy())
        counts = engine.sample_uniform(1000)
        # Block granularity: delivered rounds up to a whole block.
        assert 1000 <= counts.sum() <= 1000 + 50
        assert clock.elapsed_ns > 0
        assert clock.breakdown["io"] > 0

    def test_truncates_on_exhaustion(self):
        shuffled, index = make_world(n=500)
        engine, _ = make_engine(shuffled, index, ScanAllPolicy())
        counts = engine.sample_uniform(10_000)
        assert counts.sum() == 500
        assert engine.fully_scanned

    def test_uniformity_across_start_positions(self):
        """Counts delivered must track true proportions regardless of start."""
        shuffled, index = make_world(n=30_000, candidates=4, seed=3)
        totals = np.bincount(shuffled.table.column("z"), minlength=4)
        for seed in (0, 1, 2):
            engine, _ = make_engine(shuffled, index, ScanAllPolicy(), seed=seed)
            counts = engine.sample_uniform(6000).sum(axis=1)
            np.testing.assert_allclose(
                counts / counts.sum(), totals / totals.sum(), atol=0.03
            )


class TestSampleUntil:
    @pytest.mark.parametrize(
        "policy_cls", [ScanAllPolicy, AnyActiveSyncPolicy, AnyActiveLookaheadPolicy]
    )
    def test_meets_budgets(self, policy_cls):
        shuffled, index = make_world()
        engine, _ = make_engine(shuffled, index, policy_cls())
        needed = np.zeros(8)
        needed[2] = 200
        needed[5] = 100
        fresh = engine.sample_until(needed)
        rows = fresh.sum(axis=1)
        assert rows[2] >= 200
        assert rows[5] >= 100

    @pytest.mark.parametrize(
        "policy_cls", [ScanAllPolicy, AnyActiveSyncPolicy, AnyActiveLookaheadPolicy]
    )
    def test_budget_capped_by_remaining(self, policy_cls):
        shuffled, index = make_world(n=2000)
        engine, _ = make_engine(shuffled, index, policy_cls())
        totals = engine.candidate_rows()
        needed = np.zeros(8)
        needed[0] = np.inf
        fresh = engine.sample_until(needed)
        assert fresh[0].sum() == totals[0]

    def test_never_rereads_blocks(self):
        """Fresh samples must be fresh: rows delivered across calls never
        exceed the table size."""
        shuffled, index = make_world(n=3000)
        engine, _ = make_engine(shuffled, index, AnyActiveLookaheadPolicy())
        engine.sample_uniform(500)
        for _ in range(5):
            engine.sample_until(np.full(8, 200.0))
        assert engine.delivered_rows().sum() <= 3000

    def test_anyactive_skips_blocks_without_active(self):
        """A candidate confined to few blocks: AnyActive must skip the rest."""
        rng = np.random.default_rng(5)
        n = 8000
        z = rng.integers(1, 8, size=n)  # candidate 0 absent...
        z[:40] = 0  # ...except in the first 40 rows
        schema = Schema(
            (
                CategoricalAttribute("z", tuple(f"z{i}" for i in range(8))),
                CategoricalAttribute("x", ("a", "b")),
            )
        )
        table = ColumnTable(schema, {"z": z, "x": rng.integers(0, 2, size=n)})
        shuffled = shuffle_table(table, 50, rng)
        index = build_bitmap_index(shuffled, "z")
        engine, _ = make_engine(shuffled, index, AnyActiveLookaheadPolicy())
        needed = np.zeros(8)
        needed[0] = np.inf  # consume candidate 0 entirely
        fresh = engine.sample_until(needed)
        assert fresh[0].sum() == 40
        assert engine.counters.blocks_skipped > 0
        assert engine.counters.blocks_read < shuffled.num_blocks

    def test_sync_charges_serial_lookahead_charges_pipelined(self):
        shuffled, index = make_world()
        needed = np.full(8, 300.0)

        sync_engine, sync_clock = make_engine(shuffled, index, AnyActiveSyncPolicy())
        sync_engine.sample_until(needed)
        assert sync_clock.breakdown.get("mark", 0) > 0
        assert sync_clock.breakdown.get("overlap_hidden", 0) == 0

        look_engine, look_clock = make_engine(shuffled, index, AnyActiveLookaheadPolicy())
        look_engine.sample_until(needed)
        assert look_clock.breakdown.get("overlap_hidden", 0) > 0

    def test_row_filter_limits_delivery(self):
        shuffled, index = make_world(n=4000)
        x_col = shuffled.table.column("x")
        row_filter = x_col < 2  # keep about half the rows
        engine, _ = make_engine(
            shuffled, index, ScanAllPolicy(), row_filter=row_filter
        )
        fresh = engine.sample_until(np.full(8, np.inf))
        assert fresh.sum() == int(row_filter.sum())
        # Only surviving groups appear.
        assert fresh[:, 2:].sum() == 0

    def test_counts_join_z_and_x_correctly(self):
        shuffled, index = make_world(n=2000)
        engine, _ = make_engine(shuffled, index, ScanAllPolicy())
        fresh = engine.sample_until(np.full(8, np.inf))
        z, x = shuffled.table.column("z"), shuffled.table.column("x")
        expected = np.zeros((8, 4), dtype=np.int64)
        np.add.at(expected, (z, x), 1)
        np.testing.assert_array_equal(fresh, expected)

    def test_needed_shape_validated(self):
        shuffled, index = make_world()
        engine, _ = make_engine(shuffled, index, ScanAllPolicy())
        with pytest.raises(ValueError):
            engine.sample_until(np.zeros(3))


class TestEngineBookkeeping:
    """The window-rate bookkeeping (one reduction per window, an
    unconsumed-block counter, totals handed in by the caller) reports what
    recomputing from scratch does, step by step, on every backend."""

    BACKENDS = {
        "serial": lambda: None,
        "threads": lambda: ThreadPoolBackend(2, min_shard_rows=0),
        "sharded": lambda: ShardedBackend(2, min_shard_rows=0),
    }

    @staticmethod
    def walk(shuffled, index, backend, row_filter, candidate_totals):
        """Stage-1 pass, bounded stage-2 slices until the budgets are met,
        then everything that is left; the observable state after every call."""
        engine = BlockSamplingEngine(
            shuffled=shuffled,
            candidate_attribute="z",
            grouping_attribute="x",
            index=index,
            cost_model=CostModel(),
            clock=SimulatedClock(),
            policy=AnyActiveLookaheadPolicy(),
            window_blocks=8,
            row_filter=row_filter,
            start_block=37,
            backend=backend,
            candidate_totals=candidate_totals,
        )
        seen = np.zeros((engine.num_candidates, engine.num_groups), dtype=np.int64)
        needed = np.zeros(engine.num_candidates)
        needed[[0, 2, 5, -1]] = np.inf, 60, 15, np.inf
        trace = []
        draining = False
        for step in range(200):
            if step == 0:
                fresh = engine.sample_uniform(700)
            elif draining:
                fresh = engine.sample_until(np.full(engine.num_candidates, np.inf))
            else:
                remaining = np.maximum(needed - seen.sum(axis=1), 0)
                fresh = engine.sample_until(remaining, max_rows=300)
            seen += fresh
            counters = engine.counters
            # What the parent recomputed per call, from the same state.
            assert engine.fully_scanned == bool(engine._consumed.all())
            np.testing.assert_array_equal(engine.delivered_rows(), seen.sum(axis=1))
            assert counters.rows_delivered == seen.sum()
            assert counters.blocks_read == engine._consumed.sum()
            trace.append((
                engine.fully_scanned, tuple(engine.delivered_rows()),
                counters.blocks_read, counters.blocks_skipped,
                counters.rows_delivered, counters.probes, counters.windows,
                engine.clock.elapsed_ns,
            ))
            if draining:
                break
            # Nothing fresh: every budget is met or its candidate exhausted.
            draining = not fresh.any()
        return engine, trace

    @pytest.mark.parametrize("filtered", [False, True], ids=["plain", "filtered"])
    def test_state_matches_step_by_step_across_backends(self, filtered):
        # 240 blocks of 25 rows, each holding under half of the 40 candidates.
        shuffled, index = make_world(candidates=40, block_size=25)
        row_filter = shuffled.table.column("x") < 3 if filtered else None
        z = shuffled.table.column("z")
        totals = np.bincount(z if row_filter is None else z[row_filter], minlength=40)
        traces = {}
        for name, build in self.BACKENDS.items():
            backend = build()
            try:
                for handed_in in (None, totals):
                    engine, trace = self.walk(
                        shuffled, index, backend, row_filter, handed_in
                    )
                    np.testing.assert_array_equal(engine.candidate_rows(), totals)
                    assert engine.total_rows == totals.sum()
                    traces[name, handed_in is None] = trace
            finally:
                if backend is not None:
                    backend.close()
        reference = traces["serial", True]
        assert len(reference) > 3
        assert not reference[-2][0] and reference[-1][0]  # ends fully scanned
        assert reference[-1][3] > 0  # blocks were skipped on the way
        for key, trace in traces.items():
            assert trace == reference, key

    def test_candidate_totals_shape_checked(self):
        shuffled, index = make_world()
        with pytest.raises(ValueError, match="candidate_totals"):
            BlockSamplingEngine(
                shuffled=shuffled, candidate_attribute="z", grouping_attribute="x",
                index=index, cost_model=CostModel(), clock=SimulatedClock(),
                start_block=0, candidate_totals=np.zeros(7, dtype=np.int64),
            )

    def test_make_engine_hands_over_the_prepared_totals(self):
        """A prepared artifact's row sums are the engine's totals — under
        the query's predicate — so no engine recounts the column."""
        from repro.core import HistSimConfig
        from repro.query import HistogramQuery, IsIn
        from repro.system import PreparedQuery
        from repro.system.fastmatch import make_engine as make_prepared_engine

        shuffled, _ = make_world()
        query = HistogramQuery("z", "x", k=2, predicate=IsIn("x", (0, 2)))
        prepared = PreparedQuery.prepare(
            shuffled.table, query, np.random.default_rng(0), block_size=50
        )
        assert prepared.candidate_totals is prepared.candidate_totals  # taken once
        assert not prepared.candidate_totals.flags.writeable
        engine = make_prepared_engine(
            prepared, "fastmatch", HistSimConfig(k=2), CostModel(),
            SimulatedClock(), np.random.default_rng(1),
        )
        z = prepared.shuffled.table.column("z")[prepared.row_filter]
        np.testing.assert_array_equal(
            engine.candidate_rows(), np.bincount(z, minlength=8)
        )
        assert engine.total_rows == int(prepared.row_filter.sum())
