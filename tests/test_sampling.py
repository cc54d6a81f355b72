"""Tests for block-selection policies and the block sampling engine."""

import numpy as np
import pytest

from repro.bitmap import BlockBitmapIndex, build_bitmap_index
from repro.core.sampler import TupleSampler
from repro.parallel import (
    SerialBackend,
    ShardedBackend,
    ThreadPoolBackend,
    build_pair_codes,
    count_window,
)
from repro.sampling import (
    AnyActiveLookaheadPolicy,
    AnyActiveSyncPolicy,
    BlockSamplingEngine,
    ScanAllPolicy,
)
from repro.sampling.policies import PolicyDecision
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


def code_spaces(dense, deferred):
    """Run a test on a code space below its engine's window and one above
    it (a window counted at once / tallied now and counted per call)."""
    return pytest.mark.parametrize(
        "groups", [dense, deferred], ids=["dense", "deferred"]
    )


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
    @code_spaces(4, 128)
    def test_meets_budgets(self, policy_cls, groups):
        shuffled, index = make_world(groups=groups)
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
    @code_spaces(4, 128)
    def test_budget_capped_by_remaining(self, policy_cls, groups):
        shuffled, index = make_world(n=2000, groups=groups)
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

    @code_spaces(4, 128)
    def test_row_filter_limits_delivery(self, groups):
        shuffled, index = make_world(n=4000, groups=groups)
        x_col = shuffled.table.column("x")
        row_filter = x_col < 2  # keep about half the rows
        engine, _ = make_engine(
            shuffled, index, ScanAllPolicy(), row_filter=row_filter
        )
        fresh = engine.sample_until(np.full(8, np.inf))
        assert fresh.sum() == int(row_filter.sum())
        # Only surviving groups appear.
        assert fresh[:, 2:].sum() == 0

    @code_spaces(4, 128)
    def test_counts_join_z_and_x_correctly(self, groups):
        shuffled, index = make_world(n=2000, groups=groups)
        engine, _ = make_engine(shuffled, index, ScanAllPolicy())
        fresh = engine.sample_until(np.full(8, np.inf))
        z, x = shuffled.table.column("z"), shuffled.table.column("x")
        expected = np.zeros((8, groups), dtype=np.int64)
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
    def walk(shuffled, index, backend, row_filter, candidate_totals, codes=None):
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
            codes=codes,
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
    @code_spaces(4, 8)
    def test_state_matches_step_by_step_across_backends(self, filtered, groups):
        # 240 blocks of 25 rows, each holding under half of the 40 candidates.
        shuffled, index = make_world(candidates=40, groups=groups, block_size=25)
        row_filter = shuffled.table.column("x") < 3 if filtered else None
        z = shuffled.table.column("z")
        totals = np.bincount(z if row_filter is None else z[row_filter], minlength=40)
        folded = build_pair_codes(
            z, shuffled.table.column("x"), 40, groups, row_filter=row_filter
        )
        traces = {}
        for name, build in self.BACKENDS.items():
            backend = build()
            try:
                for handed_in, codes in ((None, None), (totals, None), (totals, folded)):
                    engine, trace = self.walk(
                        shuffled, index, backend, row_filter, handed_in, codes
                    )
                    np.testing.assert_array_equal(engine.candidate_rows(), totals)
                    assert engine.total_rows == totals.sum()
                    traces[name, handed_in is None, codes is not None] = trace
                if name == "sharded":
                    # The pool counted folded calls from the code segment
                    # alone; only the plain engines published the filter.
                    kinds = [key[0] for key in backend.store.keys()]
                    assert kinds.count("codes") == 1
                    assert kinds.count("filter") == int(filtered)
            finally:
                if backend is not None:
                    backend.close()
        reference = traces["serial", True, False]
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

    @pytest.mark.parametrize("filtered", [False, True], ids=["plain", "filtered"])
    def test_totals_equal_with_and_without_candidate_totals(self, filtered):
        """Handed in, read off the table's memo, or counted under the
        filter: the same ``_totals`` — and ``candidate_rows()`` is a private
        copy, so no caller can write through to the memo."""
        shuffled, index = make_world()
        z = shuffled.table.column("z")
        row_filter = shuffled.table.column("x") < 3 if filtered else None
        expected = np.bincount(z if row_filter is None else z[row_filter], minlength=8)

        def build(candidate_totals):
            return BlockSamplingEngine(
                shuffled=shuffled, candidate_attribute="z", grouping_attribute="x",
                index=index, cost_model=CostModel(), clock=SimulatedClock(),
                start_block=0, row_filter=row_filter,
                candidate_totals=candidate_totals,
            )

        counted, handed = build(None), build(expected)
        for engine in (counted, handed):
            assert engine._totals.dtype == np.int64
            np.testing.assert_array_equal(engine._totals, expected)
            assert engine.total_rows == expected.sum()
        # Unfiltered, the engine holds the table's memoised counts themselves.
        memo = shuffled.table.value_counts("z")
        assert (counted._totals is memo) == (not filtered)
        rows = counted.candidate_rows()
        rows[0] += 1  # writable, and nobody else's
        np.testing.assert_array_equal(counted.candidate_rows(), expected)
        np.testing.assert_array_equal(memo, np.bincount(z, minlength=8))

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


# ---------------------------------------------------------------------------
# Delivery regimes: a window counted at once, or tallied now and counted once
# per call — the same matrices, state and clock either way
# ---------------------------------------------------------------------------


class RecordingClock(SimulatedClock):
    """A simulated clock that also keeps every charge, in order."""

    def __init__(self):
        super().__init__()
        self.charges = []

    def charge_serial(self, **costs_ns):
        self.charges.append(("serial", tuple(sorted(costs_ns.items()))))
        super().charge_serial(**costs_ns)

    def charge_pipelined(self, io_ns, mark_ns):
        self.charges.append(("pipelined", io_ns, mark_ns))
        super().charge_pipelined(io_ns, mark_ns)


class RecordingBackend(SerialBackend):
    """Serial counting that keeps the block set of every ``count_blocks``;
    ``fail_next`` makes the next one raise instead.  Under a worker
    backend's ``name`` the engine treats it as one: the regime rule reads
    the name, which is all a wrapper forwards."""

    def __init__(self, name="serial"):
        self.name = name
        self.calls = []
        self.fail_next = False

    def count_blocks(self, source, blocks):
        if self.fail_next:
            self.fail_next = False
            raise RuntimeError("injected count_blocks failure")
        self.calls.append(blocks.copy())
        return super().count_blocks(source, blocks)


class ParentLoopEngine(BlockSamplingEngine):
    """The sampling loops as they stood before the regimes: every window
    sorted, charged block by block (``block_read_cost`` over a per-block
    row array, not the I/O manager's closed form), counted to a full matrix
    at once and summed into a fresh ``zeros``.  It shares no accounting
    arithmetic with the engine it is the reference for."""

    def _deliver_parent(self, blocks):
        if blocks.size == 0:
            return (
                np.zeros((self._num_candidates, self._num_groups), dtype=np.int64),
                np.zeros(self._num_candidates, dtype=np.int64),
                0,
                0.0,
            )
        blocks = np.sort(blocks)
        cost_ns = self.cost_model.block_read_cost(self.layout.rows_per_block(blocks))
        counts = self.backend.count_blocks(self._source, blocks)
        row_sums = counts.sum(axis=1)
        rows = int(row_sums.sum())
        self._delivered += row_sums
        self._consumed[blocks] = True
        self._unconsumed -= int(blocks.size)
        self.counters.blocks_read += int(blocks.size)
        self.counters.rows_delivered += rows
        return counts, row_sums, rows, cost_ns

    def sample_uniform(self, m):
        total = np.zeros((self._num_candidates, self._num_groups), dtype=np.int64)
        delivered = 0
        windows_without_blocks = 0
        max_windows = -(-max(self.layout.num_blocks, 1) // self.window_blocks) + 1
        while delivered < m and not self.fully_scanned:
            blocks = self._window()
            self.counters.windows += 1
            if blocks.size == 0:
                windows_without_blocks += 1
                if windows_without_blocks > max_windows:
                    break
                continue
            windows_without_blocks = 0
            cumulative = np.cumsum(self.layout.rows_per_block(blocks))
            cutoff = int(np.searchsorted(cumulative, m - delivered)) + 1
            blocks = blocks[:cutoff]
            counts, _, rows, io_cost = self._deliver_parent(blocks)
            self.clock.charge_serial(io=io_cost)
            total += counts
            delivered += rows
        return total

    def sample_until(self, needed, max_rows=None):
        needed = np.asarray(needed, dtype=np.float64)
        remaining = (self._totals - self._delivered).astype(np.float64)
        goal = np.minimum(np.maximum(needed, 0.0), remaining)
        fresh = np.zeros((self._num_candidates, self._num_groups), dtype=np.int64)
        fresh_rows = np.zeros(self._num_candidates, dtype=np.float64)
        delivered_call = 0
        num_blocks = max(self.layout.num_blocks, 1)
        windows_budget = 2 * (-(-num_blocks // self.window_blocks)) + 2
        windows_used = 0
        while windows_used <= windows_budget:
            active = np.flatnonzero(fresh_rows < goal)
            if active.size == 0:
                break
            if self.fully_scanned:
                break
            if max_rows is not None and delivered_call >= max_rows:
                break
            blocks = self._window()
            windows_used += 1
            self.counters.windows += 1
            if blocks.size == 0:
                continue
            resident = self.cost_model.bitmaps_resident(
                self._num_candidates, self.layout.num_blocks
            )
            decision = self.policy.select(
                self.index, blocks, active, self.cost_model, resident
            )
            self.counters.probes += decision.probes
            to_read = blocks[decision.read_mask]
            self.counters.blocks_skipped += int(blocks.size - to_read.size)
            counts, row_sums, rows, io_cost = self._deliver_parent(to_read)
            if decision.overlaps_io:
                self.clock.charge_pipelined(
                    io_ns=io_cost, mark_ns=decision.mark_cost_ns
                )
            else:
                update_cost = self.cost_model.sync_update_cost(
                    rows, self._num_candidates * self._num_groups
                )
                handoff = self.cost_model.sync_handoff_cost(int(blocks.size))
                self.clock.charge_serial(
                    io=io_cost,
                    mark=decision.mark_cost_ns + handoff,
                    update=update_cost,
                )
            fresh += counts
            fresh_rows += row_sums
            delivered_call += rows
        else:
            raise RuntimeError("sampling engine exceeded its window budget")
        return fresh


#: 8-block windows of 25 rows hold 200 rows: code spaces above the rule,
#: exactly at it (``==`` stays dense) and below it.
REGIME_WORLDS = {
    "deferred": dict(candidates=40, groups=8),
    "boundary": dict(candidates=40, groups=5),
    "dense": dict(candidates=8, groups=4),
}


def regime_engine(
    cls, world, policy, backend, filtered, clock=None, profiler=None, folded=False,
    start_block=37,
):
    """``folded`` hands the engine its pair-code column (so it counts on the
    fused kernel, with no filter at the backend) instead of none."""
    shuffled, index = world
    table = shuffled.table
    row_filter = table.column("x") < 3 if filtered else None
    codes = None
    if folded:
        codes = build_pair_codes(
            table.column("z"), table.column("x"),
            table.cardinality("z"), table.cardinality("x"), row_filter=row_filter,
        )
    return cls(
        shuffled=shuffled,
        candidate_attribute="z",
        grouping_attribute="x",
        index=index,
        cost_model=CostModel(),
        clock=clock or RecordingClock(),
        policy=policy,
        window_blocks=8,
        row_filter=row_filter,
        start_block=start_block,
        backend=backend,
        profiler=profiler,
        codes=codes,
    )


def regime_calls(engine):
    """Stage-1 pass, bounded budgeted slices, then the rest: each call's
    matrix with the engine's observable state after it, the blocks the
    call consumed (ascending) last."""
    seen = np.zeros((engine.num_candidates, engine.num_groups), dtype=np.int64)
    needed = np.zeros(engine.num_candidates)
    needed[[0, 2, 5, -1]] = np.inf, 60, 15, np.inf
    out = []
    draining = False
    for step in range(200):
        before = engine._consumed.copy()
        if step == 0:
            fresh = engine.sample_uniform(700)
        elif draining:
            fresh = engine.sample_until(np.full(engine.num_candidates, np.inf))
        else:
            remaining = np.maximum(needed - seen.sum(axis=1), 0)
            fresh = engine.sample_until(remaining, max_rows=300)
        seen += fresh
        counters = engine.counters
        out.append((
            fresh.copy(), engine.delivered_rows(), engine.fully_scanned,
            (counters.blocks_read, counters.blocks_skipped,
             counters.rows_delivered, counters.probes, counters.windows),
            list(engine.clock.charges), engine.clock.elapsed_ns,
            tuple(np.flatnonzero(engine._consumed & ~before)),
        ))
        if draining:
            break
        draining = not fresh.any()
    return out


class TestRegimeIdentity:
    @pytest.mark.parametrize("folded", [False, True], ids=["nocodes", "fold"])
    @pytest.mark.parametrize("filtered", [False, True], ids=["plain", "filtered"])
    @pytest.mark.parametrize(
        "policy_cls", [AnyActiveLookaheadPolicy, AnyActiveSyncPolicy, ScanAllPolicy]
    )
    @pytest.mark.parametrize("regime", list(REGIME_WORLDS))
    @pytest.mark.parametrize("backend_name", ["serial", "threads", "sharded"])
    def test_regime_matches_the_parent_loop_call_by_call(
        self, backend_name, regime, policy_cls, filtered, folded
    ):
        """The regime rule has two terms.  A backend that counts inline
        defers on the cell rule alone; one whose name is a worker backend's
        defers whatever the code space — and either way every call equals
        the parent loop's, and a deferred call makes one count of the
        sorted union of its windows."""
        # 240 blocks, the last 15 rows short; the scan starts at block 37, so
        # one window per pass runs from block 239 on to block 0.
        world = make_world(n=5990, block_size=25, **REGIME_WORLDS[regime])
        assert world[0].layout.block_rows(239) == 15
        ref_backend, backend = RecordingBackend(), RecordingBackend(backend_name)
        assert backend.fans_out == (backend_name != "serial")
        reference = regime_calls(
            regime_engine(ParentLoopEngine, world, policy_cls(), ref_backend, filtered)
        )
        calls = regime_calls(
            regime_engine(
                BlockSamplingEngine, world, policy_cls(), backend, filtered,
                folded=folded,
            )
        )
        assert len(calls) == len(reference) > 3
        for got, want in zip(calls, reference):
            assert got[0].dtype == np.int64
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            assert got[2:] == want[2:]
        assert reference[-1][2]  # ends fully scanned
        delivered = [call[-1] for call in reference if call[-1]]
        assert len(delivered) == sum(1 for fresh, *_ in reference if fresh.any())
        if regime == "deferred" or backend_name != "serial":
            # One count per call that delivered, over all of its blocks.
            assert len(backend.calls) == len(delivered) < len(ref_backend.calls)
            for got, want in zip(backend.calls, delivered):
                np.testing.assert_array_equal(got, want)
            assert max(b.size for b in backend.calls) > 8
        else:
            # One count per delivering window, as before.
            assert len(backend.calls) == len(ref_backend.calls) > len(delivered)
            for got, want in zip(backend.calls, ref_backend.calls):
                np.testing.assert_array_equal(got, want)
        for blocks in backend.calls:
            assert (np.diff(blocks) > 0).all()  # sorted, no block twice

    def test_regime_reads_through_a_wrapper_that_forwards_the_name(self):
        """A wrapper that forwards only ``name``, the counting methods and
        the lifecycle (the end-to-end benchmark's timing proxy does exactly
        that) takes the regime of the backend it wraps."""
        from repro.parallel import ExecutionBackend

        class Forwarding(ExecutionBackend):
            def __init__(self, inner):
                self.inner = inner
                self.name = inner.name
                self.calls = 0

            def count_blocks(self, source, blocks):
                self.calls += 1
                return self.inner.count_blocks(source, blocks)

            def count_table(self, *args, **kwargs):
                return self.inner.count_table(*args, **kwargs)

            def close(self):
                self.inner.close()

        world = make_world(n=5990, block_size=25, **REGIME_WORLDS["dense"])
        observed = {}
        for inner in (SerialBackend(), ThreadPoolBackend(2, min_shard_rows=0)):
            with Forwarding(inner) as wrapper:
                engine = regime_engine(
                    BlockSamplingEngine, world, ScanAllPolicy(), wrapper, False
                )
                fresh = engine.sample_until(np.full(engine.num_candidates, np.inf))
                observed[inner.name] = (
                    engine._deferred, wrapper.calls, engine.counters.windows, fresh
                )
        assert observed["serial"][:3] == (False, 30, 30)
        assert observed["threads"][:3] == (True, 1, 30)
        np.testing.assert_array_equal(observed["serial"][3], observed["threads"][3])

    @staticmethod
    def straddle_engine(regime, start_block, policy):
        """An engine on the short-tailed world whose first 8-block window
        runs across the table's end, with its backend."""
        world = make_world(n=5990, block_size=25, **REGIME_WORLDS[regime])
        backend = RecordingBackend()
        engine = regime_engine(
            BlockSamplingEngine, world, policy, backend, False,
            start_block=start_block,
        )
        return engine, backend

    @staticmethod
    def assert_delivered_exactly(engine, backend, blocks, charge):
        """``blocks`` (ascending) were consumed, counted as one ascending
        batch and charged once, at the per-block sum over them."""
        np.testing.assert_array_equal(np.flatnonzero(engine._consumed), blocks)
        assert len(backend.calls) == 1
        np.testing.assert_array_equal(backend.calls[0], blocks)
        tuples = engine.layout.rows_per_block(np.array(blocks))
        io_ns = engine.cost_model.block_read_cost(tuples)
        assert engine.clock.charges == [charge(io_ns)]
        assert engine.io.total_cost_ns == io_ns
        assert engine.io.total_blocks_read == len(blocks)
        assert engine.io.total_rows_read == tuples.sum()
        assert engine.counters.rows_delivered == tuples.sum()

    @pytest.mark.parametrize(
        ("start_block", "kept"),
        [
            # Window 239, 0..6: rows 15, 25, ... reach 125 at the sixth block.
            (239, [0, 1, 2, 3, 4, 239]),
            # Window 237..239, 0..4: rows 25, 25, 15, 25, ...
            (237, [0, 1, 2, 237, 238, 239]),
        ],
    )
    @pytest.mark.parametrize("regime", ["deferred", "dense"])
    def test_regime_stage1_trims_a_straddling_window_in_scan_order(
        self, regime, start_block, kept
    ):
        """The budget keeps a prefix of the *scan*: sorting the window before
        trimming it would keep blocks 0..4 and never read the table's end."""
        engine, backend = self.straddle_engine(regime, start_block, ScanAllPolicy())
        fresh = engine.sample_uniform(125)
        assert fresh.sum() == 140 and engine.counters.windows == 1
        self.assert_delivered_exactly(
            engine, backend, kept, lambda io_ns: ("serial", (("io", io_ns),))
        )

    @pytest.mark.parametrize("regime", ["deferred", "dense"])
    def test_regime_stage2_sorts_a_straddling_window_for_delivery(self, regime):
        engine, backend = self.straddle_engine(regime, 237, AnyActiveLookaheadPolicy())
        fresh = engine.sample_until(np.full(engine.num_candidates, np.inf), max_rows=1)
        assert fresh.sum() == 190 and engine.counters.windows == 1
        mark_ns = engine.cost_model.lookahead_mark_cost(
            engine.num_candidates, 240, resident=True
        )
        self.assert_delivered_exactly(
            engine, backend, [0, 1, 2, 3, 4, 237, 238, 239],
            lambda io_ns: ("pipelined", io_ns, mark_ns),
        )


class TestRegimeWorkerBackends:
    """Real worker backends, forced through their pools and at the default
    ``min_shard_rows`` floor (where calls this small count inline): every
    call equals the serial dense engine's."""

    @pytest.fixture(scope="class")
    def backends(self):
        built = {
            "threads-forced": ThreadPoolBackend(2, min_shard_rows=0),
            "sharded-forced": ShardedBackend(2, min_shard_rows=0),
            "threads-floor": ThreadPoolBackend(2),
            "sharded-floor": ShardedBackend(2),
        }
        yield built
        for backend in built.values():
            backend.close()

    @pytest.mark.parametrize("folded", [False, True], ids=["nocodes", "fold"])
    @pytest.mark.parametrize("filtered", [False, True], ids=["plain", "filtered"])
    @pytest.mark.parametrize(
        "policy_cls", [AnyActiveLookaheadPolicy, AnyActiveSyncPolicy, ScanAllPolicy]
    )
    @pytest.mark.parametrize("regime", list(REGIME_WORLDS))
    def test_regime_worker_backends_match_the_serial_dense_engine(
        self, backends, regime, policy_cls, filtered, folded
    ):
        world = make_world(n=5990, block_size=25, **REGIME_WORLDS[regime])
        reference = regime_calls(
            regime_engine(
                ParentLoopEngine, world, policy_cls(), SerialBackend(), filtered
            )
        )
        delivering = sum(1 for call in reference if call[-1])
        for name, backend in backends.items():
            tasks, inline = backend.shard_tasks, backend.inline_windows
            engine = regime_engine(
                BlockSamplingEngine, world, policy_cls(), backend, filtered,
                folded=folded,
            )
            assert engine._deferred
            calls = regime_calls(engine)
            assert len(calls) == len(reference), name
            for got, want in zip(calls, reference):
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
                assert got[2:] == want[2:], name
            # One backend call per delivering sampling call, fanned out or
            # inline as the floor decides — never one per window.
            if name.endswith("forced"):
                assert backend.inline_windows == inline
                assert backend.shard_tasks - tasks >= delivering
            else:
                assert backend.shard_tasks == tasks
                assert backend.inline_windows - inline == delivering


class TestRegimeAccounting:
    BACKENDS = TestEngineBookkeeping.BACKENDS

    @pytest.mark.parametrize("backend_name", list(BACKENDS))
    @pytest.mark.parametrize("regime", ["deferred", "dense"])
    def test_regime_io_is_accounted_once(self, regime, backend_name):
        """Every block read is charged to the I/O manager and the clock
        exactly once — the call-end count of the deferred regime included."""
        world = make_world(block_size=25, **REGIME_WORLDS[regime])
        backend = self.BACKENDS[backend_name]()
        try:
            clock = SimulatedClock()
            engine = regime_engine(
                BlockSamplingEngine, world, AnyActiveLookaheadPolicy(), backend,
                filtered=True, clock=clock,
            )
            engine.sample_uniform(700)
            needed = np.zeros(engine.num_candidates)
            needed[[0, 2, 5]] = 90, 60, 15
            engine.sample_until(needed, max_rows=300)
            engine.sample_until(needed)
            assert 0 < engine.counters.blocks_read < world[0].num_blocks
            engine.sample_until(np.full(engine.num_candidates, np.inf))
            assert engine.fully_scanned
        finally:
            if backend is not None:
                backend.close()
        assert engine.io.total_blocks_read == engine.counters.blocks_read
        assert engine.io.total_blocks_read == world[0].num_blocks
        assert engine.io.total_cost_ns == clock.snapshot()["io"]

    @staticmethod
    def expected_counts(engine, consumed_before):
        """Exact counts of the blocks consumed since ``consumed_before``."""
        blocks = np.flatnonzero(engine._consumed & ~consumed_before)
        table = engine.shuffled.table
        counts, _ = count_window(
            table.column("z"), table.column("x"), blocks, engine.layout,
            engine.num_candidates, engine.num_groups,
        )
        return counts

    @pytest.mark.parametrize("regime", ["deferred", "dense"])
    def test_regime_failed_count_leaks_nothing(self, regime):
        """A call whose ``count_blocks`` raised loses its own rows only: the
        next call returns exactly the blocks it read itself."""
        world = make_world(block_size=25, **REGIME_WORLDS[regime])
        backend = RecordingBackend()
        engine = regime_engine(
            BlockSamplingEngine, world, AnyActiveLookaheadPolicy(), backend, False
        )
        engine.sample_uniform(500)
        backend.fail_next = True
        with pytest.raises(RuntimeError, match="injected"):
            engine.sample_until(np.full(engine.num_candidates, 30.0))
        before = engine._consumed.copy()
        delivered_before = engine.delivered_rows()
        fresh = engine.sample_until(np.full(engine.num_candidates, 30.0))
        assert fresh.any()
        np.testing.assert_array_equal(fresh, self.expected_counts(engine, before))
        np.testing.assert_array_equal(
            fresh.sum(axis=1), engine.delivered_rows() - delivered_before
        )

    @pytest.mark.parametrize("regime", ["deferred", "dense"])
    def test_regime_window_budget_error_leaks_nothing(self, regime):
        class ReadsOneWindowPolicy:
            """Reads the first window it is shown, then refuses."""

            name = "reads_one_window"
            overlaps_io = True
            shown = 0

            def select(self, index, blocks, active_values, cost_model, resident):
                self.shown += 1
                return PolicyDecision(
                    read_mask=np.full(blocks.size, self.shown == 1),
                    mark_cost_ns=0.0,
                    overlaps_io=True,
                    probes=0,
                )

        world = make_world(block_size=25, **REGIME_WORLDS[regime])
        engine = regime_engine(
            BlockSamplingEngine, world, ReadsOneWindowPolicy(), None, False
        )
        with pytest.raises(RuntimeError, match="window budget"):
            engine.sample_until(np.full(engine.num_candidates, np.inf))
        assert engine.counters.rows_delivered == 200  # the one window was read
        engine.policy = ScanAllPolicy()
        before = engine._consumed.copy()
        fresh = engine.sample_until(np.full(engine.num_candidates, 20.0))
        assert fresh.any()
        np.testing.assert_array_equal(fresh, self.expected_counts(engine, before))


class TestRegimeMatrix:
    """Whole runs agree across backends, kernels, filters and step bounds,
    at every step — for a query whose code space (700 x 48 = 33,600 cells)
    is above every approach's window, and for one (40 x 12 = 480) below
    every approach's window.  "Dense" here names the size of the world, not
    the delivery: on a worker backend a dense-sized world defers too, and
    only the serial runs of it count window by window."""

    WORLDS = {"deferred": (700, 48), "dense": (40, 12)}
    BACKENDS = {
        **TestEngineBookkeeping.BACKENDS,
        "threads-floor": lambda: ThreadPoolBackend(2),
        "sharded-floor": lambda: ShardedBackend(2),
    }

    @pytest.fixture(scope="class")
    def prepared(self):
        """Each world's query plain and under a predicate, each artifact's
        pair codes built by the artifact itself (folded with its row
        filter)."""
        from repro.data.generator import conditional_column, jittered
        from repro.query import HistogramQuery, IsIn
        from repro.system import PreparedQuery

        out = {}
        for size, (c, g) in self.WORLDS.items():
            rng = np.random.default_rng(3)
            # Eight candidates worth matching, the rest rare enough to prune.
            sizes = np.concatenate([
                [9000, 8000, 7000, 6000, 5000, 4000, 3000, 3000],
                rng.integers(20, 100, size=c - 8),
            ])
            base = np.full(g, 1.0 / g)
            distributions = np.stack(
                [jittered(base, concentration=3.0, rng=rng) for _ in sizes]
            )
            z = np.repeat(np.arange(c), sizes)
            x = conditional_column(sizes, distributions, rng)
            order = rng.permutation(z.size)
            schema = Schema((
                CategoricalAttribute("z", tuple(f"z{i}" for i in range(c))),
                CategoricalAttribute("x", tuple(f"x{i}" for i in range(g))),
            ))
            table = ColumnTable(schema, {"z": z[order], "x": x[order]})
            for name, predicate in [
                ("plain", None), ("filtered", IsIn("x", tuple(range(0, g, 2)))),
            ]:
                query = (
                    HistogramQuery("z", "x", k=1)
                    if predicate is None
                    else HistogramQuery("z", "x", k=1, predicate=predicate)
                )
                prepared = PreparedQuery.prepare(
                    table, query, np.random.default_rng(0)
                )
                out[size, name] = prepared.with_pair_codes()
        return out

    @pytest.fixture(scope="class")
    def backends(self):
        built = {name: build() for name, build in self.BACKENDS.items()}
        yield built
        for backend in built.values():
            if backend is not None:
                backend.close()

    @staticmethod
    def run(prepared, approach, backend, kernel, max_step_rows):
        """Step the query to its end: the report, and the partial answer
        after every step."""
        from repro.core import HistSim, HistSimConfig
        from repro.core.histsim import HistSimStepper
        from repro.system.fastmatch import (
            assemble_report,
            engine_counters,
            make_engine,
        )
        from repro.system.stats_engine import StatsEngine

        config = HistSimConfig(k=1, epsilon=0.3, delta=0.05, sigma=0.004, lookahead=64)
        clock = SimulatedClock()
        engine = make_engine(
            prepared, approach, config, CostModel(), clock,
            np.random.default_rng(5), backend, kernel=kernel,
        )
        algorithm = HistSim(
            engine, prepared.target, config,
            stats_cost=StatsEngine(CostModel(), clock), backend=backend,
        )
        stepper = HistSimStepper(algorithm=algorithm, max_step_rows=max_step_rows)
        partials = []
        while not stepper.done:
            stepper.step()
            partials.append(stepper.partial_result())
        report = assemble_report(
            prepared, approach, stepper.result, config, clock.elapsed_ns,
            engine_counters(engine), breakdown=clock.snapshot(),
        )
        return report, partials, engine

    @staticmethod
    def assert_results_equal(got, want):
        assert got.matching == want.matching
        np.testing.assert_array_equal(got.histograms, want.histograms)
        np.testing.assert_array_equal(got.distances, want.distances)
        assert got.pruned == want.pruned
        assert got.exact == want.exact
        assert got.stats == want.stats
        assert got.rounds == want.rounds

    @pytest.mark.parametrize("filtered", ["plain", "filtered"])
    @pytest.mark.parametrize("approach", ["scanmatch", "syncmatch", "fastmatch"])
    @pytest.mark.parametrize("size", list(WORLDS))
    def test_regime_matrix_reports_equal_the_serial_unbounded_run(
        self, prepared, backends, size, approach, filtered
    ):
        artifact = prepared[size, filtered]
        want, whole_steps, engine = self.run(artifact, approach, None, "auto", None)
        cells = engine.num_candidates * engine.num_groups
        window_rows = engine.window_blocks * engine.layout.block_size
        assert engine._deferred == (size == "deferred") == (cells > window_rows)
        assert want.counters["blocks_read"] > 3 * 64  # many windows
        if (approach, filtered) == ("fastmatch", "plain"):
            assert not want.result.exact and want.counters["blocks_skipped"] > 0
        # Below one window of any approach, and a few fastmatch windows.
        for max_step_rows in (None, 500, 7000):
            reference_partials = None
            for name, backend in backends.items():
                for kernel in ("auto", "classic", "fused"):
                    got, partials, engine = self.run(
                        artifact, approach, backend, kernel, max_step_rows
                    )
                    assert engine._deferred == (size == "deferred" or name != "serial")
                    self.assert_results_equal(got.result, want.result)
                    assert got.elapsed_ns == want.elapsed_ns
                    assert got.breakdown == want.breakdown
                    assert got.counters == want.counters
                    assert got.audit == want.audit
                    if reference_partials is None:
                        reference_partials = partials
                        if max_step_rows is not None:
                            assert len(partials) > len(whole_steps)  # cut mid-round
                        continue
                    assert len(partials) == len(reference_partials)
                    for mine, theirs in zip(partials, reference_partials):
                        self.assert_results_equal(mine, theirs)


class TestRegimeTelemetry:
    @pytest.mark.parametrize("folded", [False, True], ids=["nocodes", "fold"])
    @pytest.mark.parametrize("regime", ["deferred", "dense"])
    def test_regime_profile_counts_each_row_and_window_once(self, regime, folded):
        from repro.obs import Profiler

        world = make_world(block_size=25, **REGIME_WORLDS[regime])
        backend, profiler = RecordingBackend(), Profiler()
        engine = regime_engine(
            BlockSamplingEngine, world, AnyActiveLookaheadPolicy(), backend,
            filtered=True, profiler=profiler, folded=folded,
        )
        engine.sample_uniform(700)
        engine.sample_until(np.full(engine.num_candidates, 25.0))
        snapshot = profiler.snapshot()
        kernels = snapshot.kernels["unattributed"]
        windows = kernels["engine.deliver"]["calls"]
        assert snapshot.totals["windows"] == windows > 2
        assert snapshot.totals["rows_gathered"] == engine.counters.rows_delivered
        assert snapshot.totals["blocks_touched"] == engine.counters.blocks_read
        assert kernels["serial.count"]["calls"] == len(backend.calls)
        # Measured time only: the simulated I/O charge stays out of the total.
        measured = sum(k["ns"] for name, k in kernels.items() if name != "engine.deliver")
        assert snapshot.totals["kernel_ns"] == pytest.approx(measured)
        if regime == "deferred":
            tally = kernels["engine.tally"]
            assert tally["calls"] == tally["bincounts"] == windows
            assert tally["rows"] == tally["blocks"] == 0
            assert tally["bytes"] > 0  # the gathered z column and filter
            assert len(backend.calls) == 2
        else:
            assert "engine.tally" not in kernels
            assert len(backend.calls) == windows
        if folded:
            # Rows the predicate drops are neither gathered rows (above) nor
            # bytes: a folded count materializes the gathered codes only.
            read_rows = engine.counters.blocks_read * 25
            assert engine.counters.rows_delivered < read_rows
            assert (
                kernels["serial.count"]["bytes"]
                <= read_rows * engine._source.codes.itemsize
            )


class TestFoldContract:
    """The code column an engine is given is its own row filter's: the
    backend gets the column or the filter, never both, and a column that
    cannot be the filter's is rejected at construction."""

    @staticmethod
    def engine(world, row_filter, codes, kernel="auto"):
        shuffled, index = world
        return BlockSamplingEngine(
            shuffled=shuffled, candidate_attribute="z", grouping_attribute="x",
            index=index, cost_model=CostModel(), clock=SimulatedClock(),
            start_block=0, row_filter=row_filter, codes=codes, kernel=kernel,
        )

    @pytest.fixture
    def world(self):
        return make_world()  # 8 candidates x 4 groups: sentinel 32

    def columns(self, world):
        table = world[0].table
        return table.column("z"), table.column("x"), table.column("x") < 3

    def test_fold_source_carries_the_codes_or_the_filter(self, world):
        z, x, row_filter = self.columns(world)
        folded = build_pair_codes(z, x, 8, 4, row_filter=row_filter)
        source = self.engine(world, row_filter, folded)._source
        assert source.codes is folded and source.row_filter is None
        assert source.kernel.name == "fused"
        # No codes, or a kernel that does not read them: the filter goes.
        for codes, kernel in ((None, "fused"), (folded, "classic")):
            source = self.engine(world, row_filter, codes, kernel)._source
            assert source.codes is None and source.row_filter is not None
            assert source.kernel.name != "fused"

    def test_fold_rejects_a_column_of_another_filter(self, world):
        z, x, row_filter = self.columns(world)
        plain = build_pair_codes(z, x, 8, 4)
        folded = build_pair_codes(z, x, 8, 4, row_filter=row_filter)
        with pytest.raises(ValueError, match="not folded with this row_filter"):
            self.engine(world, row_filter, plain.astype(np.uint16))
        with pytest.raises(ValueError, match="not folded with this row_filter"):
            self.engine(world, None, folded)
        with pytest.raises(ValueError, match="not folded with this row_filter"):
            self.engine(world, ~row_filter, folded)
        self.engine(world, None, plain)
        self.engine(world, row_filter, folded)

    def test_fold_rejects_wrong_shape_and_narrow_dtype(self, world):
        z, x, row_filter = self.columns(world)
        folded = build_pair_codes(z, x, 8, 4, row_filter=row_filter)
        with pytest.raises(ValueError, match="one entry per row"):
            self.engine(world, row_filter, folded[:-1])
        # 64 x 4 = 256 codes: a plain column is uint8, which cannot hold the
        # sentinel 256 — whatever the rows say, it is not a folded column.
        wide = make_world(candidates=64)
        z, x, row_filter = self.columns(wide)
        plain = build_pair_codes(z, x, 64, 4)
        assert plain.dtype == np.uint8
        with pytest.raises(ValueError, match="cannot hold the sentinel 256"):
            self.engine(wide, row_filter, plain)
        folded = build_pair_codes(z, x, 64, 4, row_filter=row_filter)
        assert folded.dtype == np.uint16
        self.engine(wide, row_filter, folded)

    def test_fold_prepared_query_builds_its_own_column(self):
        """``with_pair_codes`` is the one builder: the column is the
        artifact's filter folded over its own shuffled columns."""
        from repro.query import HistogramQuery, IsIn
        from repro.system import PreparedQuery

        shuffled, _ = make_world()
        for predicate in (None, IsIn("x", (0, 2))):
            kwargs = {} if predicate is None else {"predicate": predicate}
            prepared = PreparedQuery.prepare(
                shuffled.table, HistogramQuery("z", "x", k=2, **kwargs),
                np.random.default_rng(0), block_size=50,
            )
            assert prepared.pair_codes is None
            built = prepared.with_pair_codes()
            table = built.shuffled.table
            np.testing.assert_array_equal(
                built.pair_codes,
                build_pair_codes(
                    table.column("z"), table.column("x"), 8, 4,
                    row_filter=built.row_filter,
                ),
            )
            assert built.exact_counts is prepared.exact_counts
            if predicate is not None:
                assert (built.pair_codes == 32).sum() == (~built.row_filter).sum()
