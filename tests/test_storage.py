"""Tests for the storage substrate: schema, table, blocks, shuffle, I/O, costs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import (
    BinnedAttribute,
    BlockLayout,
    CategoricalAttribute,
    ColumnTable,
    CostModel,
    IOManager,
    Schema,
    shuffle_table,
)


class TestCategoricalAttribute:
    def test_encode_decode_roundtrip(self):
        attr = CategoricalAttribute("country", ("greece", "italy", "france"))
        codes = attr.encode(["italy", "greece", "france", "italy"])
        np.testing.assert_array_equal(codes, [1, 0, 2, 1])
        assert attr.decode(codes) == ["italy", "greece", "france", "italy"]

    def test_unknown_value(self):
        attr = CategoricalAttribute("c", ("a",))
        with pytest.raises(ValueError):
            attr.encode(["b"])

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError):
            CategoricalAttribute("c", ("a", "a"))

    def test_decode_range_check(self):
        attr = CategoricalAttribute("c", ("a", "b"))
        with pytest.raises(ValueError):
            attr.decode(np.array([2]))


class TestBinnedAttribute:
    def test_encoding_places_values_in_bins(self):
        attr = BinnedAttribute("hour", tuple(range(0, 25)))  # 24 bins
        assert attr.cardinality == 24
        codes = attr.encode(np.array([0.0, 0.5, 1.0, 23.99, 24.0]))
        np.testing.assert_array_equal(codes, [0, 0, 1, 23, 23])

    def test_out_of_range_raises(self):
        attr = BinnedAttribute("x", (0.0, 1.0))
        with pytest.raises(ValueError):
            attr.encode(np.array([-0.1]))
        with pytest.raises(ValueError):
            attr.encode(np.array([1.5]))

    def test_edges_must_increase(self):
        with pytest.raises(ValueError):
            BinnedAttribute("x", (0.0, 0.0, 1.0))

    def test_labels(self):
        attr = BinnedAttribute("x", (0.0, 0.5, 1.0))
        assert attr.values == ("[0, 0.5)", "[0.5, 1)")


class TestSchema:
    def test_lookup(self):
        a = CategoricalAttribute("z", ("p", "q"))
        schema = Schema((a,))
        assert schema["z"] is a
        assert "z" in schema and "w" not in schema
        assert schema.cardinality("z") == 2
        with pytest.raises(KeyError):
            schema["w"]

    def test_duplicate_names_rejected(self):
        a = CategoricalAttribute("z", ("p",))
        b = CategoricalAttribute("z", ("q",))
        with pytest.raises(ValueError):
            Schema((a, b))


def small_table(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    schema = Schema(
        (
            CategoricalAttribute("z", tuple(f"z{i}" for i in range(7))),
            CategoricalAttribute("x", tuple(f"x{i}" for i in range(4))),
        )
    )
    cols = {
        "z": rng.integers(0, 7, size=n),
        "x": rng.integers(0, 4, size=n),
    }
    return ColumnTable(schema, cols)


#: ``(num_rows, block_size, blocks)``: one run, scattered, with and without
#: the table's last block, a one-row tail, no short block at all, one block.
READ_COST_CASES = [
    (300, 50, [1, 3, 5]),
    (300, 50, [2, 3, 4]),
    (300, 50, [0, 1, 2, 3, 4, 5]),
    (120, 50, [0, 2]),
    (120, 50, [2]),
    (101, 50, [1, 2]),
    (101, 50, [0, 1]),
    (100, 32, [0, 3]),
]


@st.composite
def layout_and_batches(draw):
    """A small shuffled table and one to three sorted block sets over it."""
    block_size = draw(st.integers(1, 40))
    num_blocks = draw(st.integers(1, 30))
    # The last block: one row, full (num_rows % block_size == 0), or any.
    tail = draw(st.sampled_from([1, block_size]) | st.integers(1, block_size))
    num_rows = (num_blocks - 1) * block_size + tail
    shuffled = shuffle_table(small_table(num_rows), block_size, np.random.default_rng(0))
    assert shuffled.num_blocks == num_blocks
    run = st.builds(
        lambda lo, length: list(range(lo, min(lo + length, num_blocks))),
        st.integers(0, num_blocks - 1),
        st.integers(1, num_blocks),
    )
    scattered = st.sets(st.integers(0, num_blocks - 1), min_size=1).map(sorted)
    with_last = scattered.map(lambda b: sorted({*b, num_blocks - 1}))
    batches = draw(st.lists(run | scattered | with_last, min_size=1, max_size=3))
    return shuffled, [np.array(batch) for batch in batches]


def assert_charged_per_block(io, batches, exact):
    """``read_cost`` on a fresh manager charges each batch what summing
    ``block_read_cost`` over its blocks does (the closed form against the
    per-block sum it replaced), and its counters follow."""
    cm, layout = io.cost_model, io.shuffled.layout
    blocks_read = rows_read = 0
    total = 0.0
    for blocks in batches:
        tuples = layout.rows_per_block(blocks)
        per_block = cm.block_read_cost(tuples)
        cost = io.read_cost(blocks)
        assert isinstance(cost, float)
        assert cost == cm.scan_cost(int(tuples.sum()), blocks.size)
        if exact:
            assert cost == per_block
        else:
            assert math.isclose(cost, per_block, rel_tol=1e-12)
        blocks_read += blocks.size
        rows_read += int(tuples.sum())
        total += cost
        assert io.total_blocks_read == blocks_read
        assert io.total_rows_read == rows_read
        assert io.total_cost_ns == total


class TestColumnTable:
    def test_num_rows_and_columns(self):
        t = small_table(123)
        assert len(t) == 123
        assert t.column("z").shape == (123,)

    def test_column_is_readonly(self):
        t = small_table()
        with pytest.raises(ValueError):
            t.column("z")[0] = 3

    def test_takes_ownership_of_a_compact_column(self):
        """A column already at its storage width is stored, not copied, and
        frozen: a later write through the caller's reference raises.  A wider
        column is narrowed into a copy and the caller's stays writable."""
        schema = Schema((CategoricalAttribute("z", ("a", "b", "c")),))
        compact = np.array([0, 2, 1, 2], dtype=np.uint8)
        t = ColumnTable(schema, {"z": compact})
        with pytest.raises(ValueError):
            compact[0] = 1
        np.testing.assert_array_equal(t.column("z"), [0, 2, 1, 2])
        wide = np.array([0, 2, 1, 2], dtype=np.int64)
        t = ColumnTable(schema, {"z": wide})
        wide[0] = 1
        assert t.column("z").dtype == np.uint8
        np.testing.assert_array_equal(t.column("z"), [0, 2, 1, 2])

    def test_validates_codes(self):
        schema = Schema((CategoricalAttribute("z", ("a", "b")),))
        with pytest.raises(ValueError):
            ColumnTable(schema, {"z": np.array([0, 2])})

    def test_validates_schema_match(self):
        schema = Schema((CategoricalAttribute("z", ("a",)),))
        with pytest.raises(ValueError):
            ColumnTable(schema, {"w": np.array([0])})

    def test_ragged_columns_rejected(self):
        schema = Schema(
            (
                CategoricalAttribute("a", ("x",)),
                CategoricalAttribute("b", ("y",)),
            )
        )
        with pytest.raises(ValueError):
            ColumnTable(schema, {"a": np.zeros(2, dtype=int), "b": np.zeros(3, dtype=int)})

    def test_permuted_preserves_multiset(self):
        t = small_table()
        p = t.permuted(np.random.default_rng(1))
        np.testing.assert_array_equal(
            np.sort(t.column("z")), np.sort(p.column("z"))
        )
        # Row pairing preserved: joint (z, x) histogram identical.
        joint = lambda tab: np.bincount(tab.column("z") * 4 + tab.column("x"), minlength=28)
        np.testing.assert_array_equal(joint(t), joint(p))

    def test_value_counts(self):
        t = small_table()
        np.testing.assert_array_equal(
            t.value_counts("z"), np.bincount(t.column("z"), minlength=7)
        )

    def test_value_counts_is_counted_once_and_read_only(self):
        t = small_table()
        counts = t.value_counts("z")
        assert counts.dtype == np.int64 and counts.shape == (7,)
        assert t.value_counts("z") is counts  # the table is immutable: memoised
        assert t.value_counts("x") is not counts
        with pytest.raises(ValueError):
            counts[0] += 1
        np.testing.assert_array_equal(counts, np.bincount(t.column("z"), minlength=7))

    def test_value_counts_memo_belongs_to_one_table(self):
        """``permuted`` / ``take`` build fresh tables with their own memo:
        a sub-table never answers with its parent's counts."""
        t = small_table()
        counts = t.value_counts("z")
        shuffled = t.permuted(np.random.default_rng(1))
        assert shuffled.value_counts("z") is not counts
        np.testing.assert_array_equal(shuffled.value_counts("z"), counts)
        rows = np.flatnonzero(t.column("z") != 3)[:40]
        taken = t.take(rows)
        np.testing.assert_array_equal(
            taken.value_counts("z"), np.bincount(t.column("z")[rows], minlength=7)
        )
        assert taken.value_counts("z")[3] == 0 != counts[3]
        assert t.value_counts("z") is counts


class TestBlockLayout:
    def test_block_math(self):
        layout = BlockLayout(num_rows=1000, block_size=150)
        assert layout.num_blocks == 7
        assert layout.block_bounds(0) == (0, 150)
        assert layout.block_bounds(6) == (900, 1000)  # short final block
        assert layout.block_rows(6) == 100
        assert layout.block_of_row(899) == 5
        assert layout.block_of_row(900) == 6

    def test_rows_of_blocks(self):
        layout = BlockLayout(num_rows=100, block_size=30)
        rows = layout.rows_of_blocks(np.array([0, 3]))
        np.testing.assert_array_equal(rows, list(range(30)) + list(range(90, 100)))

    def test_rows_of_blocks_empty(self):
        layout = BlockLayout(10, 3)
        assert layout.rows_of_blocks(np.array([], dtype=int)).size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockLayout(-1, 10)
        with pytest.raises(ValueError):
            BlockLayout(10, 0)
        layout = BlockLayout(10, 3)
        with pytest.raises(ValueError):
            layout.block_bounds(4)
        with pytest.raises(ValueError):
            layout.block_of_row(10)


class TestShuffledTable:
    def test_shuffle_table(self):
        t = small_table(500)
        s = shuffle_table(t, block_size=64, rng=np.random.default_rng(3))
        assert s.num_rows == 500
        assert s.num_blocks == 8
        assert 0 <= s.random_start_block(np.random.default_rng(4)) < 8

    def test_layout_mismatch_rejected(self):
        from repro.storage import ShuffledTable

        t = small_table(500)
        with pytest.raises(ValueError):
            ShuffledTable(t, BlockLayout(400, 64))


class TestCostModel:
    def test_block_read_cost(self):
        cm = CostModel(tuple_read_ns=10, block_overhead_ns=100)
        assert cm.block_read_cost(50) == pytest.approx(100 + 500)
        assert cm.block_read_cost(np.array([50, 30])) == pytest.approx(200 + 800)

    def test_scan_cost(self):
        cm = CostModel(tuple_read_ns=20, block_overhead_ns=0)
        assert cm.scan_cost(1_000_000, 100) == pytest.approx(20_000_000)

    def test_residency_threshold(self):
        cm = CostModel(l3_bytes=8 * 1024 * 1024, l3_residency_fraction=0.25)
        # 2 MiB effective: 347 candidates x 40_000 blocks = 1.7 MB -> resident
        assert cm.bitmaps_resident(347, 40_000)
        # 7641 candidates x 40_000 blocks = 38 MB -> not resident
        assert not cm.bitmaps_resident(7641, 40_000)

    def test_probe_cost_depends_on_residency(self):
        cm = CostModel(cacheline_dram_ns=100, cacheline_l3_ns=10)
        assert cm.probe_cost(5, resident=True) == pytest.approx(50)
        assert cm.probe_cost(5, resident=False) == pytest.approx(500)

    def test_lookahead_mark_cost_amortizes(self):
        cm = CostModel(cacheline_dram_ns=100, cacheline_l3_ns=10, bit_scan_ns=0.0)
        # 1024 blocks = 2 cache lines per candidate.
        batch = cm.lookahead_mark_cost(10, 1024, resident=False)
        assert batch == pytest.approx(10 * 2 * 100)
        # Per-block cost is far below one probe per block.
        assert batch / 1024 < cm.probe_cost(10, resident=False)

    def test_zero_active_is_free(self):
        cm = CostModel()
        assert cm.lookahead_mark_cost(0, 1024, True) == 0.0
        assert cm.lookahead_mark_cost(10, 0, True) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(tuple_read_ns=-1)
        with pytest.raises(ValueError):
            CostModel(l3_bytes=0)
        with pytest.raises(ValueError):
            CostModel(l3_residency_fraction=0.0)


class TestIOManager:
    def test_short_final_block(self):
        t = small_table(120)
        s = shuffle_table(t, block_size=50, rng=np.random.default_rng(5))
        io = IOManager(s, CostModel())
        io.read_cost(np.array([2]))
        assert io.total_rows_read == 20

    def test_requires_sorted_unique(self):
        t = small_table(300)
        s = shuffle_table(t, block_size=50, rng=np.random.default_rng(5))
        io = IOManager(s, CostModel())
        with pytest.raises(ValueError):
            io.read_cost(np.array([3, 1]))
        with pytest.raises(ValueError):
            io.read_cost(np.array([1, 1]))

    def test_empty_request(self):
        t = small_table(300)
        s = shuffle_table(t, block_size=50, rng=np.random.default_rng(5))
        io = IOManager(s, CostModel())
        assert io.read_cost(np.array([], dtype=int)) == 0.0
        assert io.total_blocks_read == io.total_rows_read == 0

    @pytest.mark.parametrize(("num_rows", "block_size", "blocks"), READ_COST_CASES)
    def test_read_cost_matches_per_block_accounting(
        self, num_rows, block_size, blocks
    ):
        s = shuffle_table(small_table(num_rows), block_size, np.random.default_rng(5))
        io = IOManager(s, CostModel())
        assert_charged_per_block(io, [np.array(blocks)], exact=True)
        with pytest.raises(ValueError):
            io.read_cost(np.array([3, 1]))

    def test_read_cost_rejects_blocks_outside_the_layout(self):
        """Both ends, before a counter moves (the tail arithmetic would
        otherwise charge negative rows)."""
        s = shuffle_table(small_table(100), 32, np.random.default_rng(5))
        assert s.num_blocks == 4
        io = IOManager(s, CostModel())
        for blocks in ([2, 3, 7], [4], [-1, 0, 2], [-3]):
            with pytest.raises(ValueError, match="block index out of range"):
                io.read_cost(np.array(blocks))
            assert io.total_blocks_read == io.total_rows_read == 0
            assert io.total_cost_ns == 0.0
        assert io.read_cost(np.array([0, 3])) == CostModel().block_read_cost([32, 4])

    @settings(max_examples=80, deadline=None)
    @given(
        world=layout_and_batches(),
        overhead=st.integers(0, 1000),
        per_tuple=st.integers(0, 1000),
    )
    def test_read_cost_closed_form_is_the_per_block_sum(
        self, world, overhead, per_tuple
    ):
        """Integer-valued constants: the same double, not a close one."""
        shuffled, batches = world
        cm = CostModel(block_overhead_ns=float(overhead), tuple_read_ns=float(per_tuple))
        assert_charged_per_block(IOManager(shuffled, cm), batches, exact=True)

    @settings(max_examples=80, deadline=None)
    @given(
        world=layout_and_batches(),
        overhead=st.floats(0.0, 1000.0),
        per_tuple=st.floats(0.0, 1000.0),
    )
    def test_read_cost_closed_form_rounds_once_with_fractional_constants(
        self, world, overhead, per_tuple
    ):
        shuffled, batches = world
        cm = CostModel(block_overhead_ns=overhead, tuple_read_ns=per_tuple)
        assert_charged_per_block(IOManager(shuffled, cm), batches, exact=False)

    @settings(max_examples=80, deadline=None)
    @given(world=layout_and_batches(), per_tuple=st.floats(0.0, 1000.0))
    def test_charge_is_read_cost_from_size_and_last_block(self, world, per_tuple):
        """The sampling engine's O(1) charge of an ascending batch is what
        ``read_cost`` charges after checking it: same cost, same counters."""
        shuffled, batches = world
        cm = CostModel(tuple_read_ns=per_tuple)
        checked, direct = IOManager(shuffled, cm), IOManager(shuffled, cm)
        for blocks in batches:
            assert direct.charge(blocks.size, int(blocks[-1])) == checked.read_cost(blocks)
        for attribute in ("total_blocks_read", "total_rows_read", "total_cost_ns"):
            assert getattr(direct, attribute) == getattr(checked, attribute)
        assert direct.charge(0, 0) == 0.0

    def test_charge_rejects_a_last_block_outside_the_layout(self):
        s = shuffle_table(small_table(100), 32, np.random.default_rng(5))
        io = IOManager(s, CostModel())
        for last in (4, -1):
            with pytest.raises(ValueError, match="block index out of range"):
                io.charge(2, last)
        assert io.total_blocks_read == io.total_rows_read == 0
        assert io.total_cost_ns == 0.0
