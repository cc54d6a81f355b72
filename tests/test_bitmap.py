"""Tests for bitmap indexes and density maps against brute-force truth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap import BlockBitmapIndex, DensityMap, build_bitmap_index, build_density_map
from repro.storage import CategoricalAttribute, ColumnTable, Schema, shuffle_table


def brute_force_presence(column, cardinality, block_size):
    n = column.size
    num_blocks = -(-n // block_size)
    presence = np.zeros((cardinality, num_blocks), dtype=bool)
    for b in range(num_blocks):
        vals = column[b * block_size : (b + 1) * block_size]
        presence[np.unique(vals), b] = True
    return presence


@pytest.fixture
def column():
    rng = np.random.default_rng(17)
    return rng.integers(0, 11, size=1003)


class TestBlockBitmapIndex:
    def test_matches_brute_force(self, column):
        idx = BlockBitmapIndex.build(column, 11, block_size=64)
        truth = brute_force_presence(column, 11, 64)
        for v in range(11):
            np.testing.assert_array_equal(idx.blocks_with_value(v), truth[v])

    def test_contains_single_probe(self, column):
        idx = BlockBitmapIndex.build(column, 11, block_size=64)
        truth = brute_force_presence(column, 11, 64)
        for v in (0, 5, 10):
            for b in (0, 7, idx.num_blocks - 1):
                assert idx.contains(v, b) == truth[v, b]

    def test_chunk_presence_window(self, column):
        idx = BlockBitmapIndex.build(column, 11, block_size=64)
        truth = brute_force_presence(column, 11, 64)
        values = np.array([2, 9, 4])
        window = idx.chunk_presence(values, 3, 13)
        np.testing.assert_array_equal(window, truth[values][:, 3:13])

    def test_chunk_presence_unaligned_window(self, column):
        """Windows not starting on a byte boundary must still be exact."""
        idx = BlockBitmapIndex.build(column, 11, block_size=64)
        truth = brute_force_presence(column, 11, 64)
        window = idx.chunk_presence(np.array([1]), 5, 6)
        np.testing.assert_array_equal(window, truth[[1]][:, 5:6])

    def test_first_present_models_early_exit(self, column):
        idx = BlockBitmapIndex.build(column, 11, block_size=64)
        truth = brute_force_presence(column, 11, 64)
        values = np.array([7, 0, 3])
        first = idx.first_present(values, 0, idx.num_blocks)
        for b in range(idx.num_blocks):
            present = [r for r, v in enumerate(values) if truth[v, b]]
            expected = present[0] if present else len(values)
            assert first[b] == expected

    def test_empty_values(self, column):
        idx = BlockBitmapIndex.build(column, 11, block_size=64)
        first = idx.first_present(np.array([], dtype=int), 0, 4)
        np.testing.assert_array_equal(first, [0, 0, 0, 0])

    def test_validation(self, column):
        idx = BlockBitmapIndex.build(column, 11, block_size=64)
        with pytest.raises(ValueError):
            idx.contains(11, 0)
        with pytest.raises(ValueError):
            idx.contains(0, idx.num_blocks)
        with pytest.raises(ValueError):
            idx.chunk_presence(np.array([0]), 5, 3)
        with pytest.raises(ValueError):
            BlockBitmapIndex.build(np.array([11]), 11, 4)

    def test_nbytes_one_bit_per_block_per_value(self):
        """A dense value costs one bit a block; a value that never occurs is
        an empty list and costs nothing."""
        every = np.tile(np.arange(16), 6400)
        idx = BlockBitmapIndex.build(every, 16, block_size=16)  # 6400 blocks
        assert idx.nbytes == 16 * 800
        assert idx.chunk_presence(np.arange(16), 0, 6400).all()
        col = np.zeros(6400, dtype=int)
        idx = BlockBitmapIndex.build(col, 16, block_size=1)  # 6400 blocks
        assert idx.nbytes == 800
        np.testing.assert_array_equal(idx.blocks_with_value(0), np.ones(6400, dtype=bool))
        assert not idx.chunk_presence(np.arange(1, 16), 0, 6400).any()

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60)
    def test_property_matches_brute_force(self, n, cardinality, block_size, seed):
        rng = np.random.default_rng(seed)
        col = rng.integers(0, cardinality, size=n)
        idx = BlockBitmapIndex.build(col, cardinality, block_size)
        truth = brute_force_presence(col, cardinality, block_size)
        got = idx.chunk_presence(np.arange(cardinality), 0, idx.num_blocks)
        np.testing.assert_array_equal(got, truth)

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["empty", "all", "subset", "duplicates", "permuted"]),
    )
    @settings(max_examples=120)
    def test_property_any_present_is_chunk_presence_any(
        self, n, cardinality, block_size, seed, kind
    ):
        """The packed OR-reduction answers exactly what the unpacked
        presence matrix does, over windows that start and stop anywhere."""
        rng = np.random.default_rng(seed)
        col = rng.integers(0, cardinality, size=n)
        idx = BlockBitmapIndex.build(col, cardinality, block_size)
        values = {
            "empty": np.array([], dtype=np.int64),
            "all": np.arange(cardinality),
            "subset": np.flatnonzero(rng.random(cardinality) < 0.5),
            "duplicates": rng.integers(0, cardinality, size=cardinality),
            "permuted": rng.permutation(cardinality),
        }[kind]
        lo = int(rng.integers(0, idx.num_blocks + 1))
        hi = int(rng.integers(lo, idx.num_blocks + 1))
        got = idx.any_present(values, lo, hi)
        assert got.dtype == np.bool_ and got.shape == (hi - lo,)
        np.testing.assert_array_equal(
            got, idx.chunk_presence(values, lo, hi).any(axis=0)
        )

    def test_any_present_validation_matches_chunk_presence(self, column):
        idx = BlockBitmapIndex.build(column, 11, block_size=64)
        bad_calls = [
            (np.array([0]), 5, 3),                   # inverted window
            (np.array([0]), 0, idx.num_blocks + 1),  # past the last block
            (np.array([0]), -1, 2),
            (np.array([11]), 0, 4),                  # value out of range
            (np.array([-1, 3]), 0, 4),
        ]
        for values, lo, hi in bad_calls:
            with pytest.raises(ValueError) as packed:
                idx.any_present(values, lo, hi)
            with pytest.raises(ValueError) as unpacked:
                idx.chunk_presence(values, lo, hi)
            assert str(packed.value) == str(unpacked.value)

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["empty", "all", "subset", "one"]),
    )
    @settings(max_examples=120)
    def test_property_any_present_ascending_is_any_present(
        self, n, cardinality, block_size, seed, kind
    ):
        """On an ascending, distinct value set (the engine's active set) the
        end-checked query answers what the fully checked one does."""
        rng = np.random.default_rng(seed)
        col = rng.integers(0, cardinality, size=n)
        idx = BlockBitmapIndex.build(col, cardinality, block_size)
        values = {
            "empty": np.array([], dtype=np.int64),
            "all": np.arange(cardinality),
            "subset": np.flatnonzero(rng.random(cardinality) < 0.5),
            "one": np.array([int(rng.integers(0, cardinality))]),
        }[kind]
        lo = int(rng.integers(0, idx.num_blocks + 1))
        hi = int(rng.integers(lo, idx.num_blocks + 1))
        got = idx.any_present_ascending(values, lo, hi)
        assert got.dtype == np.bool_ and got.shape == (hi - lo,)
        np.testing.assert_array_equal(got, idx.any_present(values, lo, hi))

    def test_any_present_ascending_validation_matches_any_present(self, column):
        """Its two end checks reject every ascending set and window the
        full check does, with the same message."""
        idx = BlockBitmapIndex.build(column, 11, block_size=64)
        bad_calls = [
            (np.array([0]), 5, 3),                   # inverted window
            (np.array([0]), 0, idx.num_blocks + 1),  # past the last block
            (np.array([0]), -1, 2),
            (np.array([11]), 0, 4),                  # value out of range
            (np.array([3, 11]), 0, 4),
            (np.array([-1, 3]), 0, 4),
        ]
        for values, lo, hi in bad_calls:
            with pytest.raises(ValueError) as ascending:
                idx.any_present_ascending(values, lo, hi)
            with pytest.raises(ValueError) as checked:
                idx.any_present(values, lo, hi)
            assert str(ascending.value) == str(checked.value)


def one_shot_packed(column, cardinality, block_size):
    """The unchunked build: one dense (cardinality, num_blocks) byte matrix."""
    num_blocks = -(-column.size // block_size)
    bits = np.zeros((cardinality, num_blocks), dtype=np.uint8)
    bits[column, np.arange(column.size) // block_size] = 1
    return np.packbits(bits, axis=1)


class DenseReference:
    """Every query of :class:`BlockBitmapIndex` answered from the dense
    packed matrix of :func:`one_shot_packed`, unpacking each window whole:
    the layout the index kept for every value before it listed the rare
    ones, and the truth its answers are checked against."""

    def __init__(self, column, cardinality, block_size):
        self.packed = one_shot_packed(np.asarray(column), cardinality, block_size)
        self.cardinality = cardinality
        self.num_blocks = -(-np.asarray(column).size // block_size)

    def chunk_presence(self, values, start_block, stop_block):
        values = np.asarray(values, dtype=np.int64)
        bits = np.unpackbits(self.packed[values], axis=1)[:, : self.num_blocks]
        return bits[:, start_block:stop_block].astype(bool)

    def any_present(self, values, start_block, stop_block):
        return self.chunk_presence(values, start_block, stop_block).any(axis=0)

    any_present_ascending = any_present

    def first_present(self, values, start_block, stop_block):
        presence = self.chunk_presence(values, start_block, stop_block)
        first = np.argmax(presence, axis=0).astype(np.int64) if presence.size else (
            np.zeros(stop_block - start_block, dtype=np.int64))
        first[~presence.any(axis=0)] = len(values)
        return first

    def contains(self, value, block):
        return bool(self.chunk_presence([value], block, block + 1)[0, 0])

    def blocks_with_value(self, value):
        return self.chunk_presence([value], 0, self.num_blocks)[0]

    @property
    def distinct(self):
        return sum(
            self.chunk_presence(values, 0, self.num_blocks).sum(axis=0)
            for values in np.array_split(
                np.arange(self.cardinality), -(-self.cardinality // 512)
            )
        )


def assert_same_presence(idx, reference):
    """Every value's every block, through the index's public queries, 512
    values at a time."""
    assert idx.num_blocks == reference.num_blocks
    for first in range(0, reference.cardinality, 512):
        values = np.arange(first, min(first + 512, reference.cardinality))
        np.testing.assert_array_equal(
            idx.chunk_presence(values, 0, idx.num_blocks),
            reference.chunk_presence(values, 0, reference.num_blocks),
        )
    np.testing.assert_array_equal(idx.distinct, reference.distinct)


class TestChunkedBuild:
    """The build's scratch is bounded; its answers are the one-shot build's."""

    @pytest.mark.parametrize("scatter_rows", [1, 7, 1 << 16])
    @pytest.mark.parametrize("scratch_blocks", [0, 8, 13, 16, 20, 1_000])
    @pytest.mark.parametrize(
        "n, cardinality, block_size",
        [(1003, 11, 4), (997, 3, 1), (250, 7, 3), (64, 5, 8), (8 * 40 * 6, 40, 6)],
    )
    def test_identical_bytes_for_any_chunk(
        self, monkeypatch, scratch_blocks, n, cardinality, block_size, scatter_rows
    ):
        from repro.bitmap import bitmap_index

        # Room for ``scratch_blocks`` unpacked blocks: the build rounds down
        # to a multiple of 8, with 8 as the floor.  The scatter index is
        # made ``scatter_rows`` rows (at least one block) at a time.
        monkeypatch.setattr(
            bitmap_index, "_BUILD_SCRATCH_BYTES", scratch_blocks * cardinality
        )
        monkeypatch.setattr(bitmap_index, "_SCATTER_ROWS", scatter_rows)
        rng = np.random.default_rng(n + cardinality)
        col = rng.integers(0, cardinality, size=n)
        idx = BlockBitmapIndex.build(col, cardinality, block_size)
        assert_same_presence(idx, DenseReference(col, cardinality, block_size))
        assert idx.num_blocks == -(-n // block_size)

    def test_chunks_cover_a_ragged_tail(self, monkeypatch):
        """num_blocks not a multiple of 8 or of the chunk, tiny scratch."""
        from repro.bitmap import bitmap_index

        monkeypatch.setattr(bitmap_index, "_BUILD_SCRATCH_BYTES", 1)
        col = np.arange(37 * 5) % 9  # 37 blocks of 5 rows
        idx = BlockBitmapIndex.build(col, 9, 5)
        assert idx.num_blocks == 37
        assert_same_presence(idx, DenseReference(col, 9, 5))
        np.testing.assert_array_equal(
            idx.chunk_presence(np.arange(9), 0, 37),
            brute_force_presence(col, 9, 5),
        )

    def test_taxi_shape_builds_in_bounded_chunks(self, monkeypatch):
        """TAXI's location column at 400k rows: only its dense values go
        through the scratch, in chunks none wider than the bound, and the
        answers are the one-shot build's."""
        from repro.bitmap import bitmap_index
        from repro.data import build_taxi

        column = build_taxi(rows=400_000, seed=7).table.column("location")
        monkeypatch.setattr(bitmap_index, "_BUILD_SCRATCH_BYTES", 4 << 20)
        chunks = []
        packed_presence = bitmap_index._packed_presence

        def counted(codes, dense, num_blocks, block_size, dtype):
            chunks.append((dense + 1) * num_blocks)
            return packed_presence(codes, dense, num_blocks, block_size, dtype)

        monkeypatch.setattr(bitmap_index, "_packed_presence", counted)
        idx = BlockBitmapIndex.build(column, 7641, 32)
        assert len(chunks) >= 2
        assert max(chunks) <= bitmap_index._BUILD_SCRATCH_BYTES
        assert sum(chunks) < 7641 * idx.num_blocks // 4  # the listed values skip it
        assert_same_presence(idx, DenseReference(column, 7641, 32))


class TestDensityMap:
    def test_block_counts_match_brute_force(self, column):
        dm = DensityMap.build(column, 11, block_size=64)
        for b in (0, 3, dm.num_blocks - 1):
            vals, counts = dm.block_counts(b)
            chunk = column[b * 64 : (b + 1) * 64]
            expected = np.bincount(chunk, minlength=11)
            got = np.zeros(11, dtype=int)
            got[vals] = counts
            np.testing.assert_array_equal(got, expected)

    def test_tuples_matching_predicate_mask(self, column):
        dm = DensityMap.build(column, 11, block_size=64)
        mask = np.zeros(11, dtype=bool)
        mask[[2, 5]] = True
        got = dm.tuples_matching(mask, 2, 9)
        for i, b in enumerate(range(2, 9)):
            chunk = column[b * 64 : (b + 1) * 64]
            assert got[i] == np.isin(chunk, [2, 5]).sum()

    def test_value_totals(self, column):
        dm = DensityMap.build(column, 11, block_size=64)
        np.testing.assert_array_equal(dm.value_totals(), np.bincount(column, minlength=11))

    def test_empty_column(self):
        dm = DensityMap.build(np.array([], dtype=int), 5, 8)
        assert dm.num_blocks == 0
        np.testing.assert_array_equal(dm.value_totals(), np.zeros(5, dtype=int))

    def test_validation(self, column):
        dm = DensityMap.build(column, 11, block_size=64)
        with pytest.raises(ValueError):
            dm.block_counts(dm.num_blocks)
        with pytest.raises(ValueError):
            dm.tuples_matching(np.zeros(5, dtype=bool), 0, 1)

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60)
    def test_property_totals_preserved(self, n, cardinality, block_size, seed):
        rng = np.random.default_rng(seed)
        col = rng.integers(0, cardinality, size=n)
        dm = DensityMap.build(col, cardinality, block_size)
        np.testing.assert_array_equal(
            dm.value_totals(), np.bincount(col, minlength=cardinality)
        )
        full_mask = np.ones(cardinality, dtype=bool)
        per_block = dm.tuples_matching(full_mask, 0, dm.num_blocks)
        assert per_block.sum() == n


class TestBuilder:
    def test_build_from_shuffled_table(self):
        rng = np.random.default_rng(23)
        schema = Schema((CategoricalAttribute("z", tuple(f"v{i}" for i in range(5))),))
        table = ColumnTable(schema, {"z": rng.integers(0, 5, size=400)})
        shuffled = shuffle_table(table, block_size=32, rng=rng)
        idx = build_bitmap_index(shuffled, "z")
        dm = build_density_map(shuffled, "z")
        assert idx.num_blocks == shuffled.num_blocks == dm.num_blocks
        truth = brute_force_presence(shuffled.table.column("z"), 5, 32)
        got = idx.chunk_presence(np.arange(5), 0, idx.num_blocks)
        np.testing.assert_array_equal(got, truth)


def brute_force_distinct(column, block_size):
    """Distinct values per block, block by block."""
    num_blocks = -(-column.size // block_size)
    return np.array(
        [np.unique(column[b * block_size : (b + 1) * block_size]).size
         for b in range(num_blocks)],
        dtype=np.int64,
    )


class TestDistinctCounts:
    """Each block's count of distinct values (the dense ones kept beside the
    bits, the listed ones counted off the lists): what a block's column of
    bits sums to, however the build computed it."""

    @given(
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["scratch", "sorted"]),
        st.sampled_from([None, 1, 3]),
        st.sampled_from([1, 8, 10**9]),
    )
    @settings(max_examples=120)
    def test_distinct_counts_are_brute_force(
        self, n, cardinality, block_size, seed, how, scratch_blocks, list_cost
    ):
        """From the build's scratch or from each block's sorted rows, in one
        chunk or several, with few values listed or many."""
        from repro.bitmap import bitmap_index

        rng = np.random.default_rng(seed)
        col = rng.integers(0, cardinality, size=n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                bitmap_index, "_SORT_BLOCKS_ABOVE", 10**9 if how == "scratch" else 0
            )
            patch.setattr(bitmap_index, "_LIST_COST", list_cost)
            if scratch_blocks is not None:  # chunks of 8 blocks
                patch.setattr(
                    bitmap_index, "_BUILD_SCRATCH_BYTES", scratch_blocks * cardinality
                )
            idx = BlockBitmapIndex.build(col, cardinality, block_size)
        truth = brute_force_distinct(col, block_size)
        np.testing.assert_array_equal(idx.distinct, truth)
        assert idx.distinct.dtype == np.min_scalar_type(min(block_size, cardinality))

    def test_distinct_counts_from_bits_in_chunks(self, monkeypatch):
        """Built a bounded chunk of blocks at a time, the counts are the
        brute-force ones."""
        from repro.bitmap import bitmap_index

        col = np.random.default_rng(3).integers(0, 300, size=20_000)
        monkeypatch.setattr(bitmap_index, "_BUILD_SCRATCH_BYTES", 300 * 8)
        idx = BlockBitmapIndex.build(col, 300, 4)
        np.testing.assert_array_equal(idx.distinct, brute_force_distinct(col, 4))

    def test_distinct_counts_shape_checked(self, column):
        """One count a block, a short last block included."""
        idx = BlockBitmapIndex.build(column, 11, block_size=64)
        assert idx.distinct.shape == (idx.num_blocks,) == (16,)
        assert idx.distinct[-1] == np.unique(column[15 * 64 :]).size

    def test_taxi_shape_counts(self):
        """TAXI's location column (7,641 values over 32-row blocks, most of
        them listed): dense counts plus listed ones are the brute force's."""
        from repro.data import build_taxi

        column = build_taxi(rows=350_000, seed=7).table.column("location")
        idx = BlockBitmapIndex.build(column, 7641, 32)
        np.testing.assert_array_equal(idx.distinct, brute_force_distinct(column, 32))


class TestSmallerSideMarking:
    """``any_present_ascending`` reads the inactive values' bits when they
    are the smaller side, and answers what the OR of the active ones does."""

    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["none", "one", "all_but_one", "few", "half"]),
        st.sampled_from([0, 8, 10**9]),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=200)
    def test_property_any_present_ascending_either_side(
        self, n, cardinality, block_size, seed, inactive, side, chunked, to_end
    ):
        """Every active set from all values to one, over windows starting
        off a byte boundary and ending in the table's last partial byte,
        on an index built in one chunk or several: the read mask is
        ``chunk_presence(...).any(axis=0)`` whichever side is read
        (``side`` 0 always reads the inactive values, 10**9 never)."""
        from repro.bitmap import bitmap_index

        rng = np.random.default_rng(seed)
        col = rng.integers(0, cardinality, size=n)
        with pytest.MonkeyPatch.context() as patch:
            if chunked:
                patch.setattr(bitmap_index, "_BUILD_SCRATCH_BYTES", cardinality)
            idx = BlockBitmapIndex.build(col, cardinality, block_size)
        dropped = {
            "none": 0,
            "one": min(1, cardinality - 1),
            "all_but_one": cardinality - 1,
            "few": int(rng.integers(0, max(1, cardinality // 8) + 1)),
            "half": cardinality // 2,
        }[inactive]
        values = np.sort(rng.choice(cardinality, cardinality - dropped, replace=False))
        lo = int(rng.integers(0, idx.num_blocks))
        hi = idx.num_blocks if to_end else int(rng.integers(lo + 1, idx.num_blocks + 1))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitmap_index, "_INACTIVE_SIDE", side)
            got = idx.any_present_ascending(values, lo, hi)
        assert got.dtype == np.bool_ and got.shape == (hi - lo,)
        np.testing.assert_array_equal(
            got, idx.chunk_presence(values, lo, hi).any(axis=0)
        )

    def test_any_present_ascending_or_reduces_only_the_larger_inactive_side(
        self, monkeypatch
    ):
        """With one value inactive of 40 no active row is OR-reduced (the
        one inactive row is read instead); with half inactive the 20 active
        rows are; with every value active, none is and every block reads."""
        col = np.random.default_rng(5).integers(0, 40, size=4000)
        idx = BlockBitmapIndex.build(col, 40, 10)
        reduced = []
        union_bits = idx._union_bits

        def spy(rows, start_block, stop_block):
            reduced.append(np.asarray(rows).size)
            return union_bits(rows, start_block, stop_block)

        monkeypatch.setattr(idx, "_union_bits", spy)
        one_off = np.delete(np.arange(40), 17)
        np.testing.assert_array_equal(
            idx.any_present_ascending(one_off, 3, 300),
            idx.chunk_presence(one_off, 3, 300).any(axis=0),
        )
        assert reduced == []
        idx.any_present_ascending(np.arange(0, 40, 2), 3, 300)
        assert reduced == [20]
        np.testing.assert_array_equal(
            idx.any_present_ascending(np.arange(40), 3, 300), np.ones(297, dtype=bool)
        )
        assert reduced == [20]


def skewed_column(rng, n, cardinality):
    """A column whose values' frequencies fall off as a power law: a few
    values fill most blocks (kept dense), a long tail occurs a few times
    (listed) or never."""
    weights = (np.arange(cardinality) + 1.0) ** -rng.uniform(1.0, 3.0)
    return rng.choice(cardinality, size=n, p=weights / weights.sum())


class TestDenseReference:
    """The index against :class:`DenseReference`, the dense layout kept as
    the reference: every query answers what it answers, whichever form
    each value is kept in."""

    @given(
        st.integers(min_value=1, max_value=4000),
        st.integers(min_value=1, max_value=8000),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0, 8, 10**9]),
        st.sampled_from([1, 8]),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_every_query_is_the_dense_reference(
        self, n, cardinality, block_size, seed, side, list_cost
    ):
        """Over skewed columns (cardinality 1–8,000, a short last block when
        ``block_size`` does not divide ``n``), windows starting and ending
        anywhere, ascending active sets from empty to all, both sides of
        ``_INACTIVE_SIDE`` (0 always reads the inactive values, 10**9
        never)."""
        from repro.bitmap import bitmap_index

        rng = np.random.default_rng(seed)
        col = skewed_column(rng, n, cardinality)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitmap_index, "_LIST_COST", list_cost)
            idx = BlockBitmapIndex.build(col, cardinality, block_size)
        ref = DenseReference(col, cardinality, block_size)
        lo = int(rng.integers(0, idx.num_blocks + 1))
        hi = int(rng.integers(lo, idx.num_blocks + 1))
        size = int(rng.choice([0, 1, rng.integers(0, cardinality + 1), cardinality]))
        active = np.sort(rng.choice(cardinality, size=size, replace=False))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitmap_index, "_INACTIVE_SIDE", side)
            got = idx.any_present_ascending(active, lo, hi)
        assert got.dtype == np.bool_ and got.shape == (hi - lo,)
        np.testing.assert_array_equal(got, ref.any_present(active, lo, hi))
        some = rng.integers(0, cardinality, size=int(rng.integers(0, 40)))  # any order, repeats
        np.testing.assert_array_equal(idx.any_present(some, lo, hi), ref.any_present(some, lo, hi))
        np.testing.assert_array_equal(
            idx.chunk_presence(some, lo, hi), ref.chunk_presence(some, lo, hi)
        )
        np.testing.assert_array_equal(
            idx.first_present(active[:200], lo, hi), ref.first_present(active[:200], lo, hi)
        )
        for value in some[:5]:
            np.testing.assert_array_equal(
                idx.blocks_with_value(int(value)), ref.blocks_with_value(int(value))
            )
            block = int(rng.integers(0, idx.num_blocks))
            assert idx.contains(int(value), block) == ref.contains(int(value), block)
        np.testing.assert_array_equal(idx.distinct, ref.distinct)

    def test_skewed_columns_keep_both_forms(self):
        """The property's columns do exercise both forms."""
        col = skewed_column(np.random.default_rng(1), 4000, 8000)
        idx = BlockBitmapIndex.build(col, 8000, 1)
        listed = np.flatnonzero(idx._rank < 0)
        dense = np.flatnonzero(idx._rank >= 0)
        occurring = np.unique(col)
        assert dense.size and np.intersect1d(listed, occurring).size

    def test_taxi_location_footprint(self):
        """TAXI's location index at 400k rows in 32-row blocks: 11.39 MiB of
        dense bits, under 2 MiB with its rare values listed."""
        from repro.data import build_taxi

        column = build_taxi(rows=400_000, seed=7).table.column("location")
        idx = BlockBitmapIndex.build(column, 7641, 32)
        assert 7641 * -(-idx.num_blocks // 8) / 2**20 > 11.3
        assert idx.nbytes < 2 * 2**20

    @pytest.mark.parametrize("approach", ["fastmatch", "syncmatch"])
    def test_table3_read_masks_and_probes_match_a_dense_run(self, approach, monkeypatch):
        """On the nine Table-3 queries (integration scale), AnyActive's
        lookahead and Sync policies read the same blocks for the same
        probes, window by window, as with the dense reference index."""
        import dataclasses

        from repro.core import HistSimConfig
        from repro.data import QUERY_NAMES, prepare_workload
        from repro.sampling import policies
        from repro.system import run_approach

        decisions = []
        for cls in (policies.AnyActiveLookaheadPolicy, policies.AnyActiveSyncPolicy):
            def spy(self, index, blocks, active, cost_model, resident, _select=cls.select):
                decision = _select(self, index, blocks, active, cost_model, resident)
                decisions.append((blocks.copy(), decision.read_mask.copy(), decision.probes))
                return decision
            monkeypatch.setattr(cls, "select", spy)
        rows = {"flights": 120_000, "taxi": 400_000, "police": 150_000}
        for name in QUERY_NAMES:
            prepared = prepare_workload(name, rows=rows[name.split("-")[0]], seed=7)
            column = prepared.shuffled.table.column(prepared.query.candidate_attribute)
            dense = dataclasses.replace(prepared, index=DenseReference(
                column, prepared.index.cardinality, prepared.shuffled.layout.block_size,
            ))
            config = HistSimConfig(
                k=prepared.query.k, epsilon=0.2, delta=0.05, sigma=0.0008,
                stage1_samples=20_000,
            )
            runs = []
            for which in (prepared, dense):
                decisions.clear()
                report = run_approach(which, approach, config, seed=5, audit=False)
                runs.append((list(decisions), report.counters, report.elapsed_ns))
            (ours, counters, elapsed), (theirs, dense_counters, dense_elapsed) = runs
            assert ours, name
            assert len(ours) == len(theirs), name
            for (blocks, mask, probes), (blocks2, mask2, probes2) in zip(ours, theirs):
                np.testing.assert_array_equal(blocks, blocks2)
                np.testing.assert_array_equal(mask, mask2)
                assert probes == probes2
            assert counters == dense_counters and elapsed == dense_elapsed, name
