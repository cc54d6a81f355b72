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
        col = np.zeros(6400, dtype=int)
        idx = BlockBitmapIndex.build(col, 16, block_size=1)  # 6400 blocks
        assert idx.nbytes == 16 * 800

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


class TestChunkedBuild:
    """The build's scratch is bounded; its bytes are the one-shot build's."""

    @pytest.mark.parametrize("scratch_blocks", [0, 8, 13, 16, 20, 1_000])
    @pytest.mark.parametrize(
        "n, cardinality, block_size",
        [(1003, 11, 4), (997, 3, 1), (250, 7, 3), (64, 5, 8), (8 * 40 * 6, 40, 6)],
    )
    def test_identical_bytes_for_any_chunk(
        self, monkeypatch, scratch_blocks, n, cardinality, block_size
    ):
        from repro.bitmap import bitmap_index

        # Room for ``scratch_blocks`` unpacked blocks: the build rounds down
        # to a multiple of 8, with 8 as the floor.
        monkeypatch.setattr(
            bitmap_index, "_BUILD_SCRATCH_BYTES", scratch_blocks * cardinality
        )
        rng = np.random.default_rng(n + cardinality)
        col = rng.integers(0, cardinality, size=n)
        idx = BlockBitmapIndex.build(col, cardinality, block_size)
        expected = one_shot_packed(col, cardinality, block_size)
        assert idx._packed.dtype == np.uint8
        np.testing.assert_array_equal(idx._packed, expected)
        assert idx.num_blocks == -(-n // block_size)

    def test_chunks_cover_a_ragged_tail(self, monkeypatch):
        """num_blocks not a multiple of 8 or of the chunk, tiny scratch."""
        from repro.bitmap import bitmap_index

        monkeypatch.setattr(bitmap_index, "_BUILD_SCRATCH_BYTES", 1)
        col = np.arange(37 * 5) % 9  # 37 blocks of 5 rows
        idx = BlockBitmapIndex.build(col, 9, 5)
        assert idx.num_blocks == 37 and idx._packed.shape == (9, 5)
        np.testing.assert_array_equal(idx._packed, one_shot_packed(col, 9, 5))
        np.testing.assert_array_equal(
            idx.chunk_presence(np.arange(9), 0, 37),
            brute_force_presence(col, 9, 5),
        )

    def test_taxi_shape_builds_in_bounded_chunks(self, monkeypatch):
        """TAXI's location column at 400k rows (95 MB unpacked) builds in
        several chunks, none wider than the bound, to the one-shot bytes."""
        from repro.bitmap import bitmap_index
        from repro.data import build_taxi

        column = build_taxi(rows=400_000, seed=7).table.column("location")
        chunks = []
        packed_presence = bitmap_index._packed_presence

        def counted(rows, cardinality, num_blocks, block_size):
            chunks.append(cardinality * num_blocks)
            return packed_presence(rows, cardinality, num_blocks, block_size)

        monkeypatch.setattr(bitmap_index, "_packed_presence", counted)
        idx = BlockBitmapIndex.build(column, 7641, 32)
        assert len(chunks) >= 2
        assert max(chunks) <= bitmap_index._BUILD_SCRATCH_BYTES
        np.testing.assert_array_equal(idx._packed, one_shot_packed(column, 7641, 32))


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
