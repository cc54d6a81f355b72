"""Counting-kernel layer: byte-identity, auto-selection, bytes-moved
accounting, the pair-code artifact cache, and affinity-aware placement.

Acceptance properties of the native-speed-kernels PR:

- every kernel (classic / narrow / fused) produces byte-identical count
  matrices to a straight-line legacy reference, across stored dtypes,
  code-space cardinalities, filter shapes, and block-subset geometries;
- auto-selection picks the narrowest exact path and degrades gracefully
  (``fused`` without a prepared code column falls back, never fails);
- end-to-end runs are byte-identical (answers, simulated clock, RunReport
  counters) across serial / threads / sharded x every kernel spec;
- the fused kernel measurably moves fewer bytes than the classic one
  (profiler ``bytes_moved``), which is the whole point;
- ``MatchSession(kernel="fused")`` caches the pair-code column as a
  prepared artifact, folded with the query's predicate: repeats hit,
  eviction releases it, the ground truth is one bincount of it;
- affinity planning is deterministic and pinning is best-effort everywhere.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HistSimConfig
from repro.core.target import TargetSpec
from repro.obs import Profiler
from repro.parallel import (
    AFFINITY_POLICIES,
    KERNEL_SPECS,
    ShardedBackend,
    ThreadPoolBackend,
    WorkerPool,
    apply_affinity,
    build_pair_codes,
    check_pair_codes,
    choose_kernel,
    count_codes,
    count_window,
    make_backend,
    pair_code_dtype,
    plan_affinity,
    resolve_kernel,
)
from repro.parallel.kernels import rows_per_candidate, tally_window
from repro.query import Equals, HistogramQuery, InRange
from repro.query.executor import exact_candidate_counts
from repro.storage import CategoricalAttribute, ColumnTable, Schema
from repro.storage.blocks import BlockLayout
from repro.system import MatchSession


# ---------------------------------------------------------------------------
# pair-code dtype + auto-selection
# ---------------------------------------------------------------------------


class TestPairCodeDtype:
    @pytest.mark.parametrize("c,g,expected", [
        (1, 1, np.uint8),
        (16, 16, np.uint8),          # 256 codes -> max 255 fits uint8
        (16, 17, np.uint16),         # 272 codes -> uint16
        (256, 256, np.uint16),       # 65536 codes -> max 65535 fits uint16
        (256, 257, np.uint32),
        (2**16, 2**16, np.uint32),   # 2^32 codes -> max 2^32-1 fits uint32
        (2**17, 2**16, np.int64),    # over uint32: int64, never uint64
    ])
    def test_narrowest_dtype(self, c, g, expected):
        assert pair_code_dtype(c, g) == np.dtype(expected)

    def test_never_uint64(self):
        # np.bincount rejects uint64 input; the fallback must be int64.
        assert pair_code_dtype(2**32, 2**31) == np.dtype(np.int64)

    def test_degenerate_zero(self):
        assert pair_code_dtype(0, 0) == np.dtype(np.uint8)


class TestResolveKernel:
    def test_classic_always_wins_when_asked(self):
        codes = np.zeros(4, dtype=np.uint8)
        assert resolve_kernel("classic", 4, 4, codes=codes) == "classic"

    def test_codes_force_fused(self):
        codes = np.zeros(4, dtype=np.uint8)
        assert resolve_kernel("auto", 4, 4, codes=codes) == "fused"
        assert resolve_kernel("narrow", 4, 4, codes=codes) == "fused"

    def test_auto_narrow_when_codes_fit(self):
        assert resolve_kernel("auto", 16, 16) == "narrow"

    def test_auto_classic_when_code_space_huge(self):
        assert resolve_kernel("auto", 2**17, 2**16) == "classic"

    def test_fused_without_codes_degrades(self):
        assert resolve_kernel("fused", 16, 16) == "narrow"
        assert resolve_kernel("fused", 2**17, 2**16) == "classic"

    def test_rejects_unknown_spec(self):
        with pytest.raises(ValueError):
            resolve_kernel("turbo", 4, 4)


# ---------------------------------------------------------------------------
# count_window byte-identity matrix
# ---------------------------------------------------------------------------


def legacy_reference(z, x, blocks, layout, c, g, row_filter=None, filter_slice=None):
    """The pre-kernel serial arithmetic, verbatim (the identity oracle)."""
    rows = layout.rows_of_blocks(np.asarray(blocks, dtype=np.int64))
    zz = z[rows].astype(np.int64)
    xx = x[rows].astype(np.int64)
    keep = row_filter[rows] if row_filter is not None else filter_slice
    if keep is not None:
        zz = zz[keep]
        xx = xx[keep]
    flat = np.bincount(zz * g + xx, minlength=c * g)
    return flat.reshape(c, g)


def block_subsets(num_blocks):
    return {
        "all": np.arange(num_blocks, dtype=np.int64),
        "contiguous": np.arange(2, min(9, num_blocks), dtype=np.int64),
        "scattered": np.arange(0, num_blocks, 3, dtype=np.int64),
        "single": np.array([num_blocks // 2], dtype=np.int64),
        # Every other block — the whole-block gather's shape — ending on
        # the last block (short, when the layout has one) and before it.
        "alternate_to_last": np.arange(
            (num_blocks - 1) % 2, num_blocks, 2, dtype=np.int64
        ),
        "alternate_before_last": np.arange(
            num_blocks % 2, num_blocks - 1, 2, dtype=np.int64
        ),
        # count_window takes blocks in any order, repeats included.
        "last_in_the_middle": np.array(
            [5, num_blocks - 1, 2, num_blocks - 1, 9], dtype=np.int64
        ),
    }


def expected_moved(kernel, z, x, codes, rows, kept, row_filter, filtered):
    """Bytes a non-classic kernel materializes for a window whose gather
    copies ``rows`` rows (none for one contiguous run, a zero-copy slice)
    of which ``kept`` pass the filter: the gathered columns, the gathered
    ``row_filter``, the filtered columns, the code array."""
    if kernel == "fused":
        moved = rows * codes.itemsize
        if row_filter is not None:
            moved += rows * row_filter.itemsize
        if filtered:
            moved += kept * codes.itemsize
        return moved
    moved = rows * (z.itemsize + x.itemsize)
    if row_filter is not None:
        moved += rows * row_filter.itemsize
    if filtered:
        moved += kept * (z.itemsize + x.itemsize)
    return moved + kept * codes.itemsize  # codes.dtype is pair_code_dtype


class TestCountWindowIdentity:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64])
    @pytest.mark.parametrize("c,g", [(7, 5), (40, 30), (300, 300)])
    @pytest.mark.parametrize("filter_kind", ["none", "row_filter", "filter_slice"])
    def test_all_kernels_match_legacy(self, dtype, c, g, filter_kind):
        rng = np.random.default_rng(hash((c, g, filter_kind)) % 2**32)
        n, block_size = 1003, 32  # short final block on purpose
        layout = BlockLayout(num_rows=n, block_size=block_size)
        z = rng.integers(0, c, size=n).astype(dtype)
        x = rng.integers(0, g, size=n).astype(dtype)
        codes = build_pair_codes(z, x, c, g)
        row_filter = rng.random(n) < 0.6 if filter_kind == "row_filter" else None

        for name, blocks in block_subsets(layout.num_blocks).items():
            filter_slice = None
            if filter_kind == "filter_slice":
                rows = layout.rows_of_blocks(blocks)
                filter_slice = rng.random(rows.size) < 0.6
            expected = legacy_reference(
                z, x, blocks, layout, c, g, row_filter, filter_slice
            )
            for kernel in KERNEL_SPECS:
                counts, moved = count_window(
                    z, x, blocks, layout, c, g,
                    row_filter=row_filter, filter_slice=filter_slice,
                    codes=codes if kernel == "fused" else None,
                    kernel=kernel,
                )
                assert counts.dtype == np.int64
                assert moved >= 0
                np.testing.assert_array_equal(
                    counts, expected,
                    err_msg=f"kernel={kernel} subset={name} dtype={dtype}",
                )

    @pytest.mark.parametrize("n", [1003, 1024])  # with and without a short block
    @pytest.mark.parametrize("filter_kind", ["none", "row_filter", "filter_slice"])
    def test_scattered_windows_pinned_against_classic(self, n, filter_kind):
        """The whole-block gather returns classic's counts and materializes
        exactly the arrays the per-run gather did (``moved_bytes``); one
        contiguous run gathers nothing."""
        rng = np.random.default_rng(n + len(filter_kind))
        c, g, block_size = 40, 30, 32
        layout = BlockLayout(num_rows=n, block_size=block_size)
        z = rng.integers(0, c, size=n).astype(np.uint8)
        x = rng.integers(0, g, size=n).astype(np.uint16)
        codes = build_pair_codes(z, x, c, g)
        row_filter = rng.random(n) < 0.6 if filter_kind == "row_filter" else None
        subsets = block_subsets(layout.num_blocks)
        for name in ("scattered", "alternate_to_last", "alternate_before_last",
                     "last_in_the_middle", "contiguous"):
            blocks = subsets[name]
            rows = layout.rows_of_blocks(blocks)
            gathered = 0 if name == "contiguous" else rows.size
            filter_slice = None
            if filter_kind == "filter_slice":
                filter_slice = rng.random(rows.size) < 0.6
            keep = row_filter[rows] if row_filter is not None else filter_slice
            kept = rows.size if keep is None else int(keep.sum())
            classic, _ = count_window(
                z, x, blocks, layout, c, g, row_filter=row_filter,
                filter_slice=filter_slice, kernel="classic",
            )
            for kernel in ("narrow", "fused"):
                counts, moved = count_window(
                    z, x, blocks, layout, c, g, row_filter=row_filter,
                    filter_slice=filter_slice,
                    codes=codes if kernel == "fused" else None, kernel=kernel,
                )
                np.testing.assert_array_equal(
                    counts, classic, err_msg=f"kernel={kernel} subset={name}"
                )
                assert moved == expected_moved(
                    kernel, z, x, codes, gathered, kept, row_filter,
                    keep is not None,
                ), f"kernel={kernel} subset={name}"
            if row_filter is not None:
                # The folded column: classic's counts, the code gather only.
                folded = build_pair_codes(z, x, c, g, row_filter=row_filter)
                counts, moved = count_window(
                    z, x, blocks, layout, c, g, codes=folded, kernel="fused"
                )
                np.testing.assert_array_equal(counts, classic)
                assert moved == gathered * folded.itemsize

    def test_out_of_range_blocks_rejected_by_every_kernel(self):
        layout = BlockLayout(num_rows=100, block_size=10)
        z = np.zeros(100, dtype=np.uint8)
        codes = build_pair_codes(z, z, 3, 3)
        for kernel in ("classic", "narrow", "fused"):
            for blocks in ([0, 10], [-1, 3], [2, 4, 11]):
                with pytest.raises(ValueError, match="block index out of range"):
                    count_window(
                        z, z, np.array(blocks), layout, 3, 3,
                        codes=codes if kernel == "fused" else None, kernel=kernel,
                    )

    def test_resolved_choice_counts_like_its_spec(self):
        """A :class:`CountSource` hands count_window the choice it resolved
        once; it must dispatch exactly as the spec does."""
        layout = BlockLayout(num_rows=640, block_size=32)
        rng = np.random.default_rng(4)
        z = rng.integers(0, 6, size=640).astype(np.uint8)
        x = rng.integers(0, 4, size=640).astype(np.uint8)
        codes = build_pair_codes(z, x, 6, 4)
        blocks = np.arange(1, 20, 2, dtype=np.int64)
        for spec in KERNEL_SPECS:
            for prepared in (None, codes):
                choice = choose_kernel(spec, 6, 4, codes=prepared)
                assert choice.name == resolve_kernel(spec, 6, 4, codes=prepared)
                assert choice.code_dtype == pair_code_dtype(6, 4)
                by_spec = count_window(
                    z, x, blocks, layout, 6, 4, codes=prepared, kernel=spec
                )
                by_choice = count_window(
                    z, x, blocks, layout, 6, 4, codes=prepared, kernel=choice
                )
                np.testing.assert_array_equal(by_spec[0], by_choice[0])
                assert by_spec[1] == by_choice[1]

    def test_empty_blocks(self):
        layout = BlockLayout(num_rows=100, block_size=10)
        z = np.zeros(100, dtype=np.uint8)
        for kernel in KERNEL_SPECS:
            counts, moved = count_window(
                z, z, np.empty(0, dtype=np.int64), layout, 3, 3, kernel=kernel
            )
            assert counts.shape == (3, 3) and counts.sum() == 0 and moved == 0

    def test_fused_single_run_unfiltered_moves_zero_bytes(self):
        layout = BlockLayout(num_rows=640, block_size=32)
        rng = np.random.default_rng(0)
        z = rng.integers(0, 6, size=640).astype(np.uint8)
        x = rng.integers(0, 4, size=640).astype(np.uint8)
        codes = build_pair_codes(z, x, 6, 4)
        blocks = np.arange(5, 15, dtype=np.int64)  # one contiguous run
        counts, moved = count_window(
            z, x, blocks, layout, 6, 4, codes=codes, kernel="fused"
        )
        assert moved == 0  # zero-copy slice view straight into bincount
        np.testing.assert_array_equal(
            counts, legacy_reference(z, x, blocks, layout, 6, 4)
        )

    def test_fused_and_narrow_move_fewer_bytes_than_classic(self):
        layout = BlockLayout(num_rows=4096, block_size=32)
        rng = np.random.default_rng(1)
        z = rng.integers(0, 10, size=4096).astype(np.uint8)
        x = rng.integers(0, 8, size=4096).astype(np.uint8)
        codes = build_pair_codes(z, x, 10, 8)
        blocks = np.arange(0, layout.num_blocks, 2, dtype=np.int64)
        _, classic = count_window(z, x, blocks, layout, 10, 8, kernel="classic")
        _, narrow = count_window(z, x, blocks, layout, 10, 8, kernel="narrow")
        _, fused = count_window(
            z, x, blocks, layout, 10, 8, codes=codes, kernel="fused"
        )
        assert narrow < 0.3 * classic  # no row-index array, no int64 upcast
        assert fused < narrow  # one narrow column instead of two

    def test_default_kernel_matches_the_legacy_reference(self):
        layout = BlockLayout(num_rows=320, block_size=32)
        rng = np.random.default_rng(2)
        z = rng.integers(0, 5, size=320)
        x = rng.integers(0, 3, size=320)
        blocks = np.arange(10, dtype=np.int64)
        np.testing.assert_array_equal(
            count_window(z, x, blocks, layout, 5, 3)[0],
            legacy_reference(z, x, blocks, layout, 5, 3),
        )


def draw_blocks(data, layout):
    """A sorted block set of one of the window shapes: one run, scattered,
    scattered and naming the last (short, when there is one) block."""
    last = layout.num_blocks - 1
    shape = data.draw(st.sampled_from(["run", "scattered", "names_last"]))
    if shape == "run":
        lo = data.draw(st.integers(0, last))
        return np.arange(lo, data.draw(st.integers(lo, last)) + 1)
    blocks = np.array(
        sorted(data.draw(st.sets(st.integers(0, last), min_size=1))),
        dtype=np.int64,
    )
    if shape == "names_last":
        blocks = np.union1d(blocks, [last])
    return blocks


class TestTallyWindow:
    """The z-only row tally is the row sums of ``count_window``'s matrix."""

    @given(
        data=st.data(),
        num_rows=st.integers(min_value=1, max_value=400),
        block_size=st.integers(min_value=1, max_value=37),
        dtype=st.sampled_from([np.uint8, np.uint16, np.int64]),
        filtered=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_count_window_row_sums(
        self, data, num_rows, block_size, dtype, filtered, seed
    ):
        c, g = 9, 4
        rng = np.random.default_rng(seed)
        layout = BlockLayout(num_rows=num_rows, block_size=block_size)
        z = rng.integers(0, c, size=num_rows).astype(dtype)
        x = rng.integers(0, g, size=num_rows).astype(dtype)
        row_filter = rng.random(num_rows) < 0.6 if filtered else None
        blocks = draw_blocks(data, layout)
        tally, moved = tally_window(z, blocks, layout, c, row_filter=row_filter)
        counts, _ = count_window(z, x, blocks, layout, c, g, row_filter=row_filter)
        assert tally.dtype == np.int64 and tally.shape == (c,)
        np.testing.assert_array_equal(tally, counts.sum(axis=1))
        assert moved >= 0
        single_run = blocks[-1] - blocks[0] == blocks.size - 1
        if single_run and not filtered:
            assert moved == 0  # a zero-copy slice of the candidate column

    def test_empty_and_out_of_range(self):
        layout = BlockLayout(num_rows=100, block_size=10)
        z = np.zeros(100, dtype=np.uint8)
        tally, moved = tally_window(z, np.empty(0, dtype=np.int64), layout, 3)
        np.testing.assert_array_equal(tally, np.zeros(3, dtype=np.int64))
        assert moved == 0
        for blocks in ([0, 10], [-1, 3], [2, 4, 11]):
            with pytest.raises(ValueError, match="block index out of range"):
                tally_window(z, np.array(blocks), layout, 3)


class TestRowsPerCandidate:
    """The one row-sum expression is ``counts.sum(axis=1)``: same values,
    int64, its own memory, whatever the matrix's layout or integer dtype."""

    LAYOUTS = {
        "c": np.ascontiguousarray,
        "fortran": np.asfortranarray,
        "strided": lambda a: np.repeat(a, 2, axis=1)[:, ::2],
        "transposed": lambda a: np.ascontiguousarray(a.T).T,
    }

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize(
        "shape",
        [(347, 24), (2110, 2), (7641, 24), (347, 351), (10, 351), (40, 1), (0, 5)],
    )
    def test_rows_per_candidate_equals_sum_axis_1(self, shape, layout):
        counts = np.random.default_rng(1).integers(0, 1000, size=shape)
        counts = self.LAYOUTS[layout](counts.astype(np.int64))
        assert counts.shape == shape
        if layout in ("strided", "fortran") and min(shape) > 1:
            assert not counts.flags.c_contiguous
        got = rows_per_candidate(counts)
        want = counts.sum(axis=1)
        assert got.dtype == want.dtype == np.int64 and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        assert got.flags.writeable and not np.shares_memory(got, counts)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.uint32, bool])
    def test_rows_per_candidate_widens_like_sum(self, dtype):
        """``einsum`` alone would keep a narrow input's dtype (and wrap in
        it); the result is int64 as ``sum``'s is."""
        top = 1 if dtype is bool else np.iinfo(dtype).max
        counts = np.full((3, 5), top, dtype=dtype)
        got = rows_per_candidate(counts)
        assert got.dtype == np.int64
        assert got.tolist() == [5 * int(top)] * 3
        assert rows_per_candidate([[1, 2], [3, 4]]).tolist() == [3, 7]


#: Code spaces on both sides of each dtype edge: ``(C, G, plain, folded)``.
#: At ``C*G`` = 256 and 65,536 the largest code still fits the narrow dtype
#: and only the sentinel forces the wider one.
FOLD_CODE_SPACES = [
    (9, 4, np.uint8, np.uint8),
    (15, 17, np.uint8, np.uint8),        # 255: sentinel is uint8 max
    (16, 16, np.uint8, np.uint16),       # 256
    (255, 257, np.uint16, np.uint16),    # 65,535: sentinel is uint16 max
    (256, 256, np.uint16, np.uint32),    # 65,536
]


class TestFoldedCodes:
    """A code column built under a row filter counts, on the fused kernel
    and with no filter, what classic counts from ``z``, ``x`` and the
    filter."""

    @given(
        data=st.data(),
        space=st.sampled_from(FOLD_CODE_SPACES),
        num_rows=st.integers(min_value=1, max_value=400),
        block_size=st.integers(min_value=1, max_value=37),
        density=st.sampled_from([0.0, 0.1, 0.6, 1.0]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_fold_fused_equals_classic_with_the_filter(
        self, data, space, num_rows, block_size, density, seed
    ):
        c, g, plain_dtype, folded_dtype = space
        rng = np.random.default_rng(seed)
        layout = BlockLayout(num_rows=num_rows, block_size=block_size)
        z = rng.integers(0, c, size=num_rows)
        x = rng.integers(0, g, size=num_rows)
        z[0], x[0] = c - 1, g - 1  # the largest code is present
        row_filter = rng.random(num_rows) < density
        blocks = draw_blocks(data, layout)
        folded = build_pair_codes(z, x, c, g, row_filter=row_filter)
        assert build_pair_codes(z, x, c, g).dtype == plain_dtype
        assert folded.dtype == folded_dtype and not folded.flags.writeable
        np.testing.assert_array_equal(folded == c * g, ~row_filter)
        check_pair_codes(folded, row_filter, c, g)

        classic, _ = count_window(
            z, x, blocks, layout, c, g, row_filter=row_filter, kernel="classic"
        )
        counts, moved = count_window(
            z, x, blocks, layout, c, g, codes=folded, kernel="fused"
        )
        assert counts.dtype == np.int64 and counts.shape == (c, g)
        np.testing.assert_array_equal(counts, classic)
        single_run = blocks[-1] - blocks[0] == blocks.size - 1
        rows = int(layout.rows_per_block(blocks).sum())
        assert moved == (0 if single_run else rows * folded.itemsize)
        # The whole column is the ground truth under the filter.
        exact = count_codes(folded, c, g)
        assert exact.dtype == np.int64 and exact.flags.owndata
        np.testing.assert_array_equal(
            exact, np.bincount(z[row_filter] * g + x[row_filter], minlength=c * g)
            .reshape(c, g),
        )

    @pytest.mark.parametrize("c,g", [(3, 5), (16, 16)])
    def test_fold_code_above_the_sentinel_is_rejected(self, c, g):
        """A column of a larger code space is an error, not a wider or a
        silently truncated matrix."""
        layout = BlockLayout(num_rows=64, block_size=8)
        z = np.zeros(64, dtype=np.int64)
        blocks = np.arange(layout.num_blocks, dtype=np.int64)
        codes = np.full(64, c * g + 1, dtype=np.uint16)
        with pytest.raises(ValueError, match="above the sentinel"):
            count_window(z, z, blocks, layout, c, g, codes=codes, kernel="fused")
        with pytest.raises(ValueError, match="above the sentinel"):
            count_codes(codes, c, g)
        # The sentinel itself is every row dropped.
        codes = np.full(64, c * g, dtype=np.uint16)
        counts, _ = count_window(
            z, z, blocks, layout, c, g, codes=codes, kernel="fused"
        )
        assert counts.shape == (c, g) and not counts.any()

    def test_fold_plain_codes_with_an_explicit_filter_still_compress(self):
        """The benchmark's kernel microbench shape: an unfolded column plus
        ``row_filter`` keeps the gather-and-compress path and its counts."""
        layout = BlockLayout(num_rows=1003, block_size=32)
        rng = np.random.default_rng(9)
        z = rng.integers(0, 40, size=1003).astype(np.uint8)
        x = rng.integers(0, 30, size=1003).astype(np.uint8)
        row_filter = rng.random(1003) < 0.6
        blocks = np.arange(0, layout.num_blocks, 2, dtype=np.int64)
        plain = build_pair_codes(z, x, 40, 30)
        classic, _ = count_window(
            z, x, blocks, layout, 40, 30, row_filter=row_filter, kernel="classic"
        )
        counts, moved = count_window(
            z, x, blocks, layout, 40, 30, row_filter=row_filter, codes=plain,
            kernel="fused",
        )
        np.testing.assert_array_equal(counts, classic)
        rows = layout.rows_of_blocks(blocks)
        kept = int(row_filter[rows].sum())
        assert moved == expected_moved(
            "fused", z, x, plain, rows.size, kept, row_filter, True
        )


class TestBuildPairCodes:
    def test_codes_are_narrow_and_read_only(self):
        z = np.array([0, 1, 2, 3], dtype=np.uint16)
        x = np.array([1, 0, 1, 0], dtype=np.uint16)
        codes = build_pair_codes(z, x, 4, 2)
        assert codes.dtype == np.dtype(np.uint8)
        np.testing.assert_array_equal(codes, [1, 2, 5, 6])
        assert not codes.flags.writeable

    def test_codes_exact_at_dtype_boundary(self):
        c, g = 16, 16  # 256 codes: the last one is exactly uint8 max
        z = np.array([15], dtype=np.uint8)
        x = np.array([15], dtype=np.uint8)
        codes = build_pair_codes(z, x, c, g)
        assert codes.dtype == np.dtype(np.uint8) and codes[0] == 255


# ---------------------------------------------------------------------------
# end-to-end identity: backends x kernels
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(77)
    n = 40_000
    candidates, groups = 12, 6
    z = rng.integers(0, candidates, size=n)
    x = np.empty(n, dtype=np.int64)
    for c in range(candidates):
        mask = z == c
        base = np.full(groups, 1.0 / groups)
        if c >= 2:
            base[c % groups] += 0.6
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


QUERY = HistogramQuery(
    "product", "age", target=TargetSpec(kind="closest_to_uniform"), k=3,
    name="uniform",
)
FILTERED_QUERY = HistogramQuery(
    "product", "age", target=TargetSpec(kind="closest_to_uniform"), k=3,
    predicate=Equals("channel", 0), name="filtered",
)


def run_session(table, query, *, kernel, backend="serial", workers=None,
                profiler=None):
    config = HistSimConfig(k=query.k, epsilon=0.15, delta=0.05, sigma=0.0)
    with MatchSession(
        table, backend=backend, workers=workers, kernel=kernel,
        profiler=profiler,
    ) as session:
        return session.match(query, config=config, seed=5)


class TestEndToEndIdentity:
    @pytest.mark.parametrize("query", [QUERY, FILTERED_QUERY],
                             ids=["plain", "filtered"])
    def test_backends_x_kernels_byte_identical(self, table, query):
        baseline = run_session(table, query, kernel="classic")
        backends = [
            ("serial", None),
            ("threads", 2),
            ("sharded", 2),
        ]
        for backend, workers in backends:
            for kernel in KERNEL_SPECS:
                outcome = run_session(
                    table, query, kernel=kernel, backend=backend, workers=workers
                )
                report = outcome.report
                assert report.result.matching == baseline.report.result.matching
                np.testing.assert_array_equal(
                    report.result.histograms, baseline.report.result.histograms
                )
                np.testing.assert_array_equal(
                    report.result.distances, baseline.report.result.distances
                )
                assert report.result.pruned == baseline.report.result.pruned
                assert report.result.stats == baseline.report.result.stats
                assert report.result.rounds == baseline.report.result.rounds
                # Same simulated clock and same observable effort: kernel
                # choice changes bytes moved, never the answer or the cost —
                # a fused session's folded codes and the ground truth it
                # takes from them included (the audit reads that truth).
                assert report.elapsed_ns == baseline.report.elapsed_ns
                assert report.counters == baseline.report.counters
                assert report.audit == baseline.report.audit
                assert report.audit.ok
                assert outcome.steps == baseline.steps
                assert outcome.service_ns == baseline.service_ns

    def test_fused_profile_moves_measurably_fewer_bytes(self, table):
        moved = {}
        for kernel in ("classic", "fused"):
            profiler = Profiler()
            outcome = run_session(table, QUERY, kernel=kernel, profiler=profiler)
            moved[kernel] = outcome.report.profile["totals"]["bytes_moved"]
        assert moved["fused"] > 0  # filters/multi-run gathers still copy
        # The acceptance bar is >= 30% fewer bytes; in practice it is ~95%.
        assert moved["fused"] < 0.7 * moved["classic"]


# ---------------------------------------------------------------------------
# session-level pair-code artifact cache
# ---------------------------------------------------------------------------


#: FILTERED_QUERY's template under a second predicate, and a second
#: template under FILTERED_QUERY's predicate.
OTHER_FILTER_QUERY = HistogramQuery(
    "product", "age", target=TargetSpec(kind="closest_to_uniform"), k=3,
    predicate=Equals("channel", 1), name="other-filter",
)
FILTERED_SIBLING = HistogramQuery(
    "age", "product", target=TargetSpec(kind="closest_to_uniform"), k=2,
    predicate=Equals("channel", 0), name="filtered-sibling",
)


class _UnpublishLog:
    """A serial backend that keeps what eviction asked it to unpublish."""

    def __init__(self):
        self._inner = make_backend("serial")
        self.unpublished = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def unpublish(self, *artifacts):
        self.unpublished.extend(artifacts)


class TestPairCodeCache:
    def test_fused_session_caches_and_reuses_codes(self, table):
        """The sharing rule: one column per (z, x, predicate, block_size,
        seed) — a different predicate does not share, plain siblings do."""
        config = HistSimConfig(k=3, epsilon=0.15, delta=0.05, sigma=0.0)
        like_four = HistogramQuery(
            "product", "age", target=TargetSpec(kind="candidate", candidate=4),
            k=3, name="like-4",
        )
        filtered_like_four = HistogramQuery(
            "product", "age", target=TargetSpec(kind="candidate", candidate=4),
            k=3, predicate=Equals("channel", 0), name="filtered-like-4",
        )
        with MatchSession(table, kernel="fused") as session:
            first = session.prepared(QUERY, seed=5)
            assert first.pair_codes is not None
            assert first.pair_codes.dtype == pair_code_dtype(12, 6)
            assert session.cache_stats.misses.get("pair_codes") == 1
            # The plain sibling (same z, x, layout, seed) shares the
            # unfiltered column.
            assert session.prepared(like_four, seed=5).pair_codes is first.pair_codes
            assert session.cache_stats.hits.get("pair_codes") == 1
            # A predicate gets its own column, folded with its row filter...
            filtered = session.prepared(FILTERED_QUERY, seed=5)
            assert filtered.pair_codes is not first.pair_codes
            np.testing.assert_array_equal(
                filtered.pair_codes == 12 * 6, ~filtered.row_filter
            )
            assert session.cache_stats.misses.get("pair_codes") == 2
            # ...shared by the same predicate over the same (z, x)...
            again = session.prepared(filtered_like_four, seed=5)
            assert again.pair_codes is filtered.pair_codes
            assert session.cache_stats.hits.get("pair_codes") == 2
            # ...and by nothing else: another predicate, another seed.
            other = session.prepared(OTHER_FILTER_QUERY, seed=5)
            assert other.pair_codes is not filtered.pair_codes
            reseeded = session.prepared(FILTERED_QUERY, seed=6)
            assert reseeded.pair_codes is not filtered.pair_codes
            assert session.cache_stats.misses.get("pair_codes") == 4
            assert set(session.cache_stats.misses) == {
                "prepared", "shuffle", "index", "ground_truth", "row_filter",
                "pair_codes",
            }
            session.match(QUERY, config=config, seed=5)
            session.match(FILTERED_QUERY, config=config, seed=5)

    @pytest.mark.parametrize(
        "query", [QUERY, FILTERED_QUERY, OTHER_FILTER_QUERY, FILTERED_SIBLING],
        ids=lambda q: q.name,
    )
    def test_fold_ground_truth_is_one_bincount_of_the_codes(self, table, query):
        profiler = Profiler()
        with MatchSession(table, kernel="fused", profiler=profiler) as session:
            prepared = session.prepared(query, seed=5)
        exact = prepared.exact_counts
        want = exact_candidate_counts(table, query)
        assert exact.dtype == np.int64 and exact.flags.owndata
        assert np.array_equal(exact, want) and exact.shape == want.shape
        # The pass is on the session's profile: every kept row, one
        # bincount, nothing materialized — and no table pass beside it.
        kernels = profiler.snapshot().kernels["unattributed"]
        assert set(kernels) == {"session.ground_truth"}
        truth = kernels["session.ground_truth"]
        assert (truth["calls"], truth["bincounts"], truth["bytes"]) == (1, 1, 0)
        assert truth["rows"] == int(want.sum())

    def test_fold_ground_truth_on_session_cache_mix_templates(self):
        """The benchmark workload's twelve templates, on its dataset."""
        from repro.data.flights import build_flights

        flights = build_flights(rows=60_000, seed=3).table
        predicate = InRange("dep_delay", 0, 1)
        with MatchSession(flights, kernel="fused", max_cached_queries=6) as session:
            for z in ("origin", "dest"):
                for x in ("dep_hour", "day_of_week", "day_of_month"):
                    for kwargs in ({}, {"predicate": predicate}):
                        query = HistogramQuery(
                            z, x, target=TargetSpec(kind="closest_to_uniform"),
                            k=10, **kwargs,
                        )
                        exact = session.prepared(query, seed=1).exact_counts
                        want = exact_candidate_counts(flights, query)
                        assert exact.dtype == np.int64 and exact.flags.owndata
                        assert np.array_equal(exact, want)
                        assert exact.shape == want.shape

    @pytest.mark.parametrize("kernel", KERNEL_SPECS)
    def test_predicate_is_evaluated_once_per_filter_cache_miss(
        self, table, kernel, monkeypatch
    ):
        want_sibling = exact_candidate_counts(table, FILTERED_SIBLING)
        calls = []
        evaluate = Equals.mask

        def counting_mask(self, table):
            calls.append(self)
            return evaluate(self, table)

        monkeypatch.setattr(Equals, "mask", counting_mask)
        config = HistSimConfig(k=3, epsilon=0.15, delta=0.05, sigma=0.0)
        with MatchSession(table, kernel=kernel) as session:
            session.match(QUERY, config=config, seed=5)
            assert calls == []
            session.match(FILTERED_QUERY, config=config, seed=5)
            assert calls == [FILTERED_QUERY.predicate]
            # A sibling template under the same predicate: its ground truth
            # is built from the filter the session already holds.
            sibling = session.prepared(FILTERED_SIBLING, seed=5)
            assert calls == [FILTERED_QUERY.predicate]
            assert np.array_equal(sibling.exact_counts, want_sibling)
            session.prepared(OTHER_FILTER_QUERY, seed=5)
            assert calls == [FILTERED_QUERY.predicate, OTHER_FILTER_QUERY.predicate]

    def test_classic_session_builds_no_codes(self, table):
        with MatchSession(table, kernel="classic") as session:
            assert session.prepared(QUERY, seed=5).pair_codes is None
            assert "pair_codes" not in session.cache_stats.misses

    def test_eviction_releases_pair_codes(self, table):
        channel_query = HistogramQuery(
            "product", "channel", target=TargetSpec(kind="closest_to_uniform"),
            k=2, name="channel",
        )
        with MatchSession(table, kernel="fused") as session:
            prepared = session.prepared(QUERY, seed=5)
            nbytes = prepared.pair_codes.nbytes
            # A second entry over a different (z, x) pair: its own code
            # column, and QUERY stops being the protected most-recent entry.
            session.prepared(channel_query, seed=5)
            before = session.cache_bytes
            assert before >= nbytes
            assert session.evict_prepared((QUERY, session.block_size, 5))
            assert session.cache_stats.evictions.get("pair_codes") == 1
            assert session.cache_bytes <= before - nbytes

    def test_fold_eviction_drops_the_folded_column_with_its_last_user(self, table):
        """A predicated + plain pair over one (z, x): each holds its own
        column, counted once; the folded one goes (and is unpublished) with
        the last entry that uses it, the unfiltered one stays with the
        plain sibling."""
        backend = _UnpublishLog()
        like_four = HistogramQuery(
            "product", "age", target=TargetSpec(kind="candidate", candidate=4),
            k=3, predicate=Equals("channel", 0), name="filtered-like-4",
        )
        session = MatchSession(table, kernel="fused", backend=backend._inner)
        session.backend = backend  # route eviction hooks through the log
        plain = session.prepared(QUERY, seed=5)
        base = session.cache_bytes
        filtered = session.prepared(FILTERED_QUERY, seed=5)
        folded, row_filter = filtered.pair_codes, filtered.row_filter
        assert folded is not plain.pair_codes
        per_entry = folded.nbytes + row_filter.nbytes + filtered.exact_counts.nbytes
        assert session.cache_bytes == base + per_entry
        # A second user of the folded column adds only its own ground truth
        # (cached per template, so: nothing).
        session.prepared(like_four, seed=5)
        assert session.cache_bytes == base + per_entry
        session.prepared(QUERY, seed=5)  # most recent: the plain entry
        assert session.evict_prepared((FILTERED_QUERY, session.block_size, 5))
        assert "pair_codes" not in session.cache_stats.evictions  # still used
        assert backend.unpublished == []
        assert session.evict_prepared((like_four, session.block_size, 5))
        assert session.cache_stats.evictions.get("pair_codes") == 1
        assert [a for a in backend.unpublished if a is folded] == [folded]
        assert any(a is row_filter for a in backend.unpublished)
        assert not any(a is plain.pair_codes for a in backend.unpublished)
        assert session.cache_bytes == base
        # The unfiltered column survived with its plain sibling: a hit.
        hits = session.cache_stats.hits.get("pair_codes", 0)
        assert session.prepared(QUERY, seed=5).pair_codes is plain.pair_codes
        other_plain = HistogramQuery(
            "product", "age", target=TargetSpec(kind="candidate", candidate=2),
            k=3, name="like-2",
        )
        assert session.prepared(other_plain, seed=5).pair_codes is plain.pair_codes
        assert session.cache_stats.hits.get("pair_codes") == hits + 1
        # One pair_codes layer, whatever the columns carry.
        layers = set(session.cache_stats.misses) | set(session.cache_stats.evictions)
        assert {layer for layer in layers if "codes" in layer} == {"pair_codes"}

    def test_fold_sharded_session_ships_codes_and_no_filter(self, table):
        """On the process pool a fused predicated query counts its calls
        from the code segment alone; eviction unlinks it, close leaves
        nothing."""
        config = HistSimConfig(k=3, epsilon=0.15, delta=0.05, sigma=0.0)
        backend = ShardedBackend(2, min_fan_out_rows=0)
        try:
            session = MatchSession(table, kernel="fused", backend=backend)
            serial = run_session(table, FILTERED_QUERY, kernel="narrow")
            outcome = session.match(FILTERED_QUERY, config=config, seed=5)
            assert outcome.report.result.matching == serial.report.result.matching
            assert outcome.report.counters == serial.report.counters
            assert backend.shard_tasks > 0
            kinds = sorted(key[0] for key in backend.store.keys())
            assert kinds == ["codes", "column", "column"]
            folded = session.prepared(FILTERED_QUERY, seed=5).pair_codes
            assert ("codes", id(folded)) in backend.store.keys()
            # The plain sibling publishes its own column; evicting the
            # predicated entry unlinks the folded one only.
            session.match(QUERY, config=config, seed=5)
            plain = session.prepared(QUERY, seed=5).pair_codes
            assert session.evict_prepared((FILTERED_QUERY, session.block_size, 5))
            keys = backend.store.keys()
            assert ("codes", id(folded)) not in keys
            assert ("codes", id(plain)) in keys
            assert not any(key[0] == "filter" for key in keys)
            session.close()
        finally:
            backend.close()
        assert backend.store.keys() == []
        if os.path.isdir("/dev/shm"):
            assert not {f for f in os.listdir("/dev/shm") if f.startswith("repro-")}

    def test_rejects_unknown_kernel(self, table):
        with pytest.raises(ValueError):
            MatchSession(table, kernel="turbo")


# ---------------------------------------------------------------------------
# affinity planning + placement
# ---------------------------------------------------------------------------


class TestAffinity:
    def test_policy_tuple_is_canonical(self):
        assert AFFINITY_POLICIES == ("none", "spread", "compact")

    def test_none_disables(self):
        assert plan_affinity(None, 4) is None
        assert plan_affinity("none", 4) is None

    def test_spread_spaces_workers_evenly(self):
        cpus = tuple(range(8))
        assert plan_affinity("spread", 2, cpus) == [{0}, {4}]
        assert plan_affinity("spread", 4, cpus) == [{0}, {2}, {4}, {6}]

    def test_compact_packs_low_cpus(self):
        cpus = tuple(range(8))
        assert plan_affinity("compact", 3, cpus) == [{0}, {1}, {2}]

    def test_oversubscribed_wraps(self):
        cpus = (0, 1)
        assert plan_affinity("spread", 5, cpus) == [{0}, {1}, {0}, {1}, {0}]
        assert plan_affinity("compact", 5, cpus) == [{0}, {1}, {0}, {1}, {0}]

    def test_single_cpu_host(self):
        assert plan_affinity("spread", 3, (0,)) == [{0}, {0}, {0}]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            plan_affinity("diagonal", 2)
        with pytest.raises(ValueError):
            plan_affinity("spread", 0)

    def test_apply_affinity_best_effort(self):
        import os

        cpus = plan_affinity("compact", 1)
        if hasattr(os, "sched_setaffinity"):
            # Re-pinning ourselves to our own full CPU set must succeed.
            assert apply_affinity(0, set(os.sched_getaffinity(0)))
            assert not apply_affinity(0, {10**6})  # nonexistent CPU
        else:  # pragma: no cover - non-Linux
            assert apply_affinity(0, cpus[0]) is False

    def test_worker_pool_pins_and_counts(self):
        with WorkerPool(2, cpu_affinity="compact") as pool:
            import os

            expected = 2 if hasattr(os, "sched_setaffinity") else 0
            assert pool.affinity_applied == expected

    def test_thread_backend_pins_on_first_use(self, table):
        backend = ThreadPoolBackend(2, min_fan_out_rows=0, cpu_affinity="spread")
        try:
            outcome_a = run_session(table, QUERY, kernel="auto")
            config = HistSimConfig(k=3, epsilon=0.15, delta=0.05, sigma=0.0)
            with MatchSession(table, backend=backend, kernel="auto") as session:
                outcome_b = session.match(QUERY, config=config, seed=5)
            import os

            if hasattr(os, "sched_setaffinity"):
                assert backend.affinity_applied == 2
            assert backend.describe()["cpu_affinity"] == "spread"
            assert (
                outcome_b.report.result.matching
                == outcome_a.report.result.matching
            )
        finally:
            backend.close()

    def test_backend_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            ThreadPoolBackend(2, cpu_affinity="diagonal")
        with pytest.raises(ValueError):
            plan_affinity("diagonal", 2, (0, 1))
