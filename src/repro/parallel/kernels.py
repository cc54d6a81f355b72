"""Counting kernels: the one place window counting arithmetic lives.

Every backend routes the gather + filter + bincount of a window's blocks
through :func:`count_window` (or its ascending entry, below), which picks
its path from what it is handed:

- with a **prepared pair-code column** (``z * G + x`` materialized once per
  ``(z, x, predicate)`` by :func:`build_pair_codes` and cached in the
  session's prepared-artifact layer), a block gather of that column and one
  bincount — a single-run window bincounts a zero-copy view;
- without one, the same block gather of ``z`` and ``x`` and the pair codes
  built per window in :func:`pair_code_dtype`, the narrowest dtype that
  holds ``num_candidates * num_groups`` codes (no row-index array, no int64
  upcast).

Both are one kernel, ``_block_kernel``.  The block gather is a zero-copy
slice when the blocks are one contiguous run, otherwise one ``take``
through a ``(num_blocks, block_size)`` view; the window's plan (one run or
not, and where the table's short last block sits) is made once per call
and serves every column gathered, with no per-call closure.  A window far
larger than an engine window — the deferred regime's call-end count, a
worker's shard — that holds a few long runs gathers nothing: its codes
are built run by run from zero-copy slices into one buffer and bincounted
once (``_run_kernel``; the size and run-length cut is
``_RUN_PATH_BLOCKS`` / ``_RUN_PATH_RUN_BLOCKS``).  Below the size cut the
plan stays O(1); above it one ``diff`` pass finds the runs.

The sampling engine's ascending-window contract reaches the kernel here.
:func:`count_window` takes blocks in any order, repeats included, and
checks them with a min/max pass and, for contiguity, a ``diff``.  Its
ascending entry, :func:`count_window_ascending`, takes a window ascending
and distinct — what the engine builds, and what
:meth:`~repro.parallel.ExecutionBackend.count_blocks` documents — and reads
the same facts off its two ends in O(1): it is in range when its first and
last blocks are, one run when it spans as many blocks as it holds, and only
its last block can be the short one.  Every inline ``count_blocks``
(serial, and a worker backend below its floor) calls it; counts and bytes
are those of :func:`count_window`.  :func:`tally_window`, which only the
engine calls, takes the ascending contract itself.

``count_window(kernel="classic")`` runs the legacy arithmetic instead,
verbatim — an int64 row-index gather
(:meth:`~repro.storage.blocks.BlockLayout.rows_of_blocks`), fancy indexing,
an int64 upcast of both columns, ``z * G + x`` in int64 and one bincount —
kept as the reference the identity tests and the kernel microbench compare
against; nothing in the library selects it.

**The sentinel bin.**  A code column built under a row filter carries the
filter: every row the filter drops holds the one code no pair can have,
``C*G`` (the column's dtype is chosen to hold it).  A prepared column is
therefore always counted into ``C*G + 1`` bins and the last dropped — one
expression for plain and folded columns, no filter gather and no boolean
compress per window — and :func:`count_codes` takes a predicated query's
exact ground truth as one ``bincount`` of the column.  A code *above* the sentinel is
rejected, never miscounted.  :func:`check_pair_codes` is the cheap test a
consumer runs on a column it is handed together with the filter it is said
to carry.

Codes are exact in any of these dtypes (values are validated in
``[0, cardinality)`` by :class:`~repro.storage.table.ColumnTable`, and the
narrow dtype is chosen to hold ``C*G - 1``, or the sentinel ``C*G`` for a
folded column), and ``np.bincount`` output is int64 regardless of input
dtype, so the path taken can never change counts — only bytes moved and
nanoseconds spent.

Beside the kernel sits :func:`tally_window`, the candidate-column-only
reduction — the matrix's row sums without the matrix — that the sampling
engine runs per window when the code space is larger than a window's rows
and the ``(candidate, group)`` cells are counted once per sampling call
instead.  It reuses the kernel's whole-block gather.
:func:`rows_per_candidate` is the same vector taken from a matrix already
counted — the one row-sum expression of the engine and the algorithm.

:func:`count_window` returns ``(counts, moved_bytes)`` where
``moved_bytes`` counts bytes *materialized into fresh arrays* (gathers,
upcasts, code arrays, filter outputs); zero-copy views contribute nothing.
That is the quantity the profiler's ``bytes_moved`` counter reports.
"""

from __future__ import annotations

import numpy as np

from ..storage.blocks import BlockLayout

__all__ = [
    "KERNEL_SPECS",
    "build_pair_codes",
    "check_pair_codes",
    "count_codes",
    "count_pairs",
    "count_window",
    "count_window_ascending",
    "pair_code_dtype",
    "rows_per_candidate",
    "tally_window",
]

#: What sessions and the CLI accept: ``"fused"`` prepares and caches each
#: query's pair-code column, ``"auto"`` counts one only where an artifact
#: already has it.  Either way the answers are byte-identical.
KERNEL_SPECS = ("auto", "fused")

#: The code dtypes, narrowest first: ``bincount`` accepts each, and never
#: ``uint64``.
_CODE_DTYPES = tuple(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.int64))


def pair_code_dtype(num_candidates: int, num_groups: int) -> np.dtype:
    """Narrowest dtype holding every pair code in ``[0, C*G)``.

    ``uint8``/``uint16``/``uint32`` when the code space fits (``bincount``
    accepts them), otherwise ``int64`` — never ``uint64``, which
    ``bincount`` rejects.
    """
    return _narrowest_dtype(int(num_candidates) * int(num_groups) - 1)


def _narrowest_dtype(top: int) -> np.dtype:
    """Narrowest ``bincount``-able dtype holding every value in ``[0, top]``.

    Three integer comparisons, so a window that builds its codes can
    resolve the dtype on every call.
    """
    return _CODE_DTYPES[(top > 0xFF) + (top > 0xFFFF) + (top > 0xFFFF_FFFF)]


def _pair_codes(
    z: np.ndarray,
    x: np.ndarray,
    num_groups: int,
    dtype: np.dtype,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``z * num_groups + x`` computed directly in ``dtype`` (into ``out``,
    a ``dtype`` slice of a larger buffer, when given).

    ``casting="unsafe"`` is required for the cross-kind cast (stored
    columns may be unsigned, the target may differ) and is exact here:
    values are validated non-negative and the dtype holds the full code
    span.
    """
    codes = np.multiply(z, num_groups, out=out, dtype=dtype, casting="unsafe")
    np.add(codes, x, out=codes, casting="unsafe")
    return codes


def build_pair_codes(
    z: np.ndarray,
    x: np.ndarray,
    num_candidates: int,
    num_groups: int,
    row_filter: np.ndarray | None = None,
) -> np.ndarray:
    """The prepared pair-code column :func:`count_window` counts.

    Materialized once per ``(z, x)`` column pair and ``row_filter`` (memory
    cost: one item of the code dtype per row) and cached/published like any
    other prepared artifact; read-only so every consumer can share it.

    With ``row_filter`` (a full-table boolean mask) the column is *folded*:
    a row the filter drops holds the sentinel ``num_candidates *
    num_groups`` instead of its pair code, and the dtype is the narrowest
    holding the sentinel — one step wider than :func:`pair_code_dtype` only
    when ``C*G`` sits exactly on a dtype edge.
    """
    if row_filter is None:
        codes = _pair_codes(
            z, x, num_groups, pair_code_dtype(num_candidates, num_groups)
        )
    else:
        sentinel = int(num_candidates) * int(num_groups)
        dtype = _narrowest_dtype(sentinel)
        codes = _pair_codes(z, x, num_groups, dtype)
        # sentinel - (sentinel - code) * keep, in place: three arithmetic
        # passes where a masked store costs a branch per row.  Exact: every
        # intermediate lies in [0, sentinel], which the dtype holds.
        top = dtype.type(sentinel)
        np.subtract(top, codes, out=codes)
        np.multiply(codes, row_filter, out=codes, casting="unsafe")
        np.subtract(top, codes, out=codes)
    codes.setflags(write=False)
    return codes


#: Rows :func:`check_pair_codes` probes; a mis-paired column passes only if
#: it agrees with the filter on every one of them.
_FOLD_PROBES = 64


def check_pair_codes(
    codes: np.ndarray,
    row_filter: np.ndarray | None,
    num_candidates: int,
    num_groups: int,
) -> None:
    """Reject a code column that cannot be ``row_filter``'s folded column.

    What a consumer handed ``(codes, row_filter)`` — one entry per row each —
    can check without a pass over the rows: a dtype that holds the sentinel,
    and, at a few dozen evenly strided rows, the sentinel exactly where the
    filter drops the row (nowhere, for ``row_filter=None``).  A plain column
    passed off as folded fails at the first dropped row a probe lands on.
    Raises :class:`ValueError`.
    """
    sentinel = int(num_candidates) * int(num_groups)
    if row_filter is not None and (
        codes.dtype.kind not in "iu" or np.iinfo(codes.dtype).max < sentinel
    ):
        raise ValueError(
            f"codes of dtype {codes.dtype} cannot hold the sentinel "
            f"{sentinel} of a column folded with a row_filter"
        )
    at = np.arange(0, codes.size, max(1, codes.size // _FOLD_PROBES))
    dropped = ~row_filter[at] if row_filter is not None else False
    if ((codes[at] == sentinel) != dropped).any():
        raise ValueError(
            "codes are not folded with this row_filter: build them with "
            "build_pair_codes(..., row_filter=row_filter)"
        )


def _count_codes(
    flat_codes: np.ndarray, num_candidates: int, num_groups: int
) -> np.ndarray:
    """Bincount pair codes into the count matrix, the sentinel bin dropped.

    The result is a view of the ``C*G + 1`` buffer ``bincount`` returned.
    """
    cells = num_candidates * num_groups
    flat = np.bincount(flat_codes, minlength=cells + 1)
    if flat.size != cells + 1:
        raise ValueError(
            f"pair code above the sentinel {cells}: the code column does not "
            f"belong to a {num_candidates} x {num_groups} code space"
        )
    return flat[:cells].reshape(num_candidates, num_groups).astype(
        np.int64, copy=False
    )


def count_codes(
    codes: np.ndarray, num_candidates: int, num_groups: int
) -> np.ndarray:
    """Exact ``(candidate, group)`` counts of a whole pair-code column.

    For a column folded with a row filter these are the counts *under the
    filter* — by the definition of a pair code, the matrix
    :meth:`ExecutionBackend.count_table` computes from ``z``, ``x`` and the
    filter, without gathering or compressing a row.  int64, own memory.
    """
    return _count_codes(codes, num_candidates, num_groups).copy()


def count_pairs(
    z: np.ndarray, x: np.ndarray, num_candidates: int, num_groups: int
) -> np.ndarray:
    """Bincount already-gathered ``(z, x)`` codes into a count matrix."""
    codes = _pair_codes(z, x, num_groups, pair_code_dtype(num_candidates, num_groups))
    flat = np.bincount(codes, minlength=num_candidates * num_groups)
    return flat.reshape(num_candidates, num_groups).astype(np.int64, copy=False)


def _plan_ascending(blocks: np.ndarray, layout: BlockLayout) -> tuple[bool, tuple]:
    """``(run, short_at)`` of a non-empty window ascending and distinct, as
    the sampling engine builds it, checked at its two ends in O(1).

    Such a window is in range when its first and last blocks are, and one
    contiguous run exactly when it spans ``size`` blocks.  Only its last
    block can be the table's short one.
    """
    first, last = int(blocks[0]), int(blocks[-1])
    if first < 0 or last >= layout.num_blocks:
        raise ValueError("block index out of range")
    if last - first == blocks.size - 1:
        return True, ()
    short = last == layout.num_rows // layout.block_size
    return False, (blocks.size - 1,) if short else ()


def _plan_any(blocks: np.ndarray, layout: BlockLayout) -> tuple[bool, tuple]:
    """:func:`_plan_ascending` for blocks in any order, repeats included:
    a min/max range check and a pass for contiguity."""
    top = int(blocks.max())
    if blocks.min() < 0 or top >= layout.num_blocks:
        raise ValueError("block index out of range")
    first, last = int(blocks[0]), int(blocks[-1])
    if last - first == blocks.size - 1 and (np.diff(blocks) == 1).all():
        return True, ()
    whole = layout.num_rows // layout.block_size
    return False, tuple(np.flatnonzero(blocks == whole)) if top == whole else ()


def _gather(
    column: np.ndarray,
    blocks: np.ndarray,
    layout: BlockLayout,
    run: bool,
    short_at: tuple,
) -> tuple[np.ndarray, int]:
    """``(rows, moved_bytes)``: ``column`` at the rows of ``blocks``, in the
    order the blocks appear (those of :meth:`BlockLayout.rows_of_blocks`).

    ``run`` and ``short_at`` are the window's plan (:func:`_plan_ascending`
    or :func:`_plan_any`), made once per call for every column it gathers.
    One contiguous run is a zero-copy slice; anything else is taken as whole
    blocks through a ``(num_blocks, block_size)`` view, one call whatever the
    number of runs, with the short last block spliced in wherever the window
    names it (``short_at``).
    """
    size = layout.block_size
    if run:
        lo = int(blocks[0]) * size
        return column[lo : min(lo + blocks.size * size, layout.num_rows)], 0
    whole = layout.num_rows // size
    body_rows = whole * size
    body = column[:body_rows].reshape(whole, size)
    if not short_at:
        out = body.take(blocks, axis=0).reshape(-1)
    else:
        pieces, prev = [], 0
        for at in short_at:
            pieces.append(body.take(blocks[prev:at], axis=0).reshape(-1))
            pieces.append(column[body_rows:])
            prev = at + 1
        pieces.append(body.take(blocks[prev:], axis=0).reshape(-1))
        out = np.concatenate(pieces)
    return out, int(out.nbytes)


def _classic_kernel(
    z, x, blocks, layout, num_candidates, num_groups, row_filter, filter_slice,
) -> tuple[np.ndarray, int]:
    """The legacy serial path, with its materializations accounted."""
    rows = layout.rows_of_blocks(blocks)
    moved = int(rows.nbytes)
    gathered_z = z[rows]
    gathered_x = x[rows]
    moved += int(gathered_z.nbytes + gathered_x.nbytes)
    zz = gathered_z.astype(np.int64, copy=False)
    xx = gathered_x.astype(np.int64, copy=False)
    if zz is not gathered_z:
        moved += int(zz.nbytes)
    if xx is not gathered_x:
        moved += int(xx.nbytes)
    keep = row_filter[rows] if row_filter is not None else filter_slice
    if keep is not None:
        if row_filter is not None:
            moved += int(keep.nbytes)
        zz = zz[keep]
        xx = xx[keep]
        moved += int(zz.nbytes + xx.nbytes)
    flat_codes = zz * np.int64(num_groups) + xx
    moved += int(flat_codes.nbytes)
    flat = np.bincount(flat_codes, minlength=num_candidates * num_groups)
    counts = flat.reshape(num_candidates, num_groups).astype(np.int64, copy=False)
    return counts, moved


#: A window that is not one run takes the run path (:func:`_long_runs`)
#: from this many blocks up: below it the plan stays O(1), so no engine
#: window of the default 1,024-block lookahead pays for finding its runs.
_RUN_PATH_BLOCKS = 4096

#: ... and when its runs average at least this many blocks.  A run costs
#: about 3 µs of ufunc calls, and the gather it saves about 7 ns a block.
#: On the deferred regime's call-end counts of ``table4_oneshot`` (seed 7,
#: best of nine, 2-vCPU Xeon) the run path took 0.83-0.89x the gather's
#: time on flights-q4 (29,687 blocks in 2 runs), 0.99-1.00x on taxi-q2
#: windows of 6-9 runs (11.2k blocks, 1,250-1,874 a run), 0.97-1.03x at
#: 20-26 runs and 0.98-1.13x on taxi-q1's 30-67 runs (167-374 a run).
_RUN_PATH_RUN_BLOCKS = 1024


def _long_runs(blocks: np.ndarray) -> np.ndarray | None:
    """Where each run of ``blocks`` after the first starts, when the window
    is large and its runs long enough to count in place (one ``diff``
    pass); ``None`` otherwise.  A run is a stretch of consecutive blocks
    in the order given."""
    if blocks.size < _RUN_PATH_BLOCKS:
        return None
    breaks = np.flatnonzero(np.diff(blocks) != 1)
    if blocks.size < (breaks.size + 1) * _RUN_PATH_RUN_BLOCKS:
        return None
    return breaks + 1


def _run_rows(
    blocks: np.ndarray, breaks: np.ndarray, layout: BlockLayout
) -> list[tuple[int, int]]:
    """The ``[start, stop)`` row range of each run, in window order; a run
    ending on the table's short last block stops at the last row."""
    size = layout.block_size
    firsts = blocks[np.concatenate(([0], breaks))] * size
    stops = np.minimum(
        (blocks[np.append(breaks, blocks.size) - 1] + 1) * size, layout.num_rows
    )
    return list(zip(firsts.tolist(), stops.tolist()))


def _run_kernel(
    z, x, spans, num_candidates, num_groups, row_filter, filter_slice, codes,
) -> tuple[np.ndarray, int]:
    """:func:`_block_kernel` for a window of few long runs (``spans``, their
    row ranges): the pair codes are built run by run into one buffer from
    zero-copy slices of ``z`` and ``x`` (or copied from the prepared
    column's), and bincounted once.  No block is gathered, so the buffer
    (and a filter's compress) is all that is materialized."""
    if codes is not None:
        flat_codes = np.concatenate([codes[lo:hi] for lo, hi in spans])
    else:
        dtype = pair_code_dtype(num_candidates, num_groups)
        flat_codes = np.empty(sum(hi - lo for lo, hi in spans), dtype=dtype)
        at = 0
        for lo, hi in spans:
            _pair_codes(
                z[lo:hi], x[lo:hi], num_groups, dtype, out=flat_codes[at : at + hi - lo]
            )
            at += hi - lo
    moved = int(flat_codes.nbytes)
    keep = filter_slice
    if row_filter is not None:
        keep = np.concatenate([row_filter[lo:hi] for lo, hi in spans])
        moved += int(keep.nbytes)
    if keep is not None:
        flat_codes = flat_codes[keep]
        moved += int(flat_codes.nbytes)
    if codes is not None:
        return _count_codes(flat_codes, num_candidates, num_groups), moved
    flat = np.bincount(flat_codes, minlength=num_candidates * num_groups)
    return flat.reshape(num_candidates, num_groups).astype(np.int64, copy=False), moved


def _block_kernel(
    z, x, blocks, layout, num_candidates, num_groups, row_filter, filter_slice,
    codes, plan,
) -> tuple[np.ndarray, int]:
    """Whole-block gather + bincount of pair codes: the prepared column's
    when there is one, otherwise narrow codes built from the gathered
    ``z`` and ``x``.  ``plan`` is the window's ``(run, short_at)``.

    A folded column (:func:`build_pair_codes` with its ``row_filter``) comes
    with no filter and counts its dropped rows into the sentinel bin; a
    plain column with an explicit filter still compresses.  A large window
    of few long runs gathers nothing (:func:`_run_kernel`).
    """
    breaks = None if plan[0] else _long_runs(blocks)
    if breaks is not None:
        return _run_kernel(
            z, x, _run_rows(blocks, breaks, layout), num_candidates, num_groups,
            row_filter, filter_slice, codes,
        )
    if row_filter is not None:
        keep, moved = _gather(row_filter, blocks, layout, *plan)
    else:
        keep, moved = filter_slice, 0
    if codes is not None:
        flat_codes, codes_moved = _gather(codes, blocks, layout, *plan)
        moved += codes_moved
        if keep is not None:
            flat_codes = flat_codes[keep]
            moved += int(flat_codes.nbytes)
        return _count_codes(flat_codes, num_candidates, num_groups), moved
    zz, z_moved = _gather(z, blocks, layout, *plan)
    xx, x_moved = _gather(x, blocks, layout, *plan)
    if keep is not None:
        zz = zz[keep]
        xx = xx[keep]
        moved += int(zz.nbytes + xx.nbytes)
    flat_codes = _pair_codes(
        zz, xx, num_groups, pair_code_dtype(num_candidates, num_groups)
    )
    moved += z_moved + x_moved + int(flat_codes.nbytes)
    # Codes built here hold no sentinel: no spare bin, nothing to check.
    flat = np.bincount(flat_codes, minlength=num_candidates * num_groups)
    counts = flat.reshape(num_candidates, num_groups).astype(np.int64, copy=False)
    return counts, moved


def count_window(
    z: np.ndarray,
    x: np.ndarray,
    blocks: np.ndarray,
    layout: BlockLayout,
    num_candidates: int,
    num_groups: int,
    *,
    row_filter: np.ndarray | None = None,
    filter_slice: np.ndarray | None = None,
    codes: np.ndarray | None = None,
    kernel: str = "auto",
) -> tuple[np.ndarray, int]:
    """Count ``(z, x)`` pairs of the rows covered by ``blocks``.

    The shared entry point of every backend's window counting: returns the
    int64 ``(num_candidates, num_groups)`` count matrix plus the bytes
    materialized on the way.  ``blocks`` may come in any order, repeats
    included; they are range-checked with a min/max pass.  ``codes`` is the
    prepared pair-code column (:func:`build_pair_codes`); when given, it is
    what is counted, and a column built with a ``row_filter`` already
    carries it and is passed without one.  ``kernel="classic"`` runs the
    legacy reference arithmetic on ``z`` and ``x`` instead; any other value
    lets the inputs decide.

    The filter comes either as ``row_filter`` (a full-table boolean mask)
    or ``filter_slice`` (a mask already aligned to the blocks' rows in
    block order) — mutually exclusive, same arithmetic.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    if blocks.size == 0:
        return np.zeros((num_candidates, num_groups), dtype=np.int64), 0
    if kernel == "classic":
        return _classic_kernel(
            z, x, blocks, layout, num_candidates, num_groups,
            row_filter, filter_slice,
        )
    return _block_kernel(
        z, x, blocks, layout, num_candidates, num_groups,
        row_filter, filter_slice, codes, _plan_any(blocks, layout),
    )


def count_window_ascending(
    z: np.ndarray,
    x: np.ndarray,
    blocks: np.ndarray,
    layout: BlockLayout,
    num_candidates: int,
    num_groups: int,
    *,
    row_filter: np.ndarray | None = None,
    codes: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """:func:`count_window` for an int64 window ascending and distinct, as
    the sampling engine builds it and
    :meth:`~repro.parallel.ExecutionBackend.count_blocks` is handed it.

    The same counts and bytes, with the checks that construction makes
    O(1): the range is read off the window's first and last block, and it
    is one run exactly when it spans as many blocks as it holds.  A block out
    of range at either end raises the same :class:`ValueError`.
    """
    if blocks.size == 0:
        return np.zeros((num_candidates, num_groups), dtype=np.int64), 0
    return _block_kernel(
        z, x, blocks, layout, num_candidates, num_groups,
        row_filter, None, codes, _plan_ascending(blocks, layout),
    )


def rows_per_candidate(counts: np.ndarray) -> np.ndarray:
    """Rows per candidate of a ``(candidate, group)`` count matrix.

    ``counts.sum(axis=1)`` as a fresh int64 vector, by the reduction that is
    2–3x faster on the narrow C-ordered matrices :func:`count_window`
    returns (3.3 against 7.6 µs at 347 x 24, 9 against 27 at 2110 x 2) and
    level with it on square ones.  Integer addition, so exact in any order.  Only a
    Fortran-ordered or few-cell matrix takes longer this way (under a
    microsecond, 15% at 7641 x 24); nothing here produces one, so there is
    one expression.  ``dtype`` keeps ``sum``'s widening of a narrower
    integer input, which ``einsum`` alone would not do.
    """
    return np.einsum("ij->i", counts, dtype=np.int64)


def tally_window(
    z: np.ndarray,
    blocks: np.ndarray,
    layout: BlockLayout,
    num_candidates: int,
    *,
    row_filter: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Rows per candidate among the rows covered by ``blocks``.

    The row sums of :func:`count_window`'s matrix without the matrix: one
    gather of the candidate column (and of the filter), one bincount to
    ``num_candidates`` cells.  What block selection needs from a window
    whose ``(candidate, group)`` cells are counted later, all at once: the
    deferred regime's per-window tally.  Returns the int64 tally plus the
    bytes materialized, as :func:`count_window` does.  ``blocks`` is an
    int64 window ascending and distinct, as the engine builds it, checked
    at its two ends as :func:`count_window_ascending` checks it.
    """
    if blocks.size == 0:
        return np.zeros(num_candidates, dtype=np.int64), 0
    plan = _plan_ascending(blocks, layout)
    zz, moved = _gather(z, blocks, layout, *plan)
    if row_filter is not None:
        keep, keep_moved = _gather(row_filter, blocks, layout, *plan)
        zz = zz[keep]
        moved += keep_moved + int(zz.nbytes)
    tally = np.bincount(zz, minlength=num_candidates)
    return tally.astype(np.int64, copy=False), moved
