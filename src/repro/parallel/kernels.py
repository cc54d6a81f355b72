"""Counting kernels: the one place window counting arithmetic lives.

Every backend routes the gather + filter + bincount of a window's blocks
through :func:`count_window`, which dispatches to one of three registered
kernels — all byte-identical in output to the legacy serial path, differing
only in how many bytes they materialize on the way:

- ``"classic"`` — the legacy arithmetic, verbatim: an int64 row-index
  gather (:meth:`~repro.storage.blocks.BlockLayout.rows_of_blocks`), fancy
  indexing into fresh stored-dtype arrays, an int64 upcast of both columns,
  then ``z * G + x`` in int64 and one bincount.  Kept as the reference
  kernel the identity tests pin the others against.
- ``"narrow"`` — gathers the window as whole blocks (a zero-copy slice
  when the blocks are one contiguous run, otherwise one ``take`` through a
  ``(num_blocks, block_size)`` view) instead of materializing a row-index
  array, and computes the pair codes directly in :func:`pair_code_dtype` —
  the narrowest dtype that holds ``num_candidates * num_groups`` codes —
  skipping the per-window int64 upcasts entirely.  Selected automatically
  whenever the code space fits ``uint32``.
- ``"fused"`` — counts a *prepared pair-code column* (``z * G + x``
  materialized once per ``(z, x, predicate)`` by :func:`build_pair_codes`
  and cached in the session's prepared-artifact layer), so per-window work
  degenerates to block gather + bincount.  A single-run window bincounts a
  zero-copy view: zero bytes moved.

**The sentinel bin.**  A code column built under a row filter carries the
filter: every row the filter drops holds the one code no pair can have,
``C*G`` (the column's dtype is chosen to hold it).  The fused kernel
therefore always counts into ``C*G + 1`` bins and drops the last — one
expression for plain and folded columns, no filter gather and no boolean
compress per window — and :func:`count_codes` takes a predicated query's
exact ground truth as one ``bincount`` of the column.  A code *above* the
sentinel is rejected, never miscounted.  :func:`check_pair_codes` is the
cheap test a consumer runs on a column it is handed together with the
filter it is said to carry.

Codes are exact in any of these dtypes (values are validated in
``[0, cardinality)`` by :class:`~repro.storage.table.ColumnTable`, and the
narrow dtype is chosen to hold ``C*G - 1``, or the sentinel ``C*G`` for a
folded column), and ``np.bincount`` output is int64 regardless of input
dtype, so kernel choice can never change counts — only bytes moved and
nanoseconds spent.

Beside the kernels sits :func:`tally_window`, the candidate-column-only
reduction — the matrix's row sums without the matrix — that the sampling
engine runs per window when the code space is larger than a window's rows
and the ``(candidate, group)`` cells are counted once per sampling call
instead.  It is not a kernel: nothing selects it, and it reuses the kernels'
whole-block gather.  :func:`rows_per_candidate` is the same vector taken
from a matrix already counted — the one row-sum expression of the engine
and the algorithm.

Each kernel returns ``(counts, moved_bytes)`` where ``moved_bytes`` counts
bytes *materialized into fresh arrays* by the kernel (gathers, upcasts,
code arrays, filter outputs); zero-copy views contribute nothing.  That is
the quantity the profiler's ``bytes_moved`` counter reports and the kernel
benchmark gates on.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..storage.blocks import BlockLayout

__all__ = [
    "KERNELS",
    "KERNEL_SPECS",
    "KernelChoice",
    "build_pair_codes",
    "check_pair_codes",
    "choose_kernel",
    "count_codes",
    "count_pairs",
    "count_window",
    "pair_code_dtype",
    "rows_per_candidate",
    "tally_window",
]

#: Concrete kernel names, in the order auto-selection prefers them.
KERNELS = ("fused", "narrow", "classic")

#: What sessions/CLI accept: ``"auto"`` picks per :func:`choose_kernel`.
KERNEL_SPECS = ("auto", "classic", "narrow", "fused")


def pair_code_dtype(num_candidates: int, num_groups: int) -> np.dtype:
    """Narrowest dtype holding every pair code in ``[0, C*G)``.

    ``uint8``/``uint16``/``uint32`` when the code space fits (``bincount``
    accepts them), otherwise ``int64`` — never ``uint64``, which
    ``bincount`` rejects.
    """
    return _narrowest_dtype(max(int(num_candidates) * int(num_groups) - 1, 0))


def _narrowest_dtype(top: int) -> np.dtype:
    """Narrowest ``bincount``-able dtype holding every value in ``[0, top]``."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _pair_codes(
    z: np.ndarray, x: np.ndarray, num_groups: int, dtype: np.dtype
) -> np.ndarray:
    """``z * num_groups + x`` computed directly in ``dtype``.

    ``casting="unsafe"`` is required for the cross-kind cast (stored
    columns may be unsigned, the target may differ) and is exact here:
    values are validated non-negative and the dtype holds the full code
    span.
    """
    codes = np.multiply(z, num_groups, dtype=dtype, casting="unsafe")
    np.add(codes, x, out=codes, casting="unsafe")
    return codes


def build_pair_codes(
    z: np.ndarray,
    x: np.ndarray,
    num_candidates: int,
    num_groups: int,
    row_filter: np.ndarray | None = None,
) -> np.ndarray:
    """The prepared pair-code column the ``"fused"`` kernel counts.

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
    return _count_pairs_moved(z, x, num_candidates, num_groups)[0]


def _count_pairs_moved(
    z: np.ndarray, x: np.ndarray, num_candidates: int, num_groups: int
) -> tuple[np.ndarray, int]:
    """:func:`count_pairs` plus the bytes it materialized (the code array)."""
    codes = _pair_codes(z, x, num_groups, pair_code_dtype(num_candidates, num_groups))
    flat = np.bincount(codes, minlength=num_candidates * num_groups)
    counts = flat.reshape(num_candidates, num_groups).astype(np.int64, copy=False)
    return counts, int(codes.nbytes)


class KernelChoice(NamedTuple):
    """A kernel spec resolved against one code space.

    What :func:`count_window` dispatches on.  A caller that counts many
    windows over one ``(z, x)`` pair (:class:`~repro.parallel.CountSource`)
    resolves once with :func:`choose_kernel` and passes the choice in the
    spec's place, together with the ``codes`` it was resolved for.
    """

    name: str
    code_dtype: np.dtype


def choose_kernel(
    kernel: str,
    num_candidates: int,
    num_groups: int,
    codes: np.ndarray | None = None,
) -> KernelChoice:
    """Auto-selection: the concrete kernel (and code dtype) a spec resolves to.

    A prepared code column always wins (the expensive part is already
    paid).  Otherwise ``"narrow"`` whenever the code space fits below
    int64 — including for ``kernel="fused"`` without codes, which degrades
    gracefully rather than failing — and ``"classic"`` as the fallback.
    """
    if kernel not in KERNEL_SPECS:
        raise ValueError(f"kernel must be one of {KERNEL_SPECS}, got {kernel!r}")
    code_dtype = pair_code_dtype(num_candidates, num_groups)
    if kernel == "classic":
        name = "classic"
    elif codes is not None:
        name = "fused"
    elif code_dtype != np.dtype(np.int64):
        name = "narrow"
    else:
        name = "classic"
    return KernelChoice(name, code_dtype)


def _block_gather(blocks: np.ndarray, layout: BlockLayout):
    """``gather(column) -> (rows, moved_bytes)`` for one window's blocks.

    The rows are those of :meth:`BlockLayout.rows_of_blocks`, in the order
    the blocks appear.  One contiguous run is a zero-copy slice; anything
    else is taken as whole blocks through a ``(num_blocks, block_size)``
    view — one call whatever the number of runs.
    """
    top = int(blocks.max())
    if blocks.min() < 0 or top >= layout.num_blocks:
        raise ValueError("block index out of range")
    size = layout.block_size
    first, last = int(blocks[0]), int(blocks[-1])
    if last - first == blocks.size - 1 and (np.diff(blocks) == 1).all():
        lo, hi = first * size, min((last + 1) * size, layout.num_rows)
        return lambda column: (column[lo:hi], 0)
    whole = layout.num_rows // size
    body_rows = whole * size
    # The short last block (index ``whole``, when there is one) has its own
    # length, so it is spliced in wherever the window names it — last, for
    # a sorted window.
    short_at = np.flatnonzero(blocks == whole) if top == whole else blocks[:0]

    def gather(column: np.ndarray) -> tuple[np.ndarray, int]:
        body = column[:body_rows].reshape(whole, size)
        if short_at.size == 0:
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

    return gather


def _classic_kernel(
    z, x, blocks, layout, num_candidates, num_groups, row_filter, filter_slice,
    codes, code_dtype,
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


def _narrow_kernel(
    z, x, blocks, layout, num_candidates, num_groups, row_filter, filter_slice,
    codes, code_dtype,
) -> tuple[np.ndarray, int]:
    """Whole-block gather + narrow-dtype codes (no row index, no upcast)."""
    gather = _block_gather(blocks, layout)
    zz, z_moved = gather(z)
    xx, x_moved = gather(x)
    moved = z_moved + x_moved
    if row_filter is not None:
        keep, keep_moved = gather(row_filter)
        moved += keep_moved
    else:
        keep = filter_slice
    if keep is not None:
        zz = zz[keep]
        xx = xx[keep]
        moved += int(zz.nbytes + xx.nbytes)
    flat_codes = _pair_codes(zz, xx, num_groups, code_dtype)
    moved += int(flat_codes.nbytes)
    flat = np.bincount(flat_codes, minlength=num_candidates * num_groups)
    counts = flat.reshape(num_candidates, num_groups).astype(np.int64, copy=False)
    return counts, moved


def _fused_kernel(
    z, x, blocks, layout, num_candidates, num_groups, row_filter, filter_slice,
    codes, code_dtype,
) -> tuple[np.ndarray, int]:
    """Block gather + bincount over the prepared pair-code column.

    A folded column (:func:`build_pair_codes` with its ``row_filter``) comes
    with no filter and counts its dropped rows into the sentinel bin; a
    plain column with an explicit filter still compresses.
    """
    gather = _block_gather(blocks, layout)
    flat_codes, moved = gather(codes)
    if row_filter is not None:
        keep, keep_moved = gather(row_filter)
        moved += keep_moved
    else:
        keep = filter_slice
    if keep is not None:
        flat_codes = flat_codes[keep]
        moved += int(flat_codes.nbytes)
    return _count_codes(flat_codes, num_candidates, num_groups), moved


#: The kernel registry :func:`count_window` dispatches through.
KERNEL_REGISTRY = {
    "classic": _classic_kernel,
    "narrow": _narrow_kernel,
    "fused": _fused_kernel,
}


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
    kernel: str | KernelChoice = "auto",
) -> tuple[np.ndarray, int]:
    """Count ``(z, x)`` pairs of the rows covered by ``blocks``.

    The shared entry point of every backend's window counting: resolves
    ``kernel`` (a spec, see :func:`choose_kernel`, or a choice already
    made for this code space and ``codes``), dispatches to the registry,
    and returns the int64 ``(num_candidates, num_groups)`` count matrix
    plus the bytes the kernel materialized.

    The filter comes either as ``row_filter`` (a full-table boolean mask)
    or ``filter_slice`` (a mask already aligned to the blocks' rows in
    block order) — mutually exclusive, same arithmetic.  ``codes`` is the
    prepared pair-code column (:func:`build_pair_codes`) enabling the
    fused kernel; a column built with a ``row_filter`` already carries it
    and is passed without one.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    if blocks.size == 0:
        return np.zeros((num_candidates, num_groups), dtype=np.int64), 0
    if not isinstance(kernel, KernelChoice):
        kernel = choose_kernel(kernel, num_candidates, num_groups, codes=codes)
    return KERNEL_REGISTRY[kernel.name](
        z, x, blocks, layout, num_candidates, num_groups,
        row_filter, filter_slice, codes, kernel.code_dtype,
    )


def rows_per_candidate(counts: np.ndarray) -> np.ndarray:
    """Rows per candidate of a ``(candidate, group)`` count matrix.

    ``counts.sum(axis=1)`` as a fresh int64 vector, by the reduction that is
    2–3x faster on the narrow C-ordered matrices every kernel returns (3.3
    against 7.6 µs at 347 x 24, 9 against 27 at 2110 x 2) and level with it
    on square ones.  Integer addition, so exact in any order.  Only a
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
    whose ``(candidate, group)`` cells are counted later, all at once.
    Returns the int64 tally plus the bytes materialized, as the kernels do.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    if blocks.size == 0:
        return np.zeros(num_candidates, dtype=np.int64), 0
    gather = _block_gather(blocks, layout)
    zz, moved = gather(z)
    if row_filter is not None:
        keep, keep_moved = gather(row_filter)
        zz = zz[keep]
        moved += keep_moved + int(zz.nbytes)
    tally = np.bincount(zz, minlength=num_candidates)
    return tally.astype(np.int64, copy=False), moved
