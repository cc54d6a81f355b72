"""Worker-side execution: count one shard's ``(candidate, group)`` pairs.

A pool worker runs the same pure kernel,
:func:`~repro.parallel.kernels.count_window`, as the serial backend, the
worker backends' inline path and the thread transport — over shared-memory
views instead of the coordinator's own columns — so there is exactly one
implementation of the arithmetic whose exactness the byte-identity
guarantee rests on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..storage.blocks import BlockLayout
from .kernels import KernelChoice, count_window
from .shm import SegmentRef, attach_segment

__all__ = ["ShardTask", "ShardResult", "worker_loop"]


@dataclass(frozen=True)
class ShardTask:
    """One shard's counting assignment, as shipped over the task queue.

    Column payloads travel as :class:`SegmentRef`\\ s (names, not data); the
    only arrays pickled per task are the shard's block list and, for
    one-shot exact passes, ``filter_values`` — the row filter *sliced to the
    shard's rows* (shipping a slice beats publishing a throwaway full-table
    mask to shared memory, where worker attachment caches would pin it).
    """

    task_id: int
    blocks: np.ndarray
    z_ref: SegmentRef
    x_ref: SegmentRef
    filter_ref: SegmentRef | None
    block_size: int
    num_rows: int
    num_candidates: int
    num_groups: int
    filter_values: np.ndarray | None = None
    #: Attachment-GC watermark (:meth:`SharedMemoryStore.gc_state`): when a
    #: worker sees an epoch newer than its cached one, it closes every
    #: cached attachment whose segment name is not in ``live_segments``,
    #: releasing pages the coordinator unlinked on cache eviction.
    gc_epoch: int = 0
    live_segments: tuple[str, ...] | None = None
    #: Prepared pair-code column (published to shared memory) enabling the
    #: fused kernel; ``None`` when the session has not prepared one.
    codes_ref: SegmentRef | None = None
    #: Kernel spec, or the coordinator's resolved choice, forwarded to
    #: :func:`~repro.parallel.kernels.count_window`.
    kernel: str | KernelChoice = "auto"


@dataclass(frozen=True)
class ShardResult:
    """One shard's merged-ready output: exact counts plus a rows tally.

    ``cached_attachments`` reports how many shared-memory attachments the
    worker held *after* this task (post-GC) — observability for the
    segment-forgetting tests; merging ignores it.
    """

    task_id: int
    counts: np.ndarray
    rows: int
    cached_attachments: int = 0
    #: Worker-side execution time of this shard (``perf_counter_ns`` delta,
    #: attach + gather + count; queue time excluded).  Observability only —
    #: merging ignores it; the worker backends fold it into their
    #: ``backend.window`` span attributes and profile rows.
    elapsed_ns: float = 0.0
    #: Bytes the counting kernel materialized for this shard (see
    #: :func:`~repro.parallel.kernels.count_window`).  Observability only;
    #: the coordinator sums it into the profiler's ``nbytes``.
    moved_bytes: int = 0


def _gc_attachments(task: ShardTask, attachments: dict, state: dict) -> None:
    """Epoch-based attachment forgetting (worker-side segment GC).

    The coordinator bumps the store epoch on every unpublish and stamps
    each task with the epoch plus the then-live segment names.  A worker
    seeing a newer epoch closes every cached attachment that is no longer
    live, so pages of evicted cache entries are released while the pool
    keeps running.  Epochs only move forward; an out-of-order older task
    (pulled late from the shared queue) cannot resurrect anything — its
    stale refs would re-attach and fail, and the coordinator never
    dispatches refs it has unlinked.
    """
    if task.live_segments is None or task.gc_epoch <= state.get("epoch", 0):
        return
    state["epoch"] = task.gc_epoch
    live = set(task.live_segments)
    for name in [name for name in attachments if name not in live]:
        entry = attachments.pop(name)
        shm = entry[0]
        # Drop the NumPy view before closing: mmap.close() raises
        # BufferError while exported buffers exist, which would silently
        # keep the evicted pages pinned.
        del entry
        try:
            shm.close()
        except Exception:
            pass


def _run_task(task: ShardTask, attachments: dict, shared_tracker: bool) -> ShardResult:
    """Execute one task against cached shared-memory attachments."""
    started = time.perf_counter_ns()

    def view(ref: SegmentRef) -> np.ndarray:
        if ref.name not in attachments:
            attachments[ref.name] = attach_segment(ref, shared_tracker)
        return attachments[ref.name][1]

    layout = BlockLayout(task.num_rows, task.block_size)
    row_filter = view(task.filter_ref) if task.filter_ref is not None else None
    codes = view(task.codes_ref) if task.codes_ref is not None else None
    counts, moved = count_window(
        view(task.z_ref),
        view(task.x_ref),
        task.blocks,
        layout,
        task.num_candidates,
        task.num_groups,
        row_filter=row_filter,
        filter_slice=task.filter_values,
        codes=codes,
        kernel=task.kernel,
    )
    return ShardResult(
        task_id=task.task_id,
        counts=counts,
        rows=int(counts.sum()),
        cached_attachments=len(attachments),
        elapsed_ns=float(time.perf_counter_ns() - started),
        moved_bytes=moved,
    )


def worker_loop(task_queue, result_queue, shared_tracker: bool = False) -> None:
    """Entry point of one pool worker process.

    Pulls :class:`ShardTask`\\ s until the ``None`` sentinel, caching
    shared-memory attachments across tasks (attach once per dataset, not per
    window) and *forgetting* attachments to segments the coordinator has
    since unpublished (epoch GC — see :func:`_gc_attachments`), so cache
    eviction actually frees memory while the pool lives.  Failures are
    reported per-task as ``(task_id, None, error)`` so the coordinator can
    raise with context instead of hanging.  ``shared_tracker`` reflects the
    pool's start method (see :func:`~repro.parallel.shm.attach_segment`).
    """
    attachments: dict = {}
    gc_state: dict = {}
    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            try:
                _gc_attachments(task, attachments, gc_state)
                result = _run_task(task, attachments, shared_tracker)
                result_queue.put((task.task_id, result, None))
            except Exception as exc:  # pragma: no cover - exercised via pool tests
                result_queue.put((task.task_id, None, f"{type(exc).__name__}: {exc}"))
    finally:
        for shm, _ in attachments.values():
            try:
                shm.close()
            except Exception:
                pass
