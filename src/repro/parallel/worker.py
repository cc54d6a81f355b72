"""Worker-side execution: count one shard's ``(candidate, group)`` pairs.

Every shard, on either transport, is counted by :func:`count_shard`: the
same pure kernel, :func:`~repro.parallel.kernels.count_window`, that the
serial backend and the worker backends' inline path run, timed where it
runs.  A thread worker passes it the coordinator's own columns; a process
worker runs :func:`run_task`, which passes it shared-memory views.  So
there is exactly one implementation of the arithmetic whose exactness the
byte-identity guarantee rests on.

Each worker starts with :func:`start_worker`, the executor initializer of
both transports: it claims the worker's slot in :class:`WorkerSlots`
(pid, CPU pin).  A process worker also keeps, in this module's globals,
its cache of shared-memory attachments and the GC epoch it last saw.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass

import numpy as np

from ..storage.blocks import BlockLayout
from .affinity import apply_affinity
from .kernels import count_window
from .shm import SegmentRef, attach_segment

__all__ = [
    "ShardResult",
    "ShardTask",
    "WorkerSlots",
    "count_shard",
    "run_task",
    "start_worker",
]


@dataclass(frozen=True)
class ShardTask:
    """One shard's counting assignment, as shipped to a process worker.

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
    #: Prepared pair-code column (published to shared memory), counted
    #: instead of ``z`` and ``x``; ``None`` when the session has not
    #: prepared one.
    codes_ref: SegmentRef | None = None


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
    #: gather + count; queue time excluded).  Observability only —
    #: merging ignores it; the worker backends fold it into their
    #: ``backend.window`` span attributes and profile rows.
    elapsed_ns: float = 0.0
    #: Bytes the counting kernel materialized for this shard (see
    #: :func:`~repro.parallel.kernels.count_window`).  Observability only;
    #: the coordinator sums it into the profiler's ``nbytes``.
    moved_bytes: int = 0


class WorkerSlots:
    """The worker slots of one executor, shared with its workers.

    Each worker claims the next slot as it starts (:func:`start_worker`),
    records its pid there and pins itself to the slot's CPU.  The
    coordinator reads liveness and pins from here, never from an
    executor's private state.  Built on ``ctx`` (the executor's
    ``multiprocessing`` context), so a process worker shares it; a thread
    worker is in the coordinator's process, where every pid is the
    coordinator's own.  An executor starts at most ``n_workers`` workers
    and never replaces one, so there is a slot for every claim.
    """

    def __init__(self, n_workers: int, ctx=multiprocessing) -> None:
        self.n_workers = n_workers
        self._claimed = ctx.Value("i", 0)
        self._pinned = ctx.Value("i", 0, lock=False)
        self._pids = ctx.Array("q", n_workers, lock=False)

    def claim(self, cpusets: list[set[int]] | None) -> None:
        """Take the next slot for the calling worker and pin it."""
        with self._claimed.get_lock():
            index = self._claimed.value
            self._claimed.value += 1
            self._pids[index] = os.getpid()
            if cpusets and apply_affinity(0, cpusets[index]):
                self._pinned.value += 1

    @property
    def started(self) -> int:
        """Workers that have claimed a slot."""
        return self._claimed.value

    @property
    def pinned(self) -> int:
        """Workers whose CPU pin took."""
        return self._pinned.value

    def pids(self) -> list[int]:
        return list(self._pids[: self.started])

    def alive(self) -> int:
        """Started workers whose process still exists."""
        return sum(1 for pid in self.pids() if _pid_alive(pid))


def _pid_alive(pid: int) -> bool:
    if os.name != "posix":  # pragma: no cover - os.kill(pid, 0) kills there
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


#: A process worker's own state (set up by :func:`start_worker`): its
#: cached shared-memory attachments by segment name, the newest GC epoch it
#: has applied, and whether it shares the coordinator's resource tracker
#: (true for ``fork`` children; see
#: :func:`~repro.parallel.shm.attach_segment`).
_attachments: dict[str, tuple] = {}
_gc_epoch = 0
_shared_tracker = False


def start_worker(
    slots: WorkerSlots, cpusets: list[set[int]] | None, shared_tracker: bool = False
) -> None:
    """Executor initializer of both transports: claim this worker's slot
    (pid, CPU pin) and note whether it shares the coordinator's resource
    tracker — which only a process worker that attaches segments reads."""
    global _shared_tracker
    _shared_tracker = shared_tracker
    slots.claim(cpusets)


def count_shard(task_id: int, *args, **kwargs) -> ShardResult:
    """One shard's :func:`count_window`, timed where it runs: the per-shard
    call of the thread transport, and the body of :func:`run_task`."""
    started = time.perf_counter_ns()
    counts, moved = count_window(*args, **kwargs)
    return ShardResult(
        task_id=task_id,
        counts=counts,
        rows=int(counts.sum()),
        cached_attachments=len(_attachments),
        elapsed_ns=float(time.perf_counter_ns() - started),
        moved_bytes=moved,
    )


def _gc_attachments(task: ShardTask) -> None:
    """Epoch-based attachment forgetting (worker-side segment GC).

    The coordinator bumps the store epoch on every unpublish and stamps
    each task with the epoch plus the then-live segment names.  A worker
    seeing a newer epoch closes every cached attachment that is no longer
    live, so pages of evicted cache entries are released while the
    executor keeps running.  Epochs only move forward; an out-of-order
    older task cannot resurrect anything — its stale refs would re-attach
    and fail, and the coordinator never dispatches refs it has unlinked.
    """
    global _gc_epoch
    if task.live_segments is None or task.gc_epoch <= _gc_epoch:
        return
    _gc_epoch = task.gc_epoch
    live = set(task.live_segments)
    for name in [name for name in _attachments if name not in live]:
        entry = _attachments.pop(name)
        shm = entry[0]
        # Drop the NumPy view before closing: mmap.close() raises
        # BufferError while exported buffers exist, which would silently
        # keep the evicted pages pinned.
        del entry
        try:
            shm.close()
        except Exception:
            pass


def _view(ref: SegmentRef | None) -> np.ndarray | None:
    """The cached read view of a published segment (attach once per
    segment, not per task)."""
    if ref is None:
        return None
    if ref.name not in _attachments:
        _attachments[ref.name] = attach_segment(ref, _shared_tracker)
    return _attachments[ref.name][1]


def run_task(task: ShardTask) -> ShardResult:
    """The process transport's per-shard call: forget evicted segments,
    then count the shard over shared-memory views."""
    _gc_attachments(task)
    return count_shard(
        task.task_id,
        _view(task.z_ref),
        _view(task.x_ref),
        task.blocks,
        BlockLayout(task.num_rows, task.block_size),
        task.num_candidates,
        task.num_groups,
        row_filter=_view(task.filter_ref),
        filter_slice=task.filter_values,
        codes=_view(task.codes_ref),
    )
