"""The thread-pool transport: no fork, no shm, and mostly the GIL.

:class:`ThreadPoolBackend` is a :class:`~repro.parallel.backend.WorkerBackend`
whose workers are the threads of a
:class:`concurrent.futures.ThreadPoolExecutor`.  What overlaps between
threads counting different shards is the part of the kernel that releases
the GIL: the gather (fancy-index / slice copies of the shard's rows) and
the pair-code ufuncs.  ``np.bincount`` — most of a large count — does
*not* release it: two threads each doing five 4M-row bincounts are no
faster than the same ten back to back.  So the backend only matches serial
from about a million rows *per call* and passes it near 4M (1.0x at 1M-2M
rows, 1.3x at 4M, W = 2; ``benchmarks/bench_parallel_scaling.py
--rows-per-call``), sizes no sampling window has — which is why every
count below the shared ``min_fan_out_rows`` floor runs inline, and only a
deferred call's end count or a whole-table pass reaches the executor.

Compared to the process transport
(:class:`~repro.parallel.sharded.ShardedBackend`):

- **no fork, no /dev/shm** — workers are threads in the coordinator's own
  address space, so the backend works on fork-unfriendly platforms
  (macOS/Windows spawn, embedded interpreters) and needs no shared-memory
  publication or epoch GC;
- **zero serialization** — shards see the coordinator's columns (and an
  exact pass's whole row mask) directly; there is no task pickling and no
  per-dataset publish step, so the backend has no warm-up cliff;
- **natural fit for concurrent steps** — when a front door runs steps of
  different sessions concurrently (``max_concurrent_steps > 1``), each
  step's counts fan out into one shared executor; thread workers compose
  with that, where a per-session process pool would multiply.

Shards are bounded (:data:`MAX_SHARD_ROWS`), so a large call becomes more
shards than workers rather than larger ones.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..storage.blocks import BlockLayout
from .affinity import apply_affinity, plan_affinity
from .backend import CountSource, WorkerBackend
from .kernels import count_window
from .shard import Shard, ShardPlanner
from .worker import ShardResult

__all__ = ["ThreadPoolBackend"]

#: Most rows an executor shard is planned to cover.  A shard's temporaries
#: (gathered codes plus ``bincount``'s intp copy, ~12 B a row) are allocated
#: on an executor thread, whose malloc arena keeps what it is handed: small
#: shards are reused by the next shard, the 1M-row one-per-worker shards of
#: a whole sampling call are not.  Measured on a 2M-row call at W = 2
#: (README "Performance"): peak RSS 151.6 / 154.1 / 162.7 / 164.6 MiB at
#: 128k / 256k / 512k / unbounded, pass time flat from 256k up.
MAX_SHARD_ROWS = 262_144


def _timed_count(task_id: int, *args, **kwargs) -> ShardResult:
    """One shard's :func:`count_window`, timed on the thread that runs it."""
    started = time.perf_counter_ns()
    counts, moved = count_window(*args, **kwargs)
    return ShardResult(
        task_id=task_id,
        counts=counts,
        rows=int(counts.sum()),
        elapsed_ns=float(time.perf_counter_ns() - started),
        moved_bytes=moved,
    )


class ThreadPoolBackend(WorkerBackend):
    """In-process multi-threaded counting behind the backend seam.

    Takes :class:`~repro.parallel.backend.WorkerBackend`'s arguments; the
    executor is created on the first count large enough to shard.
    """

    name = "threads"

    def __init__(self, n_workers: int | None = None, **options) -> None:
        super().__init__(n_workers, **options)
        self.affinity_applied = 0
        self._executor: ThreadPoolExecutor | None = None
        self._affinity_next = 0

    # -------------------------------------------------------------- executor

    def _pin_worker_thread(self, cpusets: list[set[int]]) -> None:
        """Executor-thread initializer: pin the calling thread to its CPU."""
        with self._lock:
            index = self._affinity_next
            self._affinity_next += 1
        if apply_affinity(0, cpusets[index % len(cpusets)]):
            with self._lock:
                self.affinity_applied += 1

    @property
    def executor(self) -> ThreadPoolExecutor:
        """The shared counting executor, created on first use."""
        with self._lock:
            if self.closed:
                raise RuntimeError("ThreadPoolBackend is closed")
            if self._executor is None:
                cpusets = plan_affinity(self.cpu_affinity, self.n_workers)
                kwargs = {}
                if cpusets:
                    kwargs["initializer"] = self._pin_worker_thread
                    kwargs["initargs"] = (cpusets,)
                self._executor = ThreadPoolExecutor(
                    max_workers=self.n_workers,
                    thread_name_prefix="repro-count",
                    **kwargs,
                )
            return self._executor

    # --------------------------------------------------------------- counting

    def plan_shards(
        self, blocks: np.ndarray, layout: BlockLayout, total_rows: int, cells: int
    ) -> list[Shard]:
        """Row-balanced shards of at most :data:`MAX_SHARD_ROWS` rows each.

        Never fewer than one per worker, and past that never so many that a
        shard's rows fall below the ``cells`` of the matrix it returns (the
        sampling engine's own dense-window comparison): the merge would cost
        more than the count.  Shards are balanced to within one block.
        """
        bounded = min(-(-total_rows // MAX_SHARD_ROWS), total_rows // cells)
        return ShardPlanner(max(self.n_workers, bounded)).plan(blocks, layout)

    def _run_shards(
        self,
        source: CountSource,
        shards: list[Shard],
        base_id: int,
        table_filter: np.ndarray | None,
    ) -> list[ShardResult]:
        """Threads read the coordinator's arrays directly — no refs, no
        copies; an exact pass's mask goes to every shard whole."""
        executor = self.executor
        table = source.shuffled.table
        z, x = table.column(source.z_name), table.column(source.x_name)
        row_filter = source.row_filter if table_filter is None else table_filter
        futures = [
            executor.submit(
                _timed_count,
                base_id + shard.index,
                z,
                x,
                shard.blocks,
                source.shuffled.layout,
                source.num_candidates,
                source.num_groups,
                row_filter=row_filter,
                codes=source.codes,
                kernel=source.kernel,
            )
            for shard in shards
        ]
        return [future.result() for future in futures]

    # --------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Shut the executor down.  Idempotent."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
