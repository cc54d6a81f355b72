"""The thread-pool execution backend: no fork, no shm, and mostly the GIL.

:class:`ThreadPoolBackend` implements the full
:class:`~repro.parallel.backend.ExecutionBackend` surface over a
:class:`concurrent.futures.ThreadPoolExecutor`.  What overlaps between
threads counting different shards is the part of the kernel that releases
the GIL: the gather (fancy-index / slice copies of the shard's rows) and
the pair-code ufuncs.  ``np.bincount`` — most of a large count — does
*not* release it: two threads each doing five 4M-row bincounts are no
faster than the same ten back to back.  So the backend only matches serial
from about half a million rows *per call* and passes it near 4M (1.0x at
1M-2M rows, 1.3x at 4M, W = 2; ``benchmarks/bench_parallel_scaling.py
--rows-per-call``), sizes no sampling window has — which is why the
sampling engine hands a worker backend a whole call's blocks at once.

Compared to the process-based :class:`~repro.parallel.sharded.ShardedBackend`:

- **no fork, no /dev/shm** — workers are threads in the coordinator's own
  address space, so the backend works on fork-unfriendly platforms
  (macOS/Windows spawn, embedded interpreters) and needs no shared-memory
  publication, pinning, or epoch GC;
- **zero serialization** — shards see the coordinator's columns directly;
  there is no task pickling and no per-dataset publish step, so the
  backend has no warm-up cliff;
- **natural fit for concurrent steps** — when a front door runs steps of
  different sessions concurrently (``max_concurrent_steps > 1``), each
  step's counts fan out into one shared executor; thread workers compose
  with that, where a per-session process pool would multiply.

Shards are bounded (:data:`MAX_SHARD_ROWS`), so a large call becomes more
shards than workers rather than larger ones.  The arithmetic is the same
:func:`~repro.parallel.kernels.count_window` kernel over the same row
partition with the same exact integer merge
(:class:`~repro.parallel.merge.ShardMerger`), so results are byte-identical
to serial execution.

Every public method is safe to call from multiple threads at once — the
backend is shared by all sessions of a registry, and concurrent steps hit
it concurrently.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..storage.blocks import BlockLayout
from .affinity import AFFINITY_POLICIES, apply_affinity, plan_affinity
from .backend import CountSource, ExecutionBackend
from .kernels import count_window
from .merge import ShardMerger
from .shard import Shard, ShardPlanner
from .sharded import DEFAULT_MIN_SHARD_ROWS, exact_pass_source
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


class ThreadPoolBackend(ExecutionBackend):
    """In-process multi-threaded counting behind the backend seam.

    Parameters
    ----------
    n_workers:
        Thread count (default: the machine's CPU count).  The executor is
        created lazily on the first count large enough to shard.
    min_shard_rows:
        Minimum average rows per worker worth a hop to the executor; block
        sets below ``n_workers * min_shard_rows`` rows are counted inline
        with the identical kernel.  Set to 0 to force every count through
        the executor (equivalence tests, ``--tiny`` benchmarks).
    cpu_affinity:
        Optional worker-placement policy (``"spread"`` / ``"compact"``, see
        :mod:`~repro.parallel.affinity`): each executor thread pins itself
        to one CPU at startup.  Best-effort — a no-op on platforms without
        :func:`os.sched_setaffinity`.
    """

    name = "threads"

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        min_shard_rows: int = DEFAULT_MIN_SHARD_ROWS,
        cpu_affinity: str | None = None,
    ) -> None:
        resolved = n_workers if n_workers is not None else (os.cpu_count() or 1)
        if resolved < 1:
            raise ValueError(f"n_workers must be >= 1, got {resolved}")
        if min_shard_rows < 0:
            raise ValueError(f"min_shard_rows must be >= 0, got {min_shard_rows}")
        if cpu_affinity is not None and cpu_affinity not in AFFINITY_POLICIES:
            raise ValueError(
                f"cpu_affinity must be one of {AFFINITY_POLICIES}, got {cpu_affinity!r}"
            )
        self.n_workers = resolved
        self.min_shard_rows = min_shard_rows
        self.cpu_affinity = cpu_affinity
        self.affinity_applied = 0
        self.shard_tasks = 0
        self.inline_windows = 0
        self.closed = False
        self._lock = threading.Lock()
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

    def _count_sharded(
        self,
        source: CountSource,
        blocks: np.ndarray,
        total_rows: int,
        span_name: str = "backend.window",
    ) -> np.ndarray:
        """Plan shards, count each on the executor, merge exactly.

        Threads read the coordinator's arrays directly — no refs, no
        copies.  Shard ids are allocated under the lock so concurrent
        callers (steps of different sessions) never collide.
        """
        profiler = source.profiler
        traced = self.tracer.enabled
        wall0 = float(time.monotonic_ns()) if traced else 0.0
        started = time.perf_counter_ns() if profiler.enabled else 0
        layout = source.shuffled.layout
        shards = self.plan_shards(
            blocks, layout, total_rows, source.num_candidates * source.num_groups
        )
        with self._lock:
            base_id = self.shard_tasks
            self.shard_tasks += len(shards)
        executor = self.executor
        table = source.shuffled.table
        z, x = table.column(source.z_name), table.column(source.x_name)
        futures = [
            executor.submit(
                count_window,
                z,
                x,
                shard.blocks,
                layout,
                source.num_candidates,
                source.num_groups,
                row_filter=source.row_filter,
                codes=source.codes,
                kernel=source.kernel,
            )
            for shard in shards
        ]
        results = []
        for i, future in enumerate(futures):
            counts, moved = future.result()
            results.append(
                ShardResult(
                    task_id=base_id + i,
                    counts=counts,
                    rows=int(counts.sum()),
                    moved_bytes=moved,
                )
            )
        merger = ShardMerger(source.num_candidates, source.num_groups)
        merged = merger.merge(
            results, shards, exact=source.row_filter is None and source.codes is None
        )
        counted = sum(result.rows for result in results)
        if profiler.enabled:
            profiler.record_kernel(
                "threads.shards",
                float(time.perf_counter_ns() - started),
                rows=counted,
                blocks=int(blocks.size),
                nbytes=sum(result.moved_bytes for result in results),
                bincounts=len(shards),
            )
        if traced:
            self.tracer.span_at(
                span_name,
                wall0,
                float(time.monotonic_ns()),
                clock="monotonic",
                backend=self.name,
                shards=len(shards),
                rows=counted,
            )
        return merged

    def count_blocks(self, source: CountSource, blocks: np.ndarray) -> np.ndarray:
        total_rows = int(source.shuffled.layout.rows_per_block(blocks).sum())
        if total_rows < max(1, self.n_workers * self.min_shard_rows):
            # Inline fallback: same kernel, same rows, no executor hop.
            with self._lock:
                self.inline_windows += 1
            return self._count_inline(source, blocks, "threads.inline")
        return self._count_sharded(source, blocks, total_rows)

    # ------------------------------------------------------------ table level

    def count_table(
        self,
        table,
        z_name: str,
        x_name: str,
        num_candidates: int,
        num_groups: int,
        row_filter: np.ndarray | None = None,
    ) -> np.ndarray:
        """Exact whole-table counts, sharded across the executor.

        Rows are partitioned under a synthetic block layout and counted by
        the same kernel as the sampling path; exact integer sums over the
        disjoint partition keep the merged matrix byte-identical to the
        serial pass.
        """
        num_rows = table.num_rows
        if num_rows < max(1, self.n_workers * self.min_shard_rows):
            return super().count_table(
                table, z_name, x_name, num_candidates, num_groups, row_filter
            )
        source, blocks = exact_pass_source(
            table, z_name, x_name, num_candidates, num_groups, row_filter,
            self.profiler,
        )
        return self._count_sharded(source, blocks, num_rows, "backend.table")

    # --------------------------------------------------------------- lifecycle

    def describe(self) -> dict:
        return {
            "backend": self.name,
            "workers": self.n_workers,
            "min_shard_rows": self.min_shard_rows,
            "shard_tasks": self.shard_tasks,
            "cpu_affinity": self.cpu_affinity or "none",
            "affinity_applied": self.affinity_applied,
        }

    def close(self) -> None:
        """Shut the executor down.  Idempotent."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
