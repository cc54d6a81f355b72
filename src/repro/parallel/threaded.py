"""The thread-pool execution backend: GIL-releasing kernels, no fork, no shm.

:class:`ThreadPoolBackend` implements the full
:class:`~repro.parallel.backend.ExecutionBackend` surface over a
:class:`concurrent.futures.ThreadPoolExecutor`.  The counting hot path —
gather the shard's rows, filter, ``np.bincount`` the pair codes
(:func:`~repro.parallel.worker.count_shard`) — spends its time inside NumPy
C loops that release the GIL on non-trivial inputs, so threads counting
different shards genuinely overlap on a multi-core machine.

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
  step's windows fan out into one shared executor; thread workers compose
  with that, where a per-session process pool would multiply.

The trade-off is the GIL itself: the Python glue around each kernel call
still serializes, so pure-Python-heavy workloads scale worse than the
process pool.  The arithmetic is the same :func:`count_shard` kernel over
the same row partition with the same exact integer merge
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

from ..obs.profiler import NULL_PROFILER
from ..storage.blocks import BlockLayout
from .affinity import AFFINITY_POLICIES, apply_affinity, plan_affinity
from .backend import CountSource, ExecutionBackend
from .kernels import KernelChoice, count_window
from .merge import ShardMerger
from .shard import ShardPlanner
from .sharded import DEFAULT_MIN_SHARD_ROWS, EXACT_PASS_BLOCK_ROWS
from .worker import ShardResult

__all__ = ["ThreadPoolBackend"]


class ThreadPoolBackend(ExecutionBackend):
    """In-process multi-threaded counting behind the backend seam.

    Parameters
    ----------
    n_workers:
        Thread count (default: the machine's CPU count).  The executor is
        created lazily on the first window large enough to shard.
    min_shard_rows:
        Minimum average rows per shard worth a hop to the executor;
        windows below ``n_workers * min_shard_rows`` rows are counted
        inline with the identical kernel.  Set to 0 to force every window
        through the executor (equivalence tests, ``--tiny`` benchmarks).
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
        self.planner = ShardPlanner(resolved)
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

    def _count_sharded(
        self,
        z: np.ndarray,
        x: np.ndarray,
        blocks: np.ndarray,
        layout: BlockLayout,
        num_candidates: int,
        num_groups: int,
        row_filter: np.ndarray | None,
        span_name: str = "backend.window",
        profiler=NULL_PROFILER,
        codes: np.ndarray | None = None,
        kernel: str | KernelChoice = "auto",
    ) -> np.ndarray:
        """Plan shards, count each on the executor, merge exactly.

        Threads read the coordinator's arrays directly — no refs, no
        copies.  Shard ids are allocated under the lock so concurrent
        callers (steps of different sessions) never collide.
        """
        traced = self.tracer.enabled
        wall0 = float(time.monotonic_ns()) if traced else 0.0
        started = time.perf_counter_ns() if profiler.enabled else 0
        shards = self.planner.plan(blocks, layout)
        with self._lock:
            base_id = self.shard_tasks
            self.shard_tasks += len(shards)
        executor = self.executor
        futures = [
            executor.submit(
                count_window,
                z,
                x,
                shard.blocks,
                layout,
                num_candidates,
                num_groups,
                row_filter=row_filter,
                codes=codes,
                kernel=kernel,
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
        merger = ShardMerger(num_candidates, num_groups)
        merged = merger.merge(results)
        if profiler.enabled:
            counted = sum(result.rows for result in results)
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
                rows=sum(result.rows for result in results),
            )
        return merged

    def count_blocks(self, source: CountSource, blocks: np.ndarray) -> np.ndarray:
        layout = source.shuffled.layout
        total_rows = int(layout.rows_per_block(blocks).sum())
        z = source.shuffled.table.column(source.z_name)
        x = source.shuffled.table.column(source.x_name)
        profiler = source.profiler
        if total_rows < max(1, self.n_workers * self.min_shard_rows):
            # Inline fallback: same kernel, same rows, no executor hop.
            with self._lock:
                self.inline_windows += 1
            started = time.perf_counter_ns() if profiler.enabled else 0
            counts, moved = count_window(
                z,
                x,
                blocks,
                layout,
                source.num_candidates,
                source.num_groups,
                row_filter=source.row_filter,
                codes=source.codes,
                kernel=source.kernel,
            )
            if profiler.enabled:
                profiler.record_kernel(
                    "threads.inline",
                    float(time.perf_counter_ns() - started),
                    rows=int(counts.sum()),
                    blocks=int(blocks.size),
                    nbytes=moved,
                    bincounts=1,
                )
            return counts
        return self._count_sharded(
            z,
            x,
            blocks,
            layout,
            source.num_candidates,
            source.num_groups,
            source.row_filter,
            profiler=profiler,
            codes=source.codes,
            kernel=source.kernel,
        )

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
        layout = BlockLayout(num_rows, EXACT_PASS_BLOCK_ROWS)
        return self._count_sharded(
            table.column(z_name),
            table.column(x_name),
            np.arange(layout.num_blocks, dtype=np.int64),
            layout,
            num_candidates,
            num_groups,
            row_filter,
            span_name="backend.table",
            profiler=self.profiler,
        )

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
