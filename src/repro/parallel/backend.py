"""The execution-backend seam all counting routes through.

:class:`ExecutionBackend` has two levels of hooks:

- **engine level** — :meth:`count_blocks` counts the ``(candidate, group)``
  cells of a set of blocks (gather + filter + count) for the block sampling
  engine: one window's blocks, or every block a sampling call delivered
  when the engine defers the count to the call's end (when the code space
  has more cells than a window has rows).  This is where a
  :class:`WorkerBackend` fans work out to its workers, once a call reaches
  its floor.  Simulated I/O is not the backend's business — the engine
  accounts it, once per window.
- **table level** — :meth:`count_table` computes the exact
  ``(candidate, group)`` counts of a *whole* table in one pass.  The exact
  Scan baseline and the ground-truth computation both reduce to this, and
  both are embarrassingly shardable: a worker backend partitions the rows,
  counts per shard, and merges by exact integer addition, so the result is
  byte-identical to the serial pass.

Backends also expose :meth:`unpublish`, the cache-eviction hook: when a
serving session evicts prepared artifacts, the backend releases whatever
per-artifact resources it holds (the sharded backend unlinks the artifacts'
shared-memory segments).

:class:`SerialBackend` implements both levels with exactly the code the
engine ran before the seam existed, so it *is* today's behaviour.
:class:`WorkerBackend` is the one fan-out both worker transports share
(plan → submit/gather on a :mod:`concurrent.futures` executor → span →
profile → merge); a transport supplies only its executor and its
per-shard call.
"""

from __future__ import annotations

import os
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import BrokenExecutor, Executor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..obs.profiler import NULL_PROFILER
from ..obs.tracer import NULL_TRACER
from ..storage.blocks import BlockLayout
from ..storage.shuffle import ShuffledTable
from .affinity import AFFINITY_POLICIES, plan_affinity
from .kernels import count_pairs, count_window, count_window_ascending
from .merge import ShardMerger
from .shard import Shard, ShardPlanner
from .worker import ShardResult, WorkerSlots

__all__ = [
    "DEFAULT_MIN_FAN_OUT_ROWS",
    "EXACT_PASS_BLOCK_ROWS",
    "WORKER_BACKENDS",
    "CountSource",
    "ExecutionBackend",
    "SerialBackend",
    "WorkerBackend",
    "count_pairs",
    "exact_pass_source",
]

#: The backends that count on workers (and for which ``workers`` is
#: meaningful; serial takes none).
WORKER_BACKENDS = ("sharded", "threads")

#: Below this many rows in one call, inline counting beats a fan-out: the
#: measured crossover of one contiguous count at W = 2, where ``threads``
#: reads 1.01x and ``sharded`` 1.05x serial
#: (``benchmarks/bench_parallel_scaling.py --rows-per-call``).
DEFAULT_MIN_FAN_OUT_ROWS = 1 << 20

#: Synthetic block size used to shard whole-table exact-counting passes
#: (Scan baseline, ground truth).  Any value partitions the rows exactly;
#: this one keeps per-shard task payloads small while giving the planner
#: enough blocks to balance.
EXACT_PASS_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class CountSource:
    """What a backend needs to know about one engine's substrate.

    Built once per :class:`~repro.sampling.engine.BlockSamplingEngine`; the
    backend uses it to locate columns and apply the query's row filter.
    """

    shuffled: ShuffledTable
    z_name: str
    x_name: str
    num_candidates: int
    num_groups: int
    row_filter: np.ndarray | None
    #: Per-job profiler the backend records its counting kernels into —
    #: the engine threads its own profiler here, so kernel effort is
    #: attributed to the job even on a backend shared across tenants.
    #: Defaults to the shared no-op (one branch on the hot path).
    profiler: object = NULL_PROFILER
    #: Prepared pair-code column (:func:`~repro.parallel.kernels.build_pair_codes`),
    #: counted instead of ``z`` and ``x`` when present; ``None`` when not
    #: prepared.  A column folded with the query's row filter comes with
    #: ``row_filter=None`` — the sampling engine hands over one or the other.
    codes: np.ndarray | None = None


def exact_pass_source(
    table, z_name, x_name, num_candidates, num_groups, profiler
) -> tuple[CountSource, np.ndarray]:
    """A whole table as an unfiltered count source under the synthetic
    exact-pass layout, with all of its blocks: what a fan-out of an exact
    pass counts."""
    layout = BlockLayout(table.num_rows, EXACT_PASS_BLOCK_ROWS)
    source = CountSource(
        ShuffledTable(table, layout), z_name, x_name, num_candidates, num_groups,
        None, profiler,
    )
    return source, np.arange(layout.num_blocks, dtype=np.int64)


class ExecutionBackend(ABC):
    """Strategy object deciding *how* sampling work is executed."""

    name: str = "abstract"

    #: Observability hook: fan-out windows and shared-memory
    #: lifecycle report here.  The class-level default is the shared no-op,
    #: so backends constructed anywhere stay untraced until a session or
    #: registry calls :meth:`set_tracer`.  Tracing never touches counting:
    #: spans are emitted around the work, not inside the kernels.
    tracer = NULL_TRACER

    def set_tracer(self, tracer) -> None:
        """Attach a :class:`~repro.obs.Tracer` (or ``None`` to detach)."""
        self.tracer = tracer if tracer is not None else NULL_TRACER

    #: Deterministic hot-path counters for work without a per-job
    #: :class:`CountSource` (exact table passes); window counting records
    #: into ``source.profiler`` instead.  Same zero-overhead default and
    #: discipline as tracing: profiling observes around the kernels, never
    #: inside the arithmetic.
    profiler = NULL_PROFILER

    def set_profiler(self, profiler) -> None:
        """Attach a :class:`~repro.obs.Profiler` (or ``None`` to detach)."""
        self.profiler = profiler if profiler is not None else NULL_PROFILER

    # ------------------------------------------------------------- engine level

    @abstractmethod
    def count_blocks(self, source: CountSource, blocks: np.ndarray) -> np.ndarray:
        """Count the rows of a set of blocks: an int64 array, sorted and
        unique, as the sampling engine builds every window.

        The contract is what lets the inline count check the blocks at
        their two ends
        (:func:`~repro.parallel.kernels.count_window_ascending`) and a
        worker backend read its per-call row count off their size and last
        block.  Returns the fresh int64 ``(candidate, group)`` count matrix,
        the caller's to keep and modify.
        """

    def _count_inline(
        self, source: CountSource, blocks: np.ndarray, label: str
    ) -> np.ndarray:
        """Count ``blocks`` in the calling thread, recorded under ``label``:
        the serial backend's ``count_blocks``, and the worker backends' path
        below their ``min_fan_out_rows`` floor (the kernel their workers
        run, entered for an ascending window, so the short-circuit cannot
        change results)."""
        profiler = source.profiler
        started = time.perf_counter_ns() if profiler.enabled else 0
        table = source.shuffled.table
        counts, moved = count_window_ascending(
            table.column(source.z_name),
            table.column(source.x_name),
            blocks,
            source.shuffled.layout,
            source.num_candidates,
            source.num_groups,
            row_filter=source.row_filter,
            codes=source.codes,
        )
        if profiler.enabled:
            profiler.record_kernel(
                label,
                float(time.perf_counter_ns() - started),
                rows=int(counts.sum()),
                blocks=int(blocks.size),
                nbytes=moved,
                bincounts=1,
            )
        return counts

    # -------------------------------------------------------------- table level

    def count_table(
        self,
        table,
        z_name: str,
        x_name: str,
        num_candidates: int,
        num_groups: int,
        row_filter: np.ndarray | None = None,
    ) -> np.ndarray:
        """Exact ``(candidate, group)`` counts over every row of ``table``.

        ``row_filter`` (a boolean row mask) drops rows before counting;
        ``None`` means no predicate.  The default implementation is one
        serial :func:`~repro.parallel.kernels.count_window` over every block
        of the exact-pass layout (:func:`exact_pass_source`) — a zero-copy
        run; worker backends partition the same blocks and merge, with
        byte-identical results (exact integer sums over a disjoint row
        partition).
        """
        profiler = self.profiler
        started = time.perf_counter_ns() if profiler.enabled else 0
        source, blocks = exact_pass_source(
            table, z_name, x_name, num_candidates, num_groups, profiler
        )
        counts, moved = count_window(
            table.column(z_name),
            table.column(x_name),
            blocks,
            source.shuffled.layout,
            num_candidates,
            num_groups,
            row_filter=row_filter,
        )
        if profiler.enabled:
            profiler.record_kernel(
                "serial.count_table",
                float(time.perf_counter_ns() - started),
                rows=int(counts.sum()),
                nbytes=moved,
                bincounts=1,
            )
        return counts

    # --------------------------------------------------------------- lifecycle

    def unpublish(self, *artifacts) -> None:
        """Release per-artifact resources (cache-eviction hook).

        Called by the session layer when prepared artifacts (tables, row
        filters) are evicted from its caches.  The default is a no-op; the
        sharded backend unlinks the artifacts' shared-memory segments.
        Idempotent, and unknown artifacts are ignored.
        """

    def describe(self) -> dict:
        """Report-facing description (recorded in benchmark JSON)."""
        return {"backend": self.name}

    def close(self) -> None:
        """Release any pooled resources.  Idempotent; default is a no-op."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Single-process execution — the exact pre-backend behaviour."""

    name = "serial"

    def count_blocks(self, source: CountSource, blocks: np.ndarray) -> np.ndarray:
        return self._count_inline(source, blocks, "serial.count")


class WorkerBackend(ExecutionBackend):
    """Counting fanned out to ``n_workers`` workers, whatever carries it.

    Owns everything the transports share: the inline floor, task-id
    allocation, the lazily started executor and its :class:`WorkerSlots`
    (liveness, pins), the one submit/gather, the ``backend.window`` /
    ``backend.table`` span, the ``{name}.window`` / ``{name}.table`` profile
    row (worker-side nanoseconds from :attr:`ShardResult.elapsed_ns`) and
    the exact merge.  A transport implements :meth:`_new_executor` and
    :meth:`_shard_calls`, and may re-plan with :meth:`plan_shards`.  Shards
    partition the same rows the serial path counts and are merged by exact
    integer addition, so every result is byte-identical to serial
    execution.

    Every public method is safe to call from multiple threads at once — a
    backend is shared by all sessions of a registry, and concurrent steps
    hit it concurrently.

    Parameters
    ----------
    n_workers:
        Worker count (default: the machine's CPU count).  Workers are
        started lazily, on the first count large enough to fan out.
    min_fan_out_rows:
        Fewest rows one call must count to be worth a round trip; smaller
        calls (``count_blocks`` block sets, ``count_table`` tables) are
        counted inline with the identical kernel.  Set to 0 to force every
        count through the workers, even single-shard ones (equivalence
        tests, ``--tiny`` benchmarks).
    cpu_affinity:
        Optional worker-placement policy (``"spread"`` / ``"compact"``, see
        :mod:`~repro.parallel.affinity`): each worker pins itself to one CPU
        when it starts.  Best-effort — a no-op on platforms without
        :func:`os.sched_setaffinity`.
    """

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        min_fan_out_rows: int = DEFAULT_MIN_FAN_OUT_ROWS,
        cpu_affinity: str | None = None,
    ) -> None:
        resolved = n_workers if n_workers is not None else (os.cpu_count() or 1)
        if resolved < 1:
            raise ValueError(f"n_workers must be >= 1, got {resolved}")
        if min_fan_out_rows < 0:
            raise ValueError(f"min_fan_out_rows must be >= 0, got {min_fan_out_rows}")
        if cpu_affinity is not None and cpu_affinity not in AFFINITY_POLICIES:
            raise ValueError(
                f"cpu_affinity must be one of {AFFINITY_POLICIES}, got {cpu_affinity!r}"
            )
        self.n_workers = resolved
        self.min_fan_out_rows = min_fan_out_rows
        self.cpu_affinity = cpu_affinity
        self.shard_tasks = 0
        self.inline_windows = 0
        self.closed = False
        # Serializes bookkeeping (counters, task-id allocation, the lazily
        # started executor) under concurrent steps; the shards themselves
        # run outside it, so concurrent calls overlap.
        self._lock = threading.Lock()
        self._executor: Executor | None = None
        self._slots: WorkerSlots | None = None

    # -------------------------------------------------------------- executor

    @abstractmethod
    def _new_executor(
        self, cpusets: list[set[int]] | None
    ) -> tuple[Executor, WorkerSlots]:
        """A fresh executor of ``n_workers`` workers, each started by
        :func:`~repro.parallel.worker.start_worker` with the returned slots
        and ``cpusets``."""

    @abstractmethod
    def _shard_calls(
        self,
        source: CountSource,
        shards: list[Shard],
        base_id: int,
        table_filter: np.ndarray | None,
    ) -> list[Callable[[], ShardResult]]:
        """One call per shard, to run on a worker; shard ``i`` under task id
        ``base_id + i``.  ``table_filter`` is an exact pass's row mask
        (``source.row_filter`` is then ``None``)."""

    @property
    def executor(self) -> Executor:
        """The workers' executor, started on first use.

        An executor a dead worker broke is dropped by the call that saw it
        die (:meth:`_run_shards`), so the next count starts a fresh one: the
        backend recovers for later queries instead of failing every count.
        """
        with self._lock:
            if self.closed:
                raise RuntimeError(f"{type(self).__name__} is closed")
            if self._executor is None:
                self._executor, self._slots = self._new_executor(
                    plan_affinity(self.cpu_affinity, self.n_workers)
                )
            return self._executor

    @property
    def alive_workers(self) -> int:
        """Started workers still running (0 before the executor starts)."""
        slots = self._slots
        return 0 if slots is None else slots.alive()

    @property
    def affinity_applied(self) -> int:
        """Workers whose CPU pin took (0 unpinned or on other platforms)."""
        slots = self._slots
        return 0 if slots is None else slots.pinned

    def _run_shards(
        self,
        source: CountSource,
        shards: list[Shard],
        base_id: int,
        table_filter: np.ndarray | None,
    ) -> list[ShardResult]:
        """Submit one future per shard, then gather the results in shard
        order.

        Any failure is a :class:`RuntimeError` — partial counts are never
        merged.  A failed shard cancels the call's futures that have not
        started; a dead worker (a broken executor) also drops the executor,
        so the next count respawns it; a :meth:`close` racing the call ends
        it too, never in a bare ``CancelledError`` or a hang.
        """
        executor = self.executor
        futures, results = [], []
        try:
            for call in self._shard_calls(source, shards, base_id, table_filter):
                futures.append(executor.submit(call))
            for future in futures:
                results.append(future.result())
        except Exception as exc:
            for future in futures:
                future.cancel()
            if isinstance(exc, BrokenExecutor):
                self._drop_executor(executor)
                raise RuntimeError(
                    f"worker died with {len(shards) - len(results)} shard task(s) "
                    "outstanding; the next count starts new workers"
                ) from exc
            if self.closed:
                raise RuntimeError(
                    f"{type(self).__name__} closed with shard task(s) outstanding"
                ) from exc
            raise RuntimeError(
                f"shard task {base_id + len(results)} failed: {exc}"
            ) from exc
        return results

    def _drop_executor(self, executor: Executor) -> None:
        with self._lock:
            if self._executor is not executor:
                return  # a concurrent call already dropped it
            self._executor = self._slots = None
        executor.shutdown(wait=True)

    def plan_shards(
        self, blocks: np.ndarray, layout: BlockLayout, total_rows: int, cells: int
    ) -> list[Shard]:
        """Row-balanced contiguous shards, one per worker."""
        return ShardPlanner(self.n_workers).plan(blocks, layout)

    def _below_floor(self, rows: int) -> bool:
        return rows < max(1, self.min_fan_out_rows)

    def count_blocks(self, source: CountSource, blocks: np.ndarray) -> np.ndarray:
        total_rows = source.shuffled.layout.ascending_rows(blocks)
        if self._below_floor(total_rows):
            # Same kernel, same rows, no round trip (and no shard planning —
            # the plan would be discarded).
            with self._lock:
                self.inline_windows += 1
            if self.tracer.enabled:
                self.tracer.event("backend.inline", backend=self.name, rows=total_rows)
            return self._count_inline(source, blocks, f"{self.name}.inline")
        return self._fan_out(source, blocks, total_rows, "window")

    def count_table(
        self,
        table,
        z_name: str,
        x_name: str,
        num_candidates: int,
        num_groups: int,
        row_filter: np.ndarray | None = None,
    ) -> np.ndarray:
        """Exact whole-table counts, sharded across the workers.

        The rows are partitioned under a synthetic block layout
        (:func:`exact_pass_source`) and every shard is counted by the same
        kernel the sampling path uses; below the floor the serial pass runs.
        """
        if self._below_floor(table.num_rows):
            return super().count_table(
                table, z_name, x_name, num_candidates, num_groups, row_filter
            )
        source, blocks = exact_pass_source(
            table, z_name, x_name, num_candidates, num_groups, self.profiler
        )
        return self._fan_out(source, blocks, table.num_rows, "table", row_filter)

    def _fan_out(
        self,
        source: CountSource,
        blocks: np.ndarray,
        total_rows: int,
        kind: str,
        table_filter: np.ndarray | None = None,
    ) -> np.ndarray:
        """Plan shards, run them on the transport, merge exactly."""
        traced = self.tracer.enabled
        wall0 = float(time.monotonic_ns()) if traced else 0.0
        shards = self.plan_shards(
            blocks, source.shuffled.layout, total_rows,
            source.num_candidates * source.num_groups,
        )
        # Task ids are unique across the backend's lifetime and advance
        # before the run, even if it fails, so an error or a merge check
        # names one shard of one call, whatever else runs concurrently.
        with self._lock:
            base_id = self.shard_tasks
            self.shard_tasks += len(shards)
        results = self._run_shards(source, shards, base_id, table_filter)
        shard_ns = [result.elapsed_ns for result in results]
        if traced:
            self.tracer.span_at(
                f"backend.{kind}",
                wall0,
                float(time.monotonic_ns()),
                clock="monotonic",
                backend=self.name,
                shards=len(shards),
                rows=total_rows,
                shard_ns_max=max(shard_ns),
                shard_ns_mean=sum(shard_ns) / len(shard_ns),
            )
        if source.profiler.enabled:
            # Worker-side kernel nanoseconds, not the coordinator's wait —
            # dispatch and queueing show up in the trace span instead, so
            # the two views stay distinguishable.
            source.profiler.record_kernel(
                f"{self.name}.{kind}",
                float(sum(shard_ns)),
                rows=sum(result.rows for result in results),
                blocks=int(blocks.size),
                nbytes=sum(result.moved_bytes for result in results),
                bincounts=len(shards),
            )
        exact = source.row_filter is None and source.codes is None and table_filter is None
        return ShardMerger(source.num_candidates, source.num_groups).merge(
            results, shards, exact=exact
        )

    def describe(self) -> dict:
        return {
            "backend": self.name,
            "workers": self.n_workers,
            "min_fan_out_rows": self.min_fan_out_rows,
            "shard_tasks": self.shard_tasks,
            "cpu_affinity": self.cpu_affinity or "none",
        }

    def close(self) -> None:
        """Shut the executor down, cancelling shards not yet started.
        Idempotent."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            executor, self._executor, self._slots = self._executor, None, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
