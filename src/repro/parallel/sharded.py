"""The sharded execution backend: plan → publish → fan out → merge.

The coordinator's control flow (scan order, windows, policies, budgets,
statistical tests) is untouched; :meth:`ShardedBackend.count_blocks`
replaces only the counting of a set of delivered blocks — from the sampling
engine a whole sampling call's, once per call (its windows only tally rows
per candidate, in the coordinator: a pool round trip costs what about a
million rows cost to count, and no window has them):

1. :class:`~repro.parallel.shard.ShardPlanner` splits the blocks into
   row-balanced contiguous shards, one per worker;
2. the dataset's columns (and the query's row filter) are published to
   shared memory once per session via
   :class:`~repro.parallel.shm.SharedMemoryStore` — workers attach
   zero-copy;
3. the persistent :class:`~repro.parallel.pool.WorkerPool` counts each
   shard;
4. :class:`~repro.parallel.merge.ShardMerger` sums the per-shard matrices
   into exactly the fresh-count state the serial path would have produced.

Small calls (common in stage 1's budget-trimmed reads, late stage-2
rounds and bounded ``max_step_rows`` steps) fall below ``min_shard_rows``
and are counted inline — process round-trips would cost more than they
save.  The fallback uses the same kernel as the workers, so the
short-circuit cannot change results.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from ..storage.blocks import BlockLayout
from ..storage.shuffle import ShuffledTable
from .backend import CountSource, ExecutionBackend
from .merge import ShardMerger
from .pool import WorkerPool
from .shard import ShardPlanner
from .shm import SharedMemoryStore
from .worker import ShardTask

__all__ = ["ShardedBackend"]

#: Below this many rows per average shard, inline counting beats the pool.
DEFAULT_MIN_SHARD_ROWS = 8192

#: Synthetic block size used to shard whole-table exact-counting passes
#: (Scan baseline, ground truth).  Any value partitions the rows exactly;
#: this one keeps per-shard task payloads small while giving the planner
#: enough blocks to balance.
EXACT_PASS_BLOCK_ROWS = 8192


def exact_pass_source(
    table, z_name, x_name, num_candidates, num_groups, row_filter, profiler
) -> tuple[CountSource, np.ndarray]:
    """A whole table as a count source under the synthetic exact-pass
    layout, with all of its blocks: what a fan-out of an exact pass counts."""
    layout = BlockLayout(table.num_rows, EXACT_PASS_BLOCK_ROWS)
    source = CountSource(
        ShuffledTable(table, layout), z_name, x_name, num_candidates, num_groups,
        row_filter, profiler,
    )
    return source, np.arange(layout.num_blocks, dtype=np.int64)


class ShardedBackend(ExecutionBackend):
    """Shared-memory multi-process counting behind the backend seam.

    Parameters
    ----------
    n_workers:
        Worker processes (default: the machine's CPU count).  The pool is
        spawned lazily on the first count large enough to shard, then
        reused for every subsequent count and query.
    min_shard_rows:
        Minimum average rows per shard worth a round-trip to the pool;
        block sets below ``n_workers * min_shard_rows`` rows are counted
        inline with the identical kernel.  Set to 0 to force every count
        through the pool — even single-shard ones, so a one-worker pool's
        IPC overhead is really measured (used by the equivalence tests and
        the benchmark's ``--tiny`` mode).
    start_method:
        Worker start method (default: ``fork`` where available).
    cpu_affinity:
        Optional worker-placement policy (``"spread"`` / ``"compact"``, see
        :mod:`~repro.parallel.affinity`) forwarded to the worker pool: each
        worker process is pinned to one CPU after spawn.  Best-effort — a
        no-op on platforms without :func:`os.sched_setaffinity`.
    """

    name = "sharded"

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        min_shard_rows: int = DEFAULT_MIN_SHARD_ROWS,
        start_method: str | None = None,
        cpu_affinity: str | None = None,
    ) -> None:
        resolved = n_workers if n_workers is not None else (os.cpu_count() or 1)
        if resolved < 1:
            raise ValueError(f"n_workers must be >= 1, got {resolved}")
        if min_shard_rows < 0:
            raise ValueError(f"min_shard_rows must be >= 0, got {min_shard_rows}")
        self.n_workers = resolved
        self.min_shard_rows = min_shard_rows
        self.start_method = start_method
        self.cpu_affinity = cpu_affinity
        self.planner = ShardPlanner(resolved)
        self.store = SharedMemoryStore()
        self.shard_tasks = 0
        self.inline_windows = 0
        # Serializes dispatch bookkeeping (pool creation, publishing, task-id
        # allocation) under concurrent steps; the pool.run fan-out itself
        # runs outside the lock so concurrent windows overlap on the pool.
        self._dispatch_lock = threading.Lock()
        self._pool: WorkerPool | None = None
        # Tables whose columns were published, pinned by identity: segment
        # cache keys use id(table), so the object must outlive the cache
        # entry (a recycled id would silently serve another dataset's data).
        self._pinned_tables: dict[int, object] = {}
        self.closed = False

    # ------------------------------------------------------------------ pool

    @property
    def pool(self) -> WorkerPool:
        """The persistent worker pool, spawned on first use.

        A pool that closed itself (worker death fails the in-flight window
        and poisons the pool so stale results can't leak) is replaced by a
        fresh one here, so the backend recovers for subsequent queries
        instead of failing every later window against a dead pool.
        """
        with self._dispatch_lock:
            if self.closed:
                raise RuntimeError("ShardedBackend is closed")
            if self._pool is not None and self._pool.closed:
                self._pool = None
            if self._pool is None:
                self._pool = WorkerPool(
                    self.n_workers,
                    start_method=self.start_method,
                    cpu_affinity=self.cpu_affinity,
                )
                self._pool.tracer = self.tracer
            return self._pool

    def set_tracer(self, tracer) -> None:
        """Attach a tracer to the backend, its pool, and its shm store.

        The store reports publish/unpublish/close through the tracer's
        event callback; an already-running pool picks the tracer up too.
        """
        super().set_tracer(tracer)
        with self._dispatch_lock:
            if self._pool is not None:
                self._pool.tracer = self.tracer
            self.store.on_event = (
                self.tracer.callback() if self.tracer.enabled else None
            )

    # ------------------------------------------------------------- publishing

    def _refs(self, source: CountSource):
        """Segment refs for the source's columns, publishing on first use.

        Keyed by table/filter identity: every engine of a session shares the
        cached shuffled table objects, and exact passes use the same
        per-table keys, so each dataset column crosses into shared memory
        exactly once no matter how many queries run.  Keyed objects are
        pinned while published (the store pins filter arrays; tables are
        pinned here), so an id can never be recycled while its cache entry
        lives.  Eviction happens through :meth:`unpublish` (driven by the
        session layer's LRU): segments are unlinked immediately and pool
        workers drop their cached attachments via the epoch GC watermark
        shipped with every task.
        """
        table = source.shuffled.table
        self._pinned_tables[id(table)] = table
        z_ref = self.store.publish(
            ("column", id(table), source.z_name), table.column(source.z_name)
        )
        x_ref = self.store.publish(
            ("column", id(table), source.x_name), table.column(source.x_name)
        )
        filter_ref = None
        if source.row_filter is not None:
            filter_ref = self.store.publish(
                ("filter", id(source.row_filter)), source.row_filter
            )
        codes_ref = None
        if source.codes is not None:
            codes_ref = self.store.publish(
                ("codes", id(source.codes)), source.codes
            )
        return z_ref, x_ref, filter_ref, codes_ref

    # --------------------------------------------------------------- counting

    def _fan_out(
        self,
        source: CountSource,
        blocks: np.ndarray,
        total_rows: int,
        span_name: str,
        label: str,
        filter_slices: np.ndarray | None = None,
    ) -> np.ndarray:
        """Plan shards, count each on the pool, merge exactly.

        The filter travels as a published segment (``source.row_filter``)
        or as per-shard slices of the mask (``filter_slices``, for one-shot
        exact passes) — never both.
        """
        layout = source.shuffled.layout
        shards = self.planner.plan(blocks, layout)
        pool = self.pool
        with self._dispatch_lock:
            z_ref, x_ref, filter_ref, codes_ref = self._refs(source)
            # Task ids are globally unique across the backend's lifetime
            # (allocated under the dispatch lock), so neither an earlier
            # failed call's stragglers nor a concurrently-running call of
            # another tenant can be mistaken for this call's shards.
            base_id = self.shard_tasks
            gc_epoch, live_segments = self.store.gc_state()
            tasks = [
                ShardTask(
                    task_id=base_id + shard.index,
                    blocks=shard.blocks,
                    z_ref=z_ref,
                    x_ref=x_ref,
                    filter_ref=filter_ref,
                    block_size=layout.block_size,
                    num_rows=layout.num_rows,
                    num_candidates=source.num_candidates,
                    num_groups=source.num_groups,
                    filter_values=(
                        filter_slices[layout.rows_of_blocks(shard.blocks)]
                        if filter_slices is not None
                        else None
                    ),
                    gc_epoch=gc_epoch,
                    live_segments=live_segments,
                    codes_ref=codes_ref,
                    kernel=source.kernel,
                )
                for shard in shards
            ]
            # Count dispatched (not completed) tasks, and do so before
            # running: ids must advance even if the call fails, or a retry
            # could collide with the failed call's stale results.
            self.shard_tasks += len(tasks)
        traced = self.tracer.enabled
        wall0 = float(time.monotonic_ns()) if traced else 0.0
        results = pool.run(tasks)
        if traced:
            shard_ns = [r.elapsed_ns for r in results]
            self.tracer.span_at(
                span_name,
                wall0,
                float(time.monotonic_ns()),
                clock="monotonic",
                backend=self.name,
                shards=len(tasks),
                rows=total_rows,
                shard_ns_max=max(shard_ns, default=0.0),
                shard_ns_mean=(sum(shard_ns) / len(shard_ns)) if shard_ns else 0.0,
            )
        if source.profiler.enabled:
            # Worker-side kernel nanoseconds (ShardResult.elapsed_ns), not
            # the coordinator's wait — IPC/queueing shows up in the trace
            # span instead, so the two views stay distinguishable.
            source.profiler.record_kernel(
                label,
                float(sum(result.elapsed_ns for result in results)),
                rows=sum(result.rows for result in results),
                blocks=int(blocks.size),
                nbytes=sum(result.moved_bytes for result in results),
                bincounts=len(tasks),
            )
        unfiltered = filter_ref is None and codes_ref is None and filter_slices is None
        return ShardMerger(source.num_candidates, source.num_groups).merge(
            results, shards, exact=unfiltered
        )

    def count_blocks(self, source: CountSource, blocks: np.ndarray) -> np.ndarray:
        total_rows = int(source.shuffled.layout.rows_per_block(blocks).sum())
        if total_rows < max(1, self.n_workers * self.min_shard_rows):
            # Inline fallback: same kernel, same rows, no pool round-trip
            # (and no shard planning — the plan would be discarded).
            with self._dispatch_lock:
                self.inline_windows += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "backend.inline", backend=self.name, rows=total_rows
                )
            return self._count_inline(source, blocks, "sharded.inline")
        return self._fan_out(
            source, blocks, total_rows, "backend.window", "sharded.window"
        )

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
        """Exact whole-table counts, sharded across the worker pool.

        The rows are partitioned under a synthetic block layout and every
        shard is counted by the same kernel the sampling path uses; exact
        integer sums over the disjoint partition make the merged matrix
        byte-identical to the serial pass.  Columns are published to shared
        memory under the same per-table keys as :meth:`count_blocks`, so a
        session's sampling and exact passes share one set of segments.  The
        row filter ships as per-shard slices instead of a segment: exact
        passes are one-shot, and a throwaway full-table mask in shared
        memory would stay pinned by worker attachment caches.
        """
        num_rows = table.num_rows
        if num_rows < max(1, self.n_workers * self.min_shard_rows):
            return super().count_table(
                table, z_name, x_name, num_candidates, num_groups, row_filter
            )
        source, blocks = exact_pass_source(
            table, z_name, x_name, num_candidates, num_groups, None, self.profiler
        )
        return self._fan_out(
            source, blocks, num_rows, "backend.table", "sharded.table", row_filter
        )

    # --------------------------------------------------------------- lifecycle

    def unpublish(self, *artifacts) -> None:
        """Unlink the shared-memory segments belonging to evicted artifacts.

        Artifacts are matched by identity against the store's publish keys
        (``("column", id(table), name)`` / ``("filter", id(mask))`` /
        ``("codes", id(codes))``), so a table drops all of its column
        segments and a filter mask or pair-code column drops its segment;
        pinned tables are released so their ids can be recycled.
        """
        ids = {id(artifact) for artifact in artifacts if artifact is not None}
        with self._dispatch_lock:
            if not ids or self.closed:
                return
            for key in self.store.keys():
                if isinstance(key, tuple) and len(key) >= 2 and key[1] in ids:
                    self.store.unpublish(key)
            for identity in ids:
                self._pinned_tables.pop(identity, None)

    def describe(self) -> dict:
        return {
            "backend": self.name,
            "workers": self.n_workers,
            "min_shard_rows": self.min_shard_rows,
            "shard_tasks": self.shard_tasks,
            "cpu_affinity": self.cpu_affinity or "none",
        }

    def close(self) -> None:
        """Shut the pool down and unlink every shared-memory segment."""
        with self._dispatch_lock:
            if self.closed:
                return
            self.closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()
        self.store.close()
        self._pinned_tables.clear()
