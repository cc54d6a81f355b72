"""The process transport: shards counted by a pool over shared memory.

:class:`ShardedBackend` is a :class:`~repro.parallel.backend.WorkerBackend`
whose workers are processes.  The coordinator's control flow (scan order,
windows, policies, budgets, statistical tests) is untouched; only the
counting of a set of delivered blocks — from the sampling engine a whole
sampling call's, once per call — crosses into the pool:

1. the shared fan-out plans row-balanced contiguous shards, one per worker;
2. the dataset's columns (and the query's row filter or pair codes) are
   published to shared memory once per session via
   :class:`~repro.parallel.shm.SharedMemoryStore` — workers attach
   zero-copy;
3. the persistent :class:`~repro.parallel.pool.WorkerPool` counts each
   shard;
4. :class:`~repro.parallel.merge.ShardMerger` sums the per-shard matrices
   into exactly the fresh-count state the serial path would have produced.

Small calls (common in stage 1's budget-trimmed reads, late stage-2
rounds and bounded ``max_step_rows`` steps) fall below ``min_shard_rows``
and are counted inline — process round trips would cost more than they
save.
"""

from __future__ import annotations

import numpy as np

from .backend import CountSource, WorkerBackend
from .pool import WorkerPool
from .shard import Shard
from .shm import SharedMemoryStore
from .worker import ShardResult, ShardTask

__all__ = ["ShardedBackend"]


class ShardedBackend(WorkerBackend):
    """Shared-memory multi-process counting behind the backend seam.

    Takes :class:`~repro.parallel.backend.WorkerBackend`'s arguments, plus
    ``start_method``, the worker start method (default: ``fork`` where
    available).  The pool is spawned on the first count large enough to
    shard, then reused for every subsequent count and query; the pinning
    policy is forwarded to it.
    """

    name = "sharded"

    def __init__(
        self, n_workers: int | None = None, *, start_method: str | None = None,
        **options,
    ) -> None:
        super().__init__(n_workers, **options)
        self.start_method = start_method
        self.store = SharedMemoryStore()
        self._pool: WorkerPool | None = None
        # Tables whose columns were published, pinned by identity: segment
        # cache keys use id(table), so the object must outlive the cache
        # entry (a recycled id would silently serve another dataset's data).
        self._pinned_tables: dict[int, object] = {}

    # ------------------------------------------------------------------ pool

    @property
    def pool(self) -> WorkerPool:
        """The persistent worker pool, spawned on first use.

        A pool that closed itself (worker death fails the in-flight window
        and poisons the pool so stale results can't leak) is replaced by a
        fresh one here, so the backend recovers for subsequent queries
        instead of failing every later window against a dead pool.
        """
        with self._lock:
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
        with self._lock:
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

    def _run_shards(
        self,
        source: CountSource,
        shards: list[Shard],
        base_id: int,
        table_filter: np.ndarray | None,
    ) -> list[ShardResult]:
        """Ship each shard to the pool as a task of segment refs.

        A sampling source's filter travels as a published segment.  An
        exact pass's mask ships as per-shard slices instead: the pass is
        one-shot, and a throwaway full-table mask in shared memory would
        stay pinned by worker attachment caches.
        """
        pool = self.pool
        layout = source.shuffled.layout
        with self._lock:
            z_ref, x_ref, filter_ref, codes_ref = self._refs(source)
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
                    table_filter[layout.rows_of_blocks(shard.blocks)]
                    if table_filter is not None
                    else None
                ),
                gc_epoch=gc_epoch,
                live_segments=live_segments,
                codes_ref=codes_ref,
                kernel=source.kernel,
            )
            for shard in shards
        ]
        return pool.run(tasks)

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
        with self._lock:
            if not ids or self.closed:
                return
            for key in self.store.keys():
                if isinstance(key, tuple) and len(key) >= 2 and key[1] in ids:
                    self.store.unpublish(key)
            for identity in ids:
                self._pinned_tables.pop(identity, None)

    def close(self) -> None:
        """Shut the pool down and unlink every shared-memory segment."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()
        self.store.close()
        self._pinned_tables.clear()
