"""The process transport: shards counted by worker processes over shared memory.

:class:`ShardedBackend` is a :class:`~repro.parallel.backend.WorkerBackend`
whose workers are processes.  The coordinator's control flow (scan order,
windows, policies, budgets, statistical tests) is untouched; only a count
of at least ``min_fan_out_rows`` rows — in practice a deferred sampling
call's end count or a whole-table exact pass — crosses to the workers:

1. the shared fan-out plans row-balanced contiguous shards, one per worker;
2. the dataset's columns (and the query's row filter or pair codes) are
   published to shared memory once per session via
   :class:`~repro.parallel.shm.SharedMemoryStore` — workers attach
   zero-copy;
3. a persistent :class:`concurrent.futures.ProcessPoolExecutor` counts
   each shard (:func:`~repro.parallel.worker.run_task`);
4. :class:`~repro.parallel.merge.ShardMerger` sums the per-shard matrices
   into exactly the fresh-count state the serial path would have produced.

Everything smaller — every sampling window, and most calls at the scale of
this repo's workloads — falls below that floor (about a million rows, where
a round trip first pays at W = 2) and is counted inline, exactly as on the
serial backend.
"""

from __future__ import annotations

import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from multiprocessing import resource_tracker

from .backend import CountSource, WorkerBackend
from .shm import SharedMemoryStore
from .worker import ShardTask, WorkerSlots, run_task, start_worker

__all__ = ["ShardedBackend"]


class ShardedBackend(WorkerBackend):
    """Shared-memory multi-process counting behind the backend seam.

    Takes :class:`~repro.parallel.backend.WorkerBackend`'s arguments.  The
    worker processes start on the first count large enough to shard —
    forked where the platform can, spawned elsewhere — and then serve every
    later count and query.
    """

    name = "sharded"

    def __init__(self, n_workers: int | None = None, **options) -> None:
        super().__init__(n_workers, **options)
        self.store = SharedMemoryStore()
        # Tables whose columns were published, pinned by identity: segment
        # cache keys use id(table), so the object must outlive the cache
        # entry (a recycled id would silently serve another dataset's data).
        self._pinned_tables: dict[int, object] = {}

    # -------------------------------------------------------------- executor

    def _new_executor(self, cpusets):
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        # fork children share the parent's resource tracker; attach-time
        # registration bookkeeping differs accordingly (see attach_segment).
        shared_tracker = method == "fork"
        if shared_tracker:
            # Only a tracker that exists at fork time is shared.  The
            # workers usually start before the coordinator's first
            # SharedMemory does, and a worker forked without a tracker would
            # start a private one on its first attach, keep the attach-time
            # registration there, and unlink segments it does not own when
            # it exits.
            resource_tracker.ensure_running()
        ctx = mp.get_context(method)
        slots = WorkerSlots(self.n_workers, ctx)
        executor = ProcessPoolExecutor(
            self.n_workers,
            mp_context=ctx,
            initializer=start_worker,
            initargs=(slots, cpusets, shared_tracker),
        )
        # Fork the workers now, under the backend's lock (the first submit
        # forks them all), not on a count's first submit: a concurrent
        # count publishing a segment holds the resource tracker's lock, and
        # a worker forked in that instant would hang on its first attach.
        executor.submit(int)
        return executor, slots

    def set_tracer(self, tracer) -> None:
        """Attach a tracer to the backend and its shm store, which reports
        publish/unpublish/close through the tracer's event callback."""
        super().set_tracer(tracer)
        with self._lock:
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
        session layer's LRU): segments are unlinked immediately and the
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

    def _shard_calls(self, source, shards, base_id, table_filter):
        """Ship each shard to a worker as a task of segment refs.

        A sampling source's filter travels as a published segment.  An
        exact pass's mask ships as per-shard slices instead: the pass is
        one-shot, and a throwaway full-table mask in shared memory would
        stay pinned by worker attachment caches.
        """
        layout = source.shuffled.layout
        with self._lock:
            z_ref, x_ref, filter_ref, codes_ref = self._refs(source)
            gc_epoch, live_segments = self.store.gc_state()
        return [
            partial(run_task, ShardTask(
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
            ))
            for shard in shards
        ]

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
        """Shut the workers down and unlink every shared-memory segment."""
        super().close()
        with self._lock:  # not while a racing count publishes
            self.store.close()
            self._pinned_tables.clear()
