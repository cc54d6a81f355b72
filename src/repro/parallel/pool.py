"""Persistent worker pool: spawn once per session, reuse across queries.

Workers are plain ``multiprocessing`` processes running
:func:`~repro.parallel.worker.worker_loop` over a shared task queue, so a
window's shards are pulled by whichever workers are free.  The pool is
deliberately persistent — process startup (interpreter + NumPy import under
the ``spawn`` method) costs orders of magnitude more than one window's
counting, so a :class:`~repro.system.session.MatchSession` pays it once and
amortizes it over every query it serves.

The pool is also safe under **concurrent** :meth:`WorkerPool.run` calls:
when a front door executes steps of different tenants concurrently, their
windows interleave on the shared queues.  Task ids are globally unique
(allocated by the backend), and the gather side routes every result to the
``run`` call that owns its id — one caller at a time drains the result
queue and *deposits* results belonging to other callers, who claim them
under the shared condition.  A result can therefore never cross-settle
into another tenant's merge, and a failed call's stragglers are remembered
and dropped instead of poisoning later calls.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_module
import threading
import time
from multiprocessing import resource_tracker
from typing import Sequence

from ..obs.tracer import NULL_TRACER
from .affinity import apply_affinity, plan_affinity
from .worker import ShardResult, ShardTask, worker_loop

__all__ = ["WorkerPool", "default_start_method"]


def default_start_method() -> str:
    """``fork`` where available (cheap, Linux), else ``spawn`` (macOS/Windows)."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


class WorkerPool:
    """A fixed set of shard-counting worker processes over shared queues.

    Parameters
    ----------
    n_workers:
        Pool size.  One task queue feeds all workers, so up to ``n_workers``
        shards of one window count concurrently.
    start_method:
        ``multiprocessing`` start method; default per
        :func:`default_start_method`.
    result_timeout_s:
        How long one result may take before the pool checks worker liveness
        (a dead worker otherwise means waiting forever).
    cpu_affinity:
        Optional worker-placement policy (``"spread"`` / ``"compact"``, see
        :mod:`~repro.parallel.affinity`): each worker process is pinned to
        one CPU right after spawn.  Best-effort — unsupported platforms
        leave workers unpinned; :attr:`affinity_applied` reports how many
        pins actually took.
    """

    #: Observability hook (set by the owning backend's ``set_tracer``):
    #: each :meth:`run` emits a ``pool.run`` span with its deposit-wait
    #: time when the tracer is enabled.  Never touches gather correctness.
    tracer = NULL_TRACER

    def __init__(
        self,
        n_workers: int,
        start_method: str | None = None,
        result_timeout_s: float = 60.0,
        cpu_affinity: str | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if result_timeout_s <= 0:
            raise ValueError(f"result_timeout_s must be positive, got {result_timeout_s}")
        # Planned (and so validated) before any process starts: a bad policy
        # must not leave workers behind.
        cpusets = plan_affinity(cpu_affinity, n_workers)
        self.n_workers = n_workers
        self.start_method = start_method or default_start_method()
        self.result_timeout_s = result_timeout_s
        self.cpu_affinity = cpu_affinity
        self.affinity_applied = 0
        self.tasks_dispatched = 0
        self.closed = False
        # Concurrent-run gather state (see run()): one caller drains the
        # result queue at a time; results for other callers are deposited
        # here keyed by task id, abandoned ids are stragglers of failed
        # runs that must never be claimed.
        self._gather = threading.Condition()
        self._draining = False
        self._deposited: dict[int, tuple[ShardResult | None, str | None]] = {}
        self._abandoned: set[int] = set()
        self._last_result_monotonic = time.monotonic()
        ctx = mp.get_context(self.start_method)
        self._task_queue = ctx.Queue()
        self._result_queue = ctx.Queue()
        # fork children share the parent's resource tracker; attach-time
        # registration bookkeeping differs accordingly (see attach_segment).
        shared_tracker = self.start_method == "fork"
        if shared_tracker:
            # Only a tracker that exists at fork time is shared.  The pool
            # usually starts before the coordinator's first SharedMemory
            # does, and a worker forked without a tracker would start a
            # private one on its first attach, keep the attach-time
            # registration there, and unlink segments it does not own when
            # it exits.
            resource_tracker.ensure_running()
        self._workers = [
            ctx.Process(
                target=worker_loop,
                args=(self._task_queue, self._result_queue, shared_tracker),
                name=f"repro-shard-worker-{i}",
                daemon=True,
            )
            for i in range(n_workers)
        ]
        for worker in self._workers:
            worker.start()
        if cpusets:
            for worker, cpuset in zip(self._workers, cpusets):
                if worker.pid is not None and apply_affinity(worker.pid, cpuset):
                    self.affinity_applied += 1

    @property
    def alive_workers(self) -> int:
        return sum(1 for worker in self._workers if worker.is_alive())

    def run(self, tasks: Sequence[ShardTask]) -> list[ShardResult]:
        """Dispatch shard tasks and gather all results, ordered by task id.

        Raises if any task failed or any worker died — partial counts must
        never be merged, or the exactness guarantee silently breaks.  A
        worker death closes the pool: results for the dead worker's tasks
        can never arrive, and surviving workers' late results must not leak
        into a later ``run`` call.

        Safe under concurrent callers (task ids are globally unique across
        the backend's lifetime): one caller at a time drains the shared
        result queue, depositing results owned by other in-flight calls for
        them to claim, so interleaved windows can never cross-settle.
        """
        if self.closed:
            raise RuntimeError("WorkerPool is closed")
        traced = self.tracer.enabled
        wall0 = float(time.monotonic_ns()) if traced else 0.0
        deposit_wait_ns = 0.0
        expected = {task.task_id for task in tasks}
        if len(expected) != len(tasks):
            raise ValueError("task ids must be unique within one run")
        with self._gather:
            for task in tasks:
                self._task_queue.put(task)
            self.tasks_dispatched += len(tasks)
        results: dict[int, ShardResult] = {}
        errors: list[str] = []

        def absorb(task_id: int, result, error) -> None:
            if error is not None:
                errors.append(f"task {task_id}: {error}")
            else:
                results[task_id] = result

        try:
            while len(results) + len(errors) < len(tasks):
                with self._gather:
                    # Claim results another caller's drain deposited for us.
                    for task_id in expected.difference(results):
                        entry = self._deposited.pop(task_id, None)
                        if entry is not None:
                            absorb(task_id, *entry)
                    if len(results) + len(errors) >= len(tasks):
                        break
                    if self.closed:
                        raise RuntimeError(
                            "worker pool closed with shard task(s) outstanding"
                        )
                    if self._draining:
                        # Someone else is on the queue; wait for a deposit.
                        if traced:
                            wait0 = time.monotonic_ns()
                            self._gather.wait(timeout=0.1)
                            deposit_wait_ns += time.monotonic_ns() - wait0
                        else:
                            self._gather.wait(timeout=0.1)
                        continue
                    self._draining = True
                # Sole drainer: pull one item off the shared result queue.
                got = None
                try:
                    got = self._result_queue.get(
                        timeout=min(0.1, self.result_timeout_s)
                    )
                except queue_module.Empty:
                    stale = (
                        time.monotonic() - self._last_result_monotonic
                        >= self.result_timeout_s
                    )
                    if self.alive_workers < self.n_workers and (
                        stale or self._result_queue.empty()
                    ):
                        self.close()
                        raise RuntimeError(
                            f"worker died with {len(tasks) - len(results)} shard "
                            "task(s) outstanding; pool closed"
                        ) from None
                finally:
                    with self._gather:
                        self._draining = False
                        if got is not None:
                            task_id, result, error = got
                            self._last_result_monotonic = time.monotonic()
                            if task_id in expected:
                                absorb(task_id, result, error)
                            elif task_id in self._abandoned:
                                # A straggler from a failed run; never merge.
                                self._abandoned.discard(task_id)
                            else:
                                # A concurrent caller's result: deposit it.
                                self._deposited[task_id] = (result, error)
                        self._gather.notify_all()
        except BaseException:
            # Whatever this run will never claim must not be mistaken for
            # a later run's results when the worker eventually reports.
            with self._gather:
                self._abandoned.update(expected.difference(results))
                for task_id in expected:
                    self._deposited.pop(task_id, None)
                self._gather.notify_all()
            raise
        if errors:
            with self._gather:
                self._abandoned.update(expected.difference(results))
                self._gather.notify_all()
            raise RuntimeError("shard task(s) failed: " + "; ".join(errors))
        if traced:
            self.tracer.span_at(
                "pool.run",
                wall0,
                float(time.monotonic_ns()),
                clock="monotonic",
                tasks=len(tasks),
                workers=self.n_workers,
                deposit_wait_ns=float(deposit_wait_ns),
            )
        return [results[task.task_id] for task in tasks]

    def close(self) -> None:
        """Stop all workers and release the queues.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        for _ in self._workers:
            self._task_queue.put(None)
        for worker in self._workers:
            worker.join(timeout=10.0)
        for worker in self._workers:
            if worker.is_alive():  # pragma: no cover - defensive
                worker.terminate()
                worker.join(timeout=5.0)
        for q in (self._task_queue, self._result_queue):
            q.close()
            q.join_thread()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
