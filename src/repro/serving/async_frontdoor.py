"""The asyncio serving front door: multi-tenant, awaitable, single-threaded.

:class:`AsyncFrontDoor` is the asyncio *adapter* of the same sans-IO drive
core the thread door runs on (:class:`~repro.serving.drive.DriveCore`):
one scheduler task takes scheduling turns inside the event loop, yielding
to the loop between slices so concurrent submitters (one coroutine per
client) interleave freely without a single lock.  Everything semantic —
policy choice, deadlines, feasibility shedding, settlement, admission
release — is the engine's, and the admit path, stop/drain state and handle
resolution are the core's; the adapter only owns *when* turns happen and
*how* callers wait.

Typical multi-tenant use, one task group, many clients::

    registry = SessionRegistry(backend="sharded")
    registry.add_dataset("flights", flights.table)
    registry.add_dataset("taxi", taxi.table)

    async def client(door, request):
        handle = await door.submit(request)        # AdmissionRejected if full
        outcome = await handle.outcome()           # awaitable, no blocking
        return outcome.report

    async def main():
        async with AsyncFrontDoor(registry, policy="edf-f",
                                  max_queue=32) as door:
            reports = await asyncio.gather(
                client(door, QueryRequest(q1, dataset="flights")),
                client(door, QueryRequest(q2, dataset="taxi")),
            )

Run the service on a :class:`~repro.system.clock.WallClock` for real-time
deadlines, or keep the default :class:`SimulatedClock` for deterministic
studies — the driver is clock-agnostic.  Because engine steps execute in
the event loop, a step is the scheduling granularity: keep
``default_max_step_rows`` bounded so the loop stays responsive.

The async driver never changes what a query computes: per-request answers
are byte-identical to the thread front door and the batch drain under
every policy.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

from .drive import DriveCore
from .engine import ServingOutcome, TrackedJob
from .request import QueryRequest, ServingError

__all__ = ["AsyncFrontDoor", "AsyncResponseHandle"]


class AsyncResponseHandle:
    """Awaitable handle for one admitted request."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._event = asyncio.Event()
        self._outcome: ServingOutcome | None = None

    def _resolve(self, outcome: ServingOutcome) -> None:
        self._outcome = outcome
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    async def outcome(self) -> ServingOutcome:
        """The full serving record; awaits finalization."""
        await self._event.wait()
        assert self._outcome is not None
        return self._outcome

    async def result(self):
        """The :class:`~repro.system.report.RunReport`, complete or partial.

        Raises the outcome's typed error (:class:`DeadlineMiss` on a
        no-partial deadline expiry, :class:`ServingError` on cancellation)
        when no answer was produced.
        """
        outcome = await self.outcome()
        if outcome.report is None:
            assert outcome.error is not None
            raise outcome.error
        return outcome.report


class AsyncFrontDoor(DriveCore):
    """Asyncio admission + scheduling in front of one serving *service*.

    Parameters
    ----------
    service:
        A :class:`~repro.system.MatchSession` or
        :class:`~repro.system.SessionRegistry` (requests route by their
        ``dataset`` key) — anything exposing ``job_for_request``,
        ``clock``, ``backend``, and ``close``.  :meth:`shutdown` (or the
        ``async with`` exit) closes it.
    policy, max_queue, default_deadline_ns, default_max_step_rows:
        As for the thread :class:`~repro.serving.FrontDoor`.
    max_concurrent_steps:
        Step-execution slots.  The default 1 keeps the classic
        single-tasked mode: steps run inline in the scheduler task, fully
        deterministic on a simulated clock.  Above 1 the scheduler
        offloads picked steps to a bounded thread-pool executor
        (``loop.run_in_executor``) and settles each as it completes, so
        steps of *different* requests overlap on a multi-core machine
        where NumPy releases the GIL (gathers, ufuncs; ``np.bincount`` and
        the Python around it do not).  Answers stay byte-identical
        in either mode, and only answers: above one slot, steps settle in
        the order they finish, so simulated latencies vary from run to run
        as well as wall-clock ones, and so do cache hit counts when
        requests share a session.

    All methods must be called from one event loop.  In single-slot mode
    the door is single-threaded by construction; in multi-slot mode all
    scheduling still happens in the event loop (pick, settle, admission,
    handles) and only ``job.step()`` runs on executor threads.
    """

    label = "async front door"
    handle_type = AsyncResponseHandle

    def _init_adapter(self) -> None:
        self._task: asyncio.Task | None = None
        self._wake = asyncio.Event()
        self._shutdown_started = False
        self._closed = asyncio.Event()

    # --------------------------------------------------------------- lifecycle

    def start(self) -> "AsyncFrontDoor":
        """Spawn the scheduler task in the running event loop."""
        if self._stopping:
            raise ServingError("async front door is shut down")
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._loop(), name="repro-async-front-door"
            )
        return self

    async def __aenter__(self) -> "AsyncFrontDoor":
        return self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    # ------------------------------------------------------------- submission

    async def submit(self, request: QueryRequest) -> AsyncResponseHandle:
        """Admit one request; returns an awaitable handle immediately.

        Raises :class:`AdmissionRejected` when shed and
        :class:`ServingError` after shutdown.  Preparation (artifact cache
        work) happens inline in the submitting coroutine — admitted
        requests are scheduler-ready by the time the handle exists.
        """
        handle = self._submit(request)
        self._wake.set()
        return handle

    # -------------------------------------------------------------- execution

    async def _loop(self) -> None:
        """The scheduler task: one turn per pass through the event loop.

        All engine calls stay in the event loop.  With one slot the turn
        runs its step inline and settles it at once; with more,
        ``run_in_executor`` threads run ``job.step()`` and set the wake
        event when they report, so the task sleeps until a step completes
        or a request arrives.
        """
        reason = None
        loop = asyncio.get_running_loop()
        executor, start = None, None
        running: set[asyncio.Future] = set()
        if self.max_concurrent_steps != 1:
            executor = ThreadPoolExecutor(
                max_workers=self.max_concurrent_steps,
                thread_name_prefix="repro-step",
            )

            def run_step(entry: TrackedJob) -> None:
                self.engine.run_step(entry)
                loop.call_soon_threadsafe(self._wake.set)

            def start(entry: TrackedJob) -> None:
                future = loop.run_in_executor(executor, run_step, entry)
                running.add(future)
                future.add_done_callback(running.discard)

        try:
            while True:
                started = self.turn(start)
                if self._drained:
                    break
                if started:
                    # Submitters and other tasks get the loop between slices.
                    await asyncio.sleep(0)
                else:
                    # Park until a submit, a completion or shutdown sets the
                    # event.  No wakeup can slip through: there is no await
                    # between the turn (and the exit check) and this clear,
                    # and a completion reported since is set by a callback
                    # that only runs once this task awaits.
                    self._wake.clear()
                    await self._wake.wait()
        except asyncio.CancelledError:
            reason = "async front door task cancelled"
            raise
        except Exception as exc:
            # A failing scheduler must not strand the requests' handles.
            reason = f"async front door scheduler failed: {exc!r}"
        finally:
            # Let in-flight steps finish before cancelling what remains —
            # the service close that follows shutdown must not pull the
            # backend out from under a running step.
            if executor is not None:
                await asyncio.gather(*running, return_exceptions=True)
                executor.shutdown(wait=True)
            self._close(reason)

    async def pump(self) -> list[ServingOutcome]:
        """Serve until idle without a scheduler task (no-task mode); yields
        to the event loop between slices.  Returns the outcomes finalized
        by this call, in submission order."""
        if self._task is not None:
            raise ServingError("pump() cannot run alongside start()")
        finished: list[TrackedJob] = []
        while self.turn(finished=finished):
            await asyncio.sleep(0)
        return self._in_order(finished)

    # ---------------------------------------------------------------- shutdown

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, finish (or cancel) in-flight work, close the service.

        ``drain=True`` serves every admitted request to its normal outcome
        first; ``drain=False`` cancels in-flight requests, resolving their
        handles with a :class:`ServingError`.  Idempotent and safe under
        concurrent callers: the first caller drains and closes, later
        callers wait for that close instead of closing the service under
        the still-draining scheduler task.
        """
        if self._shutdown_started:
            await self._closed.wait()
            return
        self._shutdown_started = True
        # The loop marks itself stopped on failure.
        already = self._request_stop(drain)
        try:
            if self._task is not None:
                self._wake.set()
                task, self._task = self._task, None
                await task
            elif not already:
                if drain:
                    await self.pump()
                self._close()
        finally:
            # Close even when the drain raised (task cancelled, loop torn
            # down): _closed must never be set with the service — worker
            # pool, shared-memory segments — still open, or later callers
            # would believe the close happened.
            self.service.close()
            self._closed.set()
