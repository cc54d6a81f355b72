"""The serving front door: accept queries while others are running.

:class:`FrontDoor` wires one serving *service* to the scheduling engine:
admission, the admit path, the accepting → stopping → drained state, the
handle table, and one scheduling turn (:meth:`FrontDoor.turn` — the
engine's :meth:`~repro.serving.engine.ServingEngine.turn` plus handle
resolution).  Every scheduling decision is the engine's.  The batch drain
(:class:`~repro.system.scheduler.BatchScheduler`) has no service,
admission or handles, so it calls the engine's turn directly.

The door serves either one :class:`~repro.system.MatchSession` (single
dataset) or a :class:`~repro.system.SessionRegistry` (many datasets,
requests routed by their ``dataset`` key).  Either way:

- **admission control** — arrivals beyond ``max_queue`` requests in flight
  are shed with a typed :class:`AdmissionRejected` *before* any
  preparation work is spent on them;
- **deadline-aware scheduling** — admitted requests become resumable
  stepper jobs time-sliced by a pluggable policy, with per-request
  deadlines settled by the engine (ε-relaxed partial answers or typed
  misses) on each job's own clock;
- **drive modes** — :meth:`start` spawns a scheduler thread so
  :meth:`submit` can be called while earlier queries run (handles resolve
  asynchronously); :meth:`pump` serves inline until idle, and
  :meth:`replay` runs a whole open-loop arrival trace synchronously on a
  *virtual* clock (deterministic; used by the benchmark and the CLI trace
  mode).

A :class:`ResponseHandle` is backed by a :class:`concurrent.futures.Future`:
a thread waits on ``handle.outcome(timeout)``, and a coroutine awaits the
handle itself while the step runs on the scheduler thread, so an event
loop never runs a step.

The door lock covers a turn's pick and settle only: a step runs outside
it, so :meth:`submit` and :meth:`shutdown` never wait for a step boundary.
One step runs at a time.

The front door never changes what a query computes: a request served here
(any policy, no deadline) returns byte-identical results to a standalone
:func:`repro.match_histograms` call with the same parameters.
"""

from __future__ import annotations

import threading
from concurrent import futures
from typing import Callable, Iterable

from ..obs.tracer import NULL_TRACER
from .admission import AdmissionController
from .engine import ServingEngine, ServingOutcome, TrackedJob
from .metrics import SHED, ServingMetrics
from .policies import SchedulingPolicy
from .request import AdmissionRejected, QueryRequest, ServingError

__all__ = ["FrontDoor", "ResponseHandle"]


class ResponseHandle:
    """Future-backed handle for one admitted request.

    Wait with :meth:`outcome` / :meth:`result` from any thread, or
    ``await handle`` from a coroutine (it yields the
    :class:`~repro.serving.engine.ServingOutcome`).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._future: futures.Future = futures.Future()
        # Running futures cannot be cancelled: an awaiting task that is
        # cancelled must not cancel the request's resolution under the door.
        self._future.set_running_or_notify_cancel()

    def _resolve(self, outcome: ServingOutcome) -> None:
        self._future.set_result(outcome)

    @property
    def done(self) -> bool:
        return self._future.done()

    def outcome(self, timeout: float | None = None) -> ServingOutcome:
        """The full serving record; blocks until finalized (threaded mode)."""
        try:
            return self._future.result(timeout)
        except futures.TimeoutError:
            raise TimeoutError(f"request {self.name!r} is still being served") from None

    def result(self, timeout: float | None = None):
        """The :class:`~repro.system.report.RunReport`, complete or partial.

        Raises the outcome's typed error (:class:`DeadlineMiss` on a
        no-partial deadline expiry, :class:`ServingError` on cancellation)
        when no answer was produced.
        """
        outcome = self.outcome(timeout)
        if outcome.report is None:
            assert outcome.error is not None
            raise outcome.error
        return outcome.report

    def __await__(self):
        import asyncio  # only callers that await pay for the import

        return asyncio.wrap_future(self._future).__await__()


class FrontDoor:
    """Online admission + scheduling in front of one serving *service*.

    Parameters
    ----------
    service:
        A :class:`~repro.system.MatchSession` (single dataset) or
        :class:`~repro.system.SessionRegistry` (many datasets; requests
        route by ``dataset`` key) — anything exposing ``job_for_request``,
        ``clock``, ``backend``, and ``close``.  :meth:`shutdown` closes it
        (safe even if the caller closes it again — closes are idempotent).
    policy:
        Scheduling policy name or instance (default ``"edf"``).
    max_queue:
        Admission bound on requests in flight; ``None`` = unbounded.
    default_deadline_ns:
        Deadline applied to requests that do not set their own.
    default_max_step_rows:
        Time-slice granularity for requests that do not set their own
        (``None`` keeps per-round steps).  One step runs at a time, so
        this bound is what keeps a long step from holding up a request
        queued behind it.
    max_concurrent_steps:
        Accepted for compatibility; a door runs one step at a time, so
        only ``1`` is allowed.
    tracer:
        Optional :class:`~repro.obs.Tracer`; defaults to the service's.
    """

    def __init__(
        self,
        service,
        *,
        policy: str | SchedulingPolicy = "edf",
        max_queue: int | None = None,
        default_deadline_ns: float | None = None,
        default_max_step_rows: int | None = None,
        max_concurrent_steps: int = 1,
        tracer=None,
    ) -> None:
        if max_concurrent_steps != 1:
            raise ValueError(
                "a door runs one step at a time; max_concurrent_steps must "
                f"be 1, got {max_concurrent_steps}"
            )
        self.service = service
        # Tracing: explicit tracer beats the service's (sessions/registries
        # carry one when constructed with tracer=...); default is the no-op.
        self.tracer = tracer or getattr(service, "tracer", None) or NULL_TRACER
        self.metrics = ServingMetrics()
        if self.tracer.enabled:
            if self.tracer.clock is None:
                self.tracer.clock = service.clock
            # Per-stage sketches fill from the same spans the trace records.
            self.tracer.subscribe(self.metrics)
        self.admission = AdmissionController(max_queue)
        self.default_deadline_ns = default_deadline_ns
        self.default_max_step_rows = default_max_step_rows
        self.engine = ServingEngine(
            service.clock,
            policy=policy,
            admission=self.admission,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self._accepting = True
        self._stopping = False
        self._drain_on_stop = True
        self._handles: dict[int, ResponseHandle] = {}
        self._wake = threading.Condition()  # the door lock (reentrant)
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------- submission

    def submit(self, request: QueryRequest) -> ResponseHandle:
        """Admit one request while others run; returns a handle immediately.

        Raises :class:`AdmissionRejected` synchronously when shed, and
        :class:`ServingError` after shutdown.  Usable from any thread once
        :meth:`start` has been called; without a running thread, call
        :meth:`turn`, :meth:`pump` (or :meth:`replay`) to actually serve.
        """
        with self._wake:
            handle = self._submit(request)
            self._wake.notify_all()
            return handle

    def _submit(self, request: QueryRequest, submitted_ns: float | None = None):
        """Admission + routing + job construction + engine submission, under
        the door lock; returns the request's handle.

        Raises :class:`AdmissionRejected` without building the job when the
        queue is full — load shedding must not pay preparation costs.
        ``submitted_ns`` backdates the request (open-loop replay: latency,
        deadline and lifecycle spans all run from arrival).
        """
        if not self._accepting:
            raise ServingError("front door is shut down")
        name = request.name or request.query.name or "query"
        tenant = getattr(request, "dataset", None)
        deadline_ns = (
            request.deadline_ns
            if request.deadline_ns is not None
            else self.default_deadline_ns
        )
        admission, tracer = self.admission, self.tracer
        admitted = admission.try_admit()
        if tracer.enabled:
            tracer.event(
                "admission.accept" if admitted else "admission.shed",
                clock=self.service.clock,
                name=name,
                tenant=tenant,
                in_flight=admission.in_flight,
                max_queue=admission.max_queue,
            )
        if not admitted:
            self.metrics.record_shed(
                had_deadline=deadline_ns is not None, tenant=tenant
            )
            raise AdmissionRejected(name, admission.in_flight, admission.max_queue)
        try:
            job = self.service.job_for_request(
                request, default_max_step_rows=self.default_max_step_rows
            )
            entry = self.engine.submit(
                job,
                deadline_ns=deadline_ns,
                on_deadline=request.on_deadline,
                name=request.name,
                submitted_ns=submitted_ns,
            )
        except Exception:
            # The slot was acquired but no job will ever release it.
            admission.release()
            raise
        handle = self._handles[entry.seq] = ResponseHandle(entry.name)
        return handle

    # -------------------------------------------------------------- execution

    def turn(
        self,
        start: Callable[[TrackedJob], object] | None = None,
        finished: list[TrackedJob] | None = None,
    ) -> int:
        """One scheduling turn under the door lock, then resolve the handle
        of everything it finalized — also when a step failed and the engine
        folded the failure into every pending outcome.

        ``start`` is the runner for the picked step; the default runs it
        inline, settled before the turn returns.  After a no-drain stop the
        turn does nothing: :meth:`_close` cancels what is pending, and a
        step still running reports too late to be settled.  Returns the
        number of steps started (0 or 1); the entries it finalized are
        appended to ``finished`` when given.
        """
        with self._wake:
            if self._stopping and not self._drain_on_stop:
                return 0
            try:
                return self.engine.turn(start)
            finally:
                # pick() finalizes expiries/sheds even when nothing is
                # dispatchable; those handles resolve promptly too.
                resolved = self._resolve()
                if finished is not None:
                    finished += resolved

    def _resolve(self) -> list[TrackedJob]:
        """Resolve handles for everything finalized since the last call."""
        finished = self.engine.take_finished()
        for entry in finished:
            handle = self._handles.pop(entry.seq, None)
            if handle is not None:
                handle._resolve(entry.outcome)
        return finished

    def pump(self) -> list[ServingOutcome]:
        """Serve synchronously until idle (no-thread mode); returns the
        outcomes finalized by this call, in submission order."""
        with self._wake:
            if self._thread is not None:
                raise ServingError("pump() cannot run alongside start()")
            finished: list[TrackedJob] = []
            while self.turn(finished=finished):
                pass
            return [e.outcome for e in sorted(finished, key=lambda e: e.seq)]

    def _loop(self) -> None:
        """The scheduler thread: turn under the door lock, run the step the
        turn picked outside it.

        Every pick, settle and handle resolution runs here under the lock;
        only ``job.step()`` runs without it, still on this thread, and the
        next turn settles it.  So no step is running when the epilogue
        cancels what remains and shutdown closes the service.
        """
        reason = None
        picked: list[TrackedJob] = []
        try:
            while True:
                with self._wake:
                    started = self.turn(picked.append)
                    if self._stopping and (
                        not self._drain_on_stop or self.engine.idle
                    ):
                        break
                    if not started:
                        self._wake.wait(timeout=0.05)
                for entry in picked:
                    self.engine.run_step(entry)
                picked.clear()
        except Exception as exc:
            # A failing scheduler must not strand the requests' handles:
            # the failure is folded into every unresolved outcome below.
            reason = f"front door scheduler failed: {exc!r}"
        finally:
            with self._wake:
                self._close(reason)

    def start(self) -> "FrontDoor":
        """Spawn the scheduler thread; requests are then served as they come."""
        with self._wake:
            if self._stopping:
                raise ServingError("front door is shut down")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="repro-front-door", daemon=True
                )
                self._thread.start()
        return self

    # ----------------------------------------------------------------- replay

    def replay(
        self, trace: Iterable[tuple[float, QueryRequest]]
    ) -> tuple[ServingOutcome, ...]:
        """Serve an open-loop arrival trace on the service's virtual clock.

        ``trace`` holds ``(arrival_ns, request)`` pairs.  Arrivals are
        injected once the clock reaches their timestamp — the server cannot
        peek at future requests — and the clock *idles forward* to the next
        arrival whenever the queue is empty, exactly like a real server
        waiting for traffic.  Requests that arrive while the server is
        mid-slice are admitted at the next step boundary but backdated to
        their arrival time, so latency and deadlines are measured
        open-loop.  Shed arrivals yield :data:`SHED` outcomes.

        Synchronous and deterministic; mutually exclusive with
        :meth:`start`, and only meaningful on a virtual
        (:class:`~repro.system.clock.SimulatedClock`) timeline — a wall
        clock cannot be idled forward.  Returns every outcome of the
        trace, in arrival order.
        """
        with self._wake:
            if self._thread is not None:
                raise ServingError("replay() cannot run alongside start()")
            if not self._accepting:
                raise ServingError("front door is shut down")
            clock = self.service.clock
            if not getattr(clock, "virtual", False):
                raise ServingError(
                    "replay() needs a virtual clock (SimulatedClock); "
                    f"the service runs on {type(clock).__name__}"
                )
            events = sorted(trace, key=lambda pair: pair[0])
            # One per arrival so far: its handle, or its SHED outcome.
            # (Requests submitted before the replay report through their
            # own handles only and stay out of the trace's outcome list.)
            served: list[ResponseHandle | ServingOutcome] = []
            while True:
                while (
                    len(served) < len(events)
                    and events[len(served)][0] <= clock.elapsed_ns
                ):
                    arrival_ns, request = events[len(served)]
                    try:
                        served.append(self._submit(request, submitted_ns=arrival_ns))
                    except AdmissionRejected as exc:
                        served.append(
                            ServingOutcome(
                                name=exc.name,
                                status=SHED,
                                report=None,
                                submitted_ns=arrival_ns,
                                finished_ns=arrival_ns,
                                steps=0,
                                service_ns=0.0,
                                error=exc,
                            )
                        )
                if not self.turn():
                    if len(served) == len(events):
                        break
                    clock.idle_until(events[len(served)][0])
            return tuple(
                h if isinstance(h, ServingOutcome) else h.outcome(0) for h in served
            )

    # ---------------------------------------------------------------- shutdown

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Stop accepting, finish (or cancel) in-flight work, close the service.

        ``drain=True`` serves every admitted request to its normal outcome
        first; ``drain=False`` cancels in-flight requests, resolving their
        handles with a :class:`ServingError`.  Idempotent and safe under
        concurrent callers: without a scheduler thread the first caller
        stops, drains and closes in one hold of the door lock, so a later
        caller waits for that close.  The service close underneath is
        idempotent too — a caller that also closes the session/registry
        is safe.

        Returns True once everything is stopped and the service is closed.
        When ``timeout`` expires with the scheduler thread still draining,
        returns False *without* closing the service (closing the backend
        under a thread that is still stepping would fail its in-flight
        query); call :meth:`shutdown` again to finish.
        """
        with self._wake:
            already = self._stopping
            self._accepting = False
            self._stopping = True
            self._drain_on_stop = drain
            self._wake.notify_all()
            thread = self._thread
            if thread is None and not already:
                while drain and self.turn():
                    pass
                self._close()
        if thread is not None:
            thread.join(timeout)
            if thread.is_alive():
                return False
        with self._wake:
            self.service.close()
        return True

    def _close(self, reason: str | None = None) -> None:
        """The epilogue, once no step is running: whatever is still pending —
        shutdown without drain, or a scheduler that died — is cancelled with
        ``reason`` and its handle resolved."""
        self._stopping = True
        self._accepting = False
        self.engine.cancel_pending(reason or "front door shut down mid-flight")
        self._resolve()

    def __enter__(self) -> "FrontDoor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
