"""The sans-IO drive core both front doors are adapters of.

:class:`DriveCore` is everything an online door is *apart from* how it
waits: the service / tracer / metrics / admission / engine wiring, the
admit path, the accepting → stopping → drained state machine, the handle
table, and the scheduling turn (:meth:`DriveCore.turn` — the engine's
:meth:`~repro.serving.engine.ServingEngine.turn` plus handle resolution).
Plain Python: no threads, no event loop, no lock of its own.  The adapter
that subclasses it provides mutual exclusion, decides where the one picked
step runs (on the scheduler thread outside the door lock, or inline in the
scheduler task) and how a caller waits (``threading.Event`` /
``asyncio.Event``); ``pump``, ``replay`` and a no-driver ``shutdown`` just
call the inline turn until idle.  The batch drain
(:class:`~repro.system.scheduler.BatchScheduler`) has no service,
admission or handles, so it calls the engine's turn directly.
"""

from __future__ import annotations

from typing import Callable

from ..obs.tracer import NULL_TRACER
from .admission import AdmissionController
from .engine import ServingEngine, ServingOutcome, TrackedJob
from .metrics import ServingMetrics
from .policies import SchedulingPolicy
from .request import AdmissionRejected, QueryRequest, ServingError

__all__ = ["DriveCore"]


class DriveCore:
    """Admission + scheduling state in front of one serving *service*.

    The constructor is the doors' — its arguments are documented on
    :class:`~repro.serving.frontdoor.FrontDoor`.
    """

    #: How error messages name the adapter.
    label = "front door"
    #: The adapter's handle class (``_resolve(outcome)`` wakes its waiter).
    handle_type: type

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
        # A door runs one step at a time; the keyword accepts only that.
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
        self._handles: dict[int, object] = {}
        self._init_adapter()

    def _init_adapter(self) -> None:
        """The adapter's own state (lock, events, thread/task slot)."""

    # ------------------------------------------------------------- submission

    def _submit(self, request: QueryRequest, submitted_ns: float | None = None):
        """Admission + routing + job construction + engine submission;
        returns the request's handle.

        Raises :class:`AdmissionRejected` without building the job when the
        queue is full — load shedding must not pay preparation costs.
        ``submitted_ns`` backdates the request (open-loop replay: latency,
        deadline and lifecycle spans all run from arrival).  The adapter
        provides mutual exclusion, then wakes its scheduler.
        """
        if not self._accepting:
            raise ServingError(f"{self.label} is shut down")
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
        handle = self._handles[entry.seq] = self.handle_type(entry.name)
        return handle

    # -------------------------------------------------------------- execution

    def turn(
        self,
        start: Callable[[TrackedJob], object] | None = None,
        finished: list[TrackedJob] | None = None,
    ) -> int:
        """One scheduling turn, then resolve the handle of everything it
        finalized — also when a step failed and the engine folded the
        failure into every pending outcome.

        ``start`` is the adapter's runner for the picked step; the default
        runs it inline, settled before the turn returns.  After a no-drain
        stop the turn does nothing: :meth:`_close` cancels what is pending,
        and a step still running reports too late to be settled.  Returns
        the number of steps started (0 or 1); the entries it finalized are
        appended to ``finished`` when given.
        """
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

    def drain(self) -> list[ServingOutcome]:
        """Serve inline until idle; returns the outcomes finalized by this
        call, in submission order."""
        finished: list[TrackedJob] = []
        while self.turn(finished=finished):
            pass
        return self._in_order(finished)

    @staticmethod
    def _in_order(finished: list[TrackedJob]) -> list[ServingOutcome]:
        return [e.outcome for e in sorted(finished, key=lambda e: e.seq)]

    @property
    def _drained(self) -> bool:
        """The scheduler's exit condition: stopped, and (unless cancelling)
        nothing admitted is left unfinished."""
        return self._stopping and (not self._drain_on_stop or self.engine.idle)

    def _request_stop(self, drain: bool) -> bool:
        """Stop accepting; returns whether a stop was already under way."""
        already = self._stopping
        self._accepting = False
        self._stopping = True
        self._drain_on_stop = drain
        return already

    def _close(self, reason: str | None = None) -> None:
        """The scheduler's epilogue, once no step is running: whatever is
        still pending — shutdown without drain, or a scheduler that died —
        is cancelled with ``reason`` and its handle resolved."""
        self._stopping = True
        self._accepting = False
        self.engine.cancel_pending(reason or f"{self.label} shut down mid-flight")
        self._resolve()
