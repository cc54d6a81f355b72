"""The thread serving front door: accept queries while others are running.

:class:`FrontDoor` is the thread *adapter* of the sans-IO drive core
(:class:`~repro.serving.drive.DriveCore`): it adds a lock, a condition and
a scheduler thread, and nothing else.  The asyncio adapter lives in
:mod:`repro.serving.async_frontdoor`, the batch drain in
:mod:`repro.system.scheduler`.  An adapter owns concurrency only; every
scheduling decision is the engine's, and the admit path, the stop/drain
state and handle resolution are the core's, so all drivers share one
semantics.

The door serves a *service*: either one
:class:`~repro.system.MatchSession` (single dataset) or a
:class:`~repro.system.SessionRegistry` (many datasets, requests routed by
their ``dataset`` key).  Either way:

- **admission control** — arrivals beyond ``max_queue`` requests in flight
  are shed with a typed :class:`AdmissionRejected` *before* any
  preparation work is spent on them;
- **deadline-aware scheduling** — admitted requests become resumable
  stepper jobs time-sliced by a pluggable policy, with per-request
  deadlines settled by the engine (ε-relaxed partial answers or typed
  misses) on each job's own clock;
- **two drive modes** — :meth:`start` spawns a scheduler thread so
  :meth:`submit` can be called while earlier queries run (handles resolve
  asynchronously), while :meth:`replay` runs a whole open-loop arrival
  trace synchronously on a *virtual* clock (deterministic; used by the
  benchmark and the CLI trace mode).

The door lock covers a turn's pick and settle only: a step runs outside
it, so :meth:`submit` and :meth:`shutdown` never wait for a step boundary.

The front door never changes what a query computes: a request served here
(any policy, no deadline) returns byte-identical results to a standalone
:func:`repro.match_histograms` call with the same parameters.
"""

from __future__ import annotations

import threading
from typing import Iterable

from .drive import DriveCore
from .engine import ServingOutcome, TrackedJob
from .metrics import SHED
from .request import AdmissionRejected, QueryRequest, ServingError

__all__ = ["FrontDoor", "ResponseHandle"]


class ResponseHandle:
    """Future-like handle for one admitted request."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._event = threading.Event()
        self._outcome: ServingOutcome | None = None

    def _resolve(self, outcome: ServingOutcome) -> None:
        self._outcome = outcome
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def outcome(self, timeout: float | None = None) -> ServingOutcome:
        """The full serving record; blocks until finalized (threaded mode)."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"request {self.name!r} is still being served")
        assert self._outcome is not None
        return self._outcome

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


class FrontDoor(DriveCore):
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
    tracer:
        Optional :class:`~repro.obs.Tracer`; defaults to the service's.
    """

    handle_type = ResponseHandle

    def _init_adapter(self) -> None:
        self._wake = threading.Condition()  # the door lock (reentrant)
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------- submission

    def submit(self, request: QueryRequest) -> ResponseHandle:
        """Admit one request while others run; returns a handle immediately.

        Raises :class:`AdmissionRejected` synchronously when shed, and
        :class:`ServingError` after shutdown.  Usable from any thread once
        :meth:`start` has been called; without a running thread, call
        :meth:`pump` (or :meth:`replay`) to actually serve.
        """
        with self._wake:
            handle = self._submit(request)
            self._wake.notify_all()
            return handle

    # -------------------------------------------------------------- execution

    def pump(self) -> list[ServingOutcome]:
        """Serve synchronously until idle (no-thread mode); returns the
        outcomes finalized by this call, in submission order."""
        with self._wake:
            if self._thread is not None:
                raise ServingError("pump() cannot run alongside start()")
            return self.drain()

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
                    if self._drained:
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
        handles with a :class:`ServingError`.  Idempotent, and the service
        close underneath is idempotent too — a caller that also closes the
        session/registry (or calls shutdown twice) is safe.

        Returns True once everything is stopped and the service is closed.
        When ``timeout`` expires with the scheduler thread still draining,
        returns False *without* closing the service (closing the backend
        under a thread that is still stepping would fail its in-flight
        query); call :meth:`shutdown` again to finish.
        """
        with self._wake:
            already = self._request_stop(drain)
            self._wake.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join(timeout)
            if thread.is_alive():
                return False
        elif not already:
            with self._wake:
                if drain:
                    self.drain()
                self._close()
        self.service.close()
        return True

    def __enter__(self) -> "FrontDoor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
