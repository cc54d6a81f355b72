"""The pure scheduling engine: pick / dispatch / settle, no threads.

This is the reentrant core every serving driver runs on.  Each driver —
the thread :class:`~repro.serving.frontdoor.FrontDoor`, the asyncio
:class:`~repro.serving.async_frontdoor.AsyncFrontDoor`, open-loop replay,
the no-thread pumps and the batch drain
(:class:`~repro.system.scheduler.BatchScheduler`) — is an adapter that
calls one method, :meth:`ServingEngine.turn`, and differs only in how a
picked step is *started*.  The engine itself holds no locks, spawns no
threads, and never blocks: drivers own concurrency and serialize their
calls into it (only :meth:`ServingEngine.run_step` may run concurrently
with them); the engine owns scheduling semantics.

A turn joins three phases:

- :meth:`ServingEngine.pick` — expire overdue jobs, shed infeasible ones,
  let the policy choose among the *dispatchable* entries (runnable and not
  already mid-step), and mark the choice in-flight;
- **dispatch** — the driver's injected ``start`` arranges for
  :meth:`ServingEngine.run_step` (``job.step()``, then report completion)
  to run at once (the default — the classic, deterministic single-slot
  mode), in a thread-pool executor (concurrent steps of different
  sessions), or via ``loop.run_in_executor`` from asyncio;
- :meth:`ServingEngine.settle` — stamp the step's service time on the
  job's own clock, finalize completion, and re-run expiry — within the
  same turn for a runner that completes at once, in whichever turn
  follows its report otherwise.

It is also **clock-agnostic**: the engine runs against the
:class:`~repro.system.clock.Clock` protocol, so the same scheduling code
serves simulated single-server studies (:class:`SimulatedClock`) and live
asyncio deployments (:class:`WallClock`).  Every job is stamped — submission,
deadline, expiry, completion, cancellation — from **its own** clock (the one
its session charges), never from whatever clock the driver happens to hold,
so latency percentiles stay coherent even when a wall-clock driver
multiplexes simulated-clock sessions.

Semantics the engine owns:

- **policy** — each time slice goes to whichever runnable job the pluggable
  :class:`~repro.serving.policies.SchedulingPolicy` picks (FIFO, round-
  robin, EDF, feasibility-aware EDF, shortest-expected-remaining-cost);
- **deadlines** — a job past its deadline is finalized early with either an
  ε-relaxed partial answer or a typed
  :class:`~repro.serving.request.DeadlineMiss`;
- **feasibility shedding** — under a feasibility-aware policy (``edf-f``),
  a deadline-carrying job whose lookahead cost estimate can no longer meet
  its deadline is settled as a partial answer *immediately*, so its slices
  go to requests that can still win;
- **failure folding** — a step that raises cancels every pending job with
  the failure as its reason, so no driver strands a waiter or an
  admission slot;
- **online submission** — jobs join while others run; outcomes are
  collected incrementally (:meth:`ServingEngine.take_finished`).

Scheduling never changes what a query computes: jobs consume their own
fixed sampling order, so any interleaving produces byte-identical results
— policies, deadlines, and drivers shape *latency*, not answers.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..obs.tracer import NULL_TRACER
from ..system.clock import Clock
from ..system.report import RunReport
from .admission import AdmissionController
from .metrics import CANCELLED, COMPLETED, MISS, PARTIAL, SHED, ServingMetrics
from .policies import SchedulingPolicy, make_policy
from .request import ON_DEADLINE, DeadlineMiss, InfeasibleDeadline, ServingError

__all__ = [
    "CANCELLED",
    "COMPLETED",
    "MISS",
    "PARTIAL",
    "SHED",
    "ServingEngine",
    "ServingOutcome",
    "TrackedJob",
]


@dataclass(frozen=True)
class ServingOutcome:
    """One request's final serving record, stamped on its own clock.

    ``status`` is one of :data:`COMPLETED` (ran to completion),
    :data:`PARTIAL` (deadline expired or the run was judged infeasible;
    ``report`` holds the ε-relaxed answer with its achieved guarantee),
    :data:`MISS` (deadline expired, no partial requested; ``error`` holds
    the :class:`DeadlineMiss`), :data:`CANCELLED` (driver shut down
    mid-flight), or :data:`SHED` (rejected at admission; never ran).
    """

    name: str
    status: str
    report: RunReport | None
    submitted_ns: float
    finished_ns: float
    steps: int
    service_ns: float
    deadline_ns: float | None = None
    error: Exception | None = None

    @property
    def latency_ns(self) -> float:
        """Submission (or open-loop arrival) to finalization."""
        return self.finished_ns - self.submitted_ns

    @property
    def latency_seconds(self) -> float:
        return self.latency_ns * 1e-9

    @property
    def service_seconds(self) -> float:
        return self.service_ns * 1e-9

    @property
    def deadline_hit(self) -> bool:
        """Completed, and within the deadline if one was set."""
        return self.status == COMPLETED and (
            self.deadline_ns is None or self.finished_ns <= self.deadline_ns
        )

    @property
    def ok(self) -> bool:
        """An answer was produced (complete or partial)."""
        return self.report is not None

    @property
    def latency_ms(self) -> float:
        return self.latency_ns * 1e-6


@dataclass(eq=False, repr=False, slots=True)
class TrackedJob:
    """Engine-internal bookkeeping around one submitted job.

    ``clock`` is the job's *own* time source — the clock its session
    charges.  All of the entry's timestamps (submission, deadline, expiry,
    finalization) live on that clock; when the engine multiplexes sessions
    on one shared clock they coincide, but the engine never assumes it.
    """

    job: object
    name: str
    seq: int
    clock: Clock
    submitted_ns: float
    deadline_ns: float | None
    on_deadline: str
    service_ns: float = 0.0
    steps: int = 0
    outcome: ServingOutcome | None = None
    #: True while a picked step is running (dispatch → settle window).
    in_flight: bool = False
    #: The job clock's reading when the in-flight step was picked.
    step_started_ns: float = 0.0
    #: Rotation key: the order stamp of the entry's latest pick.
    rr_key: int = field(init=False)
    #: High-water mark of accounted lifecycle time: queue-wait and step
    #: spans tile [submitted_ns, finished_ns] exactly by always starting
    #: where the previous span ended (replay backdates it to arrival).
    last_progress_ns: float = field(init=False)
    #: Tenant key for per-tenant metrics (registry-routed jobs carry one).
    tenant: str | None = field(init=False)
    _estimates: dict[str, float] = field(init=False, default_factory=dict)
    _estimates_step: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.rr_key = self.seq
        self.last_progress_ns = self.submitted_ns
        self.tenant = getattr(self.job, "tenant", None)

    def estimated_remaining(self) -> float:
        """The job's lookahead cost estimate in rows; ``inf`` when it offers
        none.

        Cached per step: the estimate only moves when the job itself runs,
        but a cost policy asks for every runnable job's estimate on every
        slice — without the cache that is O(jobs) redundant estimator runs
        per step.
        """
        return self._estimate("estimated_remaining_rows")

    def estimated_remaining_ns(self) -> float:
        """Lookahead estimate of the job's remaining *service time* (ns).

        Used by feasibility-aware policies: a deadline that even this
        (optimistic, I/O-only) estimate cannot meet is certainly doomed.
        ``inf`` when the job offers no estimate.
        """
        return self._estimate("estimated_remaining_ns")

    def _estimate(self, estimator_name: str) -> float:
        """The job's named estimator, run at most once per step and only
        when a policy asks for it: a job's ``estimated_remaining_ns`` is its
        row estimate at a unit cost, so running both for either question
        would run the lookahead twice."""
        if self._estimates_step != self.steps:
            self._estimates_step = self.steps
            self._estimates = {}
        if estimator_name not in self._estimates:
            estimator = getattr(self.job, estimator_name, None)
            self._estimates[estimator_name] = (
                float("inf") if estimator is None else float(estimator())
            )
        return self._estimates[estimator_name]


class ServingEngine:
    """Time-slice many resumable jobs by policy — pure, reentrant, unlocked.

    Parameters
    ----------
    clock:
        The engine's reference :class:`~repro.system.clock.Clock` — the
        default timeline for jobs that do not carry their own (open-loop
        replay idles it between arrivals).  Simulated or wall.
    policy:
        A :class:`~repro.serving.policies.SchedulingPolicy` or its name.
    admission:
        Optional :class:`AdmissionController`.  The engine *releases*
        capacity as jobs finalize; acquiring happens at the door (the
        caller sheds before a job is ever built).
    metrics:
        Optional :class:`ServingMetrics` fed on every finalization.
    tracer:
        Optional :class:`~repro.obs.Tracer`.  Defaults to the shared no-op
        :data:`~repro.obs.NULL_TRACER`; every emission site guards on
        ``tracer.enabled``, so the untraced path allocates nothing and
        stays byte-identical.  When enabled, the engine emits the
        request-lifecycle spans: ``queue.wait`` and ``engine.step`` tile
        each request's ``[submitted, finished]`` interval exactly on the
        job's own clock, ``request.submitted``/``request.finalized``
        events carry the endpoint stamps, and ``engine.settle`` measures
        finalization work (report assembly) in real time.
    """

    def __init__(
        self,
        clock: Clock,
        policy: str | SchedulingPolicy = "fifo",
        admission: AdmissionController | None = None,
        metrics: ServingMetrics | None = None,
        tracer=None,
    ) -> None:
        self.clock = clock
        self.policy = make_policy(policy)
        self.admission = admission
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Unfinished entries only: :meth:`_finalize` drops an entry, so a
        #: long-lived door scans pending work and retains no finished job.
        self._entries: list[TrackedJob] = []
        self._fresh: list[TrackedJob] = []
        #: Completions reported by :meth:`run_step` and not yet settled.
        #: Runners on other threads append; only the driver's turn pops.
        self._reported: deque[tuple[TrackedJob, Exception | None]] = deque()
        self._order = 0

    # ------------------------------------------------------------- submission

    def submit(
        self,
        job,
        *,
        deadline_ns: float | None = None,
        on_deadline: str = "partial",
        name: str | None = None,
        submitted_ns: float | None = None,
        clock: Clock | None = None,
    ) -> TrackedJob:
        """Enqueue one resumable job; its latency clock starts now.

        ``deadline_ns`` is *relative* to submission; ``submitted_ns``
        overrides the submission timestamp (open-loop replay backdates it
        to the arrival time, so queue latency and the deadline are measured
        from when the request arrived, not when the server got to it).
        ``clock`` is the job's own time source and defaults to the job's
        ``clock`` attribute (sessions stamp their jobs) or, failing that,
        the engine clock — all of the entry's timestamps live on it.
        """
        if on_deadline not in ON_DEADLINE:
            raise ValueError(
                f"on_deadline must be one of {ON_DEADLINE}, got {on_deadline!r}"
            )
        if deadline_ns is not None and deadline_ns <= 0:
            raise ValueError(f"deadline_ns must be positive, got {deadline_ns}")
        job_clock = clock or getattr(job, "clock", None) or self.clock
        submitted = job_clock.elapsed_ns if submitted_ns is None else submitted_ns
        entry = TrackedJob(
            job=job,
            name=name or getattr(job, "name", f"job-{self._order}"),
            seq=self._order,
            clock=job_clock,
            submitted_ns=submitted,
            deadline_ns=None if deadline_ns is None else submitted + deadline_ns,
            on_deadline=on_deadline,
        )
        self._order += 1
        self._entries.append(entry)
        if self.tracer.enabled:
            self.tracer.event(
                "request.submitted",
                clock=job_clock,
                name=entry.name,
                tenant=entry.tenant,
                submitted_ns=submitted,
                deadline_ns=entry.deadline_ns,
            )
        return entry

    # -------------------------------------------------------------- inspection

    @property
    def pending(self) -> int:
        """Jobs submitted but not yet finalized (including in-flight steps)."""
        return len(self._entries)

    @property
    def in_flight(self) -> int:
        """Entries whose current step is between pick and settle."""
        return sum(1 for e in self._entries if e.in_flight)

    @property
    def idle(self) -> bool:
        return not self._entries

    # ------------------------------------------------------------- finalization

    def _finalize(self, entry: TrackedJob, status: str, report, error=None) -> None:
        finished = entry.clock.elapsed_ns
        entry.outcome = ServingOutcome(
            name=entry.name,
            status=status,
            report=report,
            submitted_ns=entry.submitted_ns,
            finished_ns=finished,
            steps=entry.steps,
            service_ns=entry.service_ns,
            deadline_ns=entry.deadline_ns,
            error=error,
        )
        self._entries.remove(entry)
        self._fresh.append(entry)
        if self.tracer.enabled:
            if finished > entry.last_progress_ns:
                # Close the lifecycle tiling: time between the last step
                # (or submission) and finalization was spent waiting.
                self.tracer.span_at(
                    "queue.wait",
                    entry.last_progress_ns,
                    finished,
                    clock=entry.clock,
                    name=entry.name,
                    tenant=entry.tenant,
                )
            self.tracer.event(
                "request.finalized",
                clock=entry.clock,
                name=entry.name,
                tenant=entry.tenant,
                status=status,
                submitted_ns=entry.submitted_ns,
                finished_ns=finished,
                latency_ns=entry.outcome.latency_ns,
                service_ns=entry.service_ns,
                steps=entry.steps,
                deadline_ns=entry.deadline_ns,
            )
        entry.last_progress_ns = finished
        if self.admission is not None:
            self.admission.release()
        if self.metrics is not None:
            self.metrics.record_outcome(entry.outcome, tenant=entry.tenant)

    def _settle_expired(
        self, entry: TrackedJob, now: float, error: DeadlineMiss | None = None
    ) -> None:
        """Deadline decision: partial answer if the job offers one, else a
        typed miss.  Shared by real expiry and feasibility shedding, which
        passes its own (:class:`InfeasibleDeadline`) error."""
        if entry.on_deadline == "partial" and hasattr(entry.job, "finish_partial"):
            self._finalize(entry, PARTIAL, entry.job.finish_partial(entry.service_ns))
        else:
            self._finalize(
                entry,
                MISS,
                None,
                error=error or DeadlineMiss(entry.name, entry.deadline_ns, now),
            )

    def _expire_due(self) -> None:
        """Finalize every unfinished job whose deadline its clock has passed.

        Runs before each slice is granted (a job already past its deadline
        must not consume more server time) and again after it (one job's
        service can push *waiting* jobs past their deadlines).  In-flight
        entries are skipped: a job mid-step must not be finalized under its
        running step — its own settle re-runs expiry and catches it.
        """
        for entry in list(self._entries):  # finalizing drops entries
            if entry.in_flight:
                continue
            now = entry.clock.elapsed_ns
            if entry.deadline_ns is None or now < entry.deadline_ns:
                continue
            self._settle_expired(entry, now)

    def _shed_infeasible(self) -> None:
        """Feasibility-aware policies: settle doomed deadline jobs *now*.

        A job whose remaining-cost lookahead already overshoots its
        deadline cannot complete in time under any schedule; granting it
        further slices only drags *feasible* requests past their deadlines
        too — the classic EDF overload domino.  Such jobs are settled
        immediately with whatever partial answer their samples so far
        support, freeing both server time and an admission slot for
        requests that can still win.

        Only jobs that have not yet received a slice are screened: at
        submission the lookahead tracks true service closely, but mid-run
        it can overestimate by orders of magnitude (the stage-3 residual
        is a theoretical target that the run's actual samples largely
        cover), so a mid-run screen would shed requests that were about to
        finish.  The policy's ``feasibility_margin`` additionally discounts
        the estimate (``now + margin × estimate > deadline``).
        """
        margin = getattr(self.policy, "feasibility_margin", 1.0)
        for entry in list(self._entries):  # finalizing drops entries
            if entry.deadline_ns is None or entry.steps > 0 or entry.in_flight:
                continue
            remaining = entry.estimated_remaining_ns()
            if remaining == float("inf"):
                continue
            now = entry.clock.elapsed_ns
            if now + margin * remaining > entry.deadline_ns:
                self._settle_expired(
                    entry,
                    now,
                    error=InfeasibleDeadline(
                        entry.name, entry.deadline_ns, now, remaining
                    ),
                )

    # --------------------------------------------------------------- execution

    def pick(self) -> TrackedJob | None:
        """Pick phase: choose the next entry to step and mark it in-flight.

        Expires overdue jobs, sheds infeasible ones (feasibility-aware
        policies only), then lets the policy select among the dispatchable
        entries — runnable jobs not already mid-step, so a multi-slot
        driver never double-dispatches one job.  Returns ``None`` when
        nothing is dispatchable (the engine may still have steps in
        flight).  The caller must :meth:`run_step` the entry — wherever it
        likes — and a later :meth:`turn` settles it exactly once.
        """
        self._expire_due()
        if getattr(self.policy, "feasibility_aware", False):
            self._shed_infeasible()
        dispatchable = [e for e in self._entries if not e.in_flight]
        if not dispatchable:
            return None
        entry = self.policy.select(dispatchable, self.clock.elapsed_ns)
        entry.in_flight = True
        now = entry.clock.elapsed_ns
        if self.tracer.enabled and now > entry.last_progress_ns:
            self.tracer.span_at(
                "queue.wait",
                entry.last_progress_ns,
                now,
                clock=entry.clock,
                name=entry.name,
                tenant=entry.tenant,
            )
        entry.step_started_ns = now
        entry.rr_key = self._order
        self._order += 1
        return entry

    def settle(self, entry: TrackedJob) -> None:
        """Settle phase: account a completed step and finalize if done.

        Service time is stamped on the entry's *own* clock, from the
        reading :meth:`pick` took to now — under concurrent steps on one
        shared clock that attributes neighbours' overlapped charges too,
        which is the single-server convention (wall-clock deployments, the
        reason to run concurrently, measure real elapsed time anyway).
        """
        if not entry.in_flight:
            raise RuntimeError(f"entry {entry.name!r} has no step to settle")
        entry.in_flight = False
        if entry.outcome is not None:
            # Finalized while mid-step (cancel_pending on shutdown): the
            # straggler step's work is discarded, never double-finalized.
            return
        now = entry.clock.elapsed_ns
        entry.service_ns += now - entry.step_started_ns
        entry.steps += 1
        entry.last_progress_ns = now
        if self.tracer.enabled:
            self.tracer.span_at(
                "engine.step",
                entry.step_started_ns,
                now,
                clock=entry.clock,
                name=entry.name,
                tenant=entry.tenant,
                step=entry.steps,
                stage=getattr(entry.job, "last_stage", None),
            )
        if entry.job.done:
            # Done beats expired: a job finishing exactly on its deadline
            # (round boundary == deadline) is a hit, not a miss.
            # Settle cost (report assembly, audits) is real work the
            # simulated clock never charges — traced in wall time.
            wall0 = float(time.monotonic_ns())
            self._finalize(entry, COMPLETED, entry.job.finish(entry.service_ns))
            if self.tracer.enabled:
                self.tracer.span_at(
                    "engine.settle",
                    wall0,
                    float(time.monotonic_ns()),
                    clock="monotonic",
                    name=entry.name,
                    tenant=entry.tenant,
                )
        self._expire_due()

    def run_step(self, entry: TrackedJob) -> None:
        """Dispatch phase: advance a picked job one bounded step, then report
        its completion for a later :meth:`turn` to settle.

        The only engine method a driver may run off its scheduling thread.
        A failing step is reported, not raised: the turn that settles it
        folds the failure into every pending outcome.
        """
        try:
            entry.job.step()
            err: Exception | None = None
        except Exception as exc:  # noqa: BLE001 - re-raised by the next turn
            err = exc
        self._reported.append((entry, err))

    def _settle_reported(self) -> None:
        while self._reported:
            entry, err = self._reported.popleft()
            if err is not None:
                # A failing job must not strand the other requests.
                self.cancel_pending(f"serving step failed: {err!r}")
                raise err
            self.settle(entry)

    def turn(
        self, start: Callable[[TrackedJob], object] | None = None, slots: int = 1
    ) -> int:
        """One scheduling turn: settle reported completions, :meth:`pick`
        into the free step slots, hand each pick to ``start``, settle again.

        ``start`` arranges for :meth:`run_step` to run on the entry; the
        default runs it here and now, so the closing pass settles it and
        the turn grants exactly one time slice — ``pick → job.step() →
        settle``.  Returns the number of steps started (0: nothing was
        dispatchable).  Re-raises a reported step's exception after
        cancelling every pending job with it as the reason.
        """
        start = start or self.run_step
        self._settle_reported()
        started = 0
        for _ in range(slots - self.in_flight):
            entry = self.pick()
            if entry is None:
                break
            start(entry)
            started += 1
        self._settle_reported()
        return started

    def run_until_idle(self) -> tuple[ServingOutcome, ...]:
        """Drain every pending job; returns outcomes finalized by this call."""
        while self.turn():
            pass
        return tuple(entry.outcome for entry in self.take_finished())

    def cancel_pending(self, reason: str = "serving engine shut down") -> int:
        """Finalize every unfinished job as :data:`CANCELLED` (shutdown path).

        The jobs get no further steps; their partial work is discarded.
        Returns the number of jobs cancelled.
        """
        live = list(self._entries)
        for entry in live:
            self._finalize(entry, CANCELLED, None, error=ServingError(reason))
        self._reported.clear()
        return len(live)

    def take_finished(self) -> list[TrackedJob]:
        """Entries finalized since the last take (submission order), for
        callers that need the entry ↔ outcome pairing (handle dispatch)."""
        fresh = sorted(self._fresh, key=lambda e: e.seq)
        self._fresh.clear()
        return fresh
