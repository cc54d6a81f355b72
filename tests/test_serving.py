"""Tests for the async serving front door (repro/serving/).

Acceptance properties:

- a query served through the front door (any policy, no deadline) produces
  byte-identical results to a standalone ``match_histograms`` run;
- deadlines finalize early with ε-relaxed partial answers reporting their
  actually-achieved guarantee, or typed ``DeadlineMiss`` errors;
- admission control sheds beyond the queue bound with a typed rejection;
- policies shape order/latency only (EDF serves urgent first, cost serves
  cheap first, nothing starves);
- shutdown is safe mid-flight and idempotent with session close.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro import AsyncFrontDoor, FrontDoor, MatchSession, QueryRequest, match_histograms
from repro.core import HistSimConfig
from repro.core.histsim import HistSimStepper
from repro.core.sampler import ArraySampler
from repro.core.target import TargetSpec
from repro.query import HistogramQuery
from repro.serving import (
    POLICIES,
    AdmissionController,
    AdmissionRejected,
    DeadlineMiss,
    ServingError,
    ServingEngine,
)
from repro.obs import Tracer
from repro.storage import CategoricalAttribute, ColumnTable, Schema
from repro.system import BatchScheduler, SimulatedClock


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(101)
    n = 60_000
    candidates, groups = 15, 6
    z = rng.integers(0, candidates, size=n)
    x = np.empty(n, dtype=np.int64)
    for c in range(candidates):
        mask = z == c
        base = np.full(groups, 1.0 / groups)
        if c >= 3:
            base[c % groups] += 0.7
            base /= base.sum()
        x[mask] = rng.choice(groups, size=int(mask.sum()), p=base)
    schema = Schema(
        (
            CategoricalAttribute("product", tuple(f"p{i}" for i in range(candidates))),
            CategoricalAttribute("age", tuple(f"a{i}" for i in range(groups))),
        )
    )
    return ColumnTable(schema, {"product": z, "age": x})


EPS, DELTA = 0.15, 0.05


def make_request(k=3, seed=3, name="uniform", **overrides):
    query = HistogramQuery(
        "product", "age", target=TargetSpec(kind="closest_to_uniform"), k=k,
        name=name,
    )
    config = HistSimConfig(k=k, epsilon=EPS, delta=DELTA, sigma=0.0)
    return QueryRequest(query, config=config, seed=seed, name=name, **overrides)


class FakeJob:
    """Deterministic job: charges ``cost_ns`` per step, ``work`` steps total."""

    def __init__(self, name, work, clock, cost_ns=10.0, log=None, remaining=None):
        self.name = name
        self._work = work
        self._clock = clock
        self._cost = cost_ns
        self._log = log if log is not None else []
        self._remaining = remaining
        self.partials = 0

    @property
    def done(self):
        return self._work == 0

    def step(self):
        self._log.append(self.name)
        self._work -= 1
        self._clock.charge_serial(io=self._cost)

    def estimated_remaining_rows(self):
        if self._remaining is not None:
            return self._remaining
        return self._work * self._cost

    def finish(self, service_ns):
        class _Report:
            elapsed_ns = service_ns
        return _Report()

    def finish_partial(self, service_ns):
        self.partials += 1
        class _Report:
            elapsed_ns = service_ns
            partial = True
        return _Report()


class CannedService:
    """The front-door service seam over canned jobs (request name → job)."""

    def __init__(self, jobs=None, clock=None):
        self.clock = clock or SimulatedClock()
        self.backend = None
        self.jobs = jobs if jobs is not None else {}
        self.closed = False

    def job_for_request(self, request, default_max_step_rows=None):
        return self.jobs[request.name]

    def close(self):
        self.closed = True


class TestFrontDoorEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_front_door_matches_standalone(self, table, policy):
        """Acceptance: any policy, no deadline ⇒ byte-identical to standalone."""
        standalone = match_histograms(
            table, "product", "age", k=3, epsilon=EPS, delta=DELTA, sigma=0.0,
            seed=3,
        )
        session = MatchSession(table)
        door = FrontDoor(session, policy=policy)
        outcomes = door.replay(
            [(0.0, make_request()), (0.0, make_request(k=2, name="second"))]
        )
        door.shutdown()
        first = outcomes[0]
        assert first.status == "completed"
        assert first.report.result.matching == standalone.result.matching
        assert np.array_equal(
            first.report.result.histograms, standalone.result.histograms
        )
        assert np.array_equal(
            first.report.result.distances, standalone.result.distances
        )
        assert first.report.result.stats == standalone.result.stats
        assert first.report.result.rounds == standalone.result.rounds
        assert first.report.elapsed_ns == pytest.approx(standalone.elapsed_ns)

    def test_threaded_submit_while_running(self, table):
        session = MatchSession(table)
        standalone = match_histograms(
            table, "product", "age", k=3, epsilon=EPS, delta=DELTA, sigma=0.0,
            seed=3,
        )
        with FrontDoor(session, policy="rr") as door:
            door.start()
            handles = [door.submit(make_request()), door.submit(make_request(k=2, name="b"))]
            reports = [h.result(timeout=60) for h in handles]
        assert reports[0].result.matching == standalone.result.matching
        assert session.closed  # shutdown closed the session underneath


class TestDeadlines:
    def test_deadline_partial_reports_achieved_epsilon(self, table):
        session = MatchSession(table)
        door = FrontDoor(session, policy="edf")
        # A deadline far too tight to finish, generous enough for stage 1.
        outcomes = door.replay(
            [(0.0, make_request(deadline_ns=5e4, max_step_rows=2000))]
        )
        door.shutdown()
        (outcome,) = outcomes
        assert outcome.status == "partial"
        assert outcome.report is not None and outcome.report.partial
        assert outcome.report.audit is None  # partials claim no full guarantee
        assert outcome.report.achieved_epsilon > 0
        assert outcome.report.achieved_delta == DELTA
        assert len(outcome.report.result.matching) > 0
        assert not outcome.deadline_hit
        assert door.metrics.snapshot().deadline_hit_rate == 0.0

    def test_deadline_miss_is_typed(self, table):
        session = MatchSession(table)
        door = FrontDoor(session)
        outcomes = door.replay(
            [(0.0, make_request(deadline_ns=5e4, max_step_rows=2000,
                                on_deadline="miss"))]
        )
        door.shutdown()
        (outcome,) = outcomes
        assert outcome.status == "miss"
        assert outcome.report is None
        assert isinstance(outcome.error, DeadlineMiss)

    def test_completion_exactly_at_deadline_is_a_hit(self):
        """Done beats expired when a job finishes on the deadline boundary."""
        clock = SimulatedClock()
        core = ServingEngine(clock, policy="fifo")
        job = FakeJob("exact", work=3, clock=clock, cost_ns=10.0)
        core.submit(job, deadline_ns=30.0)  # finishes at t=30 exactly
        (outcome,) = core.run_until_idle()
        assert outcome.status == "completed"
        assert outcome.finished_ns == 30.0
        assert outcome.deadline_hit

    def test_expiry_exactly_at_step_boundary(self):
        """A deadline landing exactly on a step boundary expires the job
        before it receives another slice (partial, not a further step)."""
        clock = SimulatedClock()
        core = ServingEngine(clock, policy="fifo")
        job = FakeJob("boundary", work=5, clock=clock, cost_ns=10.0)
        core.submit(job, deadline_ns=20.0)  # two steps fit exactly
        (outcome,) = core.run_until_idle()
        assert outcome.status == "partial"
        assert outcome.steps == 2
        assert outcome.finished_ns == 20.0
        assert job.partials == 1

    def test_waiting_job_expires_from_neighbour_service(self):
        """One job's service pushes a *queued* job past its deadline."""
        clock = SimulatedClock()
        core = ServingEngine(clock, policy="fifo")
        heavy = FakeJob("heavy", work=10, clock=clock, cost_ns=10.0)
        light = FakeJob("light", work=1, clock=clock, cost_ns=10.0)
        core.submit(heavy)
        core.submit(light, deadline_ns=50.0)
        outcomes = {o.name: o for o in core.run_until_idle()}
        assert outcomes["light"].status == "partial"
        assert outcomes["light"].steps == 0  # FIFO never granted it a slice
        assert outcomes["light"].finished_ns == 50.0
        assert outcomes["heavy"].status == "completed"


class TestAdmission:
    def test_rejection_under_full_queue(self, table):
        session = MatchSession(table)
        door = FrontDoor(session, policy="fifo", max_queue=2)
        outcomes = door.replay(
            [(0.0, make_request(name=f"r{i}")) for i in range(4)]
        )
        door.shutdown()
        statuses = [o.status for o in outcomes]
        assert statuses == ["completed", "completed", "shed", "shed"]
        shed = outcomes[2]
        assert isinstance(shed.error, AdmissionRejected)
        assert shed.steps == 0
        snap = door.metrics.snapshot()
        assert snap.shed == 2 and snap.completed == 2 and snap.requests == 4

    def test_capacity_returns_after_completion(self, table):
        """Open-loop: later arrivals are admitted once earlier work drains."""
        session = MatchSession(table)
        door = FrontDoor(session, policy="fifo", max_queue=1)
        outcomes = door.replay(
            [
                (0.0, make_request(name="first")),
                (0.0, make_request(name="shed-me")),
                (1e9, make_request(name="later", seed=4)),
            ]
        )
        door.shutdown()
        assert [o.status for o in outcomes] == ["completed", "shed", "completed"]

    def test_threaded_submit_sheds_synchronously(self, table):
        session = MatchSession(table)
        door = FrontDoor(session, policy="fifo", max_queue=1)  # not started
        door.submit(make_request(name="queued"))
        with pytest.raises(AdmissionRejected):
            door.submit(make_request(name="overflow"))
        assert door.pump()[0].status == "completed"
        # Capacity came back: the next submit is admitted.
        door.submit(make_request(name="after", seed=4))
        door.shutdown()

    def test_pump_excludes_threaded_mode(self, table):
        """Pumping beside the scheduler thread would hand out a second slot
        on a single-slot door (the lock no longer spans a step)."""
        door = FrontDoor(MatchSession(table)).start()
        with pytest.raises(ServingError, match="pump"):
            door.pump()
        door.shutdown()

    def test_controller_bounds(self):
        with pytest.raises(ValueError, match="max_queue"):
            AdmissionController(0)
        controller = AdmissionController(1)
        assert controller.try_admit() and not controller.try_admit()
        controller.release()
        assert controller.try_admit()
        assert controller.describe()["shed"] == 1


class TestPolicies:
    def test_edf_serves_urgent_first(self):
        clock = SimulatedClock()
        core = ServingEngine(clock, policy="edf")
        log = []
        core.submit(FakeJob("loose", 2, clock, log=log), deadline_ns=1000.0)
        core.submit(FakeJob("urgent", 2, clock, log=log), deadline_ns=100.0)
        core.submit(FakeJob("none", 2, clock, log=log))
        outcomes = core.run_until_idle()
        assert log == ["urgent", "urgent", "loose", "loose", "none", "none"]
        assert all(o.status == "completed" for o in outcomes)

    def test_edf_no_starvation_under_contention(self):
        """Deadline-free jobs still complete once deadline work drains."""
        clock = SimulatedClock()
        core = ServingEngine(clock, policy="edf")
        jobs = [FakeJob(f"d{i}", 3, clock) for i in range(4)]
        for i, job in enumerate(jobs):
            core.submit(job, deadline_ns=1e6 * (i + 1))
        starving = FakeJob("no-deadline", 3, clock)
        core.submit(starving)
        outcomes = core.run_until_idle()
        assert len(outcomes) == 5
        assert all(o.status == "completed" for o in outcomes)
        assert starving.done

    def test_cost_policy_shortest_first(self):
        clock = SimulatedClock()
        core = ServingEngine(clock, policy="cost")
        log = []
        core.submit(FakeJob("big", 3, clock, log=log))
        core.submit(FakeJob("small", 1, clock, log=log))
        core.run_until_idle()
        assert log == ["small", "big", "big", "big"]

    def test_fifo_runs_to_completion_in_arrival_order(self):
        clock = SimulatedClock()
        core = ServingEngine(clock, policy="fifo")
        log = []
        core.submit(FakeJob("a", 2, clock, log=log))
        core.submit(FakeJob("b", 2, clock, log=log))
        core.run_until_idle()
        assert log == ["a", "a", "b", "b"]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            ServingEngine(SimulatedClock(), policy="magic")


class TestShutdown:
    def test_mid_flight_shutdown_cancels_and_is_idempotent(self, table):
        session = MatchSession(table)
        door = FrontDoor(session, policy="rr")
        handle = door.submit(make_request())
        door.shutdown(drain=False)
        with pytest.raises(ServingError):
            handle.result()
        assert handle.outcome().status == "cancelled"
        # Idempotent front-door shutdown over idempotent session close.
        door.shutdown()
        session.close()
        assert session.closed
        with pytest.raises(ServingError):
            door.submit(make_request())

    def test_session_rejects_work_after_close(self, table):
        session = MatchSession(table)
        session.close()
        session.close()  # double close is a no-op
        with pytest.raises(RuntimeError, match="closed"):
            session.submit(make_request().query)

    def test_drain_shutdown_serves_pending(self, table):
        session = MatchSession(table)
        door = FrontDoor(session, policy="fifo")
        handle = door.submit(make_request())
        door.shutdown(drain=True)
        assert handle.result().result.matching  # served before closing


class TestReplay:
    def test_open_loop_idles_clock_to_next_arrival(self, table):
        session = MatchSession(table)
        door = FrontDoor(session, policy="edf")
        outcomes = door.replay(
            [
                (0.0, make_request(name="a")),
                (2e9, make_request(name="b", seed=4)),
            ]
        )
        door.shutdown()
        a, b = outcomes
        assert a.submitted_ns == 0.0 and b.submitted_ns == 2e9
        assert b.finished_ns >= 2e9
        assert session.clock.snapshot().get("idle", 0.0) > 0
        # Latency is measured open-loop, from arrival.
        assert b.latency_ns == b.finished_ns - 2e9

    def test_mid_slice_arrival_event_stamps_equal_outcome_stamps(self):
        """An arrival that lands mid-slice is admitted at the next step
        boundary but backdated — in the trace exactly as in the outcome."""
        tracer = Tracer()
        service = CannedService()
        service.jobs["long"] = FakeJob("long", 2, service.clock, cost_ns=100.0)
        service.jobs["late"] = FakeJob("late", 1, service.clock, cost_ns=100.0)
        door = FrontDoor(service, policy="fifo", tracer=tracer)
        outcomes = door.replay(
            [
                (0.0, make_request(name="long")),
                (50.0, make_request(name="late", deadline_ns=500.0)),
            ]
        )
        door.shutdown()
        late = outcomes[1]
        assert (late.submitted_ns, late.deadline_ns) == (50.0, 550.0)
        events = {
            r.attrs["name"]: r.attrs
            for r in tracer.records()
            if r.name == "request.submitted"
        }
        for outcome in outcomes:
            stamps = events[outcome.name]
            assert stamps["submitted_ns"] == outcome.submitted_ns
            assert stamps["deadline_ns"] == outcome.deadline_ns

    def test_replay_excludes_threaded_mode(self, table):
        session = MatchSession(table)
        door = FrontDoor(session).start()
        with pytest.raises(ServingError, match="replay"):
            door.replay([(0.0, make_request())])
        door.shutdown()

    def test_replay_after_plain_submit_serves_both(self, table):
        """A request submitted before the replay is served during it (its
        handle resolves) without corrupting the trace's outcome list."""
        session = MatchSession(table)
        door = FrontDoor(session, policy="fifo")
        handle = door.submit(make_request(name="pre-submitted"))
        outcomes = door.replay([(0.0, make_request(name="traced", seed=4))])
        door.shutdown()
        assert [o.name for o in outcomes] == ["traced"]
        assert handle.done and handle.outcome().status == "completed"


class Boom:
    """A job whose first step raises."""

    name = "boom"
    done = False

    def step(self):
        raise RuntimeError("worker died")


class SlowJob:
    """One long step: sets ``entered`` inside it, then waits for ``release``
    (at most ``step_s`` seconds)."""

    def __init__(self, name, clock, step_s=5.0):
        self.name = name
        self.clock = clock
        self.step_s = step_s
        self.done = False
        self.entered = threading.Event()
        self.release = threading.Event()

    def step(self):
        self.entered.set()
        self.release.wait(self.step_s)
        self.done = True
        self.clock.charge_serial(io=1.0)

    def finish(self, service_ns):
        class _Report:
            elapsed_ns = service_ns
        return _Report()


def failing_service():
    """FIFO grants ``boom`` the first slice; the others can never finish
    before it fails."""
    service = CannedService()
    service.jobs = {
        "boom": Boom(),
        "w1": FakeJob("w1", 50, service.clock),
        "w2": FakeJob("w2", 50, service.clock),
    }
    return service, [make_request(name=name) for name in service.jobs]


def fail_thread_door(slots):
    service, requests = failing_service()
    door = FrontDoor(service, policy="fifo", max_queue=8, max_concurrent_steps=slots)
    handles = [door.submit(request) for request in requests]
    door.start()
    outcomes = [handle.outcome(timeout=30) for handle in handles]  # must not hang
    with pytest.raises(ServingError, match="worker died"):
        handles[1].result()
    door.shutdown()  # the door is dead but shutdown stays safe and idempotent
    return door, outcomes


def fail_thread_pump():
    service, requests = failing_service()
    door = FrontDoor(service, policy="fifo", max_queue=8)
    handles = [door.submit(request) for request in requests]
    with pytest.raises(RuntimeError, match="worker died"):
        door.pump()
    outcomes = [handle.outcome(timeout=0) for handle in handles]
    door.shutdown()
    return door, outcomes


def fail_replay():
    service, requests = failing_service()
    door = FrontDoor(service, policy="fifo", max_queue=8)
    handle = door.submit(requests[0])  # rides along: no trace arrival
    with pytest.raises(RuntimeError, match="worker died"):
        door.replay([(0.0, request) for request in requests[1:]])
    assert door.metrics.snapshot().cancelled == 3
    door.shutdown()
    return door, [handle.outcome(timeout=0)]


def fail_async_door(slots):
    async def drive():
        service, requests = failing_service()
        door = AsyncFrontDoor(
            service, policy="fifo", max_queue=8, max_concurrent_steps=slots
        )
        door.start()
        handles = [await door.submit(request) for request in requests]
        outcomes = [
            await asyncio.wait_for(handle.outcome(), 30) for handle in handles
        ]
        await door.shutdown()
        return door, outcomes

    return asyncio.run(drive())


def fail_async_pump():
    async def drive():
        service, requests = failing_service()
        door = AsyncFrontDoor(service, policy="fifo", max_queue=8)
        handles = [await door.submit(request) for request in requests]
        with pytest.raises(RuntimeError, match="worker died"):
            await door.pump()
        assert all(handle.done for handle in handles)
        outcomes = [await handle.outcome() for handle in handles]
        await door.shutdown()
        return door, outcomes

    return asyncio.run(drive())


FAILING_ADAPTERS = {
    "thread-1": lambda: fail_thread_door(1),
    "thread-2": lambda: fail_thread_door(2),
    "async-1": lambda: fail_async_door(1),
    "async-2": lambda: fail_async_door(2),
    "replay": fail_replay,
    "thread-pump": fail_thread_pump,
    "async-pump": fail_async_pump,
}


class TestSchedulerThreadFailure:
    @pytest.mark.parametrize("adapter", sorted(FAILING_ADAPTERS))
    def test_failing_job_resolves_all_handles(self, adapter):
        """A job whose step() raises must not strand other handles: every
        unresolved request is cancelled with the failure as its error, and
        nothing stays tracked or admitted — through every adapter."""
        door, outcomes = FAILING_ADAPTERS[adapter]()
        assert [o.status for o in outcomes] == ["cancelled"] * len(outcomes)
        for outcome in outcomes:
            assert isinstance(outcome.error, ServingError)
            assert "worker died" in str(outcome.error)
        assert door.engine._entries == [] and door.engine.in_flight == 0
        assert door.admission.in_flight == 0
        assert door._handles == {}
        assert door.service.closed

    def test_failing_job_in_a_batch_drain(self):
        clock = SimulatedClock()
        scheduler = BatchScheduler(clock, policy="fifo")
        scheduler.add(Boom())
        scheduler.add(FakeJob("w1", 50, clock))
        with pytest.raises(RuntimeError, match="worker died"):
            scheduler.run()
        assert scheduler.pending == 0
        # The failure is raised once; the next drain reports what it cost.
        assert [o.status for o in scheduler.run()] == ["cancelled", "cancelled"]

    @pytest.mark.parametrize("slots", [1, 2])
    def test_shutdown_timeout_leaves_session_open(self, slots):
        """An expired shutdown timeout must not close the backend under the
        still-running step — and must expire on time, not at the step's
        end; a later shutdown finishes the job."""
        service = CannedService()
        slow = service.jobs["slow"] = SlowJob("slow", service.clock)
        door = FrontDoor(service, policy="fifo", max_concurrent_steps=slots)
        door.start()
        handle = door.submit(make_request(name="slow"))
        assert slow.entered.wait(30)  # the step is running: no sleep budget
        began = time.monotonic()
        assert door.shutdown(drain=True, timeout=0.05) is False
        assert time.monotonic() - began < slow.step_s / 2
        assert not service.closed  # backend still alive under the step
        with pytest.raises(ServingError):
            door.submit(make_request(name="slow"))  # but no longer accepting
        slow.release.set()
        assert door.shutdown(drain=True, timeout=30) is True
        assert service.closed
        assert handle.outcome(timeout=1).status == "completed"

    @pytest.mark.parametrize("slots", [1, 2])
    def test_cancel_while_in_flight_discards_the_straggler(self, slots):
        """shutdown(drain=False) during a step: the request is cancelled at
        once, the step is left to finish before the service closes, and
        its late settle is discarded — never finalized twice."""
        service = CannedService()
        slow = service.jobs["slow"] = SlowJob("slow", service.clock)
        service.jobs["queued"] = FakeJob("queued", 3, service.clock)
        door = FrontDoor(
            service, policy="fifo", max_queue=4, max_concurrent_steps=slots
        )
        handles = [
            door.submit(make_request(name="slow")),
            door.submit(make_request(name="queued")),
        ]
        door.start()
        assert slow.entered.wait(30)
        closer = threading.Thread(target=door.shutdown, kwargs={"drain": False})
        closer.start()
        if slots == 1:
            # The scheduler thread is inside the step; the cancel lands
            # once it returns.
            assert not handles[0].done
        slow.release.set()
        closer.join(30)
        assert not closer.is_alive() and service.closed
        outcomes = [handle.outcome(timeout=1) for handle in handles]
        if slots == 1:
            assert [o.status for o in outcomes] == ["cancelled", "cancelled"]
            assert outcomes[0].steps == 0  # the finished step was not counted
        else:
            assert outcomes[0].status == "cancelled"
        snap = door.metrics.snapshot()
        assert snap.requests == 2  # one finalization per request
        assert door.engine._entries == [] and door.admission.in_flight == 0


class TestStepperServingHooks:
    def make_stepper(self, seed=0, **cfg):
        rng = np.random.default_rng(seed)
        n = 30_000
        z = rng.integers(0, 10, n)
        x = rng.integers(0, 5, n)
        for c in range(3, 10):
            x[z == c] = np.where(rng.random((z == c).sum()) < 0.6, c % 5, x[z == c])
        sampler = ArraySampler(z, x, 10, 5, np.random.default_rng(seed + 1))
        config = HistSimConfig(
            k=3, epsilon=0.2, delta=0.05, sigma=0.0, stage1_samples=2000, **cfg
        )
        return HistSimStepper(sampler, np.ones(5), config, max_step_rows=1500)

    def test_achieved_epsilon_tightens_with_samples(self):
        stepper = self.make_stepper()
        stepper.step()
        early = stepper.achieved_epsilon()
        while not stepper.done:
            stepper.step()
        final = stepper.achieved_epsilon()
        assert final <= early
        assert final <= 0.2  # a completed run achieves its configured ε

    def test_partial_result_before_any_step_is_empty(self):
        stepper = self.make_stepper()
        partial = stepper.partial_result()
        assert partial.matching == ()
        assert stepper.achieved_epsilon() == float("inf")

    def test_partial_result_is_result_when_done(self):
        stepper = self.make_stepper()
        result = stepper.run_to_completion()
        assert stepper.partial_result() is result

    def test_partial_mid_run_tracks_current_topk(self):
        stepper = self.make_stepper()
        stepper.step()
        partial = stepper.partial_result()
        assert 0 < len(partial.matching) <= 3
        assert partial.stats.stage1_samples > 0
        assert partial.histograms.shape[0] == len(partial.matching)

    def test_estimated_remaining_rows_decreases(self):
        stepper = self.make_stepper()
        estimates = [stepper.estimated_remaining_rows()]
        while not stepper.done:
            stepper.step()
            estimates.append(stepper.estimated_remaining_rows())
        assert estimates[-1] == 0.0
        assert estimates[0] > 0
