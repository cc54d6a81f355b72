"""Tests for the pure scheduling engine, the clock protocol, and edf-f.

The engine half of the serving refactor: clock-agnostic scheduling
(simulated or wall), per-job clock stamping of every outcome (the metrics
fix — cancelled outcomes must not mix timelines), and the
feasibility-aware ``edf-f`` policy's queued-job shedding.
"""

import time

import pytest

from repro.serving import ServingMetrics
from repro.serving.engine import ServingEngine
from repro.system import Clock, SimulatedClock, WallClock


class FakeJob:
    """Deterministic job: charges ``cost_ns`` per step on its own clock."""

    def __init__(self, name, work, clock, cost_ns=10.0, log=None,
                 remaining_ns=None):
        self.name = name
        self.clock = clock
        self._work = work
        self._cost = cost_ns
        self._log = log if log is not None else []
        #: Mutable so tests can model estimates that drift mid-run.
        self.remaining_ns = remaining_ns
        self.partials = 0

    @property
    def done(self):
        return self._work == 0

    def step(self):
        self._log.append(self.name)
        self._work -= 1
        self.clock.charge_serial(io=self._cost)

    def estimated_remaining_rows(self):
        return self._work * self._cost

    def estimated_remaining_ns(self):
        if self.remaining_ns is not None:
            return self.remaining_ns
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


class TestClockProtocol:
    def test_simulated_clock_is_virtual(self):
        clock = SimulatedClock()
        assert isinstance(clock, Clock)
        assert clock.virtual
        clock.charge_serial(io=5.0)
        assert clock.elapsed_ns == 5.0

    def test_simulated_idle_until(self):
        clock = SimulatedClock()
        clock.charge_serial(io=5.0)
        clock.idle_until(100.0)
        assert clock.elapsed_ns == 100.0
        assert clock.snapshot()["idle"] == 95.0
        clock.idle_until(50.0)  # never goes backwards
        assert clock.elapsed_ns == 100.0

    def test_wall_clock_advances_on_its_own(self):
        clock = WallClock()
        assert isinstance(clock, Clock)
        assert not clock.virtual
        first = clock.elapsed_ns
        time.sleep(0.002)
        assert clock.elapsed_ns > first

    def test_wall_clock_charges_record_breakdown_only(self):
        clock = WallClock()
        before = clock.elapsed_ns
        clock.charge_serial(io=1e12)  # a thousand simulated seconds
        clock.charge_pipelined(io_ns=100.0, mark_ns=40.0)
        # Elapsed is real time: charging cannot have moved it by 1e12.
        assert clock.elapsed_ns - before < 1e9
        snap = clock.snapshot()
        assert snap["io"] == 1e12 + 100.0
        assert snap["mark"] == 40.0
        assert snap["overlap_hidden"] == 40.0

    def test_wall_clock_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            WallClock().charge_serial(io=-1.0)


class TestEngineOnWallClock:
    def test_jobs_complete_with_real_time_stamps(self):
        clock = WallClock()
        engine = ServingEngine(clock, policy="fifo")
        engine.submit(FakeJob("a", work=3, clock=clock))
        (outcome,) = engine.run_until_idle()
        assert outcome.status == "completed"
        assert outcome.finished_ns >= outcome.submitted_ns
        assert outcome.steps == 3

    def test_real_deadline_expires_on_wall_clock(self):
        clock = WallClock()
        engine = ServingEngine(clock, policy="edf")

        class Sleeper(FakeJob):
            def step(self):
                time.sleep(0.005)
                super().step()

        engine.submit(Sleeper("slow", work=100, clock=clock),
                      deadline_ns=2e6)  # 2 ms of real time
        (outcome,) = engine.run_until_idle()
        assert outcome.status == "partial"
        assert outcome.steps < 100


class TestPerJobClockStamping:
    """Outcomes are stamped from the job's own clock, never the driver's.

    Regression for the metrics bug: latency percentiles mixed simulated
    and wall nanoseconds when a wall-clock driver cancelled
    simulated-clock jobs mid-flight.
    """

    def test_cancelled_outcome_stays_on_job_clock(self):
        wall = WallClock()
        sim = SimulatedClock()
        metrics = ServingMetrics()
        engine = ServingEngine(wall, policy="fifo", metrics=metrics)
        job = FakeJob("j", work=5, clock=sim)
        entry = engine.submit(job)  # clock inferred from the job
        assert entry.clock is sim
        engine.turn()
        engine.cancel_pending("shutdown")
        outcome = entry.outcome
        assert outcome.status == "cancelled"
        # Stamped on the simulated timeline: one 10ns step, not wall ns.
        assert outcome.submitted_ns == 0.0
        assert outcome.finished_ns == sim.elapsed_ns == 10.0
        assert outcome.latency_ns == 10.0
        # The percentiles aggregate coherent (simulated) latencies.
        assert metrics.snapshot().p99_latency_ms == pytest.approx(1e-5)

    def test_deadline_lives_on_job_clock(self):
        wall = WallClock()
        sim = SimulatedClock()
        sim.charge_serial(io=1000.0)
        engine = ServingEngine(wall, policy="fifo")
        entry = engine.submit(FakeJob("j", work=1, clock=sim), deadline_ns=50.0)
        assert entry.submitted_ns == 1000.0
        assert entry.deadline_ns == 1050.0

    def test_explicit_clock_argument_wins(self):
        wall = WallClock()
        sim = SimulatedClock()
        engine = ServingEngine(wall, policy="fifo")
        job = FakeJob("j", work=1, clock=wall)
        entry = engine.submit(job, clock=sim)
        assert entry.clock is sim


class TestFeasibilityShedding:
    def test_doomed_queued_job_settles_immediately_as_partial(self):
        clock = SimulatedClock()
        engine = ServingEngine(clock, policy="edf-f")
        doomed = FakeJob("doomed", work=5, clock=clock)   # needs 50ns
        engine.submit(doomed, deadline_ns=30.0)           # cannot make it
        feasible = FakeJob("ok", work=2, clock=clock)     # needs 20ns
        engine.submit(feasible, deadline_ns=40.0)
        outcomes = {o.name: o for o in engine.run_until_idle()}
        assert outcomes["doomed"].status == "partial"
        assert outcomes["doomed"].steps == 0              # never got a slice
        assert outcomes["doomed"].finished_ns == 0.0      # settled at once
        assert doomed.partials == 1
        assert outcomes["ok"].status == "completed"
        assert outcomes["ok"].deadline_hit

    def test_doomed_miss_mode_gets_typed_infeasible_error(self):
        """A predictive shed is distinguishable from a real expiry: the
        error is an InfeasibleDeadline (still a DeadlineMiss for callers
        that only branch on misses) and its message does not claim an
        expiry that never happened."""
        from repro.serving import DeadlineMiss, InfeasibleDeadline

        clock = SimulatedClock()
        engine = ServingEngine(clock, policy="edf-f")
        engine.submit(FakeJob("doomed", work=5, clock=clock),
                      deadline_ns=30.0, on_deadline="miss")
        (outcome,) = engine.run_until_idle()
        assert outcome.status == "miss"
        assert isinstance(outcome.error, InfeasibleDeadline)
        assert isinstance(outcome.error, DeadlineMiss)
        assert outcome.error.estimated_remaining_ns == 50.0
        assert "infeasible" in str(outcome.error)
        # A real expiry still reports the plain DeadlineMiss.
        engine2 = ServingEngine(SimulatedClock(), policy="edf")
        job = FakeJob("late", work=5, clock=engine2.clock)
        engine2.submit(job, deadline_ns=30.0, on_deadline="miss")
        (expired,) = engine2.run_until_idle()
        assert isinstance(expired.error, DeadlineMiss)
        assert not isinstance(expired.error, InfeasibleDeadline)

    def test_edf_f_dominates_edf_on_a_doomed_mix(self):
        """The domino scenario: EDF burns its slices on the most imminent
        (doomed) request and misses everything; edf-f answers the doomed
        one immediately and saves the feasible one."""

        def hits(policy):
            clock = SimulatedClock()
            engine = ServingEngine(clock, policy=policy)
            engine.submit(FakeJob("doomed", work=5, clock=clock),
                          deadline_ns=30.0)
            engine.submit(FakeJob("ok", work=2, clock=clock),
                          deadline_ns=40.0)
            return sum(o.deadline_hit for o in engine.run_until_idle())

        assert hits("edf") == 0
        assert hits("edf-f") == 1

    def test_running_jobs_are_never_shed(self):
        """Mid-run estimates are unreliable; once a job has a slice, only
        its real deadline can settle it."""
        clock = SimulatedClock()
        engine = ServingEngine(clock, policy="edf-f")
        job = FakeJob("j", work=3, clock=clock, remaining_ns=10.0)
        engine.submit(job, deadline_ns=100.0)
        assert engine.turn() == 1
        job.remaining_ns = 1e12  # estimate goes insane mid-run
        (outcome,) = engine.run_until_idle()
        assert outcome.status == "completed"
        assert outcome.deadline_hit

    def test_jobs_without_estimates_or_deadlines_pass_through(self):
        clock = SimulatedClock()
        engine = ServingEngine(clock, policy="edf-f")

        class NoEstimate(FakeJob):
            def estimated_remaining_ns(self):
                return float("inf")

        engine.submit(NoEstimate("blind", work=2, clock=clock),
                      deadline_ns=5.0)  # unmeetable, but unknowable
        engine.submit(FakeJob("free", work=2, clock=clock))  # no deadline
        outcomes = {o.name: o for o in engine.run_until_idle()}
        # The estimate-free job ran until its deadline actually expired.
        assert outcomes["blind"].status == "partial"
        assert outcomes["free"].status == "completed"


class CountingJob(FakeJob):
    """A job shaped like the session's: the ns estimate is the row
    estimate at a unit cost, and every run of the lookahead is counted."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lookaheads = 0

    def estimated_remaining_rows(self):
        self.lookaheads += 1
        return super().estimated_remaining_rows()

    def estimated_remaining_ns(self):
        return self.estimated_remaining_rows() * 1.0


class TestOneEstimatePerStep:
    """The engine runs a job's lookahead once per step and policy question
    — it used to run rows *and* ns for either, and ns re-runs rows."""

    def run_mix(self, policy, job_cls):
        clock = SimulatedClock()
        engine = ServingEngine(clock, policy=policy)
        jobs = [
            job_cls("long", work=4, clock=clock),
            job_cls("short", work=1, clock=clock),
            job_cls("mid", work=2, clock=clock),
        ]
        for job, deadline in zip(jobs, (100.0, 5.0, 100.0)):
            engine.submit(job, deadline_ns=deadline)
        outcomes = [
            (o.name, o.status, o.steps, o.finished_ns) for o in engine.run_until_idle()
        ]
        return jobs, outcomes

    def test_cost_policy_asks_once_per_job_per_step(self):
        jobs, outcomes = self.run_mix("cost", CountingJob)
        # Every pick ranks every runnable job, so a job is asked at each
        # step count it is runnable at: once per step it goes on to take.
        assert [job.lookaheads for job in jobs] == [4, 1, 2]
        assert outcomes == [  # in submission order; shortest ran first
            ("long", "completed", 4, 70.0),
            ("short", "completed", 1, 10.0),
            ("mid", "completed", 2, 30.0),
        ]
        assert outcomes == self.run_mix("cost", FakeJob)[1]

    def test_edf_f_asks_once_per_screened_job(self):
        jobs, outcomes = self.run_mix("edf-f", CountingJob)
        # Only jobs that have not had a slice yet are screened, and "short"
        # (10 ns against a 5 ns deadline) is settled by its first screen.
        assert [job.lookaheads for job in jobs] == [1, 1, 1]
        assert outcomes == [
            ("long", "completed", 4, 40.0),
            ("short", "partial", 0, 0.0),
            ("mid", "completed", 2, 60.0),
        ]
        assert outcomes == self.run_mix("edf-f", FakeJob)[1]


class TestPickDispatchSettle:
    """The three-phase split: pick marks in-flight, settle accounts, and an
    inline ``turn()`` is exactly pick → job.step() → settle."""

    def test_pick_marks_in_flight_and_skips_it(self):
        clock = SimulatedClock()
        engine = ServingEngine(clock, policy="fifo")
        a = engine.submit(FakeJob("a", work=2, clock=clock))
        b = engine.submit(FakeJob("b", work=1, clock=clock))
        first = engine.pick()
        assert first is a and a.in_flight
        assert engine.in_flight == 1
        # FIFO must move on to b: a is mid-step, not dispatchable.
        second = engine.pick()
        assert second is b
        assert engine.pick() is None  # every runnable entry is in flight
        assert engine.pending == 2    # ... but none of them is finalized
        first.job.step()
        engine.settle(first)
        assert not first.in_flight and first.outcome is None  # 1 of 2 steps
        second.job.step()
        engine.settle(second)
        assert second.outcome.status == "completed"
        assert second.steps == 1

    def test_inline_turn_is_pick_step_settle(self):
        def drain(three_phase):
            clock = SimulatedClock()
            log = []
            engine = ServingEngine(clock, policy="rr")
            engine.submit(FakeJob("a", work=3, clock=clock, log=log))
            engine.submit(FakeJob("b", work=2, clock=clock, log=log))
            if three_phase:
                while True:
                    entry = engine.pick()
                    if entry is None:
                        break
                    entry.job.step()
                    engine.settle(entry)
            else:
                while engine.turn():
                    pass
            outcomes = {
                e.name: (e.outcome.status, e.outcome.steps, e.outcome.service_ns)
                for e in engine.take_finished()
            }
            return log, outcomes

        assert drain(three_phase=True) == drain(three_phase=False)

    def test_turn_starts_one_step_at_a_time(self):
        """A turn whose start only records the pick (the thread door runs
        it later, outside its lock) starts nothing more until that step
        has reported; the next turn settles it and picks again."""
        clock = SimulatedClock()
        engine = ServingEngine(clock, policy="fifo")
        engine.submit(FakeJob("a", work=1, clock=clock))
        engine.submit(FakeJob("b", work=1, clock=clock))
        picked = []
        assert engine.turn(picked.append) == 1
        assert engine.turn(picked.append) == 0  # a is still stepping
        assert [e.name for e in picked] == ["a"]
        engine.run_step(picked[0])
        assert engine.turn(picked.append) == 1  # settles a, picks b
        assert [e.name for e in picked] == ["a", "b"]
        assert [e.name for e in engine.take_finished()] == ["a"]

    def test_settle_requires_a_picked_step(self):
        clock = SimulatedClock()
        engine = ServingEngine(clock, policy="fifo")
        entry = engine.submit(FakeJob("a", work=1, clock=clock))
        with pytest.raises(RuntimeError, match="no step to settle"):
            engine.settle(entry)

    def test_expiry_skips_in_flight_entries_until_their_settle(self):
        clock = SimulatedClock()
        engine = ServingEngine(clock, policy="fifo")
        entry = engine.submit(
            FakeJob("a", work=2, clock=clock), deadline_ns=5.0
        )
        picked = engine.pick()
        assert picked is entry
        picked.job.step()  # clock is now past the 5ns deadline
        # Expiry scans (via another pick) must not finalize a mid-step job
        # under its running step.
        assert engine.pick() is None
        assert entry.outcome is None
        engine.settle(picked)  # settle re-runs expiry and catches it
        assert entry.outcome is not None
        assert entry.outcome.status == "partial"
        assert entry.steps == 1

    def test_cancel_mid_step_discards_the_straggler_settle(self):
        clock = SimulatedClock()
        engine = ServingEngine(clock, policy="fifo")
        entry = engine.submit(FakeJob("a", work=2, clock=clock))
        picked = engine.pick()
        assert engine.cancel_pending("shutdown") == 1
        assert entry.outcome.status == "cancelled"
        picked.job.step()
        engine.settle(picked)  # the step's work is discarded, not re-finalized
        assert entry.outcome.status == "cancelled"
        assert entry.outcome.steps == 0
        assert len(engine.take_finished()) == 1


class TestFinishedEntriesAreDropped:
    """The engine keeps unfinished entries only: what callers observe is
    unchanged, and a drained engine retains no job."""

    def test_pending_idle_and_outcomes_through_a_mixed_drain(self):
        clock = SimulatedClock()
        engine = ServingEngine(clock, policy="rr")
        handles = [
            engine.submit(FakeJob("done", work=2, clock=clock)),
            engine.submit(FakeJob("late", work=50, clock=clock), deadline_ns=35.0),
            engine.submit(
                FakeJob("missed", work=50, clock=clock),
                deadline_ns=35.0, on_deadline="miss",
            ),
            engine.submit(FakeJob("long", work=6, clock=clock)),
        ]
        assert engine.pending == 4 and not engine.idle
        pending_seen = []
        while engine.turn():
            # Unfinished == tracked, at every slice.
            assert engine.pending == sum(h.outcome is None for h in handles)
            assert len(engine._entries) == engine.pending
            pending_seen.append(engine.pending)
        assert pending_seen[0] == 4 and pending_seen[-1] == 0
        assert engine.idle and engine.pending == 0 and engine.in_flight == 0
        assert len(engine._entries) == 0
        # Callers keep their own handles; take_finished still pairs
        # entries with outcomes, in submission order.
        finished = engine.take_finished()
        assert [e.name for e in finished] == ["done", "late", "missed", "long"]
        assert [h.outcome.status for h in handles] == [
            "completed", "partial", "miss", "completed",
        ]
        assert [h.outcome.steps for h in handles] == [2, 1, 1, 6]
        assert engine.take_finished() == []

    def test_cancel_and_mid_step_finalization_leave_nothing_tracked(self):
        clock = SimulatedClock()
        engine = ServingEngine(clock, policy="fifo")
        engine.submit(FakeJob("a", work=3, clock=clock))
        engine.submit(FakeJob("b", work=3, clock=clock))
        picked = engine.pick()
        assert engine.in_flight == 1
        assert engine.cancel_pending("shutdown") == 2
        # The straggler is finalized, so it no longer counts as in flight.
        assert engine.pending == 0 and engine.in_flight == 0 and engine.idle
        assert len(engine._entries) == 0
        picked.job.step()
        engine.settle(picked)
        assert len(engine._entries) == 0 and len(engine.take_finished()) == 2
        # The engine keeps serving after a drain.
        engine.submit(FakeJob("c", work=1, clock=clock))
        assert engine.pending == 1
        (outcome,) = engine.run_until_idle()
        assert outcome.status == "completed" and len(engine._entries) == 0
