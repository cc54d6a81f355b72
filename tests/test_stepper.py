"""Tests for the resumable HistSim stepper (core/histsim.py state machine).

The load-bearing property: step-driven execution is *identical* to
run-to-completion execution — same samples, same tests, same result — for
any step granularity, because the stepper calls the same stage methods in
the same order over a sampler that consumes a fixed scan order.
"""

import numpy as np
import pytest

from repro.core import (
    ArraySampler,
    HistSim,
    HistSimConfig,
    HistSimStepper,
    run_histsim,
)
from repro.core.distance import candidate_distances
from repro.core.histsim import (
    MIN_ROUND_SAMPLES,
    Done,
    Stage1,
    Stage2Round,
    Stage3,
    select_matching,
)
from repro.core.result import MatchResult, StageStats
from repro.data import prepare_workload
from repro.storage.cost_model import DEFAULT_COST_MODEL
from repro.system.clock import SimulatedClock
from repro.system.fastmatch import make_engine
from repro.system.stats_engine import StatsEngine


def synth_population(rng, sizes, distributions):
    z_parts, x_parts = [], []
    for i, (size, dist) in enumerate(zip(sizes, distributions)):
        z_parts.append(np.full(size, i, dtype=np.int64))
        x_parts.append(rng.choice(len(dist), size=size, p=dist))
    return np.concatenate(z_parts), np.concatenate(x_parts)


def tilted(base, group, amount):
    out = np.array(base, dtype=float)
    out[group] += amount
    return out / out.sum()


@pytest.fixture
def population():
    """20 candidates, 8 groups; 3 near the target, the rest far."""
    rng = np.random.default_rng(1234)
    groups = 8
    target = np.full(groups, 1.0 / groups)
    dists = []
    for i in range(20):
        if i < 3:
            dists.append(tilted(target, i, 0.02))
        else:
            dists.append(tilted(target, i % groups, 0.9))
    z, x = synth_population(rng, [12_000] * 20, dists)
    return z, x, 20, groups, target


CONFIG = HistSimConfig(k=3, epsilon=0.12, delta=0.05, sigma=0.0, stage1_samples=5000)


def make_sampler(population, seed=7):
    z, x, candidates, groups, _ = population
    return ArraySampler(z, x, candidates, groups, np.random.default_rng(seed))


def assert_results_identical(a, b):
    """Byte-level equality of two MatchResults."""
    assert a.matching == b.matching
    assert np.array_equal(a.histograms, b.histograms)
    assert np.array_equal(a.distances, b.distances)
    assert a.pruned == b.pruned
    assert a.exact == b.exact
    assert a.stats == b.stats
    assert a.rounds == b.rounds


class TestStepRunEquivalence:
    def test_step_driven_matches_run(self, population):
        target = population[-1]
        via_run = HistSim(make_sampler(population), target, CONFIG).run()

        stepper = HistSimStepper(make_sampler(population), target, CONFIG)
        while not stepper.done:
            stepper.step()
        assert_results_identical(stepper.result, via_run)

    @pytest.mark.parametrize("max_step_rows", [200, 1000, 7919, 100_000])
    def test_bounded_steps_match_run(self, population, max_step_rows):
        """Splitting a round's sampling across steps changes nothing."""
        target = population[-1]
        via_run = HistSim(make_sampler(population), target, CONFIG).run()

        stepper = HistSimStepper(
            make_sampler(population), target, CONFIG, max_step_rows=max_step_rows
        )
        result = stepper.run_to_completion()
        assert_results_identical(result, via_run)

    def test_smaller_bound_takes_more_steps(self, population):
        target = population[-1]
        coarse = HistSimStepper(make_sampler(population), target, CONFIG)
        coarse.run_to_completion()
        fine = HistSimStepper(
            make_sampler(population), target, CONFIG, max_step_rows=200
        )
        fine.run_to_completion()
        assert fine.steps_taken > coarse.steps_taken

    def test_run_histsim_unchanged(self, population):
        """The convenience wrapper drives the same machinery."""
        target = population[-1]
        a = run_histsim(make_sampler(population), target, CONFIG)
        b = HistSim(make_sampler(population), target, CONFIG).run()
        assert_results_identical(a, b)


class TestStateMachine:
    def test_stage_progression(self, population):
        target = population[-1]
        stepper = HistSimStepper(make_sampler(population), target, CONFIG)
        assert isinstance(stepper.stage, Stage1)
        assert stepper.stage_name == "stage1"

        report = stepper.step()
        assert report.stage == "stage1"
        assert report.fresh_rows > 0
        assert isinstance(stepper.stage, Stage2Round)
        assert stepper.stage.round_index == 1
        assert stepper.stage.delta_upper == pytest.approx(CONFIG.stage_delta / 2)

        seen = [stepper.stage_name]
        while not stepper.done:
            stepper.step()
            seen.append(stepper.stage_name)
        # Stages only move forward: stage2* then stage3 then done.
        assert seen[-1] == "done"
        assert seen[-2] == "stage3"
        order = {"stage2": 0, "stage3": 1, "done": 2}
        ranks = [order[s] for s in seen]
        assert ranks == sorted(ranks)

    def test_final_step_reports_done(self, population):
        target = population[-1]
        stepper = HistSimStepper(make_sampler(population), target, CONFIG)
        reports = []
        while not stepper.done:
            reports.append(stepper.step())
        assert reports[-1].done
        assert all(not r.done for r in reports[:-1])
        assert stepper.steps_taken == len(reports)

    def test_result_before_done_raises(self, population):
        target = population[-1]
        stepper = HistSimStepper(make_sampler(population), target, CONFIG)
        with pytest.raises(RuntimeError, match="no result yet"):
            stepper.result

    def test_step_after_done_raises(self, population):
        target = population[-1]
        stepper = HistSimStepper(make_sampler(population), target, CONFIG)
        stepper.run_to_completion()
        assert isinstance(stepper.stage, Done)
        with pytest.raises(RuntimeError, match="already done"):
            stepper.step()

    def test_degenerate_alive_skips_stage2(self):
        """With |candidates| <= k, the machine goes stage1 -> stage3."""
        rng = np.random.default_rng(31)
        z, x = synth_population(rng, [1000] * 3, [np.array([0.5, 0.5])] * 3)
        sampler = ArraySampler(z, x, 3, 2, np.random.default_rng(32))
        config = HistSimConfig(k=5, epsilon=0.2, delta=0.05, sigma=0.0)
        stepper = HistSimStepper(sampler, np.array([0.5, 0.5]), config)
        stepper.step()
        assert isinstance(stepper.stage, Stage3)
        result = stepper.run_to_completion()
        assert len(result.matching) == 3
        assert result.stats.rounds == 0

    def test_wrapping_existing_algorithm(self, population):
        target = population[-1]
        algo = HistSim(make_sampler(population), target, CONFIG)
        stepper = HistSimStepper(algorithm=algo)
        result = stepper.run_to_completion()
        assert result.matching == tuple(sorted(result.matching, key=lambda c: list(result.matching).index(c)))
        assert algo.rounds  # the wrapped instance did the work

    def test_constructor_validation(self, population):
        target = population[-1]
        algo = HistSim(make_sampler(population), target, CONFIG)
        with pytest.raises(ValueError, match="not both"):
            HistSimStepper(make_sampler(population), target, algorithm=algo)
        with pytest.raises(ValueError, match="not both"):
            HistSimStepper(algorithm=algo, stats_cost=lambda stage, ops: None)
        with pytest.raises(ValueError, match="provide a sampler"):
            HistSimStepper()
        with pytest.raises(ValueError, match="max_step_rows"):
            HistSimStepper(make_sampler(population), target, CONFIG, max_step_rows=0)


class SpySampler:
    """Delegates to a sampler and notes the stepper's stage at every
    sampling call."""

    def __init__(self, inner):
        self.inner = inner
        self.stepper = None
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    @property
    def fully_scanned(self):
        return self.inner.fully_scanned

    def sample_uniform(self, m):
        self.calls.append(("uniform", self.stepper.stage_name))
        return self.inner.sample_uniform(m)

    def sample_until(self, needed, max_rows=None):
        self.calls.append(("until", self.stepper.stage_name))
        return self.inner.sample_until(needed, max_rows=max_rows)


def test_spy_sampler_keeps_the_delivered_rows_contract(
    indistinct, delivered_rows_contract
):
    """The spy forwards ``delivered_rows()`` to the sampler it wraps, so a
    run through it reads each call's row sums as a bare run does."""
    _, _, candidates, _, target = indistinct
    spy = SpySampler(make_sampler(indistinct))
    stepper = HistSimStepper(spy, target, CONFIG, max_step_rows=700)
    spy.stepper = stepper
    delivered_rows_contract(spy, lambda s: s.sample_uniform(900))
    delivered_rows_contract(
        spy, lambda s: s.sample_until(np.full(candidates, 300.0), max_rows=700)
    )
    delivered_rows_contract(spy, lambda s: s.sample_until(np.full(candidates, np.inf)))
    assert spy.inner.fully_scanned and len(spy.calls) == 3


@pytest.fixture
def indistinct():
    """10 candidates of 1,500 rows; three all but equal to the target, so
    no round can separate them and stage 2 reads the whole table."""
    rng = np.random.default_rng(1234)
    groups = 8
    target = np.full(groups, 1.0 / groups)
    dists = [
        tilted(target, i, 0.001) if i < 3 else tilted(target, i % groups, 0.9)
        for i in range(10)
    ]
    z, x = synth_population(rng, [1500] * 10, dists)
    return z, x, 10, groups, target


class TestStage3AfterFullScan:
    @pytest.mark.parametrize("max_step_rows", [None, 700])
    @pytest.mark.parametrize("k", [1, 2])
    def test_fully_scanned_stage3_makes_no_sampler_call(
        self, indistinct, k, max_step_rows
    ):
        """Stage 3 of a run that already read every row calls no sampler
        and returns the exact top-k, every histogram exact."""
        z, x, candidates, groups, target = indistinct
        config = CONFIG.with_(k=k)
        spy = SpySampler(make_sampler(indistinct))
        stepper = HistSimStepper(spy, target, config, max_step_rows=max_step_rows)
        spy.stepper = stepper
        while not isinstance(stepper.stage, Stage3):
            stepper.step()
        assert spy.inner.fully_scanned
        calls_before_stage3 = list(spy.calls)
        report = stepper.step()
        assert report.done and report.fresh_rows == 0
        assert spy.calls == calls_before_stage3  # no call in stage 3
        assert ("until", "stage3") not in spy.calls
        result = stepper.result

        full = np.zeros((candidates, groups), dtype=np.int64)
        np.add.at(full, (z, x), 1)
        tau = candidate_distances(full, target)
        assert result.exact and result.stats.stage3_samples == 0
        assert sorted(result.matching) == sorted(
            select_matching(tau, np.ones(candidates, dtype=bool), k).tolist()
        )
        assert np.array_equal(result.histograms, full[list(result.matching)])
        # Step-driven, bounded or not, and run to completion agree.
        assert_results_identical(
            result, run_histsim(make_sampler(indistinct), target, config)
        )

    def test_zero_needed_stage3_makes_no_sampler_call(self, population):
        """A stage 3 whose matching candidates already hold the target's
        rows asks the sampler for nothing, and so does not call it."""
        target = population[-1]
        spy = SpySampler(make_sampler(population))
        stepper = HistSimStepper(spy, target, CONFIG)
        spy.stepper = stepper
        while not isinstance(stepper.stage, Stage3):
            stepper.step()
        algo = stepper.algorithm
        stepper.stage.needed = np.zeros(algo.alive.size)  # the target is met
        before = (list(spy.calls), spy.inner.delivered_rows())
        report = stepper.step()
        assert report.done and report.fresh_rows == 0
        assert spy.calls == before[0]
        assert np.array_equal(spy.inner.delivered_rows(), before[1])


class TestIncrementalSampling:
    """sample_until(max_rows=...) — the substrate the stepper relies on."""

    def test_array_sampler_incremental_identical(self, population):
        z, x, candidates, groups, _ = population
        whole = ArraySampler(z, x, candidates, groups, np.random.default_rng(5))
        split = ArraySampler(z, x, candidates, groups, np.random.default_rng(5))

        needed = np.full(candidates, 300.0)
        full = whole.sample_until(needed)

        total = np.zeros_like(full)
        remaining = needed.copy()
        while True:
            fresh = split.sample_until(remaining, max_rows=500)
            total += fresh
            remaining = np.maximum(remaining - fresh.sum(axis=1), 0.0)
            if fresh.sum() < 500:
                break
        assert np.array_equal(total, full)
        assert np.array_equal(whole.delivered_rows(), split.delivered_rows())

    def test_max_rows_bounds_delivery(self, population):
        z, x, candidates, groups, _ = population
        sampler = ArraySampler(
            z, x, candidates, groups, np.random.default_rng(5), batch_size=100
        )
        fresh = sampler.sample_until(np.full(candidates, 10_000.0), max_rows=250)
        # Delivery stops at the first batch boundary at/after the bound.
        assert 250 <= fresh.sum() <= 250 + 100


# ---------------------------------------------------------------------------
# Serving hooks: alive rows only, same values
# ---------------------------------------------------------------------------


def full_counts(algo):
    """Cumulative plus in-flight counts as a ``|V_Z| × |V_X|`` matrix, each
    alive candidate's row read through the state's row accessor; the rows
    of pruned candidates, which the state no longer keeps, are zero."""
    state, alive = algo.state, np.flatnonzero(algo.alive)
    counts = np.zeros((algo.alive.size, state.num_groups), dtype=np.int64)
    rows = state.rows(alive)
    counts[alive] = state.counts[rows] + state.round_counts[rows]
    return counts


def reference_partial_result(stepper):
    """``partial_result`` as it stood while it summed and normalized the
    count matrices of *every* candidate, pruned ones included."""
    algo, stage = stepper.algorithm, stepper.stage
    if isinstance(stage, Done):
        return stage.result
    counts = full_counts(algo)
    samples = algo.state.samples + algo.state.round_samples
    run_samples = int(samples.sum()) - stepper._before_stage1
    if run_samples <= 0:
        matching = np.empty(0, dtype=np.int64)
        tau = np.full(algo.alive.size, np.inf)
    else:
        tau = candidate_distances(counts, algo.target)
        if isinstance(stage, Stage3):
            matching = np.asarray(stage.matching, dtype=np.int64)
            matching = matching[np.argsort(tau[matching], kind="stable")]
        else:
            matching = select_matching(tau, algo.alive, algo.config.k)
    stage1 = stepper._after_stage1 - stepper._before_stage1
    if isinstance(stage, Stage1):
        stage1, stage2, stage3 = run_samples, 0, 0
    elif isinstance(stage, Stage2Round):
        stage2, stage3 = run_samples - stage1, 0
    else:
        stage2 = stepper._after_stage2 - stepper._after_stage1
        stage3 = run_samples - stage1 - stage2
    pruned = stepper._pruned_mask
    if pruned is None:
        pruned = np.zeros(algo.alive.size, dtype=bool)
    return MatchResult(
        matching=tuple(int(i) for i in matching),
        histograms=counts[matching].copy(),
        distances=tau[matching].copy(),
        pruned=tuple(int(i) for i in np.flatnonzero(pruned)),
        exact=algo.sampler.fully_scanned,
        stats=StageStats(
            stage1_samples=stage1,
            stage2_samples=stage2,
            stage3_samples=stage3,
            pruned_candidates=int(pruned.sum()),
            surviving_candidates=int(algo.alive.sum()),
            rounds=len(algo.rounds),
        ),
        rounds=tuple(algo.rounds),
    )


def reference_remaining_rows(stepper):
    """``estimated_remaining_rows`` from the same full-matrix era."""
    algo, st = stepper.algorithm, stepper.stage
    cfg = algo.config
    if isinstance(st, Done):
        return 0.0
    counts = full_counts(algo)
    samples = algo.state.samples + algo.state.round_samples
    unread = float(max(0, algo.sampler.total_rows - int(samples.sum())))
    tau = candidate_distances(counts, algo.target)
    matching = select_matching(tau, algo.alive, cfg.k)
    residual = float(np.maximum(0, algo.stage3_target - samples[matching]).sum())
    if isinstance(st, Stage1):
        estimate = float(cfg.effective_stage1_samples(algo.sampler.total_rows)) + residual
    elif isinstance(st, Stage2Round):
        if st.exhaust:
            estimate = unread
        elif st.plan is not None:
            rem = np.maximum(st.plan.budgets - algo.state.round_samples, 0.0)
            estimate = float(np.where(np.isfinite(rem), rem, 0.0).sum()) + residual
        else:
            estimate = float(MIN_ROUND_SAMPLES * max(int(algo.alive.sum()), 1)) + residual
    else:
        needed = st.needed if st.needed is not None else algo.stage3_needed(st.matching)
        estimate = float(np.where(np.isfinite(needed), needed, 0.0).sum())
    return min(estimate, unread)


class TestServingHooksOverAliveRows:
    """``partial_result`` / ``estimated_remaining_rows`` read the alive rows
    only; at every step of a Table-3 query — stage 1, mid-round slices with
    fresh counts in flight, stage 3, done — they return what the
    full-matrix implementations return."""

    @pytest.fixture(scope="class")
    def prepared(self):
        return prepare_workload("police-q3", rows=150_000, seed=7)

    def make_stepper(self, prepared, max_step_rows):
        config = HistSimConfig(
            k=prepared.query.k, epsilon=0.2, delta=0.05, sigma=0.0008,
            stage1_samples=20_000,
        )
        clock = SimulatedClock()
        engine = make_engine(
            prepared, "fastmatch", config, DEFAULT_COST_MODEL, clock,
            np.random.default_rng(5),
        )
        algorithm = HistSim(
            engine, prepared.target, config,
            stats_cost=StatsEngine(DEFAULT_COST_MODEL, clock),
        )
        return HistSimStepper(algorithm=algorithm, max_step_rows=max_step_rows)

    @pytest.mark.parametrize("max_step_rows", [None, 6_000])
    def test_same_values_at_every_step(self, prepared, max_step_rows):
        stepper = self.make_stepper(prepared, max_step_rows)
        stages_seen, in_flight_seen = set(), False
        while True:
            assert_results_identical(
                stepper.partial_result(), reference_partial_result(stepper)
            )
            assert stepper.estimated_remaining_rows() == reference_remaining_rows(stepper)
            stages_seen.add(stepper.stage_name)
            in_flight_seen |= bool(stepper.algorithm.state.round_samples.any())
            if stepper.done:
                break
            stepper.step()
        assert stages_seen == {"stage1", "stage2", "stage3", "done"}
        # The query prunes, so the alive-row path (not the all-alive
        # shortcut) is what ran; sliced rounds leave fresh counts in flight.
        assert 0 < stepper.algorithm.alive.sum() < stepper.algorithm.alive.size
        if max_step_rows is not None:
            assert in_flight_seen

    def test_hooks_do_not_mutate_the_run(self, prepared):
        quiet = self.make_stepper(prepared, 6_000).run_to_completion()
        observed = self.make_stepper(prepared, 6_000)
        while not observed.done:
            observed.partial_result()
            observed.estimated_remaining_rows()
            observed.step()
        assert_results_identical(observed.result, quiet)

    def test_cached_audit_truth_is_not_writable(self, prepared):
        truth = prepared.audit_truth
        assert truth is prepared.audit_truth  # once per artifact
        assert not truth.distances.flags.writeable
        assert not truth.rows.flags.writeable
