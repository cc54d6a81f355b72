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
from repro.core.histsim import Done, Stage1, Stage2Round, Stage3, select_matching
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


def reference_partial_result(stepper):
    """``partial_result`` as it stood while it summed and normalized the
    count matrices of *every* candidate, pruned ones included."""
    algo, stage = stepper.algorithm, stepper.stage
    if isinstance(stage, Done):
        return stage.result
    counts = algo.state.counts + algo.state.round_counts
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
    counts = algo.state.counts + algo.state.round_counts
    samples = algo.state.samples + algo.state.round_samples
    tau = candidate_distances(counts, algo.target)
    matching = select_matching(tau, algo.alive, cfg.k)
    residual = float(np.maximum(0, algo.stage3_target - samples[matching]).sum())
    if isinstance(st, Stage1):
        estimate = float(cfg.effective_stage1_samples(algo.sampler.total_rows)) + residual
    elif isinstance(st, Stage2Round):
        if st.exhaust:
            estimate = float(max(0, algo.sampler.total_rows - int(samples.sum())))
        elif st.plan is not None:
            rem = np.maximum(st.plan.budgets - algo.state.round_samples, 0.0)
            estimate = float(np.where(np.isfinite(rem), rem, 0.0).sum()) + residual
        else:
            estimate = float(cfg.min_round_samples * max(int(algo.alive.sum()), 1)) + residual
    else:
        needed = st.needed if st.needed is not None else algo.stage3_needed(st.matching)
        estimate = float(np.where(np.isfinite(needed), needed, 0.0).sum())
    return min(estimate, float(algo.sampler.total_rows))


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
