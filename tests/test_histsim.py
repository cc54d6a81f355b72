"""End-to-end statistical tests for the HistSim algorithm (Algorithm 1).

These run the pure algorithm against the in-memory ArraySampler on seeded
synthetic populations with known ground truth, checking the paper's
guarantees, stage bookkeeping, and the finite-data edge cases.
"""

import numpy as np
import pytest

from repro.core import (
    ArraySampler,
    HistSim,
    HistSimConfig,
    audit_result,
    run_histsim,
    select_matching,
    split_point,
    stage3_sample_target,
    true_top_k,
)


def synth_population(
    rng,
    sizes,
    distributions,
):
    """Build (z, x) columns: candidate i contributes sizes[i] rows with
    group values drawn from distributions[i]."""
    z_parts, x_parts = [], []
    for i, (size, dist) in enumerate(zip(sizes, distributions)):
        z_parts.append(np.full(size, i, dtype=np.int64))
        x_parts.append(rng.choice(len(dist), size=size, p=dist))
    z = np.concatenate(z_parts)
    x = np.concatenate(x_parts)
    return z, x


def exact_counts(z, x, candidates, groups):
    counts = np.zeros((candidates, groups), dtype=np.int64)
    np.add.at(counts, (z, x), 1)
    return counts


def tilted(base, group, amount):
    """A copy of ``base`` with probability mass shifted onto one group."""
    out = np.array(base, dtype=float)
    out[group] += amount
    return out / out.sum()


@pytest.fixture
def clear_separation():
    """20 candidates, 8 groups; 3 are near the target, the rest far."""
    rng = np.random.default_rng(1234)
    groups = 8
    target_dist = np.full(groups, 1.0 / groups)
    distributions = []
    for i in range(20):
        if i < 3:
            distributions.append(tilted(target_dist, i, 0.02))  # near target
        else:
            distributions.append(tilted(target_dist, i % groups, 0.9))  # far
    sizes = [12_000] * 20
    z, x = synth_population(rng, sizes, distributions)
    return z, x, 20, groups, target_dist


class TestHistSimBasics:
    def test_finds_true_top_k(self, clear_separation):
        z, x, candidates, groups, target = clear_separation
        sampler = ArraySampler(z, x, candidates, groups, np.random.default_rng(7))
        config = HistSimConfig(
            k=3, epsilon=0.15, delta=0.05, sigma=0.0, stage1_samples=5000
        )
        result = run_histsim(sampler, target, config)
        assert set(result.matching) == {0, 1, 2}

    def test_guarantees_hold(self, clear_separation):
        z, x, candidates, groups, target = clear_separation
        truth = exact_counts(z, x, candidates, groups)
        sampler = ArraySampler(z, x, candidates, groups, np.random.default_rng(8))
        config = HistSimConfig(
            k=3, epsilon=0.15, delta=0.05, sigma=0.0, stage1_samples=5000
        )
        result = run_histsim(sampler, target, config)
        audit = audit_result(result, truth, target, config.epsilon, config.sigma)
        assert audit.ok
        assert abs(audit.delta_d) < 0.10

    def test_distances_sorted_ascending(self, clear_separation):
        z, x, candidates, groups, target = clear_separation
        sampler = ArraySampler(z, x, candidates, groups, np.random.default_rng(9))
        config = HistSimConfig(k=5, epsilon=0.2, delta=0.05, sigma=0.0, stage1_samples=5000)
        result = run_histsim(sampler, target, config)
        assert np.all(np.diff(result.distances) >= 0)

    def test_uses_fewer_samples_than_scan(self, clear_separation):
        """The entire point of the paper: terminate before reading everything."""
        z, x, candidates, groups, target = clear_separation
        sampler = ArraySampler(z, x, candidates, groups, np.random.default_rng(10))
        config = HistSimConfig(
            k=3, epsilon=0.25, delta=0.05, sigma=0.0, stage1_samples=5000
        )
        result = run_histsim(sampler, target, config)
        assert not result.exact
        assert result.stats.total_samples < z.size

    def test_round_traces_delta_halving(self, clear_separation):
        z, x, candidates, groups, target = clear_separation
        sampler = ArraySampler(z, x, candidates, groups, np.random.default_rng(11))
        config = HistSimConfig(k=3, epsilon=0.1, delta=0.03, sigma=0.0, stage1_samples=5000)
        algo = HistSim(sampler, target, config)
        algo.run()
        for t, trace in enumerate(algo.rounds, start=1):
            assert trace.delta_upper == pytest.approx(0.01 / 2**t)
            assert trace.round_index == t

    def test_stats_cost_hook_invoked(self, clear_separation):
        z, x, candidates, groups, target = clear_separation
        sampler = ArraySampler(z, x, candidates, groups, np.random.default_rng(12))
        calls = []
        config = HistSimConfig(k=3, epsilon=0.2, delta=0.05, sigma=0.0, stage1_samples=5000)
        run_histsim(sampler, target, config, stats_cost=lambda st, ops: calls.append(st))
        assert "stage1" in calls
        assert "stage3" in calls


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_target_entry_rejected(clear_separation, bad):
    z, x, candidates, groups, target = clear_separation
    sampler = ArraySampler(z, x, candidates, groups, np.random.default_rng(13))
    target = np.array(target, dtype=np.float64)
    target[0] = bad
    with pytest.raises(ValueError, match="finite"):
        HistSim(sampler, target, HistSimConfig(k=3))


class TestStage1Pruning:
    def test_rare_candidates_pruned(self):
        rng = np.random.default_rng(5)
        groups = 4
        uniform = np.full(groups, 0.25)
        # 10 common candidates (~10k rows each), 5 rare (20 rows each).
        sizes = [10_000] * 10 + [20] * 5
        dists = [uniform] * 15
        z, x = synth_population(rng, sizes, dists)
        sampler = ArraySampler(z, x, 15, groups, np.random.default_rng(6))
        config = HistSimConfig(
            k=3, epsilon=0.2, delta=0.05, sigma=0.01, stage1_samples=20_000,
            stage1_max_fraction=0.5,
        )
        algo = HistSim(sampler, uniform, config)
        pruned = algo.run_stage1()
        truth_rows = np.bincount(z, minlength=15)
        # Everything pruned must truly be rare (precision, Lemma 1)...
        assert np.all(truth_rows[pruned] / z.size < config.sigma)
        # ...and with 20k samples the 20-row candidates are clearly flagged.
        assert pruned[10:].all()
        assert not pruned[:10].any()

    def test_sigma_zero_prunes_nothing(self):
        rng = np.random.default_rng(5)
        sizes = [100] * 5 + [5] * 5
        dists = [np.array([0.5, 0.5])] * 10
        z, x = synth_population(rng, sizes, dists)
        sampler = ArraySampler(z, x, 10, 2, np.random.default_rng(6))
        config = HistSimConfig(k=2, epsilon=0.3, delta=0.05, sigma=0.0)
        algo = HistSim(sampler, np.array([0.5, 0.5]), config)
        pruned = algo.run_stage1()
        assert not pruned.any()

    def test_pruned_candidates_never_output(self):
        rng = np.random.default_rng(15)
        groups = 4
        uniform = np.full(groups, 0.25)
        # The rare candidate matches the target perfectly; common ones do not.
        sizes = [50_000] * 6 + [30]
        dists = [tilted(uniform, i % groups, 0.5) for i in range(6)] + [uniform]
        z, x = synth_population(rng, sizes, dists)
        sampler = ArraySampler(z, x, 7, groups, np.random.default_rng(16))
        config = HistSimConfig(
            k=2, epsilon=0.2, delta=0.05, sigma=0.001, stage1_samples=50_000,
            stage1_max_fraction=0.5,
        )
        result = run_histsim(sampler, uniform, config)
        assert 6 in result.pruned
        assert 6 not in result.matching


class TestFiniteData:
    def test_tiny_dataset_goes_exact(self):
        rng = np.random.default_rng(21)
        sizes = [50] * 6
        dists = [np.array([0.3, 0.3, 0.4])] * 6
        z, x = synth_population(rng, sizes, dists)
        truth = exact_counts(z, x, 6, 3)
        sampler = ArraySampler(z, x, 6, 3, np.random.default_rng(22))
        target = np.array([1.0, 1.0, 1.0])
        config = HistSimConfig(k=2, epsilon=0.05, delta=0.01, sigma=0.0)
        result = run_histsim(sampler, target, config)
        assert result.exact
        expected = true_top_k(truth, target, 2)
        assert set(result.matching) == set(int(i) for i in expected)
        # Exact results: reconstruction error is zero.
        audit = audit_result(result, truth, target, config.epsilon, config.sigma)
        assert audit.worst_reconstruction_error == pytest.approx(0.0)

    def test_alive_not_more_than_k_skips_stage2(self):
        rng = np.random.default_rng(31)
        sizes = [1000] * 3
        dists = [np.array([0.5, 0.5])] * 3
        z, x = synth_population(rng, sizes, dists)
        sampler = ArraySampler(z, x, 3, 2, np.random.default_rng(32))
        config = HistSimConfig(k=5, epsilon=0.2, delta=0.05, sigma=0.0)
        result = run_histsim(sampler, np.array([0.5, 0.5]), config)
        assert len(result.matching) == 3
        assert result.stats.rounds == 0

    def test_stage3_reconstruction_target_met(self, clear_separation=None):
        rng = np.random.default_rng(41)
        groups = 6
        uniform = np.full(groups, 1.0 / groups)
        sizes = [40_000] * 8
        dists = [tilted(uniform, i % groups, 0.1 * i) for i in range(8)]
        z, x = synth_population(rng, sizes, dists)
        sampler = ArraySampler(z, x, 8, groups, np.random.default_rng(42))
        config = HistSimConfig(k=2, epsilon=0.15, delta=0.05, sigma=0.0)
        algo = HistSim(sampler, uniform, config)
        result = algo.run()
        target_n = stage3_sample_target(config.epsilon, config.delta, config.k, groups)
        for candidate in result.matching:
            n_i = algo.state.samples[candidate]
            n_total_i = algo.state.candidate_rows[candidate]
            assert n_i >= min(target_n, n_total_i)


class TestHelperFunctions:
    def test_select_matching_prefers_smallest(self):
        tau = np.array([0.5, 0.1, 0.3, 0.2])
        alive = np.array([True, True, True, True])
        np.testing.assert_array_equal(select_matching(tau, alive, 2), [1, 3])

    def test_select_matching_ignores_dead(self):
        tau = np.array([0.5, 0.1, 0.3, 0.2])
        alive = np.array([True, False, True, True])
        np.testing.assert_array_equal(select_matching(tau, alive, 2), [3, 2])

    def test_select_matching_handles_small_alive(self):
        tau = np.array([0.5, 0.1])
        alive = np.array([True, True])
        np.testing.assert_array_equal(select_matching(tau, alive, 5), [1, 0])

    def test_select_matching_k_equals_alive_count(self):
        tau = np.array([0.5, 0.1, 0.3, 0.2])
        alive = np.array([True, False, True, True])
        np.testing.assert_array_equal(select_matching(tau, alive, 3), [3, 2, 0])

    def test_select_matching_distance_ties_stable_by_index(self):
        """Definition 3: equal estimates break ties by candidate index."""
        tau = np.array([0.2, 0.1, 0.2, 0.1, 0.2])
        alive = np.ones(5, dtype=bool)
        np.testing.assert_array_equal(select_matching(tau, alive, 3), [1, 3, 0])
        np.testing.assert_array_equal(select_matching(tau, alive, 5), [1, 3, 0, 2, 4])

    def test_select_matching_no_alive(self):
        tau = np.array([0.5, 0.1])
        alive = np.array([False, False])
        assert select_matching(tau, alive, 2).size == 0

    def test_split_point_is_midpoint(self):
        tau = np.array([0.1, 0.2, 0.6, 0.8])
        s = split_point(tau, np.array([0, 1]), np.array([2, 3]))
        assert s == pytest.approx(0.4)

    def test_split_point_requires_both_sides(self):
        with pytest.raises(ValueError):
            split_point(np.array([0.1]), np.array([0]), np.array([], dtype=int))

    def test_split_point_requires_nonempty_matching(self):
        with pytest.raises(ValueError):
            split_point(np.array([0.1]), np.array([], dtype=int), np.array([0]))

    def test_split_point_with_ties_across_boundary(self):
        """Equal k-th and (k+1)-th distances: s sits exactly on the tie."""
        tau = np.array([0.1, 0.3, 0.3, 0.9])
        s = split_point(tau, np.array([0, 1]), np.array([2, 3]))
        assert s == pytest.approx(0.3)


class TestGuaranteeMonteCarlo:
    """Run the algorithm repeatedly: violations must be far rarer than δ.

    The paper reports zero violations over all runs (Section 5.4), noting δ
    is a loose bound; we allow at most 1 of 15 seeded runs to fail at
    δ = 0.05 (expected: none).
    """

    def test_repeated_runs_satisfy_guarantees(self):
        rng = np.random.default_rng(99)
        groups = 8
        target = np.full(groups, 1.0 / groups)
        dists = [tilted(target, i % groups, 0.03 + 0.05 * (i % 7)) for i in range(25)]
        sizes = [8_000] * 25
        z, x = synth_population(rng, sizes, dists)
        truth = exact_counts(z, x, 25, groups)
        config = HistSimConfig(
            k=4, epsilon=0.12, delta=0.05, sigma=0.0, stage1_samples=5000
        )
        failures = 0
        for seed in range(15):
            sampler = ArraySampler(z, x, 25, groups, np.random.default_rng(seed))
            result = run_histsim(sampler, target, config)
            audit = audit_result(result, truth, target, config.epsilon, config.sigma)
            if not audit.ok:
                failures += 1
        assert failures <= 1
