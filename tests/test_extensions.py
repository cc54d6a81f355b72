"""Tests for the Appendix A extensions."""

import numpy as np
import pytest

from repro.core import (
    ArraySampler,
    HistSim,
    HistSimConfig,
    StageStats,
    audit_result,
    l1_distance,
    run_histsim,
)
from repro.core.distance import l2_distance, normalize
from repro.extensions import (
    MeasureBiasedSampler,
    PredicateCandidateSampler,
    choose_k,
    composite_grouping,
    composite_support_size,
    exact_predicate_counts,
    exact_sum_histograms,
    l2_epsilon_given_samples,
    l2_samples_for_deviation,
    l2_top_k,
    measure_biased_order,
    predicate_block_counts,
    prune_unknown_domain,
    run_histsim_dual_epsilon,
    run_histsim_range_k,
)
from repro.bitmap import DensityMap
from repro.query import Equals, IsIn
from repro.storage import CategoricalAttribute, ColumnTable, Schema


def make_population(rng, sizes, dists):
    z_parts, x_parts = [], []
    for i, (size, dist) in enumerate(zip(sizes, dists)):
        z_parts.append(np.full(size, i, dtype=np.int64))
        x_parts.append(rng.choice(len(dist), size=size, p=dist))
    return np.concatenate(z_parts), np.concatenate(x_parts)


class TestMeasureBiasedSampling:
    def test_order_prefers_heavy_rows(self):
        rng = np.random.default_rng(0)
        measure = np.concatenate([np.full(100, 100.0), np.full(900, 1.0)])
        order = measure_biased_order(measure, rng)
        # Heavy rows should dominate early positions.
        early = order[:100]
        assert (early < 100).mean() > 0.5

    def test_zero_measure_rows_sort_last(self):
        rng = np.random.default_rng(1)
        measure = np.array([0.0, 5.0, 0.0, 2.0])
        order = measure_biased_order(measure, rng)
        assert set(order[-2:]) == {0, 2}

    def test_negative_measure_rejected(self):
        with pytest.raises(ValueError):
            measure_biased_order(np.array([-1.0]), np.random.default_rng(0))

    def test_count_estimates_converge_to_sum_distribution(self):
        """COUNT over the biased stream ≈ SUM(Y) shape (Appendix A.1.1)."""
        rng = np.random.default_rng(2)
        n = 60_000
        z = rng.integers(0, 3, size=n)
        x = rng.integers(0, 4, size=n)
        # Candidate 0's measure is concentrated on group 0.
        measure = np.where((z == 0) & (x == 0), 50.0, 1.0)
        sampler = MeasureBiasedSampler(z, x, measure, 3, 4, rng)
        counts = sampler.sample_uniform(20_000)
        truth = exact_sum_histograms(z, x, measure, 3, 4)
        assert l1_distance(counts[0], truth[0]) < 0.1

    def test_histsim_runs_on_biased_stream(self):
        rng = np.random.default_rng(3)
        n = 40_000
        z = rng.integers(0, 5, size=n)
        x = rng.integers(0, 4, size=n)
        measure = rng.exponential(size=n) + 0.1
        sampler = MeasureBiasedSampler(z, x, measure, 5, 4, rng)
        config = HistSimConfig(k=2, epsilon=0.25, delta=0.05, sigma=0.0)
        result = run_histsim(sampler, np.ones(4), config)
        truth = exact_sum_histograms(z, x, measure, 5, 4)
        audit = audit_result(result, truth, np.ones(4), 0.25, 0.0)
        assert audit.reconstruction_ok


@pytest.fixture
def predicate_world():
    rng = np.random.default_rng(5)
    n = 30_000
    schema = Schema(
        (
            CategoricalAttribute("z1", ("a", "b", "c")),
            CategoricalAttribute("z2", ("p", "q")),
            CategoricalAttribute("x", tuple(f"x{i}" for i in range(4))),
        )
    )
    table = ColumnTable(
        schema,
        {
            "z1": rng.integers(0, 3, size=n),
            "z2": rng.integers(0, 2, size=n),
            "x": rng.integers(0, 4, size=n),
        },
    )
    candidates = [
        Equals("z1", 0) & Equals("z2", 0),
        Equals("z1", 1) | Equals("z2", 1),
        IsIn("z1", (0, 2)),
    ]
    return table, candidates


class TestPredicateCandidates:
    def test_exact_counts_match_masks(self, predicate_world):
        table, candidates = predicate_world
        counts = exact_predicate_counts(table, candidates, "x")
        for row, predicate in enumerate(candidates):
            mask = predicate.mask(table)
            expected = np.bincount(table.column("x")[mask], minlength=4)
            np.testing.assert_array_equal(counts[row], expected)

    def test_sampler_full_scan_reproduces_exact(self, predicate_world):
        table, candidates = predicate_world
        sampler = PredicateCandidateSampler(
            table, candidates, "x", np.random.default_rng(6)
        )
        fresh = sampler.sample_until(np.full(3, np.inf))
        truth = exact_predicate_counts(table, candidates, "x")
        np.testing.assert_array_equal(fresh, truth)

    def test_overlapping_candidates_both_counted(self, predicate_world):
        table, candidates = predicate_world
        sampler = PredicateCandidateSampler(
            table, candidates, "x", np.random.default_rng(7)
        )
        counts = sampler.sample_uniform(5000)
        # Candidates 0 and 2 overlap (both include z1=0 rows): delivered
        # totals exceed the number of scanned tuples.
        assert counts.sum() > 5000

    def test_histsim_over_predicate_candidates(self, predicate_world):
        table, candidates = predicate_world
        sampler = PredicateCandidateSampler(
            table, candidates, "x", np.random.default_rng(8)
        )
        config = HistSimConfig(k=1, epsilon=0.3, delta=0.05, sigma=0.0)
        result = run_histsim(sampler, np.ones(4), config)
        truth = exact_predicate_counts(table, candidates, "x")
        audit = audit_result(result, truth, np.ones(4), 0.3, 0.0)
        assert audit.reconstruction_ok

    def test_density_map_block_counts(self, predicate_world):
        table, _ = predicate_world
        dm = DensityMap.build(table.column("z1"), 3, block_size=64)
        mask = np.array([True, False, True])
        got = predicate_block_counts(dm, mask, 0, 10)
        col = table.column("z1")
        for b in range(10):
            chunk = col[b * 64 : (b + 1) * 64]
            assert got[b] == np.isin(chunk, [0, 2]).sum()


class TestCompositeGrouping:
    def test_support_size(self, predicate_world):
        table, _ = predicate_world
        assert composite_support_size(table, ("z1", "z2")) == 6
        assert composite_support_size(table, ("z1", "z2", "x")) == 24

    def test_codes_roundtrip(self, predicate_world):
        table, _ = predicate_world
        codes, cardinality, labels = composite_grouping(table, ("z1", "z2"))
        assert cardinality == 6
        assert len(labels) == 6
        z1, z2 = table.column("z1"), table.column("z2")
        np.testing.assert_array_equal(codes, z1 * 2 + z2)
        assert labels[0] == "a|p"
        assert labels[5] == "c|q"

    def test_empty_attributes_rejected(self, predicate_world):
        table, _ = predicate_world
        with pytest.raises(ValueError):
            composite_support_size(table, ())


class TestUnknownDomain:
    def test_unseen_flagged_rare_when_sample_large(self):
        rng = np.random.default_rng(9)
        # 3 frequent values; sample is large, so anything unseen is rare.
        values = rng.integers(0, 3, size=50_000)
        out = prune_unknown_domain(values, total_rows=100_000, sigma=0.01, delta=0.05)
        assert out.unseen_all_rare
        assert out.seen_values == (0, 1, 2)
        assert out.pruned_seen == ()

    def test_small_sample_cannot_certify_unseen(self):
        rng = np.random.default_rng(10)
        values = rng.integers(0, 3, size=30)
        out = prune_unknown_domain(values, total_rows=1_000_000, sigma=0.0001, delta=0.05)
        assert not out.unseen_all_rare

    def test_rare_seen_value_pruned(self):
        rng = np.random.default_rng(11)
        values = np.concatenate([rng.integers(0, 2, size=49_999), [7]])
        out = prune_unknown_domain(values, total_rows=100_000, sigma=0.01, delta=0.05)
        assert 7 in out.pruned_seen

    def test_validation(self):
        with pytest.raises(ValueError):
            prune_unknown_domain(np.array([]), 10, 0.1, 0.05)
        with pytest.raises(ValueError):
            prune_unknown_domain(np.zeros(20, dtype=int), 10, 0.1, 0.05)


class TestRangeK:
    def test_choose_k_picks_widest_gap(self):
        distances = np.array([0.1, 0.12, 0.14, 0.5, 0.52, 0.62])
        alive = np.ones(6, dtype=bool)
        assert choose_k(distances, alive, 2, 5) == 3  # gap 0.14 -> 0.5 widest
        assert choose_k(distances, alive, 4, 5) == 5  # gap 0.52 -> 0.62 beats 0.5 -> 0.52

    def test_choose_k_respects_bounds(self):
        distances = np.array([0.1, 0.9])
        alive = np.ones(2, dtype=bool)
        assert choose_k(distances, alive, 1, 1) == 1
        with pytest.raises(ValueError):
            choose_k(distances, alive, 3, 2)

    @staticmethod
    def adaptive_world():
        """Three flat candidates among twelve skewed ones, k in [2, 6]."""
        rng = np.random.default_rng(12)
        dists = []
        for i in range(12):
            base = np.full(6, 1.0 / 6)
            if i >= 3:
                base[i % 6] += 0.8
                base /= base.sum()
            dists.append(base)
        z, x = make_population(rng, [6000] * 12, dists)
        make_sampler = lambda: ArraySampler(z, x, 12, 6, np.random.default_rng(13))
        config = HistSimConfig(k=1, epsilon=0.2, delta=0.05, sigma=0.0, stage1_samples=4000)
        return make_sampler, config, 2, 6

    @staticmethod
    def pruned_world():
        """Thirty candidates, every fifth one rare, k in [2, 8]."""
        rng = np.random.default_rng(2024)
        dists, sizes = [], []
        for i in range(30):
            base = np.full(6, 1.0 / 6)
            if i >= 4:
                base[i % 6] += 0.7
                base /= base.sum()
            dists.append(base)
            sizes.append(15 if i % 5 == 4 else 5000)  # every fifth one is rare
        z, x = make_population(rng, sizes, dists)
        make_sampler = lambda: ArraySampler(z, x, 30, 6, np.random.default_rng(99))
        config = HistSimConfig(
            k=1, epsilon=0.2, delta=0.05, sigma=0.002, stage1_samples=20000
        )
        return make_sampler, config, 2, 8

    def test_run_with_adaptive_k(self):
        make_sampler, config, k_min, k_max = self.adaptive_world()
        result = run_histsim_range_k(make_sampler(), np.ones(6), config, k_min, k_max)
        # The natural gap sits after the 3 planted flat candidates.
        assert result.k == 3
        assert set(result.matching) == {0, 1, 2}

    @pytest.mark.parametrize("world", ["adaptive_world", "pruned_world"])
    def test_equals_plain_run_at_chosen_k(self, world):
        """Range-k is stage 1, a choice of k, then a plain run at that k:
        every field — stage split included — equals ``HistSim`` at the
        chosen k on a fresh sampler."""
        make_sampler, config, k_min, k_max = getattr(self, world)()
        ranged = run_histsim_range_k(make_sampler(), np.ones(6), config, k_min, k_max)
        plain = HistSim(make_sampler(), np.ones(6), config.with_(k=ranged.k)).run()
        assert ranged.matching == plain.matching
        assert ranged.pruned == plain.pruned
        assert ranged.exact == plain.exact
        assert ranged.stats == plain.stats
        assert ranged.rounds == plain.rounds
        np.testing.assert_array_equal(ranged.histograms, plain.histograms)
        np.testing.assert_array_equal(ranged.distances, plain.distances)

    def test_run_pinned_with_pruned_candidates(self):
        """One run with a fifth of the candidates pruned, pinned to the
        answer from before τ was computed over the alive rows only and the
        result assembled by the shared ``HistSim`` code.  The stage split
        is the stepper's, as on every other entry point."""
        make_sampler, config, k_min, k_max = self.pruned_world()
        result = run_histsim_range_k(make_sampler(), np.ones(6), config, k_min, k_max)

        assert result.matching == (2, 1, 0, 3)
        assert result.pruned == (4, 9, 14, 19, 24, 29)
        assert result.stats == StageStats(
            stage1_samples=12009, stage2_samples=16384, stage3_samples=0,
            pruned_candidates=6, surviving_candidates=24, rounds=1,
        )
        assert [trace.matching for trace in result.rounds] == [(2, 3, 1, 0)]
        assert not result.exact
        assert result.histograms.tolist() == [
            [194, 191, 196, 192, 213, 180],
            [200, 197, 192, 226, 199, 201],
            [199, 182, 224, 208, 192, 195],
            [196, 228, 186, 198, 183, 180],
        ]
        assert result.distances.tolist() == pytest.approx(
            [0.03487707261292161, 0.03868312757201642,
             0.053333333333333316, 0.06233988044406491],
            rel=1e-12,
        )


class TestDualEpsilon:
    def test_tighter_reconstruction_takes_more_samples(self):
        rng = np.random.default_rng(14)
        dists = [np.full(6, 1.0 / 6)] * 8
        z, x = make_population(rng, [40_000] * 8, dists)
        config = HistSimConfig(k=2, epsilon=0.3, delta=0.05, sigma=0.0, stage1_samples=4000)

        loose = run_histsim_dual_epsilon(
            ArraySampler(z, x, 8, 6, np.random.default_rng(1)),
            np.ones(6), config, epsilon_separation=0.3, epsilon_reconstruction=0.3,
        )
        tight = run_histsim_dual_epsilon(
            ArraySampler(z, x, 8, 6, np.random.default_rng(1)),
            np.ones(6), config, epsilon_separation=0.3, epsilon_reconstruction=0.1,
        )
        assert tight.stats.total_samples > loose.stats.total_samples

    def test_reconstruction_honors_eps2(self):
        rng = np.random.default_rng(15)
        dists = [np.full(4, 0.25)] * 5
        z, x = make_population(rng, [50_000] * 5, dists)
        truth = np.zeros((5, 4), dtype=np.int64)
        np.add.at(truth, (z, x), 1)
        config = HistSimConfig(k=2, epsilon=0.4, delta=0.05, sigma=0.0, stage1_samples=4000)
        result = run_histsim_dual_epsilon(
            ArraySampler(z, x, 5, 4, np.random.default_rng(2)),
            np.ones(4), config, epsilon_separation=0.4, epsilon_reconstruction=0.05,
        )
        audit = audit_result(result, truth, np.ones(4), epsilon=0.05, sigma=0.0)
        assert audit.reconstruction_ok

    def test_validation(self):
        rng = np.random.default_rng(0)
        z, x = make_population(rng, [100], [np.array([1.0])])
        sampler = ArraySampler(z, x, 1, 1, rng)
        config = HistSimConfig(k=1, epsilon=0.2, delta=0.05)
        with pytest.raises(ValueError):
            run_histsim_dual_epsilon(sampler, np.ones(1), config, 0.2, 0.0)


class TestL2Metric:
    def test_bound_inversion_roundtrip(self):
        for eps in (0.05, 0.1, 0.3):
            n = l2_samples_for_deviation(eps, 0.01)
            assert l2_epsilon_given_samples(n, 0.01) <= eps * (1 + 1e-9)

    def test_support_independence(self):
        """The L2 sample bound has no |V_X| factor (unlike L1)."""
        assert l2_samples_for_deviation(0.1, 0.01) == l2_samples_for_deviation(0.1, 0.01)
        # and is far below the L1 requirement at large support:
        from repro.core.deviation import samples_for_deviation

        assert l2_samples_for_deviation(0.1, 0.01) < samples_for_deviation(0.1, 0.01, 351)

    def test_l2_deviation_bound_monte_carlo(self):
        rng = np.random.default_rng(16)
        p = np.array([0.4, 0.3, 0.2, 0.1])
        n = 500
        violations = 0
        eps = l2_epsilon_given_samples(n, 0.05)
        for _ in range(200):
            sample = rng.multinomial(n, p) / n
            if np.sqrt(np.square(sample - p).sum()) >= eps:
                violations += 1
        assert violations / 200 <= 0.05 + 0.03

    def test_l2_top_k_finds_closest(self):
        rng = np.random.default_rng(17)
        dists = []
        for i in range(10):
            base = np.full(6, 1.0 / 6)
            if i >= 2:
                base[i % 6] += 0.7
                base /= base.sum()
            dists.append(base)
        z, x = make_population(rng, [30_000] * 10, dists)
        sampler = ArraySampler(z, x, 10, 6, np.random.default_rng(18))
        config = HistSimConfig(k=2, epsilon=0.2, delta=0.05, sigma=0.0)
        result = l2_top_k(sampler, np.ones(6), config)
        assert set(result.matching) == {0, 1}
        # Reported distances are L2, hence no larger than L1 equivalents.
        truth = np.zeros((10, 6), dtype=np.int64)
        np.add.at(truth, (z, x), 1)
        for pos, cand in enumerate(result.matching):
            l2_est = result.distances[pos]
            assert l2_est <= l1_distance(truth[cand], np.ones(6)) + 0.2
