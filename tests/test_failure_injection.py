"""Failure injection and adversarial edge cases across the stack."""

import numpy as np
import pytest

from repro.bitmap import BlockBitmapIndex, build_density_map
from repro.core import ArraySampler, HistSim, HistSimConfig, histsim, run_histsim
from repro.sampling import BlockSamplingEngine, DensityAnyActivePolicy, ScanAllPolicy
from repro.sampling.policies import PolicyDecision
from repro.storage import (
    CategoricalAttribute,
    ColumnTable,
    CostModel,
    Schema,
    shuffle_table,
)
from repro.system import SimulatedClock


def small_world(n=4000, candidates=6, groups=3, seed=0, block_size=32):
    rng = np.random.default_rng(seed)
    schema = Schema(
        (
            CategoricalAttribute("z", tuple(f"z{i}" for i in range(candidates))),
            CategoricalAttribute("x", tuple(f"x{i}" for i in range(groups))),
        )
    )
    table = ColumnTable(
        schema,
        {"z": rng.integers(0, candidates, size=n), "x": rng.integers(0, groups, size=n)},
    )
    shuffled = shuffle_table(table, block_size, rng)
    index = BlockBitmapIndex.build(shuffled.table.column("z"), candidates, block_size)
    return shuffled, index


class RefusesToReadPolicy:
    """Adversarial policy: claims nothing is worth reading."""

    name = "refuses"
    overlaps_io = True

    def select(self, index, blocks, active_values, cost_model, resident):
        return PolicyDecision(
            read_mask=np.zeros(blocks.size, dtype=bool),
            mark_cost_ns=0.0,
            overlaps_io=True,
            probes=0,
        )


class TestEngineFailureModes:
    def test_refusing_policy_trips_window_budget(self):
        """A policy that never reads must raise, not loop forever."""
        shuffled, index = small_world()
        engine = BlockSamplingEngine(
            shuffled, "z", "x", index, CostModel(), SimulatedClock(),
            policy=RefusesToReadPolicy(), rng=np.random.default_rng(1),
            window_blocks=16,
        )
        with pytest.raises(RuntimeError, match="window budget"):
            engine.sample_until(np.full(6, 50.0))

    def test_histsim_survives_degenerate_single_candidate(self):
        rng = np.random.default_rng(2)
        z = np.zeros(5000, dtype=np.int64)
        x = rng.integers(0, 4, size=5000)
        sampler = ArraySampler(z, x, 1, 4, rng)
        config = HistSimConfig(k=1, epsilon=0.2, delta=0.05, sigma=0.0)
        result = run_histsim(sampler, np.ones(4), config)
        assert result.matching == (0,)

    def test_histsim_single_group_support(self):
        """|V_X| = 1: every distance is zero; output must still be valid."""
        rng = np.random.default_rng(3)
        z = rng.integers(0, 5, size=5000)
        x = np.zeros(5000, dtype=np.int64)
        sampler = ArraySampler(z, x, 5, 1, rng)
        config = HistSimConfig(k=2, epsilon=0.2, delta=0.05, sigma=0.0)
        result = run_histsim(sampler, np.ones(1), config)
        assert len(result.matching) == 2
        np.testing.assert_allclose(result.distances, 0.0)

    def test_histsim_rejects_bad_targets(self):
        rng = np.random.default_rng(4)
        sampler = ArraySampler(
            rng.integers(0, 3, size=100), rng.integers(0, 2, size=100), 3, 2, rng
        )
        config = HistSimConfig(k=1, epsilon=0.2, delta=0.05)
        with pytest.raises(ValueError):
            HistSim(sampler, np.zeros(2), config)  # zero mass
        with pytest.raises(ValueError):
            HistSim(sampler, np.array([1.0, -1.0]), config)  # negative
        with pytest.raises(ValueError):
            HistSim(sampler, np.ones(3), config)  # wrong support

    def test_k_larger_than_candidate_count(self):
        rng = np.random.default_rng(5)
        sampler = ArraySampler(
            rng.integers(0, 3, size=3000), rng.integers(0, 2, size=3000), 3, 2, rng
        )
        config = HistSimConfig(k=10, epsilon=0.2, delta=0.05, sigma=0.0)
        result = run_histsim(sampler, np.ones(2), config)
        assert len(result.matching) == 3

    def test_empty_candidate_never_matches(self):
        """A candidate with zero rows must not be returned ahead of real ones."""
        rng = np.random.default_rng(6)
        z = rng.integers(1, 4, size=4000)  # candidate 0 absent entirely
        x = rng.integers(0, 3, size=4000)
        sampler = ArraySampler(z, x, 4, 3, rng)
        config = HistSimConfig(k=3, epsilon=0.2, delta=0.05, sigma=0.0)
        result = run_histsim(sampler, np.ones(3), config)
        assert 0 not in result.matching

    def test_max_rounds_fallback_is_exact(self, monkeypatch):
        """Forcing stage 2 to exhaust its round budget falls back to a scan."""
        monkeypatch.setattr(histsim, "MAX_ROUNDS", 2)
        monkeypatch.setattr(histsim, "MIN_ROUND_SAMPLES", 64)
        rng = np.random.default_rng(7)
        # Two candidates with identical distributions: impossible to separate.
        z = rng.integers(0, 4, size=20_000)
        x = rng.integers(0, 4, size=20_000)
        sampler = ArraySampler(z, x, 4, 4, rng)
        config = HistSimConfig(k=2, epsilon=0.01, delta=0.01, sigma=0.0)
        result = run_histsim(sampler, np.ones(4), config)
        assert result.exact  # fell back to the always-correct full scan
        assert len(result.matching) == 2

    def test_exhaust_fallback_counts_the_rows_it_reads(self):
        """The ``MAX_ROUNDS`` safety valve scans what is left *into the
        state*: its "exact" top-k must rest on every row, not on the rows
        seen before it."""
        rng = np.random.default_rng(8)
        z = rng.integers(0, 4, size=20_000)
        x = rng.integers(0, 3, size=20_000)
        sampler = ArraySampler(z, x, 4, 3, rng)
        config = HistSimConfig(k=2, epsilon=0.3, delta=0.05, sigma=0.0,
                               stage1_samples=500)
        algo = HistSim(sampler, np.ones(3), config)
        algo.run_stage1()
        algo.exhaust_stage2()
        assert sampler.fully_scanned
        expected = np.zeros((4, 3), dtype=np.int64)
        np.add.at(expected, (z, x), 1)
        np.testing.assert_array_equal(algo.state.counts, expected)


class TestDensityAnyActivePolicy:
    def test_selects_blocks_with_matching_predicate_tuples(self):
        shuffled, index = small_world(n=2000, candidates=6, block_size=16)
        density = build_density_map(shuffled, "z")
        # Candidate 0 accepts z in {1, 2}; candidate 1 accepts z = 5.
        masks = np.zeros((2, 6), dtype=bool)
        masks[0, [1, 2]] = True
        masks[1, 5] = True
        policy = DensityAnyActivePolicy(masks, density)
        blocks = np.arange(shuffled.num_blocks)
        decision = policy.select(
            index, blocks, np.array([0]), CostModel(), resident=True
        )
        col = shuffled.table.column("z")
        for b in blocks:
            chunk = col[b * 16 : (b + 1) * 16]
            assert decision.read_mask[b] == bool(np.isin(chunk, [1, 2]).any())

    def test_union_over_active_candidates(self):
        shuffled, index = small_world(n=2000, candidates=6, block_size=16)
        density = build_density_map(shuffled, "z")
        masks = np.zeros((2, 6), dtype=bool)
        masks[0, 1] = True
        masks[1, 5] = True
        policy = DensityAnyActivePolicy(masks, density)
        blocks = np.arange(shuffled.num_blocks)
        both = policy.select(index, blocks, np.array([0, 1]), CostModel(), True)
        only0 = policy.select(index, blocks, np.array([0]), CostModel(), True)
        assert both.read_mask.sum() >= only0.read_mask.sum()

    def test_no_active_reads_nothing(self):
        shuffled, index = small_world(n=500, block_size=16)
        density = build_density_map(shuffled, "z")
        policy = DensityAnyActivePolicy(np.zeros((1, 6), dtype=bool), density)
        decision = policy.select(
            index, np.arange(5), np.array([], dtype=int), CostModel(), True
        )
        assert not decision.read_mask.any()

    def test_out_of_range_candidate_rejected(self):
        shuffled, index = small_world(n=500, block_size=16)
        density = build_density_map(shuffled, "z")
        policy = DensityAnyActivePolicy(np.zeros((1, 6), dtype=bool), density)
        with pytest.raises(ValueError):
            policy.select(index, np.arange(5), np.array([3]), CostModel(), True)


class TestStateCorruptionGuards:
    def test_engine_rejects_misshapen_filter(self):
        shuffled, index = small_world()
        with pytest.raises(ValueError):
            BlockSamplingEngine(
                shuffled, "z", "x", index, CostModel(), SimulatedClock(),
                policy=ScanAllPolicy(), rng=np.random.default_rng(0),
                row_filter=np.ones(10, dtype=bool),
            )

    def test_engine_rejects_bad_start_block(self):
        shuffled, index = small_world()
        with pytest.raises(ValueError):
            BlockSamplingEngine(
                shuffled, "z", "x", index, CostModel(), SimulatedClock(),
                policy=ScanAllPolicy(), rng=np.random.default_rng(0),
                start_block=10_000,
            )

    def test_engine_rejects_bad_window(self):
        shuffled, index = small_world()
        with pytest.raises(ValueError):
            BlockSamplingEngine(
                shuffled, "z", "x", index, CostModel(), SimulatedClock(),
                policy=ScanAllPolicy(), rng=np.random.default_rng(0),
                window_blocks=0,
            )

    def test_negative_uniform_request_rejected(self):
        shuffled, index = small_world()
        engine = BlockSamplingEngine(
            shuffled, "z", "x", index, CostModel(), SimulatedClock(),
            policy=ScanAllPolicy(), rng=np.random.default_rng(0),
        )
        with pytest.raises(ValueError):
            engine.sample_uniform(-1)
