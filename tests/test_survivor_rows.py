"""HistSim on survivor-sized count matrices.

Once stage 1 prunes, :class:`~repro.core.state.CandidateState` keeps the
survivors' rows only.  These tests run every variant twice — as is, and
with the narrowing patched to a no-op so the state keeps every row, as it
did before — and require the same public outputs after every step.
"""

import numpy as np
import pytest

from repro.core import ArraySampler, HistSim, HistSimConfig, HistSimStepper, histsim
from repro.core.state import CandidateState
from repro.extensions.dual_epsilon import DualEpsilonHistSim
from repro.extensions.range_k import _RangeKHistSim

GROUPS = 6
LARGE, SMALL = 12, 288


@pytest.fixture(scope="module")
def population():
    """12 large candidates — three near a uniform target, nine far from
    it — and 288 small ones that stage 1 prunes."""
    rng = np.random.default_rng(2024)
    z_parts, x_parts = [], []
    for i in range(LARGE + SMALL):
        size = 20_000 if i < LARGE else 100
        dist = np.full(GROUPS, 1.0)
        dist[i % GROUPS] += 0.05 * i if i < 3 else 1.5 + 0.1 * (i % LARGE)
        z_parts.append(np.full(size, i, dtype=np.int64))
        x_parts.append(rng.choice(GROUPS, size=size, p=dist / dist.sum()))
    return np.concatenate(z_parts), np.concatenate(x_parts)


CONFIG = HistSimConfig(
    k=3, epsilon=0.15, delta=0.05, sigma=0.005, stage1_samples=4_000
)

VARIANTS = {
    "plain": lambda sampler, target: HistSim(sampler, target, CONFIG),
    "range_k": lambda sampler, target: _RangeKHistSim(sampler, target, CONFIG, 2, 5),
    "dual_epsilon": lambda sampler, target: DualEpsilonHistSim(
        sampler, target, CONFIG, epsilon_reconstruction=0.1
    ),
}


def assert_same_result(a, b):
    assert a.matching == b.matching
    assert a.histograms.tobytes() == b.histograms.tobytes()
    assert a.distances.tobytes() == b.distances.tobytes()
    assert a.pruned == b.pruned
    assert a.exact == b.exact
    assert a.stats == b.stats
    assert a.rounds == b.rounds


def trace(population, variant, max_step_rows):
    """Every step's public outputs, then the result and the final state."""
    z, x = population
    sampler = ArraySampler(
        z, x, LARGE + SMALL, GROUPS, np.random.default_rng(9), batch_size=193
    )
    algo = VARIANTS[variant](sampler, np.ones(GROUPS))
    stepper = HistSimStepper(algorithm=algo, max_step_rows=max_step_rows)
    seen = []
    while True:
        seen.append(
            (
                stepper.stage_name,
                stepper.partial_result(),
                stepper.estimated_remaining_rows(),
                stepper.achieved_epsilon(),
            )
        )
        if stepper.done:
            return seen, stepper.result, algo
        stepper.step()


@pytest.mark.parametrize("max_step_rows", [None, 700])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_survivor_rows_match_the_full_matrix(population, variant, max_step_rows, monkeypatch):
    monkeypatch.setattr(histsim, "MIN_ROUND_SAMPLES", 64)
    narrowed, narrowed_result, algo = trace(population, variant, max_step_rows)
    with monkeypatch.context() as patch:
        patch.setattr(CandidateState, "keep_only", lambda self, survivors: None)
        full, full_result, full_algo = trace(population, variant, max_step_rows)

    # Stage 1 pruned most candidates, and only the narrowed run dropped rows.
    assert 0 < algo.alive.sum() < algo.alive.size // 4
    assert algo.state.counts.shape == (algo.alive.sum(), GROUPS)
    assert full_algo.state.counts.shape == (LARGE + SMALL, GROUPS)
    stages = [stage for stage, *_ in narrowed]
    assert {"stage1", "stage2", "stage3", "done"} <= set(stages)
    if max_step_rows is not None:
        assert stages.count("stage2") > 1  # rounds sliced, counts in flight

    assert len(narrowed) == len(full)
    for (stage, partial, remaining, eps), (stage_f, partial_f, remaining_f, eps_f) in zip(
        narrowed, full
    ):
        assert stage == stage_f
        assert_same_result(partial, partial_f)
        assert remaining == remaining_f
        assert eps == eps_f
    assert_same_result(narrowed_result, full_result)
    np.testing.assert_array_equal(algo.state.samples, full_algo.state.samples)
    survivors = np.flatnonzero(algo.alive)
    np.testing.assert_array_equal(
        algo.state.counts, full_algo.state.counts[survivors]
    )
