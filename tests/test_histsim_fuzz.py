"""Property-based fuzzing of HistSim on random small populations.

Whatever the population looks like, a finished run must produce
structurally valid output, and — because these populations are small
enough that runs frequently go exact — the guarantees must hold whenever
audited.  This complements the targeted statistical tests in
test_histsim.py with breadth.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ArraySampler,
    CandidateState,
    HistSimConfig,
    audit_result,
    histsim,
    run_histsim,
    uniform_target,
)


def small_rounds():
    """A stage-2 round floor of 32 rows instead of ``MIN_ROUND_SAMPLES``, so
    that populations this small run rounds rather than one that reads them
    whole."""
    return mock.patch.object(histsim, "MIN_ROUND_SAMPLES", 32)


@st.composite
def populations(draw):
    num_candidates = draw(st.integers(min_value=1, max_value=12))
    num_groups = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rows = draw(st.integers(min_value=num_candidates, max_value=4000))
    k = draw(st.integers(min_value=1, max_value=num_candidates))
    rng = np.random.default_rng(seed)
    z = rng.integers(0, num_candidates, size=rows)
    x = rng.integers(0, num_groups, size=rows)
    return z, x, num_candidates, num_groups, k, seed


@given(populations())
@settings(max_examples=60, deadline=None)
def test_histsim_structural_invariants(population):
    z, x, num_candidates, num_groups, k, seed = population
    rng = np.random.default_rng(seed + 1)
    sampler = ArraySampler(z, x, num_candidates, num_groups, rng, batch_size=257)
    config = HistSimConfig(k=k, epsilon=0.3, delta=0.1, sigma=0.0, stage1_samples=200)
    target = uniform_target(num_groups)
    with small_rounds():
        result = run_histsim(sampler, target, config)

    # Output structure.
    assert len(result.matching) == len(set(result.matching))
    assert len(result.matching) <= k
    assert result.histograms.shape == (len(result.matching), num_groups)
    assert np.all(np.diff(result.distances) >= -1e-12)
    assert np.all((result.distances >= 0) & (result.distances <= 2.0 + 1e-12))

    # Sampling accounting: never deliver more rows than exist.
    assert result.stats.total_samples <= z.size

    # Matching and pruned sets are disjoint; all indices valid.
    assert not (set(result.matching) & set(result.pruned))
    assert all(0 <= c < num_candidates for c in result.matching)

    # Guarantees against ground truth (sigma=0: every candidate eligible).
    exact = np.zeros((num_candidates, num_groups), dtype=np.int64)
    np.add.at(exact, (z, x), 1)
    if result.exact:
        audit = audit_result(result, exact, target, config.epsilon, config.sigma)
        assert audit.reconstruction_ok  # exact runs reconstruct perfectly


@given(populations())
@settings(max_examples=30, deadline=None)
def test_histsim_deterministic_given_seed(population):
    z, x, num_candidates, num_groups, k, seed = population
    config = HistSimConfig(k=k, epsilon=0.3, delta=0.1, sigma=0.0, stage1_samples=200)
    target = uniform_target(num_groups)

    def one_run():
        sampler = ArraySampler(
            z, x, num_candidates, num_groups, np.random.default_rng(seed), batch_size=97
        )
        with small_rounds():
            return run_histsim(sampler, target, config)

    a, b = one_run(), one_run()
    assert a.matching == b.matching
    np.testing.assert_array_equal(a.histograms, b.histograms)
    assert a.stats.total_samples == b.stats.total_samples


@st.composite
def skewed_populations(draw):
    """A few large candidates among many small ones, and a σ that makes
    stage 1 prune some of the small ones."""
    num_candidates = draw(st.integers(min_value=2, max_value=40))
    num_groups = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    sizes = np.where(
        rng.random(num_candidates) < 0.3,
        rng.integers(200, 1_500, size=num_candidates),
        rng.integers(1, 40, size=num_candidates),
    )
    z = rng.permutation(np.repeat(np.arange(num_candidates), sizes))
    x = rng.integers(0, num_groups, size=z.size)
    k = draw(st.integers(min_value=1, max_value=num_candidates))
    sigma = draw(st.sampled_from([0.02, 0.05, 0.1]))
    return z, x, num_candidates, num_groups, k, sigma, seed


@given(skewed_populations())
@settings(max_examples=60, deadline=None)
def test_pruning_runs_match_full_matrix_runs(population):
    """At σ > 0 stage 1 prunes and the state keeps the survivors' rows
    only; the result is the one a state keeping every row gives."""
    z, x, num_candidates, num_groups, k, sigma, seed = population
    config = HistSimConfig(
        k=k, epsilon=0.3, delta=0.1, sigma=sigma, stage1_samples=2_000,
        stage1_max_fraction=0.5
    )
    target = uniform_target(num_groups)

    def one_run():
        sampler = ArraySampler(
            z, x, num_candidates, num_groups, np.random.default_rng(seed), batch_size=97
        )
        with small_rounds():
            return run_histsim(sampler, target, config)

    narrowed = one_run()
    with mock.patch.object(CandidateState, "keep_only", lambda self, survivors: None):
        full = one_run()
    assert narrowed.matching == full.matching
    assert narrowed.histograms.tobytes() == full.histograms.tobytes()
    assert narrowed.distances.tobytes() == full.distances.tobytes()
    assert (narrowed.pruned, narrowed.exact, narrowed.stats, narrowed.rounds) == (
        full.pruned, full.exact, full.stats, full.rounds
    )
    assert not (set(narrowed.matching) & set(narrowed.pruned))
    assert len(narrowed.matching) <= k
    assert narrowed.histograms.shape == (len(narrowed.matching), num_groups)
