"""Tests for TargetSpec resolution, HistSimConfig validation, and result types."""

import numpy as np
import pytest

from repro.core.config import DEFAULT_CONFIG, HistSimConfig
from repro.core.result import MatchResult, StageStats
from repro.core.target import TargetSpec, resolve_target, uniform_target


class TestUniformTarget:
    def test_values(self):
        np.testing.assert_allclose(uniform_target(4), [0.25] * 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_target(0)


class TestTargetSpec:
    def setup_method(self):
        self.exact = np.array(
            [
                [10.0, 10.0, 10.0, 10.0],  # exactly uniform
                [40.0, 0.0, 0.0, 0.0],
                [5.0, 5.0, 5.0, 6.0],  # near uniform
                [0.0, 0.0, 0.0, 0.0],  # empty candidate
            ]
        )

    def test_explicit(self):
        spec = TargetSpec(kind="explicit", vector=(0.25, 0.125, 0.5, 0.125))
        np.testing.assert_allclose(
            resolve_target(spec, self.exact), [0.25, 0.125, 0.5, 0.125]
        )

    def test_explicit_wrong_length(self):
        spec = TargetSpec(kind="explicit", vector=(0.5, 0.5))
        with pytest.raises(ValueError):
            resolve_target(spec, self.exact)

    def test_candidate(self):
        spec = TargetSpec(kind="candidate", candidate=1)
        np.testing.assert_allclose(resolve_target(spec, self.exact), [40, 0, 0, 0])

    def test_candidate_out_of_range(self):
        with pytest.raises(ValueError):
            resolve_target(TargetSpec(kind="candidate", candidate=9), self.exact)

    def test_empty_candidate_rejected(self):
        with pytest.raises(ValueError):
            resolve_target(TargetSpec(kind="candidate", candidate=3), self.exact)

    def test_closest_to_uniform_picks_exact_uniform(self):
        spec = TargetSpec(kind="closest_to_uniform")
        np.testing.assert_allclose(resolve_target(spec, self.exact), self.exact[0])

    def test_closest_to_uniform_ignores_empty(self):
        exact = np.array([[0.0, 0.0], [10.0, 0.0]])
        spec = TargetSpec(kind="closest_to_uniform")
        np.testing.assert_allclose(resolve_target(spec, exact), [10.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_explicit_non_finite_entry_rejected_by_spec(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TargetSpec(kind="explicit", vector=(bad, 0.25, 0.25, 0.25))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_explicit_non_finite_entry_rejected_by_resolve(self, bad):
        """A spec whose vector went non-finite after construction."""
        spec = TargetSpec(kind="explicit", vector=(0.25, 0.25, 0.25, 0.25))
        object.__setattr__(spec, "vector", (0.25, bad, 0.25, 0.25))
        with pytest.raises(ValueError, match="finite"):
            resolve_target(spec, self.exact)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TargetSpec(kind="nonsense")
        with pytest.raises(ValueError):
            TargetSpec(kind="explicit")
        with pytest.raises(ValueError):
            TargetSpec(kind="candidate")


class TestHistSimConfig:
    def test_defaults_match_paper(self):
        assert DEFAULT_CONFIG.epsilon == 0.04
        assert DEFAULT_CONFIG.delta == 0.01
        assert DEFAULT_CONFIG.sigma == 0.0008
        assert DEFAULT_CONFIG.stage1_samples == 500_000
        assert DEFAULT_CONFIG.lookahead == 1024
        assert DEFAULT_CONFIG.k == 10

    def test_stage_delta_is_a_third(self):
        assert HistSimConfig(delta=0.03).stage_delta == pytest.approx(0.01)

    def test_effective_stage1_samples_caps_at_fraction(self):
        cfg = HistSimConfig(stage1_samples=500_000, stage1_max_fraction=0.1)
        assert cfg.effective_stage1_samples(1_000_000) == 100_000
        assert cfg.effective_stage1_samples(100_000_000) == 500_000
        assert cfg.effective_stage1_samples(10) == 1

    def test_with_functional_update(self):
        cfg = DEFAULT_CONFIG.with_(epsilon=0.08)
        assert cfg.epsilon == 0.08
        assert DEFAULT_CONFIG.epsilon == 0.04

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"epsilon": 0.0},
            {"epsilon": 2.5},
            {"delta": 0.0},
            {"delta": 1.0},
            {"sigma": -0.1},
            {"sigma": 1.5},
            {"stage1_samples": 0},
            {"stage1_max_fraction": 0.0},
            {"lookahead": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            HistSimConfig(**kwargs)


class TestResultTypes:
    def test_stage_stats_total(self):
        stats = StageStats(stage1_samples=10, stage2_samples=20, stage3_samples=5)
        assert stats.total_samples == 35

    def test_histogram_for(self):
        result = MatchResult(
            matching=(3, 7),
            histograms=np.array([[1, 2], [3, 4]]),
            distances=np.array([0.1, 0.2]),
            pruned=(),
            exact=False,
            stats=StageStats(),
        )
        np.testing.assert_array_equal(result.histogram_for(7), [3, 4])
        assert result.k == 2
        with pytest.raises(KeyError):
            result.histogram_for(5)
