"""Tests for Holm–Bonferroni and the Lemma 4 simultaneous tester."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.multiple_testing import (
    bonferroni,
    holm_bonferroni,
    holm_count_threshold,
    simultaneous_rejection,
    simultaneous_rejection_log,
)

pvalue_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=0, max_value=64),
    elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


class TestHolmBonferroni:
    def test_textbook_example(self):
        """Classic Holm worked example: p = (0.01, 0.04, 0.03, 0.005) at α=0.05."""
        p = np.array([0.01, 0.04, 0.03, 0.005])
        rejected = holm_bonferroni(p, 0.05)
        # sorted: 0.005 <= 0.05/4, 0.01 <= 0.05/3, 0.03 > 0.05/2 -> stop.
        np.testing.assert_array_equal(rejected, [True, False, False, True])

    def test_step_down_stops_at_first_failure(self):
        # 0.001 <= alpha/3; 0.02 > alpha/2 stops; 0.003 (would pass alpha/1) must NOT reject.
        p = np.array([0.02, 0.001, 0.003])
        rejected = holm_bonferroni(p, 0.05)
        # sorted: 0.001 <= 0.0167 ok; 0.003 <= 0.025 ok; 0.02 <= 0.05 ok -> all reject!
        np.testing.assert_array_equal(rejected, [True, True, True])

    def test_step_down_blocks_later_passes(self):
        p = np.array([0.0001, 0.5, 0.04])
        rejected = holm_bonferroni(p, 0.05)
        # sorted: 0.0001 <= 0.05/3 ok; 0.04 > 0.05/2 stop; 0.5 blocked.
        np.testing.assert_array_equal(rejected, [True, False, False])

    def test_empty_family(self):
        assert holm_bonferroni(np.array([]), 0.05).size == 0

    def test_all_ones_reject_nothing(self):
        assert not holm_bonferroni(np.ones(10), 0.05).any()

    def test_all_zeros_reject_everything(self):
        assert holm_bonferroni(np.zeros(10), 0.05).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            holm_bonferroni(np.array([0.5]), 0.0)
        with pytest.raises(ValueError):
            holm_bonferroni(np.array([1.5]), 0.05)
        with pytest.raises(ValueError):
            holm_bonferroni(np.array([np.nan]), 0.05)

    @given(pvalue_arrays, st.floats(min_value=0.001, max_value=0.2))
    @settings(max_examples=120)
    def test_uniformly_more_powerful_than_bonferroni(self, p, alpha):
        """Every Bonferroni rejection is also a Holm rejection (Section 3.2)."""
        holm = holm_bonferroni(p, alpha)
        bonf = bonferroni(p, alpha)
        assert np.all(holm[bonf])

    @given(pvalue_arrays, st.floats(min_value=0.001, max_value=0.2))
    @settings(max_examples=120)
    def test_rejections_form_prefix_of_sorted_pvalues(self, p, alpha):
        rejected = holm_bonferroni(p, alpha)
        if rejected.any() and (~rejected).any():
            assert p[rejected].max() <= p[~rejected].min() + 1e-15

    def test_family_wise_error_monte_carlo(self):
        """Under the global null, FWER at α=0.1 should be ≤ ~0.1."""
        rng = np.random.default_rng(3)
        errors = 0
        trials = 500
        for _ in range(trials):
            p = rng.uniform(size=20)
            if holm_bonferroni(p, 0.1).any():
                errors += 1
        assert errors / trials <= 0.13


@st.composite
def counted_families(draw):
    """Integer counts and a non-decreasing P-value table over them, with
    ties in both (many counts share a value, many values share a P-value)."""
    size = draw(st.integers(min_value=1, max_value=12))
    steps = draw(hnp.arrays(np.float64, size, elements=st.sampled_from([0.0, 0.001, 0.01, 0.2])))
    table = np.minimum(np.cumsum(steps), 1.0)
    counts = draw(hnp.arrays(np.int64, st.integers(0, 40), elements=st.integers(0, size + 2)))
    return counts, table


class TestHolmCountThreshold:
    """Holm over P-values that are a non-decreasing function of a count is a
    cut on the count."""

    @given(counted_families(), st.floats(min_value=0.001, max_value=0.9))
    @settings(max_examples=300)
    def test_equals_sort_based_holm(self, family, alpha):
        counts, table = family
        cut = holm_count_threshold(counts, table, alpha)
        expected = holm_bonferroni(table[np.minimum(counts, table.size - 1)], alpha)
        np.testing.assert_array_equal(counts < cut, expected)

    def test_tie_group_fails_whole(self):
        # Positions 2..3 meet alpha/2 and alpha/1; a shared P-value of
        # 0.04 fails the first, so neither is rejected.
        table = np.array([0.001, 0.04, 1.0])
        counts = np.array([1, 0, 1])
        assert holm_count_threshold(counts, table, 0.05) == 1
        assert not holm_bonferroni(table[counts], 0.05)[[0, 2]].any()

    def test_all_and_none(self):
        assert holm_count_threshold(np.array([3, 7, 7]), np.zeros(4), 0.05) == 8
        assert holm_count_threshold(np.array([0, 1]), np.ones(2), 0.05) == 0
        assert holm_count_threshold(np.array([], dtype=np.int64), np.ones(2), 0.05) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            holm_count_threshold(np.array([0]), np.array([0.5, 0.1]), 0.05)
        with pytest.raises(ValueError):
            holm_count_threshold(np.array([0]), np.array([]), 0.05)
        with pytest.raises(ValueError):
            holm_count_threshold(np.array([0]), np.array([1.5]), 0.05)
        with pytest.raises(ValueError):
            holm_count_threshold(np.array([0]), np.array([0.5]), 1.0)


class TestSimultaneousRejection:
    def test_rejects_iff_max_below_threshold(self):
        assert simultaneous_rejection(np.array([0.001, 0.002]), 0.01)
        assert not simultaneous_rejection(np.array([0.001, 0.02]), 0.01)

    def test_empty_family_rejects_vacuously(self):
        assert simultaneous_rejection(np.array([]), 0.01)

    def test_log_variant_matches(self):
        p = np.array([1e-5, 1e-8, 1e-3])
        assert simultaneous_rejection(p, 0.01) == simultaneous_rejection_log(
            np.log(p), 0.01
        )
        p2 = np.array([1e-5, 0.5])
        assert simultaneous_rejection(p2, 0.01) == simultaneous_rejection_log(
            np.log(p2), 0.01
        )

    def test_log_variant_handles_neg_inf(self):
        assert simultaneous_rejection_log(np.array([-np.inf, np.log(1e-9)]), 0.01)

    def test_log_variant_rejects_positive_logp(self):
        with pytest.raises(ValueError):
            simultaneous_rejection_log(np.array([0.5]), 0.01)

    @given(pvalue_arrays.filter(lambda p: p.size > 0))
    @settings(max_examples=60)
    def test_all_or_nothing_semantics(self, p):
        """Rejecting implies every p-value individually cleared the bar."""
        if simultaneous_rejection(p, 0.05):
            assert np.all(p <= 0.05)
