"""Unit and property tests for repro.core.distance (paper Definition 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.distance import (
    candidate_distances,
    kl_divergence,
    l1_distance,
    l2_distance,
    normalize,
    row_distances,
    subset_distances,
    total_variation,
)

histograms = hnp.arrays(
    dtype=np.float64,
    shape=st.shared(st.integers(min_value=1, max_value=24), key="support"),
    elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


def nonzero(h):
    return h.sum() > 0


class TestNormalize:
    def test_sums_to_one(self):
        out = normalize(np.array([2.0, 3.0, 5.0]))
        assert out.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(out, [0.2, 0.3, 0.5])

    def test_zero_vector_stays_zero(self):
        np.testing.assert_array_equal(normalize(np.zeros(4)), np.zeros(4))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            normalize(np.array([1.0, -1.0]))

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            normalize(np.float64(3.0))

    def test_matrix_rows_normalized_independently(self):
        m = np.array([[1.0, 1.0], [3.0, 1.0], [0.0, 0.0]])
        out = normalize(m)
        np.testing.assert_allclose(out[0], [0.5, 0.5])
        np.testing.assert_allclose(out[1], [0.75, 0.25])
        np.testing.assert_allclose(out[2], [0.0, 0.0])


class TestL1Distance:
    def test_identical_histograms_distance_zero(self):
        h = np.array([5.0, 2.0, 3.0])
        assert l1_distance(h, h) == pytest.approx(0.0)

    def test_scaling_invariance(self):
        """Figure 3's point: scaled copies are identical post-normalization."""
        h = np.array([5.0, 2.0, 3.0])
        assert l1_distance(h, 1000 * h) == pytest.approx(0.0)

    def test_disjoint_support_is_two(self):
        assert l1_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(2.0)

    def test_known_value(self):
        assert l1_distance(np.array([1.0, 1.0]), np.array([1.0, 3.0])) == pytest.approx(0.5)

    def test_mismatched_support_raises(self):
        with pytest.raises(ValueError):
            l1_distance(np.ones(3), np.ones(4))

    @given(histograms.filter(nonzero), histograms.filter(nonzero))
    @settings(max_examples=80)
    def test_symmetry(self, a, b):
        assert l1_distance(a, b) == pytest.approx(l1_distance(b, a))

    @given(histograms.filter(nonzero), histograms.filter(nonzero))
    @settings(max_examples=80)
    def test_range(self, a, b):
        d = l1_distance(a, b)
        assert 0.0 <= d <= 2.0 + 1e-12

    @given(
        histograms.filter(nonzero), histograms.filter(nonzero), histograms.filter(nonzero)
    )
    @settings(max_examples=80)
    def test_triangle_inequality(self, a, b, c):
        assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-9

    @given(histograms.filter(nonzero), histograms.filter(nonzero))
    @settings(max_examples=80)
    def test_l1_dominates_l2(self, a, b):
        assert l2_distance(a, b) <= l1_distance(a, b) + 1e-9


class TestOtherMetrics:
    def test_total_variation_is_half_l1(self):
        a, b = np.array([1.0, 3.0]), np.array([2.0, 2.0])
        assert total_variation(a, b) == pytest.approx(0.5 * l1_distance(a, b))

    def test_l2_known_value(self):
        d = l2_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert d == pytest.approx(np.sqrt(2.0))

    def test_kl_infinite_on_support_mismatch(self):
        """Section 2.1's objection to KL as a matching metric."""
        assert kl_divergence(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == np.inf

    def test_kl_zero_for_identical(self):
        h = np.array([2.0, 5.0, 3.0])
        assert kl_divergence(h, h) == pytest.approx(0.0)

    def test_kl_known_value(self):
        p, q = np.array([1.0, 1.0]), np.array([1.0, 3.0])
        expected = 0.5 * np.log(0.5 / 0.25) + 0.5 * np.log(0.5 / 0.75)
        assert kl_divergence(p, q) == pytest.approx(expected)

    def test_l2_insensitive_to_disjoint_spread(self):
        """Section 2.1: L2 can be small for disjoint-support distributions."""
        n = 100
        p = np.zeros(2 * n)
        q = np.zeros(2 * n)
        p[:n] = 1.0 / n
        q[n:] = 1.0 / n
        assert l1_distance(p, q) == pytest.approx(2.0)
        assert l2_distance(p, q) < 0.2


class TestCandidateDistances:
    def test_matches_scalar_function(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 50, size=(8, 5)).astype(float)
        counts[3] = 0  # empty candidate
        target = rng.integers(1, 50, size=5).astype(float)
        vec = candidate_distances(counts, target)
        for i in range(8):
            assert vec[i] == pytest.approx(l1_distance(counts[i], target))

    def test_empty_candidate_distance_is_one_for_proper_target(self):
        counts = np.zeros((1, 4))
        target = np.ones(4)
        assert candidate_distances(counts, target)[0] == pytest.approx(1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            candidate_distances(np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            candidate_distances(np.ones((2, 3)), np.ones(4))


count_matrices = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 9)),
    elements=st.integers(min_value=0, max_value=10**6),
)


class TestSubsetDistances:
    """The alive-row τ: same bits as the full pass on the listed rows."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), counts=count_matrices)
    def test_equals_full_pass_on_listed_rows(self, data, counts):
        num_candidates, num_groups = counts.shape
        alive = data.draw(
            st.one_of(
                st.just(np.ones(num_candidates, dtype=bool)),  # nothing pruned
                st.integers(0, num_candidates - 1).map(  # one survivor
                    lambda i: np.arange(num_candidates) == i
                ),
                hnp.arrays(dtype=bool, shape=num_candidates),
            ),
            label="alive",
        )
        empty = data.draw(hnp.arrays(dtype=bool, shape=num_candidates), label="empty")
        counts = np.where(empty[:, None], 0, counts)  # unsampled candidates
        fresh = data.draw(
            st.none() | hnp.arrays(
                dtype=np.int64, shape=counts.shape, elements=st.integers(0, 10**6)
            ),
            label="in_flight",
        )
        target = data.draw(
            hnp.arrays(
                dtype=np.float64,
                shape=num_groups,
                elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            ).filter(nonzero),
            label="target",
        )

        tau = subset_distances(counts, normalize(target), np.flatnonzero(alive), fresh)

        combined = counts if fresh is None else counts + fresh
        full = candidate_distances(combined, target)
        assert tau.shape == full.shape
        assert tau[alive].tobytes() == full[alive].tobytes()
        assert np.all(np.isinf(tau[~alive]))

    @pytest.mark.parametrize("num_groups", [2, 24, 351])
    def test_wide_supports_keep_the_bits(self, num_groups):
        # Past the widths hypothesis draws: NumPy sums long rows pairwise in
        # blocks, and a gathered row must still be summed as it was in place.
        rng = np.random.default_rng(num_groups)
        counts = rng.integers(0, 5000, size=(600, num_groups))
        counts[rng.random(600) < 0.1] = 0
        target = rng.random(num_groups)
        alive = rng.random(600) < 0.1
        tau = subset_distances(counts, normalize(target), np.flatnonzero(alive))
        full = candidate_distances(counts, target)
        assert tau[alive].tobytes() == full[alive].tobytes()

    def test_nothing_pruned_uses_the_matrix_as_is(self):
        counts = np.arange(12, dtype=np.int64).reshape(4, 3)
        target = np.array([1.0, 2.0, 3.0])
        tau = subset_distances(counts, normalize(target), np.arange(4))
        assert tau.tobytes() == candidate_distances(counts, target).tobytes()
        assert counts.tolist() == np.arange(12).reshape(4, 3).tolist()  # untouched

    def test_in_flight_counts_are_added_without_mutating_either(self):
        counts = np.array([[1, 2], [3, 4], [5, 6]], dtype=np.int64)
        fresh = np.array([[7, 0], [0, 0], [1, 1]], dtype=np.int64)
        before = counts.copy(), fresh.copy()
        q_bar = normalize(np.array([1.0, 3.0]))
        tau = subset_distances(counts, q_bar, np.array([0, 2]), fresh)
        assert tau[[0, 2]].tobytes() == row_distances((counts + fresh)[[0, 2]], q_bar).tobytes()
        assert np.isinf(tau[1])
        assert np.array_equal(counts, before[0]) and np.array_equal(fresh, before[1])


class TestRowDistances:
    """One float matrix, the bits of the five-pass expression."""

    @staticmethod
    def five_passes(counts, q_bar):
        return np.abs(normalize(counts) - q_bar[None, :]).sum(axis=1)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), counts=count_matrices)
    def test_row_distances_bits_equal_normalize_abs_sum(self, data, counts):
        empty = data.draw(hnp.arrays(dtype=bool, shape=counts.shape[0]), label="empty")
        counts = np.where(empty[:, None], 0, counts)  # zero rows
        target = data.draw(
            hnp.arrays(
                dtype=np.float64,
                shape=counts.shape[1],
                elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            ).filter(nonzero),
            label="target",
        )
        q_bar = normalize(target)
        got = row_distances(counts, q_bar)
        assert got.dtype == np.float64
        assert got.tobytes() == self.five_passes(counts, q_bar).tobytes()

    @staticmethod
    def integer_divisor(counts, q_bar):
        """Integer counts over integer totals, divided into float64."""
        total = counts.sum(axis=1, keepdims=True)
        out = np.true_divide(counts, np.where(total > 0, total, 1), dtype=np.float64)
        return np.abs(out - q_bar).sum(axis=1)

    @pytest.mark.parametrize(
        "shape",
        # The nine Table-3 queries' |V_Z| × |V_X|, and a short, wide one.
        [(347, 24), (347, 7), (347, 351), (7641, 24), (7641, 12), (210, 2),
         (210, 5), (2110, 2), (40, 351)],
    )
    def test_row_distances_bits_at_workload_shapes(self, shape):
        rng = np.random.default_rng(shape[0])
        counts = rng.integers(0, 5000, size=shape)
        counts[rng.random(shape[0]) < 0.2] = 0
        q_bar = normalize(rng.random(shape[1]))
        got = row_distances(counts, q_bar)
        assert got.tobytes() == self.five_passes(counts, q_bar).tobytes()
        # Totals converted to float64 once divide to the integer totals' bits.
        assert got.tobytes() == self.integer_divisor(counts, q_bar).tobytes()
        held = row_distances(counts, q_bar, counts.sum(axis=1))
        assert held.tobytes() == got.tobytes()

    @pytest.mark.parametrize(
        "convert",
        [
            lambda c: c.astype(np.float64) / 7.0,  # fractional totals below 1
            lambda c: c.astype(np.float32),
            lambda c: c.astype(np.uint16),
            lambda c: c > 2,
        ],
    )
    def test_row_distances_bits_for_other_dtypes(self, convert):
        rng = np.random.default_rng(5)
        counts = convert(rng.integers(0, 6, size=(30, 7)))
        q_bar = normalize(rng.random(7))
        got = row_distances(counts, q_bar)
        assert got.tobytes() == self.five_passes(counts, q_bar).tobytes()

    def test_row_distances_rejects_a_negative_count(self):
        counts = np.array([[1, 2, 3], [4, -1, 6]], dtype=np.int64)
        with pytest.raises(ValueError, match="non-negative"):
            row_distances(counts, normalize(np.ones(3)))
        with pytest.raises(ValueError, match="non-negative"):
            row_distances(counts.astype(np.float64), normalize(np.ones(3)))


class TestHeldTotals:
    """Row sums the caller holds divide as re-summed ones do, bit for bit."""

    @pytest.mark.parametrize("shape", [(347, 24), (347, 351), (7641, 24), (2110, 2)])
    def test_held_totals_keep_the_bits_at_workload_shapes(self, shape):
        rng = np.random.default_rng(shape[0] * shape[1])
        counts = rng.integers(0, 5000, size=shape)
        counts[rng.random(shape[0]) < 0.2] = 0
        fresh = rng.integers(0, 50, size=shape)
        q_bar = normalize(rng.random(shape[1]))
        totals = counts.sum(axis=1)
        got = row_distances(counts, q_bar, totals)
        assert got.tobytes() == row_distances(counts, q_bar).tobytes()
        for alive in (np.ones(shape[0], dtype=bool), rng.random(shape[0]) < 0.3):
            rows = np.flatnonzero(alive)
            for in_flight, held in ((None, totals), (fresh, totals + fresh.sum(axis=1))):
                got = subset_distances(counts, q_bar, rows, in_flight, held)
                want = subset_distances(counts, q_bar, rows, in_flight)
                assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), counts=count_matrices)
    def test_held_totals_keep_the_bits_with_zero_rows(self, data, counts):
        empty = data.draw(hnp.arrays(dtype=bool, shape=counts.shape[0]), label="empty")
        counts = np.where(empty[:, None], 0, counts)
        alive = data.draw(hnp.arrays(dtype=bool, shape=counts.shape[0]), label="alive")
        target = data.draw(
            hnp.arrays(
                dtype=np.float64,
                shape=counts.shape[1],
                elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            ).filter(nonzero),
            label="target",
        )
        q_bar = normalize(target)
        totals = counts.sum(axis=1)
        got = row_distances(counts, q_bar, totals)
        assert got.tobytes() == row_distances(counts, q_bar).tobytes()
        rows = np.flatnonzero(alive)
        got = subset_distances(counts, q_bar, rows, totals=totals)
        assert got.tobytes() == subset_distances(counts, q_bar, rows).tobytes()

    def test_held_totals_still_reject_a_negative_count(self):
        counts = np.array([[1, 2, 3], [4, -1, 6]], dtype=np.int64)
        with pytest.raises(ValueError, match="non-negative"):
            row_distances(counts, normalize(np.ones(3)), counts.sum(axis=1))
