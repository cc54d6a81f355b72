"""Tests for per-candidate state bookkeeping (paper Table 1 quantities)."""

import numpy as np
import pytest

from repro.core.state import CandidateState


def make_state(candidates=3, groups=4, rows=None):
    return CandidateState(candidates, groups, rows)


class TestConstruction:
    def test_initial_state_is_zero(self):
        s = make_state()
        assert s.samples.sum() == 0
        assert s.counts.sum() == 0
        assert s.round_samples.sum() == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CandidateState(0, 4)
        with pytest.raises(ValueError):
            CandidateState(3, 0)
        with pytest.raises(ValueError):
            CandidateState(3, 4, np.array([1, 2]))
        with pytest.raises(ValueError):
            CandidateState(2, 4, np.array([1, -2]))


class TestRoundAccounting:
    def test_record_round_counts(self):
        s = make_state()
        fresh = np.zeros((3, 4), dtype=np.int64)
        fresh[0, 1] = 5
        fresh[2, 3] = 2
        row_sums = s.record_round_counts(fresh)
        assert row_sums.tolist() == [5, 0, 2]  # the batch's one reduction
        assert s.round_samples[0] == 5
        assert s.round_samples[2] == 2
        assert s.samples.sum() == 0  # cumulative untouched until fold

    @pytest.mark.parametrize(
        "convert",
        [
            lambda a: a.astype(np.int32),
            lambda a: a.tolist(),
            np.asfortranarray,
            lambda a: np.repeat(a, 2, axis=1)[:, ::2],
        ],
        ids=["int32", "list", "fortran", "strided"],
    )
    def test_record_round_counts_takes_any_integer_array_like(self, convert):
        """Row sums stay int64 and equal ``sum(axis=1)`` whatever the caller
        hands in; the round state is unchanged in dtype."""
        s = make_state()
        fresh = np.arange(12, dtype=np.int64).reshape(3, 4)
        row_sums = s.record_round_counts(convert(fresh))
        assert row_sums.dtype == np.int64
        np.testing.assert_array_equal(row_sums, fresh.sum(axis=1))
        np.testing.assert_array_equal(s.round_samples, fresh.sum(axis=1))
        np.testing.assert_array_equal(s.round_counts, fresh)
        assert s.round_samples.dtype == s.round_counts.dtype == np.int64
        row_sums[:] = -1  # the caller's own vector, not the state's
        np.testing.assert_array_equal(s.round_samples, fresh.sum(axis=1))

    def test_fold_moves_round_into_cumulative(self):
        s = make_state()
        fresh = np.ones((3, 4), dtype=np.int64)
        s.record_round_counts(fresh)
        s.fold_round_into_cumulative()
        assert s.samples.tolist() == [4, 4, 4]
        assert s.round_samples.sum() == 0
        np.testing.assert_array_equal(s.counts, fresh)

    def test_fold_of_an_empty_round_changes_nothing(self):
        """Round 1 folds right after stage 1 wrote the cumulative state
        directly, and stage 3 folds again after a rejected round did:
        there is nothing to add, so the matrices are not even touched."""
        s = make_state()
        s.counts += 3
        s.samples += 12
        s.counts.setflags(write=False)  # a skipped pass writes nothing
        s.round_counts.setflags(write=False)
        s.fold_round_into_cumulative()
        assert s.samples.tolist() == [12, 12, 12]
        assert s.counts.tolist() == [[3] * 4] * 3
        # ... and a round with rows in it still folds.
        s.counts.setflags(write=True)
        s.round_counts.setflags(write=True)
        s.record_round_counts(np.ones((3, 4), dtype=np.int64))
        s.fold_round_into_cumulative()
        assert s.samples.tolist() == [16, 16, 16]
        assert s.counts.tolist() == [[4] * 4] * 3
        assert not s.round_counts.any() and not s.round_samples.any()

    def test_fresh_samples_independent_of_cumulative(self):
        """Round statistics must come from fresh samples only (Section 3.4)."""
        s = make_state()
        first = np.zeros((3, 4), dtype=np.int64)
        first[0, 0] = 100
        s.record_round_counts(first)
        s.fold_round_into_cumulative()
        second = np.zeros((3, 4), dtype=np.int64)
        second[0, 1] = 10
        s.record_round_counts(second)
        target = np.ones(4)
        round_tau = s.round_distances(target)
        # Round estimate is concentrated on group 1 despite cumulative history.
        expected = np.abs(np.array([0, 1, 0, 0]) - 0.25).sum()
        assert round_tau[0] == pytest.approx(expected)

    def test_record_validates_shape_and_sign(self):
        s = make_state()
        with pytest.raises(ValueError):
            s.record_round_counts(np.zeros((2, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            s.record_round_counts(np.full((3, 4), -1))


class TestExhaustion:
    def test_exhausted_without_rows_is_never(self):
        s = make_state()
        assert not s.exhausted().any()

    def test_exhausted_tracks_row_budget(self):
        s = make_state(rows=np.array([4, 100, 0]))
        fresh = np.zeros((3, 4), dtype=np.int64)
        fresh[0] = 1  # 4 samples for candidate 0
        s.record_round_counts(fresh)
        s.fold_round_into_cumulative()
        exhausted = s.exhausted()
        assert exhausted[0]
        assert not exhausted[1]
        assert exhausted[2]  # zero-row candidate is trivially exhausted

    def test_round_exhausted_counts_pending_round(self):
        s = make_state(rows=np.array([4, 100, 0]))
        fresh = np.zeros((3, 4), dtype=np.int64)
        fresh[0] = 1
        s.record_round_counts(fresh)
        assert s.round_exhausted()[0]
        assert not s.exhausted()[0]


class TestDistances:
    def test_distances_match_definition(self):
        s = make_state(candidates=2, groups=2)
        s.counts[0] = [10, 10]
        s.counts[1] = [20, 0]
        target = np.array([1.0, 1.0])
        tau = s.distances(target)
        assert tau[0] == pytest.approx(0.0)
        assert tau[1] == pytest.approx(1.0)
