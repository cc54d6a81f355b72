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
        # The round holds group 1 only, despite the cumulative history.
        assert s.round_counts[0].tolist() == [0, 10, 0, 0]
        assert s.round_samples[0] == 10
        assert s.counts[0].tolist() == [100, 0, 0, 0]

    def test_record_validates_shape_and_sign(self):
        s = make_state()
        with pytest.raises(ValueError):
            s.record_round_counts(np.zeros((2, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            s.record_round_counts(np.full((3, 4), -1))
        # A single negative cell among positive ones; a rejected batch
        # moves nothing.
        one_negative = np.full((3, 4), 5, dtype=np.int64)
        one_negative[2, 3] = -1
        with pytest.raises(ValueError, match="non-negative"):
            s.record_round_counts(one_negative)
        assert not s.round_counts.any() and not s.round_samples.any()


    def test_record_counts_validates_shape_and_sign(self):
        """Stage 1's record path checks the batch as the round path does:
        a negative cell is rejected even when the handed row sums are
        positive, before anything moves."""
        s = make_state()
        with pytest.raises(ValueError):
            s.record_counts(np.zeros((2, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="non-negative"):
            s.record_counts(np.full((3, 4), -1))
        one_negative = np.full((3, 4), 5, dtype=np.int64)
        one_negative[2, 3] = -1
        with pytest.raises(ValueError, match="non-negative"):
            s.record_counts(one_negative, np.full(3, 19, dtype=np.int64))
        assert not s.counts.any() and not s.samples.any()
        s.record_counts(np.ones((3, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="non-negative"):
            s.record_counts(one_negative, np.full(3, 19, dtype=np.int64))
        assert s.counts.tolist() == [[1] * 4] * 3
        assert s.samples.tolist() == [4, 4, 4]


class TestRoundBuffer:
    """The round's counts live in the state's own buffer, copied or added
    into, and read as zeros between rounds without a zero-fill."""

    def test_fold_reads_zeros_without_writing_the_buffer(self):
        s = make_state()
        s.record_round_counts(np.full((3, 4), 2, dtype=np.int64))
        s._round_buffer.setflags(write=False)  # a zero-fill would raise
        s.fold_round_into_cumulative()
        assert s.round_counts.tolist() == [[0] * 4] * 3
        assert not s.round_samples.any()
        assert s.counts.tolist() == [[2] * 4] * 3
        # The next round starts from its own first batch, not the stale one.
        s._round_buffer.setflags(write=True)
        second = np.arange(12, dtype=np.int64).reshape(3, 4)
        s.record_round_counts(second)
        np.testing.assert_array_equal(s.round_counts, second)
        np.testing.assert_array_equal(s.round_samples, second.sum(axis=1))

    def test_zeros_between_rounds_are_read_only(self):
        s = make_state()
        s.record_round_counts(np.ones((3, 4), dtype=np.int64))
        s.fold_round_into_cumulative()
        with pytest.raises(ValueError):
            s.round_counts[0, 0] = 1

    def test_a_recorded_batch_is_not_kept(self):
        s = make_state()
        first = np.ones((3, 4), dtype=np.int64)
        s.record_round_counts(first)
        first[:] = 99  # the caller reuses its matrix
        assert s.round_counts.tolist() == [[1] * 4] * 3
        second = np.full((3, 4), 2, dtype=np.int64)
        s.record_round_counts(second)
        second[:] = 99
        assert s.round_counts.tolist() == [[3] * 4] * 3
        stage1 = np.full((3, 4), 5, dtype=np.int64)
        s.record_counts(stage1)
        stage1[:] = 99
        assert s.counts.tolist() == [[5] * 4] * 3

    def test_record_counts_copies_into_an_empty_state_and_adds_after(self):
        s = make_state()
        s.counts.setflags(write=False)
        with pytest.raises(ValueError):  # copied into, so written
            s.record_counts(np.ones((3, 4), dtype=np.int64))
        s.counts.setflags(write=True)
        row_sums = s.record_counts(np.ones((3, 4), dtype=np.int64))
        assert row_sums.tolist() == [4, 4, 4]
        s.record_counts(np.full((3, 4), 2, dtype=np.int64))
        assert s.counts.tolist() == [[3] * 4] * 3
        assert s.samples.tolist() == [12, 12, 12]
        with pytest.raises(ValueError):
            s.record_counts(np.zeros((2, 4), dtype=np.int64))

    def test_held_totals_are_the_row_sums_after_every_step(self):
        rng = np.random.default_rng(11)
        s = make_state(candidates=6, groups=5)
        s.record_counts(rng.integers(0, 9, size=(6, 5)))
        for _ in range(300):
            move = rng.integers(4)
            if move == 0:
                s.fold_round_into_cumulative()
            elif move == 1:
                s.reset_round()
            else:
                batch = rng.integers(0, 9, size=(6, 5))
                batch[rng.random(6) < 0.5] = 0  # some all-zero batches
                s.record_round_counts(batch * (rng.random() < 0.8))
            np.testing.assert_array_equal(s.samples, s.counts.sum(axis=1))
            np.testing.assert_array_equal(s.round_samples, s.round_counts.sum(axis=1))


class TestHandedRowSums:
    """A caller that holds a batch's row sums hands them in; the state then
    skips its own reduction and ends exactly where re-summing would."""

    def test_handed_row_sums_equal_re_summing(self, monkeypatch):
        import repro.core.state as state_module

        rng = np.random.default_rng(29)
        summed, handed = make_state(6, 5), make_state(6, 5)
        moves = []
        for _ in range(300):
            move = int(rng.integers(5))
            batch = rng.integers(0, 9, size=(6, 5))
            batch[rng.random(6) < 0.5] = 0
            moves.append((move, batch * (rng.random() < 0.8)))
        for move, batch in moves:  # the reference sums every batch itself
            if move == 0:
                summed.fold_round_into_cumulative()
            elif move == 1:
                summed.reset_round()
            elif move == 2:
                summed.record_counts(batch)
            else:
                summed.record_round_counts(batch)

        def no_sum(counts):
            raise AssertionError("the handed-in row sums were summed again")

        monkeypatch.setattr(state_module, "rows_per_candidate", no_sum)
        for move, batch in moves:
            row_sums = batch.sum(axis=1)
            if move == 0:
                handed.fold_round_into_cumulative()
            elif move == 1:
                handed.reset_round()
            elif move == 2:
                assert handed.record_counts(batch, row_sums) is row_sums
            else:
                assert handed.record_round_counts(batch, row_sums) is row_sums
                row_sums[:] = -1  # the caller's vector is added, not kept
        for name in ("counts", "samples", "round_counts", "round_samples"):
            np.testing.assert_array_equal(getattr(handed, name), getattr(summed, name))

    def test_handed_row_sums_keep_the_checks(self):
        s = make_state()
        sums = np.full(3, 4, dtype=np.int64)
        with pytest.raises(ValueError, match="non-negative"):
            s.record_round_counts(np.full((3, 4), -1), sums)
        with pytest.raises(ValueError, match="row sums"):
            s.record_round_counts(np.ones((3, 4), dtype=np.int64), sums[:2])
        with pytest.raises(ValueError, match="row sums"):
            s.record_counts(np.ones((3, 4), dtype=np.int64), sums[:2])
        batch = np.ones((3, 4), dtype=np.int64)
        s.record_round_counts(batch, sums)
        batch[:] = 99
        assert s.round_counts.tolist() == [[1] * 4] * 3  # copied, not aliased


class TestSurvivorRows:
    """After :meth:`keep_only` the matrices hold the survivors' rows only;
    read through :meth:`rows`, every survivor's histogram is what a state
    that kept every row holds."""

    def test_narrowed_state_matches_a_full_one(self):
        rng = np.random.default_rng(17)
        full, narrow = make_state(7, 5), make_state(7, 5)
        for s in (full, narrow):
            s.record_counts(np.arange(35).reshape(7, 5))
        keep = np.array([True, False, True, True, False, False, True])
        narrow.keep_only(keep)
        ids = np.flatnonzero(keep)
        assert narrow.survivors.tolist() == ids.tolist()
        assert narrow.counts.shape == (4, 5)
        assert narrow.round_counts.shape == (4, 5)
        for _ in range(300):
            move = int(rng.integers(4))
            batch = rng.integers(0, 9, size=(7, 5)) * (rng.random() < 0.8)
            for s in (full, narrow):
                if move == 0:
                    s.fold_round_into_cumulative()
                elif move == 1:
                    s.reset_round()
                elif move == 2:
                    s.record_counts(batch)
                else:
                    s.record_round_counts(batch)
            rows = narrow.rows(ids)
            np.testing.assert_array_equal(narrow.counts[rows], full.counts[ids])
            np.testing.assert_array_equal(
                narrow.round_counts[rows], full.round_counts[ids]
            )
            for name in ("samples", "round_samples"):  # full length, by id
                np.testing.assert_array_equal(getattr(narrow, name), getattr(full, name))

    def test_rows_map_ids_and_refuse_dropped_candidates(self):
        s = make_state(5, 2)
        ids = np.array([0, 3, 4])
        assert s.rows(ids) is ids  # nothing dropped: row i is candidate i
        s.keep_only(np.array([False, True, False, True, True]))
        assert s.rows(np.array([1, 3, 4])).tolist() == [0, 1, 2]
        assert s.rows(np.empty(0, dtype=np.int64)).size == 0
        with pytest.raises(ValueError, match="pruned"):
            s.rows(np.array([1, 2]))
        with pytest.raises(ValueError, match="pruned"):  # cannot come back
            s.keep_only(np.array([True, True, False, False, False]))

    def test_keep_only_of_everyone_changes_nothing(self):
        s = make_state()
        counts = s.counts
        s.keep_only(np.ones(3, dtype=bool))
        assert s.counts is counts and s.survivors is None

    def test_a_held_round_is_narrowed_with_the_counts(self):
        s = make_state(4, 3)
        s.record_round_counts(np.arange(12).reshape(4, 3))
        s.keep_only(np.array([True, False, False, True]))
        assert s.round_counts.tolist() == [[0, 1, 2], [9, 10, 11]]
        s.fold_round_into_cumulative()
        assert s.counts.tolist() == [[0, 1, 2], [9, 10, 11]]
        assert s.samples.tolist() == [3, 12, 21, 30]

    def test_batches_stay_full_shaped_checked_and_copied(self):
        s = make_state(4, 3)
        s.keep_only(np.array([True, False, True, False]))
        with pytest.raises(ValueError):  # survivor-shaped is the wrong shape
            s.record_round_counts(np.ones((2, 3), dtype=np.int64))
        dropped_negative = np.ones((4, 3), dtype=np.int64)
        dropped_negative[1, 0] = -1  # in a dropped candidate's row
        for record in (s.record_round_counts, s.record_counts):
            with pytest.raises(ValueError, match="non-negative"):
                record(dropped_negative)
        assert not s.round_samples.any() and not s.samples.any()
        first = np.ones((4, 3), dtype=np.int32)
        s.record_round_counts(first)
        first[:] = 99
        second = np.full((4, 3), 2, dtype=np.int64)
        s.record_round_counts(second)
        second[:] = 99
        assert s.round_counts.dtype == np.int64
        assert s.round_counts.tolist() == [[3] * 3] * 2
        assert s.round_samples.tolist() == [9, 9, 9, 9]


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
