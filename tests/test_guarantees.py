"""Tests for guarantee auditing and the Δd metric (Sections 2.2, 5.3)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import candidate_distances, l1_distance
from repro.core.guarantees import (
    AuditTruth,
    GuaranteeAudit,
    audit_result,
    delta_d,
    true_top_k,
)
from repro.core.result import MatchResult, StageStats


def make_result(matching, histograms, distances=None):
    matching = tuple(matching)
    histograms = np.asarray(histograms, dtype=float)
    if distances is None:
        distances = np.zeros(len(matching))
    return MatchResult(
        matching=matching,
        histograms=histograms,
        distances=np.asarray(distances, dtype=float),
        pruned=(),
        exact=False,
        stats=StageStats(),
    )


@pytest.fixture
def world():
    """Four candidates over two groups with known distances to q=[1,1].

    distances to uniform: c0: 0.0, c1: 0.1, c2: 0.5, c3: 1.0
    """
    exact = np.array(
        [
            [50.0, 50.0],
            [45.0, 55.0],
            [25.0, 75.0],
            [0.0, 100.0],
        ]
    )
    target = np.array([1.0, 1.0])
    return exact, target


class TestTrueTopK:
    def test_orders_by_distance(self, world):
        exact, target = world
        np.testing.assert_array_equal(true_top_k(exact, target, 2), [0, 1])
        np.testing.assert_array_equal(true_top_k(exact, target, 4), [0, 1, 2, 3])

    def test_sigma_excludes_rare(self, world):
        exact, target = world
        exact = exact.copy()
        exact[0] = [1.0, 1.0]  # closest but tiny: 2 rows of ~302
        top = true_top_k(exact, target, 2, sigma=0.05)
        np.testing.assert_array_equal(top, [1, 2])

    def test_empty_counts_raise(self):
        with pytest.raises(ValueError):
            true_top_k(np.zeros((2, 2)), np.ones(2), 1)


class TestDeltaD:
    def test_perfect_selection_is_zero(self, world):
        exact, target = world
        assert delta_d(np.array([0, 1]), exact, target, 2) == pytest.approx(0.0)

    def test_suboptimal_selection_positive(self, world):
        exact, target = world
        val = delta_d(np.array([0, 2]), exact, target, 2)
        # (0.0 + 0.5 - (0.0 + 0.1)) / 0.1 = 4.0
        assert val == pytest.approx(4.0)

    def test_negative_when_beating_sigma_limited_truth(self, world):
        """Returning a rare-but-closer candidate makes Δd negative (Section 5.3)."""
        exact, target = world
        exact = exact.copy()
        exact[0] = [1.0, 1.0]  # rare and perfect
        val = delta_d(np.array([0, 1]), exact, target, 2, sigma=0.05)
        assert val < 0


class TestAudit:
    def test_correct_output_passes(self, world):
        exact, target = world
        result = make_result([0, 1], exact[[0, 1]])
        audit = audit_result(result, exact, target, epsilon=0.1, sigma=0.0)
        assert audit.separation_ok
        assert audit.reconstruction_ok
        assert audit.ok

    def test_separation_violation_detected(self, world):
        exact, target = world
        # Returning c3 (distance 1.0) while c1 (0.2) is excluded: gap 0.8 > ε.
        result = make_result([0, 3], exact[[0, 3]])
        audit = audit_result(result, exact, target, epsilon=0.1, sigma=0.0)
        assert not audit.separation_ok

    def test_separation_tolerates_near_ties(self, world):
        exact, target = world
        # Swap c1 (0.2) for c2 (0.5) with ε = 0.5: |0.5 - 0.2| < 0.5 -> OK.
        result = make_result([0, 2], exact[[0, 2]])
        audit = audit_result(result, exact, target, epsilon=0.5, sigma=0.0)
        assert audit.separation_ok

    def test_separation_ignores_rare_candidates(self, world):
        exact, target = world
        exact = exact.copy()
        exact[1] = [9.0, 11.0]  # now rare (20 of ~270 rows is 7.4%)
        result = make_result([0, 2], exact[[0, 2]])
        audit = audit_result(result, exact, target, epsilon=0.1, sigma=0.08)
        assert audit.separation_ok

    def test_reconstruction_violation_detected(self, world):
        exact, target = world
        bad_histogram = np.array([[100.0, 0.0], [45.0, 55.0]])  # c0 badly wrong
        result = make_result([0, 1], bad_histogram)
        audit = audit_result(result, exact, target, epsilon=0.3, sigma=0.0)
        assert not audit.reconstruction_ok
        assert audit.worst_reconstruction_error == pytest.approx(1.0)

    def test_reconstruction_scale_invariant(self, world):
        exact, target = world
        scaled = exact[[0, 1]] * 0.01  # sampled counts are scaled-down truth
        result = make_result([0, 1], scaled)
        audit = audit_result(result, exact, target, epsilon=0.01, sigma=0.0)
        assert audit.reconstruction_ok

    def test_empty_output_with_all_rare(self):
        exact = np.array([[1.0, 0.0], [0.0, 1.0]])
        result = make_result([], np.zeros((0, 2)))
        audit = audit_result(result, exact, np.ones(2), epsilon=0.1, sigma=0.9)
        assert audit.separation_ok
        audit2 = audit_result(result, exact, np.ones(2), epsilon=0.1, sigma=0.1)
        assert not audit2.separation_ok


def reference_audit(result, exact_counts, target, epsilon, sigma):
    """``audit_result`` as it stood before the truth was cached: every
    ground-truth vector recomputed in place, the outside set by set
    difference, Δd through two more full distance passes."""
    exact_counts = np.asarray(exact_counts, dtype=np.float64)
    returned = np.asarray(result.matching, dtype=np.intp)
    true_distances = candidate_distances(exact_counts, target)
    rows = exact_counts.sum(axis=1)
    total = rows.sum()
    if returned.size == 0:
        return GuaranteeAudit(
            separation_ok=not bool(np.any(rows / total >= sigma)),
            reconstruction_ok=True,
            delta_d=0.0,
            worst_output_distance=float("nan"),
            worst_reconstruction_error=0.0,
        )
    worst_output = float(true_distances[returned].max())
    outside = np.setdiff1d(np.arange(rows.size), returned)
    if sigma > 0:
        outside = outside[rows[outside] / total >= sigma]
    separation_ok = True
    if outside.size:
        separation_ok = bool(worst_output - float(true_distances[outside].min()) < epsilon)
    worst_reconstruction = 0.0
    for position, candidate in enumerate(returned):
        err = l1_distance(result.histograms[position], exact_counts[candidate])
        worst_reconstruction = max(worst_reconstruction, err)

    eligible = rows / total >= sigma if sigma > 0 else np.ones(rows.size, dtype=bool)
    eligible &= rows > 0
    order = np.argsort(np.where(eligible, true_distances, np.inf), kind="stable")
    top = order[: min(result.k, int(eligible.sum()))]
    truth_sum = float(candidate_distances(exact_counts, target)[top].sum())
    returned_sum = float(candidate_distances(exact_counts, target)[returned].sum())
    if truth_sum == 0:
        dd = 0.0 if returned_sum == 0 else float("inf")
    else:
        dd = (returned_sum - truth_sum) / truth_sum
    return GuaranteeAudit(
        separation_ok=separation_ok,
        reconstruction_ok=worst_reconstruction < epsilon,
        delta_d=dd,
        worst_output_distance=worst_output,
        worst_reconstruction_error=worst_reconstruction,
    )


def assert_audits_equal(a, b):
    for field in dataclasses.fields(GuaranteeAudit):
        left, right = getattr(a, field.name), getattr(b, field.name)
        # Bit equality, and NaN (the empty output's worst distance) == NaN.
        assert np.array_equal(left, right, equal_nan=True), (field.name, left, right)


class TestCachedTruth:
    """``audit_result(..., truth=...)``: same audit, ground truth paid once."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_candidates=st.integers(2, 40),
        num_groups=st.integers(1, 6),
        output_size=st.integers(0, 5),
        sigma=st.sampled_from([0.0, 0.02, 0.1]),
        epsilon=st.sampled_from([0.05, 0.3]),
    )
    def test_same_audit_as_the_five_argument_call(
        self, seed, num_candidates, num_groups, output_size, sigma, epsilon
    ):
        rng = np.random.default_rng(seed)
        exact = rng.integers(0, 400, size=(num_candidates, num_groups))
        # A few rare candidates, so sigma > 0 excludes some — and the
        # output below is free to return one of them.
        exact[rng.random(num_candidates) < 0.3] //= 100
        exact[0, 0] += 1  # never an empty table
        target = rng.random(num_groups) + 0.01
        matching = rng.permutation(num_candidates)[: min(output_size, num_candidates)]
        noise = rng.integers(-3, 4, size=(matching.size, num_groups))
        result = make_result(matching.tolist(), np.maximum(exact[matching] + noise, 0))

        truth = AuditTruth.of(exact, target)
        cached = audit_result(result, exact, target, epsilon, sigma, truth=truth)
        on_the_spot = audit_result(result, exact, target, epsilon, sigma)
        reference = reference_audit(result, exact, target, epsilon, sigma)
        assert_audits_equal(cached, on_the_spot)
        assert_audits_equal(cached, reference)

    def test_returned_low_selectivity_candidate(self, world):
        exact, target = world
        exact = exact.copy()
        exact[0] = [5.0, 5.0]  # closest, but rare: M* excludes it
        result = make_result([0, 1], exact[[0, 1]])
        truth = AuditTruth.of(exact, target)
        audit = audit_result(result, exact, target, 0.1, 0.05, truth=truth)
        assert_audits_equal(audit, reference_audit(result, exact, target, 0.1, 0.05))
        assert audit.delta_d < 0  # genuinely closer than the eligible top-2

    def test_truth_is_read_only(self, world):
        truth = AuditTruth.of(*world)
        for vector in (truth.distances, truth.rows):
            with pytest.raises(ValueError):
                vector[0] = 0.0

    def test_public_helpers_agree_with_the_truth_object(self, world):
        exact, target = world
        truth = AuditTruth.of(exact, target)
        assert truth.top_k(2, 0.0).tolist() == true_top_k(exact, target, 2).tolist()
        assert truth.delta_d([0, 2], 2, 0.0) == delta_d([0, 2], exact, target, 2)


def per_row_reconstruction(result, exact_counts):
    """Guarantee 2's worst error as one ``l1_distance`` call per returned row."""
    worst = 0.0
    for position, candidate in enumerate(result.matching):
        err = l1_distance(result.histograms[position], exact_counts[candidate])
        worst = max(worst, err)
    return worst


class TestBatchedAudit:
    """The returned rows' errors in one 2-D pass carry the per-row bits."""

    @pytest.mark.parametrize("num_groups", [2, 24, 351])
    @pytest.mark.parametrize("output_size", [1, 3, 10])
    def test_batched_reconstruction_keeps_the_per_row_bits(
        self, num_groups, output_size
    ):
        rng = np.random.default_rng(num_groups * 100 + output_size)
        exact = rng.integers(0, 5000, size=(300, num_groups))
        exact[rng.random(300) < 0.1] //= 1000
        target = rng.random(num_groups) + 0.01
        matching = rng.permutation(300)[:output_size]
        noise = rng.integers(-3, 4, size=(output_size, num_groups))
        histograms = np.maximum(exact[matching] // 7 + noise, 0)
        result = MatchResult(
            matching=tuple(matching.tolist()),
            histograms=histograms,
            distances=np.zeros(output_size),
            pruned=(),
            exact=False,
            stats=StageStats(),
        )
        audit = audit_result(result, exact, target, 0.1, 0.0)
        want = per_row_reconstruction(result, exact)
        got = audit.worst_reconstruction_error
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert_audits_equal(audit, reference_audit(result, exact, target, 0.1, 0.0))

    def test_batched_reconstruction_of_an_all_zero_histogram(self, world):
        exact, target = world
        result = make_result([0, 2], np.array([[0.0, 0.0], [25.0, 75.0]]))
        audit = audit_result(result, exact, target, 0.1, 0.0)
        worst = per_row_reconstruction(result, exact)
        assert audit.worst_reconstruction_error == worst == 1.0
        assert not audit.reconstruction_ok

    def test_batched_reconstruction_with_k_one(self, world):
        exact, target = world
        result = make_result([1], [[40.0, 60.0]])
        assert result.k == 1
        audit = audit_result(result, exact, target, 0.1, 0.0)
        assert audit.worst_reconstruction_error == per_row_reconstruction(result, exact)
        assert_audits_equal(audit, reference_audit(result, exact, target, 0.1, 0.0))

    def test_batched_reconstruction_with_fewer_than_k_returned(self, world):
        """A deadline-cut answer may hold fewer rows than the query's k
        (here 3 of 4 eligible); the audit reads the rows it holds."""
        exact, target = world
        result = make_result([2, 0], [[20.0, 80.0], [0.0, 0.0]])
        audit = audit_result(result, exact, target, 0.1, 0.0)
        assert audit.worst_reconstruction_error == per_row_reconstruction(result, exact)
        assert_audits_equal(audit, reference_audit(result, exact, target, 0.1, 0.0))


class TestTruthMemo:
    """``top_k`` and ``meets_selectivity`` are computed once per key."""

    def test_memo_returns_equal_read_only_values(self, world):
        exact, target = world
        truth = AuditTruth.of(exact, target)
        fresh = AuditTruth.of(exact, target)
        for sigma in (0.0, 0.2):
            mask = truth.meets_selectivity(sigma)
            assert truth.meets_selectivity(sigma) is mask
            assert not mask.flags.writeable
            top = truth.top_k(2, sigma)
            assert truth.top_k(2, sigma) is top
            assert not top.flags.writeable
            np.testing.assert_array_equal(top, true_top_k(exact, target, 2, sigma))
            np.testing.assert_array_equal(mask, fresh.meets_selectivity(sigma))
        assert truth.top_k(3, 0.0).tolist() == [0, 1, 2]  # another k, another entry
        assert true_top_k(exact, target, 2).flags.writeable  # the public copy

    def test_memo_second_call_does_not_argsort(self, world, monkeypatch):
        exact, target = world
        truth = AuditTruth.of(exact, target)
        calls = []
        argsort = np.argsort

        def spy(*args, **kwargs):
            calls.append(args)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        first = truth.delta_d([0, 2], 2, 0.0)
        assert len(calls) == 1
        assert truth.delta_d([0, 2], 2, 0.0) == first
        result = make_result([0, 2], exact[[0, 2]])
        audit_result(result, exact, target, 0.1, 0.0, truth=truth)
        assert len(calls) == 1

    def test_audit_leaves_the_memoized_mask_unchanged(self, world):
        exact, target = world
        truth = AuditTruth.of(exact, target)
        mask = truth.meets_selectivity(0.0).copy()
        result = make_result([0, 1], exact[[0, 1]])
        audit_result(result, exact, target, 0.1, 0.0, truth=truth)
        np.testing.assert_array_equal(truth.meets_selectivity(0.0), mask)

    def test_memo_under_racing_threads_hands_out_equal_values(self, world):
        """Step threads share one prepared query's truth: a race may compute
        an entry twice, but every caller reads the single-thread value."""
        import sys
        import threading

        exact, target = world
        keys = [(k, sigma) for k in (1, 2, 3) for sigma in (0.0, 0.2, 0.3)]
        reference = AuditTruth.of(exact, target)
        want = {key: reference.top_k(*key).tolist() for key in keys}
        truth = AuditTruth.of(exact, target)
        wrong = []

        def reader(offset):
            for i in range(200):
                key = keys[(i + offset) % len(keys)]
                if truth.top_k(*key).tolist() != want[key]:
                    wrong.append(key)
                mask = truth.meets_selectivity(key[1])
                if mask.tolist() != reference.meets_selectivity(key[1]).tolist():
                    wrong.append(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
