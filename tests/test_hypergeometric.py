"""Tests for the stage-1 under-representation test (Section 3.3)."""

import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import hypergeom

import repro
from repro.core import HistSim, HistSimConfig
from repro.core import histsim as histsim_module
from repro.core.hypergeometric import (
    _left_tail,
    left_tail_table,
    rare_candidates,
    rare_threshold,
    underrepresentation_pvalue,
    underrepresentation_pvalues,
)
from repro.core.multiple_testing import holm_bonferroni
from repro.data import QUERY_NAMES, prepare_workload
from repro.extensions.unknown_domain import prune_unknown_domain
from repro.storage.cost_model import DEFAULT_COST_MODEL
from repro.system.clock import SimulatedClock
from repro.system.fastmatch import make_engine


def sigma_for(threshold: int, total: int) -> float:
    """A σ whose ``⌈σN⌉`` is exactly ``threshold`` (``threshold / total`` can
    round one ulp high)."""
    sigma = threshold / total
    while rare_threshold(total, sigma) > threshold:
        sigma = float(np.nextafter(sigma, 0.0))
    assert rare_threshold(total, sigma) == threshold
    return sigma


def exact_tails(total: int, threshold: int, m: int, top: int) -> list[Fraction]:
    """``P(HypGeo(total, threshold, m) ≤ n)`` for ``n = 0..top``, exactly:
    ``Σ_{j≤n} C(K, j)·C(N−K, m−j) / C(N, m)``.  ``C(N−K, m−j)`` steps down
    from the support's first ``j`` by ``C(r, s−1) = C(r, s)·s / (r−s+1)``,
    which is exact and far cheaper than a fresh ``comb`` per term at 10⁶ rows."""
    rest = total - threshold
    first = max(0, m - rest)
    term, denominator = comb(rest, m - first), comb(total, m)
    numerator, tails = 0, []
    for j in range(top + 1):
        if first <= j <= m:
            numerator += comb(threshold, j) * term
            term = term * (m - j) // (rest - m + j + 1)
        tails.append(Fraction(numerator, denominator))
    return tails


class TestRareThreshold:
    def test_ceiling(self):
        assert rare_threshold(1000, 0.0008) == 1
        assert rare_threshold(10_000, 0.0008) == 8
        assert rare_threshold(10_001, 0.0008) == 9

    def test_zero_sigma(self):
        assert rare_threshold(1000, 0.0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            rare_threshold(-1, 0.5)
        with pytest.raises(ValueError):
            rare_threshold(10, 1.5)


class TestPvalues:
    def test_matches_scipy_cdf(self):
        n_total, sigma, m = 100_000, 0.001, 5_000
        threshold = rare_threshold(n_total, sigma)
        for observed in (0, 1, 3, 10, 50):
            expected = hypergeom.cdf(observed, n_total, threshold, m)
            got = underrepresentation_pvalue(observed, n_total, sigma, m)
            assert got == pytest.approx(expected)

    def test_zero_observed_is_surprising_for_common_candidate(self):
        """Seeing nothing from a 1%-selectivity candidate in 10k samples."""
        p = underrepresentation_pvalue(0, 1_000_000, 0.01, 10_000)
        assert p < 1e-20

    def test_expected_count_is_unsurprising(self):
        """Observing roughly σ·m tuples should not look rare."""
        n_total, sigma, m = 1_000_000, 0.01, 10_000
        p = underrepresentation_pvalue(int(sigma * m), n_total, sigma, m)
        assert p > 0.4

    def test_monotone_in_observed(self):
        n_total, sigma, m = 500_000, 0.005, 20_000
        counts = np.arange(0, 200)
        p = underrepresentation_pvalues(counts, n_total, sigma, m)
        assert np.all(np.diff(p) >= 0)

    def test_sigma_zero_never_flags(self):
        p = underrepresentation_pvalues(np.array([0, 1, 5]), 1000, 0.0, 100)
        np.testing.assert_array_equal(p, np.ones(3))

    def test_shared_computation_matches_elementwise(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 40, size=100)
        n_total, sigma, m = 2_000_000, 0.0008, 500_000
        vec = underrepresentation_pvalues(counts, n_total, sigma, m)
        for i in (0, 17, 55, 99):
            assert vec[i] == pytest.approx(
                underrepresentation_pvalue(int(counts[i]), n_total, sigma, m)
            )

    def test_pvalues_in_unit_interval(self):
        counts = np.arange(0, 5000, 37)
        p = underrepresentation_pvalues(counts, 10_000_000, 0.0008, 500_000)
        assert np.all(p >= 0) and np.all(p <= 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            underrepresentation_pvalues(np.array([[1]]), 10, 0.5, 5)
        with pytest.raises(ValueError):
            underrepresentation_pvalues(np.array([-1]), 10, 0.5, 5)
        with pytest.raises(ValueError):
            underrepresentation_pvalues(np.array([1]), 10, 0.5, 11)

    def test_empty_observed(self):
        p = underrepresentation_pvalues(np.array([], dtype=np.int64), 1000, 0.01, 100)
        assert p.dtype == np.float64 and p.shape == (0,)

    def test_type_one_error_monte_carlo(self):
        """Rejecting at level 0.05 flags a boundary candidate ~5% of the time."""
        rng = np.random.default_rng(42)
        n_total, sigma = 20_000, 0.01
        threshold = rare_threshold(n_total, sigma)  # exactly at the boundary
        m = 2_000
        trials = 400
        # Draw hypergeometric counts for a candidate with exactly σN rows.
        counts = rng.hypergeometric(threshold, n_total - threshold, m, size=trials)
        p = underrepresentation_pvalues(counts, n_total, sigma, m)
        false_positive_rate = np.mean(p <= 0.05)
        assert false_positive_rate <= 0.08  # 5% nominal + MC slack


class TestExactOracle:
    """Against exact rationals (``math.comb``), to a relative 1e-12."""

    @pytest.mark.parametrize("total", [1, 2, 3, 5, 8, 13, 21, 34, 60])
    def test_small_grid_every_threshold_size_and_count(self, total):
        counts = np.arange(total + 1)
        for threshold in range(total + 1):
            sigma = sigma_for(threshold, total)
            for m in range(total + 1):
                expected = np.array(
                    [float(t) for t in exact_tails(total, threshold, m, total)]
                )
                got = underrepresentation_pvalues(counts, total, sigma, m)
                np.testing.assert_allclose(
                    got, expected, rtol=1e-12, atol=0,
                    err_msg=f"N={total} K={threshold} m={m}",
                )

    def test_benchmark_scale(self):
        """N = 10⁶ rows, σ = 0.0008 (K = 800), m = 5·10⁴ stage-1 samples."""
        total, threshold, m = 1_000_000, 800, 50_000
        observed = np.array([5, 20, 35, 50])
        tails = exact_tails(total, threshold, m, int(observed.max()))
        expected = np.array([float(tails[n]) for n in observed])
        got = underrepresentation_pvalues(
            observed, total, sigma_for(threshold, total), m
        )
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    @given(
        st.integers(min_value=1, max_value=20_000).flatmap(
            lambda total: st.tuples(
                st.just(total),
                st.integers(min_value=1, max_value=total),
                st.integers(min_value=0, max_value=total),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_tail_shape(self, params):
        """Non-decreasing in n, 0 below the support, 1 from ``min(K, m)`` on."""
        total, threshold, m = params
        lo, hi = max(0, m + threshold - total), min(threshold, m)
        counts = np.arange(hi + 3)
        tail = underrepresentation_pvalues(counts, total, sigma_for(threshold, total), m)
        assert np.all(np.diff(tail) >= 0)
        assert np.all(tail[:lo] == 0.0)
        assert np.all(tail[hi:] == 1.0)
        shuffled = np.random.default_rng(total).permutation(counts)
        np.testing.assert_array_equal(
            underrepresentation_pvalues(shuffled, total, sigma_for(threshold, total), m),
            tail[shuffled],
        )


@st.composite
def tail_params(draw):
    """``(N, K, m)`` with ``1 ≤ K ≤ N`` and ``0 ≤ m ≤ N``."""
    total = draw(st.integers(min_value=1, max_value=20_000))
    threshold = draw(st.integers(min_value=1, max_value=total))
    m = draw(st.integers(min_value=0, max_value=total))
    return total, threshold, m


class TestTailTable:
    """The cached per-``(N, ⌈σN⌉, m)`` table behind every stage-1 P-value."""

    @given(tail_params(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_entries_are_the_per_call_tails_bit_for_bit(self, params, data):
        total, threshold, m = params
        hi = min(threshold, m)
        table = left_tail_table(total, threshold, m)
        assert table.shape == (hi + 1,)
        counts = np.unique(
            data.draw(st.lists(st.integers(0, hi + 3), min_size=1, max_size=30))
        )
        per_call = _left_tail(counts, total, threshold, m)
        assert table[np.minimum(counts, hi)].tobytes() == per_call.tobytes()

    def test_read_only_and_shared(self):
        table = left_tail_table(1_000_000, 800, 50_000)
        assert table is left_tail_table(1_000_000, 800, 50_000)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.5

    def test_cache_is_bounded(self):
        maxsize = left_tail_table.cache_info().maxsize
        assert maxsize is not None
        for m in range(maxsize + 8):
            left_tail_table(50_000, 40, 1_000 + m)
        assert left_tail_table.cache_info().currsize <= maxsize

    def test_eight_threads_get_the_same_mask(self):
        rng = np.random.default_rng(3)
        observed = rng.integers(0, 60, size=5_000)
        args = (observed, 2_000_000, 0.0008, 50_000, 0.01 / 3)
        expected = holm_bonferroni(underrepresentation_pvalues(*args[:4]), args[4])
        left_tail_table.cache_clear()  # so the threads race on the miss
        start = threading.Barrier(8)

        def prune(_):
            start.wait()
            return rare_candidates(*args)

        with ThreadPoolExecutor(max_workers=8) as pool:
            masks = list(pool.map(prune, range(8)))
        assert 0 < expected.sum() < expected.size
        for mask in masks:
            np.testing.assert_array_equal(mask, expected)


def holm_oracle(observed, total, sigma, m, alpha):
    return holm_bonferroni(underrepresentation_pvalues(observed, total, sigma, m), alpha)


class TestRareCandidates:
    """Stage 1's count-threshold prune equals sort-based Holm over the
    P-values, on every input."""

    @given(tail_params(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_holm_over_the_pvalues(self, params, data):
        total, threshold, m = params
        sigma = data.draw(st.sampled_from([0.0, sigma_for(threshold, total)]))
        hi = min(threshold, m)
        # Few distinct values, so ties are the rule, some past ``hi``.
        values = data.draw(st.lists(st.integers(0, hi + 2), min_size=1, max_size=4))
        observed = np.array(
            data.draw(st.lists(st.sampled_from(values), min_size=1, max_size=80))
        )
        alpha = data.draw(st.floats(min_value=1e-4, max_value=0.9))
        np.testing.assert_array_equal(
            rare_candidates(observed, total, sigma, m, alpha),
            holm_oracle(observed, total, sigma, m, alpha),
        )

    @pytest.mark.parametrize("passes", [False, True])
    def test_a_tie_group_at_the_cut_passes_or_fails_whole(self, passes):
        """Three candidates share a count whose P-value lies between the
        smallest and the largest Holm threshold of their positions."""
        total, sigma, m = 100_000, 0.001, 5_000
        observed = np.array([1, 0, 1, 0, 1])
        p = underrepresentation_pvalue(1, total, sigma, m)
        assert 0.0 < p < 0.1
        # Positions 3..5 of 5 meet thresholds alpha/3, alpha/2, alpha/1.
        alpha = 3.0 * p * 1.000001 if passes else 2.0 * p
        got = rare_candidates(observed, total, sigma, m, alpha)
        np.testing.assert_array_equal(got, holm_oracle(observed, total, sigma, m, alpha))
        assert got.tolist() == [passes, True, passes, True, passes]

    def test_counts_from_the_threshold_on_are_never_pruned(self):
        total, m = 10_000, 2_000
        sigma = sigma_for(40, total)  # K = 40 = hi
        observed = np.array([0, 40, 41, 500, 2_000])
        assert underrepresentation_pvalues(observed, total, sigma, m)[1:].tolist() == [1.0] * 4
        got = rare_candidates(observed, total, sigma, m, 0.5)
        assert got.tolist() == [True, False, False, False, False]

    def test_counts_below_the_support_are_always_pruned(self):
        """``m + K > N``: at least ``lo`` rows of a not-rare candidate are drawn."""
        total, m = 100, 70
        sigma = sigma_for(60, total)  # lo = 30
        observed = np.array([0, 29, 30, 45, 60])
        p = underrepresentation_pvalues(observed, total, sigma, m)
        assert p[:2].tolist() == [0.0, 0.0] and p[-1] == 1.0
        got = rare_candidates(observed, total, sigma, m, 0.01)
        np.testing.assert_array_equal(got, holm_oracle(observed, total, sigma, m, 0.01))
        assert got[:2].all() and not got[-1]

    def test_everything_and_nothing(self):
        everything = rare_candidates(np.zeros(6, dtype=np.int64), 100, 0.6, 70, 0.01)
        assert everything.all()
        assert not rare_candidates(np.arange(6), 1_000, 0.0, 100, 0.5).any()  # sigma = 0
        assert not rare_candidates(np.zeros(4, dtype=np.int64), 1_000, 0.1, 0, 0.5).any()  # m = 0
        assert not rare_candidates(np.full(5, 50), 10_000, 0.001, 2_000, 0.01).any()
        assert rare_candidates(np.array([], dtype=np.int64), 1_000, 0.1, 10, 0.1).size == 0

    @pytest.mark.parametrize("count", [0, 1, 5, 40])
    def test_one_candidate(self, count):
        args = (np.array([count]), 100_000, 0.001, 5_000, 0.05)
        np.testing.assert_array_equal(rare_candidates(*args), holm_oracle(*args))

    @pytest.mark.parametrize("seed", range(4))
    def test_unknown_domain_dummy(self, seed):
        rng = np.random.default_rng(seed)
        total, sigma, delta = 50_000, 0.002, 0.05
        values = rng.choice(40, size=3_000, p=np.r_[np.full(10, 0.09), np.full(30, 0.1 / 30)])
        got = prune_unknown_domain(values, total, sigma, delta)
        seen, counts = np.unique(values, return_counts=True)
        expected = holm_oracle(np.r_[counts, 0], total, sigma, values.size, delta / 3.0)
        assert got.unseen_all_rare == bool(expected[-1])
        assert got.pruned_seen == tuple(int(v) for v in seen[expected[:-1]])

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.uint16, np.int32])
    def test_narrow_integer_counts(self, dtype):
        """Counts of any integer dtype, even one too narrow to hold the
        table's last index (800 here)."""
        observed = np.array([0, 1, 5, 100], dtype=dtype)
        args = (1_000_000, 0.0008, 50_000)
        np.testing.assert_array_equal(
            underrepresentation_pvalues(observed, *args),
            underrepresentation_pvalues(observed.astype(np.int64), *args),
        )
        np.testing.assert_array_equal(
            rare_candidates(observed, *args, 0.003), holm_oracle(observed, *args, 0.003)
        )

    def test_input_checks_are_kept(self):
        for call in (underrepresentation_pvalues, rare_candidates):
            extra = () if call is underrepresentation_pvalues else (0.05,)
            with pytest.raises(ValueError):
                call(np.array([[1]]), 10, 0.5, 5, *extra)
            with pytest.raises(ValueError):
                call(np.array([-1]), 10, 0.5, 5, *extra)
            with pytest.raises(ValueError):
                call(np.array([1]), 10, 0.5, 11, *extra)
            with pytest.raises(ValueError):
                call(np.array([1]), 10, 0.5, -1, *extra)
            with pytest.raises(ValueError):
                call(np.array([1]), 10, 1.5, 5, *extra)
        with pytest.raises(ValueError):
            rare_candidates(np.array([1]), 10, 0.5, 5, 0.0)


ROWS = {"flights": 150_000, "taxi": 350_000, "police": 150_000}


class TestStage1Decisions:
    """Stage 1 prunes the same candidates as it would with SciPy's CDF."""

    @staticmethod
    def stage1_inputs(prepared, config, seed, monkeypatch):
        """The arguments stage 1 passes to its prune (``rare_candidates``)."""
        seen = []

        def record(observed, total_rows, sigma, sample_size, alpha):
            seen.append((observed.copy(), total_rows, sigma, sample_size))
            return rare_candidates(observed, total_rows, sigma, sample_size, alpha)

        monkeypatch.setattr(histsim_module, "rare_candidates", record)
        engine = make_engine(
            prepared, "fastmatch", config, DEFAULT_COST_MODEL, SimulatedClock(),
            np.random.default_rng(seed),
        )
        HistSim(engine, prepared.target, config).run_stage1()
        (inputs,) = seen
        return inputs

    @pytest.mark.parametrize("query_name", QUERY_NAMES)
    def test_no_prune_decision_flips(self, query_name, monkeypatch):
        """At the default σ and at three larger ones, so that every query has
        candidates on both sides of Holm's cut (at 150k rows the default σ
        prunes nothing on FLIGHTS or POLICE)."""
        prepared = prepare_workload(
            query_name, rows=ROWS[query_name.split("-")[0]], seed=7
        )
        config = HistSimConfig(k=prepared.query.k)
        pruned_counts = []
        for seed in range(4):
            observed, total_rows, _, m = self.stage1_inputs(
                prepared, config, seed, monkeypatch
            )
            for sigma in (config.sigma, 0.002, 0.005, 0.02):
                ours = underrepresentation_pvalues(observed, total_rows, sigma, m)
                threshold = rare_threshold(total_rows, sigma)
                reference = np.clip(
                    hypergeom.cdf(observed, total_rows, threshold, m), 0.0, 1.0
                )
                np.testing.assert_allclose(ours, reference, rtol=1e-8, atol=1e-300)
                pruned = holm_bonferroni(ours, config.stage_delta)
                np.testing.assert_array_equal(
                    pruned, holm_bonferroni(reference, config.stage_delta)
                )
                pruned_counts.append(int(pruned.sum()))
        assert 0 < max(pruned_counts) and min(pruned_counts) < observed.size


def test_import_does_not_load_scipy():
    """The library, its CLI and the worker entry point start without SciPy."""
    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        "import sys; import repro, repro.cli, repro.parallel.worker; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src, "PATH": ""},
    ).stdout.strip()
    assert out == "[]"
