"""Stage-1 under-representation test (paper Section 3.3).

After drawing ``m`` tuples uniformly without replacement from a table of
``N`` tuples, the count ``n_i`` of tuples belonging to candidate ``i`` follows
``HypGeo(N, N_i, m)``.  The null hypothesis "candidate ``i`` is *not* rare"
(``N_i ≥ ⌈σN⌉``) is rejected when the left tail

    P( HypGeo(N, ⌈σN⌉, m) ≤ n_i )

is small: observing so few tuples would be surprising if the candidate truly
had selectivity at least σ.  The tail is stochastically smallest at
``N_i = ⌈σN⌉`` over the null region, so this P-value is valid for the whole
composite null.

The paper notes that stage 1 shares computation across candidates: one run
of pdf terms serves every count.  Here that run is a table: for each
``(N, ⌈σN⌉, m)`` the left tail at every count ``0..min(⌈σN⌉, m)`` is
computed once, made read-only and kept in a bounded process-wide cache
(:func:`left_tail_table`), and :func:`underrepresentation_pvalues` looks
each count up in it — no sort, no ``np.unique``.  The tails are cumulative
sums taken in order, so the table's entries equal, bit for bit, the tails a
shorter run would give (:func:`_left_tail` over just the observed counts).
With ``K = ⌈σN⌉`` the
support is ``[lo, hi] = [max(0, m+K−N), min(K, m)]``.  The first term is a
product of at most ``min`` factors,

    f(0)  = Π_{i<min(K,m)}     (1 − max(K, m) / (N−i))          (lo = 0)
    f(lo) = Π_{i<min(N−K,N−m)} (1 − max(N−K, N−m) / (N−i))      (lo > 0)

and each later term follows from the ratio

    f(j+1) / f(j) = (K−j)(m−j) / ((j+1)(N−K−m+j+1)),

so one ``cumsum`` of logs gives every pdf term up to the largest observed
count below ``hi`` and a second ``cumsum`` gives the tail.  Working in logs
keeps a first term such as ``f(0) ≈ e^−418`` (``N = 6·10⁶``, ``K = 4800``,
``m = 5·10⁵``) from underflowing before the sum.  Counts below ``lo`` read
exactly 0 and counts from ``hi`` on read exactly 1.

Measured against exact rationals (``math.comb``), the relative error is at
most 1.5e-14 over every ``(N, K, m, n)`` with ``N ≤ 60``, 9e-15 at
``N = 10⁶, K = 800, m = 5·10⁴`` and 5e-14 at the ``e^−418`` point above,
where the spacing of doubles near ``log f = −418`` alone is 6e-14.  SciPy's
``hypergeom.cdf`` is off by up to 1.3e-9 at those two large points.

Because a candidate's P-value never falls as its count grows, stage 1's
Holm–Bonferroni step-down is a count threshold (:func:`rare_candidates`,
:func:`~repro.core.multiple_testing.holm_count_threshold`): the pruned
candidates are exactly those whose count lies below one cut.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .multiple_testing import holm_count_threshold

__all__ = [
    "left_tail_table",
    "rare_candidates",
    "rare_threshold",
    "underrepresentation_pvalue",
    "underrepresentation_pvalues",
]


def rare_threshold(total_rows: int, sigma: float) -> int:
    """``⌈σN⌉`` — the smallest candidate size that does *not* count as rare."""
    if total_rows < 0:
        raise ValueError(f"total_rows must be non-negative, got {total_rows}")
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must be in [0, 1], got {sigma}")
    return int(np.ceil(sigma * total_rows))


def underrepresentation_pvalue(
    observed: int, total_rows: int, sigma: float, sample_size: int
) -> float:
    """P-value of the under-representation test for a single candidate."""
    return float(
        underrepresentation_pvalues(
            np.asarray([observed]), total_rows, sigma, sample_size
        )[0]
    )


def underrepresentation_pvalues(
    observed: np.ndarray, total_rows: int, sigma: float, sample_size: int
) -> np.ndarray:
    """Vectorized stage-1 P-values ``Σ_{j≤n_i} f(j; N, ⌈σN⌉, m)`` for all candidates.

    Shares computation across candidates: every count is looked up in one
    cached table of tails (:func:`left_tail_table`), mirroring the paper's
    shared-computation optimization (Section 3.5, "Computational
    Complexity").
    """
    counts = _checked_counts(observed, total_rows, sample_size)
    threshold = rare_threshold(total_rows, sigma)
    if threshold == 0:
        # sigma == 0: nothing is rare; the null (N_i >= 0) always holds and
        # the left tail at any count is 1.
        return np.ones_like(counts, dtype=np.float64)
    table = left_tail_table(total_rows, threshold, sample_size)
    return table[np.minimum(counts, table.size - 1, dtype=np.intp)]


def rare_candidates(
    observed: np.ndarray,
    total_rows: int,
    sigma: float,
    sample_size: int,
    alpha: float,
) -> np.ndarray:
    """Stage 1's prune mask: the candidates whose "not rare" null
    Holm–Bonferroni rejects at family-wise level ``alpha``.

    Equal to ``holm_bonferroni(underrepresentation_pvalues(observed, ...),
    alpha)``, but as a count threshold: the P-value never falls as the count
    grows, so the step-down walks the histogram of counts upward
    (:func:`~repro.core.multiple_testing.holm_count_threshold`) and the
    rejected set is every count below the first one that fails.  Cost
    ``O(|V_Z| + min(⌈σN⌉, m))``, with no sort.
    """
    counts = _checked_counts(observed, total_rows, sample_size)
    threshold = rare_threshold(total_rows, sigma)
    if threshold == 0:
        pvalue_by_count = np.ones(1)  # sigma == 0: every P-value is 1
    else:
        pvalue_by_count = left_tail_table(total_rows, threshold, sample_size)
    return counts < holm_count_threshold(counts, pvalue_by_count, alpha)


def _checked_counts(
    observed: np.ndarray, total_rows: int, sample_size: int
) -> np.ndarray:
    counts = np.asarray(observed)
    if counts.ndim != 1:
        raise ValueError("observed must be a 1-D array of per-candidate counts")
    if counts.size and counts.min() < 0:
        raise ValueError("observed counts must be non-negative")
    if sample_size < 0:
        raise ValueError(f"sample_size must be non-negative, got {sample_size}")
    if sample_size > total_rows:
        raise ValueError(
            f"cannot draw {sample_size} samples without replacement from {total_rows} rows"
        )
    return counts


@lru_cache(maxsize=32)
def left_tail_table(total_rows: int, threshold: int, sample_size: int) -> np.ndarray:
    """``P(HypGeo(N, K, m) ≤ c)`` for ``c = 0..min(K, m)``, read-only.

    The last entry is 1; a count past it reads that entry.  Tables are
    cached process-wide, at most 32 of them (least recently used first
    out), and shared by every caller: ``functools.lru_cache`` is safe to
    call from several threads, and the returned array cannot be written.
    """
    hi = min(threshold, sample_size)
    table = _left_tail(np.arange(hi + 1), total_rows, threshold, sample_size)
    table.setflags(write=False)
    return table


def _left_tail(sorted_counts: np.ndarray, n: int, k: int, m: int) -> np.ndarray:
    """``P(HypGeo(n, k, m) ≤ c)`` for each of the ascending ``sorted_counts``."""
    lo, hi = max(0, m + k - n), min(k, m)
    tail = (sorted_counts >= hi).astype(np.float64)
    inside = np.flatnonzero((sorted_counts >= lo) & (sorted_counts < hi))
    if inside.size == 0:
        return tail
    # The first term's product (module docstring), over the shorter factor.
    a, b = (k, m) if lo == 0 else (n - k, n - m)
    i = np.arange(min(a, b), dtype=np.float64)
    log_first = np.log1p(-max(a, b) / (n - i)).sum()
    j = np.arange(lo, int(sorted_counts[inside[-1]]), dtype=np.float64)
    ratios = (k - j) * (m - j) / ((j + 1) * (n - k - m + j + 1))
    log_pmf = np.concatenate(([log_first], log_first + np.cumsum(np.log(ratios))))
    cdf = np.cumsum(np.exp(log_pmf))
    # Rounding can carry a running sum that is ~1 a few ulps past it.
    tail[inside] = np.minimum(cdf[sorted_counts[inside] - lo], 1.0)
    return tail
