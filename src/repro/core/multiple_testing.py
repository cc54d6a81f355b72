"""Family-wise error control (paper Section 3.2 and Lemma 4).

Two testers are used by HistSim:

- :func:`holm_bonferroni` — stage 1 rejects a *subset* of "candidate i is not
  rare" nulls while controlling family-wise type-1 error.  Holm's step-down
  procedure is uniformly more powerful than plain Bonferroni and valid under
  arbitrary dependence.  Stage 1's P-values are a non-decreasing function
  of each candidate's sample count, so HistSim runs the same procedure as
  a count threshold (:func:`holm_count_threshold`): one pass over the
  histogram of counts instead of a sort of the P-values.
- :func:`simultaneous_rejection` — stage 2's all-or-nothing
  union-intersection tester (Lemma 4): reject *every* null iff
  ``max_i p_i ≤ δ_upper``; this rejects at least one true null with
  probability at most ``δ_upper``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "holm_bonferroni",
    "holm_count_threshold",
    "bonferroni",
    "simultaneous_rejection",
    "simultaneous_rejection_log",
]


def _validate_pvalues(pvalues: np.ndarray) -> np.ndarray:
    p = np.asarray(pvalues, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("p-values must form a 1-D array")
    if p.size and (np.any(p < 0) or np.any(p > 1) or np.any(np.isnan(p))):
        raise ValueError("p-values must lie in [0, 1]")
    return p


def _validate_level(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"significance level must be in (0, 1), got {alpha}")


def holm_bonferroni(pvalues: np.ndarray, alpha: float) -> np.ndarray:
    """Holm's step-down procedure at family-wise level ``alpha``.

    Returns a boolean mask of rejected hypotheses.  Sort the P-values
    ascending; walking up, the j-th smallest (1-based) rejects while
    ``p_(j) ≤ alpha / (n − j + 1)``; the first failure stops all further
    rejections (paper Section 3.2).
    """
    p = _validate_pvalues(pvalues)
    _validate_level(alpha)
    n = p.size
    rejected = np.zeros(n, dtype=bool)
    if n == 0:
        return rejected
    order = np.argsort(p, kind="stable")
    thresholds = alpha / (n - np.arange(n))
    passes = p[order] <= thresholds
    # np.argmin on an all-True array returns 0; cumprod handles the step-down.
    still_rejecting = np.cumprod(passes).astype(bool)
    rejected[order[still_rejecting]] = True
    return rejected


def holm_count_threshold(
    counts: np.ndarray, pvalue_by_count: np.ndarray, alpha: float
) -> int:
    """Holm's step-down when each P-value is a non-decreasing function of
    an integer count: returns the cut ``c`` such that the procedure rejects
    exactly the hypotheses with ``count < c``.

    ``pvalue_by_count[c]`` is the P-value of a count ``c``; a count past the
    table's end reads its last entry.  Sorted by count, the ``j(c)``
    hypotheses with smaller counts come first, so the smallest threshold a
    count-``c`` hypothesis meets is ``alpha / (n − j(c))``.  Walking the
    histogram of counts upward, the first count whose P-value exceeds that
    threshold stops the step-down.  Equal counts have equal P-values and
    later positions only larger thresholds, so a tie group passes or fails
    whole, as in :func:`holm_bonferroni` over the looked-up P-values (the
    same divisions, so the same bits).  Cost ``O(n + len(pvalue_by_count))``.
    """
    p = _validate_pvalues(pvalue_by_count)
    _validate_level(alpha)
    if p.size == 0 or np.any(np.diff(p) < 0):
        raise ValueError("pvalue_by_count must be a non-empty, non-decreasing table")
    counts = np.asarray(counts)
    hist = np.bincount(np.minimum(counts, p.size - 1, dtype=np.intp), minlength=p.size)
    present = np.flatnonzero(hist)
    smaller = (np.cumsum(hist) - hist)[present]  # j(c) at each present count
    fails = p[present] > alpha / (counts.size - smaller)
    if fails.any():
        return int(present[np.argmax(fails)])
    return int(counts.max()) + 1 if counts.size else 0


def bonferroni(pvalues: np.ndarray, alpha: float) -> np.ndarray:
    """Plain Bonferroni at level ``alpha`` (reference baseline for tests)."""
    p = _validate_pvalues(pvalues)
    _validate_level(alpha)
    if p.size == 0:
        return np.zeros(0, dtype=bool)
    return p <= alpha / p.size


def simultaneous_rejection(pvalues: np.ndarray, delta_upper: float) -> bool:
    """Lemma 4's all-or-nothing tester: reject all nulls iff ``max p_i ≤ δ_upper``."""
    p = _validate_pvalues(pvalues)
    _validate_level(delta_upper)
    if p.size == 0:
        return True
    return bool(np.max(p) <= delta_upper)


def simultaneous_rejection_log(log_pvalues: np.ndarray, delta_upper: float) -> bool:
    """Log-space variant of :func:`simultaneous_rejection`.

    Stage-2 P-values of the form ``2^|V_X|·exp(−ε²n/2)`` are computed in log
    space to avoid overflow at large ``|V_X|``; the comparison happens there
    too.  An empty family rejects vacuously.
    """
    _validate_level(delta_upper)
    log_p = np.asarray(log_pvalues, dtype=np.float64)
    if log_p.ndim != 1:
        raise ValueError("log p-values must form a 1-D array")
    if log_p.size == 0:
        return True
    if np.any(np.isnan(log_p)) or np.any(log_p > 0.0 + 1e-12):
        raise ValueError("log p-values must be <= 0 and not NaN")
    return bool(np.max(log_p) <= np.log(delta_upper))
