"""Auditing a run against the paper's guarantees (Section 2.2 and 5.3).

These helpers are evaluation-side: they compare a :class:`MatchResult`
against exact ground truth (from :mod:`repro.query.executor`) to decide
whether Guarantee 1 (separation) and Guarantee 2 (reconstruction) held, and
compute the Δd metric of Section 5.3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import candidate_distances, l1_distance
from .result import MatchResult

__all__ = ["AuditTruth", "GuaranteeAudit", "audit_result", "true_top_k", "delta_d"]


@dataclass(frozen=True)
class AuditTruth:
    """The side of an audit that depends only on the exact counts and the
    target: true distances, per-candidate rows and their total.

    Every audit of one prepared query shares it
    (``PreparedQuery.audit_truth``), so ``|V_Z| × |V_X|`` ground-truth work is
    paid once per artifact instead of three times per report.
    """

    distances: np.ndarray
    rows: np.ndarray
    total: float

    @classmethod
    def of(cls, exact_counts: np.ndarray, target: np.ndarray) -> "AuditTruth":
        exact_counts = np.asarray(exact_counts, dtype=np.float64)
        distances = candidate_distances(exact_counts, target)
        rows = exact_counts.sum(axis=1)
        distances.setflags(write=False)
        rows.setflags(write=False)
        return cls(distances=distances, rows=rows, total=float(rows.sum()))

    def meets_selectivity(self, sigma: float) -> np.ndarray:
        """Fresh mask of the candidates with ``N_i/N ≥ σ``."""
        if sigma > 0:
            return self.rows / self.total >= sigma
        return np.ones(self.rows.size, dtype=bool)

    def top_k(self, k: int, sigma: float) -> np.ndarray:
        """``M*``: see :func:`true_top_k`."""
        if self.total <= 0:
            raise ValueError("exact counts are empty")
        eligible = self.meets_selectivity(sigma)
        eligible &= self.rows > 0
        order = np.argsort(np.where(eligible, self.distances, np.inf), kind="stable")
        return order[: min(k, int(eligible.sum()))]

    def delta_d(self, returned: np.ndarray, k: int, sigma: float) -> float:
        """Δd of a returned set: see :func:`delta_d`."""
        truth_sum = float(self.distances[self.top_k(k, sigma)].sum())
        returned_sum = float(self.distances[np.asarray(returned, dtype=np.intp)].sum())
        if truth_sum == 0:
            return 0.0 if returned_sum == 0 else float("inf")
        return (returned_sum - truth_sum) / truth_sum


def true_top_k(
    exact_counts: np.ndarray,
    target: np.ndarray,
    k: int,
    sigma: float = 0.0,
) -> np.ndarray:
    """Exact top-k candidate indices among those meeting the selectivity threshold.

    This is ``M*`` as computed by the Scan baseline: candidates with
    ``N_i/N < σ`` are excluded exactly, the rest ranked by true distance.
    """
    return AuditTruth.of(exact_counts, target).top_k(k, sigma)


def delta_d(
    returned: np.ndarray,
    exact_counts: np.ndarray,
    target: np.ndarray,
    k: int,
    sigma: float = 0.0,
) -> float:
    """Total relative error in visual distance, Δd (Section 5.3).

    ``Δd = (Σ_{i∈M} d(r*_i, q) − Σ_{j∈M*} d(r*_j, q)) / Σ_{j∈M*} d(r*_j, q)``
    where ``M*`` is the exact top-k among candidates meeting the selectivity
    threshold.  We evaluate the returned candidates at their *true* distances
    so Δd measures selection quality, not estimation noise; it can be
    negative when the approximate approach returns a low-selectivity
    candidate that is genuinely closer (the paper notes exactly this).
    """
    return AuditTruth.of(exact_counts, target).delta_d(returned, k, sigma)


@dataclass(frozen=True)
class GuaranteeAudit:
    """Outcome of checking one run against both guarantees."""

    separation_ok: bool
    reconstruction_ok: bool
    delta_d: float
    worst_output_distance: float
    worst_reconstruction_error: float

    @property
    def ok(self) -> bool:
        return self.separation_ok and self.reconstruction_ok


def audit_result(
    result: MatchResult,
    exact_counts: np.ndarray,
    target: np.ndarray,
    epsilon: float,
    sigma: float,
    truth: AuditTruth | None = None,
) -> GuaranteeAudit:
    """Check Guarantees 1 and 2 for a finished run against exact ground truth.

    Guarantee 1 (separation): for every candidate ``i`` not in the output
    with selectivity ``N_i/N ≥ σ``,
    ``max_{l ∈ output} d(r*_l, q) − d(r*_i, q) < ε``.

    Guarantee 2 (reconstruction): every output histogram satisfies
    ``d(r_i, r*_i) < ε``.

    ``truth`` is the :class:`AuditTruth` of ``(exact_counts, target)`` when
    the caller holds one (a prepared query does); it is computed here
    otherwise.
    """
    if truth is None:
        truth = AuditTruth.of(exact_counts, target)
    exact_counts = np.asarray(exact_counts)
    returned = np.asarray(result.matching, dtype=np.intp)
    true_distances, rows, total = truth.distances, truth.rows, truth.total

    if returned.size == 0:
        # Empty output is separation-correct only if every candidate is
        # below the selectivity threshold.
        eligible = rows / total >= sigma
        return GuaranteeAudit(
            separation_ok=not bool(np.any(eligible)),
            reconstruction_ok=True,
            delta_d=0.0,
            worst_output_distance=float("nan"),
            worst_reconstruction_error=0.0,
        )

    worst_output = float(true_distances[returned].max())
    eligible_outside = truth.meets_selectivity(sigma)
    eligible_outside[returned] = False
    if eligible_outside.any():
        separation_ok = bool(
            worst_output - float(true_distances[eligible_outside].min()) < epsilon
        )
    else:
        separation_ok = True

    worst_reconstruction = 0.0
    for position, candidate in enumerate(returned):
        err = l1_distance(result.histograms[position], exact_counts[candidate])
        worst_reconstruction = max(worst_reconstruction, err)
    reconstruction_ok = worst_reconstruction < epsilon

    return GuaranteeAudit(
        separation_ok=separation_ok,
        reconstruction_ok=reconstruction_ok,
        delta_d=truth.delta_d(returned, result.k, sigma),
        worst_output_distance=worst_output,
        worst_reconstruction_error=worst_reconstruction,
    )
