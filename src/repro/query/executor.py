"""Exact group-by executor: ground truth for audits and the Scan baseline.

Evaluates every candidate histogram of a Definition 1 template in one pass
(vectorized two-dimensional ``bincount``), exactly what the paper's Scan
baseline computes.  The counting itself routes through an
:class:`~repro.parallel.ExecutionBackend` — the pass is embarrassingly
shardable, so a sharded backend partitions the rows across its worker pool
and merges by exact integer addition, byte-identical to the serial pass.
"""

from __future__ import annotations

import numpy as np

from ..parallel.backend import ExecutionBackend, SerialBackend
from ..storage.table import ColumnTable
from .predicate import TruePredicate
from .spec import HistogramQuery

__all__ = ["exact_candidate_counts", "exact_histogram"]


def exact_candidate_counts(
    table: ColumnTable,
    query: HistogramQuery,
    backend: ExecutionBackend | None = None,
    row_filter: np.ndarray | None = None,
) -> np.ndarray:
    """The full ``(|V_Z|, |V_X|)`` matrix of exact grouped counts.

    ``backend`` selects how the counting pass executes (default: serial);
    results are byte-identical across backends.  ``row_filter`` is the
    query's predicate mask over ``table`` when the caller already holds it
    (a session's filter cache); without it the predicate is evaluated here.
    """
    query.validate_against(table)
    num_z, num_x = query.cardinalities(table)
    if isinstance(query.predicate, TruePredicate):
        row_filter = None
    elif row_filter is None:
        row_filter = query.predicate.mask(table)
    resolved = backend if backend is not None else SerialBackend()
    return resolved.count_table(
        table,
        query.candidate_attribute,
        query.grouping_attribute,
        num_z,
        num_x,
        row_filter=row_filter,
    )


def exact_histogram(table: ColumnTable, query: HistogramQuery, candidate: int) -> np.ndarray:
    """One candidate's exact histogram (the query of Definition 1 verbatim)."""
    num_z, _ = query.cardinalities(table)
    if not 0 <= candidate < num_z:
        raise ValueError(f"candidate {candidate} out of range [0, {num_z})")
    return exact_candidate_counts(table, query)[candidate]
