"""One-call library front doors: ``match_histograms`` and ``match_many``.

``match_histograms`` wraps the full single-query pipeline — preparation
(shuffle, index, ground truth, target resolution), execution, and audit —
for users who have a :class:`~repro.storage.ColumnTable` and a question,
without needing to touch the system internals.

``match_many`` is the batch counterpart: it drives a whole list of queries
through one :class:`~repro.system.MatchSession`, so the expensive prepared
artifacts are computed once and shared, and execution is interleaved on one
simulated clock with per-query latency and aggregate throughput reporting.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core.config import HistSimConfig
from .core.target import TargetSpec
from .parallel import ExecutionBackend, make_backend
from .query.predicate import Predicate, TruePredicate
from .query.spec import HistogramQuery
from .storage.table import ColumnTable
from .system.fastmatch import DEFAULT_BLOCK_SIZE, PreparedQuery, run_approach
from .system.report import RunReport
from .system.scheduler import ScheduleResult
from .system.session import MatchSession

__all__ = ["match_histograms", "match_many"]


def _as_target_spec(
    target: TargetSpec | np.ndarray | int | None,
) -> TargetSpec:
    """Coerce the user-facing target shorthand into a TargetSpec."""
    if isinstance(target, TargetSpec):
        return target
    if target is None:
        return TargetSpec(kind="closest_to_uniform")
    if isinstance(target, (int, np.integer)):
        return TargetSpec(kind="candidate", candidate=int(target))
    vector = tuple(float(v) for v in np.asarray(target, dtype=np.float64))
    return TargetSpec(kind="explicit", vector=vector)


def match_histograms(
    table: ColumnTable,
    candidate_attribute: str,
    grouping_attribute: str,
    target: TargetSpec | np.ndarray | int | None = None,
    k: int = 10,
    epsilon: float = 0.1,
    delta: float = 0.01,
    sigma: float = 0.0,
    predicate: Predicate | None = None,
    approach: str = "fastmatch",
    seed: int = 0,
    block_size: int = DEFAULT_BLOCK_SIZE,
    audit: bool = True,
    backend: str | ExecutionBackend = "serial",
    workers: int | None = None,
) -> RunReport:
    """Find the top-k candidates whose histograms best match a target.

    Parameters
    ----------
    table:
        The encoded relation ``T`` of Definition 1.
    candidate_attribute, grouping_attribute:
        ``Z`` (one candidate per value) and ``X`` (the histogram support).
    target:
        What to match: a :class:`TargetSpec`, an explicit vector over the
        grouping attribute's values, a candidate index (``int``, meaning
        "most similar to that candidate"), or ``None`` for the candidate
        closest to uniform.
    k, epsilon, delta, sigma:
        Problem 1's parameters (defaults: moderate tolerance, no
        selectivity pruning).
    predicate:
        Optional extra WHERE condition applied to every candidate.
    approach:
        ``"fastmatch"`` (default), ``"scanmatch"``, ``"syncmatch"``, or the
        exact ``"scan"``.
    audit:
        Verify the guarantees against exact ground truth (cheap here, since
        preparation computes it anyway).
    backend, workers:
        Execution backend (``"serial"``/``"sharded"`` or an instance) and
        its worker count.  Results are identical across backends; a backend
        created here is closed before returning, while a passed-in instance
        stays open for reuse.

    Returns
    -------
    RunReport — ``.result.matching`` holds the candidate indices,
    ``.result.histograms`` the estimated visualizations, ``.audit`` the
    guarantee check, ``.elapsed_seconds`` the simulated latency.
    """
    spec = _as_target_spec(target)
    query = HistogramQuery(
        candidate_attribute=candidate_attribute,
        grouping_attribute=grouping_attribute,
        target=spec,
        k=k,
        predicate=predicate or TruePredicate(),
        name=f"match:{candidate_attribute}/{grouping_attribute}",
    )
    config = HistSimConfig(k=k, epsilon=epsilon, delta=delta, sigma=sigma)
    rng = np.random.default_rng(seed)
    prepared = PreparedQuery.prepare(table, query, rng, block_size=block_size)
    owns_backend = not isinstance(backend, ExecutionBackend)
    resolved = make_backend(backend, workers)
    try:
        return run_approach(
            prepared, approach, config, seed=seed, audit=audit, backend=resolved
        )
    finally:
        if owns_backend:
            resolved.close()


def match_many(
    table: ColumnTable,
    queries: Sequence[HistogramQuery],
    *,
    epsilon: float = 0.1,
    delta: float = 0.01,
    sigma: float = 0.0,
    approach: str = "fastmatch",
    seed: int = 0,
    block_size: int = DEFAULT_BLOCK_SIZE,
    audit: bool = True,
    max_step_rows: int | None = None,
    backend: str | ExecutionBackend = "serial",
    workers: int | None = None,
    policy: str = "rr",
) -> ScheduleResult:
    """Run a batch of histogram-matching queries through one shared session.

    Every query's preparation artifacts (shuffle, bitmap index, ground
    truth) are computed once per distinct sub-key and reused; execution is
    interleaved on one simulated clock under ``policy``
    (:data:`repro.serving.POLICIES`; round-robin by default), modelling a
    server working through a concurrent queue.  For *online* arrivals with
    admission control and deadlines, use :class:`repro.FrontDoor` instead.

    Parameters
    ----------
    table:
        The encoded relation all queries run against.
    queries:
        :class:`~repro.query.HistogramQuery` instances; each query's own
        ``k`` is used, with the shared ``epsilon``/``delta``/``sigma``.
    approach, seed, block_size, audit:
        As in :func:`match_histograms`, applied to every query.
    max_step_rows:
        Optional per-step row bound for finer interleaving granularity.
    backend, workers:
        Execution backend shared by every query in the batch (the sharded
        backend's worker pool is spawned once and reused).  A backend
        created here is closed before returning.
    policy:
        Scheduling policy for the drain; per-query results are identical
        under every policy (only latency shape changes).

    Returns
    -------
    ScheduleResult — iterable of per-query
    :class:`~repro.serving.ServingOutcome` in submission order (``.report``
    holds the usual :class:`~repro.system.RunReport`; ``.latency_seconds``
    is the queue latency on the shared clock), plus aggregate
    ``.throughput_qps`` and ``.elapsed_seconds``.
    """
    session = MatchSession(
        table,
        block_size=block_size,
        audit=audit,
        backend=backend,
        workers=workers,
        policy=policy,
    )
    configs = [
        HistSimConfig(k=query.k, epsilon=epsilon, delta=delta, sigma=sigma)
        for query in queries
    ]
    try:
        for query, config in zip(queries, configs):
            session.submit(
                query,
                approach=approach,
                config=config,
                seed=seed,
                max_step_rows=max_step_rows,
            )
        return session.run()
    finally:
        # Ownership-aware: a no-op when the caller passed their own backend.
        session.close()
