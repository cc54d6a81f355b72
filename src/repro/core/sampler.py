"""Sampling abstraction HistSim runs against (paper: "HistSim is agnostic to
the sampling approach").

:class:`TupleSampler` is the protocol; :class:`ArraySampler` is the
reference in-memory implementation used by the pure-algorithm API, unit
tests, and the statistical benchmarks.  The block-based engine in
:mod:`repro.sampling.engine` implements the same protocol on top of the
storage and bitmap substrates.

Uniformity contract: every sampler must deliver tuples that are uniform
without replacement *per candidate* — satisfied here by drawing from a
random permutation of the rows (Challenge 1, Section 4.2).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["TupleSampler", "ArraySampler"]


@runtime_checkable
class TupleSampler(Protocol):
    """What HistSim needs from a sampling substrate."""

    @property
    def num_candidates(self) -> int: ...

    @property
    def num_groups(self) -> int: ...

    @property
    def total_rows(self) -> int: ...

    @property
    def fully_scanned(self) -> bool:
        """True once every row has been delivered (estimates are exact)."""
        ...

    def delivered_rows(self) -> np.ndarray:
        """Per-candidate number of rows delivered so far."""
        ...

    def candidate_rows(self) -> np.ndarray | None:
        """Per-candidate total row counts ``N_i`` if known, else None.

        Real deployments know this from index-build statistics; samplers may
        return None, in which case HistSim cannot cap budgets early and simply
        stops when the data runs out.
        """
        ...

    def sample_uniform(self, m: int) -> np.ndarray:
        """Deliver ``m`` fresh uniform tuples; returns a (candidates × groups) count matrix."""
        ...

    def sample_until(self, needed: np.ndarray, max_rows: float | None = None) -> np.ndarray:
        """Deliver fresh tuples until every candidate ``i`` has received
        ``min(needed[i], rows remaining for i)`` of them.

        ``needed`` is a per-candidate float array; ``np.inf`` entries are
        satisfied only by exhausting that candidate.  Returns the fresh
        (candidates × groups) count matrix.

        ``max_rows`` bounds the rows delivered by this call: once at least
        ``max_rows`` rows have been delivered the call returns early, and the
        caller resumes by calling again with the not-yet-satisfied residual
        budgets.  Because samplers consume a fixed scan order, a budget split
        across such incremental requests delivers exactly the same tuples as
        a single unbounded call — the property the resumable stepper
        (:class:`~repro.core.histsim.HistSimStepper`) relies on.
        """
        ...


class ArraySampler:
    """In-memory sampler over encoded ``(z, x)`` columns.

    Parameters
    ----------
    z, x:
        Integer-encoded candidate and group columns, equal length.
    num_candidates, num_groups:
        Domain sizes ``|V_Z|`` and ``|V_X|``.
    rng:
        Source of randomness for the row permutation.
    batch_size:
        Rows delivered per internal step of :meth:`sample_until`; models the
        granularity at which a scan checks its stopping condition.

    The protocol surface and the scan loop read only the domain sizes
    ``_num_candidates`` / ``_num_groups``, the permuted group stream ``_x``,
    the per-candidate ``_totals`` / ``_delivered`` rows, the ``_cursor`` and
    ``_batch_size``: a sampler over another row source sets those in its
    constructor and counts a slice in :meth:`_deliver`.
    """

    def __init__(
        self,
        z: np.ndarray,
        x: np.ndarray,
        num_candidates: int,
        num_groups: int,
        rng: np.random.Generator,
        batch_size: int = 8192,
    ) -> None:
        z = np.asarray(z)
        x = np.asarray(x)
        if z.shape != x.shape or z.ndim != 1:
            raise ValueError("z and x must be 1-D arrays of equal length")
        if z.size and (z.min() < 0 or z.max() >= num_candidates):
            raise ValueError("z codes out of range")
        if x.size and (x.min() < 0 or x.max() >= num_groups):
            raise ValueError("x codes out of range")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._num_candidates = int(num_candidates)
        self._num_groups = int(num_groups)
        order = rng.permutation(z.size)
        self._z = z[order]
        self._x = x[order]
        self._cursor = 0
        self._batch_size = batch_size
        self._delivered = np.zeros(num_candidates, dtype=np.int64)
        self._totals = np.bincount(z, minlength=num_candidates).astype(np.int64)

    @property
    def num_candidates(self) -> int:
        return self._num_candidates

    @property
    def num_groups(self) -> int:
        return self._num_groups

    @property
    def total_rows(self) -> int:
        return self._x.size

    @property
    def fully_scanned(self) -> bool:
        return self._cursor >= self._x.size

    def delivered_rows(self) -> np.ndarray:
        return self._delivered.copy()

    def candidate_rows(self) -> np.ndarray | None:
        return self._totals.copy()

    def _deliver(self, start: int, stop: int) -> np.ndarray:
        """Count the (z, x) pairs in the permuted slice [start, stop)."""
        z = self._z[start:stop]
        x = self._x[start:stop]
        flat = np.bincount(
            z.astype(np.int64) * self._num_groups + x,
            minlength=self._num_candidates * self._num_groups,
        )
        counts = flat.reshape(self._num_candidates, self._num_groups)
        self._delivered += counts.sum(axis=1)
        return counts

    def sample_uniform(self, m: int) -> np.ndarray:
        if m < 0:
            raise ValueError(f"m must be non-negative, got {m}")
        stop = min(self._cursor + m, self._x.size)
        counts = self._deliver(self._cursor, stop)
        self._cursor = stop
        return counts

    def sample_until(self, needed: np.ndarray, max_rows: float | None = None) -> np.ndarray:
        needed = np.asarray(needed, dtype=np.float64)
        if needed.shape != (self._num_candidates,):
            raise ValueError(
                f"needed must have shape ({self._num_candidates},), got {needed.shape}"
            )
        remaining = (self._totals - self._delivered).astype(np.float64)
        goal = np.minimum(np.maximum(needed, 0.0), remaining)
        fresh = np.zeros((self._num_candidates, self._num_groups), dtype=np.int64)
        fresh_rows = np.zeros(self._num_candidates, dtype=np.float64)
        delivered_call = 0
        while np.any(fresh_rows < goal) and not self.fully_scanned:
            if max_rows is not None and delivered_call >= max_rows:
                break
            stop = min(self._cursor + self._batch_size, self._x.size)
            batch = self._deliver(self._cursor, stop)
            self._cursor = stop
            fresh += batch
            fresh_rows += batch.sum(axis=1)
            delivered_call += int(batch.sum())
        return fresh
