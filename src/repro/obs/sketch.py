"""Bounded streaming quantiles: exact until ``capacity``, reservoir after.

:class:`ServingMetrics` used to keep one float per request forever — an
unbounded-memory bug under long-lived serving.  The sketch replaces those
lists with a two-regime structure:

- **exact regime** (``count <= capacity``): every observation is kept, so
  percentiles are *byte-identical* to the old full-list computation —
  benchmark-scale runs (thousands of requests) see no numeric change.
- **reservoir regime** (``count > capacity``): Vitter's Algorithm R over a
  deterministically-seeded ``random.Random``, giving a uniform sample of
  the stream in O(capacity) memory.  The expected quantile error is
  ``~sqrt(q(1-q)/capacity)`` — under 2% at p99 for the default capacity.

Count, sum, min and max are always exact regardless of regime.
"""

from __future__ import annotations

import random

import numpy as np

__all__ = ["QuantileSketch", "DEFAULT_SKETCH_CAPACITY"]

#: Default retention: exact percentiles up to this many observations.
DEFAULT_SKETCH_CAPACITY = 4096


class QuantileSketch:
    """Bounded-memory quantile estimator over a stream of floats."""

    __slots__ = ("capacity", "count", "total", "minimum", "maximum", "_samples", "_rng")

    def __init__(self, capacity: int = DEFAULT_SKETCH_CAPACITY, seed: int = 0x5EED) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self._samples: list[float] = []
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if len(self._samples) < self.capacity:
            self._samples.append(value)
        else:
            # Algorithm R: keep each of the `count` stream elements with
            # probability capacity/count.
            j = self._rng.randrange(self.count)
            if j < self.capacity:
                self._samples[j] = value

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other``'s stream into this sketch without re-recording.

        Count, sum, min, and max merge exactly.  While the union still fits
        in ``capacity`` the samples simply concatenate, so the merged sketch
        is byte-identical to having observed both streams directly (exact
        regime).  Beyond capacity the retained samples of the two sketches
        are themselves uniform samples of their streams, so a uniform
        sample of the union is drawn by repeatedly picking a source with
        probability proportional to its remaining represented stream mass
        and removing one of its samples at random — each retained sample of
        sketch ``i`` stands for ``count_i / len(samples_i)`` stream
        elements.  The merged quantile error keeps the documented
        ``~sqrt(q(1-q)/capacity)`` reservoir bound.

        ``other`` is read, never mutated.  Returns ``self``.
        """
        if other.count == 0:
            return self
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        n_self, n_other = self.count, other.count
        self.count = n_self + n_other
        if len(self._samples) + len(other._samples) <= self.capacity:
            self._samples.extend(other._samples)
            return self
        ours, theirs = list(self._samples), list(other._samples)
        weight_self = n_self / len(ours) if ours else 0.0
        weight_other = n_other / len(theirs) if theirs else 0.0
        mass_self, mass_other = float(n_self), float(n_other)
        merged: list[float] = []
        while len(merged) < self.capacity and (ours or theirs):
            take_self = bool(ours) and (
                not theirs
                or self._rng.random() * (mass_self + mass_other) < mass_self
            )
            if take_self:
                merged.append(ours.pop(self._rng.randrange(len(ours))))
                mass_self = max(mass_self - weight_self, 0.0)
            else:
                merged.append(theirs.pop(self._rng.randrange(len(theirs))))
                mass_other = max(mass_other - weight_other, 0.0)
        self._samples = merged
        return self

    def copy(self) -> "QuantileSketch":
        """An independent sketch holding the same retained samples and
        exact aggregates, in O(capacity), with no percentile computed.

        A copy is for reading: its reservoir's random stream starts afresh
        rather than continuing this sketch's."""
        twin = QuantileSketch(self.capacity)
        twin.count = self.count
        twin.total = self.total
        twin.minimum = self.minimum
        twin.maximum = self.maximum
        twin._samples = list(self._samples)
        return twin

    # ------------------------------------------------------------- queries

    @property
    def exact(self) -> bool:
        """True while every observation is still retained."""
        return self.count <= self.capacity

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        if self.exact:
            # Matches the historical np.mean(full list) bit-for-bit.
            return float(np.asarray(self._samples, dtype=np.float64).mean())
        return self.total / self.count

    def percentile(self, q: float) -> float:
        if not self._samples:
            return 0.0
        return float(np.percentile(np.asarray(self._samples, dtype=np.float64), q))

    def percentiles(self, qs) -> list[float]:
        if not self._samples:
            return [0.0] * len(qs)
        arr = np.asarray(self._samples, dtype=np.float64)
        return np.percentile(arr, qs).tolist()

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        regime = "exact" if self.exact else "reservoir"
        return f"QuantileSketch(count={self.count}, {regime}/{self.capacity})"
