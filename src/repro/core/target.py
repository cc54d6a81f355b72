"""Visual-target specification (paper Section 2.1, "Visual Target Specification").

A visual target is an ``|V_X|``-tuple ``q`` of non-negative reals.  Analysts
specify it three ways in the paper's experiments (Table 3):

- an explicit vector (FLIGHTS-q3's ``[0.25, 0.125, …]``),
- another candidate's histogram (FLIGHTS-q1's Chicago ORD, the Greece
  example), resolved against exact data, and
- the candidate closest to uniform (most other queries), also resolved
  against exact data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import candidate_distances

__all__ = ["TargetSpec", "uniform_target", "resolve_target"]


def uniform_target(num_groups: int) -> np.ndarray:
    """The uniform distribution over ``num_groups`` histogram buckets."""
    if num_groups < 1:
        raise ValueError(f"num_groups must be >= 1, got {num_groups}")
    return np.full(num_groups, 1.0 / num_groups)


@dataclass(frozen=True)
class TargetSpec:
    """Declarative description of how to obtain the target vector ``q``.

    Exactly one of the three modes is used, selected by ``kind``:

    - ``"explicit"``: ``vector`` is the target.
    - ``"candidate"``: the exact histogram of candidate index ``candidate``.
    - ``"closest_to_uniform"``: the exact candidate histogram with the
      smallest normalized-L1 distance to uniform (Table 3's default).
    """

    kind: str = "closest_to_uniform"
    vector: tuple[float, ...] | None = None
    candidate: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("explicit", "candidate", "closest_to_uniform"):
            raise ValueError(f"unknown target kind: {self.kind!r}")
        if self.kind == "explicit":
            if self.vector is None:
                raise ValueError("explicit targets require a vector")
            if not np.isfinite(np.asarray(self.vector, dtype=np.float64)).all():
                raise ValueError("explicit target entries must be finite")
        if self.kind == "candidate" and self.candidate is None:
            raise ValueError("candidate targets require a candidate index")


def resolve_target(spec: TargetSpec, exact_counts: np.ndarray) -> np.ndarray:
    """Materialize ``q`` from a spec and the exact per-candidate count matrix.

    ``exact_counts`` has shape ``(num_candidates, num_groups)`` and comes from
    the exact executor (or, in a deployment, from a previously rendered
    visualization the analyst pointed at).
    """
    exact_counts = np.asarray(exact_counts, dtype=np.float64)
    if exact_counts.ndim != 2:
        raise ValueError("exact_counts must have shape (num_candidates, num_groups)")
    num_candidates, num_groups = exact_counts.shape

    if spec.kind == "explicit":
        q = np.asarray(spec.vector, dtype=np.float64)
        if q.shape != (num_groups,):
            raise ValueError(
                f"explicit target has {q.shape[0] if q.ndim else 0} entries, "
                f"query produces {num_groups} groups"
            )
        if not np.isfinite(q).all():
            raise ValueError("explicit target entries must be finite")
        if np.any(q < 0) or q.sum() <= 0:
            raise ValueError("explicit target must be non-negative with positive mass")
        return q

    if spec.kind == "candidate":
        if not 0 <= spec.candidate < num_candidates:
            raise ValueError(
                f"candidate index {spec.candidate} out of range [0, {num_candidates})"
            )
        q = exact_counts[spec.candidate]
        if q.sum() <= 0:
            raise ValueError(f"candidate {spec.candidate} has no tuples; cannot be a target")
        return q.copy()

    # closest_to_uniform: ignore empty candidates, pick the min-distance one.
    uniform = uniform_target(num_groups)
    distances = candidate_distances(exact_counts, uniform)
    nonempty = exact_counts.sum(axis=1) > 0
    if not np.any(nonempty):
        raise ValueError("no candidate has any tuples; cannot resolve a target")
    distances = np.where(nonempty, distances, np.inf)
    return exact_counts[int(np.argmin(distances))].copy()
