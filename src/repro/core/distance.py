"""Distance functions between histograms (paper Definition 2 and Section 2.1).

The paper compares *normalized* histograms: each vector of group counts is
scaled to sum to one so that only the distribution's shape matters.  The
primary metric is the L1 distance between normalized vectors, which equals
twice the total variation distance between the corresponding discrete
distributions.  L2, total-variation and KL variants are provided for the
metric comparisons of Section 2.1 and Table 5.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "normalize",
    "l1_distance",
    "l2_distance",
    "total_variation",
    "kl_divergence",
    "candidate_distances",
    "row_distances",
    "subset_distances",
    "DISTANCE_FUNCTIONS",
]


def normalize(counts: np.ndarray) -> np.ndarray:
    """Scale a non-negative count vector so its entries sum to one.

    An all-zero vector (a candidate with no observed tuples) is returned as a
    zero vector rather than raising; its distance to any distribution is then
    the L1 mass of the other vector, mirroring "no information" gracefully.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim == 0:
        raise ValueError("histogram must be a vector, got a scalar")
    if np.any(counts < 0):
        raise ValueError("histogram counts must be non-negative")
    total = counts.sum(axis=-1, keepdims=True)
    # A zero-total row of non-negative counts is all zeros, so dividing it
    # by 1 instead already yields the zero vector.
    return counts / np.where(total > 0, total, 1.0)


def l1_distance(r: np.ndarray, q: np.ndarray) -> float:
    """Normalized L1 distance ``d(r, q) = || r/1ᵀr − q/1ᵀq ||₁`` (Definition 2)."""
    r_bar = normalize(r)
    q_bar = normalize(q)
    if r_bar.shape[-1] != q_bar.shape[-1]:
        raise ValueError(
            f"histograms must share support: {r_bar.shape[-1]} vs {q_bar.shape[-1]} groups"
        )
    return float(np.abs(r_bar - q_bar).sum())


def l2_distance(r: np.ndarray, q: np.ndarray) -> float:
    """Normalized L2 distance, the metric of SeeDB / Sample+Seek (Section 2.1)."""
    r_bar = normalize(r)
    q_bar = normalize(q)
    if r_bar.shape[-1] != q_bar.shape[-1]:
        raise ValueError(
            f"histograms must share support: {r_bar.shape[-1]} vs {q_bar.shape[-1]} groups"
        )
    return float(np.sqrt(np.square(r_bar - q_bar).sum()))


def total_variation(r: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance; exactly half the normalized L1 distance."""
    return 0.5 * l1_distance(r, q)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p‖q) between normalized histograms.

    Infinite whenever ``q`` places zero mass where ``p`` places positive mass —
    the drawback Section 2.1 cites for rejecting KL as the matching metric.
    """
    p_bar = normalize(p)
    q_bar = normalize(q)
    if p_bar.shape[-1] != q_bar.shape[-1]:
        raise ValueError(
            f"histograms must share support: {p_bar.shape[-1]} vs {q_bar.shape[-1]} groups"
        )
    support = p_bar > 0
    if np.any(q_bar[support] == 0):
        return float("inf")
    return float(np.sum(p_bar[support] * np.log(p_bar[support] / q_bar[support])))


def candidate_distances(counts: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Vectorized normalized-L1 distance of each row of ``counts`` to ``target``.

    ``counts`` has shape ``(num_candidates, num_groups)``.  Rows with zero
    total are assigned the distance of an empty histogram (the L1 mass of the
    normalized target, i.e. 1.0 for a proper distribution), consistent with
    :func:`l1_distance` on a zero vector.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2:
        raise ValueError("counts must have shape (num_candidates, num_groups)")
    q_bar = normalize(target)
    if counts.shape[1] != q_bar.shape[-1]:
        raise ValueError(
            f"candidates have {counts.shape[1]} groups but target has {q_bar.shape[-1]}"
        )
    return row_distances(counts, q_bar)


def row_distances(counts: np.ndarray, q_bar: np.ndarray) -> np.ndarray:
    """:func:`candidate_distances` past its shape checks, to a target that
    :func:`normalize` already scaled (callers that hold one target for many
    calls normalize it once).  Every operation is row-wise, so a row's
    distance has the same bits whichever other rows the matrix holds."""
    return np.abs(normalize(counts) - q_bar[None, :]).sum(axis=1)


def subset_distances(
    counts: np.ndarray,
    q_bar: np.ndarray,
    rows: np.ndarray,
    in_flight: np.ndarray | None = None,
) -> np.ndarray:
    """Distances of the candidates ``rows`` only, as a full-length vector.

    ``rows`` holds sorted, distinct candidate indices (``np.flatnonzero`` of
    an alive mask) and ``q_bar`` a normalized target, as for
    :func:`row_distances`; ``in_flight`` is an optional second count matrix
    added to ``counts`` on those rows (a stage-2 round's fresh counts).
    Only the listed rows are gathered and normalized — the cost is
    ``|rows| × |V_X|``, not ``|V_Z| × |V_X|`` — and when ``rows`` lists every
    candidate the matrices are used as they are, without a gather copy.
    Entries of unlisted candidates are ``inf``; listed ones equal
    :func:`candidate_distances` bit for bit.
    """
    num_candidates = counts.shape[0]
    if rows.size == num_candidates:
        return row_distances(
            counts if in_flight is None else counts + in_flight, q_bar
        )
    gathered = counts[rows]
    if in_flight is not None:
        gathered = gathered + in_flight[rows]
    distances = np.full(num_candidates, np.inf)
    distances[rows] = row_distances(gathered, q_bar)
    return distances


#: Registry used by the metric-comparison benchmarks (Table 5) and the
#: Appendix A.2.2 extension.
DISTANCE_FUNCTIONS = {
    "l1": l1_distance,
    "l2": l2_distance,
    "tv": total_variation,
    "kl": kl_divergence,
}
