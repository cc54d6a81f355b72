"""Synthetic-population machinery shared by the three evaluation datasets.

The paper's datasets cannot be shipped (tens of GiB of raw CSV); DESIGN.md
records the substitution.  HistSim's behaviour depends on exactly two things
per query: (a) the candidate selectivity profile (how many rows each ``Z``
value has — drives stage-1 pruning and block presence) and (b) the geometry
of candidate distributions around the target (drives stage-2 separation).
The helpers here control both directly:

- :func:`zipf_weights` / :func:`sizes_from_weights` — skewed selectivities;
- :func:`jittered` — Dirichlet perturbations of a base shape, with
  ``concentration`` controlling expected distance from the base;
- :func:`candidate_column` — the candidate column, candidate-major;
- :func:`conditional_column` — a grouping column whose distribution depends
  on the candidate column;
- :func:`assemble` — final single shared permutation, so generated tables
  are "shuffled by construction" (Challenge 1's preprocessing).

Stream contract: every helper draws exactly what the ``rng`` calls it
stands for would draw, in the same order, so a dataset's bytes are a
function of ``(rows, seed)`` alone.  Where a helper skips NumPy's per-call
overhead it replays the call's own arithmetic: :func:`conditional_column`
and :func:`independent_column` search ``rng.random(size)`` in the CDF that
``rng.choice(G, size, p=dist / dist.sum())`` builds (through an exact
bucket table for large draws), and ``_one_of`` draws the
``integers(0, len(options))`` that ``rng.choice(options)`` draws.

The two column helpers return the values ``rng.choice`` returns at the
width a :class:`~repro.storage.table.ColumnTable` stores them
(:func:`~repro.storage.table.storage_dtype` of ``G``: ``uint8`` up to 256
groups, ``uint16`` up to 65,536), not as ``int64``.  They draw their
uniforms ``_DRAW_CHUNK_ROWS`` at a time.  ``Generator.random`` turns each
64-bit output of the bit generator into one double, so
``rng.random(a)`` then ``rng.random(b)`` is ``rng.random(a + b)`` split in
two, and leaves the same ``bit_generator.state``; the chunks bound the
float64 scratch of a draw without moving a byte of the stream.

``tests/test_data.py`` holds the helpers to their ``rng`` oracles and pins
the sha256 of every column the three builders make.
"""

from __future__ import annotations

import numpy as np

from ..storage.table import storage_dtype

__all__ = [
    "zipf_weights",
    "sizes_from_weights",
    "jittered",
    "peaked",
    "mixture",
    "at_distance",
    "candidate_column",
    "conditional_column",
    "independent_column",
    "assemble",
]


def zipf_weights(n: int, alpha: float) -> np.ndarray:
    """Normalized Zipf weights ``k^-alpha``, descending."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    raw = np.arange(1, n + 1, dtype=np.float64) ** (-alpha)
    return raw / raw.sum()


def sizes_from_weights(
    weights: np.ndarray, total_rows: int, rng: np.random.Generator, min_rows: int = 0
) -> np.ndarray:
    """Integer candidate sizes ~ Multinomial(total, weights), floored at min_rows.

    Flooring keeps engineered candidates above a selectivity threshold; the
    excess is taken from the largest candidate so the total is exact.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if total_rows < 0:
        raise ValueError(f"total_rows must be non-negative, got {total_rows}")
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights must be a non-empty vector")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    if min_rows * weights.size > total_rows:
        raise ValueError(
            f"cannot give {weights.size} candidates {min_rows} rows each "
            f"out of {total_rows}"
        )
    sizes = rng.multinomial(total_rows, weights / weights.sum()).astype(np.int64)
    if min_rows > 0:
        deficit = np.maximum(min_rows - sizes, 0)
        sizes += deficit
        overshoot = int(deficit.sum())
        if overshoot > 0:
            # Reclaim proportionally from everyone's excess above the floor,
            # preserving the shape of the size distribution.
            excess = np.maximum(sizes - min_rows, 0)
            total_excess = int(excess.sum())
            if total_excess < overshoot:
                raise RuntimeError("could not satisfy min_rows flooring")
            quota = np.minimum(
                np.floor(overshoot * excess / total_excess).astype(np.int64), excess
            )
            sizes -= quota
            overshoot -= int(quota.sum())
            while overshoot > 0:
                largest = int(np.argmax(sizes - min_rows))
                if sizes[largest] <= min_rows:
                    raise RuntimeError("could not satisfy min_rows flooring")
                sizes[largest] -= 1
                overshoot -= 1
    return sizes.astype(np.int64)


def jittered(
    base: np.ndarray, concentration: float, rng: np.random.Generator
) -> np.ndarray:
    """A random distribution near ``base``: Dirichlet(base · concentration).

    Larger ``concentration`` → closer to the base shape (expected L1
    distance shrinks roughly as ``1/sqrt(concentration)``).
    """
    base = np.asarray(base, dtype=np.float64)
    if concentration <= 0:
        raise ValueError(f"concentration must be positive, got {concentration}")
    total = base.sum()
    if total <= 0 or (base < 0).any():
        raise ValueError("base must be non-negative with positive mass")
    return _dirichlet_near(base, total, concentration, rng)


def _dirichlet_near(
    base: np.ndarray, total: float, concentration: float, rng: np.random.Generator
) -> np.ndarray:
    """:func:`jittered`'s draw, for a ``base`` already checked, of mass ``total``."""
    alpha = base / total
    alpha *= concentration
    # Dirichlet parameters must be positive; give empty cells a whisper.
    np.maximum(alpha, 1e-3, out=alpha)
    return rng.dirichlet(alpha)


def _one_of(options: tuple[int, ...], rng: np.random.Generator) -> int:
    """``int(rng.choice(options))`` without turning ``options`` into an array.

    With no ``p``, ``Generator.choice`` draws ``integers(0, len(options))``
    and indexes; so does this.
    """
    return options[int(rng.integers(0, len(options)))]


def peaked(num_groups: int, peak: int, mass: float) -> np.ndarray:
    """A distribution with ``mass`` on one group and the rest uniform."""
    if not 0 <= peak < num_groups:
        raise ValueError(f"peak {peak} out of range [0, {num_groups})")
    if not 0.0 <= mass <= 1.0:
        raise ValueError(f"mass must be in [0, 1], got {mass}")
    out = np.full(num_groups, (1.0 - mass) / num_groups)
    out[peak] += mass
    return out / out.sum()


def mixture(components: list[np.ndarray], weights: list[float]) -> np.ndarray:
    """Convex combination of distributions."""
    if len(components) != len(weights) or not components:
        raise ValueError("components and weights must align and be non-empty")
    weights_arr = np.asarray(weights, dtype=np.float64)
    if np.any(weights_arr < 0) or weights_arr.sum() <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    weights_arr = weights_arr / weights_arr.sum()
    out = np.zeros_like(np.asarray(components[0], dtype=np.float64))
    for component, w in zip(components, weights_arr):
        out += w * np.asarray(component, dtype=np.float64)
    return out / out.sum()


def at_distance(
    base: np.ndarray,
    distance: float,
    rng: np.random.Generator,
    peak: int | np.ndarray | None = None,
    jitter: float = 0.0,
    peaks: int = 1,
) -> np.ndarray:
    """A distribution at (almost) exactly L1 ``distance`` from ``base``.

    Mass is removed proportionally from all groups and piled evenly onto
    ``peaks`` peak groups (random by default), yielding an exact L1
    displacement of ``distance``.  Optional Dirichlet ``jitter`` (a
    concentration; 0 disables) roughens the result for realism, moving the
    realized distance slightly.

    The number of peaks controls the L2-per-L1 ratio: one peak concentrates
    the deviation (large L2 for the same L1 — the Figure 2 regime), many
    peaks spread it (small L2).  Mixing both styles is what makes L1 and L2
    rankings genuinely disagree, as on the paper's real data (Table 5).

    This is how the datasets plant candidates at controlled distances from a
    query's target — the quantity HistSim's stage-2 budgets actually react
    to (margins to the split point).
    """
    base = np.asarray(base, dtype=np.float64)
    total = base.sum()
    if total <= 0 or (base < 0).any():
        raise ValueError("base must be non-negative with positive mass")
    base = base / total
    if not 0.0 <= distance < 2.0:
        raise ValueError(f"L1 distance must be in [0, 2), got {distance}")
    if isinstance(peak, (int, np.integer)):
        # One fixed peak (every crowd profile): the array path's arithmetic
        # with k = 1, on scalars.
        if not 0 <= peak < base.size:
            raise ValueError(f"peak indices out of range: [{peak}]")
        k = 1
        if base[peak] > 1.0:
            peak = int(np.argsort(base, kind="stable")[0])
        peak_mass = float(base[peak])
    else:
        if peak is None:
            if not 1 <= peaks <= base.size:
                raise ValueError(f"peaks must be in [1, {base.size}], got {peaks}")
            peak = rng.choice(base.size, size=peaks, replace=False)
        else:
            peak = np.atleast_1d(np.asarray(peak, dtype=np.int64))
        if peak.size == 0 or peak.min() < 0 or peak.max() >= base.size:
            raise ValueError(f"peak indices out of range: {peak}")
        k = peak.size
        if np.any(base[peak] > 1.0 / k):
            # The even-split formula needs every peak to gain mass; fall back
            # to the least-loaded groups if the random choice was unlucky.
            peak = np.argsort(base, kind="stable")[:k]
        peak_mass = float(base[peak].sum())
    headroom = 1.0 - peak_mass
    if headroom <= 0:
        raise ValueError("base already concentrates all mass on the peaks")
    take = distance / (2.0 * headroom)
    if take > 1.0:
        raise ValueError(
            f"distance {distance} unreachable via {k} peak(s) "
            f"(headroom {headroom:.3f})"
        )
    out = base
    out *= 1.0 - take
    out[peak] += take / k
    if jitter > 0:
        # ``out`` is non-negative with unit mass by construction, so
        # jittered's checks cannot fail here.
        out = _dirichlet_near(out, out.sum(), jitter, rng)
    return out


def _choice_cdfs(distributions: np.ndarray) -> np.ndarray:
    """One normalised CDF per row of ``distributions``, after the checks
    ``rng.choice(G, size, p=row / row.sum())`` makes of each row: positive,
    finite mass and no negative entry.  Each CDF is the one that call
    builds: ``cumsum(p)``, divided by its last entry."""
    totals = distributions.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError("each distribution needs positive mass")
    if not np.all(np.isfinite(totals)):
        raise ValueError("distributions must be finite (no NaN or infinity)")
    if distributions.size and distributions.min() < 0:
        raise ValueError("probabilities are not non-negative")
    cdfs = np.cumsum(distributions / totals, axis=1)
    cdfs /= cdfs[:, -1:]
    return cdfs


#: Draws of at least this many rows look their groups up in a bucket table
#: (:func:`_inverse_cdf`).  Measured on a 2-vCPU Xeon over 2 to 351 groups,
#: the table ties or wins from 16k rows and loses below 8k, where building
#: it costs more than it saves.  (Past ``2**_BUCKET_BITS`` groups most
#: buckets are split and it loses ~15%; no builder draws that wide.)
_BUCKET_MIN_ROWS = 1 << 14
#: The table splits [0, 1) into ``2**_BUCKET_BITS`` equal buckets.
_BUCKET_BITS = 12


def _bucket_table(cdf: np.ndarray) -> np.ndarray:
    """Per bucket of [0, 1): the group every uniform in it draws, or -1
    where a CDF entry splits the bucket (see :func:`_inverse_cdf`)."""
    buckets = 1 << _BUCKET_BITS
    edges = np.arange(buckets + 1) / buckets
    at_left_edge = cdf.searchsorted(edges[:-1], side="right")
    below_right_edge = cdf.searchsorted(edges[1:], side="left")
    return np.where(at_left_edge == below_right_edge, at_left_edge, -1)


def _inverse_cdf(
    cdf: np.ndarray, uniforms: np.ndarray, table: np.ndarray | None
) -> np.ndarray:
    """``cdf.searchsorted(uniforms, side="right")``, exactly.

    Given ``cdf``'s :func:`_bucket_table`, each uniform's bucket is looked up
    in it first.  Where no CDF entry lies inside a bucket, every uniform in
    it gets the answer the search gives at the bucket's left edge; only the
    uniforms in the few buckets a CDF entry splits are searched.
    ``u * 2**bits`` is exact, so its integer part is the bucket ``u`` lies in.
    """
    if table is None:
        return cdf.searchsorted(uniforms, side="right")
    out = table[(uniforms * (1 << _BUCKET_BITS)).astype(np.intp)]
    split = np.flatnonzero(out < 0)
    out[split] = cdf.searchsorted(uniforms[split], side="right")
    return out


#: Uniforms drawn per ``rng.random`` call while filling a column.  A draw's
#: scratch (the uniforms, their bucket numbers and the looked-up groups,
#: ~32 B a row) stays near 2 MiB however long the column is.  On a 2-vCPU
#: Xeon, chunks of 2**14 to 2**20 rows build FLIGHTS / POLICE at 1M rows and
#: TAXI at 400k equally fast within the host's noise; at 2**20 the scratch
#: shows in the builders' traced peak (POLICE at 1M: 2.7 → 3.2 times its
#: table), and below 2**16 nothing more comes off it.
_DRAW_CHUNK_ROWS = 1 << 16


def _draw_into(out: np.ndarray, cdf: np.ndarray, rng: np.random.Generator) -> None:
    """Fill ``out`` with ``cdf.searchsorted(rng.random(out.size), side="right")``,
    drawing the uniforms ``_DRAW_CHUNK_ROWS`` at a time."""
    table = _bucket_table(cdf) if out.size >= _BUCKET_MIN_ROWS else None
    for start in range(0, out.size, _DRAW_CHUNK_ROWS):
        stop = min(start + _DRAW_CHUNK_ROWS, out.size)
        out[start:stop] = _inverse_cdf(cdf, rng.random(stop - start), table)


def candidate_column(sizes: np.ndarray) -> np.ndarray:
    """Candidate ``i`` repeated ``sizes[i]`` times, in candidate-major order
    (the order :func:`conditional_column` draws in), as
    ``storage_dtype(len(sizes))``."""
    sizes = np.asarray(sizes)
    return np.repeat(np.arange(sizes.size, dtype=storage_dtype(sizes.size)), sizes)


def conditional_column(
    sizes: np.ndarray, distributions: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Grouping column drawn per candidate: candidate ``i`` contributes
    ``sizes[i]`` values from ``distributions[i]``.

    Returned in candidate-major order — :func:`assemble` applies the final
    shared permutation.  Candidate ``i`` draws what
    ``rng.choice(G, sizes[i], p=distributions[i] / distributions[i].sum())``
    draws; a candidate with no rows draws nothing and is not checked.  The
    column's dtype is ``storage_dtype(G)``.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    distributions = np.asarray(distributions, dtype=np.float64)
    if distributions.ndim != 2 or distributions.shape[0] != sizes.size:
        raise ValueError("distributions must have one row per candidate")
    if sizes.size and sizes.min() < 0:
        raise ValueError("sizes must be non-negative")
    live = np.flatnonzero(sizes)
    cdfs = _choice_cdfs(distributions[live])
    out = np.empty(int(sizes.sum()), dtype=storage_dtype(distributions.shape[1]))
    stop = 0
    for cdf, size in zip(cdfs, sizes[live].tolist()):
        start, stop = stop, stop + size
        _draw_into(out[start:stop], cdf, rng)
    return out


def independent_column(
    total_rows: int, distribution: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """A column independent of the candidate attribute: what
    ``rng.choice(G, total_rows, p=distribution / distribution.sum())`` draws,
    as ``storage_dtype(G)``."""
    distribution = np.asarray(distribution, dtype=np.float64)
    if distribution.ndim != 1:
        raise ValueError("distribution must be 1-D")
    (cdf,) = _choice_cdfs(distribution[np.newaxis])
    out = np.empty(total_rows, dtype=storage_dtype(distribution.size))
    _draw_into(out, cdf, rng)
    return out


def assemble(
    columns: dict[str, np.ndarray], rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Apply one shared random permutation to all columns.

    Rows generated candidate-major become exchangeable — the table is
    pre-shuffled exactly as FastMatch's preprocessing requires.
    """
    lengths = {name: col.size for name, col in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"ragged columns: {lengths}")
    n = next(iter(lengths.values())) if lengths else 0
    order = rng.permutation(n)
    return {name: col[order] for name, col in columns.items()}
