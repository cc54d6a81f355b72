"""SUM aggregations via measure-biased sampling (paper Appendix A.1.1).

To match bar charts of ``SELECT X, SUM(Y) ... GROUP BY X``, FastMatch uses a
*measure-biased* sample (Sample+Seek [28]): tuples enter the sample with
probability proportional to their measure ``Y``.  Over such a sample, plain
COUNT estimates are unbiased estimates of the SUM distribution, so HistSim
runs unchanged — it just consumes the measure-biased stream.

The offline pass that builds the biased sample is the "one additional
complete pass per measure attribute" the appendix mentions.
"""

from __future__ import annotations

import numpy as np

from ..core.sampler import ArraySampler

__all__ = ["measure_biased_order", "MeasureBiasedSampler", "exact_sum_histograms"]


def measure_biased_order(measure: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A random permutation where earlier positions are measure-biased.

    Uses Efraimidis–Spirakis weighted reservoir keys: sorting rows by
    ``u^(1/y)`` descending yields a weighted sample *without replacement* —
    any prefix of the order is a measure-biased sample.  Zero-measure rows
    sort last (they contribute nothing to any SUM).
    """
    measure = np.asarray(measure, dtype=np.float64)
    if measure.ndim != 1:
        raise ValueError("measure must be a 1-D array")
    if np.any(measure < 0):
        raise ValueError("measure values must be non-negative")
    keys = np.full(measure.size, -np.inf)
    positive = measure > 0
    u = rng.random(int(positive.sum()))
    # log(u)/y is monotone in u^(1/y); work in logs for numerical range.
    keys[positive] = np.log(u) / measure[positive]
    return np.argsort(-keys, kind="stable")


class MeasureBiasedSampler(ArraySampler):
    """A TupleSampler whose COUNT estimates converge to SUM(Y) shares.

    Materializes a with-replacement stream of rows drawn with probability
    proportional to the measure — the Sample+Seek construction [28] — and
    wraps :class:`ArraySampler` over it, so all of HistSim (stages, budgets,
    tests) runs verbatim; only the sampling measure changed.  Theorem 1's
    with-replacement form applies directly.  Guarantees then hold with
    respect to the measure-weighted distributions, exactly as Appendix
    A.1.1 argues.
    """

    def __init__(
        self,
        z: np.ndarray,
        x: np.ndarray,
        measure: np.ndarray,
        num_candidates: int,
        num_groups: int,
        rng: np.random.Generator,
        batch_size: int = 8192,
    ) -> None:
        z = np.asarray(z)
        x = np.asarray(x)
        measure = np.asarray(measure, dtype=np.float64)
        if not (z.shape == x.shape == measure.shape):
            raise ValueError("z, x, and measure must have equal shapes")
        if np.any(measure < 0) or measure.sum() <= 0:
            raise ValueError("measure must be non-negative with positive total")
        draws = rng.choice(z.size, size=z.size, replace=True, p=measure / measure.sum())
        super().__init__(
            z[draws], x[draws], num_candidates, num_groups, rng, batch_size=batch_size
        )


def exact_sum_histograms(
    z: np.ndarray,
    x: np.ndarray,
    measure: np.ndarray,
    num_candidates: int,
    num_groups: int,
) -> np.ndarray:
    """Ground-truth ``SUM(Y)`` histograms: the matrix HistSim's output
    should reconstruct (in normalized shape) when fed the biased stream."""
    z = np.asarray(z, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    measure = np.asarray(measure, dtype=np.float64)
    if not (z.shape == x.shape == measure.shape):
        raise ValueError("z, x, and measure must have equal shapes")
    out = np.zeros((num_candidates, num_groups), dtype=np.float64)
    np.add.at(out, (z, x), measure)
    return out
