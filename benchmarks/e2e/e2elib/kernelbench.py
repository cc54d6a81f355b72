"""Direct ``count_window`` microbench: three kernels x four window shapes.

The ``small_*`` and ``highcard_*`` shapes are what table4_oneshot's
lookahead windows look like; ``large_*`` is fullpass_backends' shape.
Every kernel must return the same matrix for a shape, which is checked.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.parallel import build_pair_codes, count_window
from repro.storage.blocks import BlockLayout

from .metrics import KERNELS

BLOCK_SIZE = 32
ROWS = 1 << 19
REPEATS = 15


def _columns(rng, candidates: int, groups: int):
    z = rng.integers(0, candidates, ROWS).astype(np.uint16 if candidates > 255 else np.uint8)
    x = rng.integers(0, groups, ROWS).astype(np.uint8)
    return z, x, build_pair_codes(z, x, candidates, groups)


def run(seed: int) -> tuple[dict, list[str]]:
    """``{metric name: ns per row}`` (median of REPEATS) and any identity
    failures."""
    rng = np.random.default_rng(seed)
    layout = BlockLayout(ROWS, BLOCK_SIZE)
    low = _columns(rng, 64, 24)
    high = _columns(rng, 7641, 24)  # taxi-q1's 183k-code space
    keep = rng.random(ROWS) < 0.6
    scattered = np.arange(0, 2048, 2, dtype=np.int64)  # 1024 blocks, 32k rows
    contiguous = np.arange(8192, dtype=np.int64)  # one 256k-row run
    shapes = {
        "small_scattered": (low, 64, scattered, None),
        "large_contig": (low, 64, contiguous, None),
        "large_filtered": (low, 64, contiguous, keep),
        "highcard_small": (high, 7641, scattered, None),
    }
    metrics, failures = {}, []
    for shape, ((z, x, codes), candidates, blocks, row_filter) in shapes.items():
        rows = int(layout.rows_per_block(blocks).sum())
        reference = None
        for kernel in KERNELS:
            samples = []
            for _ in range(REPEATS):
                t0 = time.perf_counter_ns()
                counts, _moved = count_window(
                    z, x, blocks, layout, candidates, 24, row_filter=row_filter,
                    codes=codes if kernel == "fused" else None, kernel=kernel,
                )
                samples.append(time.perf_counter_ns() - t0)
            if reference is None:
                reference = counts
            elif not np.array_equal(reference, counts):
                failures.append(f"kernel {kernel} differs from classic on {shape}")
            metrics[f"parallel.kernel.{kernel}.{shape}.ns_per_row"] = (
                statistics.median(samples) / rows, "ns/row")
    return metrics, failures
