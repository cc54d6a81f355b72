"""Block-selection policies (paper Section 4.2, Challenge 3).

Given a window of candidate blocks and the set of *active* candidates (those
still needing fresh samples), a policy decides which blocks to read and what
the decision itself costs:

- :class:`ScanAllPolicy` — read everything (ScanMatch): free decisions.
- :class:`AnyActiveSyncPolicy` — Algorithm 2: per block, probe active
  candidates' bitmaps in order until one is present; every probe is a
  synchronous cache-line fetch, and the decision cost serializes with I/O
  (SyncMatch).
- :class:`AnyActiveLookaheadPolicy` — Algorithm 3: per active candidate,
  stream the window's contiguous bits; cache-efficient, and the decision
  overlaps I/O (FastMatch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bitmap.bitmap_index import BlockBitmapIndex
from ..storage.cost_model import CACHELINE_BITS, CostModel

__all__ = [
    "PolicyDecision",
    "ScanAllPolicy",
    "AnyActiveSyncPolicy",
    "AnyActiveLookaheadPolicy",
    "POLICIES",
]


@dataclass(frozen=True)
class PolicyDecision:
    """Outcome of block selection for one window.

    ``read_mask`` aligns with the window's candidate block array;
    ``mark_cost_ns`` is the cost of making the decision; ``overlaps_io``
    says whether that cost runs on a separate thread (pipelined with I/O) or
    serializes with it; ``probes`` counts bitmap touches for reporting.
    """

    read_mask: np.ndarray
    mark_cost_ns: float
    overlaps_io: bool
    probes: int


class ScanAllPolicy:
    """No pruning: every candidate block is read (ScanMatch)."""

    name = "scan_all"
    overlaps_io = True

    def select(
        self,
        index: BlockBitmapIndex,
        blocks: np.ndarray,
        active_values: np.ndarray,
        cost_model: CostModel,
        resident: bool,
    ) -> PolicyDecision:
        return PolicyDecision(
            read_mask=np.ones(blocks.size, dtype=bool),
            mark_cost_ns=0.0,
            overlaps_io=True,
            probes=0,
        )


class AnyActiveSyncPolicy:
    """Algorithm 2: per-block early-exit probing, serialized with I/O.

    For block ``b`` the probe loop touches active candidates in order until
    one's bitmap bit is set; a read costs ``first_hit + 1`` probes, a skip
    costs ``|active|`` probes.  Each probe is an isolated cache-line fetch
    whose latency depends on whether the active bitmaps are L3-resident —
    the Section 5.4 pathology at high ``|V_Z|``.
    """

    name = "any_active_sync"
    overlaps_io = False

    def select(
        self,
        index: BlockBitmapIndex,
        blocks: np.ndarray,
        active_values: np.ndarray,
        cost_model: CostModel,
        resident: bool,
    ) -> PolicyDecision:
        if blocks.size == 0 or active_values.size == 0:
            return PolicyDecision(
                read_mask=np.zeros(blocks.size, dtype=bool),
                mark_cost_ns=0.0,
                overlaps_io=False,
                probes=0,
            )
        lo = int(blocks.min())
        hi = int(blocks.max()) + 1
        first = index.first_present(active_values, lo, hi)[blocks - lo]
        found = first < active_values.size
        probes = np.where(found, first + 1, active_values.size)
        total_probes = int(probes.sum())
        return PolicyDecision(
            read_mask=found,
            mark_cost_ns=cost_model.probe_cost(total_probes, resident),
            overlaps_io=False,
            probes=total_probes,
        )


class AnyActiveLookaheadPolicy:
    """Algorithm 3: mark a whole lookahead batch per candidate, overlapping I/O.

    The inner loop streams the window's contiguous bits for one candidate at
    a time, so each candidate costs ``⌈span/512⌉`` cache-line fetches plus a
    per-bit scan — and the marking happens on the lookahead thread while the
    I/O manager drains the previous batch (Figure 7).
    """

    name = "any_active_lookahead"
    overlaps_io = True

    def select(
        self,
        index: BlockBitmapIndex,
        blocks: np.ndarray,
        active_values: np.ndarray,
        cost_model: CostModel,
        resident: bool,
    ) -> PolicyDecision:
        if blocks.size == 0 or active_values.size == 0:
            return PolicyDecision(
                read_mask=np.zeros(blocks.size, dtype=bool),
                mark_cost_ns=0.0,
                overlaps_io=True,
                probes=0,
            )
        lo = int(blocks.min())
        hi = int(blocks.max()) + 1
        read_mask = index.any_present(active_values, lo, hi)[blocks - lo]
        span = hi - lo
        lines = -(-span // CACHELINE_BITS)
        return PolicyDecision(
            read_mask=read_mask,
            mark_cost_ns=cost_model.lookahead_mark_cost(
                active_values.size, span, resident
            ),
            overlaps_io=True,
            probes=int(active_values.size) * lines,
        )


class DensityAnyActivePolicy:
    """AnyActive over *predicate* candidates via density maps (Appendix A.1.2).

    Candidates defined by boolean predicates over the candidate attribute
    cannot use plain presence bitmaps; the density map answers "how many
    tuples in this block match any active candidate's value set?".  The
    ``active_values`` passed by the engine are interpreted through
    ``candidate_value_masks``: row ``i`` gives candidate ``i``'s accepted
    ``Z`` values.
    """

    name = "density_any_active"
    overlaps_io = True

    def __init__(self, candidate_value_masks: np.ndarray, density_map) -> None:
        masks = np.asarray(candidate_value_masks, dtype=bool)
        if masks.ndim != 2:
            raise ValueError("candidate_value_masks must be (candidates, values)")
        self.candidate_value_masks = masks
        self.density_map = density_map

    def select(
        self,
        index: BlockBitmapIndex,
        blocks: np.ndarray,
        active_values: np.ndarray,
        cost_model: CostModel,
        resident: bool,
    ) -> PolicyDecision:
        if blocks.size == 0 or active_values.size == 0:
            return PolicyDecision(
                read_mask=np.zeros(blocks.size, dtype=bool),
                mark_cost_ns=0.0,
                overlaps_io=True,
                probes=0,
            )
        if active_values.max() >= self.candidate_value_masks.shape[0]:
            raise ValueError("active candidate index outside the mask table")
        union = self.candidate_value_masks[active_values].any(axis=0)
        lo = int(blocks.min())
        hi = int(blocks.max()) + 1
        per_block = self.density_map.tuples_matching(union, lo, hi)
        read_mask = per_block[blocks - lo] > 0
        # Density entries are wider than bits; charge one line per 64
        # (value, count) pairs streamed, batched like the lookahead path.
        span = hi - lo
        lines = -(-span // 64)
        return PolicyDecision(
            read_mask=read_mask,
            mark_cost_ns=cost_model.lookahead_mark_cost(1, lines * CACHELINE_BITS, resident),
            overlaps_io=True,
            probes=lines,
        )


#: Policy registry used by the FastMatch runner.
POLICIES = {
    ScanAllPolicy.name: ScanAllPolicy,
    AnyActiveSyncPolicy.name: AnyActiveSyncPolicy,
    AnyActiveLookaheadPolicy.name: AnyActiveLookaheadPolicy,
    DensityAnyActivePolicy.name: DensityAnyActivePolicy,
}
