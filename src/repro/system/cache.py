"""The prepared-artifact cache: one recency order, one eviction rule.

An :class:`ArtifactCache` holds the prepared queries of one
:class:`~repro.system.session.MatchSession`, or of every session of a
:class:`~repro.system.registry.SessionRegistry`, in one least-recently-used
order over ``(session, key)``.  Sessions build artifacts and keep ground
truths; the cache decides which entries stay.  Over a bound,
:meth:`ArtifactCache.trim` first drops orphaned ground truths (bytes bound
only; sessions in the order they joined, each one's coldest first) — so the
same entries are evicted as if no orphan had been kept — then evicts the
least recently used entry of any session except a session's newest (the
one being served): a query larger than the bound still runs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

__all__ = ["ArtifactCache"]


class ArtifactCache:
    """Cached prepared queries of one or more sessions under one budget.

    Parameters
    ----------
    max_cached_queries:
        Bound on the number of cached prepared queries, all sessions
        together; ``None`` (default) leaves it unbounded.
    max_cached_bytes:
        Bound on the sessions' summed
        :attr:`~repro.system.session.MatchSession.cache_bytes`, orphaned
        ground truths included; ``None`` (default) leaves it unbounded.
    """

    def __init__(
        self,
        *,
        max_cached_queries: int | None = None,
        max_cached_bytes: int | None = None,
    ) -> None:
        if max_cached_queries is not None and max_cached_queries < 1:
            raise ValueError(
                f"max_cached_queries must be >= 1, got {max_cached_queries}"
            )
        if max_cached_bytes is not None and max_cached_bytes < 1:
            raise ValueError(f"max_cached_bytes must be >= 1, got {max_cached_bytes}")
        self.max_cached_queries = max_cached_queries
        self.max_cached_bytes = max_cached_bytes
        #: The sessions sharing this cache, in the order they joined.
        self.sessions: list = []
        # (id(session), key) -> (session, prepared), least recently used first.
        self._order: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._order)

    @property
    def nbytes(self) -> int:
        """Bytes held by every session's entries and orphaned ground truths."""
        return sum(session.cache_bytes for session in self.sessions)

    def entries(self, session) -> dict:
        """``session``'s ``key -> PreparedQuery``, least recently used first."""
        return {
            slot[1]: prepared
            for slot, (owner, prepared) in self._order.items()
            if owner is session
        }

    def get(self, session, key: Hashable):
        """``session``'s entry under ``key``, now the newest; ``None`` if absent."""
        slot = (id(session), key)
        found = self._order.get(slot)
        if found is None:
            return None
        self._order.move_to_end(slot)
        return found[1]

    def put(self, session, key: Hashable, prepared) -> None:
        """Cache ``prepared`` as the most recently used entry, then
        :meth:`trim`.  An entry it replaces releases what only it held."""
        slot = (id(session), key)
        replaced = self._order.pop(slot, (None, None))[1]
        self._order[slot] = (session, prepared)
        if replaced is not None and replaced is not prepared:
            session._release_artifacts(replaced)
        self.trim()

    def evict(self, session, key: Hashable) -> bool:
        """Evict one entry unless it is its session's newest; returns
        whether an eviction happened."""
        slot = (id(session), key)
        if slot not in self._evictable():
            return False
        self._evict(slot)
        return True

    def trim(self) -> int:
        """Drop orphans, then evict entries, until within both bounds or only
        the sessions' newest are left; returns the number of entries evicted."""
        evicted = 0
        while True:
            over_bytes = (
                self.max_cached_bytes is not None
                and self.nbytes > self.max_cached_bytes
            )
            if over_bytes and any(s.drop_orphan() for s in self.sessions):
                continue
            over = over_bytes or (
                self.max_cached_queries is not None
                and len(self._order) > self.max_cached_queries
            )
            victims = self._evictable() if over else []
            if not victims:
                return evicted
            self._evict(victims[0])
            evicted += 1

    def discard(self, session) -> list:
        """Remove every entry of a closing ``session``, uncounted; returns
        their prepared queries."""
        slots = [slot for slot, (owner, _) in self._order.items() if owner is session]
        return [self._order.pop(slot)[1] for slot in slots]

    def _evictable(self) -> list:
        """Every slot but each session's newest, least recently used first."""
        newest = {slot[0]: slot for slot in self._order}  # the last one wins
        return [slot for slot in self._order if newest[slot[0]] != slot]

    def _evict(self, slot) -> None:
        session, prepared = self._order.pop(slot)
        session._record_eviction("prepared")
        session._release_artifacts(prepared)
