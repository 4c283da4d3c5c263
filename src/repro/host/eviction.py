"""LRU/TTL bookkeeping for per-session state tables.

Long-running analysis must keep flow state *flat*: the paper's target
workloads see millions of flows, and any table keyed by 5-tuples grows
without bound unless idle sessions expire and a hard cap backstops
bursts.  :class:`SessionLRU` is the recency bookkeeping behind the
shared ledger (:class:`repro.host.flowtable.FlowTable`), and so behind
the flow layer (:class:`repro.host.demux.FlowDemux`) every flow-content
app runs on.  It tracks recency only; the owner closes the session
state the yielded keys name (final-flush semantics — an evicted flow's
handler still gets its ``end()``, so a Bro connection still raises
``connection_state_remove``).

Two distinct removal causes, counted separately by the owners:

* **expired** — idle longer than the TTL (network time, not wall
  clock: replayed traces age sessions exactly as a live capture
  would);
* **evicted** — the table hit its entry cap (or memory budget) and the
  least-recently-active session was sacrificed.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterator, Optional

__all__ = ["SessionLRU"]


class SessionLRU:
    """Recency ordering over session keys.

    ``touch(key, now)`` records activity (inserting on first touch),
    ``remove(key)`` forgets a key closed by its owner, and the two
    harvest generators pop and yield the keys to close — the owner
    performs the actual close while iterating.
    """

    __slots__ = ("_order",)

    def __init__(self) -> None:
        self._order: "OrderedDict[Hashable, float]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._order

    def touch(self, key: Hashable, now: float) -> None:
        """Mark *key* active at *now* and move it to most-recent."""
        self._order[key] = now
        self._order.move_to_end(key)

    def remove(self, key: Hashable) -> None:
        """Forget *key* (no-op when absent)."""
        self._order.pop(key, None)

    def oldest(self) -> Optional[Hashable]:
        return next(iter(self._order), None)

    def expired(self, deadline: float) -> Iterator[Hashable]:
        """Pop and yield every key last active at or before *deadline*,
        oldest first."""
        while self._order:
            key = next(iter(self._order))
            if self._order[key] > deadline:
                return
            del self._order[key]
            yield key

    def overflow(self, max_entries: int) -> Iterator[Hashable]:
        """Pop and yield oldest keys until at most *max_entries*
        remain."""
        while len(self._order) > max_entries:
            key, __ = self._order.popitem(last=False)
            yield key
