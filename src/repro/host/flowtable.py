"""The shared flow ledger: one table for every stateful component.

The paper's per-flow, hash-partitioned state model (§3.2) used to be
re-implemented three times — :class:`repro.host.demux.FlowDemux`,
:class:`repro.apps.bro.conn.ConnectionTracker`, and
:class:`repro.lib.session_table.SessionTable` each carried its own
keying, uid assignment, per-direction accounting, and TTL/LRU/cap
eviction loop.  :class:`FlowTable` is that logic factored out once:

* **keying** — the canonical flow key the packet decoder computes
  (:attr:`repro.net.packet.Decoded.key`: a plain tuple of ints, equal
  to the canonical :class:`~repro.net.flows.FiveTuple`; both directions
  of a connection hit the same entry), with the originator orientation
  captured from the first packet;
* **uid assignment** — explicit uid > pre-assigned ``uid_map`` (the
  parallel dispatcher's arrival-order map) > ``uid_format(serial)``
  (the sequential fallback; the serial counts *every* first-sighted
  flow, matching the dispatcher's serial exactly);
* **accounting** — per-direction packets/bytes, first/last timestamps,
  the TCP flag union;
* **eviction** — the TTL and capacity loops over one
  :class:`~repro.host.eviction.SessionLRU`, with an ``on_evict``
  callback that lets the owner flush its own session state and decide
  whether the eviction is *counted* (tombstoned flows are not);
* **records** — every closed flow seals into a
  :class:`~repro.net.flowrecord.FlowRecord`; ``record_lines()`` is the
  sorted, deterministic export stream.

Owners keep what is genuinely theirs (handlers, reassemblers, analyzer
teardown) and delegate the rest here — see docs/FLOWS.md.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.values import Addr
from ..net.flowrecord import FlowRecord
from .eviction import SessionLRU

__all__ = ["FlowEntry", "FlowTable"]


class FlowEntry:
    """One open flow's ledger state.

    The entry is keyed by the canonical flow key, so both directions
    update the same counters; ``orig_is_first`` remembers which of the
    key's endpoints sent the first packet (the originator).
    """

    __slots__ = ("key", "orig_is_first", "uid", "first_ts", "last_ts",
                 "orig_pkts", "orig_bytes", "resp_pkts", "resp_bytes",
                 "tcp_flags")

    def __init__(self, key, orig_is_first: bool, now: float,
                 uid: Optional[str]):
        self.key = key
        self.orig_is_first = orig_is_first
        self.uid = uid
        self.first_ts = now
        self.last_ts = now
        self.orig_pkts = 0
        self.orig_bytes = 0
        self.resp_pkts = 0
        self.resp_bytes = 0
        self.tcp_flags = 0

    def add(self, now: float, payload_len: int, tcp_flags: int,
            is_orig: bool) -> None:
        self.last_ts = now
        self.tcp_flags |= tcp_flags
        if is_orig:
            self.orig_pkts += 1
            self.orig_bytes += payload_len
        else:
            self.resp_pkts += 1
            self.resp_bytes += payload_len

    def to_record(self, reason: str) -> FlowRecord:
        src, src_port, dst, dst_port, protocol = self.key
        if not self.orig_is_first:
            src, src_port, dst, dst_port = dst, dst_port, src, src_port
        return FlowRecord(
            src=str(Addr.from_value(src)), dst=str(Addr.from_value(dst)),
            src_port=src_port, dst_port=dst_port,
            protocol=protocol, uid=self.uid,
            first_ts=self.first_ts, last_ts=self.last_ts,
            orig_pkts=self.orig_pkts, orig_bytes=self.orig_bytes,
            resp_pkts=self.resp_pkts, resp_bytes=self.resp_bytes,
            tcp_flags=self.tcp_flags, close_reason=reason)


class FlowTable:
    """Keying + uid assignment + accounting + eviction, shared.

    *on_evict(key, reason) -> bool* runs the owner's final flush for a
    TTL/cap victim and returns whether the eviction should be counted
    (``sessions_expired``/``sessions_evicted``); owners that tombstone
    ignored flows return False for them, preserving the historical
    counter semantics exactly.

    The table also serves as bare recency bookkeeping for owners whose
    keys are not 5-tuples (``SessionTable``): ``touch``/``run_eviction``
    work for any hashable key; ledger entries exist only for keys opened
    through :meth:`account` or :meth:`open`.
    """

    def __init__(self, uid_map: Optional[Dict] = None,
                 uid_format: Optional[Callable[[int], str]] = None,
                 max_sessions: Optional[int] = None,
                 session_ttl: Optional[float] = None,
                 on_evict: Optional[Callable] = None):
        self.uid_map = uid_map
        self.uid_format = uid_format
        self.max_sessions = max_sessions
        self.session_ttl = session_ttl
        self.on_evict = on_evict
        self._entries: Dict = {}
        self._lru = SessionLRU()
        self._records: List[FlowRecord] = []
        self.serial = 0
        self.sessions_expired = 0
        self.sessions_evicted = 0

    # -- predicates ---------------------------------------------------------

    @property
    def evicting(self) -> bool:
        """Is any eviction policy armed?"""
        return self.max_sessions is not None or self.session_ttl is not None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get(self, key) -> Optional[FlowEntry]:
        return self._entries.get(key)

    def last_active(self, key) -> Optional[float]:
        return self._lru.last_active(key)

    def oldest(self):
        return self._lru.oldest()

    # -- opening and accounting ---------------------------------------------

    def _uid_for(self, key, uid: Optional[str]) -> Optional[str]:
        if uid is not None:
            return uid
        if self.uid_map is not None:
            mapped = self.uid_map.get(key)
            if mapped is not None:
                return mapped
        if self.uid_format is not None:
            return self.uid_format(self.serial)
        return None

    def open(self, flow, now: float, uid: Optional[str] = None) -> FlowEntry:
        """Open a ledger entry for a first-sighted flow.

        *flow* is the first packet's :class:`~repro.net.packet.Decoded`
        record or directional :class:`~repro.net.flows.FiveTuple`; both
        carry the canonical ``key`` and ``sender_is_first``.  Bumps the
        arrival serial (every first sight counts, ignored or not — the
        dispatcher's pre-assignment counts the same way) and resolves
        the uid: explicit > uid_map > uid_format(serial).
        """
        key = flow.key
        self.serial += 1
        entry = FlowEntry(key, flow.sender_is_first, now,
                          self._uid_for(key, uid))
        self._entries[key] = entry
        return entry

    def account(self, flow, now: float, payload_len: int = 0,
                tcp_flags: int = 0, uid: Optional[str] = None,
                touch: bool = True) -> FlowEntry:
        """Account one packet of *flow* (see :meth:`open`): open on
        first sight, then update last-activity, the per-direction
        counters, and the flag union.

        Owners with their own recency discipline (FlowDemux touches
        only once a clock is known) pass ``touch=False`` and drive
        :meth:`touch`.
        """
        key = flow.key
        entry = self._entries.get(key)
        if entry is None:
            entry = self.open(flow, now, uid=uid)
        entry.add(now, payload_len, tcp_flags,
                  flow.sender_is_first == entry.orig_is_first)
        if touch and self.evicting:
            self._lru.touch(key, now)
        return entry

    def touch(self, key, now: float) -> None:
        """Recency-only touch (bare-key owners, or owners that drive
        the LRU from their own accounting path)."""
        self._lru.touch(key, now)

    # -- closing and eviction -----------------------------------------------

    def close(self, key, reason: str = "finished") -> Optional[FlowEntry]:
        """Seal *key*'s ledger entry into a record (owner-initiated
        close: normal teardown or end-of-run flush)."""
        entry = self._entries.pop(key, None)
        self._lru.remove(key)
        if entry is not None:
            self._records.append(entry.to_record(reason))
        return entry

    def _evict(self, key, reason: str) -> None:
        """One TTL/cap victim: owner flush via ``on_evict`` (which says
        whether to count it), then seal the ledger entry."""
        counted = True
        if self.on_evict is not None:
            counted = bool(self.on_evict(key, reason))
        if counted:
            if reason == "expired":
                self.sessions_expired += 1
            else:
                self.sessions_evicted += 1
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._records.append(entry.to_record(reason))

    def evict(self, key, reason: str) -> None:
        """Evict one key the owner already removed from recency (the
        demux memory-budget loop walks ``oldest()`` itself)."""
        self._lru.remove(key)
        self._evict(key, reason)

    def run_eviction(self, now: Optional[float]) -> None:
        """The shared TTL + capacity loop (previously duplicated in
        FlowDemux._run_eviction / ConnectionTracker._run_eviction).
        TTL expiry needs a clock; capacity overflow does not."""
        if self.session_ttl is not None and now is not None:
            for key in self._lru.expired(now - self.session_ttl):
                self._evict(key, "expired")
        if self.max_sessions is not None:
            for key in self._lru.overflow(self.max_sessions):
                self._evict(key, "evicted")

    def finish(self) -> None:
        """End of run: seal every open entry as finished, in insertion
        (arrival) order."""
        for key in list(self._entries):
            self.close(key, "finished")

    # -- reporting ----------------------------------------------------------

    def records(self) -> List[FlowRecord]:
        return list(self._records)

    def record_lines(self) -> List[str]:
        """The deterministic export stream: one JSON line per sealed
        flow, sorted (a pure function of trace content)."""
        return sorted(record.to_line() for record in self._records)

    def flow_snapshot(self, limit: int = 256) -> List[Dict]:
        """Open flows, oldest-activity data included when tracked."""
        out: List[Dict] = []
        for key, entry in self._entries.items():
            if len(out) >= limit:
                break
            out.append({
                "key": [[key[0], key[1]], [key[2], key[3]], key[4]],
                "uid": entry.uid,
                "protocol": key[4],
                "last_active": self._lru.last_active(key),
            })
        return out
