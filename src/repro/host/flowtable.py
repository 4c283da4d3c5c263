"""The shared flow ledger: one table for every stateful component.

The paper's per-flow, hash-partitioned state model (§3.2) keys all state
by flow.  :class:`FlowTable` is the ledger every flow-keeping component
shares — the flow layer (:class:`repro.host.demux.FlowDemux`, under
every app and the flowexport tool) and, in bare-key mode,
:class:`repro.lib.session_table.SessionTable`:

* **keying** — the canonical flow key the packet decoder computes
  (:attr:`repro.net.packet.Decoded.key`: a plain tuple of ints, equal
  to the canonical :class:`~repro.net.flows.FiveTuple`; both directions
  of a connection hit the same entry), with the originator orientation
  captured from the first packet;
* **uid assignment** — an entry is named ``uid_format(ordinal)`` after
  the ordinal of the packet that opened it (docs/FLOWS.md), so every
  backend names it alike with no shared counter;
* **accounting** — per-direction packets/bytes, first/last timestamps,
  the TCP flag union;
* **eviction** — the TTL and capacity loops over one
  :class:`~repro.host.eviction.SessionLRU`, with an ``on_evict``
  callback that lets the owner flush its own session state and decide
  whether the eviction is *counted*;
* **records** — closing a flow *seals* it: the entry is dropped and
  only the values of its ``repro-flowrecords/1`` line are kept, until
  they are formatted into the line with a batch of others (at most
  ``_RENDER_BATCH``, and whenever the lines are asked for); from then on
  a closed flow costs its export line and nothing else.
  ``record_lines()`` is those lines sorted (the deterministic export
  stream); ``records()`` parses them back into
  :class:`~repro.net.flowrecord.FlowRecord` objects on demand.  The line
  is byte for byte ``FlowEntry.to_record().to_line()``, the schema
  reference.

Owners keep what is genuinely theirs (handlers, reassemblers, analyzer
teardown) and delegate the rest here — see docs/FLOWS.md.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Dict, List, Optional

from ..core.values import Addr, _format_v6
from ..net.flowrecord import FlowRecord
from .eviction import SessionLRU

__all__ = ["FlowEntry", "FlowTable"]

# One repro-flowrecords/1 line, keys in sorted order: exactly what
# ``json.dumps(FlowRecord.to_dict(), sort_keys=True, separators=(",",
# ":"))`` produces.  Strings arrive JSON-encoded (quotes included).
_RECORD_LINE = (
    '{"close_reason":%s,"dst":%s,"dst_port":%d,"first_ts":%s,'
    '"last_ts":%s,"orig_bytes":%d,"orig_pkts":%d,"protocol":%d,'
    '"resp_bytes":%d,"resp_pkts":%d,"src":%s,"src_port":%d,'
    '"tcp_flags":%d,"uid":%s}')


def _ts_json(ts) -> str:
    """``json.dumps(round(ts, 6))``, i.e. ``repr(round(ts, 6))``.

    ``round`` and ``repr`` each run a correctly rounded float/decimal
    conversion (~0.5 µs apiece).  For a float with 1e-4 <= |ts| < 4e9
    (any capture timestamp) one ``%.6f`` conversion gives the same text:
    it rounds the exact value to six decimals as ``round`` does, and
    below 2**52 * 1e-6 no two six-decimal numbers share a double, so the
    shortest repr of the rounded double is that decimal without its
    trailing zeros.  Everything else takes the reference path.
    """
    if type(ts) is float and 1e-4 <= abs(ts) < 4e9:
        text = ("%.6f" % ts).rstrip("0")
        return text + "0" if text[-1] == "." else text
    return repr(round(ts, 6))


def _addr_json(value: int) -> str:
    """``str(Addr.from_value(value))`` as a JSON string literal (the
    text is ASCII digits, hex, dots and colons: nothing to escape)."""
    if value >> 32 == 0xFFFF:
        return '"%d.%d.%d.%d"' % (value >> 24 & 255, value >> 16 & 255,
                                  value >> 8 & 255, value & 255)
    return f'"{_format_v6(value)}"'


#: Sealed flows wait for their lines in batches of at most this many:
#: enough to format most lines warm, few enough that a batch adds no
#: measurable peak memory (bpf-mixed, seed 101: batches of 1,024 read
#: ~0.4 MB more peak RSS than 16).
_RENDER_BATCH = 16


def _sealed_values(entry: "FlowEntry", reason: str) -> tuple:
    """Seal *entry* for *reason*: set its ``close_reason`` and return
    the values its export line is made of."""
    entry.close_reason = reason
    return (reason, entry.key, entry.orig_is_first, entry.uid,
            entry.first_ts, entry.last_ts, entry.orig_pkts,
            entry.orig_bytes, entry.resp_pkts, entry.resp_bytes,
            entry.tcp_flags)


class FlowEntry:
    """One flow's ledger state.

    The entry is keyed by the canonical flow key, so both directions
    update the same counters; ``orig_is_first`` remembers which of the
    key's endpoints sent the first packet (the originator).
    ``close_reason`` stays None while the flow is open; sealing sets it
    as it takes the values of the entry's line, which then equals
    ``to_record().to_line()``.  ``handler`` and ``reassembler`` are the
    flow layer's (:mod:`repro.host.demux`).
    """

    __slots__ = ("key", "orig_is_first", "uid", "first_ts", "last_ts",
                 "orig_pkts", "orig_bytes", "resp_pkts", "resp_bytes",
                 "tcp_flags", "close_reason", "handler", "reassembler")

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
        self.close_reason = None
        # None for a flow no handler claimed, and for UDP.
        self.handler = None
        self.reassembler = None

    def to_record(self) -> FlowRecord:
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
            tcp_flags=self.tcp_flags, close_reason=self.close_reason)


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

    def __init__(self, uid_format: Optional[Callable[[int], str]] = None,
                 max_sessions: Optional[int] = None,
                 session_ttl: Optional[float] = None,
                 on_evict: Optional[Callable] = None):
        self.uid_format = uid_format
        self.max_sessions = max_sessions
        self.session_ttl = session_ttl
        self.on_evict = on_evict
        #: The open flows' entries by key, in arrival order.
        self.entries: Dict = {}
        self._lru = SessionLRU()
        # Sealed flows, in sealing order: each is its export line, or
        # its line's values while it waits for the next render.
        self._closed: List[tuple] = []
        self._sealed: List[str] = []
        self.serial = 0
        self.sessions_expired = 0
        self.sessions_evicted = 0

    # -- predicates ---------------------------------------------------------

    @property
    def evicting(self) -> bool:
        """Is any eviction policy armed?"""
        return self.max_sessions is not None or self.session_ttl is not None

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key) -> bool:
        return key in self.entries

    def get(self, key) -> Optional[FlowEntry]:
        return self.entries.get(key)

    def oldest(self):
        return self._lru.oldest()

    # -- opening and accounting ---------------------------------------------

    def open(self, flow, now: float,
             ordinal: Optional[int] = None) -> FlowEntry:
        """Open a ledger entry for a first-sighted flow.

        *flow* is the first packet's :class:`~repro.net.packet.Decoded`
        record or directional :class:`~repro.net.flows.FiveTuple`; both
        carry the canonical ``key`` and ``sender_is_first``.  *ordinal*
        is that packet's ordinal: the entry's uid is
        ``uid_format(ordinal)``, or None without either.  Counts the
        opening in :attr:`serial`.
        """
        key = flow.key
        self.serial += 1
        uid = (None if ordinal is None or self.uid_format is None
               else self.uid_format(ordinal))
        entry = FlowEntry(key, flow.sender_is_first, now, uid)
        self.entries[key] = entry
        return entry

    def account(self, flow, now: float, payload_len: int = 0,
                tcp_flags: int = 0,
                ordinal: Optional[int] = None) -> FlowEntry:
        """Account one packet of *flow* (see :meth:`open`): open on
        first sight (with the packet's *ordinal*), then update
        last-activity, the per-direction counters, and the flag union."""
        key = flow.key
        entry = self.entries.get(key)
        if entry is None:
            entry = self.open(flow, now, ordinal)
        entry.last_ts = now
        entry.tcp_flags |= tcp_flags
        if flow.sender_is_first == entry.orig_is_first:
            entry.orig_pkts += 1
            entry.orig_bytes += payload_len
        else:
            entry.resp_pkts += 1
            entry.resp_bytes += payload_len
        if self.evicting:
            self._lru.touch(key, now)
        return entry

    def touch(self, key, now: float) -> None:
        """Recency-only touch (bare-key owners, or owners that drive
        the LRU from their own accounting path)."""
        self._lru.touch(key, now)

    # -- closing and eviction -----------------------------------------------

    def _seal(self, entry: FlowEntry, reason: str) -> None:
        """Close *entry* for *reason*.  Only the values its line is made
        of are kept (:func:`_sealed_values`), until :meth:`_render`
        formats them with up to ``_RENDER_BATCH - 1`` others; the entry
        itself is dropped."""
        closed = self._closed
        closed.append(_sealed_values(entry, reason))
        if len(closed) >= _RENDER_BATCH:
            self._render()

    def _render(self) -> None:
        """Format the flows sealed since the last render into their
        lines, in sealing order, dropping each one's values as its line
        is made.  One loop over a batch formats a line in under half
        the time that formatting it between two packets takes."""
        closed, sealed, texts = self._closed, self._sealed, {}
        closed.reverse()
        while closed:
            sealed.append(self._line(closed.pop(), texts))

    def _line(self, values: tuple, texts: Dict) -> str:
        """The export line of one sealed flow's :func:`_sealed_values`.
        *texts* caches the JSON text of addresses and close reasons
        across one batch."""
        (reason, (src, src_port, dst, dst_port, protocol), orig_is_first,
         uid, first_ts, last_ts, orig_pkts, orig_bytes, resp_pkts,
         resp_bytes, tcp_flags) = values
        if not orig_is_first:
            src, src_port, dst, dst_port = dst, dst_port, src, src_port
        src_text = texts.get(src)
        if src_text is None:
            src_text = texts[src] = _addr_json(src)
        dst_text = texts.get(dst)
        if dst_text is None:
            dst_text = texts[dst] = _addr_json(dst)
        reason_text = texts.get(reason)
        if reason_text is None:
            reason_text = texts[reason] = _json_str(reason)
        return _RECORD_LINE % (
            reason_text, dst_text, dst_port,
            _ts_json(first_ts), _ts_json(last_ts),
            orig_bytes, orig_pkts, protocol,
            resp_bytes, resp_pkts, src_text, src_port,
            tcp_flags, "null" if uid is None else _json_str(uid))

    def close(self, key, reason: str = "finished") -> Optional[FlowEntry]:
        """Seal *key*'s ledger entry (owner-initiated close: normal
        teardown or end-of-run flush) and forget its recency."""
        entry = self.entries.pop(key, None)
        self._lru.remove(key)
        if entry is not None:
            self._seal(entry, reason)
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
        entry = self.entries.pop(key, None)
        if entry is not None:
            self._seal(entry, reason)

    def evict(self, key, reason: str) -> None:
        """Evict one key picked by the owner (the flow layer's
        memory-budget walk takes ``oldest()`` itself)."""
        self._lru.remove(key)
        self._evict(key, reason)

    def run_eviction(self, now: Optional[float]) -> None:
        """The shared TTL + capacity loop.  TTL expiry needs a clock;
        capacity overflow does not."""
        if self.session_ttl is not None and now is not None:
            for key in self._lru.expired(now - self.session_ttl):
                self._evict(key, "expired")
        if self.max_sessions is not None:
            for key in self._lru.overflow(self.max_sessions):
                self._evict(key, "evicted")

    def finish(self) -> None:
        """End of run: format the closed entries, then seal every open
        entry as finished; their lines join the sealed list in insertion
        (arrival) order.  Each entry and its key are dropped as its line
        is made, so the run's flows never exist twice over."""
        self._render()
        entries, evicting, texts = self.entries, self.evicting, {}
        sealed = self._sealed
        start = len(sealed)
        # Newest first, keys popped off the end of a key list.  The
        # newest entries sit in the allocator's newest pools, which the
        # lines then reuse; sealing oldest first leaves them unused and
        # touches fresh pages (~0.8 MB more resident memory on the
        # bpf-mixed benchmark trace under CPython 3.11).  Popping keeps
        # no key alive past its entry, where ``next(iter(entries))`` per
        # seal would rescan the popped dict slots (quadratic).
        keys = list(entries)
        while keys:
            key = keys.pop()
            if evicting:
                self._lru.remove(key)
            sealed.append(self._line(
                _sealed_values(entries.pop(key), "finished"), texts))
        entries.clear()  # a dict keeps its table through pops
        tail = sealed[start:]
        tail.reverse()
        sealed[start:] = tail

    # -- reporting ----------------------------------------------------------

    def records(self) -> List[FlowRecord]:
        """The sealed flows as records, in sealing order."""
        self._render()
        return [FlowRecord.from_dict(json.loads(line))
                for line in self._sealed]

    def record_lines(self) -> List[str]:
        """The deterministic export stream: one JSON line per sealed
        flow, sorted (a pure function of trace content)."""
        self._render()
        return sorted(self._sealed)

    def flow_snapshot(self, limit: int = 256) -> List[Dict]:
        """Up to *limit* open flows, oldest first, as plain dicts (the
        service's ``/flows`` entries)."""
        out: List[Dict] = []
        for key, entry in self.entries.items():
            if len(out) >= limit:
                break
            out.append({
                "key": [[str(Addr.from_value(key[0])), key[1]],
                        [str(Addr.from_value(key[2])), key[3]], key[4]],
                "uid": entry.uid,
                "protocol": key[4],
                "last_active": entry.last_ts,
            })
        return out
