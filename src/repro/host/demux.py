"""The flow layer: per-flow state for every app.

Bro (``repro.apps.bro``) and the BinPAC++ driver (``repro.apps.binpac``)
analyse flow content on it; bpf, the firewall and ``flowexport`` run on
it with a factory that declines every flow (:func:`track_only`).  A flow
means the same thing to all of them (docs/FLOWS.md, "The flow layer").
It owns:

* the decode, and one flow table for TCP and UDP: the ledger's open
  entries, each carrying its flow's handler and reassembler, so a flow
  no handler claims costs one dict probe per packet and its entry;
* opening a flow: the ledger entry is opened with the packet's ordinal,
  which names it, and the app's factory receives that entry;
* TIME_WAIT: after a TCP teardown, a bare ACK or RST on the 5-tuple
  belongs to the closed instance and is absorbed; a SYN or payload opens
  a new instance with its own uid;
* TCP reassembly (:class:`~repro.net.reassembly.ConnectionReassembler`),
  with the ``tcp.reassembly`` fault draw contained per segment;
* teardown: the handler's ``end()`` runs, the ledger seals the flow as
  finished, and the flow leaves the table;
* closing the flows still open at end of trace, in arrival order, each
  inside its own fault unit;
* TTL/cap eviction through the ledger, and the memory-budget walk over
  pending reassembly bytes;
* the counters: flows opened/closed, the open count and its peak,
  reassembly totals.

A handler is a :class:`Flow` subclass the app's factory builds; the
layer calls its hooks (see :class:`Flow`).  A per-flow *flow_budget_ns*
extends the watchdog idea to handler dispatch: one pathological flow
whose handler overruns the wall-clock budget is quarantined (``kill()``,
no further calls) instead of stalling the pipeline.
"""

from __future__ import annotations

import time as _time
from typing import Callable, Dict, List, Optional

from ..net.flows import decode_flow
from ..net.packet import PROTO_TCP, SYN, Decoded
from ..net.reassembly import ConnectionReassembler
from ..runtime.exceptions import HiltiError
from ..runtime.faults import NULL_INJECTOR, SITE_TCP_REASSEMBLY
from .app import PipelineServices
from .flowtable import FlowEntry, FlowTable

__all__ = ["Flow", "FlowDemux", "track_only"]

#: Memory-budget enforcement samples the (O(open flows)) pending-bytes
#: sum once per this many packets, not per packet.
_BUDGET_CHECK_INTERVAL = 64

#: The reassembly totals a closed flow adds to (``pending_bytes`` is
#: live state, not a total).
_TOTALS = ("delivered_bytes", "gap_bytes", "overlap_bytes",
           "dropped_bytes")


def track_only(timestamp, packet, entry) -> None:
    """The factory of an app that analyses no flow content (bpf, the
    firewall, ``flowexport``): it declines every flow, so the layer only
    tracks, reassembles and seals it."""
    return None


class Flow:
    """The base class of every flow handler.

    A handler is built on its flow's ledger
    :class:`~repro.host.flowtable.FlowEntry` (``entry``: key, uid,
    per-direction counters and, until the flow closes, its TCP
    ``reassembler``).  The layer sets ``last_time``, the
    :class:`~repro.core.values.Time` of the flow's latest packet, before
    it calls a hook.  A flow the factory declines has no handler at all.

    The hooks a handler overrides:

    * ``segment(is_orig, length, data)`` — every TCP segment: *length*
      is its payload length, *data* the stream bytes it made contiguous
      (``b""`` for none, None when a ``tcp.reassembly`` fault lost it);
    * ``datagram(is_orig, payload)`` — one UDP datagram's non-empty
      payload;
    * ``handshake()`` — the TCP handshake completed;
    * ``end()`` — the flow closes (teardown, eviction or end of trace);
    * ``kill()`` — the flow is quarantined (slow-flow budget exceeded).
    """

    __slots__ = ("entry", "last_time")

    def __init__(self, entry) -> None:
        self.entry = entry
        self.last_time = None

    @property
    def uid(self) -> Optional[str]:
        return self.entry.uid

    def segment(self, is_orig: bool, length: int,
                data: Optional[bytes]) -> None:
        pass

    def datagram(self, is_orig: bool, payload: bytes) -> None:
        pass

    def handshake(self) -> None:
        pass

    def end(self) -> None:
        pass

    def kill(self) -> None:
        pass


class FlowDemux:
    """The flow layer over raw Ethernet frames.

    *factory(timestamp, packet, entry)* is called once per new flow with
    the opening packet's time, its :class:`~repro.net.packet.Decoded`
    record and the flow's freshly opened ledger entry (named
    ``uid_format(ordinal)``); it returns a :class:`Flow` subclass
    instance built on that entry, or None to track the flow without a
    handler (:func:`track_only` declines every flow).  *services* supply
    the fault injector, the health report and the session bounds (entry
    cap, inactivity TTL, reassembly memory budget).
    ``feed(timestamp, frame, ordinal)`` routes one frame and returns its
    decoded packet; ``finish()`` closes every open flow.

    The ledger's open-entry dict is the layer's one flow table: a flow's
    handler and reassembler hang off its entry.
    """

    #: Bound on remembered torn-down TCP keys (oldest half evicted).
    TIMEWAIT_CAPACITY = 8192

    def __init__(self, factory: Callable,
                 uid_format: Optional[Callable[[int], str]] = None,
                 services: Optional[PipelineServices] = None,
                 flow_budget_ns: Optional[int] = None,
                 on_slow_flow: Optional[Callable] = None):
        services = services if services is not None else PipelineServices()
        self._factory = factory
        self._faults = services.faults
        self._unarmed = services.faults is NULL_INJECTOR
        self._health = services.health
        self.memory_budget_bytes = services.memory_budget_bytes
        self.flow_budget_ns = flow_budget_ns
        self._on_slow_flow = on_slow_flow
        # The ledger owns keying, uids, per-direction accounting,
        # recency and the TTL/cap loop; evicted flows close through
        # ``_on_evict``.
        self.table = FlowTable(uid_format=uid_format,
                               max_sessions=services.max_sessions,
                               session_ttl=services.session_ttl,
                               on_evict=self._on_evict)
        self._entries = self.table.entries
        self._evicting = (self.table.evicting
                          or self.memory_budget_bytes is not None)
        # TIME_WAIT: keys of recently torn-down TCP flows.  A teardown's
        # trailing bare ACK arrives after both FINs closed the
        # reassembler; it belongs to the dead flow, not to a new one.
        self._timewait: Dict[tuple, None] = {}
        self._fed = 0
        self.packets_ignored = 0
        self.flows_opened = {"tcp": 0, "udp": 0}
        self.flows_ignored = 0
        self.flows_quarantined_slow = 0
        self.peak_flows = 0
        self._totals = dict.fromkeys(_TOTALS, 0)

    @property
    def sessions_evicted(self) -> int:
        return self.table.sessions_evicted

    @property
    def sessions_expired(self) -> int:
        return self.table.sessions_expired

    @property
    def flows_closed(self) -> int:
        """Every flow opened closes once: at teardown, on eviction or
        at the end of the trace."""
        return sum(self.flows_opened.values()) - len(self._entries)

    def open_flows(self) -> int:
        return len(self._entries)

    # -- feeding -----------------------------------------------------------

    def feed(self, timestamp, frame: bytes,
             ordinal: Optional[int] = None) -> Optional[Decoded]:
        """Route one frame, packet number *ordinal*, seen at *timestamp*
        (a :class:`~repro.core.values.Time`); a flow it opens is named
        after *ordinal*.  Returns the decoded packet, or None for a
        frame that is not TCP or UDP."""
        packet = decode_flow(frame)
        seconds = timestamp.seconds
        if packet is None:
            self.packets_ignored += 1
        else:
            entry = self._entries.get(packet.key)
            if entry is None:
                entry = self._open(timestamp, seconds, packet, ordinal)
            if entry is not None:
                if self._evicting:
                    self.table.touch(packet.key, seconds)
                entry.last_ts = seconds
                entry.tcp_flags |= packet.flags
                is_orig = packet.sender_is_first == entry.orig_is_first
                if is_orig:
                    entry.orig_pkts += 1
                    entry.orig_bytes += packet.payload_len
                else:
                    entry.resp_pkts += 1
                    entry.resp_bytes += packet.payload_len
                reassembler = entry.reassembler
                handler = entry.handler
                if reassembler is None:
                    if handler is not None:
                        handler.last_time = timestamp
                        if packet.payload_len:
                            self._deliver(entry, handler.datagram, is_orig,
                                          packet.payload)
                elif handler is None and self._unarmed:
                    # No handler, no fault armed: the reassembler only
                    # decides where the flow ends.
                    reassembler.feed_segment(is_orig, packet)
                    if reassembler.closed:
                        self._teardown(entry)
                else:
                    self._segment(entry, timestamp, packet, is_orig)
        if self._evicting:
            self._run_eviction(seconds)
        return packet

    def _open(self, timestamp, seconds: float, packet,
              ordinal) -> Optional[FlowEntry]:
        """Open a flow on its first packet; None when the packet is the
        trailing ACK or RST of a torn-down TCP flow (TIME_WAIT)."""
        key = packet.key
        tcp = packet.protocol == PROTO_TCP
        if tcp and key in self._timewait:
            if not (packet.flags & SYN) and not packet.payload_len:
                return None
            del self._timewait[key]
        entry = self.table.open(packet, seconds, ordinal)
        if tcp:
            entry.reassembler = ConnectionReassembler()
        entry.handler = self._factory(timestamp, packet, entry)
        if entry.handler is None:
            self.flows_ignored += 1
        self.flows_opened["tcp" if tcp else "udp"] += 1
        open_now = len(self._entries)
        if open_now > self.peak_flows:
            self.peak_flows = open_now
        return entry

    def _segment(self, entry: FlowEntry, timestamp, packet,
                 is_orig: bool) -> None:
        """One TCP segment: reassembly for every flow, since teardown
        decides where the flow ends; the hooks for a handled one."""
        reassembler = entry.reassembler
        handler = entry.handler
        if handler is not None:
            handler.last_time = timestamp
            established = reassembler.established
        try:
            self._faults.check(SITE_TCP_REASSEMBLY)
            data = reassembler.feed_segment(is_orig, packet)
        except HiltiError:
            # Contained at segment granularity: this segment's payload
            # is lost (like a capture drop); the stream continues.
            self._health.record_error(SITE_TCP_REASSEMBLY)
            data = None
        if handler is not None:
            if reassembler.established and not established:
                handler.handshake()
            self._deliver(entry, handler.segment, is_orig,
                          packet.payload_len, data)
        if reassembler.closed:
            self._teardown(entry)

    def _teardown(self, entry: FlowEntry) -> None:
        """The TCP flow's teardown completed: it closes, is sealed as
        finished, and its key enters TIME_WAIT."""
        self._close(entry)
        key = entry.key
        self.table.close(key, "finished")
        timewait = self._timewait
        timewait[key] = None
        if len(timewait) > self.TIMEWAIT_CAPACITY:
            # Expire the oldest half (dicts keep insertion order).
            for old in list(timewait)[:len(timewait) // 2]:
                del timewait[old]

    def finish(self) -> None:
        """End of trace: close every flow still open, in arrival order,
        each inside its own fault unit (the order flows close in differs
        per parallel lane), then seal the ledger's remaining entries as
        finished."""
        faults = self._faults
        for entry in self._entries.values():
            if entry.handler is None and entry.reassembler is None:
                continue  # a UDP flow no handler claimed: just its entry
            faults.enter_flow(entry.key)
            self._close(entry)
        self.table.finish()

    # -- internals ---------------------------------------------------------

    def _close(self, entry: FlowEntry) -> None:
        """Close a flow: its handler's ``end()`` runs, its reassembly
        counts join the totals, and both leave the entry (which the
        ledger keeps until it seals it)."""
        if entry.handler is not None:
            entry.handler.end()
        if entry.reassembler is not None:
            stats = entry.reassembler.stats()
            totals = self._totals
            for name in _TOTALS:
                totals[name] += stats[name]
        entry.handler = entry.reassembler = None

    def _deliver(self, entry: FlowEntry, hook, *args) -> None:
        """Run one handler hook, under the flow budget when one is set."""
        if self.flow_budget_ns is None:
            hook(*args)
            return
        begin = _time.perf_counter_ns()
        hook(*args)
        if _time.perf_counter_ns() - begin > self.flow_budget_ns:
            self._quarantine_slow(entry)

    def _quarantine_slow(self, entry: FlowEntry) -> None:
        """One handler dispatch overran the flow budget (Python can't
        preempt the call that already ran, so the cost is one slow
        dispatch, not a stall).  The handler leaves the entry, so the
        flow stays tracked and no further hook reaches the handler."""
        handler = entry.handler
        handler.kill()
        self.flows_quarantined_slow += 1
        if self._on_slow_flow is not None:
            self._on_slow_flow(handler)
        entry.handler = None

    # -- eviction ----------------------------------------------------------

    def _on_evict(self, key, reason: str) -> bool:
        """The ledger's owner callback: close a TTL/cap/budget victim
        with full final-flush semantics (its handler's ``end()`` runs)."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        self._close(entry)
        return True

    def _run_eviction(self, now: float) -> None:
        """TTL and capacity run through the ledger; the memory budget
        over pending reassembly bytes drives the ledger's eviction
        primitives directly, oldest flow first."""
        self.table.run_eviction(now)
        budget = self.memory_budget_bytes
        if budget is None:
            return
        self._fed += 1
        if self._fed % _BUDGET_CHECK_INTERVAL:
            return
        pending = self._pending_bytes()
        while pending > budget:
            key = self.table.oldest()
            if key is None:
                break
            entry = self._entries.get(key)
            if entry is not None and entry.reassembler is not None:
                pending -= entry.reassembler.stats()["pending_bytes"]
            self.table.evict(key, "evicted")

    def _pending_bytes(self) -> int:
        return sum(entry.reassembler.stats()["pending_bytes"]
                   for entry in self._entries.values()
                   if entry.reassembler is not None)

    # -- reporting ---------------------------------------------------------

    def flow_record_lines(self) -> List[str]:
        """The sorted, deterministic flow-record export stream."""
        return self.table.record_lines()

    def session_stats(self) -> Dict[str, int]:
        """Occupancy and eviction counters (``HostApp.session_stats``)."""
        return {"open": len(self._entries),
                "evicted": self.table.sessions_evicted,
                "expired": self.table.sessions_expired}

    def reassembly_stats(self) -> Dict[str, int]:
        """Closed flows' reassembly totals plus the open flows' state;
        ``pending_bytes`` is the current out-of-order occupancy."""
        out = dict(self._totals, pending_bytes=0)
        for entry in self._entries.values():
            if entry.reassembler is not None:
                for name, value in entry.reassembler.stats().items():
                    out[name] += value
        return out

    def stats(self) -> dict:
        """Occupancy and reassembly accounting (telemetry export)."""
        out = {
            "flows_opened": sum(self.flows_opened.values()),
            "flows_closed": self.flows_closed,
            "flows_ignored": self.flows_ignored,
            "packets_ignored": self.packets_ignored,
            "flows_open": len(self._entries),
            "sessions_evicted": self.sessions_evicted,
            "sessions_expired": self.sessions_expired,
            "flows_quarantined_slow": self.flows_quarantined_slow,
        }
        out.update(self.reassembly_stats())
        return out

    def export_metrics(self, registry, label: str = "demux") -> None:
        """Publish the snapshot into a telemetry MetricsRegistry."""
        stats = self.stats()
        for name in ("flows_opened", "flows_closed", "flows_ignored",
                     "packets_ignored", "sessions_evicted",
                     "sessions_expired", "flows_quarantined_slow"):
            registry.counter(f"demux.{name}", table=label).inc(stats[name])
        registry.gauge("demux.flows_open", table=label).set(
            stats["flows_open"])
        registry.gauge("reassembly.pending_bytes").set(
            stats["pending_bytes"])
        for name in _TOTALS:
            registry.counter(f"reassembly.{name}").inc(stats[name])
