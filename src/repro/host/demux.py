"""The flow layer: per-flow state for every app that analyses flow content.

Bro (``repro.apps.bro``) and the BinPAC++ driver (``repro.apps.binpac``)
both run on this one layer, so a flow means the same thing to both
(docs/FLOWS.md, "The flow layer").  It owns:

* the decode, and one flow table for TCP and UDP;
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
from ..net.packet import PROTO_TCP, SYN
from ..net.reassembly import ConnectionReassembler
from ..runtime.exceptions import HiltiError
from ..runtime.faults import SITE_TCP_REASSEMBLY
from .app import PipelineServices
from .flowtable import FlowTable

__all__ = ["Flow", "FlowDemux"]

#: Memory-budget enforcement samples the (O(open flows)) pending-bytes
#: sum once per this many packets, not per packet.
_BUDGET_CHECK_INTERVAL = 64

#: The reassembly totals a closed flow adds to (``pending_bytes`` is
#: live state, not a total).
_TOTALS = ("delivered_bytes", "gap_bytes", "overlap_bytes",
           "dropped_bytes")


class Flow:
    """One open flow, and the base class of every flow handler.

    The layer owns the four slots: ``entry`` is the flow's ledger
    :class:`~repro.host.flowtable.FlowEntry` (key, uid, per-direction
    counters), ``reassembler`` its TCP reassembler (None for UDP),
    ``established`` whether the TCP handshake completed, and
    ``last_time`` the :class:`~repro.core.values.Time` of its latest
    packet.  A flow the factory declines is a plain ``Flow``: tracked and
    accounted, with the no-op hooks below.

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

    __slots__ = ("entry", "reassembler", "established", "last_time")

    def __init__(self, entry) -> None:
        self.entry = entry
        self.reassembler: Optional[ConnectionReassembler] = None
        self.established = False
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
    handler.  *services* supply the fault injector, the health report
    and the session bounds (entry cap, inactivity TTL, reassembly memory
    budget).  ``feed(timestamp, frame, ordinal)`` routes one frame;
    ``finish()`` closes every open flow.
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
        self._evicting = (self.table.evicting
                          or self.memory_budget_bytes is not None)
        self._flows: Dict[tuple, Flow] = {}
        # TIME_WAIT: keys of recently torn-down TCP flows.  A teardown's
        # trailing bare ACK arrives after both FINs closed the
        # reassembler; it belongs to the dead flow, not to a new one.
        self._timewait: Dict[tuple, None] = {}
        self._fed = 0
        self.packets_ignored = 0
        self.flows_opened = {"tcp": 0, "udp": 0}
        self.flows_ignored = 0
        self.flows_closed = 0
        self.flows_quarantined_slow = 0
        self.peak_flows = 0
        self._totals = dict.fromkeys(_TOTALS, 0)

    @property
    def sessions_evicted(self) -> int:
        return self.table.sessions_evicted

    @property
    def sessions_expired(self) -> int:
        return self.table.sessions_expired

    def open_flows(self) -> int:
        return len(self._flows)

    # -- feeding -----------------------------------------------------------

    def feed(self, timestamp, frame: bytes,
             ordinal: Optional[int] = None) -> None:
        """Route one frame, packet number *ordinal*, seen at *timestamp*
        (a :class:`~repro.core.values.Time`); a flow it opens is named
        after *ordinal*."""
        packet = decode_flow(frame)
        if packet is None:
            self.packets_ignored += 1
        elif packet.protocol == PROTO_TCP:
            self._tcp(timestamp, packet, ordinal)
        else:
            self._udp(timestamp, packet, ordinal)
        if self._evicting:
            self._run_eviction(timestamp.seconds)

    def _open(self, timestamp, packet, ordinal) -> Flow:
        entry = self.table.open(packet, timestamp.seconds, ordinal)
        flow = self._factory(timestamp, packet, entry)
        if flow is None:
            self.flows_ignored += 1
            flow = Flow(entry)
        flows = self._flows
        flows[packet.key] = flow
        self.flows_opened["tcp" if packet.protocol == PROTO_TCP
                          else "udp"] += 1
        if len(flows) > self.peak_flows:
            self.peak_flows = len(flows)
        return flow

    def _tcp(self, timestamp, packet, ordinal) -> None:
        key = packet.key
        flow = self._flows.get(key)
        if flow is None:
            if key in self._timewait:
                if not (packet.flags & SYN) and not packet.payload_len:
                    return
                del self._timewait[key]
            flow = self._open(timestamp, packet, ordinal)
            flow.reassembler = ConnectionReassembler()
        is_orig = packet.sender_is_first == flow.entry.orig_is_first
        flow.last_time = timestamp
        seconds = timestamp.seconds
        if self._evicting:
            self.table.touch(key, seconds)
        flow.entry.add(seconds, packet.payload_len, packet.flags, is_orig)
        reassembler = flow.reassembler
        try:
            self._faults.check(SITE_TCP_REASSEMBLY)
            data = reassembler.feed_segment(is_orig, packet.transport())
        except HiltiError:
            # Contained at segment granularity: this segment's payload
            # is lost (like a capture drop); the stream continues.
            self._health.record_error(SITE_TCP_REASSEMBLY)
            data = None
        if reassembler.established and not flow.established:
            flow.established = True
            flow.handshake()
        if self.flow_budget_ns is None:
            flow.segment(is_orig, packet.payload_len, data)
        else:
            flow = self._timed(flow, flow.segment, is_orig,
                               packet.payload_len, data)
        if reassembler.closed:
            self._close(flow)
            self.table.close(key, "finished")
            del self._flows[key]
            timewait = self._timewait
            timewait[key] = None
            if len(timewait) > self.TIMEWAIT_CAPACITY:
                # Expire the oldest half (dicts keep insertion order).
                for old in list(timewait)[:len(timewait) // 2]:
                    del timewait[old]

    def _udp(self, timestamp, packet, ordinal) -> None:
        key = packet.key
        flow = self._flows.get(key)
        if flow is None:
            flow = self._open(timestamp, packet, ordinal)
        is_orig = packet.sender_is_first == flow.entry.orig_is_first
        flow.last_time = timestamp
        seconds = timestamp.seconds
        if self._evicting:
            self.table.touch(key, seconds)
        flow.entry.add(seconds, packet.payload_len, 0, is_orig)
        if packet.payload_len:
            if self.flow_budget_ns is None:
                flow.datagram(is_orig, packet.payload)
            else:
                self._timed(flow, flow.datagram, is_orig, packet.payload)

    def finish(self) -> None:
        """End of trace: close every flow still open, in arrival order,
        each inside its own fault unit (the order flows close in differs
        per parallel lane), then seal the ledger's remaining entries as
        finished.  Each flow leaves the table before it closes, so a
        closed flow is released before the next one closes."""
        flows = self._flows
        # Arrival order, popped off the end of a reversed key list
        # (see FlowTable.finish).
        keys = list(flows)
        keys.reverse()
        while keys:
            key = keys.pop()
            flow = flows.pop(key)
            self._faults.enter_flow(key)
            self._close(flow)
        self.table.finish()

    # -- internals ---------------------------------------------------------

    def _close(self, flow: Flow) -> None:
        flow.end()
        if flow.reassembler is not None:
            totals = self._totals
            for name, value in flow.reassembler.stats().items():
                if name in totals:
                    totals[name] += value
        self.flows_closed += 1

    def _timed(self, flow: Flow, hook, *args) -> Flow:
        """Run one handler hook under the flow budget; returns the flow
        now in the table."""
        begin = _time.perf_counter_ns()
        hook(*args)
        if _time.perf_counter_ns() - begin <= self.flow_budget_ns:
            return flow
        return self._quarantine_slow(flow)

    def _quarantine_slow(self, flow: Flow) -> Flow:
        """One handler dispatch overran the flow budget (Python can't
        preempt the call that already ran, so the cost is one slow
        dispatch, not a stall).  A plain :class:`Flow` takes the
        handler's place, so the flow stays tracked and no further hook
        reaches the handler."""
        flow.kill()
        self.flows_quarantined_slow += 1
        if self._on_slow_flow is not None:
            self._on_slow_flow(flow)
        stand_in = Flow(flow.entry)
        stand_in.reassembler = flow.reassembler
        stand_in.established = flow.established
        stand_in.last_time = flow.last_time
        self._flows[flow.entry.key] = stand_in
        return stand_in

    # -- eviction ----------------------------------------------------------

    def _on_evict(self, key, reason: str) -> bool:
        """The ledger's owner callback: close a TTL/cap/budget victim
        with full final-flush semantics (its handler's ``end()`` runs)."""
        flow = self._flows.pop(key, None)
        if flow is None:
            return False
        self._close(flow)
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
            flow = self._flows.get(key)
            if flow is not None and flow.reassembler is not None:
                pending -= flow.reassembler.stats()["pending_bytes"]
            self.table.evict(key, "evicted")

    def _pending_bytes(self) -> int:
        return sum(flow.reassembler.stats()["pending_bytes"]
                   for flow in self._flows.values()
                   if flow.reassembler is not None)

    # -- reporting ---------------------------------------------------------

    def flow_record_lines(self) -> List[str]:
        """The sorted, deterministic flow-record export stream."""
        return self.table.record_lines()

    def session_stats(self) -> Dict[str, int]:
        """Occupancy and eviction counters (``HostApp.session_stats``)."""
        return {"open": len(self._flows),
                "evicted": self.table.sessions_evicted,
                "expired": self.table.sessions_expired}

    def reassembly_stats(self) -> Dict[str, int]:
        """Closed flows' reassembly totals plus the open flows' state;
        ``pending_bytes`` is the current out-of-order occupancy."""
        out = dict(self._totals, pending_bytes=0)
        for flow in self._flows.values():
            if flow.reassembler is not None:
                for name, value in flow.reassembler.stats().items():
                    out[name] += value
        return out

    def stats(self) -> dict:
        """Occupancy and reassembly accounting (telemetry export)."""
        out = {
            "flows_opened": sum(self.flows_opened.values()),
            "flows_closed": self.flows_closed,
            "flows_ignored": self.flows_ignored,
            "packets_ignored": self.packets_ignored,
            "flows_open": len(self._flows),
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
