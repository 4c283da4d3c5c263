"""Generic flow demultiplexing + TCP reassembly for host applications.

The slice of Bro's connection tracker every other host app needs: frames
parse to 5-tuples, each flow gets one handler from an app-provided
factory, TCP payload arrives in stream order through a
:class:`~repro.net.reassembly.ConnectionReassembler`, UDP payload is
delivered per datagram.  The BinPAC++ driver (``repro.apps.binpac.app``)
runs its per-flow parse sessions on top of this.

Handler protocol (all optional but ``data``/``datagram``):

* ``data(is_originator, payload)`` — contiguous TCP stream bytes;
* ``datagram(is_originator, payload)`` — one UDP datagram's payload;
* ``end()`` — flow closed (TCP teardown, end of trace, or eviction);
* ``kill()`` — flow quarantined (slow-flow budget exceeded).

Long-running robustness (docs/SERVICE.md): when *max_sessions*,
*session_ttl*, or *memory_budget_bytes* is set, the table runs LRU/TTL
eviction over network time so occupancy stays flat across millions of
flows — idle flows expire (``sessions_expired``), capacity overflows
sacrifice the least-recently-active flow (``sessions_evicted``), and
every removal still delivers the handler's ``end()``.  A per-flow
*flow_budget_ns* extends the watchdog idea to handler dispatch: one
pathological flow whose handler overruns the wall-clock budget is
quarantined (``kill()``, no further payload) instead of stalling the
pipeline.  With none of these armed, behavior is byte-identical to the
original unbounded table.
"""

from __future__ import annotations

import time as _time
from typing import Callable, Dict, List, Optional, Tuple

from ..net.flows import FiveTuple, decode_flow
from ..net.packet import PROTO_TCP
from ..net.reassembly import ConnectionReassembler, StreamReassembler
from ..runtime.faults import NULL_INJECTOR
from .flowtable import FlowTable

__all__ = ["FlowDemux"]

#: Memory-budget enforcement samples the (O(open flows)) pending-bytes
#: sum once per this many fed packets, not per packet.
_BUDGET_CHECK_INTERVAL = 64


class _Flow:
    __slots__ = ("key", "handler", "orig_is_first", "reassembler", "closed")

    def __init__(self, key: Tuple, handler, orig_is_first: bool):
        self.key = key
        self.handler = handler
        self.orig_is_first = orig_is_first
        self.reassembler: Optional[ConnectionReassembler] = None
        self.closed = False


class FlowDemux:
    """A per-flow handler table over raw Ethernet frames.

    *factory* is called once per new flow as ``factory(flow)`` with the
    first packet's :class:`FiveTuple` (src = originator); returning
    ``None`` ignores the flow.  ``feed(frame)`` routes one frame;
    ``finish()`` closes every open flow.

    ``feed``'s optional *now* is the packet's network time in seconds;
    it drives TTL eviction when *session_ttl* is armed.
    """

    def __init__(self, factory,
                 max_pending_bytes: int =
                 StreamReassembler.DEFAULT_MAX_PENDING,
                 max_sessions: Optional[int] = None,
                 session_ttl: Optional[float] = None,
                 memory_budget_bytes: Optional[int] = None,
                 flow_budget_ns: Optional[int] = None,
                 on_slow_flow: Optional[Callable] = None,
                 uid_map: Optional[Dict] = None,
                 uid_format: Optional[Callable[[int], str]] = None):
        self._factory = factory
        self._max_pending = max_pending_bytes
        self._flows: Dict[Tuple, _Flow] = {}
        self.max_sessions = max_sessions
        self.session_ttl = session_ttl
        self.memory_budget_bytes = memory_budget_bytes
        self.flow_budget_ns = flow_budget_ns
        self._on_slow_flow = on_slow_flow
        # The shared ledger owns keying, uid assignment, bidirectional
        # accounting, recency, and the TTL/cap eviction loop; the demux
        # keeps what is its own — handlers, reassemblers, the memory
        # budget over pending reassembly bytes — and flushes evicted
        # flows through ``_on_evict_flow``.  Recency covers *every*
        # table entry (ignored-flow and torn-down tombstones included:
        # they absorb trailing packets like TIME_WAIT, and eviction is
        # what finally reaps them).
        self.table = FlowTable(uid_map=uid_map, uid_format=uid_format,
                               max_sessions=max_sessions,
                               session_ttl=session_ttl,
                               on_evict=self._on_evict_flow)
        self._evicting = (max_sessions is not None
                          or session_ttl is not None
                          or memory_budget_bytes is not None)
        self._clock: Optional[float] = None
        self._fed = 0
        self.flows_opened = 0
        self.flows_closed = 0
        self.flows_ignored = 0
        self.packets_ignored = 0
        self.flows_quarantined_slow = 0
        self._reassembly = {
            "delivered_bytes": 0,
            "gap_bytes": 0,
            "overlap_bytes": 0,
            "dropped_bytes": 0,
        }

    # Eviction counters live in the shared ledger now; the historical
    # attribute surface stays.
    @property
    def sessions_evicted(self) -> int:
        return self.table.sessions_evicted

    @property
    def sessions_expired(self) -> int:
        return self.table.sessions_expired

    def open_flows(self) -> int:
        return sum(1 for flow in self._flows.values() if not flow.closed)

    # -- feeding -----------------------------------------------------------

    def feed(self, frame: bytes, now: Optional[float] = None) -> None:
        """Route one Ethernet frame to its flow's handler."""
        packet = decode_flow(frame)
        if packet is None:
            self.packets_ignored += 1
            return
        if now is not None:
            self._clock = now
        key = packet.key
        state = self._flows.get(key)
        if state is None:
            handler = self._factory(FiveTuple.of(packet))
            if handler is None:
                self.flows_ignored += 1
                self._flows[key] = state = _Flow(key, None, True)
                state.closed = True
            else:
                self.flows_opened += 1
                state = _Flow(key, handler, packet.sender_is_first)
                if packet.protocol == PROTO_TCP:
                    state.reassembler = ConnectionReassembler(
                        on_data=handler.data,
                        on_close=lambda s=state: self._close(s),
                        max_pending_bytes=self._max_pending,
                    )
                self._flows[key] = state
        # Ledger accounting covers every flow — tombstones included, so
        # records and serials are a pure function of trace content.
        self.table.account(
            packet, self._clock if self._clock is not None else 0.0,
            packet.payload_len, packet.flags, touch=False)
        if self._evicting:
            self._fed += 1
            if self._clock is not None:
                self.table.touch(key, self._clock)
            self._run_eviction()
        if state.handler is None or state.closed:
            return
        is_orig = packet.sender_is_first == state.orig_is_first
        budget = self.flow_budget_ns
        begin = _time.perf_counter_ns() if budget is not None else 0
        if state.reassembler is not None:
            state.reassembler.feed_segment(is_orig, packet.transport())
        elif packet.payload_len:
            state.handler.datagram(is_orig, packet.payload)
        if budget is not None and not state.closed \
                and _time.perf_counter_ns() - begin > budget:
            self._quarantine_slow(state)

    def finish(self, faults=NULL_INJECTOR) -> None:
        """End of trace: close every flow still open, each inside its
        own unit of *faults* (the order flows close in differs per
        parallel lane), and seal the ledger's remaining entries as
        finished."""
        for key, state in list(self._flows.items()):
            if not state.closed:
                faults.enter_flow(key)
                self._close(state)
        self.table.finish()

    # -- internals ---------------------------------------------------------

    def _close(self, state: _Flow) -> None:
        if state.closed:
            return
        state.closed = True
        if state.reassembler is not None:
            stats = state.reassembler.stats()
            for name in self._reassembly:
                self._reassembly[name] += stats[name]
        if state.handler is not None:
            end = getattr(state.handler, "end", None)
            if end is not None:
                end()
        self.flows_closed += 1

    def _quarantine_slow(self, state: _Flow) -> None:
        """One handler dispatch overran the flow budget: no further
        payload reaches this flow (Python can't preempt the call that
        already ran, so the cost is one slow dispatch, not a stall)."""
        state.closed = True
        if state.reassembler is not None:
            stats = state.reassembler.stats()
            for name in self._reassembly:
                self._reassembly[name] += stats[name]
        kill = getattr(state.handler, "kill", None)
        if kill is not None:
            kill()
        self.flows_quarantined_slow += 1
        if self._on_slow_flow is not None:
            self._on_slow_flow(state.handler)

    # -- eviction ----------------------------------------------------------

    def _on_evict_flow(self, key: Tuple, reason: str) -> bool:
        """The ledger's owner callback: final-flush a TTL/cap victim.
        Returns whether the eviction counts (tombstones do not)."""
        state = self._flows.pop(key, None)
        if state is None or state.closed:
            return False
        self._close(state)
        return True

    def _run_eviction(self) -> None:
        """TTL and capacity run through the shared ledger; the memory
        budget over pending reassembly bytes is demux-specific and
        drives the ledger's eviction primitives directly."""
        self.table.run_eviction(self._clock)
        budget = self.memory_budget_bytes
        if budget is not None and self._fed % _BUDGET_CHECK_INTERVAL == 0:
            pending = sum(
                state.reassembler.stats()["pending_bytes"]
                for state in self._flows.values()
                if state.reassembler is not None and not state.closed
            )
            while pending > budget:
                key = self.table.oldest()
                if key is None:
                    break
                state = self._flows.get(key)
                if state is not None and state.reassembler is not None \
                        and not state.closed:
                    pending -= state.reassembler.stats()["pending_bytes"]
                self.table.evict(key, "evicted")

    # -- telemetry ---------------------------------------------------------

    def flow_snapshot(self, limit: int = 256) -> List[Dict]:
        """The open flows, most recent last (service ``/flows``)."""
        out: List[Dict] = []
        for key, state in self._flows.items():
            if state.closed:
                continue
            out.append({
                "key": [[key[0], key[1]], [key[2], key[3]], key[4]],
                "uid": getattr(state.handler, "uid", None),
                "protocol": getattr(state.handler, "protocol", None),
                "last_active": self.table.last_active(key),
            })
            if len(out) >= limit:
                break
        return out

    def flow_record_lines(self) -> List[str]:
        """The sorted, deterministic flow-record export stream."""
        return self.table.record_lines()

    def stats(self) -> dict:
        """Occupancy and reassembly accounting (telemetry export)."""
        out = {
            "flows_opened": self.flows_opened,
            "flows_closed": self.flows_closed,
            "flows_ignored": self.flows_ignored,
            "packets_ignored": self.packets_ignored,
            "flows_open": self.open_flows(),
            "sessions_evicted": self.sessions_evicted,
            "sessions_expired": self.sessions_expired,
            "flows_quarantined_slow": self.flows_quarantined_slow,
            "pending_bytes": sum(
                state.reassembler.stats()["pending_bytes"]
                for state in self._flows.values()
                if state.reassembler is not None and not state.closed
            ),
        }
        out.update(self._reassembly)
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
        for name in ("delivered_bytes", "gap_bytes", "overlap_bytes",
                     "dropped_bytes"):
            registry.counter(f"reassembly.{name}").inc(stats[name])
