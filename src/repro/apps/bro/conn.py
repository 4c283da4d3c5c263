"""Connection tracking: from packets to analyzer byte streams.

The layer between the packet substrate and the protocol analyzers: parses
frames, tracks TCP connections through the stream reassembler (delivering
contiguous payload in order), treats UDP endpoint pairs as flows, assigns
Bro-style uids, and raises the connection lifecycle events
(``connection_established``, ``connection_state_remove``).

This layer is also the pipeline's primary fault boundary: reassembly and
analyzer dispatch are registered injection points, and a
typed HILTI exception escaping an analyzer *quarantines* that analyzer
for its flow only — the connection keeps being tracked (conn.log still
gets its line), every other flow is untouched, and the violation feeds
the circuit breaker that can degrade the parser tier for new flows
(``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

import functools
import time as _time
from typing import Callable, Dict, Optional, Tuple

from ...core.values import Addr, Port, Time
from ...net.packet import (
    PROTO_TCP,
    PROTO_UDP,
    SYN,
    Decoded,
    PacketError,
    decode,
)
from ...host.flowtable import FlowTable
from ...net.flowrecord import format_uid
from ...net.reassembly import ConnectionReassembler
from ...runtime.exceptions import HiltiError, PROCESSING_TIMEOUT
from ...runtime.faults import (
    SITE_ANALYZER_DISPATCH,
    SITE_TCP_REASSEMBLY,
    classify,
)
from ...runtime.telemetry import NULL_SPAN, NULL_TRACER
from .core import BroCore

__all__ = ["ConnectionTracker"]

#: A connection's uid: ``C`` and the ordinal of its opening packet.
_conn_uid = functools.partial(format_uid, "C")


class _TcpConnection:
    """Per-direction packet/byte accounting lives in the shared
    ledger's :class:`~repro.host.flowtable.FlowEntry` (``entry``); the
    tracker keeps only what is Bro's — conn_val, reassembler, analyzer,
    lifecycle state."""

    __slots__ = ("key", "conn_val", "reassembler", "analyzer",
                 "established", "entry", "last_time", "span")

    def __init__(self, key, conn_val, reassembler, analyzer, entry):
        self.key = key
        self.conn_val = conn_val
        self.reassembler = reassembler
        self.analyzer = analyzer
        self.established = False
        self.entry = entry
        self.last_time = None
        self.span = NULL_SPAN


class _UdpFlow:
    __slots__ = ("key", "conn_val", "analyzer", "entry", "last_time",
                 "span")

    def __init__(self, key, conn_val, analyzer, entry):
        self.key = key
        self.conn_val = conn_val
        self.analyzer = analyzer
        self.entry = entry
        self.last_time = None
        self.span = NULL_SPAN


class ConnectionTracker:
    """Demultiplexes a packet stream into per-connection analyses.

    *analyzer_factory(conn_val, proto, resp_port)* returns an analyzer
    instance (or None to skip the connection).
    """

    #: Bound on remembered torn-down flow keys (oldest half evicted).
    TIMEWAIT_CAPACITY = 8192

    def __init__(self, core: BroCore, analyzer_factory: Callable,
                 tracer=None,
                 max_sessions: Optional[int] = None,
                 session_ttl: Optional[float] = None):
        self.core = core
        self.analyzer_factory = analyzer_factory
        # Session-state bounds (docs/SERVICE.md): entry cap and
        # inactivity TTL over network time, enforced by the shared
        # ledger's LRU eviction loop; with neither armed the tracker is
        # byte-identical to the unbounded original.  The ledger also
        # owns the per-direction packet/byte accounting, names each
        # connection after its opening packet's ordinal and seals every
        # closed connection into a flow record.
        self.max_sessions = max_sessions
        self.session_ttl = session_ttl
        self._evicting = max_sessions is not None or session_ttl is not None
        self.table = FlowTable(uid_format=_conn_uid,
                               max_sessions=max_sessions,
                               session_ttl=session_ttl,
                               on_evict=self._on_evict_conn)
        self._tcp: Dict[Tuple, _TcpConnection] = {}
        self._udp: Dict[Tuple, _UdpFlow] = {}
        # TIME_WAIT: keys of recently torn-down TCP connections.  The
        # teardown's trailing bare ACK arrives after both FINs completed
        # the reassembler, so the connection entry is already gone; it
        # belongs to the dead connection, not to a new one.
        self._timewait: Dict[Tuple, None] = {}
        self.ignored = 0
        self.parsing_ns = 0
        # Telemetry: per-flow span trees (with per-packet child spans)
        # when the tracer is enabled, plus always-on occupancy counters.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.flows_opened: Dict[str, int] = {"tcp": 0, "udp": 0}
        self.flows_closed = 0
        self.peak_flows = 0
        self._reassembly_totals = {
            "delivered_bytes": 0,
            "pending_bytes": 0,
            "gap_bytes": 0,
            "overlap_bytes": 0,
            "dropped_bytes": 0,
        }

    # -- telemetry ---------------------------------------------------------------

    @property
    def sessions_evicted(self) -> int:
        return self.table.sessions_evicted

    @property
    def sessions_expired(self) -> int:
        return self.table.sessions_expired

    def open_flows(self) -> int:
        return len(self._tcp) + len(self._udp)

    def flow_record_lines(self) -> list:
        """The ledger's sorted flow-record export stream."""
        return self.table.record_lines()

    def reassembly_stats(self) -> Dict[str, int]:
        """Closed-connection totals plus the live connections' state;
        ``pending_bytes`` is the current out-of-order occupancy."""
        out = dict(self._reassembly_totals)
        out["pending_bytes"] = 0
        for connection in self._tcp.values():
            live = connection.reassembler.stats()
            for key in ("delivered_bytes", "gap_bytes", "overlap_bytes",
                        "dropped_bytes", "pending_bytes"):
                out[key] += live[key]
        return out

    def _note_flow_opened(self, proto: str) -> None:
        self.flows_opened[proto] += 1
        occupancy = self.open_flows()
        if occupancy > self.peak_flows:
            self.peak_flows = occupancy

    # -- packet entry ------------------------------------------------------------

    def packet(self, timestamp: Time, frame: bytes, ordinal: int) -> None:
        """Track packet number *ordinal*; a connection it opens is named
        after it."""
        self.core.advance_time(timestamp)
        try:
            packet = decode(frame)
        except PacketError:
            self.ignored += 1
            return
        if packet.protocol == PROTO_TCP:
            self._tcp_packet(timestamp, packet, ordinal)
        elif packet.protocol == PROTO_UDP:
            self._udp_packet(timestamp, packet, ordinal)
        else:
            self.ignored += 1
        if self._evicting:
            self.table.run_eviction(timestamp.seconds)

    def finish(self) -> None:
        """End of trace: close every connection still open, then seal
        the ledger's remaining entries as finished.

        Each flow closes at its own last packet's network time, inside
        its own fault unit, with its events drained there: the
        whole-run clock and the order flows close in both differ per
        parallel lane, and neither may leak into a flow's output.  Each
        flow leaves its table before it closes, so a closed flow is
        released before the next one closes."""
        core = self.core
        end = core.network_time()
        for table, close in ((self._tcp, self._close_tcp),
                             (self._udp, self._close_udp)):
            # Arrival order, popped off the end of a reversed key list
            # (see FlowTable.finish).
            keys = list(table)
            keys.reverse()
            while keys:
                key = keys.pop()
                flow = table.pop(key)
                core.faults.enter_flow(key)
                core.set_time(flow.last_time)
                close(flow)
                core.drain_events()
        core.set_time(end)
        self.table.finish()

    # -- eviction ----------------------------------------------------------------

    def _on_evict_conn(self, key: Tuple, reason: str) -> bool:
        """The ledger's owner callback: close one TTL/cap victim with
        full final-flush semantics — the analyzer finishes, the
        conn_val is finalized, and ``connection_state_remove`` fires,
        so an evicted connection still gets its conn.log line."""
        if key[4] == PROTO_TCP:
            connection = self._tcp.pop(key, None)
            if connection is None:
                return False
            self._close_tcp(connection)
            return True
        flow = self._udp.pop(key, None)
        if flow is None:
            return False
        self._close_udp(flow)
        return True

    def flow_snapshot(self, limit: int = 256) -> list:
        """The open connections as plain dicts (service ``/flows``)."""
        out = []
        for table, proto in ((self._tcp, "tcp"), (self._udp, "udp")):
            for entry in table.values():
                out.append({
                    "uid": entry.conn_val.get_or("uid"),
                    "protocol": proto,
                    "last_active": (entry.last_time.seconds
                                    if entry.last_time is not None
                                    else None),
                })
                if len(out) >= limit:
                    return out
        return out

    # -- fault isolation ---------------------------------------------------------

    def _deliver(self, entry, is_orig: bool, data: bytes) -> int:
        """Hand payload to the flow's analyzer inside the fault boundary.

        Returns the parse time in ns (0 when an injected dispatch fault
        stopped it first) — a traced packet's ``parse`` child — or -1
        when the flow has no analyzer."""
        analyzer = entry.analyzer
        if analyzer is None:
            return -1
        elapsed = 0
        try:
            self.core.faults.check(SITE_ANALYZER_DISPATCH)
            begin = _time.perf_counter_ns()
            try:
                analyzer.data(is_orig, data)
            finally:
                elapsed = _time.perf_counter_ns() - begin
                self.parsing_ns += elapsed
        except HiltiError as error:
            self._quarantine(entry, error)
        return elapsed

    def _finish_analyzer(self, entry) -> None:
        analyzer = entry.analyzer
        if analyzer is None:
            return
        try:
            begin = _time.perf_counter_ns()
            try:
                analyzer.end()
            finally:
                self.parsing_ns += _time.perf_counter_ns() - begin
        except HiltiError as error:
            self._quarantine(entry, error)

    def _quarantine(self, entry, error: HiltiError) -> None:
        """Disable the flow's analyzer; the flow itself stays tracked."""
        entry.analyzer = None
        entry.span.event("quarantine", error=str(error))
        health = self.core.health
        health.flows_quarantined += 1
        if error.matches(PROCESSING_TIMEOUT):
            health.watchdog_trips += 1
        site = getattr(error, "site", None) or SITE_ANALYZER_DISPATCH
        health.record_error(site)
        health.breaker.record_violation()
        uid = entry.conn_val.get_or("uid") or ""
        self.core.weird(classify(error), uid=uid, info=str(error))

    # -- TCP ------------------------------------------------------------------

    def _tcp_packet(self, timestamp: Time, packet: Decoded,
                    ordinal: int) -> None:
        key = packet.key
        connection = self._tcp.get(key)
        if connection is None and key in self._timewait:
            if not (packet.flags & SYN) and not packet.payload_len:
                # The teardown's trailing ACK (or a stray RST): part of
                # the finished connection, not a new one.
                return
            # A genuine new connection reuses the 5-tuple.
            del self._timewait[key]
        if connection is None:
            # New connection: the first packet's sender is the originator.
            # The canonical key loses direction; the ledger entry
            # remembers which canonical side is the originator.
            entry = self.table.open(packet, timestamp.seconds, ordinal)
            conn_val = self.core.make_connection_val(
                entry.uid,
                Addr.from_value(packet.src),
                Port(packet.src_port, Port.TCP),
                Addr.from_value(packet.dst),
                Port(packet.dst_port, Port.TCP),
                timestamp, "tcp",
            )
            analyzer = self.analyzer_factory(
                conn_val, "tcp", packet.dst_port
            )
            if analyzer is not None:
                self.core.health.breaker.record_flow()
            connection = _TcpConnection(
                key, conn_val, ConnectionReassembler(), analyzer, entry)
            self._tcp[key] = connection
            self._note_flow_opened("tcp")
            if self.tracer.enabled:
                connection.span = self.tracer.start_span(
                    "flow", uid=entry.uid, proto="tcp",
                    resp_port=packet.dst_port,
                )
            self.core.queue_event("new_connection", [conn_val])
        is_orig = packet.sender_is_first == connection.entry.orig_is_first
        connection.last_time = timestamp
        if self._evicting:
            self.table.touch(key, timestamp.seconds)
        connection.entry.add(timestamp.seconds, packet.payload_len,
                             packet.flags, is_orig)
        tracing = self.tracer.enabled
        if tracing:
            start_ns = _time.perf_counter_ns()
            events = None
        reassembler = connection.reassembler
        try:
            self.core.faults.check(SITE_TCP_REASSEMBLY)
            data = reassembler.feed_segment(is_orig, packet.transport())
        except HiltiError:
            # Contained at segment granularity: this segment's payload is
            # lost (like a capture drop); the stream continues.
            self.core.health.record_error(SITE_TCP_REASSEMBLY)
            if tracing:
                events = [(_time.perf_counter_ns() - start_ns,
                           "reassembly_fault", {})]
            data = b""
        if reassembler.established and not connection.established:
            connection.established = True
            self.core.queue_event(
                "connection_established", [connection.conn_val]
            )
        parse_ns = -1
        if data:
            parse_ns = self._deliver(connection, is_orig, data)
        if tracing:
            connection.span.packet(
                is_orig, packet.payload_len, start_ns,
                len(data) if parse_ns >= 0 else -1, parse_ns, events)
        if reassembler.closed:
            self._close_tcp(connection)
            self._tcp.pop(key, None)
            self.table.close(key, "finished")
            self._timewait[key] = None
            if len(self._timewait) > self.TIMEWAIT_CAPACITY:
                # Expire the oldest half (dicts keep insertion order).
                for old in list(self._timewait)[:len(self._timewait) // 2]:
                    del self._timewait[old]

    def _close_tcp(self, connection: _TcpConnection) -> None:
        self._finish_analyzer(connection)
        self._finalize_conn_val(connection)
        totals = self._reassembly_totals
        for key, value in connection.reassembler.stats().items():
            if key != "pending_bytes":  # still-buffered data is not a total
                totals[key] += value
        self.flows_closed += 1
        connection.span.event("close")
        connection.span.finish()
        self.core.queue_event(
            "connection_state_remove", [connection.conn_val]
        )

    def _close_udp(self, flow: "_UdpFlow") -> None:
        """Close one UDP flow with full final-flush semantics (the
        end-of-trace and eviction paths share it)."""
        self._finish_analyzer(flow)
        self._finalize_conn_val(flow)
        self.flows_closed += 1
        flow.span.event("close")
        flow.span.finish()
        self.core.queue_event(
            "connection_state_remove", [flow.conn_val]
        )

    @staticmethod
    def _finalize_conn_val(entry) -> None:
        """Attach connection totals (read from the shared ledger's
        per-direction accounting) before connection_state_remove."""
        conn_val = entry.conn_val
        start = conn_val.get_or("start_time")
        duration = None
        if entry.last_time is not None and start is not None:
            duration = entry.last_time - start
        conn_val.set("duration", duration)
        ledger = entry.entry
        conn_val.set("orig_bytes", ledger.orig_bytes)
        conn_val.set("resp_bytes", ledger.resp_bytes)
        conn_val.set("orig_pkts", ledger.orig_pkts)
        conn_val.set("resp_pkts", ledger.resp_pkts)
        established = getattr(entry, "established", True)
        conn_val.set("state", "SF" if established else "OTH")

    # -- UDP -----------------------------------------------------------------

    def _udp_packet(self, timestamp: Time, packet: Decoded,
                    ordinal: int) -> None:
        key = packet.key
        flow = self._udp.get(key)
        if flow is None:
            entry = self.table.open(packet, timestamp.seconds, ordinal)
            conn_val = self.core.make_connection_val(
                entry.uid,
                Addr.from_value(packet.src),
                Port(packet.src_port, Port.UDP),
                Addr.from_value(packet.dst),
                Port(packet.dst_port, Port.UDP),
                timestamp, "udp",
            )
            analyzer = self.analyzer_factory(
                conn_val, "udp", packet.dst_port
            )
            if analyzer is not None:
                self.core.health.breaker.record_flow()
            flow = _UdpFlow(key, conn_val, analyzer, entry)
            self._udp[key] = flow
            self._note_flow_opened("udp")
            if self.tracer.enabled:
                flow.span = self.tracer.start_span(
                    "flow", uid=entry.uid, proto="udp",
                    resp_port=packet.dst_port,
                )
            self.core.queue_event("new_connection", [conn_val])
        is_orig = packet.sender_is_first == flow.entry.orig_is_first
        flow.last_time = timestamp
        if self._evicting:
            self.table.touch(key, timestamp.seconds)
        flow.entry.add(timestamp.seconds, packet.payload_len, 0, is_orig)
        if packet.payload_len:
            if self.tracer.enabled:
                start_ns = _time.perf_counter_ns()
                parse_ns = self._deliver(flow, is_orig, packet.payload)
                flow.span.packet(
                    is_orig, packet.payload_len, start_ns,
                    packet.payload_len if parse_ns >= 0 else -1, parse_ns)
            else:
                self._deliver(flow, is_orig, packet.payload)
