"""Bro connections: Bro's handler on the shared flow layer.

The flow layer (:class:`repro.host.demux.FlowDemux`) decodes packets,
tracks TCP and UDP flows, reassembles TCP streams and names each flow
after its opening packet.  A Bro connection is a handler on it
(:class:`Connection`) that keeps what is Bro's: the ``connection``
record (``conn_val``), the connection lifecycle events
(``new_connection``, ``connection_established``,
``connection_state_remove``) and the protocol analyzer the bytes go to.

This layer is also the pipeline's primary fault boundary: analyzer
dispatch is a registered injection point, and a typed HILTI exception
escaping an analyzer *quarantines* that analyzer for its flow only —
the connection keeps being tracked (conn.log still gets its line), every
other flow is untouched, and the violation feeds the circuit breaker
that can degrade the parser tier for new flows (``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

import functools
import time as _time
from typing import Callable

from ...core.values import Addr, Port
from ...host.demux import Flow
from ...net.flowrecord import format_uid
from ...net.packet import PROTO_TCP
from ...runtime.exceptions import HiltiError, PROCESSING_TIMEOUT
from ...runtime.faults import SITE_ANALYZER_DISPATCH, classify
from ...runtime.telemetry import NULL_SPAN
from .core import BroCore

__all__ = ["Connection", "Connections", "format_conn_uid"]

#: A connection's uid: ``C`` and the ordinal of its opening packet.
format_conn_uid = functools.partial(format_uid, "C")


class Connections:
    """What a run's connections share, and the flow layer's factory.

    *analyzer_factory(conn_val, proto, resp_port)* returns an analyzer
    instance, or None to track the connection without one.  With the
    *tracer* enabled each connection is a :class:`TracedConnection`,
    timing every packet from :attr:`packet_ns`, which the caller sets
    as the packet arrives.  :attr:`at_end` is set while the run closes
    its remaining connections at end of trace.
    """

    def __init__(self, core: BroCore, analyzer_factory: Callable, tracer):
        self.core = core
        self.analyzer_factory = analyzer_factory
        self.tracer = tracer
        self.parsing_ns = 0
        self.packet_ns = 0
        self.at_end = False

    def __call__(self, timestamp, packet, entry) -> "Connection":
        """A new connection on the layer's freshly opened *entry*: the
        first packet's sender is the originator."""
        core = self.core
        if packet.protocol == PROTO_TCP:
            proto, kind = "tcp", Port.TCP
        else:
            proto, kind = "udp", Port.UDP
        conn_val = core.make_connection_val(
            entry.uid,
            Addr.from_value(packet.src), Port(packet.src_port, kind),
            Addr.from_value(packet.dst), Port(packet.dst_port, kind),
            timestamp, proto,
        )
        analyzer = self.analyzer_factory(conn_val, proto, packet.dst_port)
        if analyzer is not None:
            core.health.breaker.record_flow()
        if self.tracer.enabled:
            connection = TracedConnection(self, entry, conn_val, analyzer)
            connection.span = self.tracer.start_span(
                "flow", uid=entry.uid, proto=proto,
                resp_port=packet.dst_port,
            )
        else:
            connection = Connection(self, entry, conn_val, analyzer)
        core.queue_event("new_connection", [conn_val])
        return connection


class Connection(Flow):
    """One Bro connection: its ``conn_val``, its analyzer (None when
    there is none, or once quarantined) and its flow-trace span."""

    __slots__ = ("owner", "conn_val", "analyzer", "span")

    def __init__(self, owner: Connections, entry, conn_val, analyzer):
        Flow.__init__(self, entry)
        self.owner = owner
        self.conn_val = conn_val
        self.analyzer = analyzer
        self.span = NULL_SPAN

    # -- the flow layer's hooks ---------------------------------------------

    def segment(self, is_orig, length, data) -> None:
        if data and self.analyzer is not None:
            self.deliver(is_orig, data)

    def datagram(self, is_orig, payload) -> None:
        if self.analyzer is not None:
            self.deliver(is_orig, payload)

    def handshake(self) -> None:
        self.owner.core.queue_event("connection_established",
                                    [self.conn_val])

    def end(self) -> None:
        """The analyzer finishes, the totals go into ``conn_val``, and
        ``connection_state_remove`` fires — for an evicted connection
        too, so it still gets its conn.log line.  At end of trace the
        connection closes at its own last packet's network time, with
        its events drained there: the whole-run clock and the order
        flows close in both differ per parallel lane, and neither may
        leak into a flow's output."""
        core = self.owner.core
        at_end = self.owner.at_end
        if at_end:
            core.set_time(self.last_time)
        analyzer = self.analyzer
        if analyzer is not None:
            try:
                begin = _time.perf_counter_ns()
                try:
                    analyzer.end()
                finally:
                    self.owner.parsing_ns += _time.perf_counter_ns() - begin
            except HiltiError as error:
                self.quarantine(error)
        conn_val = self.conn_val
        conn_val.set("duration",
                     self.last_time - conn_val.get_or("start_time"))
        ledger = self.entry
        conn_val.set("orig_bytes", ledger.orig_bytes)
        conn_val.set("resp_bytes", ledger.resp_bytes)
        conn_val.set("orig_pkts", ledger.orig_pkts)
        conn_val.set("resp_pkts", ledger.resp_pkts)
        reassembler = ledger.reassembler
        conn_val.set("state", "SF" if reassembler is None
                     or reassembler.established else "OTH")
        self.span.event("close")
        self.span.finish()
        core.queue_event("connection_state_remove", [conn_val])
        if at_end:
            core.drain_events()

    # -- fault isolation ----------------------------------------------------

    def deliver(self, is_orig: bool, data: bytes) -> int:
        """Hand payload to the analyzer inside the fault boundary;
        returns the parse time in ns (0 when an injected dispatch fault
        stopped it first) — a traced packet's ``parse`` child."""
        owner = self.owner
        elapsed = 0
        try:
            owner.core.faults.check(SITE_ANALYZER_DISPATCH)
            begin = _time.perf_counter_ns()
            try:
                self.analyzer.data(is_orig, data)
            finally:
                elapsed = _time.perf_counter_ns() - begin
                owner.parsing_ns += elapsed
        except HiltiError as error:
            self.quarantine(error)
        return elapsed

    def quarantine(self, error: HiltiError) -> None:
        """Disable the analyzer; the connection itself stays tracked."""
        self.analyzer = None
        self.span.event("quarantine", error=str(error))
        core = self.owner.core
        health = core.health
        health.flows_quarantined += 1
        if error.matches(PROCESSING_TIMEOUT):
            health.watchdog_trips += 1
        site = getattr(error, "site", None) or SITE_ANALYZER_DISPATCH
        health.record_error(site)
        health.breaker.record_violation()
        uid = self.conn_val.get_or("uid") or ""
        core.weird(classify(error), uid=uid, info=str(error))


class TracedConnection(Connection):
    """A connection under flow tracing: each packet becomes a child of
    its flow's span, with a ``parse`` child when the analyzer ran."""

    __slots__ = ()

    def segment(self, is_orig, length, data) -> None:
        start_ns = self.owner.packet_ns
        events = None
        parse_ns = -1
        if data is None:
            events = [(_time.perf_counter_ns() - start_ns,
                       "reassembly_fault", {})]
        elif data and self.analyzer is not None:
            parse_ns = self.deliver(is_orig, data)
        self.span.packet(is_orig, length, start_ns,
                         len(data) if parse_ns >= 0 else -1, parse_ns,
                         events)

    def datagram(self, is_orig, payload) -> None:
        start_ns = self.owner.packet_ns
        parse_ns = -1
        if self.analyzer is not None:
            parse_ns = self.deliver(is_orig, payload)
        self.span.packet(is_orig, len(payload), start_ns,
                         len(payload) if parse_ns >= 0 else -1, parse_ns)
