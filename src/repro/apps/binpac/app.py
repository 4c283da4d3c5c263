"""The standalone BinPAC++ driver: generated parsers as a host app.

The paper's BinPAC++ exemplar (section 5) run directly over the shared
pipeline, without the Bro event engine on top: raw frames demultiplex
into flows (:class:`repro.host.demux.FlowDemux`), TCP payload arrives
stream-ordered, and each flow feeds the generated HILTI parser for its
service port — HTTP on tcp/80, DNS on udp/53, SSH on tcp/22, TFTP on
udp/69.  Every finished unit (forwarded by the generated
``unit_done_glue`` hooks through ``Bro::raise_event``) becomes one
result line of ``timestamp  uid  event  fields...``.

A flow's uid names the ordinal of the packet that opened it
(docs/FLOWS.md), which every backend computes alike, so the sorted line
stream is byte-identical across sequential and all parallel backends.
"""

from __future__ import annotations

import functools
import time as _time
from typing import Dict, List, Optional, Tuple

from ...host.app import HostApp, PipelineServices
from ...host.demux import FlowDemux
from ...host.parallel import LaneSpec
from ...net.flowrecord import format_uid
from ...net.packet import PROTO_TCP, PROTO_UDP
from ...runtime.bytes_buffer import Bytes
from ...runtime.exceptions import (
    HiltiError,
    INJECTED_FAULT,
    PROCESSING_TIMEOUT,
)
from ...runtime.faults import SITE_BINPAC_PARSE
from .codegen import Parser
from .glue import unit_done_glue
from .grammars import dns_grammar, http_grammar
from .grammars.ssh import ssh_grammar
from .grammars.tftp import tftp_grammar
from .runtime import unit_field as _field
from .runtime import unit_text as _text

__all__ = ["PacApp", "PacLaneSpec", "PROTOCOLS", "format_flow_uid"]

#: protocol -> (grammar factory, glue units, (transport, port))
PROTOCOLS = {
    "http": (http_grammar, ("Request", "Reply"), (PROTO_TCP, 80)),
    "dns": (dns_grammar, ("Message",), (PROTO_UDP, 53)),
    "ssh": (ssh_grammar, ("Banner",), (PROTO_TCP, 22)),
    "tftp": (tftp_grammar, ("Packet",), (PROTO_UDP, 69)),
}

_TFTP_OPCODES = {1: "rrq", 2: "wrq", 3: "data", 4: "ack", 5: "error"}


#: The driver's flow uid: ``F`` and the ordinal of the opening packet.
format_flow_uid = functools.partial(format_uid, "F")


def _containable(error: HiltiError) -> bool:
    """Parse errors are contained per flow; injected faults and watchdog
    timeouts escalate to quarantining the flow."""
    return not (error.matches(INJECTED_FAULT)
                or error.matches(PROCESSING_TIMEOUT))


def _render_unit(event: str, obj) -> str:
    """One finished unit as a stable, content-determined field string."""
    if event == "HTTP::Request":
        line = _field(obj, "request_line")
        return " ".join((
            _text(_field(line, "method")),
            _text(_field(line, "uri")),
            _text(_field(_field(line, "version"), "number")),
        ))
    if event == "HTTP::Reply":
        line = _field(obj, "status_line")
        return " ".join((
            _text(_field(line, "status"), "0"),
            _text(_field(line, "reason")).strip(),
        ))
    if event == "DNS::Message":
        kind = "response" if _field(obj, "is_response", False) else "query"
        qname = ""
        qtype = 0
        questions = _field(obj, "questions")
        if questions is not None:
            for question in questions:
                qname = _text(_field(question, "qname"))
                qtype = _field(question, "qtype", 0)
        return f"{kind} {qname} {qtype} rcode={_field(obj, 'rcode', 0)}"
    if event == "SSH::Banner":
        return " ".join((
            _text(_field(obj, "version")),
            _text(_field(obj, "software")),
        ))
    if event == "TFTP::Packet":
        opcode = _field(obj, "opcode", 0)
        kind = _TFTP_OPCODES.get(opcode, str(opcode))
        if opcode in (1, 2):
            return (f"{kind} {_text(_field(obj, 'filename'))} "
                    f"{_text(_field(obj, 'mode'))}")
        if opcode == 3:
            data = _field(obj, "data")
            size = len(data.to_bytes()) if isinstance(data, Bytes) else 0
            return f"{kind} block={_field(obj, 'block', 0)} len={size}"
        if opcode == 4:
            return f"{kind} block={_field(obj, 'block', 0)}"
        if opcode == 5:
            return (f"{kind} code={_field(obj, 'error_code', 0)} "
                    f"{_text(_field(obj, 'error_msg'))}")
        return kind
    return ""


# --------------------------------------------------------------------------
# Per-flow handlers (the FlowDemux protocol)
# --------------------------------------------------------------------------


class _StreamFlow:
    """A TCP flow: one incremental parse session per direction."""

    #: protocol -> top-level unit per direction (True = originator).
    UNITS = {
        "http": {True: "Requests", False: "Replies"},
        "ssh": {True: "Banner", False: "Banner"},
    }

    def __init__(self, app: "PacApp", protocol: str, uid: str):
        self.app = app
        self.protocol = protocol
        self.uid = uid
        self.last_ts = None
        parser = app.parsers[protocol]
        self.sessions = {
            is_orig: parser.start(unit)
            for is_orig, unit in self.UNITS[protocol].items()
        }

    def data(self, is_orig: bool, payload: bytes) -> None:
        self.last_ts = self.app.now
        session = self.sessions.get(is_orig)
        if session is None or session.finished:
            return
        if not self.app.guarded_parse(
                self, lambda: session.feed(payload)):
            self.sessions[is_orig] = None

    def end(self) -> None:
        for is_orig, session in list(self.sessions.items()):
            if session is None or session.finished:
                continue
            self.app.guarded_parse(self, session.done)
            self.sessions[is_orig] = None

    def kill(self) -> None:
        self.sessions = {is_orig: None for is_orig in self.sessions}


class _DatagramFlow:
    """A UDP flow: one one-shot parse per datagram (the DNS and TFTP
    grammars are datagram grammars)."""

    UNITS = {"dns": "Message", "tftp": "Packet"}

    def __init__(self, app: "PacApp", protocol: str, uid: str):
        self.app = app
        self.protocol = protocol
        self.uid = uid
        self.last_ts = None
        self._unit = self.UNITS[protocol]
        self._dead = False

    def datagram(self, is_orig: bool, payload: bytes) -> None:
        self.last_ts = self.app.now
        if self._dead:
            return
        parser = self.app.parsers[self.protocol]
        self.app.guarded_parse(
            self, lambda: parser.parse(self._unit, payload))

    def end(self) -> None:
        pass

    def kill(self) -> None:
        self._dead = True


# --------------------------------------------------------------------------
# The application
# --------------------------------------------------------------------------


class PacApp(HostApp):
    """Generated BinPAC++ parsers over demultiplexed flows."""

    name = "pac"

    def __init__(self, protocols=("http", "dns", "ssh", "tftp"),
                 opt_level: Optional[int] = None,
                 services: Optional[PipelineServices] = None,
                 flow_budget_ns: Optional[int] = None):
        super().__init__(services)
        unknown = [p for p in protocols if p not in PROTOCOLS]
        if unknown:
            raise ValueError(f"unknown protocols {unknown!r}")
        self.protocols = tuple(protocols)
        self.now = None
        self.events = 0
        self.parse_errors = 0
        self._lines: List[str] = []
        self._parse_ns = 0
        self._current_flow = None
        self.parsers: Dict[str, Parser] = {}
        self._ports: Dict[Tuple[int, int], str] = {}
        for protocol in self.protocols:
            factory, units, port = PROTOCOLS[protocol]
            grammar = factory()
            self.parsers[protocol] = Parser(
                grammar,
                extra_modules=[unit_done_glue(grammar.name, list(units))],
                opt_level=opt_level,
                on_event=self._on_event,
            )
            self._ports[port] = protocol
        self.demux = FlowDemux(
            self._flow_factory,
            max_sessions=self.services.max_sessions,
            session_ttl=self.services.session_ttl,
            memory_budget_bytes=self.services.memory_budget_bytes,
            flow_budget_ns=flow_budget_ns,
            on_slow_flow=self._on_slow_flow,
            uid_format=format_flow_uid,
        )

    # -- flow plumbing -----------------------------------------------------

    def _service_of(self, flow) -> Optional[str]:
        return (self._ports.get((flow.protocol, flow.dst_port))
                or self._ports.get((flow.protocol, flow.src_port)))

    def _flow_factory(self, flow):
        protocol = self._service_of(flow)
        if protocol is None:
            return None
        uid = format_flow_uid(self.ordinal)
        if flow.protocol == PROTO_TCP:
            return _StreamFlow(self, protocol, uid)
        return _DatagramFlow(self, protocol, uid)

    def _on_event(self, event: str, args) -> None:
        flow = self._current_flow
        if flow is None:
            return
        self.events += 1
        detail = _render_unit(event, args[0])
        line = f"{flow.last_ts.seconds:.6f} {flow.uid} {event}"
        if detail:
            line += f" {detail}"
        self._lines.append(line)

    def guarded_parse(self, flow, parse) -> bool:
        """Run one parse step for *flow* with the shared containment
        policy; returns False when the flow's session must stop."""
        services = self.services
        ctx = self.parsers[flow.protocol].ctx
        if services.watchdog_budget:
            ctx.arm_watchdog(services.watchdog_budget)
        previous = self._current_flow
        self._current_flow = flow
        try:
            services.faults.check(SITE_BINPAC_PARSE)
            parse()
            return True
        except HiltiError as error:
            services.health.record_error(SITE_BINPAC_PARSE)
            if error.matches(PROCESSING_TIMEOUT):
                services.health.watchdog_trips += 1
            if not _containable(error):
                services.health.flows_quarantined += 1
                flow.kill()
            self.parse_errors += 1
            return False
        finally:
            ctx.disarm_watchdog()
            self._current_flow = previous

    def _on_slow_flow(self, handler) -> None:
        """A flow handler overran the per-flow dispatch budget: the
        demux quarantined it; account it like a watchdog trip."""
        health = self.services.health
        health.flows_quarantined += 1
        health.watchdog_trips += 1
        health.record_error(SITE_BINPAC_PARSE)

    # -- the HostApp hooks -------------------------------------------------

    def packet(self, timestamp, frame: bytes) -> None:
        self.now = timestamp
        begin = _time.perf_counter_ns()
        try:
            self.demux.feed(frame, timestamp.seconds, self.ordinal)
        finally:
            self._parse_ns += _time.perf_counter_ns() - begin

    def finish(self) -> None:
        begin = _time.perf_counter_ns()
        try:
            self.demux.finish(self.services.faults)
        finally:
            self._parse_ns += _time.perf_counter_ns() - begin

    def cpu_ns(self) -> Dict[str, int]:
        return {"parsing": self._parse_ns}

    def app_stats(self) -> Dict[str, object]:
        return {
            "events": self.events,
            "parse_errors": self.parse_errors,
            "flows_opened": self.demux.flows_opened,
            "flows_ignored": self.demux.flows_ignored,
            "sessions_evicted": self.demux.sessions_evicted,
            "sessions_expired": self.demux.sessions_expired,
        }

    def session_stats(self) -> Dict[str, int]:
        return {
            "open": self.demux.open_flows(),
            "evicted": self.demux.sessions_evicted,
            "expired": self.demux.sessions_expired,
        }

    def flow_snapshot(self, limit: int = 256) -> List[Dict]:
        return self.demux.flow_snapshot(limit)

    def engine_contexts(self) -> List[Tuple[str, object]]:
        return [(f"pac/{protocol}", parser.ctx)
                for protocol, parser in sorted(self.parsers.items())]

    def metric_sources(self) -> List[Tuple[str, object]]:
        return [("pac", self.demux)]

    def gather_metrics(self, metrics) -> None:
        metrics.counter("pac.events").inc(self.events)
        metrics.counter("pac.parse_errors").inc(self.parse_errors)

    def result_lines(self) -> List[str]:
        return sorted(self._lines)

    def flow_record_lines(self) -> List[str]:
        return self.demux.flow_record_lines()


class PacLaneSpec(LaneSpec):
    """Parallel lanes for the driver: default 5-tuple sharding."""

    app_name = "pac"

    def make_lane(self) -> PacApp:
        config = self.config
        return PacApp(
            protocols=config["protocols"],
            opt_level=config["opt_level"],
            services=self.lane_services(),
        )
