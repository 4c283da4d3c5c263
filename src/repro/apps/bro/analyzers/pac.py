"""BinPAC++-backed protocol analyzers.

The paper's §6.4 configuration: Bro drives BinPAC++-generated HILTI
parsers instead of its built-in ones, and the parsers trigger the same
events through generated glue.  Here the glue is a hook module raising
``Bro::raise_event`` with the finished unit's struct; the adapter classes
below convert struct fields into the exact event vocabulary the standard
analyzers emit, so identical scripts run against either parser tier.

Parsers compile once per configuration and are shared across connections.
Each HTTP connection direction runs inside its own suspended fiber
(``ParseSession``), which is what makes the generated parsers fully
incremental across packet boundaries; a DNS datagram is one plain
``Parser.parse`` call.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ....core.values import Interval
from ....runtime.bytes_buffer import Bytes
from ....runtime.containers import HiltiVector
from ....runtime.exceptions import (
    HiltiError,
    INJECTED_FAULT,
    PROCESSING_TIMEOUT,
)
from ....runtime.faults import SITE_BINPAC_PARSE
from ...binpac.codegen import Parser
from ...binpac.glue import unit_done_glue as _unit_done_glue
from ...binpac.grammars import dns_grammar, http_grammar
from ...binpac.runtime import unit_field as _field
from ...binpac.runtime import unit_text as _text
from ..files import FileInfo

__all__ = ["PacParsers", "HttpPacAnalyzer", "DnsPacAnalyzer"]

_QTYPE_NAMES = {
    1: "A", 2: "NS", 5: "CNAME", 6: "SOA", 12: "PTR", 15: "MX",
    16: "TXT", 28: "AAAA", 33: "SRV",
}


class PacParsers:
    """Compiled HTTP and DNS parsers, shared by all connections."""

    def __init__(self, opt_level=None):
        self.current_sink = None  # the analyzer currently feeding data

        def route(name, args):
            if self.current_sink is not None:
                self.current_sink.on_unit(name, args[0])

        self.http = Parser(
            http_grammar(),
            extra_modules=[_unit_done_glue("HTTP", ["Request", "Reply"])],
            opt_level=opt_level,
            on_event=route,
        )
        self.dns = Parser(
            dns_grammar(),
            extra_modules=[_unit_done_glue("DNS", ["Message"])],
            opt_level=opt_level,
            on_event=route,
        )

    @property
    def allocations(self) -> int:
        return (
            self.http.ctx.alloc_stats.allocations
            + self.dns.ctx.alloc_stats.allocations
        )

    @property
    def instructions(self) -> int:
        return self.http.ctx.instr_count + self.dns.ctx.instr_count


def _containable(error: HiltiError) -> bool:
    """Parse errors are handled inside the analyzer; injected faults and
    watchdog timeouts must escape to the tracker's quarantine logic —
    swallowing them here would hide exactly the activity the
    fault-injection oracle measures."""
    return not (error.matches(INJECTED_FAULT)
                or error.matches(PROCESSING_TIMEOUT))


class HttpPacAnalyzer:
    """HTTP over the BinPAC++ parser."""

    name = "http-pac"

    def __init__(self, conn, core, parsers: PacParsers):
        self.conn = conn
        self.core = core
        self.parsers = parsers
        self.sessions = {
            True: parsers.http.start("Requests"),
            False: parsers.http.start("Replies"),
        }
        self.messages = 0

    def data(self, is_orig: bool, payload: bytes) -> None:
        session = self.sessions[is_orig]
        if session is None or session.finished:
            return
        core = self.core
        core.faults.check(SITE_BINPAC_PARSE)
        ctx = self.parsers.http.ctx
        if core.watchdog_budget:
            ctx.arm_watchdog(core.watchdog_budget)
        previous = self.parsers.current_sink
        self.parsers.current_sink = self
        self._current_is_orig = is_orig
        try:
            session.feed(payload)
        except HiltiError as error:
            if not _containable(error):
                raise
            # Parse error: stop this direction only, count the budget.
            core.health.record_error(SITE_BINPAC_PARSE)
            self.sessions[is_orig] = None
        finally:
            ctx.disarm_watchdog()
            self.parsers.current_sink = previous

    def end(self) -> None:
        previous = self.parsers.current_sink
        self.parsers.current_sink = self
        try:
            for is_orig, session in list(self.sessions.items()):
                if session is None or session.finished:
                    continue
                self._current_is_orig = is_orig
                try:
                    session.done()
                except HiltiError as error:
                    if not _containable(error):
                        raise
        finally:
            self.parsers.current_sink = previous

    # -- unit callbacks -----------------------------------------------------

    def on_unit(self, unit_name: str, obj) -> None:
        if unit_name == "HTTP::Request":
            self._on_message(obj, is_orig=True)
        elif unit_name == "HTTP::Reply":
            self._on_message(obj, is_orig=False)

    def _on_message(self, obj, is_orig: bool) -> None:
        if is_orig:
            line = _field(obj, "request_line")
            method = _text(_field(line, "method"))
            uri = _text(_field(line, "uri"))
            version = _text(_field(_field(line, "version"), "number"))
            self.core.queue_event("http_request", [
                self.conn, method, uri, version,
            ])
        else:
            line = _field(obj, "status_line")
            version = _text(_field(_field(line, "version"), "number"))
            code_text = _text(_field(line, "status"), "0")
            code = int(code_text) if code_text.isdigit() else 0
            reason = _text(_field(line, "reason")).strip()
            self.core.queue_event("http_reply", [
                self.conn, version, code, reason,
            ])
        content_type = None
        headers = _field(obj, "headers")
        if headers is not None:
            for header in headers:
                name = _text(_field(header, "name")).strip()
                value = _text(_field(header, "value")).strip()
                if name.lower() == "content-type":
                    content_type = value.split(";")[0].strip()
                self.core.queue_event("http_header", [
                    self.conn, is_orig, name, value,
                ])
        body_val = _field(obj, "body")
        body = body_val.to_bytes() if isinstance(body_val, Bytes) else b""
        # Unlike the standard parser, BinPAC++ analyzes partial-content
        # bodies too (the paper's §6.4 "extracts more information").
        info = FileInfo(body, content_type)
        self.messages += 1
        self.core.queue_event("http_message_done", [
            self.conn, is_orig, len(body),
            info.mime or "", info.sha1 or "",
        ])


class DnsPacAnalyzer:
    """DNS over the BinPAC++ parser: one one-shot parse per datagram
    (the DNS grammar is a datagram grammar — no fiber, no session)."""

    name = "dns-pac"

    def __init__(self, conn, core, parsers: PacParsers):
        self.conn = conn
        self.core = core
        self.parsers = parsers
        self.messages = 0
        self.malformed = 0

    def data(self, is_orig: bool, payload: bytes) -> None:
        core = self.core
        core.faults.check(SITE_BINPAC_PARSE)
        ctx = self.parsers.dns.ctx
        if core.watchdog_budget:
            ctx.arm_watchdog(core.watchdog_budget)
        previous = self.parsers.current_sink
        self.parsers.current_sink = self
        try:
            self.parsers.dns.parse("Message", payload)
            self.messages += 1
        except HiltiError as error:
            if not _containable(error):
                raise
            core.health.record_error(SITE_BINPAC_PARSE)
            self.malformed += 1
        finally:
            ctx.disarm_watchdog()
            self.parsers.current_sink = previous

    def end(self) -> None:
        pass

    def on_unit(self, unit_name: str, obj) -> None:
        if unit_name != "DNS::Message":
            return
        txid = _field(obj, "txid", 0)
        is_response = bool(_field(obj, "is_response", False))
        rcode = _field(obj, "rcode", 0)
        query = ""
        qtype = 0
        questions = _field(obj, "questions")
        if questions is not None:
            for question in questions:
                query = _text(_field(question, "qname"))
                qtype = _field(question, "qtype", 0)
        if not is_response:
            self.core.queue_event("dns_request", [
                self.conn, txid, query, qtype,
                _QTYPE_NAMES.get(qtype, str(qtype)),
            ])
            return
        answers = HiltiVector()
        ttls = HiltiVector()
        rrs = _field(obj, "answers")
        if rrs is not None:
            for rr in rrs:
                rendered = self._render_rr(rr)
                if rendered is not None:
                    answers.append(rendered)
                    ttls.append(Interval(float(_field(rr, "ttl", 0))))
        self.core.queue_event("dns_response", [
            self.conn, txid, query, qtype,
            _QTYPE_NAMES.get(qtype, str(qtype)), rcode, answers, ttls,
        ])

    @staticmethod
    def _render_rr(rr) -> Optional[str]:
        rtype = _field(rr, "rtype", 0)
        if rtype in (1, 28):
            addr = _field(rr, "addr")
            return str(addr) if addr is not None else None
        if rtype in (2, 5, 12, 15):
            return _text(_field(rr, "rdata_name"))
        if rtype == 16:
            # BinPAC++ extracts *all* TXT character strings (§6.4).
            return _text(_field(rr, "txt"))
        return f"<rtype-{rtype}>"
