"""The Bro instance: ``bro -r trace scripts`` in library form.

Ties everything together: a packet source drives connection tracking,
connections drive protocol analyzers (standard hand-written or
BinPAC++-generated, per configuration), analyzers raise events, and the
active script engine (interpreter or HILTI-compiled, the
``compile_scripts=T`` switch of Figure 8) consumes them and writes logs.

Per-component timing mirrors the paper's instrumentation (section 6.1):
protocol parsing, script execution, HILTI-to-Bro glue, and "other".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...core.values import Time
from ...host.app import HostApp, PipelineServices
from ...host.pipeline import Pipeline
from ...runtime.faults import (
    CircuitBreaker,
    HealthReport,
)
from ...runtime.telemetry import Telemetry
from .analyzers.dns_std import DnsStdAnalyzer
from .analyzers.http_std import HttpStdAnalyzer
from .compiler import ScriptCompiler
from .conn import ConnectionTracker
from .core import BroCore, WEIRD_LOG_COLUMNS
from .interp import ScriptInterp
from .lang import Script, parse_script
from .scripts import (
    CONN_LOG_COLUMNS,
    CONN_SCRIPT,
    DNS_LOG_COLUMNS,
    DNS_SCRIPT,
    FILES_LOG_COLUMNS,
    HTTP_LOG_COLUMNS,
    HTTP_SCRIPT,
)

__all__ = ["Bro", "default_scripts"]


def default_scripts() -> List[str]:
    """The default analysis scripts: connection summaries plus the
    HTTP and DNS protocol scripts (section 6.5)."""
    return [CONN_SCRIPT, HTTP_SCRIPT, DNS_SCRIPT]


class Bro(HostApp):
    """One configured Bro run — the fourth exemplar on the shared
    host-application substrate (``repro.host``).

    *parsers*: ``"std"`` (manually written analyzers) or ``"pac"``
    (BinPAC++-generated HILTI parsers).
    *scripts_engine*: ``"interp"`` (tree-walking) or ``"hilti"``
    (compiled; the paper's ``compile_scripts=T``).

    Implements the same :class:`~repro.host.app.HostApp` hooks as the
    other three apps, so the shared :class:`~repro.host.pipeline.
    Pipeline`, the flow-parallel lanes and the service drive it, and
    report its stats and metrics, like any other app.
    """

    name = "bro"

    def __init__(
        self,
        scripts: Optional[List[str]] = None,
        parsers: str = "std",
        scripts_engine: str = "interp",
        log_enabled: bool = True,
        print_stream=None,
        pac_parsers=None,
        fault_injector=None,
        watchdog_budget: Optional[int] = None,
        breaker_threshold: float = 0.25,
        breaker_min_flows: int = 8,
        opt_level: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        max_sessions: Optional[int] = None,
        session_ttl: Optional[float] = None,
    ):
        if parsers not in ("std", "pac"):
            raise ValueError(f"unknown parser tier {parsers!r}")
        if scripts_engine not in ("interp", "hilti"):
            raise ValueError(f"unknown script engine {scripts_engine!r}")
        self.parser_tier = parsers
        self.script_tier = scripts_engine
        # The cross-cutting services: deterministic fault injector (off
        # by default), recovery/health accounting with the circuit
        # breaker that degrades pac -> std when too many flows violate,
        # the per-packet instruction watchdog for the HILTI execution
        # contexts, and the telemetry switchboard (metrics and flow
        # tracing both off by default; the disabled path costs one
        # boolean check per guarded hook).
        super().__init__(PipelineServices(
            faults=fault_injector,
            health=HealthReport(CircuitBreaker(
                threshold=breaker_threshold, min_flows=breaker_min_flows,
            )),
            watchdog_budget=watchdog_budget,
            telemetry=telemetry,
            max_sessions=max_sessions,
            session_ttl=session_ttl,
        ))
        self.core = BroCore(log_enabled=log_enabled,
                            print_stream=print_stream)
        self.core.count_events = self.telemetry.enabled
        # The analyzers and script engines read the services through
        # the core.
        self.core.faults = self.services.faults
        self.core.health = self.services.health
        self.core.watchdog_budget = self.services.watchdog_budget
        self.core.logs.create_stream("conn", CONN_LOG_COLUMNS)
        self.core.logs.create_stream("http", HTTP_LOG_COLUMNS)
        self.core.logs.create_stream("files", FILES_LOG_COLUMNS)
        self.core.logs.create_stream("dns", DNS_LOG_COLUMNS)
        self.core.logs.create_stream("weird", WEIRD_LOG_COLUMNS)

        merged = Script()
        for source in (scripts if scripts is not None else default_scripts()):
            merged.merge(parse_script(source))
        self.script_ast = merged

        self.glue = None
        if scripts_engine == "interp":
            self.engine = ScriptInterp(
                merged, self.core, print_stream=self.core.print_stream
            )
        else:
            compiler = ScriptCompiler(merged, self.core,
                                      opt_level=opt_level,
                                      profile=self.telemetry.enabled)
            self.engine = compiler.compile()
            self.glue = compiler.glue
        self.core.script_engine = self.engine

        # Analyzer classes per service, resolved once: (std, pac).  The
        # pac analyzers (and BinPAC++) load only for a pac run.
        self._analyzers = {
            ("tcp", 80): (HttpStdAnalyzer, None),
            ("udp", 53): (DnsStdAnalyzer, None),
        }
        self._pac = None
        if parsers == "pac":
            from .analyzers.pac import (
                DnsPacAnalyzer,
                HttpPacAnalyzer,
                PacParsers,
            )

            self._pac = pac_parsers if pac_parsers is not None \
                else PacParsers(opt_level=opt_level)
            self._analyzers = {
                ("tcp", 80): (HttpStdAnalyzer, HttpPacAnalyzer),
                ("udp", 53): (DnsStdAnalyzer, DnsPacAnalyzer),
            }
        self.tracker = ConnectionTracker(self.core, self._make_analyzer,
                                         tracer=self.telemetry.tracer,
                                         max_sessions=max_sessions,
                                         session_ttl=session_ttl)

    # -- analyzer wiring ----------------------------------------------------

    def _effective_tier(self) -> str:
        """The parser tier new flows get: ``pac`` degrades to ``std``
        once the circuit breaker has tripped (existing flows keep their
        analyzer; only new flows fall back)."""
        if self.parser_tier == "pac" and self.core.health.breaker.tripped:
            self.core.health.tier_fallbacks += 1
            return "std"
        return self.parser_tier

    def _make_analyzer(self, conn_val, proto: str, resp_port: int):
        analyzers = self._analyzers.get((proto, resp_port))
        if analyzers is None:
            return None
        std, pac = analyzers
        if self._effective_tier() == "std":
            return std(conn_val, self.core)
        return pac(conn_val, self.core, self._pac)

    # -- the shared-substrate surface ---------------------------------------

    def result_lines(self) -> List[str]:
        """Every log line of the run, sorted — the byte-identity
        fingerprint stream the differential oracles compare."""
        lines: List[str] = []
        for name in self.core.logs.streams:
            lines.extend(self.core.logs.lines(name))
        return sorted(lines)

    def flow_record_lines(self) -> List[str]:
        """The connection ledger's sealed flow records, sorted."""
        return self.tracker.flow_record_lines()

    def session_stats(self) -> Dict[str, int]:
        return {
            "open": self.tracker.open_flows(),
            "evicted": self.tracker.sessions_evicted,
            "expired": self.tracker.sessions_expired,
        }

    def flow_snapshot(self, limit: int = 256) -> List[Dict]:
        return self.tracker.flow_snapshot(limit)

    # -- the HostApp hooks ---------------------------------------------------

    def begin(self) -> None:
        """The ``bro_init`` lifecycle event.  Every parallel lane
        repeats it, so no fault fires inside it."""
        with self.core.faults.suspended():
            self.core.queue_event("bro_init", [])
            self.core.drain_events()

    def packet(self, timestamp: Time, frame: bytes) -> None:
        """Process one packet and drain the events it raised."""
        self.tracker.packet(timestamp, frame, self.ordinal)
        self.core.drain_events()

    def finish(self) -> None:
        """Close every flow, then the ``bro_done`` lifecycle event."""
        self.tracker.finish()
        with self.core.faults.suspended():
            self.core.queue_event("bro_done", [])
            self.core.drain_events()

    def cpu_ns(self) -> Dict[str, int]:
        """Parser-side glue (unit structs -> event values inside the pac
        analyzer adapters) is timed under parsing; ``self.glue``
        accounts the script-side glue, which the script timer also
        covers."""
        glue_ns = self.glue.ns_spent if self.glue is not None else 0
        return {
            "parsing": self.tracker.parsing_ns,
            "script": max(0, self.core.timers["script"] - glue_ns),
            "glue": glue_ns,
        }

    def app_stats(self) -> Dict[str, object]:
        return {
            "events": self.core.events_dispatched,
            "parser_tier": self.parser_tier,
            "script_tier": self.script_tier,
        }

    # -- telemetry ----------------------------------------------------------------

    def engine_contexts(self) -> List[Tuple[str, object]]:
        """Every HILTI ExecutionContext this run drove, labeled."""
        contexts: List[Tuple[str, object]] = []
        ctx = getattr(self.engine, "ctx", None)
        if ctx is not None:
            contexts.append(("scripts", ctx))
        if self._pac is not None:
            contexts.append(("pac/http", self._pac.http.ctx))
            contexts.append(("pac/dns", self._pac.dns.ctx))
        return contexts

    def _opt_stats(self) -> List[Tuple[str, object]]:
        """OptStats of every compiled program in the pipeline, labeled."""
        out: List[Tuple[str, object]] = []
        program = getattr(self.engine, "program", None)
        stats = getattr(program, "opt_stats", None)
        if stats is not None:
            out.append(("scripts", stats))
        if self._pac is not None:
            for label, parser in (("pac/http", self._pac.http),
                                  ("pac/dns", self._pac.dns)):
                stats = getattr(parser.program, "opt_stats", None)
                if stats is not None:
                    out.append((label, stats))
        return out

    def gather_metrics(self, metrics) -> None:
        """Bro's own series: event and flow counts, glue accounting,
        optimizer rewrites, flow-table and reassembler occupancy."""
        tracker = self.tracker
        for name, value in (
                ("packets_ignored", tracker.ignored),
                ("events_queued", self.core.events_queued),
                ("events_dispatched", self.core.events_dispatched),
                ("flows_closed", tracker.flows_closed)):
            metrics.counter(f"bro.{name}").inc(value)
        for proto, count in tracker.flows_opened.items():
            metrics.counter("bro.flows_opened", proto=proto).inc(count)
        for name, count in sorted(self.core.event_counts.items()):
            metrics.counter("bro.events_by_name", event=name).inc(count)
        if self.glue is not None:
            glue = self.glue.stats()
            metrics.counter("glue.to_hilti_calls").inc(
                glue["to_hilti_calls"])
            metrics.counter("glue.from_hilti_calls").inc(
                glue["from_hilti_calls"])
        for label, opt_stats in self._opt_stats():
            for pass_name, count in opt_stats.as_dict().items():
                metrics.counter(
                    "opt.rewrites", context=label, opt_pass=pass_name,
                ).inc(count)
        metrics.gauge("bro.flows_open").set(tracker.open_flows())
        metrics.gauge("bro.flows_peak").set(tracker.peak_flows)
        for name, value in tracker.reassembly_stats().items():
            if name == "pending_bytes":
                metrics.gauge("reassembly.pending_bytes").set(value)
            else:
                metrics.counter(f"reassembly.{name}").inc(value)

    def report_config(self) -> Dict[str, object]:
        return {"parsers": self.parser_tier,
                "scripts_engine": self.script_tier}

    def report_sections(self) -> Dict[str, Dict]:
        sections = super().report_sections()
        sections["occupancy"] = {
            "flows_open": self.tracker.open_flows(),
            "flows_peak": self.tracker.peak_flows,
            "reassembly_pending_bytes":
                self.tracker.reassembly_stats()["pending_bytes"],
        }
        return sections

    def run_pcap(self, path: str, tolerant: bool = False) -> Dict:
        """Drive the run from a pcap trace through the shared pipeline
        (tolerant reader, ``pcap.record`` injection point, robustness
        counters into ``services.pcap_stats``)."""
        return Pipeline(self).run_pcap(path, tolerant=tolerant)

    # -- results ------------------------------------------------------------------

    def log_lines(self, stream: str) -> List[str]:
        return self.core.logs.lines(stream)

    def call_function(self, name: str, args: List = ()):  # fib bench etc.
        return self.engine.call_function(name, list(args))
