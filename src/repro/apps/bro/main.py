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

import time as _time
from typing import Dict, List, Optional, Tuple

from ...core.values import Time
from ...host.app import HostApp, PipelineServices, export_health
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

    Implements the :class:`~repro.host.app.HostApp` drive API
    (``on_begin``/``on_packet``/``on_end``) directly, so the shared
    :class:`~repro.host.pipeline.Pipeline`, the flow-parallel lanes and
    the service drive it like any other app; it keeps its own stats
    assembly and exporter so its reports stay byte-identical.
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
        uid_map=None,
        max_sessions: Optional[int] = None,
        session_ttl: Optional[float] = None,
    ):
        if parsers not in ("std", "pac"):
            raise ValueError(f"unknown parser tier {parsers!r}")
        if scripts_engine not in ("interp", "hilti"):
            raise ValueError(f"unknown script engine {scripts_engine!r}")
        self.parser_tier = parsers
        self.script_tier = scripts_engine
        # Telemetry switchboard (repro.runtime.telemetry): metrics and
        # flow tracing are both off by default; the disabled path costs
        # one boolean check per guarded hook.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.core = BroCore(log_enabled=log_enabled,
                            print_stream=print_stream)
        self.core.count_events = self.telemetry.enabled
        # Fault-isolation services: deterministic injector (off by
        # default), recovery/health accounting, per-packet instruction
        # watchdog for the HILTI execution contexts, and the circuit
        # breaker that degrades pac -> std when too many flows violate.
        if fault_injector is not None:
            self.core.faults = fault_injector
        self.core.health = HealthReport(CircuitBreaker(
            threshold=breaker_threshold, min_flows=breaker_min_flows,
        ))
        self.core.watchdog_budget = watchdog_budget
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
                                         uid_map=uid_map,
                                         max_sessions=max_sessions,
                                         session_ttl=session_ttl)
        self.stats: Dict[str, object] = {}
        self._pcap_stats: Dict[str, int] = {}
        self._begin_ns: Optional[int] = None

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

    @property
    def services(self) -> PipelineServices:
        """The cross-cutting services view the shared pipeline drives
        through — backed by this instance's core state, so the pcap
        ingest and exporters see exactly what the analyzers see."""
        return PipelineServices(
            faults=self.core.faults,
            health=self.core.health,
            watchdog_budget=self.core.watchdog_budget,
            telemetry=self.telemetry,
            pcap_stats=self._pcap_stats,
            max_sessions=self.tracker.max_sessions,
            session_ttl=self.tracker.session_ttl,
        )

    @property
    def packets(self) -> int:
        """Packets processed so far (the tracker counts every frame)."""
        return self.tracker.packets

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

    # -- the drive API -------------------------------------------------------

    def on_begin(self) -> None:
        """Start a run: lifecycle event, timing origin.  Every parallel
        lane repeats ``bro_init``, so no fault fires inside it."""
        self._begin_ns = _time.perf_counter_ns()
        with self.core.faults.suspended():
            self.core.queue_event("bro_init", [])
            self.core.drain_events()

    def on_packet(self, timestamp: Time, frame: bytes) -> None:
        """Process one packet and drain the events it raised."""
        self.tracker.packet(timestamp, frame)
        self.core.drain_events()

    def on_end(self) -> Dict:
        """Finish a run: close flows, lifecycle event, assemble stats."""
        self.tracker.finish()
        with self.core.faults.suspended():
            self.core.queue_event("bro_done", [])
            self.core.drain_events()
        total_ns = _time.perf_counter_ns() - self._begin_ns

        # Parser-side glue (unit structs -> event values inside the pac
        # analyzer adapters) is timed under parsing; ``self.glue``
        # accounts the script-side glue.
        glue_ns = self.glue.ns_spent if self.glue is not None else 0
        parsing_ns = self.tracker.parsing_ns
        script_ns = max(0, self.core.timers["script"] - glue_ns)
        other_ns = max(0, total_ns - parsing_ns - script_ns - glue_ns)
        self.stats = {
            "total_ns": total_ns,
            "parsing_ns": parsing_ns,
            "script_ns": script_ns,
            "glue_ns": glue_ns,
            "other_ns": other_ns,
            "packets": self.tracker.packets,
            "events": self.core.events_dispatched,
            "parser_tier": self.parser_tier,
            "script_tier": self.script_tier,
            "health": self.core.health.as_dict(self.core.faults),
        }
        if self.telemetry.enabled:
            self._gather_metrics()
        return self.stats

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

    def _gather_metrics(self) -> None:
        """Unify every component's counters into the metrics registry.

        One exporter over the previously scattered instrumentation:
        pipeline counts, per-component CPU attribution, both execution
        tiers' dispatch counters, glue accounting, the fault layer's
        HealthReport, optimizer OptStats, pcap reader skip/resync
        counters, and reassembler/flow-table occupancy.
        """
        metrics = self.telemetry.metrics
        stats = self.stats

        # Pipeline throughput.
        pipeline = {
            "packets_total": self.tracker.packets,
            "packets_ignored": self.tracker.ignored,
            "events_queued": self.core.events_queued,
            "events_dispatched": self.core.events_dispatched,
            "flows_closed": self.tracker.flows_closed,
            "sessions_evicted": self.tracker.sessions_evicted,
            "sessions_expired": self.tracker.sessions_expired,
        }
        for name, value in pipeline.items():
            metrics.counter(f"bro.{name}").inc(value)
        for proto, count in self.tracker.flows_opened.items():
            metrics.counter("bro.flows_opened", proto=proto).inc(count)
        for name, count in sorted(self.core.event_counts.items()):
            metrics.counter("bro.events_by_name", event=name).inc(count)

        # Per-component CPU attribution (Figures 9-10 substrate).
        for component in ("parsing", "script", "glue", "other", "total"):
            metrics.gauge(
                "bro.cpu_ns", component=component,
            ).set(int(stats[f"{component}_ns"]))

        # Execution tiers: instruction/dispatch counters per context.
        for label, ctx in self.engine_contexts():
            metrics.counter(
                "engine.instructions", context=label,
            ).inc(ctx.instr_count)
            metrics.counter(
                "engine.blocks_dispatched", context=label,
            ).inc(ctx.blocks_dispatched)
            metrics.counter(
                "engine.segments_dispatched", context=label,
            ).inc(ctx.segments_dispatched)
            metrics.counter(
                "engine.allocations", context=label,
            ).inc(ctx.alloc_stats.allocations)

        # HILTI-to-Bro glue accounting.
        if self.glue is not None:
            glue = self.glue.stats()
            metrics.counter("glue.to_hilti_calls").inc(
                glue["to_hilti_calls"])
            metrics.counter("glue.from_hilti_calls").inc(
                glue["from_hilti_calls"])

        # Fault layer (HealthReport) and circuit breaker — the uniform
        # shape every host app publishes.
        export_health(metrics, stats["health"])

        # Optimizer pass statistics.
        for label, opt_stats in self._opt_stats():
            for pass_name, count in opt_stats.as_dict().items():
                metrics.counter(
                    "opt.rewrites", context=label, opt_pass=pass_name,
                ).inc(count)

        # Trace-input robustness counters (populated by run_pcap).
        for name, value in self._pcap_stats.items():
            metrics.counter(f"pcap.{name}").inc(value)

        # Flow-table and reassembler occupancy.
        metrics.gauge("bro.flows_open").set(self.tracker.open_flows())
        metrics.gauge("bro.flows_peak").set(self.tracker.peak_flows)
        for name, value in self.tracker.reassembly_stats().items():
            if name == "pending_bytes":
                metrics.gauge("reassembly.pending_bytes").set(value)
            else:
                metrics.counter(f"reassembly.{name}").inc(value)

        # Tracer self-accounting (visible truncation).
        tracer = self.telemetry.tracer
        if tracer.enabled:
            metrics.counter("trace.spans_started").inc(tracer.spans_started)
            metrics.counter("trace.spans_dropped").inc(tracer.spans_dropped)

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
        counters into ``self._pcap_stats``)."""
        return Pipeline(self).run_pcap(path, tolerant=tolerant)

    # -- results ------------------------------------------------------------------

    def log_lines(self, stream: str) -> List[str]:
        return self.core.logs.lines(stream)

    def call_function(self, name: str, args: List = ()):  # fib bench etc.
        return self.engine.call_function(name, list(args))
