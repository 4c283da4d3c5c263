"""The host-application interface.

A :class:`HostApp` is one workload over the shared pipeline substrate:
the BPF filter, the stateful firewall, the BinPAC++ parser driver, and
the Bro-style script pipeline all implement this interface, and
:class:`repro.host.pipeline.Pipeline` / :class:`repro.host.parallel.
ParallelPipeline` drive any of them identically — same pcap ingest, same
fault-injection and health accounting, same telemetry exporter, same
parallel dispatch and merge.

The drive API is three calls — ``on_begin()``, ``on_packet(ts, frame)``
per record, ``on_end()`` — mirroring the incremental API the
flow-parallel lanes already used for Bro.  Apps implement the overridable
hooks below (``packet`` is the only mandatory one).
"""

from __future__ import annotations

import json as _json
import os as _os
import time as _time
from typing import Dict, Iterable, List, Optional, Tuple

from ..runtime.faults import (
    NULL_INJECTOR,
    SITE_PCAP_RECORD,
    SITE_SERVICE_LANE,
    HealthReport,
)
from ..runtime.telemetry import Telemetry, cpu_breakdown_report

__all__ = ["HostApp", "PipelineServices", "cpu_stats", "export_cpu_gauges",
           "export_health"]


class PipelineServices:
    """The cross-cutting services a pipeline run threads through an app:
    the (deterministic, off-by-default) fault injector, the recovery and
    health accounting, the per-packet instruction watchdog budget, the
    telemetry switchboard, the pcap reader's robustness counters, and
    the session-state bounds (entry cap / inactivity TTL / reassembly
    memory budget) stateful apps enforce via LRU eviction.
    """

    __slots__ = ("faults", "health", "watchdog_budget", "telemetry",
                 "pcap_stats", "max_sessions", "session_ttl",
                 "memory_budget_bytes")

    def __init__(self, faults=None, health=None,
                 watchdog_budget: Optional[int] = None,
                 telemetry: Optional[Telemetry] = None,
                 pcap_stats: Optional[Dict[str, int]] = None,
                 max_sessions: Optional[int] = None,
                 session_ttl: Optional[float] = None,
                 memory_budget_bytes: Optional[int] = None):
        self.faults = faults if faults is not None else NULL_INJECTOR
        self.health = health if health is not None else HealthReport()
        self.watchdog_budget = watchdog_budget
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        # Filled in place by Pipeline's pcap ingest (records_read /
        # records_skipped / resyncs) so the exporter sees final counters.
        self.pcap_stats = pcap_stats if pcap_stats is not None else {}
        self.max_sessions = max_sessions
        self.session_ttl = session_ttl
        self.memory_budget_bytes = memory_budget_bytes

    def admit(self, nanos: int, frame: bytes) -> bool:
        """Enter the packet's fault unit and apply the host-owned
        packet-level draws (``pcap.record``, ``packet.parse``); False
        when one fired and the app must not see the frame.  Every
        driver that hands a packet to an app calls this first when the
        injector is armed."""
        site = self.faults.enter_packet(nanos, frame)
        if site is None:
            return True
        self.health.record_error(site)
        if site == SITE_PCAP_RECORD:
            self.health.records_skipped += 1
        return False

    def admit_to_lane(self, nanos: int, frame: bytes) -> bool:
        """:meth:`admit` at a lane loop's packet entry, which is also
        the ``service.lane`` crash site: a fault there raises out of
        the loop and crashes the lane.  Batch drivers leave that site
        unarmed; a sequential run has no lane to crash."""
        if not self.admit(nanos, frame):
            return False
        self.faults.check(SITE_SERVICE_LANE)
        return True


def cpu_stats(total_ns: int, cpu: Dict[str, int]) -> Dict[str, int]:
    """The ``*_ns`` entries of a stats report: *total_ns* is the run's
    wall clock, *cpu* any of ``parsing``/``script``/``glue`` (what
    :meth:`HostApp.cpu_ns` returns, or the lanes' sums), and ``other``
    the remainder — computed here and nowhere else."""
    parsing_ns = int(cpu.get("parsing", 0))
    script_ns = int(cpu.get("script", 0))
    glue_ns = int(cpu.get("glue", 0))
    return {
        "total_ns": total_ns,
        "parsing_ns": parsing_ns,
        "script_ns": script_ns,
        "glue_ns": glue_ns,
        "other_ns": max(0, total_ns - parsing_ns - script_ns - glue_ns),
    }


def export_cpu_gauges(metrics, app: str, stats: Dict) -> None:
    """Publish a stats report's CPU attribution as ``{app}.cpu_ns``
    gauges, one per component."""
    for component in ("parsing", "script", "glue", "other", "total"):
        metrics.gauge(f"{app}.cpu_ns", component=component).set(
            int(stats[f"{component}_ns"]))


def export_health(metrics, health: Dict) -> None:
    """Publish one HealthReport dict into a MetricsRegistry — the shape
    every host app shares (``health.*`` counters plus the breaker gauge).
    """
    for name in ("flows_quarantined", "records_skipped",
                 "watchdog_trips", "injected_faults"):
        metrics.counter(f"health.{name}").inc(health[name])
    for site, count in health["site_errors"].items():
        metrics.counter("health.site_errors", site=site).inc(count)
    metrics.gauge("health.breaker_tripped").set(
        int(health["breaker"]["tripped"]))


class HostApp:
    """Base class for workloads driven by the shared pipeline.

    Subclasses set :attr:`name` (the metrics namespace) and implement
    :meth:`packet`; the remaining hooks — :meth:`begin`, :meth:`finish`,
    :meth:`cpu_ns`, :meth:`app_stats`, :meth:`gather_metrics`,
    :meth:`engine_contexts`, :meth:`metric_sources`,
    :meth:`result_lines`, :meth:`report_config`,
    :meth:`report_sections` — have working defaults.
    """

    #: Metrics namespace and the ``app`` field of the stats report.
    name = "app"

    def __init__(self, services: Optional[PipelineServices] = None):
        self.services = (services if services is not None
                         else PipelineServices())
        self.telemetry = self.services.telemetry
        self.stats: Dict[str, object] = {}
        self.packets = 0
        #: The ordinal of the packet in hand, which names the flows it
        #: opens (docs/FLOWS.md, "Uid assignment").  :meth:`on_packet`
        #: advances it; a driver that skips records or hands a lane
        #: only some of them sets it before each packet.
        self.ordinal = 0
        self._begin_ns: Optional[int] = None

    # -- the drive API (what Pipeline / the parallel lanes call) ----------

    def on_begin(self) -> None:
        """Start a run: timing origin, app-specific setup."""
        self._begin_ns = _time.perf_counter_ns()
        self.packets = 0
        self.ordinal = 0
        self.begin()

    def on_packet(self, timestamp, frame: bytes) -> None:
        """Process one trace record, the one numbered :attr:`ordinal`."""
        self.packets += 1
        self.packet(timestamp, frame)
        self.ordinal += 1

    def on_end(self) -> Dict:
        """Finish a run: flush app state, assemble the stats report."""
        self.finish()
        total_ns = _time.perf_counter_ns() - (self._begin_ns or 0)
        self.stats = {
            "app": self.name,
            **cpu_stats(total_ns, self.cpu_ns()),
            "packets": self.packets,
            "health": self.services.health.as_dict(self.services.faults),
        }
        self.stats.update(self.app_stats())
        if self.telemetry.enabled:
            self.export_metrics()
        return self.stats

    def run(self, packets: Iterable[Tuple[object, bytes]]) -> Dict:
        """Convenience sequential drive: begin + packet* + end."""
        self.on_begin()
        for timestamp, frame in packets:
            self.on_packet(timestamp, frame)
        return self.on_end()

    # -- overridable hooks -------------------------------------------------

    def begin(self) -> None:
        """App-specific run setup (lifecycle events, ...)."""

    def packet(self, timestamp, frame: bytes) -> None:
        """Process one packet (mandatory)."""
        raise NotImplementedError

    def finish(self) -> None:
        """App-specific teardown (close flows, flush parsers, ...)."""

    def cpu_ns(self) -> Dict[str, int]:
        """Per-component CPU attribution: any of ``parsing`` /
        ``script`` / ``glue`` (ns); the remainder becomes ``other``."""
        return {}

    def app_stats(self) -> Dict[str, object]:
        """Extra entries merged into the stats report.  Integer values
        are treated as counters by the parallel merge (they sum across
        lanes)."""
        return {}

    def engine_contexts(self) -> List[Tuple[str, object]]:
        """Every HILTI ExecutionContext the app drove, labeled — feeds
        the ``engine.*`` series and the ``prof.log`` dump."""
        return []

    def metric_sources(self) -> List[Tuple[str, object]]:
        """Labeled components with the uniform ``export_metrics``
        shape (session tables, reassemblers, I/O sources...)."""
        return []

    def gather_metrics(self, metrics) -> None:
        """App-specific series beyond the uniform exporter's."""

    def result_lines(self) -> List[str]:
        """The run's result stream as sortable text lines — the byte
        fingerprint the differential oracles (sequential vs parallel,
        compiled vs interpreted) compare."""
        return []

    def flow_record_lines(self) -> List[str]:
        """The run's sealed flow records as sorted JSON lines (schema
        ``repro-flowrecords/1``) — every app's ledger exports through
        here, and the parallel merge keeps the stream byte-identical
        to the sequential run's.  Apps without a flow ledger report an
        empty stream."""
        return []

    def session_stats(self) -> Dict[str, int]:
        """Session-table occupancy and eviction counters.  Stateful
        apps override; the default (no per-session state, or state
        HILTI-internal) reports zeros so every app exports the same
        ``sessions_evicted``/``sessions_expired`` series."""
        return {"open": 0, "evicted": 0, "expired": 0}

    def flow_snapshot(self, limit: int = 256) -> List[Dict]:
        """The open sessions as plain dicts (the service's ``/flows``
        endpoint); stateless apps report an empty list."""
        return []

    def live_metrics(self) -> Dict[str, float]:
        """Cheap point-in-time counters for the cross-process telemetry
        plane's periodic ``TELEM`` snapshots (pool workers ship these
        mid-run, before ``export_metrics`` has populated the registry
        at ``on_end``).  Must stay O(1): it runs on the worker's packet
        path cadence."""
        out = {"packets": float(self.packets)}
        try:
            out["sessions_open"] = float(self.session_stats()["open"])
        except Exception:
            pass
        return out

    # -- the uniform exporter ---------------------------------------------

    def export_metrics(self) -> None:
        """Publish the shared series every host app reports: packet
        throughput, per-component CPU, engine dispatch counters, the
        health report, pcap robustness counters, uniform component
        sources, tracer self-accounting — then the app's own extras."""
        metrics = self.telemetry.metrics
        stats = self.stats
        metrics.counter(f"{self.name}.packets_total").inc(
            int(stats["packets"]))
        export_cpu_gauges(metrics, self.name, stats)
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
        export_health(metrics, stats["health"])
        sessions = self.session_stats()
        metrics.counter(f"{self.name}.sessions_evicted").inc(
            int(sessions["evicted"]))
        metrics.counter(f"{self.name}.sessions_expired").inc(
            int(sessions["expired"]))
        for name, value in self.services.pcap_stats.items():
            metrics.counter(f"pcap.{name}").inc(value)
        for label, source in self.metric_sources():
            source.export_metrics(metrics, label)
        self.gather_metrics(metrics)
        tracer = self.telemetry.tracer
        if tracer.enabled:
            metrics.counter("trace.spans_started").inc(tracer.spans_started)
            metrics.counter("trace.spans_dropped").inc(tracer.spans_dropped)

    # -- reporting (what Pipeline's report writers delegate to) -----------

    def report_config(self) -> Dict[str, object]:
        """The run configuration stamped into ``cpu_breakdown.json`` and
        the ``metrics.jsonl`` header."""
        return {"app": self.name}

    def report_sections(self) -> Dict[str, Dict]:
        """The key/value blocks ``stats.log`` carries below the
        breakdown."""
        sections: Dict[str, Dict] = {}
        health = self.stats.get("health") if self.stats else None
        if health:
            sections["health"] = {
                key: health[key]
                for key in ("flows_quarantined", "records_skipped",
                            "watchdog_trips", "injected_faults")
                if key in health
            }
        engines = {
            f"{label}.instructions": ctx.instr_count
            for label, ctx in self.engine_contexts()
        }
        if engines:
            sections["engine"] = engines
        return sections

    def cpu_breakdown(self, config: Optional[Dict] = None) -> Dict:
        """The Figures 9/10 machine-readable report for the last run."""
        if not self.stats:
            raise RuntimeError("cpu_breakdown() requires a completed run")
        return cpu_breakdown_report(
            self.stats,
            config=config if config is not None else self.report_config())

    def write_cpu_breakdown(self, path: str,
                            config: Optional[Dict] = None) -> Dict:
        """Write the Figures 9/10 JSON report; returns the report."""
        report = self.cpu_breakdown(config)
        with open(path, "w") as stream:
            _json.dump(report, stream, indent=2, sort_keys=True)
            stream.write("\n")
        return report

    def write_telemetry(self, logdir: str) -> List[str]:
        """Emit the reporting layer's files into *logdir*; returns the
        paths written.  ``prof.log`` appears when the app drove HILTI
        execution contexts, ``flows.jsonl`` when tracing was armed."""
        from .pipeline import (write_flowrecords_jsonl, write_flows_jsonl,
                               write_metrics_jsonl, write_prof_log,
                               write_stats_log)

        _os.makedirs(logdir, exist_ok=True)
        written = [
            write_metrics_jsonl(
                _os.path.join(logdir, "metrics.jsonl"),
                self.telemetry.metrics, meta=self.report_config()),
            write_stats_log(
                _os.path.join(logdir, "stats.log"), self.stats,
                self.report_sections()),
            write_flowrecords_jsonl(
                _os.path.join(logdir, "flow_records.jsonl"), self.name,
                self.flow_record_lines()),
        ]
        contexts = list(self.engine_contexts())
        if contexts:
            written.append(write_prof_log(
                _os.path.join(logdir, "prof.log"), contexts))
        if self.telemetry.tracer.enabled:
            written.append(write_flows_jsonl(
                _os.path.join(logdir, "flows.jsonl"),
                self.telemetry.tracer.lines()))
        return written
