"""The sequential pipeline: pcap ingest driving one :class:`HostApp`.

Owns everything between the trace file and the app callbacks — the
tolerant pcap reader with skip/resync accounting, each packet's fault
unit (``PipelineServices.admit``), the robustness counters the
exporter publishes —
plus the unified telemetry file emitters (``metrics.jsonl``,
``stats.log``, ``prof.log``, ``flows.jsonl``, ``cpu_breakdown.json``)
that every host application's report writers
(:meth:`HostApp.write_telemetry` and friends) share.

Extracted from ``repro.apps.bro.main`` (which now delegates here); the
BPF filter, firewall, and BinPAC++ drivers get the identical ingest and
reporting for free.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..runtime.faults import NULL_INJECTOR
from ..runtime.telemetry import render_stats_log
from .app import HostApp

__all__ = [
    "Pipeline",
    "write_flowrecords_jsonl",
    "write_flows_jsonl",
    "write_metrics_jsonl",
    "write_parallel_prof_log",
    "write_prof_log",
    "write_stats_log",
]


# --------------------------------------------------------------------------
# Shared telemetry file emitters
# --------------------------------------------------------------------------


def write_metrics_jsonl(path: str, registry, meta: Optional[Dict] = None,
                        ) -> str:
    """Dump a MetricsRegistry as schema-tagged JSON lines."""
    with open(path, "w") as stream:
        registry.emit_jsonl(stream, meta=meta)
    return path


def write_stats_log(path: str, stats: Dict,
                    sections: Optional[Dict[str, Dict]] = None) -> str:
    """Render the human-readable run summary."""
    with open(path, "w") as stream:
        stream.write(render_stats_log(stats, sections))
    return path


def write_prof_log(path: str, contexts: List[Tuple[str, object]]) -> str:
    """Dump every execution context's profilers, labeled."""
    with open(path, "w") as stream:
        for label, ctx in contexts:
            stream.write(f"# context {label}\n")
            ctx.profilers.dump(stream)
    return path


def write_parallel_prof_log(path: str, results: List[Dict]) -> str:
    """Assemble the per-worker profiler dump a parallel run harvested:
    each lane result's ``prof`` entry (``(label, text)`` pairs rendered
    worker-side by :func:`repro.host.parallel.prof_snapshots`) lands
    under a ``# worker N context L`` section header."""
    with open(path, "w") as stream:
        for index, result in enumerate(results):
            for label, text in result.get("prof") or []:
                stream.write(f"# worker {index} context {label}\n")
                stream.write(text)
    return path


def write_flows_jsonl(path: str, lines: Iterable[str]) -> str:
    """Dump per-flow span-tree lines (``Tracer.lines``) as JSON lines."""
    with open(path, "w") as stream:
        for line in lines:
            stream.write(line + "\n")
    return path


# Re-exported next to the other emitters so telemetry writers import
# the whole family from one place.
from ..net.flowrecord import write_flowrecords_jsonl  # noqa: E402


# --------------------------------------------------------------------------
# The sequential pipeline
# --------------------------------------------------------------------------


class Pipeline:
    """Drive one :class:`HostApp` over a packet source."""

    def __init__(self, app: HostApp):
        self.app = app

    # -- running -----------------------------------------------------------

    def run(self, packets) -> Dict:
        """Process an iterable of ``(Time, frame)``; returns app stats.
        With faults armed, each packet enters its fault unit (which
        stays entered while the app processes it) before the app sees
        it, and a dropped packet still uses up its ordinal."""
        app = self.app
        if app.services.faults is not NULL_INJECTOR:
            packets = self._admitted(packets)
        return app.run(packets)

    def _admitted(self, packets):
        app = self.app
        admit = app.services.admit
        for timestamp, frame in packets:
            if admit(timestamp.nanos, frame):
                yield timestamp, frame
            else:
                app.ordinal += 1

    def result_lines(self) -> List[str]:
        return sorted(self.app.result_lines())

    def flow_record_lines(self) -> List[str]:
        return self.app.flow_record_lines()

    def _pcap_records(self, reader):
        """Iterate trace records; the reader's final counters land in
        ``services.pcap_stats`` (in place — the exporter and any aliases
        keep seeing them) and its skipped records in the health report
        once the generator is exhausted, which happens before the run
        takes its totals."""
        yield from reader
        services = self.app.services
        services.pcap_stats.clear()
        services.pcap_stats.update(reader.counters())
        services.health.records_skipped += reader.records_skipped

    def run_pcap(self, path: str, tolerant: bool = False) -> Dict:
        """Drive the app from a pcap trace file."""
        from ..net.pcap import PcapReader

        with PcapReader(path, tolerant=tolerant) as reader:
            return self.run(self._pcap_records(reader))

    # -- reporting (the app's own writers) ---------------------------------

    def cpu_breakdown(self, config: Optional[Dict] = None) -> Dict:
        """The Figures 9/10 machine-readable report for the last run."""
        return self.app.cpu_breakdown(config)

    def write_cpu_breakdown(self, path: str,
                            config: Optional[Dict] = None) -> Dict:
        return self.app.write_cpu_breakdown(path, config)

    def write_telemetry(self, logdir: str) -> List[str]:
        """Emit the reporting layer's files into *logdir*."""
        return self.app.write_telemetry(logdir)
