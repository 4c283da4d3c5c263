"""End-to-end telemetry: the unified exporter over the Bro pipeline.

Exercises the Figures 9/10 CPU-breakdown report, the metrics registry
fed by every pipeline component, per-flow span trees, and the report
files the ``--metrics`` / ``--cpu-breakdown`` / ``--trace-flows`` CLI
flags produce.
"""

import io
import json
import multiprocessing

import pytest

from repro.apps.bro import Bro, ParallelBro
from repro.host.pool import shutdown_shared_pools
from repro.net.tracegen import (
    DnsTraceConfig,
    HttpTraceConfig,
    generate_dns_trace,
    generate_http_trace,
)
from repro.runtime.telemetry import (
    CPU_BREAKDOWN_SCHEMA,
    METRICS_SCHEMA,
    Telemetry,
)
from repro.tools.validate import validate


HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    yield
    shutdown_shared_pools()


@pytest.fixture(scope="module")
def http_trace():
    return generate_http_trace(HttpTraceConfig(sessions=20, seed=42))


def _untimed(doc):
    """A span-tree document without its timings (``duration_ns`` and
    every event's ``offset_ns``), which differ run to run."""
    doc = {key: value for key, value in doc.items()
           if key != "duration_ns"}
    if "events" in doc:
        doc["events"] = [{key: value for key, value in event.items()
                          if key != "offset_ns"}
                         for event in doc["events"]]
    if "children" in doc:
        doc["children"] = [_untimed(child) for child in doc["children"]]
    return doc


def _flow_docs(logdir):
    """The span trees of *logdir*'s ``flows.jsonl``, untimed and in a
    canonical order."""
    with open(f"{logdir}/flows.jsonl") as stream:
        docs = [_untimed(json.loads(line)) for line in stream]
    return sorted(docs, key=lambda doc: json.dumps(doc, sort_keys=True))


def _run(trace, metrics=True, trace_flows=False, **kwargs):
    bro = Bro(
        parsers="pac",
        scripts_engine="hilti",
        print_stream=io.StringIO(),
        telemetry=Telemetry(metrics=metrics, trace=trace_flows),
        **kwargs,
    )
    bro.run(trace)
    return bro


def _series(bro, name, **labels):
    key = (name, tuple(sorted(labels.items())))
    return bro.telemetry.metrics._series[key]


class TestCpuBreakdownReport:
    def test_schema_valid_all_components_nonzero(self, http_trace):
        report = _run(http_trace).cpu_breakdown()
        assert validate(CPU_BREAKDOWN_SCHEMA, report) == []
        for name in ("parsing", "script", "glue", "other"):
            assert report["components"][name]["ns"] > 0
            assert report["components"][name]["share"] > 0

    def test_shares_sum_to_100(self, http_trace):
        report = _run(http_trace).cpu_breakdown()
        total = sum(c["share"] for c in report["components"].values())
        assert round(total, 2) == 100.0

    def test_reproducible_dominant_component(self, http_trace):
        """Two runs over the same trace must agree on what dominates
        (the paper's Figures 9/10 claim is about relative breakdowns)."""
        first = _run(http_trace).cpu_breakdown()
        second = _run(http_trace).cpu_breakdown()
        assert first["ranking"][0] == second["ranking"][0]
        assert first["config"] == second["config"]
        assert first["packets"] == second["packets"]

    def test_requires_a_completed_run(self):
        bro = Bro(print_stream=io.StringIO(), telemetry=Telemetry(True))
        with pytest.raises(RuntimeError):
            bro.cpu_breakdown()


class TestUnifiedMetrics:
    def test_pipeline_counters_match_stats(self, http_trace):
        bro = _run(http_trace)
        assert _series(bro, "bro.packets_total").value == \
            bro.stats["packets"]
        assert _series(bro, "bro.events_dispatched").value == \
            bro.stats["events"]
        assert _series(
            bro, "bro.cpu_ns", component="parsing",
        ).value == bro.stats["parsing_ns"]

    def test_per_event_counts_sum_to_dispatched(self, http_trace):
        bro = _run(http_trace)
        by_name = [
            s for s in bro.telemetry.metrics.all_series()
            if s.name == "bro.events_by_name"
        ]
        assert by_name  # http_request, connection_state_remove, ...
        assert sum(s.value for s in by_name) == bro.stats["events"]

    def test_both_execution_tiers_reported(self, http_trace):
        bro = _run(http_trace)
        # Compiled scripts dispatch segments; pac parsers run HILTI too.
        assert _series(
            bro, "engine.instructions", context="scripts").value > 0
        assert _series(
            bro, "engine.segments_dispatched", context="scripts").value > 0
        assert _series(
            bro, "engine.instructions", context="pac/http").value > 0

    def test_glue_health_and_occupancy_present(self, http_trace):
        bro = _run(http_trace)
        assert _series(bro, "glue.to_hilti_calls").value > 0
        assert _series(bro, "health.flows_quarantined").value == 0
        assert _series(bro, "bro.flows_peak").value > 0
        assert _series(bro, "bro.flows_open").value == 0  # all closed
        assert _series(bro, "reassembly.delivered_bytes").value > 0

    def test_emitted_jsonl_validates(self, http_trace):
        bro = _run(http_trace)
        out = io.StringIO()
        bro.telemetry.metrics.emit_jsonl(out)
        assert validate(METRICS_SCHEMA, out.getvalue().splitlines()) == []

    def test_disabled_telemetry_gathers_nothing(self, http_trace):
        bro = _run(http_trace, metrics=False)
        assert bro.telemetry.metrics.collect() == []
        assert bro.core.event_counts == {}
        assert bro.telemetry.tracer.lines() == []
        # ...but the run itself is unaffected.
        assert bro.stats["packets"] == len(http_trace)


class TestFlowTracing:
    def test_span_trees_cover_flows_and_packets(self, http_trace):
        bro = _run(http_trace, trace_flows=True)
        roots = [json.loads(line) for line in bro.telemetry.tracer.lines()]
        assert len(roots) == bro.tracker.flows_opened["tcp"]
        flow = roots[0]
        assert flow["name"] == "flow"
        assert flow["attrs"]["proto"] == "tcp"
        packets = [c for c in flow["children"] if c["name"] == "packet"]
        assert packets
        parses = [c for p in packets for c in p.get("children", ())
                  if c["name"] == "parse"]
        assert parses
        assert any(e["name"] == "close" for e in flow["events"])
        # Every packet the ledger accounted is one packet child.
        records = [json.loads(line) for line in bro.flow_record_lines()]
        children = sum(len(root.get("children", ())) for root in roots)
        assert children == sum(r["orig_pkts"] + r["resp_pkts"]
                               for r in records)

    def test_trace_without_metrics(self, http_trace):
        bro = _run(http_trace, metrics=False, trace_flows=True)
        assert bro.telemetry.tracer.lines()
        assert bro.telemetry.metrics.collect() == []


class TestFlowTraceParity:
    """The cross-backend flow-trace oracle: every backend writes the
    same span trees as the sequential run, timings aside (lanes write
    them sorted, the sequential run in flow start order)."""

    @pytest.fixture(scope="class", params=["http", "dns"])
    def traced(self, request, tmp_path_factory):
        if request.param == "http":
            trace = generate_http_trace(HttpTraceConfig(sessions=12,
                                                        seed=7))
        else:
            trace = generate_dns_trace(DnsTraceConfig(queries=40, seed=7))
        logdir = str(tmp_path_factory.mktemp("seq"))
        bro = _run(trace, trace_flows=True)
        bro.write_telemetry(logdir)
        return trace, _flow_docs(logdir)

    @pytest.mark.parametrize("backend,workers", [
        ("vthread", 2),
        pytest.param("pool", 1, marks=pytest.mark.skipif(
            not HAVE_FORK, reason="pool wants fork")),
        pytest.param("pool", 3, marks=pytest.mark.skipif(
            not HAVE_FORK, reason="pool wants fork")),
    ])
    def test_backend_matches_sequential(self, traced, backend, workers,
                                        tmp_path):
        trace, sequential = traced
        assert sequential
        parallel = ParallelBro(
            parsers="pac", scripts_engine="hilti", workers=workers,
            backend=backend,
            telemetry=Telemetry(metrics=True, trace=True))
        parallel.run(trace)
        parallel.write_telemetry(str(tmp_path))
        assert _flow_docs(str(tmp_path)) == sequential


class TestGoldenFlowTrace:
    """The telemetry-reports CI job's ``flows.jsonl``, pinned byte for
    byte once its timings are zeroed: ``tracegen http --sessions 30
    --seed 42`` through ``bro --compile-scripts --parsers pac
    --trace-flows``.  The digest was recorded from the
    ``json.dumps(span.to_dict(), sort_keys=True)`` encoder the
    per-record templates replaced; the CI step holds the same one."""

    SHA256 = "c61570d7f81c28db978e2b477adc6f07b2cec2d32baf99574f21d31e7d20c2fd"

    def test_untimed_flow_trace_digest(self, tmp_path, capsys):
        import hashlib
        import re

        from repro.tools import bro, tracegen

        trace = str(tmp_path / "http.pcap")
        assert tracegen.main(["http", "--sessions", "30", "--seed", "42",
                              "-o", trace]) == 0
        logdir = str(tmp_path / "logs")
        assert bro.main(["-r", trace, "--compile-scripts", "--parsers",
                         "pac", "--metrics", "--trace-flows",
                         "--logdir", logdir]) == 0
        capsys.readouterr()
        with open(f"{logdir}/flows.jsonl", "rb") as stream:
            untimed = re.sub(rb'"(duration_ns|offset_ns)": [0-9]+',
                             rb'"\1": 0', stream.read())
        assert hashlib.sha256(untimed).hexdigest() == self.SHA256


class TestReportFiles:
    def test_write_telemetry_and_breakdown(self, tmp_path, http_trace):
        from repro.net.pcap import write_pcap

        pcap = str(tmp_path / "http.pcap")
        write_pcap(pcap, http_trace)
        bro = Bro(
            parsers="pac",
            scripts_engine="hilti",
            print_stream=io.StringIO(),
            telemetry=Telemetry(metrics=True, trace=True),
        )
        bro.run_pcap(pcap)

        logdir = str(tmp_path / "logs")
        written = {p.rsplit("/", 1)[-1] for p in bro.write_telemetry(logdir)}
        assert written == {
            "metrics.jsonl", "stats.log", "prof.log", "flows.jsonl",
            "flow_records.jsonl",
        }

        with open(f"{logdir}/metrics.jsonl") as stream:
            lines = stream.read().splitlines()
        assert validate(METRICS_SCHEMA, lines) == []
        names = {json.loads(line).get("name") for line in lines[1:]}
        assert "pcap.records_read" in names  # run_pcap fed the reader stats

        report = bro.write_cpu_breakdown(str(tmp_path / "cpu.json"))
        with open(tmp_path / "cpu.json") as stream:
            on_disk = json.load(stream)
        assert on_disk == report
        assert validate(CPU_BREAKDOWN_SCHEMA, on_disk) == []

        stats_log = (tmp_path / "logs" / "stats.log").read_text()
        assert "[health]" in stats_log and "[engine]" in stats_log
        prof_log = (tmp_path / "logs" / "prof.log").read_text()
        assert "# context scripts" in prof_log
        assert "#profile func/" in prof_log  # compiled scripts instrumented

        flows = [
            json.loads(line)
            for line in (tmp_path / "logs" / "flows.jsonl").read_text()
            .splitlines()
        ]
        assert all(doc["name"] == "flow" for doc in flows)
        assert any("children" in doc for doc in flows)

    def test_cli_flags_end_to_end(self, tmp_path, http_trace, capsys):
        from repro.net.pcap import write_pcap
        from repro.tools.bro import main as bro_main

        pcap = str(tmp_path / "http.pcap")
        write_pcap(pcap, http_trace)
        logdir = str(tmp_path / "logs")
        rc = bro_main([
            "-r", pcap, "--compile-scripts", "--parsers", "pac",
            "--metrics", "--cpu-breakdown", "--trace-flows",
            "--logdir", logdir,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cpu breakdown:" in out
        with open(f"{logdir}/cpu_breakdown.json") as stream:
            assert validate(CPU_BREAKDOWN_SCHEMA, json.load(stream)) == []
        with open(f"{logdir}/metrics.jsonl") as stream:
            assert validate(METRICS_SCHEMA, stream) == []


class TestProfilerAfterRaise:
    """A compiled Bro handler that raises once keeps its profile: the
    raising call stops the handler's profiler as it unwinds, so
    ``prof.log`` counts every call."""

    SCRIPT = """
global seen: table[string] of count;

event new_connection(c: connection) {
    if ( |seen| == 0 ) {
        seen["x"] = 1;
        print seen["y"];
    }
}
"""

    def test_every_handler_call_counted(self, http_trace, tmp_path):
        bro = Bro(scripts=[self.SCRIPT], scripts_engine="hilti",
                  print_stream=io.StringIO(),
                  telemetry=Telemetry(metrics=True))
        bro.run(http_trace)
        bro.write_telemetry(str(tmp_path))
        assert len(bro.log_lines("weird")) == 1  # the one raise
        (line,) = [line for line in (tmp_path / "prof.log").read_text()
                   .splitlines() if "new_connection" in line]
        calls = len(bro.flow_record_lines())  # one per connection
        assert calls == 20 and line.endswith(f" updates={calls}")
