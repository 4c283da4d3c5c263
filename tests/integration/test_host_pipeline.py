"""The shared host-application substrate, end to end (§4-§6).

The paper's central architectural claim is that one execution
environment serves many host applications.  These tests drive all four
exemplars — the BPF filter, the stateful firewall, the standalone
BinPAC++ driver, and Bro — through the same ``repro.host.Pipeline``
over one fixed-seed mixed trace, and check the three properties the
substrate promises every app:

* the run completes with sensible per-app results,
* the telemetry it exports passes the shared schema validators, and
* the flow-parallel drive fingerprints byte-identically to the
  sequential run, for every backend.
"""

import io
import json

import pytest

from repro.apps.binpac.app import PacApp, PacLaneSpec
from repro.apps.bpf.app import BpfApp, BpfLaneSpec
from repro.apps.bro import Bro
from repro.apps.bro.parallel import BroLaneSpec
from repro.apps.firewall.app import (
    FirewallApp,
    FirewallLaneSpec,
    host_pair_key,
    host_pair_place,
)
from repro.apps.firewall.rules import RuleSet
from repro.host import ParallelPipeline, Pipeline, PipelineServices
from repro.host.cli import fingerprint
from repro.net.tracegen import (
    DnsTraceConfig,
    HttpTraceConfig,
    SshTraceConfig,
    TftpTraceConfig,
    generate_mixed_trace,
    write_pcap,
)
from repro.runtime.telemetry import (
    CPU_BREAKDOWN_SCHEMA,
    METRICS_SCHEMA,
    Telemetry,
)
from repro.tools.validate import validate

BACKENDS = ("vthread", "pool")

FILTER = "tcp and port 80"

RULES = """
10.0.0.0/8   172.16.0.0/12  deny
10.0.0.0/8   *              allow
*            *              deny
"""


def _mixed_packets():
    return generate_mixed_trace(
        http=HttpTraceConfig(sessions=25, seed=7),
        dns=DnsTraceConfig(queries=40, seed=7),
        ssh=SshTraceConfig(sessions=10, seed=7),
        tftp=TftpTraceConfig(transfers=12, seed=7),
    )


@pytest.fixture(scope="module")
def mixed_pcap(tmp_path_factory):
    path = tmp_path_factory.mktemp("host") / "mixed.pcap"
    write_pcap(str(path), _mixed_packets())
    return str(path)


def _lane_config(**extra):
    config = {"watchdog_budget": None, "metrics": False, "trace": False}
    config.update(extra)
    return config


def _seq(app, pcap):
    stats = Pipeline(app).run_pcap(pcap)
    return stats, app.result_lines()


class TestSequentialApps:
    def test_bpf(self, mixed_pcap):
        app = BpfApp(FILTER)
        stats, lines = _seq(app, mixed_pcap)
        assert stats["app"] == "bpf"
        assert app.accepted > 0 and app.rejected > 0
        assert app.accepted + app.rejected == stats["packets"]
        assert len(lines) == app.accepted

    def test_firewall(self, mixed_pcap):
        app = FirewallApp(RuleSet.parse(RULES, timeout_seconds=5.0))
        stats, lines = _seq(app, mixed_pcap)
        assert app.allowed > 0 and app.denied > 0
        # Every TCP/UDP packet gets exactly one decision line.
        assert len(lines) == app.allowed + app.denied
        assert app.allowed + app.denied + app.ignored == stats["packets"]

    def test_pac(self, mixed_pcap):
        app = PacApp()
        stats, lines = _seq(app, mixed_pcap)
        assert app.events == len(lines) > 0
        # Crud traffic in the fixture parses with contained errors, not
        # quarantines.
        assert app.parse_errors <= 3
        assert stats["health"]["flows_quarantined"] == 0
        assert app.demux.flows_ignored == 0
        events = {line.split()[2] for line in lines}
        assert {"HTTP::Request", "HTTP::Reply", "DNS::Message",
                "SSH::Banner", "TFTP::Packet"} <= events

    def test_pac_protocol_subset(self, mixed_pcap):
        app = PacApp(protocols=("ssh",))
        __, lines = _seq(app, mixed_pcap)
        assert lines
        assert {line.split()[2] for line in lines} == {"SSH::Banner"}
        # Non-SSH flows are counted but not parsed.
        assert app.demux.flows_ignored > 0

    def test_bro(self, mixed_pcap):
        bro = Bro()
        stats = bro.run_pcap(mixed_pcap)
        assert stats["packets"] > 0
        assert stats["events"] > 0
        assert bro.result_lines()


class TestTelemetrySchema:
    """Every app's exported telemetry passes the shared validators."""

    def _apps(self):
        def fresh_services():
            return None  # each app builds its own enabled Telemetry

        yield "bpf", BpfApp(FILTER, services=self._services())
        yield "firewall", FirewallApp(
            RuleSet.parse(RULES, timeout_seconds=5.0),
            services=self._services())
        yield "pac", PacApp(services=self._services())

    @staticmethod
    def _services():
        from repro.host.app import PipelineServices
        return PipelineServices(
            telemetry=Telemetry(metrics=True, trace=True))

    @pytest.mark.parametrize("name", ["bpf", "firewall", "pac"])
    def test_schema(self, mixed_pcap, tmp_path, name):
        app = dict(self._apps())[name]
        pipe = Pipeline(app)
        pipe.run_pcap(mixed_pcap)
        logdir = tmp_path / name
        paths = pipe.write_telemetry(str(logdir))
        by_name = {p.rsplit("/", 1)[-1]: p for p in paths}
        assert "metrics.jsonl" in by_name
        with open(by_name["metrics.jsonl"]) as stream:
            assert validate(METRICS_SCHEMA, stream) == []
        assert "stats.log" in by_name
        report = pipe.cpu_breakdown()
        assert validate(CPU_BREAKDOWN_SCHEMA, report) == []
        # flows.jsonl lines are JSON span trees.
        if "flows.jsonl" in by_name:
            with open(by_name["flows.jsonl"]) as stream:
                for line in stream:
                    json.loads(line)

    def test_cpu_breakdown_file(self, mixed_pcap, tmp_path):
        app = BpfApp(FILTER, services=self._services())
        pipe = Pipeline(app)
        pipe.run_pcap(mixed_pcap)
        path = str(tmp_path / "cpu.json")
        report = pipe.write_cpu_breakdown(path)
        with open(path) as stream:
            assert json.load(stream) == report
        assert validate(CPU_BREAKDOWN_SCHEMA, report) == []


class TestParallelFingerprints:
    """The merged parallel result stream is byte-identical to the
    sequential one, for every app and every backend."""

    @pytest.fixture(scope="class")
    def baselines(self, mixed_pcap):
        out = {}
        app = BpfApp(FILTER)
        Pipeline(app).run_pcap(mixed_pcap)
        out["bpf"] = fingerprint(app.result_lines())
        app = FirewallApp(RuleSet.parse(RULES, timeout_seconds=5.0))
        Pipeline(app).run_pcap(mixed_pcap)
        out["firewall"] = fingerprint(app.result_lines())
        app = PacApp()
        Pipeline(app).run_pcap(mixed_pcap)
        out["pac"] = fingerprint(app.result_lines())
        return out

    def _spec(self, name):
        if name == "bpf":
            return BpfLaneSpec(_lane_config(
                filter=FILTER, engine="compiled", opt_level=None))
        if name == "firewall":
            return FirewallLaneSpec(_lane_config(
                rules=RULES, timeout_seconds=5.0, engine="compiled",
                opt_level=None))
        return PacLaneSpec(_lane_config(
            protocols=("http", "dns", "ssh", "tftp"), opt_level=None))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", ["bpf", "firewall", "pac"])
    def test_identical(self, mixed_pcap, baselines, name, backend):
        pipe = ParallelPipeline(self._spec(name), workers=3,
                                backend=backend)
        stats = pipe.run_pcap(mixed_pcap)
        assert fingerprint(pipe.result_lines()) == baselines[name]
        assert stats["backend"] == backend
        assert stats["lanes"] >= 1

    def test_worker_counts(self, mixed_pcap, baselines):
        for workers in (1, 2, 4):
            pipe = ParallelPipeline(self._spec("pac"), workers=workers,
                                    backend="vthread")
            pipe.run_pcap(mixed_pcap)
            assert fingerprint(pipe.result_lines()) == baselines["pac"]

    def test_parallel_metrics_schema(self, mixed_pcap, tmp_path):
        import io

        pipe = ParallelPipeline(
            BpfLaneSpec(_lane_config(filter=FILTER, engine="compiled",
                                     opt_level=None, metrics=True)),
            workers=2, backend="vthread",
            telemetry=Telemetry(metrics=True))
        pipe.run_pcap(mixed_pcap)
        paths = pipe.write_telemetry(str(tmp_path))
        by_name = {p.rsplit("/", 1)[-1]: p for p in paths}
        with open(by_name["metrics.jsonl"]) as stream:
            assert validate(METRICS_SCHEMA, stream) == []


class TestOneRunContract:
    """Every app reports through the same stats assembly and exporter:
    ``other`` is the remainder of the run's wall clock, and each shared
    series is written exactly once — sequentially and merged across
    vthread lanes."""

    CONFIGS = {
        "bpf": dict(filter=FILTER, engine="compiled", opt_level=None),
        "firewall": dict(rules=RULES, timeout_seconds=5.0,
                         engine="compiled", opt_level=None),
        "pac": dict(protocols=("http", "dns", "ssh", "tftp"),
                    opt_level=None),
        "bro": dict(scripts=None, parsers="std", scripts_engine="hilti",
                    log_enabled=True, opt_level=None),
    }
    SPECS = {"bpf": BpfLaneSpec, "firewall": FirewallLaneSpec,
             "pac": PacLaneSpec, "bro": BroLaneSpec}
    # Few enough that the trace's open flows overflow the table.
    MAX_SESSIONS = 4

    def _sequential(self, name, pcap):
        services = PipelineServices(telemetry=Telemetry(metrics=True),
                                    max_sessions=self.MAX_SESSIONS)
        config = self.CONFIGS[name]
        if name == "bro":
            app = Bro(parsers=config["parsers"],
                      scripts_engine=config["scripts_engine"],
                      print_stream=io.StringIO(),
                      telemetry=services.telemetry,
                      max_sessions=self.MAX_SESSIONS)
        elif name == "bpf":
            app = BpfApp(FILTER, services=services)
        elif name == "firewall":
            app = FirewallApp(RuleSet.parse(RULES, timeout_seconds=5.0),
                              services=services)
        else:
            app = PacApp(services=services)
        stats = Pipeline(app).run_pcap(pcap)
        return stats, app.telemetry.metrics, [app]

    def _parallel(self, name, pcap):
        spec = self.SPECS[name](_lane_config(
            metrics=True, max_sessions=self.MAX_SESSIONS,
            **self.CONFIGS[name]))
        pipe = ParallelPipeline(spec, workers=2, vthreads=2,
                                backend="vthread",
                                telemetry=Telemetry(metrics=True))
        stats = pipe.run_pcap(pcap)
        lanes = list(pipe.scheduler.contexts().values())
        assert len(lanes) == 2
        return stats, pipe.telemetry.metrics, lanes

    @pytest.mark.parametrize("mode", ["sequential", "vthread"])
    @pytest.mark.parametrize("name", ["bpf", "firewall", "pac", "bro"])
    def test_contract(self, mixed_pcap, name, mode):
        run = self._sequential if mode == "sequential" else self._parallel
        stats, metrics, apps = run(name, mixed_pcap)
        assert stats["other_ns"] == max(
            0, stats["total_ns"] - stats["parsing_ns"]
            - stats["script_ns"] - stats["glue_ns"])
        assert stats["packets"] > 0
        assert metrics._series[(f"{name}.packets_total", ())].value \
            == stats["packets"]
        if name == "bro":
            evicted = sum(app.tracker.sessions_evicted for app in apps)
            assert evicted > 0
            assert metrics._series[("bro.sessions_evicted", ())].value \
                == evicted


class TestFirewallSharding:
    """Host-pair placement is direction-symmetric — the invariant that
    makes the stateful firewall safe to parallelize."""

    def test_symmetry(self, mixed_pcap):
        from repro.net.flows import flow_of_frame
        from repro.net.pcap import read_pcap

        seen = 0
        for __, frame in read_pcap(mixed_pcap):
            flow = flow_of_frame(frame)
            if flow is None:
                continue
            rev = flow.reversed()
            assert host_pair_key(flow) == host_pair_key(rev)
            for vthreads in (1, 3, 8):
                assert (host_pair_place(flow, vthreads)
                        == host_pair_place(rev, vthreads))
            seen += 1
        assert seen > 0


class TestFaultContainment:
    """Injected faults and watchdog trips are contained per app with
    the shared health accounting."""

    def _injector(self, site, rate):
        from repro.runtime.faults import FaultInjector
        return FaultInjector(seed=1, rates={site: rate})

    def test_bpf_fail_safe_reject(self, mixed_pcap):
        from repro.host.app import PipelineServices
        from repro.runtime.faults import SITE_ANALYZER_DISPATCH

        services = PipelineServices(
            faults=self._injector("analyzer.dispatch", 0.2))
        app = BpfApp(FILTER, services=services)
        stats = Pipeline(app).run_pcap(mixed_pcap)
        assert app.errors > 0
        assert stats["health"]["site_errors"]["analyzer.dispatch"] > 0
        # Erroring packets were rejected, never accepted.
        assert app.accepted + app.rejected == stats["packets"]

    def test_pac_quarantine(self, mixed_pcap):
        from repro.host.app import PipelineServices

        services = PipelineServices(
            faults=self._injector("binpac.parse", 0.05))
        app = PacApp(services=services)
        stats = Pipeline(app).run_pcap(mixed_pcap)
        health = stats["health"]
        assert health["flows_quarantined"] > 0
        assert health["site_errors"]["binpac.parse"] > 0

    def test_pac_watchdog(self, mixed_pcap):
        from repro.host.app import PipelineServices

        services = PipelineServices(watchdog_budget=50)
        app = PacApp(services=services)
        stats = Pipeline(app).run_pcap(mixed_pcap)
        assert stats["health"]["watchdog_trips"] > 0


class TestSkippedRecordsInMetrics:
    """A tolerant run's skipped pcap records are counted before the
    metrics are exported, so ``metrics.jsonl`` agrees with the stats
    (and ``stats.log``/``--health``), sequentially and on the pool."""

    @pytest.fixture(scope="class")
    def skipping_pcap(self, tmp_path_factory):
        import struct

        path = tmp_path_factory.mktemp("skip") / "oversized.pcap"
        write_pcap(str(path), _mixed_packets()[:200])
        data = bytearray(path.read_bytes())
        offset = 24  # past the global header
        for __ in range(150):
            offset += 16 + struct.unpack_from("<I", data, offset + 8)[0]
        # One record claims an implausible capture length: the tolerant
        # reader counts it skipped and stops there.
        struct.pack_into("<I", data, offset + 8, 0x7FFFFFFF)
        path.write_bytes(bytes(data))
        return str(path)

    @pytest.mark.parametrize("mode", ["sequential", "pool"])
    def test_metrics_count_skipped_records(self, skipping_pcap, mode,
                                           tmp_path):
        if mode == "sequential":
            pipe = Pipeline(BpfApp(FILTER, services=PipelineServices(
                telemetry=Telemetry(metrics=True))))
        else:
            pipe = ParallelPipeline(
                BpfLaneSpec(_lane_config(filter=FILTER, engine="compiled",
                                         opt_level=None, metrics=True)),
                workers=2, backend="pool",
                telemetry=Telemetry(metrics=True))
        stats = pipe.run_pcap(skipping_pcap, tolerant=True)
        assert stats["packets"] == 150
        assert stats["health"]["records_skipped"] == 1
        pipe.write_telemetry(str(tmp_path))
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        values = {entry["name"]: entry["value"]
                  for entry in map(json.loads, lines[1:])
                  if not entry.get("labels")}
        assert values["health.records_skipped"] == \
            stats["health"]["records_skipped"]
        assert values["pcap.records_skipped"] == 1
