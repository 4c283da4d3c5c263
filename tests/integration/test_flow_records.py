"""The cross-backend flow-record identity oracle (docs/FLOWS.md).

Every host application runs on the one flow layer and seals its flows
through the shared :class:`~repro.host.flowtable.FlowTable`, and the
claim the ledger makes is the strongest observable one: the sorted
record stream — and therefore the ``flow_records.jsonl`` file — is a
pure function of trace content, **byte-identical** between the
sequential pipeline and both parallel backends (the deterministic
vthread scheduler and the persistent shared-memory pool) at any worker
count.  Lanes name flows independently: a uid is the ordinal of its
flow's opening packet, which every lane is handed with the packet.
"""

import json
import multiprocessing

import pytest

from repro.apps.binpac.app import PacApp, PacLaneSpec
from repro.apps.bpf.app import BpfApp, BpfLaneSpec
from repro.apps.bro import Bro, ParallelBro
from repro.apps.firewall.app import FirewallApp, FirewallLaneSpec
from repro.apps.firewall.rules import RuleSet
from repro.core.values import Time
from repro.host import ParallelPipeline
from repro.host.pool import shutdown_shared_pools
from repro.net.flowrecord import (
    FLOWRECORDS_SCHEMA,
    write_flowrecords_jsonl,
)
from repro.net.pcap import read_pcap, write_pcap
from repro.net.tracegen import (
    DnsTraceConfig,
    HttpTraceConfig,
    SshTraceConfig,
    TftpTraceConfig,
    generate_http_trace,
    generate_mixed_trace,
)
from repro.tools.flowexport import export_flows
from repro.tools.validate import validate

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

BACKENDS = ["vthread", "pool"]

FILTER = "tcp and port 80"

RULES = """
10.0.0.0/8   172.16.0.0/12  deny
10.0.0.0/8   *              allow
*            *              deny
"""


def _needs_fork(backend):
    if backend == "pool" and not HAVE_FORK:
        pytest.skip("fork start method unavailable")


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    yield
    shutdown_shared_pools()


@pytest.fixture(scope="module")
def mixed_trace():
    return generate_mixed_trace(
        http=HttpTraceConfig(sessions=25, seed=7),
        dns=DnsTraceConfig(queries=40, seed=7),
        ssh=SshTraceConfig(sessions=10, seed=7),
        tftp=TftpTraceConfig(transfers=12, seed=7),
    )


def _lane_config(**extra):
    config = {"watchdog_budget": None, "metrics": False, "trace": False}
    config.update(extra)
    return config


def _spec(name):
    if name == "bpf":
        return BpfLaneSpec(_lane_config(
            filter=FILTER, engine="compiled", opt_level=None))
    if name == "firewall":
        return FirewallLaneSpec(_lane_config(
            rules=RULES, timeout_seconds=5.0, engine="compiled",
            opt_level=None))
    return PacLaneSpec(_lane_config(
        protocols=("http", "dns", "ssh", "tftp"), opt_level=None))


@pytest.fixture(scope="module")
def baselines(mixed_trace):
    """Sequential record streams: the oracle every backend must hit."""
    out = {}
    app = BpfApp(FILTER)
    app.run(mixed_trace)
    out["bpf"] = app.flow_record_lines()
    app = FirewallApp(RuleSet.parse(RULES, timeout_seconds=5.0))
    app.run(mixed_trace)
    out["firewall"] = app.flow_record_lines()
    app = PacApp()
    app.run(mixed_trace)
    out["pac"] = app.flow_record_lines()
    return out


class TestBpfBackendMatrix:
    """The full 2-backend x {1,3}-worker oracle on one app."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [1, 3])
    def test_records_match_sequential(self, mixed_trace, baselines,
                                      backend, workers):
        _needs_fork(backend)
        pipe = ParallelPipeline(_spec("bpf"), workers=workers,
                                backend=backend)
        pipe.run(mixed_trace)
        assert pipe.flow_record_lines() == baselines["bpf"]


class TestEveryAppEveryBackend:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", ["firewall", "pac"])
    def test_records_match_sequential(self, mixed_trace, baselines,
                                      name, backend):
        _needs_fork(backend)
        pipe = ParallelPipeline(_spec(name), workers=3, backend=backend)
        pipe.run(mixed_trace)
        assert pipe.flow_record_lines() == baselines[name]


class TestBroRecords:
    @pytest.fixture(scope="class")
    def bro_trace(self):
        return generate_mixed_trace(
            HttpTraceConfig(sessions=20, seed=11),
            DnsTraceConfig(queries=40, seed=11),
        )

    @pytest.fixture(scope="class")
    def bro_baseline(self, bro_trace):
        bro = Bro()
        bro.run(bro_trace)
        return bro.flow_record_lines()

    @pytest.mark.parametrize(
        "backend",
        ["vthread",
         pytest.param("pool", marks=pytest.mark.skipif(
             not HAVE_FORK, reason="fork start method unavailable"))])
    def test_records_match_sequential(self, bro_trace, bro_baseline,
                                      backend):
        parallel = ParallelBro(workers=3, backend=backend)
        parallel.run(bro_trace)
        assert parallel.flow_record_lines() == bro_baseline
        assert bro_baseline  # the oracle is not vacuous

    def test_uids_are_bro_conn_uids(self, bro_baseline):
        uids = {json.loads(line)["uid"] for line in bro_baseline}
        assert all(uid and uid.startswith("C") for uid in uids)


def _mixed_seed_42():
    """``tracegen mixed --seed 42``: every protocol, interleaved."""
    return generate_mixed_trace(
        http=HttpTraceConfig(seed=42, sessions=30),
        dns=DnsTraceConfig(seed=42, queries=60),
        ssh=SshTraceConfig(seed=42, sessions=15),
        tftp=TftpTraceConfig(seed=42, transfers=20),
    )


def _replayed_session():
    """One HTTP session, then the same session again on its 5-tuple."""
    single = generate_http_trace(HttpTraceConfig(sessions=1, seed=7))
    offset = single[-1][0].nanos + 1_000_000
    return single + [(Time.from_nanos(ts.nanos + offset), frame)
                     for ts, frame in single]


class TestOneFlowLayer:
    """Every app runs on one flow layer, so all agree on what a flow
    is: the BinPAC++ driver's, bpf's, the firewall's and flowexport's
    flow records are Bro's, up to the uid's kind letter, on every
    backend (docs/FLOWS.md)."""

    @pytest.fixture(scope="class",
                    params=["mixed-seed-42", "replayed-session"])
    def case(self, request):
        trace = (_mixed_seed_42() if request.param == "mixed-seed-42"
                 else _replayed_session())
        bro = Bro()
        bro.run(trace)
        return trace, bro.flow_record_lines()

    @pytest.mark.parametrize("backend,workers", [
        ("sequential", 1), ("vthread", 1), ("vthread", 3), ("pool", 1),
        ("pool", 3)])
    def test_driver_records_are_bros(self, case, backend, workers):
        trace, bro_lines = case
        if backend == "sequential":
            driver = PacApp()
        else:
            _needs_fork(backend)
            driver = ParallelPipeline(_spec("pac"), workers=workers,
                                      backend=backend)
        driver.run(trace)
        lines = driver.flow_record_lines()
        assert bro_lines  # the oracle is not vacuous
        assert sorted(line.replace('"uid":"F', '"uid":"C')
                      for line in lines) == bro_lines

    @pytest.mark.parametrize("backend,workers", [
        ("sequential", 1), ("vthread", 1), ("vthread", 3), ("pool", 1),
        ("pool", 3)])
    @pytest.mark.parametrize("name", ["bpf", "firewall"])
    def test_app_records_are_bros(self, case, name, backend, workers):
        """bpf and the firewall run on the layer with no handler: their
        records are Bro's, up to the uid letter ``S``."""
        trace, bro_lines = case
        if backend == "sequential":
            app = (BpfApp(FILTER) if name == "bpf" else
                   FirewallApp(RuleSet.parse(RULES, timeout_seconds=5.0)))
        else:
            _needs_fork(backend)
            app = ParallelPipeline(_spec(name), workers=workers,
                                   backend=backend)
        app.run(trace)
        assert sorted(line.replace('"uid":"S', '"uid":"C')
                      for line in app.flow_record_lines()) == bro_lines

    def test_flowexport_records_are_bros(self, case, tmp_path):
        """flowexport reads a pcap, whose timestamps are microseconds:
        Bro reads the same file."""
        trace, __ = case
        path = str(tmp_path / "trace.pcap")
        write_pcap(path, trace)
        bro = Bro()
        bro.run(read_pcap(path))
        lines = export_flows(path).record_lines()
        assert bro.flow_record_lines()
        assert sorted(line.replace('"uid":"S', '"uid":"C')
                      for line in lines) == bro.flow_record_lines()

    def test_driver_releases_flows_at_teardown(self):
        """A torn-down flow leaves the layer and the ledger at once:
        after an HTTP trace's last packet, before ``finish``, the
        driver holds nothing, as Bro does."""
        trace = generate_http_trace(HttpTraceConfig(sessions=20, seed=101))
        for app, layer in ((PacApp(), "demux"), (Bro(), "tracker")):
            app.on_begin()
            for timestamp, frame in trace:
                app.on_packet(timestamp, frame)
            flows = getattr(app, layer)
            assert flows.open_flows() == 0
            assert len(flows.table) == 0
            app.on_end()
            assert len(app.flow_record_lines()) == 20


class TestWrittenFiles:
    """flow_records.jsonl itself: schema-valid, and byte-identical
    between a sequential write and a parallel-merge write."""

    def test_file_identity_and_schema(self, mixed_trace, baselines,
                                      tmp_path):
        seq_path = write_flowrecords_jsonl(
            str(tmp_path / "seq.jsonl"), "bpf", baselines["bpf"])
        pipe = ParallelPipeline(_spec("bpf"), workers=3,
                                backend="vthread")
        pipe.run(mixed_trace)
        par_path = write_flowrecords_jsonl(
            str(tmp_path / "par.jsonl"), "bpf",
            pipe.flow_record_lines())
        with open(seq_path, "rb") as stream:
            seq_bytes = stream.read()
        with open(par_path, "rb") as stream:
            par_bytes = stream.read()
        assert seq_bytes == par_bytes

        lines = seq_bytes.decode().splitlines()
        assert validate(FLOWRECORDS_SCHEMA, lines) == []
        header = json.loads(lines[0])
        assert header["schema"] == FLOWRECORDS_SCHEMA
        assert header["app"] == "bpf"
        assert header["records"] == len(baselines["bpf"]) > 0

    def test_every_app_stream_schema_valid(self, baselines):
        from repro.net.flowrecord import flowrecords_header_line

        for name, lines in baselines.items():
            assert lines, name
            header = flowrecords_header_line(name, len(lines))
            assert validate(FLOWRECORDS_SCHEMA, [header] + lines) == [], \
                name
