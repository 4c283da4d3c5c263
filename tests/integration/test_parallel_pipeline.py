"""The flow-parallel pipeline's differential oracle (§3.2).

The paper's concurrency claim is that hashing each flow to a virtual
thread yields the same analysis as a sequential run, with no
program-level locking.  We check the strongest observable form of that:
the merged logs of the parallel pipeline are **byte-identical** to the
sequential pipeline's on a fixed-seed HTTP+DNS trace, for both backends
(the deterministic vthread scheduler and the persistent shared-memory
worker pool) at 1, 2, and 4 workers — and the event totals,
per-event-name counts, and counter-style metric series agree exactly.
"""

import io
import json

import pytest

from repro.apps.bro import Bro, ParallelBro
from repro.apps.bro.parallel import BroLaneSpec, dispatch_plan, flow_key
from repro.core.values import Addr
from repro.net.flowrecord import format_uid, uid_ordinal
from repro.net.flows import (
    FiveTuple,
    decode_flow,
    flow_of_frame,
    placement,
    vthread_of,
)
from repro.net.packet import PROTO_TCP
from repro.host.pool import shutdown_shared_pools
from repro.net.tracegen import (
    DnsTraceConfig,
    HttpTraceConfig,
    generate_mixed_trace,
)
from repro.runtime.telemetry import Telemetry


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    """Close the cached shared pools after this module so their idle
    workers cannot add CPU noise to timing-sensitive suites that run
    later in the same pytest process."""
    yield
    shutdown_shared_pools()

LOG_STREAMS = ("conn", "http", "dns", "files", "weird")

#: Metric prefixes whose values depend on wall clock, per-lane compile
#: work, or scheduling rather than on trace content.
_TIMING_PREFIXES = ("engine.", "glue.", "trace.")

#: Gauges that do not compose across lanes: a global concurrent
#: high-water mark cannot be reconstructed from per-lane peaks
#: (docs/PARALLELISM.md), and open-flow occupancy is sampled at
#: different instants.
_NON_COMPOSABLE = {"bro.flows_peak", "bro.flows_open", "bro.cpu_ns"}


@pytest.fixture(scope="module")
def mixed_trace():
    return generate_mixed_trace(
        HttpTraceConfig(sessions=40, seed=23),
        DnsTraceConfig(queries=120, seed=23),
    )


@pytest.fixture(scope="module")
def sequential(mixed_trace):
    bro = Bro(telemetry=Telemetry(metrics=True))
    bro.run(mixed_trace)
    return bro


def _sorted_logs(pipeline):
    return {name: sorted(pipeline.log_lines(name)) for name in LOG_STREAMS}


def _comparable_series(registry):
    """Content-determined metric series only: counters, histograms, and
    composable gauges; timing and occupancy series excluded, along with
    the per-worker attribution copies (``worker`` label) the parallel
    merge adds — those are lane-local raw counts, not aggregates."""
    out = {}
    for series in registry.collect():
        name = series["name"]
        if name.startswith(_TIMING_PREFIXES) or name in _NON_COMPOSABLE:
            continue
        if "worker" in series.get("labels", {}):
            continue
        key = (name, tuple(sorted(series.get("labels", {}).items())))
        if series["kind"] == "histogram":
            out[key] = (series["count"], series["sum"])
        else:
            out[key] = series["value"]
    return out


class TestDifferentialOracle:
    @pytest.mark.parametrize("backend", ["vthread", "pool"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_logs_byte_identical(self, mixed_trace, sequential,
                                 backend, workers):
        parallel = ParallelBro(workers=workers, backend=backend,
                               telemetry=Telemetry(metrics=True))
        stats = parallel.run(mixed_trace)
        assert _sorted_logs(parallel) == _sorted_logs(sequential)
        assert stats["packets"] == sequential.stats["packets"]
        assert stats["events"] == sequential.stats["events"]
        assert stats["event_counts"] == sequential.core.event_counts
        assert stats["scheduler_errors"] == 0
        assert _comparable_series(parallel.telemetry.metrics) == \
            _comparable_series(sequential.telemetry.metrics)

    def test_health_report_merges(self, mixed_trace, sequential):
        parallel = ParallelBro(workers=2, backend="vthread")
        stats = parallel.run(mixed_trace)
        reference = sequential.stats["health"]
        merged = stats["health"]
        for key in ("flows_quarantined", "watchdog_trips",
                    "records_skipped", "tier_fallback"):
            assert merged[key] == reference[key]
        assert merged["breaker"]["flows"] == reference["breaker"]["flows"]
        assert merged["site_errors"] == reference["site_errors"]

    def test_empty_trace_still_runs_lifecycle(self):
        parallel = ParallelBro(workers=2, backend="vthread")
        stats = parallel.run([])
        # Lane 0 exists unconditionally, so bro_init/bro_done dispatch
        # exactly once after de-duplication.
        assert stats["lanes"] >= 1
        assert stats["packets"] == 0


class TrippingSpec(BroLaneSpec):
    """Lanes whose circuit breaker trips on the first violation, with a
    watchdog budget so small that every pac flow violates (crud alone
    never quarantines a flow: the generated parsers absorb it)."""

    def make_lane(self):
        return Bro(parsers="pac", breaker_threshold=0.0,
                   breaker_min_flows=1, watchdog_budget=50,
                   print_stream=io.StringIO(),
                   telemetry=Telemetry(metrics=True))


class TestBreakerGauge:
    """``health.breaker_tripped`` is a flag: k tripped lanes merge to 1,
    as in a sequential run, never to k."""

    @pytest.mark.parametrize("backend", ["vthread", "pool"])
    def test_tripped_lanes_merge_to_one(self, backend):
        from repro.net.tracegen import generate_http_trace

        trace = generate_http_trace(HttpTraceConfig(sessions=12, seed=3))
        parallel = ParallelBro(workers=2, backend=backend,
                               telemetry=Telemetry(metrics=True))
        parallel.spec = TrippingSpec(parallel.spec.config)
        stats = parallel.run(trace)
        tripped = [result["stats"]["health"]["breaker"]["tripped"]
                   for result in parallel.lane_results]
        assert sum(tripped) > 1
        assert stats["health"]["breaker"]["tripped"]
        gauges = [series["value"]
                  for series in parallel.telemetry.metrics.collect()
                  if series["name"] == "health.breaker_tripped"
                  and not series.get("labels")]
        assert gauges == [1]


class TestPlacement:
    """Flow → vthread → worker placement must be a pure function of the
    5-tuple, symmetric, and stable release-to-release (pinned values)."""

    FLOW = FiveTuple(Addr("10.0.0.1"), Addr("10.0.0.2"), 40000, 80,
                     PROTO_TCP)

    def test_symmetric(self):
        reverse = FiveTuple(Addr("10.0.0.2"), Addr("10.0.0.1"), 80, 40000,
                            PROTO_TCP)
        assert vthread_of(self.FLOW, 16) == vthread_of(reverse, 16)
        assert placement(self.FLOW, 16, 4) == placement(reverse, 16, 4)

    def test_pinned_values(self):
        # Anchors the FNV-1a-based placement: a change here silently
        # re-shards every deployment's flows.
        assert vthread_of(self.FLOW, 16) == 14
        assert placement(self.FLOW, 16, 4) == (14, 2)
        assert placement(self.FLOW, 8, 2) == (6, 0)

    def test_worker_matches_scheduler_rule(self):
        for vthreads, workers in ((16, 4), (8, 3), (64, 5)):
            vid, worker = placement(self.FLOW, vthreads, workers)
            assert worker == vid % workers


class TestDispatchPlan:
    def test_uids_assigned_in_arrival_order(self, mixed_trace):
        """Each connection is named after the ordinal of its first
        packet, so its uids sort in arrival order."""
        firsts = {}
        for ordinal, (__, frame) in enumerate(mixed_trace):
            flow = flow_of_frame(frame)
            if flow is not None:
                firsts.setdefault(flow_key(flow), ordinal)
        parallel = ParallelBro(workers=4, backend="vthread")
        parallel.run(mixed_trace)
        uids = [line.split("\t")[1]
                for line in parallel.log_lines("conn")]
        assert sorted(uids) == [format_uid("C", ordinal)
                                for ordinal in sorted(firsts.values())]

    def test_stray_frames_ride_vthread_zero(self):
        from repro.core.values import Time

        jobs, vids = dispatch_plan(
            [(Time.from_nanos(1), b"\x00" * 20)], vthreads=16, workers=4)
        assert jobs == [(0, 1, b"\x00" * 20)]
        assert vids == {}

    def test_one_flow_one_vthread(self, mixed_trace):
        jobs, __ = dispatch_plan(mixed_trace, vthreads=16, workers=4)
        by_flow = {}
        for (vid, __, frame) in jobs:
            flow = flow_of_frame(frame)
            if flow is None:
                continue
            key = flow_key(flow)
            by_flow.setdefault(key, set()).add(vid)
        assert by_flow and all(len(vids) == 1 for vids in by_flow.values())


class TestTimeWait:
    """The teardown's trailing ACK belongs to the closed connection —
    it must not open a phantom 1-packet conn entry (the uid-divergence
    bug the parallel oracle exposed)."""

    def _one_session(self):
        from repro.net.tracegen import generate_http_trace

        return generate_http_trace(HttpTraceConfig(sessions=1, seed=7))

    def test_no_phantom_connection(self):
        bro = Bro()
        bro.run(self._one_session())
        lines = bro.log_lines("conn")
        assert len(lines) == 1
        assert "\tOTH" not in lines[0]

    def test_genuine_reuse_gets_new_connection(self):
        trace = self._one_session()
        # Replay the same session: its SYN reuses the 5-tuple after the
        # first instance closed, which must open a second connection.
        offset = trace[-1][0].nanos + 1_000_000
        from repro.core.values import Time

        replay = [(Time.from_nanos(ts.nanos + offset), frame)
                  for ts, frame in trace]
        bro = Bro()
        bro.run(trace + replay)
        lines = bro.log_lines("conn")
        assert len(lines) == 2
        uids = {line.split("\t")[1] for line in lines}
        assert len(uids) == 2

    @pytest.mark.parametrize("app,backend,workers", [
        pytest.param(app, backend, workers,
                     id=f"{'' if app == 'bro' else app + '-'}{backend}-{workers}")
        for app in ("bro", "pac", "bpf", "firewall")
        for backend, workers in (("vthread", 1), ("vthread", 3),
                                 ("pool", 1), ("pool", 3))])
    def test_reuse_gets_two_uids_on_every_backend(self, app, backend,
                                                  workers):
        """Both instances of a reused 5-tuple land on one lane, which
        names each after its own opening packet, as the sequential run
        does — for Bro, the BinPAC++ driver, bpf and the firewall, which
        share the flow layer."""
        from repro.core.values import Time

        single = self._one_session()
        offset = single[-1][0].nanos + 1_000_000
        trace = single + [(Time.from_nanos(ts.nanos + offset), frame)
                          for ts, frame in single]
        if app == "pac":
            self._check_pac_reuse(single, trace, backend, workers)
            return
        if app in ("bpf", "firewall"):
            self._check_record_reuse(app, trace, backend, workers)
            return
        sequential = Bro()
        sequential.run(trace)
        parallel = ParallelBro(workers=workers, backend=backend)
        parallel.run(trace)
        lines = parallel.log_lines("conn")
        assert lines == sequential.log_lines("conn")
        assert len({line.split("\t")[1] for line in lines}) == 2
        assert parallel.flow_record_lines() == \
            sequential.flow_record_lines()

    @staticmethod
    def _check_record_reuse(app, trace, backend, workers):
        """bpf and the firewall analyse no flow content: the reuse shows
        in their flow records alone, two of them, each with its uid."""
        from repro.apps.bpf.app import BpfApp, BpfLaneSpec
        from repro.apps.firewall.app import FirewallApp, FirewallLaneSpec
        from repro.apps.firewall.rules import RuleSet
        from repro.host import ParallelPipeline

        lane = {"opt_level": None, "watchdog_budget": None,
                "metrics": False, "trace": False}
        if app == "bpf":
            sequential = BpfApp("tcp")
            spec = BpfLaneSpec(dict(lane, filter="tcp", engine="compiled"))
        else:
            rules = "10.0.0.0/8 * allow\n* * deny\n"
            sequential = FirewallApp(RuleSet.parse(rules))
            spec = FirewallLaneSpec(dict(
                lane, rules=rules, timeout_seconds=300.0,
                engine="compiled"))
        sequential.run(trace)
        pipe = ParallelPipeline(spec, workers=workers, backend=backend)
        pipe.run(trace)
        lines = pipe.flow_record_lines()
        assert lines == sequential.flow_record_lines()
        uids = {json.loads(line)["uid"] for line in lines}
        assert len(lines) == len(uids) == 2
        assert all(uid.startswith("S") for uid in uids)

    @staticmethod
    def _check_pac_reuse(single, trace, backend, workers):
        from repro.apps.binpac.app import PacApp, PacLaneSpec
        from repro.host import ParallelPipeline

        once = PacApp(protocols=("http",))
        once.run(single)
        requests = [line for line in once.result_lines()
                    if " HTTP::Request " in line]
        assert requests
        sequential = PacApp(protocols=("http",))
        sequential.run(trace)
        pipe = ParallelPipeline(
            PacLaneSpec({"protocols": ("http",), "opt_level": None,
                         "watchdog_budget": None, "metrics": False,
                         "trace": False}),
            workers=workers, backend=backend)
        pipe.run(trace)
        lines = pipe.result_lines()
        assert lines == sequential.result_lines()
        replayed = [line for line in lines if " HTTP::Request " in line]
        assert len(replayed) == 2 * len(requests)
        uids = {line.split()[1] for line in replayed}
        assert len(uids) == 2 and all(uid.startswith("F") for uid in uids)
        records = pipe.flow_record_lines()
        assert records == sequential.flow_record_lines()
        assert {json.loads(line)["uid"] for line in records} == uids


class TestUidOrdinals:
    """A uid names its flow instance's opening packet: every conn.log
    line's and flow record's uid decodes to the ordinal of a packet of
    that 5-tuple, sent by the originator at the instance's start."""

    @staticmethod
    def _openings(bro):
        """``(uid, originator 5-tuple, start ts)`` per conn.log line and
        per flow record."""
        out = []
        for line in bro.log_lines("conn"):
            ts, uid, orig_h, orig_p, resp_h, resp_p = line.split("\t")[:6]
            out.append((uid, (orig_h, int(orig_p.split("/")[0]), resp_h,
                              int(resp_p.split("/")[0])), ts))
        for line in bro.flow_record_lines():
            record = json.loads(line)
            out.append((record["uid"],
                        (record["src"], record["src_port"], record["dst"],
                         record["dst_port"]),
                        f"{record['first_ts']:.6f}"))
        return out

    def _check(self, trace, bro):
        firsts = {}
        for ordinal, (__, frame) in enumerate(trace):
            flow = flow_of_frame(frame)
            if flow is not None:
                firsts.setdefault(flow_key(flow), ordinal)
        ordinals = {}
        openings = self._openings(bro)
        assert openings
        for uid, endpoints, ts in openings:
            ordinal = uid_ordinal(uid)
            timestamp, frame = trace[ordinal]
            packet = decode_flow(frame)
            assert (str(Addr.from_value(packet.src)), packet.src_port,
                    str(Addr.from_value(packet.dst)),
                    packet.dst_port) == endpoints
            assert f"{timestamp.seconds:.6f}" == ts
            ordinals.setdefault(packet.key, set()).add(ordinal)
        # A key's first instance opens at the key's first packet.
        for key, seen in ordinals.items():
            assert min(seen) == firsts[key]
        return ordinals

    def test_sequential_uids_name_opening_packets(self, mixed_trace,
                                                  sequential):
        ordinals = self._check(mixed_trace, sequential)
        assert all(len(seen) == 1 for seen in ordinals.values())

    def test_reused_tuple_names_both_openings(self):
        from repro.core.values import Time
        from repro.net.tracegen import generate_http_trace

        trace = generate_http_trace(HttpTraceConfig(sessions=1, seed=7))
        offset = trace[-1][0].nanos + 1_000_000
        second = len(trace)
        trace = trace + [(Time.from_nanos(ts.nanos + offset), frame)
                         for ts, frame in trace]
        bro = Bro()
        bro.run(trace)
        ordinals = self._check(trace, bro)
        assert list(ordinals.values()) == [{0, second}]


class TestArtifacts:
    def test_save_logs_matches_sequential_format(self, mixed_trace,
                                                 sequential, tmp_path):
        parallel = ParallelBro(workers=2, backend="vthread")
        parallel.run(mixed_trace)
        parallel.save_logs(str(tmp_path / "par"))
        sequential.core.logs.save(str(tmp_path / "seq"))
        for name in ("conn", "http", "dns"):
            par = (tmp_path / "par" / f"{name}.log").read_text().splitlines()
            seq = (tmp_path / "seq" / f"{name}.log").read_text().splitlines()
            assert par[0] == seq[0]  # identical #fields header
            assert sorted(par[1:]) == sorted(seq[1:])

    def test_write_telemetry_emits_merged_registry(self, mixed_trace,
                                                   tmp_path):
        parallel = ParallelBro(workers=2, backend="vthread",
                               telemetry=Telemetry(metrics=True))
        parallel.run(mixed_trace)
        written = parallel.write_telemetry(str(tmp_path))
        names = {p.rsplit("/", 1)[-1] for p in written}
        assert {"metrics.jsonl", "stats.log"} <= names
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert len(lines) > 10  # header + series

    def test_pcap_round_trip(self, mixed_trace, tmp_path):
        from repro.net.pcap import write_pcap

        path = str(tmp_path / "trace.pcap")
        write_pcap(path, mixed_trace)
        sequential = Bro()
        sequential.run_pcap(path)
        parallel = ParallelBro(workers=2, backend="vthread")
        parallel.run_pcap(path)
        assert _sorted_logs(parallel) == _sorted_logs(sequential)
