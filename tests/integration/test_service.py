"""Streaming service mode: overload resilience end to end.

The paper's target deployments run *continuously* — traffic never
stops, parsers crash on crud, state grows without bound unless someone
bounds it.  These tests cover the service substrate piece by piece
(bounded queues, rolling windows, looped replay, LRU eviction, the
slow-flow watchdog) and then the assembled daemon: supervised lane
restarts with exponential backoff, circuit-breaker escalation, exact
shed accounting, the HTTP control surface, and graceful drain on
SIGTERM for both the batch driver and the service.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

import repro
from repro.apps.binpac.app import PacApp, _DatagramFlow
from repro.apps.bro.main import Bro
from repro.core.values import Addr, Time
from repro.host import (
    BoundedQueue,
    Flow,
    FlowDemux,
    HostApp,
    HostService,
    PipelineServices,
    RollingWindows,
    ServiceConfig,
    SessionLRU,
)
from repro.host.service import _EMPTY, _SENTINEL, SERVICE_SCHEMA
from repro.lib.session_table import SessionTable
from repro.net.packet import build_udp_packet
from repro.net.replay import RateLimiter, TraceReplayer
from repro.net.tracegen import (
    DnsTraceConfig,
    HttpTraceConfig,
    generate_mixed_trace,
    write_pcap,
)
from repro.runtime.telemetry import METRICS_SCHEMA
from repro.tools.validate import validate

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture(scope="module")
def mixed_pcap(tmp_path_factory):
    records = generate_mixed_trace(
        http=HttpTraceConfig(sessions=10, seed=7),
        dns=DnsTraceConfig(queries=20, seed=7),
    )
    path = tmp_path_factory.mktemp("svc") / "mixed.pcap"
    write_pcap(str(path), records)
    return str(path), len(records)


class CountApp(HostApp):
    """The lightest possible HostApp — counts packets, emits lines."""

    name = "count"

    def __init__(self, services=None):
        super().__init__(services)
        self.lines = []

    def packet(self, timestamp, frame):
        self.lines.append(f"pkt {self.packets}")

    def result_lines(self):
        return list(self.lines)


def _invariant(totals):
    return (totals["packets_ingested"]
            == totals["packets_processed"] + totals["packets_shed"]
            + totals["packets_lost"] + totals["packets_dropped"])


def _run_service(pcap, config, make_app=None, loops=2):
    service = None
    replayer = TraceReplayer(
        pcap, loops=loops,
        should_stop=lambda: service.should_stop())
    factory = make_app if make_app is not None else (lambda s: CountApp(s))
    service = HostService(factory, replayer, config)
    code = service.serve()
    return service, code


# --------------------------------------------------------------------------
# BoundedQueue
# --------------------------------------------------------------------------


class TestBoundedQueue:
    def test_fifo_and_high_water(self):
        q = BoundedQueue(4)
        for i in range(3):
            assert q.offer(i)
        assert [q.get(0.1) for _ in range(3)] == [0, 1, 2]
        assert q.high_water == 3
        assert q.puts == 3 and q.gets == 3

    def test_offer_sheds_at_capacity_exactly(self):
        q = BoundedQueue(2)
        assert q.offer("a") and q.offer("b")
        for _ in range(5):
            assert not q.offer("x")
        assert q.shed == 5
        assert len(q) == 2

    def test_put_blocks_until_space(self):
        q = BoundedQueue(1)
        q.offer("a")
        done = []

        def consumer():
            time.sleep(0.05)
            done.append(q.get(1.0))

        t = threading.Thread(target=consumer)
        t.start()
        assert q.put("b", timeout=2.0)
        t.join()
        assert done == ["a"]
        assert q.get(0.1) == "b"

    def test_put_releases_on_should_stop(self):
        q = BoundedQueue(1)
        q.offer("a")
        stop = threading.Event()
        threading.Timer(0.05, stop.set).start()
        t0 = time.monotonic()
        assert not q.put("b", should_stop=stop.is_set)
        assert time.monotonic() - t0 < 2.0
        assert len(q) == 1  # nothing enqueued on a refused put

    def test_put_times_out(self):
        q = BoundedQueue(1)
        q.offer("a")
        assert not q.put("b", timeout=0.05)

    def test_get_timeout_returns_empty_marker(self):
        q = BoundedQueue(1)
        assert q.get(0.01) is _EMPTY

    def test_force_exceeds_capacity(self):
        q = BoundedQueue(1)
        q.offer("a")
        q.force(_SENTINEL)
        assert len(q) == 2

    def test_drain_counts_data_items_only(self):
        q = BoundedQueue(8)
        q.offer("a")
        q.offer("b")
        q.force(_SENTINEL)
        assert q.drain() == 2
        assert len(q) == 0


# --------------------------------------------------------------------------
# RollingWindows
# --------------------------------------------------------------------------


class TestRollingWindows:
    def test_rates_per_window(self):
        w = RollingWindows(windows=(1.0, 10.0))
        for i in range(11):
            w.sample(100.0 + i, {"pkts": i * 50})
        rates = w.rates()
        assert set(rates) == {"1s", "10s"}
        assert rates["1s"]["pkts"]["delta"] == 50
        assert rates["1s"]["pkts"]["per_second"] == pytest.approx(50.0)
        assert rates["10s"]["pkts"]["delta"] == 500
        assert rates["10s"]["pkts"]["per_second"] == pytest.approx(50.0)

    def test_needs_two_samples(self):
        w = RollingWindows()
        assert w.rates() == {}
        w.sample(1.0, {"pkts": 1})
        assert w.rates() == {}

    def test_old_samples_pruned(self):
        w = RollingWindows(windows=(1.0,))
        for i in range(2000):
            w.sample(float(i), {"pkts": i})
        assert len(w._samples) < 50


# --------------------------------------------------------------------------
# TraceReplayer
# --------------------------------------------------------------------------


class TestTraceReplayer:
    def test_loops_multiply_records(self, mixed_pcap):
        path, n = mixed_pcap
        replayer = TraceReplayer(path, loops=3)
        records = list(replayer)
        assert len(records) == 3 * n
        assert replayer.loops_completed == 3

    def test_timestamps_monotone_across_loops(self, mixed_pcap):
        path, n = mixed_pcap
        records = list(TraceReplayer(path, loops=3))
        nanos = [ts.nanos for ts, _ in records]
        assert nanos == sorted(nanos)
        # the loop boundary advances strictly
        assert nanos[n] > nanos[n - 1]

    def test_should_stop_cuts_replay(self, mixed_pcap):
        path, n = mixed_pcap
        seen = []
        replayer = TraceReplayer(path, loops=None,
                                 should_stop=lambda: len(seen) >= 2 * n)
        for record in replayer:
            seen.append(record)
        assert len(seen) <= 2 * n + 1

    def test_rate_limiter_paces(self):
        sleeps = []
        clock = [0.0]

        def fake_clock():
            return clock[0]

        def fake_sleep(dt):
            sleeps.append(dt)
            clock[0] += dt

        limiter = RateLimiter(100.0, clock=fake_clock, sleep=fake_sleep)
        for _ in range(10):
            limiter.wait()
        # 10 packets at 100 pps ≈ 90ms of pacing sleeps
        assert sum(sleeps) == pytest.approx(0.09, abs=0.02)


# --------------------------------------------------------------------------
# SessionLRU
# --------------------------------------------------------------------------


class TestSessionLRU:
    def test_expired_harvests_idle_oldest_first(self):
        lru = SessionLRU()
        lru.touch("a", 1.0)
        lru.touch("b", 2.0)
        lru.touch("c", 9.0)
        assert list(lru.expired(5.0)) == ["a", "b"]
        assert "c" in lru and len(lru) == 1

    def test_overflow_pops_least_recent(self):
        lru = SessionLRU()
        for i, key in enumerate("abcd"):
            lru.touch(key, float(i))
        lru.touch("a", 10.0)  # refresh: now most recent
        assert list(lru.overflow(2)) == ["b", "c"]
        assert set(["d", "a"]) <= set(["d", "a"])
        assert len(lru) == 2


# --------------------------------------------------------------------------
# FlowDemux eviction + slow-flow quarantine
# --------------------------------------------------------------------------


def _udp_frame(host_octet, port=4000, payload=b"x"):
    return build_udp_packet(Addr(f"10.0.0.{host_octet}"),
                            Addr("10.0.1.1"), port, 5555,
                            payload=payload)


def _at(seconds):
    return Time(float(seconds))


class _Sink(Flow):
    __slots__ = ("datagrams", "ended", "killed")

    def __init__(self, entry):
        Flow.__init__(self, entry)
        self.datagrams = 0
        self.ended = False
        self.killed = False

    def datagram(self, is_orig, payload):
        self.datagrams += 1

    def end(self):
        self.ended = True

    def kill(self):
        self.killed = True


class TestFlowDemuxEviction:
    def test_capacity_evicts_least_recent_with_final_flush(self):
        handlers = []

        def factory(timestamp, packet, entry):
            handlers.append(_Sink(entry))
            return handlers[-1]

        demux = FlowDemux(factory,
                          services=PipelineServices(max_sessions=2))
        for i in range(1, 5):
            demux.feed(_at(i), _udp_frame(i))
        stats = demux.stats()
        assert stats["sessions_evicted"] == 2
        assert demux.open_flows() == 2
        assert handlers[0].ended and handlers[1].ended
        assert not handlers[2].ended and not handlers[3].ended

    def test_ttl_expires_idle_flows(self):
        handlers = []

        def factory(timestamp, packet, entry):
            handlers.append(_Sink(entry))
            return handlers[-1]

        demux = FlowDemux(factory,
                          services=PipelineServices(session_ttl=5.0))
        demux.feed(_at(0), _udp_frame(1))
        demux.feed(_at(1), _udp_frame(2))
        demux.feed(_at(10), _udp_frame(2))  # refresh #2, expire #1
        stats = demux.stats()
        assert stats["sessions_expired"] == 1
        assert handlers[0].ended and not handlers[1].ended

    def test_current_flow_never_evicted(self):
        demux = FlowDemux(lambda timestamp, packet, entry: _Sink(entry),
                          services=PipelineServices(max_sessions=1))
        for i in range(1, 6):
            demux.feed(_at(i), _udp_frame(i))
        # the most recent flow always survives its own feed
        assert demux.open_flows() == 1
        snapshot = demux.table.flow_snapshot()
        assert len(snapshot) == 1
        assert snapshot[0]["last_active"] == 5.0
        assert snapshot[0]["key"] == [["10.0.0.5", 4000],
                                      ["10.0.1.1", 5555], 17]

    def test_unarmed_behavior_unchanged(self):
        demux = FlowDemux(lambda timestamp, packet, entry: _Sink(entry))
        for i in range(1, 6):
            demux.feed(_at(i), _udp_frame(i))
        stats = demux.stats()
        assert stats["sessions_evicted"] == 0
        assert stats["sessions_expired"] == 0
        assert demux.open_flows() == 5

    def test_slow_flow_quarantined_not_stalling(self):
        slow_handlers = []

        class SlowSink(_Sink):
            def datagram(self, is_orig, payload):
                super().datagram(is_orig, payload)
                time.sleep(0.03)

        def factory(timestamp, packet, entry):
            handler = SlowSink(entry) if not slow_handlers else _Sink(entry)
            slow_handlers.append(handler)
            return handler

        quarantined = []
        demux = FlowDemux(factory, flow_budget_ns=int(5e6),
                          on_slow_flow=quarantined.append)
        demux.feed(_at(1), _udp_frame(1))  # slow: one dispatch, quarantine
        demux.feed(_at(2), _udp_frame(2))  # fast flow unaffected
        demux.feed(_at(3), _udp_frame(1))  # no more payload to the slow one
        demux.feed(_at(4), _udp_frame(2))
        assert demux.stats()["flows_quarantined_slow"] == 1
        assert quarantined == [slow_handlers[0]]
        assert slow_handlers[0].killed
        assert slow_handlers[0].datagrams == 1
        assert slow_handlers[1].datagrams == 2


class TestPacAppSlowFlow:
    def test_injected_slow_parser_is_quarantined(self, monkeypatch):
        """Regression: a pathological flow whose parser overruns the
        per-flow budget is quarantined instead of stalling the app."""
        records = generate_mixed_trace(
            dns=DnsTraceConfig(queries=6, seed=7))
        app = PacApp(protocols=("dns",),
                     services=PipelineServices(),
                     flow_budget_ns=int(10e6))
        slowed = []
        original = _DatagramFlow.datagram

        def slow_datagram(self, is_orig, payload):
            if not slowed or self.uid in slowed:
                slowed.append(self.uid)
                time.sleep(0.05)
            original(self, is_orig, payload)

        monkeypatch.setattr(_DatagramFlow, "datagram", slow_datagram)
        app.on_begin()
        for timestamp, frame in records:
            app.on_packet(timestamp, frame)
        stats = app.on_end()
        demux_stats = app.demux.stats()
        assert demux_stats["flows_quarantined_slow"] == 1
        assert app.services.health.watchdog_trips >= 1
        assert app.services.health.flows_quarantined >= 1
        # the other flows kept parsing normally
        assert stats["events"] > 0


# --------------------------------------------------------------------------
# Bro connection eviction
# --------------------------------------------------------------------------


class TestBroEviction:
    def test_capacity_cap_evicts_with_state_remove(self):
        records = generate_mixed_trace(
            http=HttpTraceConfig(sessions=10, seed=7))
        bro = Bro(max_sessions=3)
        bro.run(records)
        sessions = bro.session_stats()
        assert sessions["evicted"] > 0
        assert sessions["open"] <= 3
        baseline = Bro()
        baseline.run(records)
        # eviction delivers connection_state_remove, so the evicting
        # run still observes every connection's finalization
        assert bro.tracker.flows_closed == baseline.tracker.flows_closed

    def test_ttl_expires_idle_connections(self):
        # UDP conversations have no natural teardown, so they linger in
        # the LRU until network time moves past the TTL.  Replay the
        # trace twice with the second pass shifted well beyond the TTL:
        # every first-pass connection is provably idle by the time the
        # second pass arrives, so the first shifted packet harvests all
        # of them.
        records = generate_mixed_trace(
            dns=DnsTraceConfig(queries=20, seed=7))
        span = records[-1][0].seconds - records[0][0].seconds
        ttl = span + 60.0
        shift = 10.0 * ttl
        shifted = [(Time(ts.seconds + shift), frame)
                   for ts, frame in records]
        bro = Bro(session_ttl=ttl)
        bro.run(records + shifted)
        assert bro.session_stats()["expired"] > 0

    def test_unbounded_run_unchanged(self):
        records = generate_mixed_trace(
            http=HttpTraceConfig(sessions=5, seed=7))
        plain = Bro()
        plain.run(records)
        assert plain.session_stats() == {
            "open": plain.session_stats()["open"],
            "evicted": 0, "expired": 0,
        }


# --------------------------------------------------------------------------
# SessionTable entry cap
# --------------------------------------------------------------------------


class TestSessionTableCapacity:
    def test_max_entries_evicts_lru_through_callback(self):
        evicted = []
        table = SessionTable(timeout_seconds=1000.0,
                             factory=lambda: "state",
                             on_evict=evicted.append,
                             max_entries=3)
        for key in ("a", "b", "c"):
            table.get_or_create(key)
        table.get_or_create("a")      # refresh: 'b' is now oldest
        table.get_or_create("d")      # overflow
        table.get_or_create("e")      # overflow
        assert evicted == ["b", "c"]
        assert table.capacity_evictions == 2
        assert len(table) == 3
        assert table.stats()["capacity_evictions"] == 2


# --------------------------------------------------------------------------
# The assembled service
# --------------------------------------------------------------------------


class TestHostService:
    def test_clean_drain_processes_everything(self, mixed_pcap, tmp_path):
        path, n = mixed_pcap
        config = ServiceConfig(lanes=2, queue_capacity=256,
                               tick_seconds=0.05, http_port=None,
                               http_host=None, logdir=str(tmp_path),
                               app_name="count")
        service, code = _run_service(path, config, loops=3)
        totals = service.totals()
        assert code == 0
        assert service.stop_reason == "source exhausted"
        assert totals["packets_ingested"] == 3 * n
        assert totals["packets_processed"] == 3 * n
        assert _invariant(totals)
        # The live discovery file is gone after a graceful drain; the
        # terminal document lands in service-final.json.
        assert not (tmp_path / "service.json").exists()
        doc = json.loads((tmp_path / "service-final.json").read_text())
        assert validate(SERVICE_SCHEMA, doc) == []
        assert doc["state"] == "drained" and doc["exit_code"] == 0
        assert doc["pid"] == os.getpid()
        assert isinstance(doc["started_ts"], float)
        assert (tmp_path / "results.log").exists()
        assert (tmp_path / "metrics.jsonl").exists()
        assert (tmp_path / "stats.log").exists()
        assert validate(
            METRICS_SCHEMA,
            (tmp_path / "metrics.jsonl").read_text().splitlines()) == []

    def test_block_policy_backpressure_no_loss(self, mixed_pcap, tmp_path):
        path, n = mixed_pcap

        class SlowApp(CountApp):
            def packet(self, timestamp, frame):
                time.sleep(0.0002)
                super().packet(timestamp, frame)

        config = ServiceConfig(lanes=1, queue_capacity=8,
                               overload="block", tick_seconds=0.05,
                               http_port=None, http_host=None,
                               logdir=str(tmp_path), app_name="count")
        service, code = _run_service(path, config,
                                     make_app=lambda s: SlowApp(s),
                                     loops=1)
        totals = service.totals()
        assert code == 0
        assert totals["packets_shed"] == 0
        assert totals["packets_processed"] == n
        assert service.lanes[0].queue.high_water <= 8

    def test_shed_policy_counts_drops_exactly(self, mixed_pcap, tmp_path):
        path, n = mixed_pcap

        class SlowApp(CountApp):
            def packet(self, timestamp, frame):
                time.sleep(0.0005)
                super().packet(timestamp, frame)

        config = ServiceConfig(lanes=1, queue_capacity=8,
                               overload="shed", tick_seconds=0.05,
                               http_port=None, http_host=None,
                               logdir=str(tmp_path), app_name="count")
        service, code = _run_service(path, config,
                                     make_app=lambda s: SlowApp(s),
                                     loops=3)
        totals = service.totals()
        assert code == 0
        assert totals["packets_shed"] > 0
        assert _invariant(totals)
        # shed counter is the per-queue sum, exactly
        assert totals["packets_shed"] == sum(
            lane.queue.shed for lane in service.lanes)

    def test_injected_crashes_restart_with_backoff(self, mixed_pcap,
                                                   tmp_path):
        path, n = mixed_pcap
        config = ServiceConfig(lanes=2, queue_capacity=256,
                               tick_seconds=0.05,
                               backoff_base=0.01, backoff_cap=0.05,
                               healthy_packets=32,
                               inject_rates={"service.lane": 0.005},
                               fault_seed=3, http_port=None,
                               http_host=None, logdir=str(tmp_path),
                               app_name="count")
        service, code = _run_service(path, config, loops=10)
        totals = service.totals()
        assert code == 0
        assert totals["lane_crashes"] > 0
        assert totals["lane_restarts"] > 0
        # every crash not raced by shutdown was restarted
        assert totals["lane_restarts"] >= totals["lane_crashes"] - 2
        assert not any(lane.failed for lane in service.lanes)
        assert sum(lane.backoff_seconds for lane in service.lanes) > 0
        assert _invariant(totals)

    def test_crash_loop_escalates_to_breaker(self, mixed_pcap, tmp_path):
        path, n = mixed_pcap
        config = ServiceConfig(lanes=1, queue_capacity=32,
                               tick_seconds=0.05,
                               backoff_base=0.005, backoff_cap=0.02,
                               breaker_min_starts=4,
                               inject_rates={"service.lane": 0.5},
                               fault_seed=1, http_port=None,
                               http_host=None, logdir=str(tmp_path),
                               app_name="count")
        service, code = _run_service(path, config, loops=2)
        lane = service.lanes[0]
        assert code == 0  # escalation degrades, it does not hang/crash
        assert lane.failed
        assert lane.breaker.tripped
        status, body = service.healthz()
        assert status == 503 and body["status"] == "degraded"
        totals = service.totals()
        assert totals["packets_dropped_failed"] > 0
        assert _invariant(totals)

    def test_http_surface(self, mixed_pcap, tmp_path):
        path, n = mixed_pcap
        config = ServiceConfig(lanes=2, queue_capacity=256,
                               tick_seconds=0.05, http_port=0,
                               logdir=str(tmp_path), app_name="count")
        service = None
        replayer = TraceReplayer(path, loops=None,
                                 should_stop=lambda: service.should_stop())
        service = HostService(lambda s: CountApp(s), replayer, config)
        thread = threading.Thread(target=service.serve, daemon=True)
        thread.start()
        try:
            deadline = time.monotonic() + 10
            while service.http_address is None:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            host, port = service.http_address
            base = f"http://{host}:{port}"

            def fetch(path):
                with urllib.request.urlopen(base + path, timeout=5) as r:
                    return r.status, r.read().decode()

            status, body = fetch("/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"

            # wait for windows to fill
            while True:
                assert time.monotonic() < deadline
                status, body = fetch("/stats")
                stats = json.loads(body)
                if stats["windows"]:
                    break
                time.sleep(0.05)
            assert status == 200
            assert stats["totals"]["packets_ingested"] > 0
            assert "1s" in stats["windows"]
            assert len(stats["lanes"]) == 2

            status, body = fetch("/metrics")
            assert status == 200
            assert validate(METRICS_SCHEMA, body.splitlines()) == []
            assert "service.packets_ingested" in body

            status, body = fetch("/flows")
            assert status == 200
            assert "flows" in json.loads(body)

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch("/nope")
            assert excinfo.value.code == 404
        finally:
            service.request_stop("test done")
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert service.exit_code == 0


# --------------------------------------------------------------------------
# Graceful shutdown: batch driver (SIGTERM mid-run flushes partials)
# --------------------------------------------------------------------------


@pytest.mark.slow
class TestGracefulShutdown:
    def test_batch_interrupt_flushes_partial_telemetry(self, tmp_path):
        # Big enough that the run is still mid-trace when SIGTERM lands
        # (the 1500-session trace finishes in ~1.5 s since the
        # single-pass decoder).
        records = generate_mixed_trace(
            http=HttpTraceConfig(sessions=4000, seed=7))
        pcap = tmp_path / "big.pcap"
        write_pcap(str(pcap), records)
        logdir = tmp_path / "logs"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.pac_driver",
             "-r", str(pcap), "--metrics", "--logdir", str(logdir)],
            env=_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        time.sleep(1.5)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 130, out
        assert "interrupted" in out
        assert (logdir / "events.log").exists()
        assert (logdir / "metrics.jsonl").exists()
        assert (logdir / "stats.log").exists()
        assert (logdir / "events.log").stat().st_size > 0
        assert validate(
            METRICS_SCHEMA,
            (logdir / "metrics.jsonl").read_text().splitlines()) == []

    def test_service_sigterm_drains_exit_zero(self, mixed_pcap, tmp_path):
        path, n = mixed_pcap
        logdir = tmp_path / "logs"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.pac_driver",
             "-r", path, "--serve", "--loops", "0",
             "--lanes", "2", "--tick", "0.2",
             "--max-sessions", "64", "--session-ttl", "30",
             "--logdir", str(logdir)],
            env=_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        try:
            deadline = time.monotonic() + 60
            port = None
            while port is None:
                assert time.monotonic() < deadline, "service.json never came"
                time.sleep(0.2)
                try:
                    doc = json.loads((logdir / "service.json").read_text())
                    if doc.get("state") == "running" and doc.get("http"):
                        assert validate(SERVICE_SCHEMA, doc) == []
                        port = doc["http"]["port"]
                except (OSError, ValueError):
                    continue
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/healthz", timeout=5) as r:
                assert json.loads(r.read())["status"] == "ok"
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        assert not (logdir / "service.json").exists()
        doc = json.loads((logdir / "service-final.json").read_text())
        assert validate(SERVICE_SCHEMA, doc) == []
        assert doc["state"] == "drained" and doc["exit_code"] == 0
        assert (logdir / "events.log").exists()
        assert (logdir / "metrics.jsonl").exists()
        assert validate(
            METRICS_SCHEMA,
            (logdir / "metrics.jsonl").read_text().splitlines()) == []


class TestServiceUids:
    """A service has no process that sees every packet, yet a
    ``--loops 1`` run names its flows exactly as the sequential run
    does: each lane names a flow after its opening packet's ordinal,
    which the ingest loop hands over with the packet."""

    @staticmethod
    def _uids(tool, args, pcap, logdir):
        subprocess.run(
            [sys.executable, "-m", f"repro.tools.{tool}", *args,
             "-r", pcap, "--logdir", str(logdir)],
            env=_env(), check=True, stdout=subprocess.DEVNULL,
            timeout=300)
        lines = (logdir / "flow_records.jsonl").read_text().splitlines()
        return [json.loads(line)["uid"] for line in lines[1:]]

    @pytest.mark.parametrize("transport", ["thread", "pool"])
    @pytest.mark.parametrize("tool,args", [
        ("bro", []), ("bpf_filter", ["udp"])])
    def test_loop_once_names_flows_like_sequential(
            self, mixed_pcap, tmp_path, tool, args, transport):
        path, __ = mixed_pcap
        sequential = self._uids(tool, args, path, tmp_path / "seq")
        served = self._uids(
            tool, [*args, "--serve", "--loops", "1", "--lanes", "2",
                   "--lane-transport", transport], path, tmp_path / "svc")
        assert len(set(served)) == len(served)
        assert set(served) == set(sequential)
