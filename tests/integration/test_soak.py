"""Service-mode soak: ≥100k packets, bounded state, exact accounting.

The overload-resilience claims only mean something under sustained
load: the session table must stay flat while flows churn, queue depths
must respect their caps, every shed/dropped/lost packet must be
counted, and injected lane crashes must keep being absorbed by the
supervisor.  These runs push a fixed-seed mixed trace through the
assembled :class:`~repro.host.service.HostService` long enough to see
all of that at once.
"""

import threading
import time

import pytest

from repro.apps.binpac.app import PacApp
from repro.host import HostApp, HostService, LaneSpec, ServiceConfig
from repro.host.pool import shutdown_shared_pools
from repro.net.replay import TraceReplayer
from repro.net.tracegen import (
    DnsTraceConfig,
    HttpTraceConfig,
    SshTraceConfig,
    TftpTraceConfig,
    generate_mixed_trace,
    write_pcap,
)


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    yield
    shutdown_shared_pools()


@pytest.fixture(scope="module")
def soak_pcap(tmp_path_factory):
    records = generate_mixed_trace(
        http=HttpTraceConfig(sessions=25, seed=7),
        dns=DnsTraceConfig(queries=40, seed=7),
        ssh=SshTraceConfig(sessions=10, seed=7),
        tftp=TftpTraceConfig(transfers=12, seed=7),
    )
    path = tmp_path_factory.mktemp("soak") / "mixed.pcap"
    write_pcap(str(path), records)
    return str(path), len(records)


class CountApp(HostApp):
    name = "count"

    def packet(self, timestamp, frame):
        pass


class CountLaneSpec(LaneSpec):
    """Builds the pool transport's CountApp lanes in the workers."""

    def make_lane(self, uid_map):
        return CountApp(self.lane_services())


COUNT_SPEC = CountLaneSpec({"watchdog_budget": None, "metrics": False,
                            "trace": False})


def _invariant(totals):
    return (totals["packets_ingested"]
            == totals["packets_processed"] + totals["packets_shed"]
            + totals["packets_lost"] + totals["packets_dropped"])


@pytest.mark.slow
class TestServiceSoak:
    @pytest.mark.parametrize("transport", ["thread", "pool"])
    def test_100k_packets_with_injected_crashes(self, soak_pcap, tmp_path,
                                                transport):
        path, n = soak_pcap
        loops = 100_000 // n + 1
        queue_cap = 512
        config = ServiceConfig(
            lanes=2, lane_transport=transport, queue_capacity=queue_cap,
            overload="block",
            tick_seconds=0.1,
            backoff_base=0.005, backoff_cap=0.02, healthy_packets=64,
            inject_rates={"service.lane": 0.0003}, fault_seed=11,
            http_port=None, http_host=None,
            logdir=str(tmp_path), app_name="count")
        service = None
        replayer = TraceReplayer(
            path, loops=loops,
            should_stop=lambda: service.should_stop())
        service = HostService(lambda s: CountApp(s), replayer, config,
                              spec=COUNT_SPEC)
        code = service.serve()
        totals = service.totals()

        assert code == 0
        assert totals["packets_ingested"] >= 100_000
        # packet conservation, exactly — nothing disappears silently
        assert _invariant(totals)
        # the injected crash schedule fired and every crash (bar a
        # shutdown race per lane) was restarted with backoff
        assert totals["lane_crashes"] > 0
        assert totals["lane_restarts"] >= totals["lane_crashes"] - 2
        assert not any(lane.failed for lane in service.lanes)
        assert sum(lane.backoff_seconds for lane in service.lanes) > 0
        # bounded queues held their caps (force() only ever adds the
        # drain sentinel, hence +1); pool lanes are bounded by their ring
        for lane in service.lanes:
            if transport == "thread":
                assert lane.queue.high_water <= queue_cap + 1
        # block policy: nothing shed
        assert totals["packets_shed"] == 0

    def test_sessions_stay_bounded_under_churn(self, soak_pcap, tmp_path):
        # Block overload so every loop's packets actually reach the
        # lanes (shed on an unpaced replay starves the apps: each
        # queue fills once and everything else is dropped before any
        # flow state can build up).  The mixed trace staggers its
        # protocol phases ~1e5 s apart in network time, so with a TTL
        # of 120 s each phase boundary deterministically expires the
        # previous phase's idle UDP flows, and a cap of 8 forces
        # capacity eviction while a phase's live flows pile up.
        path, n = soak_pcap
        max_sessions = 8
        config = ServiceConfig(
            lanes=2, queue_capacity=128, overload="block",
            tick_seconds=0.05,
            max_sessions=max_sessions, session_ttl=120.0,
            http_port=None, http_host=None,
            logdir=str(tmp_path), app_name="pac")
        service = None
        replayer = TraceReplayer(
            path, loops=4,
            should_stop=lambda: service.should_stop())
        service = HostService(
            lambda s: PacApp(protocols=("http", "dns", "ssh", "tftp"),
                             services=s),
            replayer, config)

        peak_open = [0]
        stop_probe = threading.Event()

        def probe():
            while not stop_probe.is_set():
                open_now = service.session_totals()["open"]
                peak_open[0] = max(peak_open[0], open_now)
                time.sleep(0.02)

        prober = threading.Thread(target=probe, daemon=True)
        prober.start()
        try:
            code = service.serve()
        finally:
            stop_probe.set()
            prober.join(timeout=5)

        totals = service.totals()
        sessions = service.session_totals()
        assert code == 0
        assert _invariant(totals)
        # per-lane caps: occupancy never exceeded max_sessions per lane
        # (+1 for the in-hand flow mid-feed)
        assert peak_open[0] <= config.lanes * (max_sessions + 1)
        # churn actually hit the bound — both eviction flavors did
        # real work (capacity sacrifice and TTL expiry)
        assert sessions["evicted"] > 0
        assert sessions["expired"] > 0
        # block policy: every ingested packet was processed
        assert totals["packets_shed"] == 0
        assert totals["packets_processed"] == totals["packets_ingested"]
