"""Fault injection end-to-end: the recovery policy under deliberate failure.

The acceptance oracle for the robustness layer (docs/ROBUSTNESS.md):
with deterministic faults armed at every registered injection point over
a crud-bearing HTTP+DNS trace, the pipeline must complete, quarantine
only the affected flows, and leave the analysis of unaffected flows
byte-identical to a fault-free run of the same seed.  A clean trace with
no injector must report an all-zero health report, and overloading the
pac tier must demonstrably trip the circuit breaker into std fallback.
"""

import io

import pytest

from repro.apps.bro import Bro
from repro.host import Pipeline
from repro.net.pcap import write_pcap
from repro.net.tracegen import (
    DnsTraceConfig,
    HttpTraceConfig,
    generate_dns_trace,
    generate_http_trace,
)
from repro.runtime.faults import (
    SITE_ANALYZER_DISPATCH,
    SITE_BINPAC_PARSE,
    SITE_SCRIPT_CALL,
    FaultInjector,
    registered_sites,
)

FAULT_SEED = 1337


@pytest.fixture(scope="module")
def mixed_trace():
    """HTTP + DNS with crud_fraction >= 0.05, merged by timestamp."""
    http = generate_http_trace(HttpTraceConfig(
        sessions=30, seed=21, crud_fraction=0.05))
    dns = generate_dns_trace(DnsTraceConfig(
        queries=80, seed=22, crud_fraction=0.05))
    return sorted(http + dns, key=lambda p: p[0].nanos)


@pytest.fixture(scope="module")
def clean_trace():
    http = generate_http_trace(HttpTraceConfig(
        sessions=20, seed=31, crud_fraction=0.0))
    dns = generate_dns_trace(DnsTraceConfig(
        queries=50, seed=32, crud_fraction=0.0))
    return sorted(http + dns, key=lambda p: p[0].nanos)


def _run(trace, injector=None, parsers="pac", watchdog=None, **kw):
    bro = Bro(parsers=parsers, scripts_engine="interp",
              print_stream=io.StringIO(), fault_injector=injector,
              watchdog_budget=watchdog, **kw)
    stats = Pipeline(bro).run(trace)
    stats["health"] = bro.core.health.as_dict(bro.core.faults)
    return bro, stats


def _uids(lines, column=1):
    return [line.split("\t")[column] for line in lines]


class TestAllSitesInjection:
    """Faults at every registered site: completion plus accounting."""

    def test_pipeline_survives_and_accounts(self, mixed_trace):
        injector = FaultInjector.everywhere(seed=FAULT_SEED, rate=0.02)
        bro, stats = _run(mixed_trace, injector)
        health = stats["health"]
        # Faults actually fired, at more than one site.
        assert health["injected_faults"] > 0
        assert len([s for s, n in injector.injected.items() if n]) > 1
        # The run still produced analysis output.
        assert len(bro.log_lines("conn")) > 0
        assert len(bro.log_lines("http")) > 0
        # Every contained fault left an audit record: quarantines write
        # one weird line each, and so do dropped events.
        weird = bro.log_lines("weird")
        assert len(weird) >= health["flows_quarantined"]
        # Quarantined flows are real flows from this run.  A weird uid
        # may legitimately miss from conn.log only when that flow's
        # connection_state_remove event was itself eaten by a fault.
        conn_uids = set(_uids(bro.log_lines("conn")))
        flow_uids = [uid for uid in _uids(weird) if uid != "(empty)"]
        dropped_removes = sum(
            1 for line in weird if "connection_state_remove" in line)
        missing = [uid for uid in flow_uids if uid not in conn_uids]
        assert len(missing) <= dropped_removes
        for uid in flow_uids:
            assert uid.startswith("C")

    def test_identical_seed_identical_outcome(self, mixed_trace):
        """The whole faulted run is reproducible from the seed."""
        a_bro, a = _run(mixed_trace,
                        FaultInjector.everywhere(seed=FAULT_SEED, rate=0.02))
        b_bro, b = _run(mixed_trace,
                        FaultInjector.everywhere(seed=FAULT_SEED, rate=0.02))
        assert a["health"] == b["health"]
        assert a_bro.log_lines("conn") == b_bro.log_lines("conn")
        assert a_bro.log_lines("weird") == b_bro.log_lines("weird")


class TestQuarantineIsolation:
    """Flow-level faults must not leak into unaffected flows."""

    def test_unaffected_flows_identical_to_clean_run(self, mixed_trace):
        # Sites below cannot destroy packets or flows, only analyses:
        # the conn.log of the faulted run must match the fault-free run
        # except for connection_state_remove events the injector ate.
        injector = FaultInjector(seed=FAULT_SEED, rates={
            SITE_BINPAC_PARSE: 0.05,
            SITE_ANALYZER_DISPATCH: 0.05,
            SITE_SCRIPT_CALL: 0.02,
        })
        # breaker_threshold > 1 keeps the circuit breaker out of the
        # picture: a tier fallback changes what *later, unaffected*
        # flows log (std extracts less), which is exactly the tier
        # degradation the breaker tests cover — here we isolate
        # per-flow quarantine.
        clean_bro, __ = _run(mixed_trace, None, breaker_threshold=2.0)
        fault_bro, stats = _run(mixed_trace, injector,
                                breaker_threshold=2.0)
        health = stats["health"]
        assert health["injected_faults"] > 0
        assert health["flows_quarantined"] > 0

        clean_conn = clean_bro.log_lines("conn")
        fault_conn = fault_bro.log_lines("conn")
        # A dropped connection_state_remove is the only way to lose a
        # conn.log line at these sites; each one is audited in weird.log.
        dropped_removes = sum(
            1 for line in fault_bro.log_lines("weird")
            if "connection_state_remove" in line
        )
        assert len(fault_conn) + dropped_removes == len(clean_conn)
        # Flows never named in weird.log got the identical conn.log line.
        weird_uids = set(_uids(fault_bro.log_lines("weird")))
        clean_by_uid = {line.split("\t")[1]: line for line in clean_conn}
        for line in fault_conn:
            uid = line.split("\t")[1]
            if uid not in weird_uids:
                assert clean_by_uid[uid] == line

    def test_quarantine_disables_only_that_flow(self, mixed_trace):
        injector = FaultInjector(seed=FAULT_SEED,
                                 rates={SITE_ANALYZER_DISPATCH: 0.05})
        clean_bro, __ = _run(mixed_trace, None, breaker_threshold=2.0)
        fault_bro, stats = _run(mixed_trace, injector,
                                breaker_threshold=2.0)
        assert stats["health"]["flows_quarantined"] > 0
        # Unquarantined HTTP flows still produced their http.log lines.
        weird_uids = set(_uids(fault_bro.log_lines("weird")))
        clean_http = [line for line in clean_bro.log_lines("http")
                      if line.split("\t")[1] not in weird_uids]
        fault_http = [line for line in fault_bro.log_lines("http")
                      if line.split("\t")[1] not in weird_uids]
        assert clean_http == fault_http


class TestCircuitBreaker:
    def test_pac_overload_degrades_to_std(self, mixed_trace):
        """Forcing pac analyzers to violate beyond the threshold must
        finish the run on std analyzers and report the fallback."""
        injector = FaultInjector(seed=FAULT_SEED,
                                 rates={SITE_BINPAC_PARSE: 1.0})
        bro, stats = _run(mixed_trace, injector,
                          breaker_threshold=0.25, breaker_min_flows=8)
        health = stats["health"]
        assert health["breaker"]["tripped"] is True
        assert health["tier_fallback"] is True
        assert bro.core.health.tier_fallbacks > 0
        # Flows created after the trip run std analyzers, which don't
        # pass through the binpac.parse site — so analysis kept going.
        assert len(bro.log_lines("http")) > 0
        assert len(bro.log_lines("dns")) > 0

    def test_no_trip_under_light_faults(self, mixed_trace):
        injector = FaultInjector(seed=FAULT_SEED,
                                 rates={SITE_BINPAC_PARSE: 0.02})
        __, stats = _run(mixed_trace, injector)
        assert stats["health"]["tier_fallback"] is False


class TestWatchdog:
    def test_budget_quarantines_and_counts(self, mixed_trace):
        bro, stats = _run(mixed_trace, None, watchdog=200)
        health = stats["health"]
        assert health["watchdog_trips"] > 0
        assert health["flows_quarantined"] >= health["watchdog_trips"] > 0
        # The pipeline completed: every flow still has its conn line.
        clean_bro, __ = _run(mixed_trace, None)
        assert len(bro.log_lines("conn")) == \
            len(clean_bro.log_lines("conn"))

    def test_generous_budget_never_trips(self, mixed_trace):
        __, stats = _run(mixed_trace, None, watchdog=100_000_000)
        assert stats["health"]["watchdog_trips"] == 0


class TestCleanTraceHealth:
    @pytest.mark.parametrize("parsers", ["std", "pac"])
    def test_all_zero_on_clean_trace(self, clean_trace, parsers):
        __, stats = _run(clean_trace, None, parsers=parsers)
        health = stats["health"]
        assert health["flows_quarantined"] == 0
        assert health["records_skipped"] == 0
        assert health["watchdog_trips"] == 0
        assert health["injected_faults"] == 0
        assert health["tier_fallback"] is False
        assert set(health["site_errors"]) == set(registered_sites())
        assert all(count == 0
                   for count in health["site_errors"].values())


class TestTolerantTraceReading:
    def test_corrupt_pcap_skipped_and_reported(self, tmp_path, clean_trace):
        path = str(tmp_path / "corrupt.pcap")
        write_pcap(path, clean_trace)
        with open(path, "r+b") as f:
            f.seek(0, 2)
            f.truncate(f.tell() - 7)  # chop mid-record
        bro = Bro(parsers="std", scripts_engine="interp",
                  print_stream=io.StringIO())
        stats = bro.run_pcap(path, tolerant=True)
        assert stats["health"]["records_skipped"] == 1
        assert len(bro.log_lines("conn")) > 0

    def test_strict_mode_raises_io_error(self, tmp_path, clean_trace):
        from repro.net.pcap import PcapError

        path = str(tmp_path / "corrupt2.pcap")
        write_pcap(path, clean_trace)
        with open(path, "r+b") as f:
            f.seek(0, 2)
            f.truncate(f.tell() - 7)
        bro = Bro(parsers="std", scripts_engine="interp",
                  print_stream=io.StringIO())
        with pytest.raises(PcapError):
            bro.run_pcap(path)
