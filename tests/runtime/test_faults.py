"""The fault-injection framework: determinism, budgets, recovery policy."""

import pytest

from repro.runtime.exceptions import (
    EXCEPTION_BASE,
    HiltiError,
    INJECTED_FAULT,
    PROCESSING_TIMEOUT,
)
from repro.runtime.faults import (
    NULL_INJECTOR,
    SITE_ANALYZER_DISPATCH,
    SITE_BINPAC_PARSE,
    SITE_PACKET_PARSE,
    SITE_PCAP_RECORD,
    SITE_SCRIPT_CALL,
    SITE_TCP_REASSEMBLY,
    CircuitBreaker,
    FaultError,
    FaultInjector,
    HealthReport,
    classify,
    register_site,
    registered_sites,
)

ALL_SITES = [
    SITE_PCAP_RECORD, SITE_PACKET_PARSE, SITE_TCP_REASSEMBLY,
    SITE_BINPAC_PARSE, SITE_ANALYZER_DISPATCH, SITE_SCRIPT_CALL,
]


def _schedule(injector, site, passes=200):
    """Indices at which the injector fires over *passes* checks."""
    fired = []
    for i in range(passes):
        try:
            injector.check(site)
        except FaultError:
            fired.append(i)
    return fired


class TestRegistry:
    def test_pipeline_sites_registered(self):
        sites = registered_sites()
        for site in ALL_SITES:
            assert site in sites
            assert sites[site]  # has a description

    def test_register_idempotent(self):
        before = registered_sites()
        assert register_site(SITE_PCAP_RECORD, "other text") \
            == SITE_PCAP_RECORD
        assert registered_sites() == before


class TestFaultError:
    def test_is_typed_hilti_exception(self):
        error = FaultError(SITE_BINPAC_PARSE)
        assert isinstance(error, HiltiError)
        assert error.matches(INJECTED_FAULT)
        assert error.matches(EXCEPTION_BASE)
        assert not error.matches(PROCESSING_TIMEOUT)
        assert error.site == SITE_BINPAC_PARSE


class TestFaultInjector:
    def test_deterministic_per_seed(self):
        a = FaultInjector(seed=7, rates={SITE_SCRIPT_CALL: 0.1})
        b = FaultInjector(seed=7, rates={SITE_SCRIPT_CALL: 0.1})
        assert _schedule(a, SITE_SCRIPT_CALL) == \
            _schedule(b, SITE_SCRIPT_CALL)

    def test_different_seeds_differ(self):
        a = FaultInjector(seed=1, rates={SITE_SCRIPT_CALL: 0.2})
        b = FaultInjector(seed=2, rates={SITE_SCRIPT_CALL: 0.2})
        assert _schedule(a, SITE_SCRIPT_CALL) != \
            _schedule(b, SITE_SCRIPT_CALL)

    def test_sites_have_independent_streams(self):
        """Changing one site's rate must not shift another's schedule."""
        a = FaultInjector(seed=3, rates={
            SITE_SCRIPT_CALL: 0.1, SITE_BINPAC_PARSE: 0.0,
        })
        b = FaultInjector(seed=3, rates={
            SITE_SCRIPT_CALL: 0.1, SITE_BINPAC_PARSE: 0.9,
        })
        # Interleave checks at both sites, as the pipeline would.
        fired_a, fired_b = [], []
        for i in range(200):
            for injector, fired in ((a, fired_a), (b, fired_b)):
                try:
                    injector.check(SITE_BINPAC_PARSE)
                except FaultError:
                    pass
                try:
                    injector.check(SITE_SCRIPT_CALL)
                except FaultError:
                    fired.append(i)
        assert fired_a == fired_b

    def test_zero_rate_never_fires(self):
        injector = FaultInjector(seed=0)
        assert _schedule(injector, SITE_PACKET_PARSE) == []
        assert injector.total_injected == 0

    def test_rate_one_always_fires(self):
        injector = FaultInjector(seed=0, rates={SITE_PACKET_PARSE: 1.0})
        assert _schedule(injector, SITE_PACKET_PARSE, passes=10) == \
            list(range(10))
        assert injector.injected[SITE_PACKET_PARSE] == 10

    def test_everywhere_covers_all_sites(self):
        injector = FaultInjector.everywhere(seed=0, rate=1.0)
        for site in registered_sites():
            with pytest.raises(FaultError):
                injector.check(site)

    def test_null_injector_is_inert(self):
        for site in ALL_SITES:
            NULL_INJECTOR.check(site)
        assert NULL_INJECTOR.total_injected == 0
        assert NULL_INJECTOR.rate_for(SITE_SCRIPT_CALL) == 0.0


class TestCircuitBreaker:
    def test_no_trip_below_min_flows(self):
        breaker = CircuitBreaker(threshold=0.25, min_flows=8)
        for _ in range(5):
            breaker.record_flow()
            breaker.record_violation()
        assert not breaker.tripped  # 100% violating but only 5 flows

    def test_trips_above_threshold(self):
        breaker = CircuitBreaker(threshold=0.25, min_flows=8)
        for _ in range(10):
            breaker.record_flow()
        for _ in range(2):
            breaker.record_violation()
        assert not breaker.tripped  # 2/10 <= 0.25
        breaker.record_violation()
        assert breaker.tripped  # 3/10 > 0.25

    def test_stays_tripped(self):
        breaker = CircuitBreaker(threshold=0.0, min_flows=1)
        breaker.record_flow()
        breaker.record_violation()
        assert breaker.tripped
        for _ in range(100):
            breaker.record_flow()
        assert breaker.tripped

    def test_as_dict(self):
        breaker = CircuitBreaker(threshold=0.5, min_flows=2)
        breaker.record_flow()
        assert breaker.as_dict() == {
            "flows": 1, "violations": 0, "threshold": 0.5,
            "tripped": False,
        }


class TestHealthReport:
    def test_zero_filled_site_errors(self):
        report = HealthReport()
        health = report.as_dict()
        for site in ALL_SITES:
            assert health["site_errors"][site] == 0
        assert health["flows_quarantined"] == 0
        assert health["records_skipped"] == 0
        assert health["watchdog_trips"] == 0
        assert health["injected_faults"] == 0
        assert health["tier_fallback"] is False

    def test_error_budget_counters(self):
        report = HealthReport()
        report.record_error(SITE_BINPAC_PARSE)
        report.record_error(SITE_BINPAC_PARSE)
        report.record_error(SITE_SCRIPT_CALL)
        assert report.errors_at(SITE_BINPAC_PARSE) == 2
        assert report.errors_at(SITE_PACKET_PARSE) == 0
        assert report.total_errors == 3
        assert report.as_dict()["site_errors"][SITE_BINPAC_PARSE] == 2

    def test_reports_injector_activity(self):
        injector = FaultInjector(seed=0, rates={SITE_SCRIPT_CALL: 1.0})
        with pytest.raises(FaultError):
            injector.check(SITE_SCRIPT_CALL)
        report = HealthReport()
        assert report.as_dict(injector)["injected_faults"] == 1


class TestClassify:
    def test_injected(self):
        assert classify(FaultError(SITE_SCRIPT_CALL)) == "injected_fault"

    def test_watchdog(self):
        error = HiltiError(PROCESSING_TIMEOUT, "budget exhausted")
        assert classify(error) == "watchdog_timeout"

    def test_other(self):
        assert classify(HiltiError(EXCEPTION_BASE, "boom")) \
            == "analyzer_violation"
