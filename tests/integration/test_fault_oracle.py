"""The byte-identity oracle with faults armed.

Every fault draw is keyed by the packet (or the finalized flow) in
hand, so one injector must give the same verdicts whether the trace
runs sequentially or on either parallel backend at any worker count:
the result and flow fingerprints, ``injected_faults``, the per-site
error budget and ``flows_quarantined`` all agree exactly.  Every site
but ``service.lane`` (a service lane's crash site) is armed, at a rate
where no lane's circuit breaker trips — the per-lane breaker is a
documented divergence, not something this oracle exempts silently.
"""

import io
import multiprocessing

import pytest

from repro.apps.binpac.app import PacApp, PacLaneSpec
from repro.apps.bpf.app import BpfApp, BpfLaneSpec
from repro.apps.bro import Bro
from repro.apps.bro.parallel import BroLaneSpec
from repro.apps.firewall.app import FirewallApp, FirewallLaneSpec
from repro.apps.firewall.rules import RuleSet
from repro.host import ParallelPipeline, Pipeline, PipelineServices
from repro.host.cli import fingerprint
from repro.host.pool import shutdown_shared_pools
from repro.net.tracegen import (
    DnsTraceConfig,
    HttpTraceConfig,
    SshTraceConfig,
    TftpTraceConfig,
    generate_mixed_trace,
)
from repro.runtime.faults import (
    SITE_SERVICE_LANE,
    FaultInjector,
    registered_sites,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

FAULTS = {
    "seed": 10,
    "rates": {site: 0.01 for site in registered_sites()
              if site != SITE_SERVICE_LANE},
}

FILTER = "tcp and port 80"

RULES = """
10.0.0.0/8   172.16.0.0/12  deny
10.0.0.0/8   *              allow
*            *              deny
"""

_LANE = {"watchdog_budget": None, "metrics": False, "trace": False,
         "opt_level": None}


def _bro(engine):
    return (
        lambda services: Bro(parsers="pac", scripts_engine=engine,
                             print_stream=io.StringIO(),
                             fault_injector=services.faults),
        BroLaneSpec(dict(_LANE, scripts=None, parsers="pac",
                         scripts_engine=engine, log_enabled=True)),
    )


#: app -> (sequential factory over PipelineServices, lane spec)
APPS = {
    "bro-pac": _bro("interp"),
    "bro-hilti": _bro("hilti"),
    "pac": (lambda services: PacApp(services=services),
            PacLaneSpec(dict(_LANE, protocols=("http", "dns", "ssh",
                                               "tftp")))),
    "bpf": (lambda services: BpfApp(FILTER, services=services),
            BpfLaneSpec(dict(_LANE, filter=FILTER, engine="compiled"))),
    "firewall": (
        lambda services: FirewallApp(
            RuleSet.parse(RULES, timeout_seconds=5.0), services=services),
        FirewallLaneSpec(dict(_LANE, rules=RULES, timeout_seconds=5.0,
                              engine="compiled"))),
}


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    yield
    shutdown_shared_pools()


@pytest.fixture(scope="module")
def mixed_trace():
    return generate_mixed_trace(
        http=HttpTraceConfig(sessions=25, seed=7, crud_fraction=0.05),
        dns=DnsTraceConfig(queries=40, seed=7, crud_fraction=0.05),
        ssh=SshTraceConfig(sessions=10, seed=7),
        tftp=TftpTraceConfig(transfers=12, seed=7),
    )


def _outcome(stats, lines, records):
    health = stats["health"]
    return {
        "results": fingerprint(lines),
        "flows": fingerprint(records),
        "injected_faults": health["injected_faults"],
        "site_errors": health["site_errors"],
        "flows_quarantined": health["flows_quarantined"],
        "tier_fallback": health["tier_fallback"],
    }


@pytest.fixture(scope="module")
def sequential(mixed_trace):
    out = {}
    for name, (make, __) in APPS.items():
        injector = FaultInjector(seed=FAULTS["seed"], rates=FAULTS["rates"])
        app = make(PipelineServices(faults=injector))
        stats = Pipeline(app).run(mixed_trace)
        out[name] = _outcome(stats, sorted(app.result_lines()),
                             app.flow_record_lines())
    return out


def test_faults_fire_without_tripping_a_breaker(sequential):
    fired = set()
    for outcome in sequential.values():
        assert outcome["injected_faults"] > 0
        assert outcome["tier_fallback"] is False
        fired.update(site for site, count in outcome["site_errors"].items()
                     if count)
    assert len(fired) >= 4


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("backend", ["vthread", "pool"])
@pytest.mark.parametrize("name", sorted(APPS))
def test_parallel_matches_sequential(mixed_trace, sequential, name,
                                     backend, workers):
    if backend == "pool" and not HAVE_FORK:
        pytest.skip("fork start method unavailable")
    spec = APPS[name][1].configured(faults=FAULTS)
    pipe = ParallelPipeline(spec, workers=workers, backend=backend)
    stats = pipe.run(mixed_trace)
    outcome = _outcome(stats, pipe.result_lines(), pipe.flow_record_lines())
    assert outcome == sequential[name]
