"""Fault isolation, recovery accounting, and deterministic fault injection.

The paper's section 7 ("Safe Execution Environment") promises that
malformed or adversarial input fails *contained*: a parse may abort with a
typed HILTI exception, but the engine never crashes and unrelated state
stays intact.  This module provides the machinery to *prove* that claim
instead of assuming it:

* a registry of named **injection points** wired into every consumer of
  untrusted input along the pipeline hot path (pcap record decode,
  ethernet/IP parse, TCP reassembly, BinPAC++ parser step, analyzer event
  dispatch, script-engine call);
* a seedable, fully deterministic :class:`FaultInjector` that raises a
  typed ``Hilti::InjectedFault`` at those points with configurable
  per-site rates — the test oracle then checks that the surviving output
  is exactly what the recovery policy predicts;
* a :class:`HealthReport` collecting error-budget counters per site plus
  the recovery activity of one run (``flows_quarantined``,
  ``records_skipped``, ``watchdog_trips``, ``injected_faults``);
* a :class:`CircuitBreaker` implementing graceful degradation: when too
  large a fraction of flows violate under an aggressive configuration,
  the host application falls back to a conservative one for new flows
  instead of dying.

Everything is host-side policy: HILTI itself only guarantees the typed
exceptions; this layer decides what recovery means for the Bro pipeline.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Mapping, Optional

from .exceptions import HiltiError, INJECTED_FAULT, PROCESSING_TIMEOUT

__all__ = [
    "FaultError",
    "FaultInjector",
    "NullInjector",
    "NULL_INJECTOR",
    "HealthReport",
    "CircuitBreaker",
    "register_site",
    "registered_sites",
    "SITE_PCAP_RECORD",
    "SITE_PACKET_PARSE",
    "SITE_TCP_REASSEMBLY",
    "SITE_BINPAC_PARSE",
    "SITE_ANALYZER_DISPATCH",
    "SITE_SCRIPT_CALL",
    "SITE_SERVICE_LANE",
]


# --------------------------------------------------------------------------
# Injection-point registry
# --------------------------------------------------------------------------

SITE_PCAP_RECORD = "pcap.record"
SITE_PACKET_PARSE = "packet.parse"
SITE_TCP_REASSEMBLY = "tcp.reassembly"
SITE_BINPAC_PARSE = "binpac.parse"
SITE_ANALYZER_DISPATCH = "analyzer.dispatch"
SITE_SCRIPT_CALL = "script.call"
SITE_SERVICE_LANE = "service.lane"

# name -> human description; every error-budget report zero-fills from here.
_SITES: Dict[str, str] = {}


def register_site(name: str, description: str) -> str:
    """Register a named injection point; idempotent, returns *name*."""
    _SITES.setdefault(name, description)
    return name


def registered_sites() -> Dict[str, str]:
    """All known injection points (name -> description)."""
    return dict(_SITES)


register_site(SITE_PCAP_RECORD, "pcap trace record decode")
register_site(SITE_PACKET_PARSE, "ethernet/IP/transport header parse")
register_site(SITE_TCP_REASSEMBLY, "TCP stream reassembly step")
register_site(SITE_BINPAC_PARSE, "BinPAC++ generated-parser step")
register_site(SITE_ANALYZER_DISPATCH, "per-flow analyzer data dispatch")
register_site(SITE_SCRIPT_CALL, "script-engine event dispatch")
register_site(SITE_SERVICE_LANE, "service-mode lane worker loop")


# --------------------------------------------------------------------------
# Fault injection
# --------------------------------------------------------------------------


class FaultError(HiltiError):
    """A deliberately injected fault (``Hilti::InjectedFault``).

    Recovery code treats it like any organic HILTI exception — that is the
    point: injected faults must travel the same containment paths.
    """

    def __init__(self, site: str):
        super().__init__(INJECTED_FAULT, f"injected fault at {site}")
        self.site = site


class FaultInjector:
    """Seedable, deterministic fault source for the registered sites.

    Each site draws from its own ``random.Random`` stream seeded with
    ``(seed, site)``, so the fault schedule of one site never shifts when
    another site's rate changes — runs are reproducible per site.
    """

    def __init__(self, seed: int = 0,
                 rates: Optional[Mapping[str, float]] = None,
                 default_rate: float = 0.0):
        self.seed = seed
        self.rates: Dict[str, float] = dict(rates or {})
        self.default_rate = default_rate
        self.injected: Dict[str, int] = {}
        self.checks: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {}

    @classmethod
    def everywhere(cls, seed: int = 0, rate: float = 0.05) -> "FaultInjector":
        """An injector firing at *rate* on every registered site."""
        return cls(seed=seed, rates={site: rate for site in _SITES})

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def rate_for(self, site: str) -> float:
        return self.rates.get(site, self.default_rate)

    def check(self, site: str) -> None:
        """One pass through injection point *site*; may raise FaultError."""
        rate = self.rates.get(site, self.default_rate)
        if rate <= 0.0:
            return
        self.checks[site] = self.checks.get(site, 0) + 1
        rng = self._rngs.get(site)
        if rng is None:
            rng = self._rngs[site] = random.Random(f"{self.seed}:{site}")
        if rng.random() < rate:
            self.injected[site] = self.injected.get(site, 0) + 1
            raise FaultError(site)


class NullInjector:
    """The disabled injector: ``check`` is a no-op on the hot path."""

    seed = None
    rates: Dict[str, float] = {}
    injected: Dict[str, int] = {}
    total_injected = 0

    def check(self, site: str) -> None:
        return

    def rate_for(self, site: str) -> float:
        return 0.0


NULL_INJECTOR = NullInjector()


# --------------------------------------------------------------------------
# Recovery accounting
# --------------------------------------------------------------------------


class CircuitBreaker:
    """Degrade gracefully when too many flows violate.

    Counts flows handed to analyzers and flows whose analyzer violated.
    Once at least *min_flows* have been seen and the violating fraction
    exceeds *threshold*, the breaker trips; the host application checks
    :attr:`tripped` when creating analyzers for new flows and falls back
    to its conservative tier.
    """

    def __init__(self, threshold: float = 0.25, min_flows: int = 8):
        self.threshold = threshold
        self.min_flows = min_flows
        self.flows = 0
        self.violations = 0
        self.tripped = False

    def record_flow(self) -> None:
        self.flows += 1

    def record_violation(self) -> None:
        self.violations += 1
        if (not self.tripped and self.flows >= self.min_flows
                and self.violations / self.flows > self.threshold):
            self.tripped = True

    def as_dict(self) -> Dict[str, object]:
        return {
            "flows": self.flows,
            "violations": self.violations,
            "threshold": self.threshold,
            "tripped": self.tripped,
        }


class HealthReport:
    """Error-budget counters and recovery activity of one pipeline run."""

    def __init__(self, breaker: Optional[CircuitBreaker] = None):
        self.flows_quarantined = 0
        self.records_skipped = 0
        self.watchdog_trips = 0
        self.tier_fallbacks = 0
        self.site_errors: Dict[str, int] = {}
        self.breaker = breaker if breaker is not None else CircuitBreaker()

    def record_error(self, site: str) -> None:
        """Count one contained error observed at injection point *site*."""
        self.site_errors[site] = self.site_errors.get(site, 0) + 1

    def errors_at(self, site: str) -> int:
        return self.site_errors.get(site, 0)

    @property
    def total_errors(self) -> int:
        return sum(self.site_errors.values())

    def as_dict(self, injector=None) -> Dict[str, object]:
        """The health report surfaced through ``Bro.stats``.

        Per-site error counts are zero-filled across every registered
        site so a clean run reports an explicit zero per site.
        """
        injector = injector if injector is not None else NULL_INJECTOR
        sites = {site: 0 for site in _SITES}
        sites.update(self.site_errors)
        return {
            "flows_quarantined": self.flows_quarantined,
            "records_skipped": self.records_skipped,
            "watchdog_trips": self.watchdog_trips,
            "injected_faults": injector.total_injected,
            "tier_fallback": self.breaker.tripped,
            "breaker": self.breaker.as_dict(),
            "site_errors": sites,
        }


def classify(error: HiltiError) -> str:
    """Coarse classification of a contained error for weird-style logs."""
    if error.matches(INJECTED_FAULT):
        return "injected_fault"
    if error.matches(PROCESSING_TIMEOUT):
        return "watchdog_timeout"
    return "analyzer_violation"
