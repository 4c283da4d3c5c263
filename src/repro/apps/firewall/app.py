"""The stateful firewall as a host application over the shared pipeline.

The paper's section 4 exemplar driven end-to-end from raw pcap frames:
each TCP/UDP packet's addresses go through ``match_packet`` (the
compiled Figure 5 HILTI program, its interpreted tier, or the pure
Python reference), and every decision becomes a result line of
``timestamp  src  dst  allow|deny``.

Parallel sharding is by canonical *host pair*, not 5-tuple: the dynamic
rule set is keyed by address pair with an access-refreshed timeout, so
all packets touching a pair's state must serialize on one lane.  With
that placement the merged decisions are byte-identical to a sequential
run — a pair's expiry check compares the current packet's own timestamp
against the pair's last access, and both live entirely on the pair's
lane (trace timestamps are monotone, so each lane's subsequence is
monotone too).
"""

from __future__ import annotations

import time as _time
from typing import Dict, List, Optional, Tuple

from ...core.values import Addr
from ...host.app import HostApp, PipelineServices
from ...host.demux import FlowDemux, track_only
from ...host.parallel import LaneSpec
from ...net.flowrecord import format_record_uid
from ...net.flows import FiveTuple, _fnv1a
from ...runtime.exceptions import HiltiError, PROCESSING_TIMEOUT
from ...runtime.faults import SITE_ANALYZER_DISPATCH
from .compiler import compile_firewall
from .reference import ReferenceFirewall
from .rules import RuleSet

__all__ = ["FirewallApp", "FirewallLaneSpec", "ENGINES",
           "host_pair_key", "host_pair_place"]

ENGINES = ("compiled", "interpreted", "reference")


def host_pair_key(flow: FiveTuple) -> Tuple:
    """The unordered address pair whose dynamic-rule state the packet
    touches — the firewall's state-locality unit."""
    a, b = flow[0], flow[2]  # the endpoints' Addr.value
    return (a, b) if a <= b else (b, a)


def host_pair_place(flow: FiveTuple, vthreads: int) -> int:
    """Deterministic, direction-symmetric lane placement by host pair."""
    a, b = host_pair_key(flow)
    material = Addr.from_value(a).packed() + Addr.from_value(b).packed()
    return _fnv1a(material) % vthreads


class FirewallApp(HostApp):
    """One rule set deciding every TCP/UDP packet of the trace."""

    name = "firewall"

    def __init__(self, ruleset: RuleSet, engine: str = "compiled",
                 opt_level: Optional[int] = None,
                 services: Optional[PipelineServices] = None):
        if engine not in ENGINES:
            raise ValueError(f"unknown firewall engine {engine!r}")
        super().__init__(services)
        self.engine = engine
        # The flow layer, with no handler: every TCP/UDP frame is
        # accounted, whatever the rule verdict.
        self.demux = FlowDemux(track_only, format_record_uid, self.services)
        if engine == "reference":
            self.firewall = ReferenceFirewall(ruleset)
        else:
            self.firewall = compile_firewall(ruleset, tier=engine,
                                             opt_level=opt_level)
        self.allowed = 0
        self.denied = 0
        self.ignored = 0
        self.errors = 0
        self._lines: List[str] = []
        self._parse_ns = 0
        self._match_ns = 0

    # -- evaluation --------------------------------------------------------

    def _match(self, when, src, dst) -> bool:
        ctx = getattr(self.firewall, "ctx", None)
        if ctx is not None and self.services.watchdog_budget:
            ctx.arm_watchdog(self.services.watchdog_budget)
        try:
            return self.firewall.match_packet(when, src, dst)
        finally:
            if ctx is not None:
                ctx.disarm_watchdog()

    def packet(self, timestamp, frame: bytes) -> None:
        health = self.services.health
        begin = _time.perf_counter_ns()
        packet = self.demux.feed(timestamp, frame, self.ordinal)
        self._parse_ns += _time.perf_counter_ns() - begin
        if packet is None:
            # Only TCP/UDP packets are firewalled — exactly the frames
            # the parallel dispatcher can place, so sequential and
            # parallel runs decide the identical packet set.
            self.ignored += 1
            return
        src = Addr.from_value(packet.src)
        dst = Addr.from_value(packet.dst)
        begin = _time.perf_counter_ns()
        try:
            self.services.faults.check(SITE_ANALYZER_DISPATCH)
            verdict = self._match(timestamp, src, dst)
        except HiltiError as error:
            # Fail safe: an erroring match denies the packet.
            health.record_error(SITE_ANALYZER_DISPATCH)
            if error.matches(PROCESSING_TIMEOUT):
                health.watchdog_trips += 1
            self.errors += 1
            verdict = False
        finally:
            self._match_ns += _time.perf_counter_ns() - begin
        action = "allow" if verdict else "deny"
        if verdict:
            self.allowed += 1
        else:
            self.denied += 1
        self._lines.append(
            f"{timestamp.seconds:.6f} {src} {dst} {action}")

    def finish(self) -> None:
        self.demux.finish()

    # -- reporting hooks ---------------------------------------------------

    def cpu_ns(self) -> Dict[str, int]:
        return {"parsing": self._parse_ns, "script": self._match_ns}

    def app_stats(self) -> Dict[str, object]:
        return {
            "allowed": self.allowed,
            "denied": self.denied,
            "ignored": self.ignored,
            "match_errors": self.errors,
            "lookups": self.firewall.lookups,
            "engine": self.engine,
        }

    def engine_contexts(self) -> List[Tuple[str, object]]:
        ctx = getattr(self.firewall, "ctx", None)
        if ctx is not None:
            return [("firewall", ctx)]
        return []

    def gather_metrics(self, metrics) -> None:
        metrics.counter("firewall.allowed").inc(self.allowed)
        metrics.counter("firewall.denied").inc(self.denied)
        metrics.counter("firewall.ignored").inc(self.ignored)
        metrics.counter("firewall.match_errors").inc(self.errors)

    def result_lines(self) -> List[str]:
        return sorted(self._lines)


class FirewallLaneSpec(LaneSpec):
    """Parallel lanes sharded by canonical host pair (see module doc).
    A 5-tuple is a subset of its host pair, so every flow's packets —
    and hence its ledger record — stay wholly on one lane."""

    app_name = "firewall"

    def key_of(self, packet) -> Tuple:
        return host_pair_key(FiveTuple.of(packet))

    def place(self, packet, vthreads: int, workers: int) -> int:
        return host_pair_place(FiveTuple.of(packet), vthreads)

    def make_lane(self) -> FirewallApp:
        config = self.config
        return FirewallApp(
            RuleSet.parse(config["rules"],
                          timeout_seconds=config["timeout_seconds"]),
            engine=config["engine"],
            opt_level=config["opt_level"],
            services=self.lane_services(),
        )
