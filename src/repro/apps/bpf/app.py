"""The BPF filter as a host application over the shared pipeline.

The paper's simplest exemplar (section 4 "Berkeley Packet Filter"),
driven end-to-end: a filter expression compiles to either HILTI (the
compiled or interpreted tier) or the classic BPF virtual machine, and
every trace record is evaluated against it.  Accepted packets become
result lines of ``timestamp  sha1(frame)`` — a content-determined
stream, so the parallel merge is byte-identical to the sequential run
for any lane placement.

Error containment is fail-safe in the reject direction: a HILTI
exception while evaluating a packet (an injected fault, a watchdog
timeout) drops that packet and counts the error — a filter that fails
open would pass unfiltered traffic.
"""

from __future__ import annotations

import hashlib
import time as _time
from typing import Dict, List, Optional, Tuple

from ...host.app import HostApp, PipelineServices
from ...host.flowtable import FlowTable
from ...host.parallel import LaneSpec
from ...net.flowrecord import format_record_uid
from ...net.flows import decode_flow
from ...runtime.exceptions import HiltiError, PROCESSING_TIMEOUT
from ...runtime.faults import SITE_ANALYZER_DISPATCH
from ...runtime.telemetry import Telemetry
from .compiler import compile_to_hilti, parse_filter
from .vm import compile_to_vm

__all__ = ["BpfApp", "BpfLaneSpec", "ENGINES"]

ENGINES = ("compiled", "interpreted", "vm")


class BpfApp(HostApp):
    """One filter expression evaluated over every trace record."""

    name = "bpf"

    def __init__(self, filter_text: str, engine: str = "compiled",
                 opt_level: Optional[int] = None,
                 services: Optional[PipelineServices] = None,
                 uid_map: Optional[Dict] = None):
        if engine not in ENGINES:
            raise ValueError(f"unknown BPF engine {engine!r}")
        super().__init__(services)
        self.filter_text = filter_text
        self.engine = engine
        # The flow ledger: every TCP/UDP frame is accounted regardless
        # of the filter verdict, so the record stream describes the
        # traffic the filter saw, not just what it passed.
        self.flows = FlowTable(uid_map=uid_map, uid_format=format_record_uid)
        if engine == "vm":
            self._program = compile_to_vm(parse_filter(filter_text))
            self._filter = None
        else:
            self._filter = compile_to_hilti(
                filter_text, tier=engine, opt_level=opt_level)
            self._program = None
        self.accepted = 0
        self.rejected = 0
        self.errors = 0
        self._lines: List[str] = []
        self._eval_ns = 0

    # -- evaluation --------------------------------------------------------

    def _evaluate(self, frame: bytes) -> bool:
        if self._program is not None:
            return bool(self._program.run(frame))
        budget = self.services.watchdog_budget
        if not budget:
            return bool(self._filter(frame))
        ctx = self._filter.ctx
        ctx.arm_watchdog(budget)
        try:
            return bool(self._filter(frame))
        finally:
            ctx.disarm_watchdog()

    def packet(self, timestamp, frame: bytes) -> None:
        packet = decode_flow(frame)
        if packet is not None:
            self.flows.account(packet, timestamp.seconds,
                               packet.payload_len, packet.flags)
        health = self.services.health
        begin = _time.perf_counter_ns()
        try:
            self.services.faults.check(SITE_ANALYZER_DISPATCH)
            verdict = self._evaluate(frame)
        except HiltiError as error:
            # Fail safe: an erroring filter rejects the packet.
            health.record_error(SITE_ANALYZER_DISPATCH)
            if error.matches(PROCESSING_TIMEOUT):
                health.watchdog_trips += 1
            self.errors += 1
            verdict = False
        finally:
            self._eval_ns += _time.perf_counter_ns() - begin
        if verdict:
            self.accepted += 1
            digest = hashlib.sha1(frame).hexdigest()[:16]
            self._lines.append(f"{timestamp.seconds:.6f} {digest}")
        else:
            self.rejected += 1

    def finish(self) -> None:
        self.flows.finish()

    # -- reporting hooks ---------------------------------------------------

    def cpu_ns(self) -> Dict[str, int]:
        return {"script": self._eval_ns}

    def app_stats(self) -> Dict[str, object]:
        return {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "filter_errors": self.errors,
            "engine": self.engine,
        }

    def engine_contexts(self) -> List[Tuple[str, object]]:
        if self._filter is not None:
            return [("filter", self._filter.ctx)]
        return []

    def gather_metrics(self, metrics) -> None:
        metrics.counter("bpf.accepted").inc(self.accepted)
        metrics.counter("bpf.rejected").inc(self.rejected)
        metrics.counter("bpf.filter_errors").inc(self.errors)

    def result_lines(self) -> List[str]:
        return sorted(self._lines)

    def flow_record_lines(self) -> List[str]:
        return self.flows.record_lines()


class BpfLaneSpec(LaneSpec):
    """Parallel lanes for the filter: stateless per packet, so any flow
    placement yields the identical accepted-line set."""

    app_name = "bpf"
    record_uid_format = staticmethod(format_record_uid)

    def __init__(self, config: Optional[Dict] = None):
        self.config = config

    def make_lane(self, uid_map: Dict) -> BpfApp:
        config = self.config
        return BpfApp(
            config["filter"],
            engine=config["engine"],
            opt_level=config["opt_level"],
            services=PipelineServices(
                watchdog_budget=config["watchdog_budget"],
                telemetry=Telemetry(metrics=config["metrics"],
                                    trace=config["trace"]),
            ),
            uid_map=uid_map,
        )
