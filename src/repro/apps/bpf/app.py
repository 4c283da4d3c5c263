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
from ...host.demux import FlowDemux, track_only
from ...host.parallel import LaneSpec
from ...net.flowrecord import format_record_uid
from ...runtime.exceptions import HiltiError, PROCESSING_TIMEOUT
from ...runtime.faults import SITE_ANALYZER_DISPATCH
from .compiler import compile_to_hilti, parse_filter
from .vm import compile_to_vm

__all__ = ["BpfApp", "BpfLaneSpec", "ENGINES"]

ENGINES = ("compiled", "interpreted", "vm")


class BpfApp(HostApp):
    """One filter expression evaluated over every trace record."""

    name = "bpf"

    def __init__(self, filter_text: str, engine: str = "compiled",
                 opt_level: Optional[int] = None,
                 services: Optional[PipelineServices] = None):
        if engine not in ENGINES:
            raise ValueError(f"unknown BPF engine {engine!r}")
        super().__init__(services)
        self.filter_text = filter_text
        self.engine = engine
        # The flow layer, with no handler: every TCP/UDP frame is
        # accounted whatever the filter verdict, so the record stream
        # describes the traffic the filter saw, not just what it passed.
        self.demux = FlowDemux(track_only, format_record_uid, self.services)
        if engine == "vm":
            self._program = compile_to_vm(parse_filter(filter_text))
            self._filter = self._ctx = None
        else:
            # Every packet enters Main::filter through its host stub.
            hilti = compile_to_hilti(
                filter_text, tier=engine, opt_level=opt_level)
            self._filter, self._ctx = hilti.stub.call, hilti.ctx
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
        ctx = self._ctx
        budget = self.services.watchdog_budget
        if not budget:
            return bool(self._filter(ctx, frame))
        ctx.arm_watchdog(budget)
        try:
            return bool(self._filter(ctx, frame))
        finally:
            ctx.disarm_watchdog()

    def packet(self, timestamp, frame: bytes) -> None:
        self.demux.feed(timestamp, frame, self.ordinal)
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
        self.demux.finish()

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
        if self._ctx is not None:
            return [("filter", self._ctx)]
        return []

    def gather_metrics(self, metrics) -> None:
        metrics.counter("bpf.accepted").inc(self.accepted)
        metrics.counter("bpf.rejected").inc(self.rejected)
        metrics.counter("bpf.filter_errors").inc(self.errors)

    def result_lines(self) -> List[str]:
        return sorted(self._lines)


class BpfLaneSpec(LaneSpec):
    """Parallel lanes for the filter: stateless per packet, so any flow
    placement yields the identical accepted-line set."""

    app_name = "bpf"

    def make_lane(self) -> BpfApp:
        config = self.config
        return BpfApp(
            config["filter"],
            engine=config["engine"],
            opt_level=config["opt_level"],
            services=self.lane_services(),
        )
