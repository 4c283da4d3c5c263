"""Flow-parallel drive of the Bro pipeline on the vthread scheduler.

The paper's concurrency model (section 3.2) made executable end-to-end:
every connection's 5-tuple hashes to a virtual thread, all analysis for
that flow — connection state, stream reassembly, protocol parsing, event
dispatch, log writes — runs serialized on that vthread's private lane,
and no lane ever touches another lane's state, so the pipeline needs no
program-level locks.  The driver — dispatch plan, the ``vthread`` and
``pool`` backends, the ordered merge and the report writers — is the
generic :class:`~repro.host.parallel.ParallelPipeline`; this module
keeps only what is Bro's: the lane spec (lane factory, per-stream log
harvest, the de-duplication of the per-lane lifecycle events so totals
match the sequential pipeline's single bro_init/bro_done) and the
per-stream log accessors.

Output determinism is the load-bearing property (the P4Testgen-style
differential oracle of ``tests/integration/test_parallel_pipeline.py``):
a connection's uid names the ordinal of its opening packet, which every
lane computes alike, per-flow log lines are byte-identical to the
sequential pipeline's, and the ordered merge (lexicographic sort — every line
carries ts+uid) makes the merged logs independent of worker
interleaving.  See ``docs/PARALLELISM.md`` for the full design,
including the small, documented divergences.
"""

from __future__ import annotations

import io
from typing import Dict, Iterable, List, Optional, Tuple

from ...core.values import Time
from ...host.parallel import (
    LaneSpec,
    ParallelPipeline,
    dispatch_plan as _host_dispatch_plan,
    flow_key,
    lane_payload,
)
from ...runtime.telemetry import Telemetry
from .logging import LogManager
from .main import Bro

__all__ = ["BroLaneSpec", "ParallelBro", "dispatch_plan", "flow_key",
           "LIFECYCLE_EVENTS", "merge_logs"]

#: Events every lane raises once; the merge de-duplicates their counts so
#: totals match the sequential pipeline's single bro_init/bro_done.
LIFECYCLE_EVENTS = ("bro_init", "bro_done")


class BroLaneSpec(LaneSpec):
    """Bro's lane description: 5-tuple sharding (the generic default),
    lanes built from the picklable constructor config."""

    app_name = "bro"
    max_gauges = ("bro.flows_peak", "bro.flows_open")

    def make_lane(self) -> Bro:
        config = self.config
        services = self.lane_services()
        return Bro(
            scripts=config["scripts"],
            parsers=config["parsers"],
            scripts_engine=config["scripts_engine"],
            log_enabled=config["log_enabled"],
            print_stream=io.StringIO(),
            fault_injector=services.faults,
            watchdog_budget=services.watchdog_budget,
            opt_level=config["opt_level"],
            telemetry=services.telemetry,
            max_sessions=services.max_sessions,
            session_ttl=services.session_ttl,
        )

    def lane_result(self, bro: Bro) -> Dict:
        """The generic payload plus the per-stream logs (columns, lines,
        write count), per-event counts and script ``print`` output."""
        result = lane_payload(bro)
        result["stats"]["event_counts"] = dict(bro.core.event_counts)
        result["logs"] = {
            name: (stream.columns, stream.lines, stream.writes)
            for name, stream in bro.core.logs.streams.items()
        }
        result["prints"] = bro.core.print_stream.getvalue()
        return result

    def result_lines_of(self, result: Dict) -> List[str]:
        """Every stream's lines as one mergeable stream — the shape
        ``Bro.result_lines`` gives, so sequential, parallel and both
        service transports fingerprint identically."""
        return [line for __, lines, __ in result["logs"].values()
                for line in lines]

    def dedup_lanes(self, stats: Dict, metrics, lanes: int) -> None:
        """Every lane dispatches bro_init/bro_done once; a sequential run
        does so once in total.  Only the unlabeled aggregate series are
        repaired — the ``worker``-labeled copies keep each lane's raw
        counts."""
        dup = lanes - 1
        if dup <= 0:
            return
        stats["events"] -= len(LIFECYCLE_EVENTS) * dup
        counts = stats.get("event_counts", {})
        for name in LIFECYCLE_EVENTS:
            if name in counts:
                counts[name] -= dup
        if metrics is None:
            return
        for name in LIFECYCLE_EVENTS:
            series = metrics._series.get(
                ("bro.events_by_name", (("event", name),)))
            if series is not None:
                series.value -= dup
        for name in ("bro.events_queued", "bro.events_dispatched"):
            series = metrics._series.get((name, ()))
            if series is not None:
                series.value -= len(LIFECYCLE_EVENTS) * dup


def merge_logs(results: List[Dict]) -> LogManager:
    """The lanes' per-stream logs as one :class:`LogManager`: lines
    sorted (every line leads with ts and carries its flow's uid, so the
    order is a pure function of content), writes summed."""
    logs = LogManager()
    for result in results:
        for name, (columns, lines, writes) in result["logs"].items():
            stream = logs.streams.get(name)
            if stream is None:
                stream = logs.create_stream(name, columns)
            stream.lines.extend(lines)
            stream.writes += writes
    for stream in logs.streams.values():
        stream.lines.sort()
    return logs


def dispatch_plan(
    packets: Iterable[Tuple[Time, bytes]], vthreads: int, workers: int,
) -> Tuple[List[Tuple[int, int, bytes]], Dict[Tuple, int]]:
    """One pass over the trace: per-packet vthread placement, and each
    flow key's vthread (the generic plan under Bro's spec)."""
    return _host_dispatch_plan(packets, vthreads, workers,
                               spec=BroLaneSpec())


class ParallelBro(ParallelPipeline):
    """A flow-parallel Bro run: same analysis, N isolated lanes.

    The constructor mirrors :class:`Bro` for the picklable subset of its
    configuration, plus :class:`ParallelPipeline`'s knobs (*workers*,
    *vthreads*, *backend* ``pool``/``vthread``, *start_method*).
    """

    def __init__(
        self,
        scripts: Optional[List[str]] = None,
        parsers: str = "std",
        scripts_engine: str = "interp",
        workers: int = 4,
        vthreads: Optional[int] = None,
        backend: str = "pool",
        log_enabled: bool = True,
        watchdog_budget: Optional[int] = None,
        opt_level: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        start_method: Optional[str] = None,
    ):
        telemetry = telemetry if telemetry is not None else Telemetry()
        spec = BroLaneSpec({
            "scripts": scripts,
            "parsers": parsers,
            "scripts_engine": scripts_engine,
            "log_enabled": log_enabled,
            "watchdog_budget": watchdog_budget,
            "opt_level": opt_level,
            "metrics": telemetry.enabled,
            "trace": telemetry.tracer.enabled,
        })
        super().__init__(spec, workers=workers, vthreads=vthreads,
                         backend=backend, telemetry=telemetry,
                         start_method=start_method)

    def log_lines(self, stream: str) -> List[str]:
        """The deterministically merged lines of one log stream."""
        return merge_logs(self.lane_results).lines(stream)

    def save_logs(self, directory: str) -> None:
        """Write the merged logs in the sequential pipeline's format."""
        merge_logs(self.lane_results).save(directory)

    def print_lines(self) -> List[str]:
        """Merged per-lane script ``print`` output (sorted)."""
        return sorted(line for result in self.lane_results
                      for line in result["prints"].splitlines())

    def log_writes(self) -> Dict[str, int]:
        return {name: stream.writes for name, stream
                in merge_logs(self.lane_results).streams.items()}
