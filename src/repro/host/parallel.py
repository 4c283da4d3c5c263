"""Flow-parallel drive of any :class:`HostApp` on the vthread scheduler.

The paper's concurrency model (section 3.2), generalized from the Bro
exemplar to the whole substrate: packets hash to virtual threads, each
vthread's lane runs one isolated app instance, and no lane touches
another lane's state.  Two drive backends execute the same dispatch
plan:

* ``vthread`` — the deterministic differential oracle
  (``Scheduler.run_until_idle`` on one OS thread);
* ``pool`` — real parallelism, and the default: the persistent
  shared-memory worker pool (:mod:`repro.host.pool`), whose workers
  spawn once and stay hot across runs while packets travel as
  length-prefixed batches through SPSC rings.

What varies per application lives in a picklable :class:`LaneSpec`: how
to build a lane (``make_lane``), how to harvest it (``lane_result`` /
``result_lines_of``), how packets map to flows and vthreads
(``flow_of`` / ``key_of`` / ``place`` — the firewall shards by host
*pair* instead of 5-tuple so its dynamic-rule state stays lane-local),
and what the merge must repair for the app (``max_gauges``,
``dedup_lanes``).  Uids need no spec: each packet carries its ordinal
into its lane, and a flow is named after the ordinal of the packet that
opened it (docs/FLOWS.md), which every lane computes alike.

Output determinism is the load-bearing property: merged result lines are
sorted lexicographically, so the merge is a pure function of content,
never of worker interleaving — byte-identical to the sequential
pipeline.  See ``docs/PARALLELISM.md``.
"""

from __future__ import annotations

import copy as _copy
import functools as _functools
import os as _os
import time as _time
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.values import Time
from ..net.flows import FiveTuple, decode_flow, vthread_of
from ..runtime.faults import NULL_INJECTOR, injector_for
from ..runtime.telemetry import Telemetry
from ..runtime.threads import Scheduler
from .app import PipelineServices, cpu_stats, export_cpu_gauges

__all__ = [
    "LaneSpec",
    "ParallelPipeline",
    "dispatch_plan",
    "dispatch_stream",
    "flow_key",
    "lane_payload",
    "merge_health",
    "prof_snapshots",
]

_BACKENDS = ("vthread", "pool")

#: Gauges whose lane-merge takes the max instead of the sum, for every
#: app (a spec's ``max_gauges`` extend this).
_MAX_GAUGES = ("health.breaker_tripped",)

#: The session bounds a lane config may carry (absent keys: unbounded).
_SESSION_BOUNDS = ("max_sessions", "session_ttl", "memory_budget_bytes")


def flow_key(flow) -> Tuple:
    """The canonical per-connection key of a :class:`FiveTuple` or a
    decoded packet: a tuple of ints (value-hashed in C, picklable, the
    same in every process).  The dispatcher and the lanes' flow tables
    use exactly this key, so a flow's packets meet on one lane in every
    process."""
    return flow.key


def lane_payload(app) -> Dict:
    """The app-independent part of a lane result, as plain (picklable)
    data: the flow ledger, the stats report, and — when telemetry is
    armed — the registry, profiler dumps and span-tree lines."""
    telemetry = app.telemetry
    tracer = telemetry.tracer
    return {
        "flow_records": app.flow_record_lines(),
        "stats": dict(app.stats),
        "sessions": app.session_stats(),
        "metrics": (telemetry.metrics.collect()
                    if telemetry.enabled else None),
        "prof": prof_snapshots(app) if telemetry.enabled else None,
        "trace_lines": tracer.lines() if tracer.enabled else None,
    }


class LaneSpec:
    """Picklable description of one application's parallel lanes; app
    specs build their lanes from the plain-data *config*."""

    #: Metrics namespace of the app (used by the generic merge to repair
    #: the per-component CPU gauges after summing lanes).
    app_name = "app"

    #: The app's high-water-mark gauges: merged by max across lanes.
    max_gauges: Tuple[str, ...] = ()

    def __init__(self, config: Optional[Dict] = None):
        self.config = config

    # -- flow placement (the Bro defaults; apps may reshard) --------------

    def flow_of(self, frame: bytes):
        """The frame's decoded TCP/UDP packet
        (:class:`~repro.net.packet.Decoded`), or ``None`` for stray
        frames (lane 0)."""
        return decode_flow(frame)

    def key_of(self, packet) -> Tuple:
        """The state-locality key lanes shard by."""
        return packet.key

    def place(self, packet, vthreads: int, workers: int) -> int:
        """First-sight placement: the flow's vthread id."""
        return vthread_of(FiveTuple.of(packet), vthreads)

    # -- lane lifecycle ---------------------------------------------------

    def make_lane(self):
        """Build one isolated app instance (a :class:`HostApp`)."""
        raise NotImplementedError

    def fault_injector(self):
        """The fault injector the config's ``faults`` entry
        (``{"seed", "rates"}``) describes; the null one when absent."""
        return injector_for((self.config or {}).get("faults"))

    def lane_services(self) -> PipelineServices:
        """The services one lane runs with, from the config: fault
        injector, watchdog budget, telemetry switches and session
        bounds."""
        config = self.config
        return PipelineServices(
            faults=self.fault_injector(),
            watchdog_budget=config["watchdog_budget"],
            telemetry=Telemetry(metrics=config["metrics"],
                                trace=config["trace"]),
            **{key: config.get(key) for key in _SESSION_BOUNDS})

    def configured(self, **entries) -> "LaneSpec":
        """A copy whose config also carries *entries* — how drivers
        hand a fault config (``faults``) and session bounds
        (``max_sessions`` / ``session_ttl`` / ``memory_budget_bytes``)
        to lanes they do not build themselves."""
        spec = _copy.copy(self)
        spec.config = dict(self.config or {}, **entries)
        return spec

    def lane_result(self, app) -> Dict:
        """Everything the merge needs from one finished lane, as plain
        data (pool workers pickle it back through their rings)."""
        result = lane_payload(app)
        result["lines"] = app.result_lines()
        return result

    def result_lines_of(self, result: Dict) -> List[str]:
        """The mergeable output lines inside one :meth:`lane_result`
        payload.  The default reads the generic ``lines`` key; apps
        with richer payloads (Bro's per-stream logs) override this so
        the generic harvesters — the merge and the service's pool
        lanes — need no app-specific knowledge."""
        return list(result["lines"])

    def flow_record_lines_of(self, result: Dict) -> List[str]:
        """The lane's sealed flow-record lines inside one
        :meth:`lane_result` payload."""
        return list(result.get("flow_records") or [])

    def dedup_lanes(self, stats: Dict, metrics, lanes: int) -> None:
        """Undo, in the merged *stats* and aggregate *metrics* (``None``
        when telemetry is off), work every lane did once that a
        sequential run does once in total.  The default has none."""


#: One planned packet: ``(vid, nanos, frame)``.  A packet's ordinal is
#: its position in the stream.
PlannedPacket = Tuple[int, int, bytes]


def dispatch_stream(
    packets: Iterable[Tuple[Time, bytes]], vthreads: int, workers: int,
    spec: Optional[LaneSpec] = None, vids: Optional[Dict] = None,
) -> Iterator[PlannedPacket]:
    """The dispatch plan as a stream: each packet's vthread, one packet
    at a time.

    Frames with no flow ride on vthread 0, where the lane counts them
    exactly like the sequential pipeline.  With faults armed, a frame
    the packet-level draws drop rides on vthread 0 too, whose lane draws
    the same verdict and counts it.  A flow is placed once, at its first
    packet, and *vids* (a fresh dict unless given) caches that placement
    per flow key — cheaper than placing every packet.  The stream never
    holds the trace.
    """
    spec = spec if spec is not None else LaneSpec()
    faults = spec.fault_injector()
    armed = faults is not NULL_INJECTOR
    vids = vids if vids is not None else {}
    for timestamp, frame in packets:
        nanos = timestamp.nanos
        packet = spec.flow_of(frame)
        if packet is None or (armed and faults.enter_packet(
                nanos, frame) is not None):
            yield 0, nanos, frame
            continue
        key = spec.key_of(packet)
        vid = vids.get(key)
        if vid is None:
            vid = vids[key] = spec.place(packet, vthreads, workers)
        yield vid, nanos, frame


def dispatch_plan(
    packets: Iterable[Tuple[Time, bytes]], vthreads: int, workers: int,
    spec: Optional[LaneSpec] = None,
) -> Tuple[List[PlannedPacket], Dict[Tuple, int]]:
    """:func:`dispatch_stream` collected: ``(jobs, vids)`` where *jobs*
    is ``(vid, nanos, frame)`` per packet and *vids* each flow key's
    vthread."""
    vids: Dict[Tuple, int] = {}
    jobs = list(dispatch_stream(packets, vthreads, workers, spec, vids))
    return jobs, vids


def prof_snapshots(app) -> List[Tuple[str, str]]:
    """Render every engine context's profiler dump to text, labeled —
    the picklable form a lane result carries so parents can assemble a
    per-worker ``prof.log`` without shipping live contexts across the
    process boundary."""
    import io as _io

    out: List[Tuple[str, str]] = []
    for label, ctx in app.engine_contexts():
        buf = _io.StringIO()
        ctx.profilers.dump(buf)
        out.append((label, buf.getvalue()))
    return out


def merge_health(reports: List[Dict]) -> Dict:
    """Reduce per-lane HealthReport dicts into one."""
    merged = {
        "flows_quarantined": 0,
        "records_skipped": 0,
        "watchdog_trips": 0,
        "injected_faults": 0,
        "tier_fallback": False,
        "breaker": {"flows": 0, "violations": 0,
                    "threshold": None, "tripped": False},
        "site_errors": {},
    }
    for report in reports:
        for key in ("flows_quarantined", "records_skipped",
                    "watchdog_trips", "injected_faults"):
            merged[key] += report[key]
        merged["tier_fallback"] = (
            merged["tier_fallback"] or report["tier_fallback"])
        breaker = report["breaker"]
        merged["breaker"]["flows"] += breaker["flows"]
        merged["breaker"]["violations"] += breaker["violations"]
        if merged["breaker"]["threshold"] is None:
            merged["breaker"]["threshold"] = breaker["threshold"]
        merged["breaker"]["tripped"] = (
            merged["breaker"]["tripped"] or breaker["tripped"])
        for site, count in report["site_errors"].items():
            merged["site_errors"][site] = (
                merged["site_errors"].get(site, 0) + count)
    return merged


# --------------------------------------------------------------------------
# Lanes: one isolated app instance per vthread
# --------------------------------------------------------------------------


class _LaneProgram:
    """Adapts per-flow packet analysis to the scheduler's program
    interface: contexts are app lanes, jobs are packets."""

    def __init__(self, spec: LaneSpec):
        self._spec = spec
        self._armed = spec.fault_injector() is not NULL_INJECTOR

    def make_context(self, vthread_id: int):
        lane = self._spec.make_lane()
        lane.on_begin()
        return lane

    def init_context(self, lane) -> None:
        pass

    def call(self, lane, function: str, args: List) -> None:
        if function != "packet":
            raise ValueError(f"unknown lane job {function!r}")
        nanos, frame, ordinal = args
        lane.ordinal = ordinal
        if not self._armed or lane.services.admit_to_lane(nanos, frame):
            lane.on_packet(Time.from_nanos(nanos), frame)


# --------------------------------------------------------------------------
# The parallel driver
# --------------------------------------------------------------------------


class ParallelPipeline:
    """A flow-parallel run of one app: same analysis, N isolated lanes.

    *workers* is the hardware parallelism, *vthreads* the virtual-thread
    supply (defaults to ``4 * workers``), *backend* ``pool`` (the
    default) or ``vthread``.  A ``faults`` entry in the spec's config
    arms every lane's injector and the dispatch plan's packet-level
    draws; the verdicts are keyed by packet, so they match the
    sequential run's.

    *start_method* overrides the pool's multiprocessing start method
    (default: ``fork`` where the platform has it, else ``spawn``);
    *join_timeout* bounds how long a run waits for ring space or for any
    worker's result before declaring it lost — a worker killed mid-run
    is detected, its unretired packets are counted in
    :attr:`jobs_lost`, and the run raises
    :class:`~repro.host.pool.PoolError` instead of hanging.
    """

    def __init__(
        self,
        spec: LaneSpec,
        workers: int = 4,
        vthreads: Optional[int] = None,
        backend: str = "pool",
        telemetry: Optional[Telemetry] = None,
        start_method: Optional[str] = None,
        join_timeout: float = 60.0,
    ):
        if backend not in _BACKENDS:
            raise ValueError(f"unknown parallel backend {backend!r}")
        if workers < 1:
            raise ValueError("parallel pipeline needs at least one worker")
        self.spec = spec
        self.workers = workers
        self.vthreads = vthreads if vthreads is not None else 4 * workers
        if self.vthreads < workers:
            raise ValueError("vthreads must be >= workers")
        self.backend = backend
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.start_method = start_method
        self.join_timeout = join_timeout
        self.stats: Dict[str, object] = {}
        self.scheduler: Optional[Scheduler] = None
        #: Packets handed to workers that died before retiring them
        #: (conservation diagnostic populated when a run fails).
        self.jobs_lost = 0
        #: The last run's per-lane :meth:`LaneSpec.lane_result` payloads.
        self.lane_results: List[Dict] = []
        self._lines: List[str] = []
        self._flow_records: List[str] = []
        self._trace_lines: List[str] = []
        self._pcap_stats: Dict[str, int] = {}

    # -- running ------------------------------------------------------------

    def run(self, packets: Iterable[Tuple[Time, bytes]]) -> Dict:
        """Process a trace across all lanes; returns the merged stats."""
        begin = _time.perf_counter_ns()
        self._pcap_stats = {}
        self._drive(packets)
        self._merge(_time.perf_counter_ns() - begin)
        return self.stats

    def run_pcap(self, path: str, tolerant: bool = False) -> Dict:
        """Drive the lanes from a pcap trace, read as the run goes."""
        from ..net.pcap import PcapReader

        begin = _time.perf_counter_ns()
        with PcapReader(path, tolerant=tolerant) as reader:
            self._drive(reader)
            self._pcap_stats = {
                "records_read": reader.packets_read,
                "records_skipped": reader.records_skipped,
                "resyncs": reader.resyncs,
            }
        self._merge(_time.perf_counter_ns() - begin)
        return self.stats

    def _drive(self, packets: Iterable[Tuple[Time, bytes]]) -> None:
        stream = dispatch_stream(packets, self.vthreads, self.workers,
                                 spec=self.spec)
        if self.backend == "pool":
            self._run_pool(stream)
        else:
            self._run_scheduler(stream)

    def _run_scheduler(self, stream: Iterable[PlannedPacket]) -> None:
        """The oracle backend: packet jobs on the vthread scheduler."""
        program = _LaneProgram(self.spec)
        scheduler = Scheduler(program, workers=self.workers)
        # Lane 0 always exists: it owns stray frames and guarantees any
        # per-lane lifecycle work runs at least once on an empty trace.
        scheduler.context_for(0)
        for ordinal, (vid, nanos, frame) in enumerate(stream):
            scheduler.schedule(vid, "packet", (nanos, frame, ordinal))
        scheduler.run_until_idle()
        self.scheduler = scheduler
        contexts = scheduler.contexts()
        results = []
        for vid in sorted(contexts):
            lane = contexts[vid]
            lane.on_end()
            results.append(self.spec.lane_result(lane))
        self.lane_results = results

    def _run_pool(self, stream: Iterable[PlannedPacket]) -> None:
        """The persistent shared-memory pool backend, fed as the plan
        streams: each packet joins its worker's batch (the scheduler's
        ``vid % workers`` rule) the moment it is placed, with its
        ordinal, so the parent holds at most one unflushed batch
        per worker — never the trace.  BEGIN goes out before the first
        packet is read.  A worker that fails, dies or stalls stops being
        fed; every packet it never retired counts in :attr:`jobs_lost`.
        """
        from .pool import PoolError, WorkerPool

        workers, timeout = self.workers, self.join_timeout
        pool = WorkerPool.shared(workers, start_method=self.start_method)
        pool.begin_run(self.spec)
        stops = [_functools.partial(pool.down, index)
                 for index in range(workers)]
        unfed: Dict[int, int] = {}  # worker gone -> packets it never got
        for ordinal, (vid, nanos, frame) in enumerate(stream):
            index = vid % workers
            if index in unfed:
                unfed[index] += 1
            elif not pool.feed(index, nanos, frame, ordinal,
                               wait=timeout, should_stop=stops[index]):
                unfed[index] = 1
            elif pool.buffered(index) == 1 and pool.down(index):
                # A batch just went out: its replies drain here, and a
                # failed or dead worker is fed no more.
                unfed[index] = 0

        results: List[Dict] = []
        failures: List[str] = []
        lost = sum(unfed.values())
        # Every END goes out before the first collect, so lanes finish
        # side by side.
        for index in range(workers):
            if index not in unfed:
                pool.finish(index, timeout=timeout,
                            should_stop=stops[index])
        for index in range(workers):
            try:
                results.append(pool.collect(index, timeout))
            except PoolError as error:
                failures.extend(error.failures)
                lost += error.jobs_lost
        for index in range(workers):
            if not pool.alive(index):
                pool.respawn(index)
        if failures:
            self.jobs_lost = lost
            raise PoolError(
                "parallel pool workers failed: " + "; ".join(failures)
                + f" ({lost} packets lost — conservation broken)",
                failures, jobs_lost=lost)
        self.lane_results = results

    # -- the ordered merge --------------------------------------------------

    def _merge(self, total_ns: int) -> None:
        """Reduce per-lane results into one deterministic report: result
        lines merge by lexicographic sort, integer stats (and dicts of
        them) sum, the health reports reduce, per-lane metric registries
        merge, and the spec undoes per-lane duplicated work."""
        spec = self.spec
        results = self.lane_results
        lanes = len(results)

        self._lines = sorted(line for result in results
                             for line in spec.result_lines_of(result))
        # Flow records merge exactly like result lines: each sealed flow
        # is wholly one lane's, so the sorted union is byte-identical to
        # the sequential ledger's sorted stream.
        self._flow_records = sorted(
            line for result in results
            for line in spec.flow_record_lines_of(result))

        def stat_sum(key):
            return sum(int(r["stats"].get(key, 0)) for r in results)

        self.stats = {
            "app": spec.app_name,
            **cpu_stats(total_ns, {
                component: stat_sum(f"{component}_ns")
                for component in ("parsing", "script", "glue")}),
            "packets": stat_sum("packets"),
            "health": merge_health(
                [r["stats"]["health"] for r in results]),
            "backend": self.backend,
            "workers": self.workers,
            "vthreads": self.vthreads,
            "lanes": lanes,
            "scheduler_errors": (
                len(self.scheduler.errors) if self.scheduler else 0
            ),
        }
        # The reader's skipped records are the parent's: no lane saw
        # them.  Counted before the metrics merge exports the report.
        skipped = self._pcap_stats.get("records_skipped", 0)
        self.stats["health"]["records_skipped"] += skipped
        # Application counters sum across lanes — integers, and dicts of
        # integers per key; other entries pass through from lane 0.
        fixed = set(self.stats)
        for result in results:
            for key, value in result["stats"].items():
                if key in fixed:
                    continue
                if isinstance(value, dict):
                    counts = self.stats.setdefault(key, {})
                    for name, count in value.items():
                        counts[name] = counts.get(name, 0) + count
                elif isinstance(value, bool) or not isinstance(value, int):
                    self.stats.setdefault(key, value)
                else:
                    self.stats[key] = int(self.stats.get(key, 0)) + value
        metrics = None
        if self.telemetry.enabled:
            metrics = self.telemetry.metrics
            self._merge_metrics(results)
        spec.dedup_lanes(self.stats, metrics, lanes)
        self._trace_lines = sorted(
            line for result in results
            for line in result.get("trace_lines") or ())

    def _merge_metrics(self, results: List[Dict]) -> None:
        """Reduce per-lane registries, then repair the series whose
        lane-sum is not the sequential semantic: the per-component CPU
        gauges (total is this run's wall clock, other its remainder),
        the parent-side pcap counters and the records the reader
        skipped."""
        metrics = self.telemetry.metrics
        gauge_merge = dict.fromkeys(_MAX_GAUGES + self.spec.max_gauges,
                                    "max")
        for index, result in enumerate(results):
            if result["metrics"]:
                # Twice: once unlabeled (the aggregate the differential
                # oracle compares to the sequential run) and once under
                # a ``worker`` label for per-lane attribution.
                metrics.merge_series(result["metrics"],
                                     gauge_merge=gauge_merge)
                metrics.merge_series(result["metrics"],
                                     gauge_merge=gauge_merge,
                                     extra_labels={"worker": str(index)})
        export_cpu_gauges(metrics, self.spec.app_name, self.stats)
        for key, value in self._pcap_stats.items():
            metrics.counter(f"pcap.{key}").inc(value)
        metrics.counter("health.records_skipped").inc(
            self._pcap_stats.get("records_skipped", 0))

    # -- results ------------------------------------------------------------

    def result_lines(self) -> List[str]:
        """The deterministically merged result lines."""
        return list(self._lines)

    def flow_record_lines(self) -> List[str]:
        """The deterministically merged flow-record lines (sorted,
        byte-identical to the sequential ledger's)."""
        return list(self._flow_records)

    def cpu_breakdown(self, config: Optional[Dict] = None) -> Dict:
        from ..runtime.telemetry import cpu_breakdown_report

        if not self.stats:
            raise RuntimeError("cpu_breakdown() requires a completed run")
        if config is None:
            config = {
                "app": self.spec.app_name,
                "backend": self.backend,
                "workers": self.workers,
            }
        return cpu_breakdown_report(self.stats, config=config)

    def write_telemetry(self, logdir: str,
                        meta: Optional[Dict] = None) -> List[str]:
        """Emit the merged reporting files (``metrics.jsonl``,
        ``stats.log``, ``prof.log`` when lanes carried profiler dumps,
        and ``flows.jsonl`` when tracing was armed).  The profiler dump
        is sectioned per worker (``# worker N context L``) rather than
        merged — per-function timings from different lanes are distinct
        measurements, not shards of one."""
        from ..net.flowrecord import write_flowrecords_jsonl
        from .pipeline import (write_flows_jsonl, write_metrics_jsonl,
                               write_parallel_prof_log, write_stats_log)

        _os.makedirs(logdir, exist_ok=True)
        written: List[str] = []
        if meta is None:
            meta = {
                "app": self.spec.app_name,
                "backend": self.backend,
                "workers": self.workers,
                "vthreads": self.vthreads,
            }
        written.append(write_metrics_jsonl(
            _os.path.join(logdir, "metrics.jsonl"),
            self.telemetry.metrics, meta=meta))
        sections = {
            "parallel": {
                "backend": self.backend,
                "workers": self.workers,
                "vthreads": self.vthreads,
                "lanes": self.stats.get("lanes", 0),
            },
        }
        written.append(write_stats_log(
            _os.path.join(logdir, "stats.log"), self.stats, sections))
        written.append(write_flowrecords_jsonl(
            _os.path.join(logdir, "flow_records.jsonl"),
            self.spec.app_name, self._flow_records))
        if any(result.get("prof") for result in self.lane_results):
            written.append(write_parallel_prof_log(
                _os.path.join(logdir, "prof.log"), self.lane_results))
        if self.telemetry.tracer.enabled:
            written.append(write_flows_jsonl(
                _os.path.join(logdir, "flows.jsonl"), self._trace_lines))
        return written
