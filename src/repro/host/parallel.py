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
how per-flow uids are pre-assigned in global arrival order
(``uid_format``), and what the merge must repair for the app
(``max_gauges``, ``dedup_lanes``).

Output determinism is the load-bearing property: merged result lines are
sorted lexicographically, so the merge is a pure function of content,
never of worker interleaving — byte-identical to the sequential
pipeline.  See ``docs/PARALLELISM.md``.
"""

from __future__ import annotations

import copy as _copy
import os as _os
import time as _time
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.values import Time
from ..net.flows import FiveTuple, decode_flow, vthread_of
from ..runtime.faults import NULL_INJECTOR, injector_for
from ..runtime.telemetry import Telemetry
from ..runtime.threads import Scheduler
from .app import PipelineServices

__all__ = [
    "LaneSpec",
    "ParallelPipeline",
    "dispatch_plan",
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
    use exactly this key, so pre-assigned uids resolve across process
    boundaries."""
    return flow.key


def lane_payload(app) -> Dict:
    """The app-independent part of a lane result, as plain (picklable)
    data: the flow ledger, the stats report, and — when telemetry is
    armed — the registry, profiler dumps and span trees."""
    telemetry = app.telemetry
    tracer = telemetry.tracer
    return {
        "flow_records": app.flow_record_lines(),
        "stats": dict(app.stats),
        "sessions": app.session_stats(),
        "metrics": (telemetry.metrics.collect()
                    if telemetry.enabled else None),
        "prof": prof_snapshots(app) if telemetry.enabled else None,
        "trace_roots": ([root.to_dict() for root in tracer.roots]
                        if tracer.enabled else None),
    }


class LaneSpec:
    """Picklable description of one application's parallel lanes; app
    specs build their lanes from the plain-data *config*."""

    #: Metrics namespace of the app (used by the generic merge to repair
    #: the per-component CPU gauges after summing lanes).
    app_name = "app"

    #: ``None`` (no uid pre-assignment) or a callable ``serial -> str``.
    uid_format = None

    #: Flow-record uid pre-assignment for apps whose sharding key is
    #: *not* the 5-tuple (or that assign no app uids at all): ``None``
    #: when ``uid_format`` already covers flow keys, else a callable
    #: ``serial -> str`` applied per first-sighted flow key.
    record_uid_format = None

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

    def make_lane(self, uid_map: Dict):
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


def dispatch_plan(
    packets: Iterable[Tuple[Time, bytes]], vthreads: int, workers: int,
    spec: Optional[LaneSpec] = None,
) -> Tuple[List[Tuple[int, int, bytes]], Dict[Tuple, str]]:
    """One pass over the trace: per-packet vthread placement plus the
    global uid pre-assignment.

    Returns ``(jobs, uid_map)`` where *jobs* is ``(vid, nanos, frame)``
    per packet (frames with no flow ride on vthread 0, where the lane
    counts them exactly like the sequential pipeline) and *uid_map*
    assigns each flow key the uid the sequential run's counter would
    have produced — allocated in first-packet arrival order.  With
    faults armed, a frame the packet-level draws drop allocates
    nothing (the sequential app never sees it) and rides on vthread 0,
    whose lane draws the same verdict and counts it.
    """
    spec = spec if spec is not None else LaneSpec()
    faults = spec.fault_injector()
    armed = faults is not NULL_INJECTOR
    jobs: List[Tuple[int, int, bytes]] = []
    uid_map: Dict[Tuple, str] = {}
    vids: Dict[Tuple, int] = {}
    serial = 0
    record_serial = 0
    for timestamp, frame in packets:
        packet = spec.flow_of(frame)
        if packet is None or (armed and faults.enter_packet(
                timestamp.nanos, frame) is not None):
            jobs.append((0, timestamp.nanos, frame))
            continue
        key = spec.key_of(packet)
        vid = vids.get(key)
        if vid is None:
            vid = spec.place(packet, vthreads, workers)
            vids[key] = vid
            serial += 1
            if spec.uid_format is not None:
                uid_map[key] = spec.uid_format(serial)
        if spec.record_uid_format is not None:
            # Flow-record uids ride the same map under the flow's own
            # canonical 5-tuple key — disjoint from ``key_of`` keys when
            # the app shards by something else (the firewall's host
            # pairs), identical when it shards by 5-tuple.
            rkey = packet.key
            if rkey not in uid_map:
                record_serial += 1
                uid_map[rkey] = spec.record_uid_format(record_serial)
        jobs.append((vid, timestamp.nanos, frame))
    return jobs, uid_map


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

    def __init__(self, spec: LaneSpec, uid_map: Dict):
        self._spec = spec
        self._uid_map = uid_map
        self._armed = spec.fault_injector() is not NULL_INJECTOR

    def make_context(self, vthread_id: int):
        lane = self._spec.make_lane(self._uid_map)
        lane.on_begin()
        return lane

    def init_context(self, lane) -> None:
        pass

    def call(self, lane, function: str, args: List) -> None:
        if function != "packet":
            raise ValueError(f"unknown lane job {function!r}")
        nanos, frame = args
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
    *join_timeout* bounds how long a run waits for any worker's result
    before declaring it lost — a worker killed mid-run is detected, its
    unretired packets are counted in :attr:`jobs_lost`, and the run
    raises :class:`~repro.host.pool.PoolError` instead of hanging.
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
        self._trace_roots: List[Dict] = []
        self._pcap_stats: Dict[str, int] = {}

    # -- running ------------------------------------------------------------

    def run(self, packets: Iterable[Tuple[Time, bytes]]) -> Dict:
        """Process a trace across all lanes; returns the merged stats."""
        begin = _time.perf_counter_ns()
        jobs, uid_map = dispatch_plan(packets, self.vthreads, self.workers,
                                      spec=self.spec)
        self._execute(jobs, uid_map, begin)
        return self.stats

    def run_pcap(self, path: str, tolerant: bool = False) -> Dict:
        """Drive the lanes from a pcap trace."""
        from ..net.pcap import PcapReader

        begin = _time.perf_counter_ns()
        with PcapReader(path, tolerant=tolerant) as reader:
            jobs, uid_map = dispatch_plan(reader, self.vthreads,
                                          self.workers, spec=self.spec)
            self._pcap_stats = {
                "records_read": reader.packets_read,
                "records_skipped": reader.records_skipped,
                "resyncs": reader.resyncs,
            }
        self._execute(jobs, uid_map, begin)
        skipped = self._pcap_stats["records_skipped"]
        if skipped:
            self.stats["health"]["records_skipped"] += skipped
        return self.stats

    def _execute(self, jobs, uid_map, begin: int) -> None:
        if self.backend == "pool":
            self._run_pool(jobs, uid_map)
        else:
            self._run_scheduler(jobs, uid_map)
        self._merge(_time.perf_counter_ns() - begin)

    def _run_scheduler(self, jobs, uid_map) -> None:
        """The oracle backend: packet jobs on the vthread scheduler."""
        program = _LaneProgram(self.spec, uid_map)
        scheduler = Scheduler(program, workers=self.workers)
        # Lane 0 always exists: it owns stray frames and guarantees any
        # per-lane lifecycle work runs at least once on an empty trace.
        scheduler.context_for(0)
        for vid, nanos, frame in jobs:
            scheduler.schedule(vid, "packet", (nanos, frame))
        scheduler.run_until_idle()
        self.scheduler = scheduler
        contexts = scheduler.contexts()
        results = []
        for vid in sorted(contexts):
            lane = contexts[vid]
            lane.on_end()
            results.append(self.spec.lane_result(lane))
        self.lane_results = results

    def _run_pool(self, jobs, uid_map) -> None:
        """The persistent shared-memory pool backend: batched packet
        slices (the scheduler's ``vid % workers`` rule) through SPSC
        rings into workers that outlive the run."""
        from .pool import PoolError, WorkerPool

        shards: List[List[Tuple[int, bytes]]] = [
            [] for __ in range(self.workers)
        ]
        for vid, nanos, frame in jobs:
            shards[vid % self.workers].append((nanos, frame))
        pool = WorkerPool.shared(self.workers,
                                 start_method=self.start_method)
        try:
            self.lane_results = pool.run(self.spec, uid_map, shards,
                                         timeout=self.join_timeout)
        except PoolError as error:
            self.jobs_lost = error.jobs_lost
            raise

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

        parsing_ns = stat_sum("parsing_ns")
        script_ns = stat_sum("script_ns")
        glue_ns = stat_sum("glue_ns")
        self.stats = {
            "app": spec.app_name,
            "total_ns": total_ns,
            "parsing_ns": parsing_ns,
            "script_ns": script_ns,
            "glue_ns": glue_ns,
            "other_ns": max(
                0, total_ns - parsing_ns - script_ns - glue_ns),
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
        self._trace_roots = [root for result in results
                             for root in result.get("trace_roots") or ()]

    def _merge_metrics(self, results: List[Dict]) -> None:
        """Reduce per-lane registries, then repair the series whose
        lane-sum is not the sequential semantic: the per-component CPU
        gauges (total is this run's wall clock, other its remainder) and
        the parent-side pcap counters."""
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
        name = self.spec.app_name
        for component in ("parsing", "script", "glue", "other", "total"):
            metrics.gauge(f"{name}.cpu_ns", component=component).set(
                int(self.stats[f"{component}_ns"]))
        for key, value in self._pcap_stats.items():
            metrics.counter(f"pcap.{key}").inc(value)

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
        import json as _json

        from ..net.flowrecord import write_flowrecords_jsonl
        from .pipeline import (write_metrics_jsonl,
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
        if self._trace_roots:
            path = _os.path.join(logdir, "flows.jsonl")
            lines = sorted(
                _json.dumps(root, sort_keys=True)
                for root in self._trace_roots
            )
            with open(path, "w") as stream:
                for line in lines:
                    stream.write(line + "\n")
            written.append(path)
        return written
