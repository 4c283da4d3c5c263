"""Streaming service mode: a supervised long-running host-app daemon.

The batch pipeline reads a trace once and exits; the paper's target is
*continuous* deep, stateful analysis under real-time constraints.  This
module wraps any :class:`~repro.host.app.HostApp` in that shape::

    ingest (TraceReplayer / LiveCaptureSource, rate-paced)
       |            place by flow key (LaneSpec sharding)
       v
    lane 0 ... lane N-1        one interface, overload: block | shed
       |   thread transport: BoundedQueue -> thread -> in-process app
       |   pool transport:   shm ring -> WorkerPool worker -> lane app
       v
    supervisor                 one crash routine: restart w/ exp.
       |                       backoff, escalate to a CircuitBreaker
    aggregator                 1s/10s/60s rolling windows -> registry,
       |                       time-series history ring
    HTTP control surface       /healthz /metrics /stats /flows
                               /metrics/history

``/metrics`` speaks JSON-lines (``repro-metrics/1``) by default and the
Prometheus text exposition (version 0.0.4) under content negotiation
(``Accept: text/plain`` or ``?format=prometheus``);
``/metrics/history?window=60`` serves the aggregator's bounded
time-series ring (``repro-timeseries/1``).  Pool-transport lanes ship
periodic ``TELEM`` snapshots back over their rings, which the
aggregator publishes as ``worker.*`` gauges labeled ``worker=N`` —
the live per-worker view ``repro.tools.servicetop`` renders.

Overload never deadlocks: ``block`` applies backpressure to ingest with
a bounded timed wait that re-checks the stop request; ``shed`` drops at
the full queue and counts every drop exactly.  Session state stays flat
via the eviction bounds (``PipelineServices.max_sessions`` /
``session_ttl`` / ``memory_budget_bytes``) the lanes' apps enforce.
SIGTERM/SIGINT drain gracefully: ingest stops, queued packets finish,
telemetry flushes, results are written, exit code 0.

The packet-conservation invariant the soak tests assert::

    ingested == processed + shed + lost_in_crash + dropped_on_stop
                + dropped_to_failed_lane

Every packet the ingest stage pulled from the source lands in exactly
one of those counters.
"""

from __future__ import annotations

import json as _json
import os as _os
import signal as _signal
import threading
import time as _time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from ..runtime.faults import NULL_INJECTOR, CircuitBreaker, injector_for
from ..runtime import promtext as _promtext
from ..runtime.telemetry import (
    MetricsRegistry,
    Telemetry,
    TimeSeriesStore,
    TIMESERIES_SCHEMA,
)
from .app import HostApp, PipelineServices
from .parallel import LaneSpec, lane_payload

__all__ = [
    "BoundedQueue",
    "HostService",
    "RollingWindows",
    "SERVICE_SCHEMA",
    "ServiceConfig",
]

#: Schema tag of the ``service.json`` discovery file.
SERVICE_SCHEMA = "repro-service/1"


_SENTINEL = object()  # end-of-stream marker, force-put past capacity
_EMPTY = object()     # get() timeout marker

#: Longest a partial pool batch waits in the parent before a flush.
_FLUSH_SECONDS = 0.05


# --------------------------------------------------------------------------
# Bounded inter-stage queue
# --------------------------------------------------------------------------


class BoundedQueue:
    """A bounded FIFO between pipeline stages.

    Two producer disciplines: :meth:`put` (block policy — timed wait
    for space so a stop request is honored, never a deadlock) and
    :meth:`offer` (shed policy — fail fast at capacity, the drop
    counted exactly in :attr:`shed`).  :meth:`force` appends past
    capacity for control markers (the drain sentinel must reach a
    full queue).  Consumers use :meth:`get` with a timeout.
    """

    #: Longest single wait slice inside put(); bounds stop latency.
    WAIT_SLICE = 0.05

    def __init__(self, capacity: int, name: str = "queue"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.name = name
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self.puts = 0
        self.gets = 0
        self.shed = 0
        self.high_water = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def _append(self, item) -> None:
        self._items.append(item)
        depth = len(self._items)
        if depth > self.high_water:
            self.high_water = depth
        self.puts += 1
        self._not_empty.notify()

    def offer(self, item) -> bool:
        """Shed policy: enqueue, or count one drop at capacity."""
        with self._lock:
            if len(self._items) >= self.capacity:
                self.shed += 1
                return False
            self._append(item)
            return True

    def put(self, item, timeout: Optional[float] = None,
            should_stop: Optional[Callable[[], bool]] = None) -> bool:
        """Block policy: wait for space (re-checking *should_stop*
        between slices); False when stopped or timed out."""
        deadline = (None if timeout is None
                    else _time.monotonic() + timeout)
        with self._not_full:
            while len(self._items) >= self.capacity:
                if should_stop is not None and should_stop():
                    return False
                wait = self.WAIT_SLICE
                if deadline is not None:
                    remaining = deadline - _time.monotonic()
                    if remaining <= 0:
                        return False
                    wait = min(wait, remaining)
                self._not_full.wait(wait)
            self._append(item)
            return True

    def force(self, item) -> None:
        """Append unconditionally (control markers only)."""
        with self._lock:
            self._append(item)

    def get(self, timeout: Optional[float] = None):
        """Pop the oldest item; the module-level ``_EMPTY`` marker on
        timeout."""
        deadline = (None if timeout is None
                    else _time.monotonic() + timeout)
        with self._not_empty:
            while not self._items:
                if deadline is None:
                    self._not_empty.wait()
                else:
                    remaining = deadline - _time.monotonic()
                    if remaining <= 0:
                        return _EMPTY
                    self._not_empty.wait(remaining)
            item = self._items.popleft()
            self.gets += 1
            self._not_full.notify()
            return item

    def drain(self) -> int:
        """Discard everything queued; returns the number of *data*
        items dropped (control markers excluded)."""
        with self._lock:
            dropped = sum(1 for item in self._items
                          if item is not _SENTINEL)
            self._items.clear()
            self._not_full.notify_all()
            return dropped


# --------------------------------------------------------------------------
# Rolling aggregation windows
# --------------------------------------------------------------------------


class RollingWindows:
    """Rolling rate windows over monotone counter totals.

    ``sample(now, totals)`` records one aggregator tick;
    ``rates()`` reports, per window, each counter's delta and
    per-second rate between the newest sample and the oldest sample
    still inside the window.
    """

    def __init__(self, windows: Tuple[float, ...] = (1.0, 10.0, 60.0)):
        if not windows:
            raise ValueError("need at least one window")
        self.windows = tuple(sorted(windows))
        self._samples: deque = deque()

    def sample(self, now: float, totals: Dict[str, float]) -> None:
        self._samples.append((now, dict(totals)))
        horizon = now - self.windows[-1] - 5.0
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()

    def rates(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        if len(self._samples) < 2:
            return {}
        newest_t, newest = self._samples[-1]
        out: Dict[str, Dict[str, Dict[str, float]]] = {}
        for window in self.windows:
            base_t, base = self._samples[0]
            for t, totals in self._samples:
                if t >= newest_t - window:
                    base_t, base = t, totals
                    break
            if base_t >= newest_t:
                # Window shorter than one tick: fall back to the
                # previous sample so short windows still report.
                base_t, base = self._samples[-2]
            dt = newest_t - base_t
            entry: Dict[str, Dict[str, float]] = {}
            for name, value in newest.items():
                delta = value - base.get(name, 0)
                entry[name] = {
                    "delta": delta,
                    "per_second": (delta / dt) if dt > 0 else 0.0,
                }
            out[f"{window:g}s"] = entry
        return out


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------


class ServiceConfig:
    """Everything tunable about one service run."""

    def __init__(self,
                 lanes: int = 1,
                 lane_transport: str = "thread",
                 queue_capacity: int = 512,
                 overload: str = "block",
                 tick_seconds: float = 1.0,
                 windows: Tuple[float, ...] = (1.0, 10.0, 60.0),
                 duration_seconds: Optional[float] = None,
                 drain_timeout: float = 30.0,
                 backoff_base: float = 0.25,
                 backoff_cap: float = 30.0,
                 breaker_threshold: float = 0.5,
                 breaker_min_starts: int = 4,
                 healthy_packets: int = 256,
                 fault_seed: int = 0,
                 inject_rates: Optional[Dict[str, float]] = None,
                 watchdog_budget: Optional[int] = None,
                 max_sessions: Optional[int] = None,
                 session_ttl: Optional[float] = None,
                 memory_budget_bytes: Optional[int] = None,
                 http_host: Optional[str] = "127.0.0.1",
                 http_port: Optional[int] = 0,
                 logdir: str = "logs",
                 results_name: str = "results.log",
                 app_name: str = "app",
                 lane_metrics: bool = False,
                 history_samples: int = 600):
        if overload not in ("block", "shed"):
            raise ValueError(f"overload must be block|shed, got {overload!r}")
        if lane_transport not in ("thread", "pool"):
            raise ValueError(
                f"lane_transport must be thread|pool, got {lane_transport!r}")
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes!r}")
        self.lanes = lanes
        self.lane_transport = lane_transport
        self.queue_capacity = queue_capacity
        self.overload = overload
        self.tick_seconds = tick_seconds
        self.windows = tuple(windows)
        self.duration_seconds = duration_seconds
        self.drain_timeout = drain_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.breaker_threshold = breaker_threshold
        self.breaker_min_starts = breaker_min_starts
        self.healthy_packets = healthy_packets
        self.fault_seed = fault_seed
        self.inject_rates = dict(inject_rates) if inject_rates else None
        self.watchdog_budget = watchdog_budget
        self.max_sessions = max_sessions
        self.session_ttl = session_ttl
        self.memory_budget_bytes = memory_budget_bytes
        self.http_host = http_host
        self.http_port = http_port
        self.logdir = logdir
        self.results_name = results_name
        self.app_name = app_name
        self.lane_metrics = bool(lane_metrics)
        if history_samples < 1:
            raise ValueError(
                f"history_samples must be >= 1, got {history_samples!r}")
        self.history_samples = history_samples

    def as_dict(self) -> Dict[str, object]:
        return {
            "lanes": self.lanes,
            "lane_transport": self.lane_transport,
            "queue_capacity": self.queue_capacity,
            "overload": self.overload,
            "tick_seconds": self.tick_seconds,
            "windows": list(self.windows),
            "duration_seconds": self.duration_seconds,
            "fault_seed": self.fault_seed,
            "inject_rates": self.inject_rates,
            "watchdog_budget": self.watchdog_budget,
            "max_sessions": self.max_sessions,
            "session_ttl": self.session_ttl,
            "memory_budget_bytes": self.memory_budget_bytes,
            "app": self.app_name,
            "lane_metrics": self.lane_metrics,
            "history_samples": self.history_samples,
        }


# --------------------------------------------------------------------------
# Lanes: one interface, two transports
# --------------------------------------------------------------------------

_NO_SESSIONS = {"open": 0, "evicted": 0, "expired": 0}


class _Lane:
    """One supervised lane as the service's one ingest loop, crash
    routine and drain see it: per-packet fate counters, crash/restart
    accounting, the escalation breaker, and results archived from
    replaced app instances.  A transport subclass implements
    ``start`` (and restart), ``feed`` (one packet under the overload
    policy), ``poll`` (a crash diagnostic, once), ``halt`` (failed for
    good), ``drain`` (finish and return the lane result, or None),
    ``depth``, ``alive`` and ``live_sessions``."""

    def __init__(self, index: int, service: "HostService"):
        config = service.config
        self.index = index
        self.service = service
        self.shed_policy = config.overload == "shed"
        self.breaker = CircuitBreaker(
            threshold=config.breaker_threshold,
            min_flows=config.breaker_min_starts)
        self.app: Optional[HostApp] = None  # in-process app (thread lanes)
        self.processed = 0
        self.processed_since_start = 0
        self.shed = 0
        self.packets_lost = 0
        self.dropped_on_stop = 0
        self.dropped_failed = 0
        self.crashes = 0
        self.restarts = 0
        self.backoff_seconds = 0.0
        self.down = False  # executor gone until restart; feeds are lost
        self.failed = False
        self.hung = False
        self.error: Optional[str] = None  # a crash poll() has not reported
        self.last_error: Optional[str] = None
        self.pending_restart_at: Optional[float] = None
        self.archived_lines: List[str] = []
        self.archived_records: List[str] = []
        self.end_stats: Optional[Dict] = None
        self.end_sessions: Optional[Dict[str, int]] = None

    def _refusing(self) -> bool:
        """Backpressure releases when the service stops or the lane
        goes down or fails."""
        return self.service.should_stop() or self.down or self.failed

    def _refused(self) -> None:
        """Book one packet the transport did not accept."""
        stopping = self.service.should_stop()
        if self.shed_policy:
            self.shed += 1
        elif self.down and not stopping:
            self.packets_lost += 1
        elif self.failed and not stopping:
            self.dropped_failed += 1
        else:
            self.dropped_on_stop += 1

    def take_error(self) -> Optional[str]:
        error, self.error = self.error, None
        return error

    def flush(self, final: bool = False) -> None:
        """Push buffered packets on (*final*: block until done)."""

    def telemetry(self) -> Optional[Dict]:
        """The executor's latest ``TELEM`` snapshot, if it ships any."""
        return None

    def sessions(self) -> Dict[str, int]:
        """The final lane result's sessions once drained, else live."""
        if self.end_sessions is not None:
            return self.end_sessions
        return self.live_sessions()

    def snapshot(self) -> Dict[str, object]:
        return {
            "lane": self.index,
            "alive": self.alive(),
            "processed": self.processed,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "packets_lost": self.packets_lost,
            "backoff_seconds": round(self.backoff_seconds, 3),
            "failed": self.failed,
            "queue_depth": self.depth(),
            "queue_high_water": self.high_water,
            "queue_shed": self.shed,
            "last_error": self.last_error,
            "breaker": self.breaker.as_dict(),
        }


class _ThreadLane(_Lane):
    """A :class:`BoundedQueue`, a thread and an in-process app from the
    service's ``make_app`` — the transport that runs any app, including
    one that cannot cross a process boundary."""

    def __init__(self, index: int, service: "HostService"):
        super().__init__(index, service)
        self.queue = BoundedQueue(service.config.queue_capacity,
                                  name=f"lane{index}")
        self.thread: Optional[threading.Thread] = None
        self.crashed = False

    @property
    def high_water(self) -> int:
        return self.queue.high_water

    def start(self) -> None:
        self._archive()
        self.crashed = False
        self.thread = threading.Thread(
            target=self._run, name=f"service-lane-{self.index}",
            daemon=True)
        self.thread.start()

    def _run(self) -> None:
        in_hand = False
        try:
            if self.app is None:
                # Built inside the lane thread so a slow (or crashing)
                # construction never blocks supervision.
                self.app = self.service.make_app(
                    self.service._lane_services())
                self.app.on_begin()
            app = self.app
            services = app.services
            admit = (None if services.faults is NULL_INJECTOR
                     else services.admit_to_lane)
            while True:
                item = self.queue.get(timeout=0.2)
                if item is _EMPTY:
                    continue
                if item is _SENTINEL:
                    return
                in_hand = True
                timestamp, frame, ordinal = item
                app.ordinal = ordinal
                if admit is None or admit(timestamp.nanos, frame):
                    app.on_packet(timestamp, frame)
                in_hand = False
                self.processed += 1
                self.processed_since_start += 1
        except BaseException as error:  # noqa: BLE001 — crash boundary
            self.crashed = True
            if in_hand:
                self.packets_lost += 1
            self.error = f"{type(error).__name__}: {error}"

    def _archive(self) -> None:
        """Keep what a replaced (or crashed) app produced."""
        if self.app is None:
            return
        try:
            self.archived_lines.extend(self.app.result_lines())
            self.archived_records.extend(self.app.flow_record_lines())
        except Exception:
            pass
        self.app = None

    def feed(self, item) -> None:
        if self.shed_policy:
            accepted = self.queue.offer(item)
        else:
            accepted = self.queue.put(item, should_stop=self._refusing)
        if not accepted:
            self._refused()

    def poll(self) -> Optional[str]:
        if self.thread is None or self.thread.is_alive():
            return None
        return self.take_error()

    def halt(self) -> None:
        # Nothing will consume this queue again: count the leftovers now
        # so the drain condition (all queues empty) stays reachable.
        self.dropped_failed += self.queue.drain()
        self._archive()
        self.thread = None

    def alive(self) -> bool:
        return self.thread is not None and self.thread.is_alive()

    def depth(self) -> int:
        return len(self.queue)

    def live_sessions(self) -> Dict[str, int]:
        return (self.app.session_stats() if self.app is not None
                else _NO_SESSIONS)

    def drain(self, timeout: float) -> Optional[Dict]:
        if self.failed:
            self.dropped_failed += self.queue.drain()
        elif not self.alive():
            # A crashed-but-not-restarted lane can't consume its queue.
            self.dropped_on_stop += self.queue.drain()
        self.queue.force(_SENTINEL)
        if self.thread is not None:
            self.thread.join(timeout=timeout)
            if self.thread.is_alive():
                self.hung = True
                return None
        # Anything still queued behind a crash that raced the sentinel.
        self.dropped_on_stop += self.queue.drain()
        app = self.app
        if app is None or self.crashed:
            self._archive()
            return None
        try:
            app.on_end()
            result = lane_payload(app)
            result["lines"] = app.result_lines()
        except Exception as error:
            self.last_error = f"{type(error).__name__}: {error}"
            return None
        return result


class _PoolLane(_Lane):
    """One :class:`~repro.host.pool.WorkerPool` slot: packet batches
    through the worker's shared-memory ring into a lane the worker
    builds from the service's spec — the multi-core transport."""

    def __init__(self, index: int, service: "HostService"):
        from .pool import WorkerPool

        super().__init__(index, service)
        # The shared pool outlives this service instance: a restart
        # reattaches to the same hot workers instead of respawning.
        # Under the shed policy a full ring drops packets, so the ring
        # is the lane's burst buffer: 1 MiB rings shed ~0.1 % of a
        # looped mixed trace on a 2-vCPU host, batch-sized ones 2-4 %.
        self.pool = WorkerPool.shared(service.config.lanes,
                                      ring_bytes=1 << 20)
        self.spec = service.spec.configured(
            faults=service.fault_config, **service._session_bounds())
        self.blob = WorkerPool.spec_blob(self.spec)
        self.lock = threading.Lock()  # batch state: ingest vs control
        self.base = 0  # packets retired by prior worker incarnations
        self.high_water = 0

    def start(self) -> None:
        pool, index = self.pool, self.index
        with self.lock:
            if self.down or not pool.alive(index):
                pool.respawn(index)
            pool.begin_worker(index, self.blob)
            self.down = False

    def feed(self, item) -> None:
        timestamp, frame, ordinal = item
        with self.lock:
            if self.down:
                # The ring is reset on respawn: nothing buffers across
                # a crash window.
                self.packets_lost += 1
            elif not self.pool.feed(
                    self.index, timestamp.nanos, frame, ordinal,
                    wait=(0.0 if self.shed_policy else None),
                    should_stop=self._refusing):
                self._refused()

    def flush(self, final: bool = False) -> None:
        # Paced sources can leave a partial batch sitting in the parent
        # buffer indefinitely; the ingest loop flushes periodically.
        if not (self.down or self.failed):
            with self.lock:
                self.pool.flush(self.index, wait=(None if final else 0.0),
                                should_stop=self._refusing)

    def _go_down(self, error: str) -> None:
        # Set first, unlocked: it releases a feed blocked on the dead
        # worker's full ring, which holds the lock.
        self.down = True
        pool, index = self.pool, self.index
        with self.lock:
            progressed = pool.progressed(index)
            # Everything handed to the worker but not retired — the
            # unflushed parent-side batch included — is lost with it.
            self.packets_lost += max(
                0, pool.pushed(index) + pool.buffered(index) - progressed)
            self.processed = self.base = self.base + progressed
            self.processed_since_start = progressed
            self.error = error

    def poll(self) -> Optional[str]:
        pool, index = self.pool, self.index
        if not self.down:
            pool.poll(index)
            failure = pool.failure(index)
            if failure is None and not pool.alive(index):
                failure = ("worker process died "
                           f"(exitcode {pool.exitcode(index)})")
            if failure is not None:
                self._go_down(failure)
            else:
                progressed = pool.progressed(index)
                self.processed = self.base + progressed
                self.processed_since_start = progressed
                self.high_water = max(self.high_water, self.depth())
        return self.take_error()

    def halt(self) -> None:
        # Respawn anyway: the shared pool must stay healthy for sibling
        # lanes now and for future runs.
        with self.lock:
            self.pool.respawn(self.index)

    def alive(self) -> bool:
        return not (self.failed or self.down)

    def depth(self) -> int:
        """Packets fed but not retired: pushed + buffered − progressed."""
        if self.down:
            return 0
        pool, index = self.pool, self.index
        return max(0, pool.pushed(index) + pool.buffered(index)
                   - pool.progressed(index))

    def telemetry(self) -> Optional[Dict]:
        return self.pool.telemetry(self.index)

    def live_sessions(self) -> Dict[str, int]:
        return (self.telemetry() or {}).get("sessions", _NO_SESSIONS)

    def drain(self, timeout: float) -> Optional[Dict]:
        from .pool import PoolError

        if self.failed or self.down:
            return None  # its losses were counted when it went down
        pool, index = self.pool, self.index
        try:
            with self.lock:
                pool.finish(index, timeout=timeout)
            result = pool.collect(index, timeout)
        except PoolError as error:
            self._go_down(str(error))
            with self.lock:
                pool.respawn(index)
            return None
        self.processed = self.base + pool.pushed(index)
        result["lines"] = self.spec.result_lines_of(result)
        result["flow_records"] = self.spec.flow_record_lines_of(result)
        return result


#: ``ServiceConfig.lane_transport`` -> lane class.
_TRANSPORTS = {"thread": _ThreadLane, "pool": _PoolLane}


# --------------------------------------------------------------------------
# The service
# --------------------------------------------------------------------------


class HostService:
    """A long-running, supervised host-application daemon.

    *make_app* builds one isolated app per lane:
    ``make_app(services) -> HostApp`` (the same factory contract
    :func:`repro.host.cli.run_host_app` uses).  *source* is any
    iterable of ``(Time, frame)`` — a
    :class:`~repro.net.replay.TraceReplayer`, a
    :class:`~repro.net.replay.LiveCaptureSource`, or a test generator.
    *spec* supplies flow placement (default: 5-tuple sharding; the
    firewall's host-pair spec keeps its state lane-local).

    ``serve()`` runs until a stop is requested (signal, duration
    bound, or source exhaustion), then drains and writes artifacts.
    """

    def __init__(self, make_app: Callable[[PipelineServices], HostApp],
                 source, config: Optional[ServiceConfig] = None,
                 spec: Optional[LaneSpec] = None):
        self.make_app = make_app
        self.source = source
        self.config = config if config is not None else ServiceConfig()
        self.spec = spec if spec is not None else LaneSpec()
        config = self.config
        #: One fault schedule for every lane, on either transport.
        self.fault_config = (
            {"seed": config.fault_seed, "rates": config.inject_rates}
            if config.inject_rates else None)
        lane_class = _TRANSPORTS[config.lane_transport]
        self.lanes = [lane_class(i, self) for i in range(config.lanes)]
        self.metrics = MetricsRegistry()
        self.windows = RollingWindows(self.config.windows)
        self.history = TimeSeriesStore(
            max_samples=self.config.history_samples)
        self._stop = threading.Event()
        self.stop_reason: Optional[str] = None
        self._lock = threading.Lock()  # metrics + windows + snapshots
        self._ingest_thread: Optional[threading.Thread] = None
        self._httpd = None
        self._http_thread: Optional[threading.Thread] = None
        self.http_address: Optional[Tuple[str, int]] = None
        self._started_at: Optional[float] = None
        self._started_ts: Optional[float] = None  # wall clock, discovery
        self.ingested = 0
        self.ingest_done = False
        self.exit_code: Optional[int] = None
        self.artifacts: List[str] = []

    # -- control -----------------------------------------------------------

    def should_stop(self) -> bool:
        return self._stop.is_set()

    def request_stop(self, reason: str = "requested") -> None:
        """Ask the service to drain and exit (thread/signal safe)."""
        if not self._stop.is_set():
            self.stop_reason = reason
            self._stop.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful drain (main thread only; a no-op
        elsewhere, so in-process test harnesses can call it freely)."""
        if threading.current_thread() is not threading.main_thread():
            return
        def _handler(signum, frame):
            self.request_stop(f"signal {signum}")
        _signal.signal(_signal.SIGTERM, _handler)
        _signal.signal(_signal.SIGINT, _handler)

    def uptime(self) -> float:
        if self._started_at is None:
            return 0.0
        return _time.monotonic() - self._started_at

    # -- lane lifecycle ----------------------------------------------------

    def _session_bounds(self) -> Dict[str, object]:
        config = self.config
        return {"max_sessions": config.max_sessions,
                "session_ttl": config.session_ttl,
                "memory_budget_bytes": config.memory_budget_bytes}

    def _lane_services(self) -> PipelineServices:
        return PipelineServices(
            faults=injector_for(self.fault_config),
            watchdog_budget=self.config.watchdog_budget,
            telemetry=Telemetry(metrics=self.config.lane_metrics),
            **self._session_bounds())

    def _start(self, lane: _Lane) -> None:
        lane.breaker.record_flow()
        lane.processed_since_start = 0
        lane.start()

    def _supervise(self, now: float) -> None:
        """Restart lanes whose backoff elapsed; report fresh crashes."""
        for lane in self.lanes:
            if lane.failed:
                continue
            if lane.pending_restart_at is not None:
                if now >= lane.pending_restart_at:
                    lane.pending_restart_at = None
                    lane.restarts += 1
                    self._start(lane)
                continue
            error = lane.poll()
            if error is not None:
                self._crash(lane, now, error)

    def _crash(self, lane: _Lane, now: float, error: str) -> None:
        """The crash routine: breaker escalation, then either the lane
        fails for good or its restart is scheduled with exponential
        backoff."""
        config = self.config
        lane.crashes += 1
        lane.last_error = error
        # A long healthy run forgives past violations (the breaker
        # targets rapid crash loops, not a crash every few million
        # packets).
        if lane.processed_since_start >= config.healthy_packets:
            lane.breaker = CircuitBreaker(
                threshold=config.breaker_threshold,
                min_flows=config.breaker_min_starts)
            lane.breaker.record_flow()
        lane.breaker.record_violation()
        if lane.breaker.tripped:
            lane.failed = True
            lane.halt()
            return
        consecutive = max(1, lane.breaker.violations)
        delay = min(config.backoff_cap,
                    config.backoff_base * (2 ** (consecutive - 1)))
        lane.backoff_seconds += delay
        lane.pending_restart_at = now + delay

    # -- ingest ------------------------------------------------------------

    def _place(self, frame: bytes) -> _Lane:
        flow = self.spec.flow_of(frame)
        if flow is None:
            return self.lanes[0]
        lanes = len(self.lanes)
        return self.lanes[self.spec.place(flow, lanes, lanes) % lanes]

    def _ingest_body(self) -> None:
        """Place each packet by flow and feed it to its lane, which
        books it under the overload policy.  A packet's ordinal is the
        count ingested before it, so a looped source continues it."""
        last_flush = _time.monotonic()
        try:
            for timestamp, frame in self.source:
                if self._stop.is_set():
                    break
                ordinal = self.ingested
                self.ingested += 1
                lane = self._place(frame)
                if lane.failed:
                    lane.dropped_failed += 1
                else:
                    lane.feed((timestamp, frame, ordinal))
                now = _time.monotonic()
                if now - last_flush >= _FLUSH_SECONDS:
                    last_flush = now
                    for lane in self.lanes:
                        lane.flush()
            for lane in self.lanes:
                lane.flush(final=True)
        finally:
            self.ingest_done = True

    # -- aggregation -------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        lanes = self.lanes
        on_stop = sum(lane.dropped_on_stop for lane in lanes)
        failed = sum(lane.dropped_failed for lane in lanes)
        return {
            "packets_ingested": self.ingested,
            "packets_processed": sum(lane.processed for lane in lanes),
            "packets_shed": sum(lane.shed for lane in lanes),
            "packets_lost": sum(lane.packets_lost for lane in lanes),
            "packets_dropped": on_stop + failed,
            "packets_dropped_on_stop": on_stop,
            "packets_dropped_failed": failed,
            "lane_crashes": sum(lane.crashes for lane in lanes),
            "lane_restarts": sum(lane.restarts for lane in lanes),
        }

    def session_totals(self) -> Dict[str, int]:
        totals = {"open": 0, "evicted": 0, "expired": 0}
        for lane in self.lanes:
            try:
                stats = lane.sessions()
            except Exception:
                continue
            for key in totals:
                totals[key] += int(stats.get(key, 0))
        return totals

    def _sample(self) -> None:
        """One aggregator tick: snapshot totals into the rolling
        windows, refresh the registry (the /metrics surface), publish
        the pool workers' latest TELEM snapshots, and append the whole
        registry to the time-series history ring."""
        now = _time.monotonic()
        totals = self.totals()
        sessions = self.session_totals()
        telem = {}
        for lane in self.lanes:
            snapshot = lane.telemetry()
            if snapshot:
                telem[lane.index] = snapshot
        with self._lock:
            self.windows.sample(now, totals)
            rates = self.windows.rates()
            metrics = self.metrics
            for name, value in totals.items():
                counter = metrics.counter(f"service.{name}")
                counter.value = 0
                counter.inc(int(value))
            for name, value in (
                ("service.uptime_seconds", self.uptime()),
                ("service.lanes_total", len(self.lanes)),
                ("service.lanes_failed",
                 sum(1 for lane in self.lanes if lane.failed)),
                ("service.sessions_open", sessions["open"]),
                ("service.restart_backoff_seconds",
                 sum(lane.backoff_seconds for lane in self.lanes)),
            ):
                metrics.gauge(name).set(value)
            for key in ("evicted", "expired"):
                counter = metrics.counter(f"service.sessions_{key}")
                counter.value = 0
                counter.inc(sessions[key])
            for lane in self.lanes:
                label = str(lane.index)
                metrics.gauge("service.queue_depth", lane=label).set(
                    lane.depth())
                metrics.gauge("service.queue_high_water", lane=label).set(
                    lane.high_water)
                shed = metrics.counter("service.queue_shed", lane=label)
                shed.value = 0
                shed.inc(lane.shed)
            for window, entries in rates.items():
                pps = entries.get("packets_processed")
                if pps is not None:
                    metrics.gauge("service.packets_per_second",
                                  window=window).set(
                        round(pps["per_second"], 3))
            for lane in self.lanes:
                metrics.gauge("service.worker_alive",
                              worker=str(lane.index)).set(
                    int(lane.alive()))
            for index, snapshot in telem.items():
                self._apply_worker_snapshot(str(index), snapshot)
            self.history.sample(_time.time(), metrics.collect())

    def _apply_worker_snapshot(self, label: str, snapshot: Dict) -> None:
        """Publish one worker's latest ``TELEM`` snapshot into the
        service registry under a ``worker`` label.  The worker ships
        cumulative totals, so every value is *set* absolutely — a
        re-applied snapshot overwrites, never accumulates.  Caller
        holds ``self._lock``."""
        metrics = self.metrics
        for name, value in (snapshot.get("live") or {}).items():
            metrics.gauge(f"worker.{name}", worker=label).set(value)
        for name in ("spans_started", "spans_dropped"):
            if name in snapshot:
                metrics.gauge(f"worker.{name}", worker=label).set(
                    snapshot[name])
        for entry in snapshot.get("series") or []:
            labels = dict(entry.get("labels", {}))
            labels["worker"] = label
            kind = entry["kind"]
            if kind == "counter":
                counter = metrics.counter(entry["name"], **labels)
                counter.value = entry["value"]
            elif kind == "gauge":
                metrics.gauge(entry["name"], **labels).set(entry["value"])
            # Histograms are skipped live: their buckets merge exactly
            # once, from the final lane result at drain.

    # -- the HTTP control surface ------------------------------------------

    def healthz(self) -> Tuple[int, Dict[str, object]]:
        failed = sum(1 for lane in self.lanes if lane.failed)
        status = "ok" if failed == 0 else "degraded"
        body = {
            "status": status,
            "uptime_seconds": round(self.uptime(), 3),
            "lanes": len(self.lanes),
            "lanes_failed": failed,
            "stopping": self._stop.is_set(),
        }
        return (200 if failed == 0 else 503), body

    def stats_report(self) -> Dict[str, object]:
        with self._lock:
            rates = self.windows.rates()
        return {
            "app": self.config.app_name,
            "uptime_seconds": round(self.uptime(), 3),
            "overload": self.config.overload,
            "transport": self.config.lane_transport,
            "totals": self.totals(),
            "sessions": self.session_totals(),
            "windows": rates,
            "lanes": [lane.snapshot() for lane in self.lanes],
            "stop_reason": self.stop_reason,
        }

    def flows_report(self, limit: int = 256) -> Dict[str, object]:
        flows: List[Dict] = []
        for lane in self.lanes:
            app = lane.app
            if app is None:
                continue
            try:
                snapshot = app.flow_snapshot(limit - len(flows))
            except Exception:
                continue
            for entry in snapshot:
                entry = dict(entry)
                entry["lane"] = lane.index
                flows.append(entry)
            if len(flows) >= limit:
                break
        return {"flows": flows, "count": len(flows)}

    def flow_record_lines(self) -> List[str]:
        """Every sealed flow record so far: archived from replaced
        (crashed/drained) app instances plus the live apps' ledgers."""
        records: List[str] = []
        for lane in self.lanes:
            records.extend(lane.archived_records)
            app = lane.app
            if app is None:
                continue
            try:
                records.extend(app.flow_record_lines())
            except Exception:
                continue
        records.sort()
        return records

    def flow_records_report(self, limit: int = 1024) -> Dict[str, object]:
        """The ``/flows/records`` body: sealed flow records as parsed
        JSON documents (schema ``repro-flowrecords/1``)."""
        from ..net.flowrecord import FLOWRECORDS_SCHEMA

        lines = self.flow_record_lines()
        return {
            "schema": FLOWRECORDS_SCHEMA,
            "app": self.config.app_name,
            "count": len(lines),
            "records": [_json.loads(line) for line in lines[:limit]],
        }

    def metrics_jsonl(self) -> str:
        import io

        with self._lock:
            buffer = io.StringIO()
            self.metrics.emit_jsonl(buffer, meta={
                "app": self.config.app_name, "mode": "service",
            })
            return buffer.getvalue()

    def metrics_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4)."""
        with self._lock:
            return _promtext.render(self.metrics.collect())

    def history_report(self,
                       window: Optional[float] = None) -> Dict[str, object]:
        """The time-series ring as one JSON document (the
        ``/metrics/history`` body): schema tag plus the samples inside
        *window* seconds of the newest one (all of them when None)."""
        with self._lock:
            samples = self.history.history(window=window)
        return {
            "schema": TIMESERIES_SCHEMA,
            "app": self.config.app_name,
            "window": window,
            "count": len(samples),
            "samples": samples,
        }

    def _start_http(self) -> None:
        if self.config.http_host is None or self.config.http_port is None:
            return
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        service = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # silence per-request noise
                pass

            def _send(self, code: int, body: bytes,
                      content_type: str) -> None:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _send_json(self, code: int, doc) -> None:
                body = (_json.dumps(doc, sort_keys=True) + "\n").encode()
                self._send(code, body, "application/json")

            def do_GET(self):  # noqa: N802 — http.server's spelling
                from urllib.parse import parse_qs

                path, __, query = self.path.partition("?")
                params = parse_qs(query)
                try:
                    if path == "/healthz":
                        code, doc = service.healthz()
                        self._send_json(code, doc)
                    elif path == "/stats":
                        self._send_json(200, service.stats_report())
                    elif path == "/flows":
                        self._send_json(200, service.flows_report())
                    elif path == "/flows/records":
                        self._send_json(200,
                                        service.flow_records_report())
                    elif path == "/metrics":
                        # Content negotiation: JSON-lines natively,
                        # the Prometheus text format for scrapers
                        # (?format=prometheus or Accept: text/plain).
                        fmt = params.get("format", [None])[0]
                        accept = self.headers.get("Accept", "") or ""
                        if fmt == "prometheus" or (
                                fmt is None and "text/plain" in accept):
                            self._send(
                                200,
                                service.metrics_prometheus().encode(),
                                _promtext.CONTENT_TYPE)
                        else:
                            self._send(200,
                                       service.metrics_jsonl().encode(),
                                       "application/jsonl")
                    elif path == "/metrics/history":
                        raw = params.get("window", [None])[0]
                        window = float(raw) if raw is not None else None
                        self._send_json(200,
                                        service.history_report(window))
                    else:
                        self._send_json(404, {"error": "not found",
                                              "path": path})
                except Exception as error:  # pragma: no cover
                    self._send_json(500, {"error": str(error)})

        self._httpd = ThreadingHTTPServer(
            (self.config.http_host, self.config.http_port), Handler)
        self._httpd.daemon_threads = True
        self.http_address = self._httpd.server_address[:2]
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="service-http",
            daemon=True)
        self._http_thread.start()

    def _stop_http(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None

    # -- service.json ------------------------------------------------------

    def _service_json_path(self) -> str:
        return _os.path.join(self.config.logdir, "service.json")

    def _write_service_json(self, state: str,
                            extra: Optional[Dict] = None,
                            name: str = "service.json") -> str:
        """The discovery file live tooling resolves the service from
        (``servicetop`` reads ``http`` out of it).  ``service.json``
        exists exactly while the service runs — the drain removes it
        and leaves the terminal document in ``service-final.json``."""
        _os.makedirs(self.config.logdir, exist_ok=True)
        doc: Dict[str, object] = {
            "schema": SERVICE_SCHEMA,
            "pid": _os.getpid(),
            "state": state,
            "started_ts": self._started_ts,
            "http": ({"host": self.http_address[0],
                      "port": self.http_address[1]}
                     if self.http_address else None),
            "config": self.config.as_dict(),
        }
        if extra:
            doc.update(extra)
        path = _os.path.join(self.config.logdir, name)
        with open(path, "w") as stream:
            _json.dump(doc, stream, indent=2, sort_keys=True)
            stream.write("\n")
        return path

    def _remove_service_json(self) -> None:
        try:
            _os.remove(self._service_json_path())
        except OSError:
            pass

    # -- running -----------------------------------------------------------

    def serve(self) -> int:
        """Run until stopped; drain; write artifacts; return the exit
        code (0 = clean drain)."""
        config = self.config
        self._started_at = _time.monotonic()
        self._started_ts = _time.time()
        self._start_http()
        self._write_service_json("running")
        for lane in self.lanes:
            self._start(lane)
        self._ingest_thread = threading.Thread(
            target=self._ingest_body, name="service-ingest", daemon=True)
        self._ingest_thread.start()

        next_tick = self._started_at + config.tick_seconds
        try:
            while not self._stop.is_set():
                now = _time.monotonic()
                if (config.duration_seconds is not None
                        and now - self._started_at
                        >= config.duration_seconds):
                    self.request_stop("duration")
                    break
                # Failed lanes are excluded: nothing consumes their
                # queues (a put() racing the escalation drain can still
                # land an item there; the drain re-counts it).
                if self.ingest_done and all(
                        lane.depth() == 0 for lane in self.lanes
                        if not lane.failed):
                    self.request_stop("source exhausted")
                    break
                self._supervise(now)
                if now >= next_tick:
                    self._sample()
                    next_tick += config.tick_seconds
                self._stop.wait(0.02)
        except KeyboardInterrupt:
            self.request_stop("interrupt")
        finally:
            self.exit_code = self._drain()
        return self.exit_code

    def _drain(self) -> int:
        """Stop ingest, let lanes finish their queues/rings, finalize
        every app, flush telemetry, write artifacts."""
        config = self.config
        self._stop.set()
        if self.stop_reason is None:
            self.stop_reason = "drain"
        if self._ingest_thread is not None:
            self._ingest_thread.join(timeout=config.drain_timeout)

        lines: List[str] = []
        for lane in self.lanes:
            result = lane.drain(config.drain_timeout)
            error = lane.take_error()
            if error is not None:
                self._crash(lane, _time.monotonic(), error)
            lines.extend(lane.archived_lines)
            if result is None:
                continue
            lane.end_stats = result["stats"]
            lane.end_sessions = result["sessions"]
            lines.extend(result["lines"])
            lane.archived_records.extend(result["flow_records"])
            if result["metrics"]:
                self._merge_lane_series(lane.index, result["metrics"])
        lines.sort()
        hung = any(lane.hung for lane in self.lanes)

        self._sample()
        self.artifacts = self._write_artifacts(lines)
        self._stop_http()
        exit_code = 1 if hung else 0
        self._write_service_json("drained", {
            "exit_code": exit_code,
            "stop_reason": self.stop_reason,
            "totals": self.totals(),
            "sessions": self.session_totals(),
            "artifacts": self.artifacts,
        }, name="service-final.json")
        self._remove_service_json()
        return exit_code

    def _merge_lane_series(self, index: int, series: List[Dict]) -> None:
        """Fold one finished lane's final registry into the service's:
        additively unlabeled (the aggregate), and under ``worker=N``
        for attribution.  The labeled scalar copies are *set*, not
        added — the aggregator's periodic TELEM application already
        mirrors the worker's cumulative values there, and the final
        flush must overwrite that mirror, never stack on it.
        Histograms never travel in TELEM, so their labeled copies
        merge additively exactly once, here."""
        label = str(index)
        with self._lock:
            self.metrics.merge_series(series)
            histograms = [entry for entry in series
                          if entry["kind"] == "histogram"]
            if histograms:
                self.metrics.merge_series(
                    histograms, extra_labels={"worker": label})
            scalars = [entry for entry in series
                       if entry["kind"] != "histogram"]
            self._apply_worker_snapshot(label, {"series": scalars})

    def _write_artifacts(self, lines: List[str]) -> List[str]:
        from ..net.flowrecord import write_flowrecords_jsonl
        from .pipeline import write_metrics_jsonl

        config = self.config
        _os.makedirs(config.logdir, exist_ok=True)
        written: List[str] = []

        results_path = _os.path.join(config.logdir, config.results_name)
        with open(results_path, "w") as stream:
            for line in lines:
                stream.write(line + "\n")
        written.append(results_path)

        # The drain already harvested every live app's ledger into the
        # lanes' archives; persist the sorted union.
        records = sorted(
            line for lane in self.lanes for line in lane.archived_records)
        written.append(write_flowrecords_jsonl(
            _os.path.join(config.logdir, "flow_records.jsonl"),
            config.app_name, records))

        with self._lock:
            written.append(write_metrics_jsonl(
                _os.path.join(config.logdir, "metrics.jsonl"),
                self.metrics, meta={"app": config.app_name,
                                    "mode": "service"}))
            history_path = _os.path.join(config.logdir,
                                         "timeseries.jsonl")
            with open(history_path, "w") as stream:
                self.history.emit_jsonl(stream, meta={
                    "app": config.app_name, "mode": "service"})
            written.append(history_path)

        stats_path = _os.path.join(config.logdir, "stats.log")
        with open(stats_path, "w") as stream:
            stream.write(self._render_stats())
        written.append(stats_path)
        return written

    def _render_stats(self) -> str:
        report = self.stats_report()
        out = [f"# stats.log — service run ({report['app']})"]
        out.append(f"uptime_seconds {report['uptime_seconds']}")
        out.append(f"stop_reason {report['stop_reason']}")
        for name in sorted(report["totals"]):
            out.append(f"{name} {int(report['totals'][name])}")
        sessions = report["sessions"]
        for name in sorted(sessions):
            out.append(f"sessions_{name} {sessions[name]}")
        for lane in report["lanes"]:
            out.append("")
            out.append(f"[lane {lane['lane']}]")
            for key in ("processed", "crashes", "restarts",
                        "packets_lost", "queue_high_water", "queue_shed",
                        "failed"):
                out.append(f"{key} {lane[key]}")
        return "\n".join(out) + "\n"
