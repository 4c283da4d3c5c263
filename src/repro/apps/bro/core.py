"""The Bro core: event queue, network time, logging services.

The piece every other component plugs into: analyzers queue events, the
active script engine (interpreter or compiled HILTI) consumes them, and
builtins reach back here for time and log writes.  Per-component timing
lives here too — the paper instruments Bro to record time spent inside
protocol analysis, script execution, and glue code (section 6.1); the
``timers`` dict is that instrumentation.
"""

from __future__ import annotations

import heapq
import itertools
import sys
import time as _time
from collections import deque
from typing import Dict, List, Optional

from ...core.values import Time
from ...runtime.exceptions import HiltiError
from ...runtime.faults import (
    NULL_INJECTOR,
    SITE_SCRIPT_CALL,
    HealthReport,
    classify,
)
from .logging import LogManager
from .val import RecordType, RecordVal

__all__ = ["BroCore", "CONN_ID_TYPE", "CONNECTION_TYPE", "WEIRD_TYPE",
           "WEIRD_LOG_COLUMNS", "format_uid"]


def format_uid(value: int) -> str:
    """Bro-style connection uid for ordinal *value* (1-based).

    A module-level function so the flow-parallel dispatcher can
    pre-assign the exact uids the sequential pipeline's per-core counter
    would produce (docs/PARALLELISM.md).
    """
    digits = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    out = []
    while value:
        value, rem = divmod(value, 62)
        out.append(digits[rem])
    return "C" + "".join(reversed(out)).rjust(8, "0")

CONN_ID_TYPE = RecordType("conn_id", [
    ("orig_h", None), ("orig_p", None), ("resp_h", None), ("resp_p", None),
])

CONNECTION_TYPE = RecordType("connection", [
    ("uid", None), ("id", None), ("start_time", None), ("proto", None),
    # Filled in by the tracker just before connection_state_remove:
    ("duration", None), ("orig_bytes", None), ("resp_bytes", None),
    ("orig_pkts", None), ("resp_pkts", None), ("state", None),
])

# Bro-style weird.log records: every contained recovery action (analyzer
# quarantine, watchdog trip, dropped event) leaves an audit trail.
WEIRD_LOG_COLUMNS = ["ts", "uid", "name", "info"]

WEIRD_TYPE = RecordType("weird", [
    ("ts", None), ("uid", None), ("name", None), ("info", None),
])


class BroCore:
    """Shared services: events, time, logs, output, component timing."""

    def __init__(self, log_enabled: bool = True, print_stream=None):
        self._event_queue = deque()
        self._now = Time.EPOCH
        self.logs = LogManager(enabled=log_enabled)
        self.print_stream = print_stream or sys.stdout
        self.events_queued = 0
        self.events_dispatched = 0
        # Telemetry: per-event-name dispatch counts, collected only when
        # a host flips count_events (the disabled path stays allocation-
        # free on the dispatch hot loop).
        self.count_events = False
        self.event_counts: Dict[str, int] = {}
        # Component wall-clock accounting (ns): parsing / script / other
        # are filled by the runner; glue is read from the compiler's Glue.
        self.timers: Dict[str, int] = {
            "parsing": 0, "script": 0, "glue": 0, "other": 0,
        }
        self._uid_counter = 0
        self.script_engine = None
        # Fault-isolation services (repro.runtime.faults): the injector is
        # the null object unless a host arms one; the health report always
        # collects recovery counters; watchdog_budget, when set, bounds
        # instructions per packet in the HILTI execution contexts.
        self.faults = NULL_INJECTOR
        self.health = HealthReport()
        self.watchdog_budget = None
        # Events scheduled into the future (the `schedule` statement),
        # fired as network time advances past their due time.
        self._scheduled = []
        self._schedule_seq = itertools.count()

    # -- time ------------------------------------------------------------------

    def advance_time(self, when: Time) -> None:
        if when > self._now:
            self._now = when
        while self._scheduled and self._scheduled[0][0] <= self._now.nanos:
            __, __seq, name, args = heapq.heappop(self._scheduled)
            self.queue_event(name, list(args))

    def set_time(self, when: Time) -> None:
        """Set network time, even backwards, firing no scheduled
        events (end-of-run flow finalization runs at each flow's own
        clock)."""
        self._now = when

    def schedule_event(self, delay, name: str, args: List) -> None:
        """Queue *name(args)* once network time passes now + delay."""
        from ...core.values import Interval

        if not isinstance(delay, Interval):
            delay = Interval(float(delay))
        due = self._now + delay
        heapq.heappush(
            self._scheduled,
            (due.nanos, next(self._schedule_seq), name, tuple(args)),
        )

    def network_time(self) -> Time:
        return self._now

    # -- uids ------------------------------------------------------------------

    def next_uid(self) -> str:
        self._uid_counter += 1
        return format_uid(self._uid_counter)

    # -- events ------------------------------------------------------------------

    def queue_event(self, name: str, args: List) -> None:
        self._event_queue.append((name, args))
        self.events_queued += 1

    def drain_events(self) -> int:
        """Dispatch queued events into the active script engine.

        The script-engine call is an injection point and a containment
        boundary: a typed HILTI exception escaping one event handler —
        a script runtime error (``BroRuntimeError``) on either engine
        included — drops that event (counted, logged as a weird) but
        never aborts the run; later events still dispatch.
        """
        dispatched = 0
        engine = self.script_engine
        while self._event_queue:
            name, args = self._event_queue.popleft()
            if self.count_events:
                self.event_counts[name] = self.event_counts.get(name, 0) + 1
            begin = _time.perf_counter_ns()
            try:
                self.faults.check(SITE_SCRIPT_CALL)
                if engine is not None:
                    engine.dispatch(name, args)
                    engine.check_watchpoints()
            except HiltiError as error:
                self.health.record_error(SITE_SCRIPT_CALL)
                self.weird(classify(error), info=f"{name}: {error}")
            finally:
                self.timers["script"] += _time.perf_counter_ns() - begin
            dispatched += 1
        self.events_dispatched += dispatched
        return dispatched

    # -- logging / output ---------------------------------------------------------

    def log_write(self, stream: str, record: RecordVal) -> None:
        self.logs.write(stream, record)

    def weird(self, name: str, uid: str = "", info: str = "") -> None:
        """Record one recovery action in the weird log (if it exists)."""
        if "weird" not in self.logs.streams:
            return
        self.logs.write("weird", RecordVal(WEIRD_TYPE, {
            "ts": self.network_time(), "uid": uid,
            "name": name, "info": info,
        }))

    def print_line(self, text: str) -> None:
        self.print_stream.write(text + "\n")

    # -- value construction ----------------------------------------------------------

    def make_connection_val(self, uid: str, orig_h, orig_p, resp_h, resp_p,
                            start_time: Time, proto: str) -> RecordVal:
        conn_id = RecordVal(CONN_ID_TYPE, {
            "orig_h": orig_h, "orig_p": orig_p,
            "resp_h": resp_h, "resp_p": resp_p,
        })
        return RecordVal(CONNECTION_TYPE, {
            "uid": uid, "id": conn_id, "start_time": start_time,
            "proto": proto,
        })
