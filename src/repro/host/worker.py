"""The subprocess entry point of the pool backend.

This module is deliberately **side-effect-free at import time**: it
pulls in only the standard library and :mod:`repro.host.ring`, and
imports the runtime pieces it needs (``Time``) lazily inside the
functions.  That is what makes the ``spawn`` start method
safe — a spawned child imports the module named by the process target
before anything runs, and the original home of the worker body
(:mod:`repro.host.parallel`) drags in the whole host substrate, which
under ``spawn`` re-executed driver-module import work in every worker.
Keeping the entry here means a worker boots with no application code
at all until a pickled :class:`~repro.host.parallel.LaneSpec` arrives
and names what to build.

The entry point is :func:`pool_worker_main` — the persistent pool
worker: a loop over a shared-memory ring that serves many runs without
respawning, parsing length-prefixed packet batches straight off the
ring.

The pool protocol is tagged messages (:class:`~repro.host.ring.
MessageChannel`) with a per-run epoch so late batches of a failed run
are discarded instead of corrupting the next one::

    parent -> worker:  BEGIN(run, spec+{})
                       (UIDS(run, entries)? DATA(run, batch))*
                       END(run)            ...next run...   SHUTDOWN
    worker -> parent:  PROGRESS(run, count)*  TELEM(run, snapshot)*
                       then RESULT(run, result) or ERROR(run, diagnostic)

``BEGIN`` carries the spec and an empty uid map, so a lane builds
before the parent has read a packet.  ``UIDS`` carries the
``(flow key, uid)`` entries the parent's plan assigned first for
packets of the ``DATA`` batch right behind it; the worker merges them
into the map its lane holds by reference, so every uid lands before the
packet that needs it.

``TELEM`` is the cross-process observability plane: a worker whose lane
has telemetry armed ships periodic pickled snapshots of its own
registry (plus the cheap ``live_metrics`` counters and span totals)
back through the same ring, so the parent — the streaming service's
aggregator in particular — can expose per-worker series while the run
is still in flight.  The final, complete registry still travels in
``RESULT`` (the lane result's ``metrics``/``prof`` entries); TELEM is
the live view, not the record of truth.  When telemetry is disabled
the worker never builds a snapshot and never sends the message — the
disabled path stays a no-op.
"""

from __future__ import annotations

import pickle
import signal
import struct
import time as _time
import traceback
from typing import Dict, Iterator, List, Tuple

from .ring import MessageChannel, ShmRing

__all__ = [
    "MSG_BEGIN",
    "MSG_DATA",
    "MSG_END",
    "MSG_ERROR",
    "MSG_PROGRESS",
    "MSG_RESULT",
    "MSG_SHUTDOWN",
    "MSG_TELEM",
    "MSG_UIDS",
    "TELEM_INTERVAL",
    "decode_batch",
    "encode_packet",
    "pool_worker_main",
    "telemetry_snapshot",
]

# Message tags (one byte each; see module docstring for the protocol).
MSG_BEGIN = 1
MSG_DATA = 2
MSG_END = 3
MSG_RESULT = 4
MSG_ERROR = 5
MSG_PROGRESS = 6
MSG_SHUTDOWN = 7
MSG_TELEM = 8
MSG_UIDS = 9

#: Minimum seconds between periodic TELEM snapshots from one worker.
TELEM_INTERVAL = 0.25

_RUN = struct.Struct("<I")      # run epoch prefix on run-scoped messages
_PKT = struct.Struct("<QI")     # per-packet batch header: nanos, length
_PROGRESS = struct.Struct("<IQ")  # run epoch, packets processed


def encode_packet(buf: bytearray, nanos: int, frame: bytes) -> None:
    """Append one ``(nanos, frame)`` record to a batch buffer."""
    buf += _PKT.pack(nanos, len(frame))
    buf += frame


def decode_batch(payload: bytes) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(nanos, frame)`` records from one batch payload."""
    offset = 0
    end = len(payload)
    size = _PKT.size
    while offset < end:
        nanos, length = _PKT.unpack_from(payload, offset)
        offset += size
        yield nanos, payload[offset:offset + length]
        offset += length


def telemetry_snapshot(lane, processed: int) -> Dict:
    """One worker-local telemetry snapshot, as picklable plain data.

    Built only when the lane's telemetry is armed (callers guard on
    ``lane.telemetry.any_enabled``); ``series`` is the lane registry's
    ``collect()`` — sparse mid-run for apps that export at ``on_end``,
    which is why the cheap ``live`` counters ride along.
    """
    telemetry = lane.telemetry
    snapshot: Dict[str, object] = {
        "processed": processed,
        "ts": _time.time(),
    }
    try:
        snapshot["live"] = lane.live_metrics()
        snapshot["sessions"] = lane.session_stats()
    except Exception:
        snapshot["live"] = {}
    if telemetry.enabled:
        snapshot["series"] = telemetry.metrics.collect()
    tracer = telemetry.tracer
    if tracer.enabled:
        snapshot["spans_started"] = tracer.spans_started
        snapshot["spans_dropped"] = tracer.spans_dropped
    return snapshot


# --------------------------------------------------------------------------
# The persistent pool worker (``--backend pool``)
# --------------------------------------------------------------------------


def pool_worker_main(in_name: str, out_name: str) -> None:
    """The pool worker loop: attach both rings, then serve runs until
    a ``SHUTDOWN`` message (or a closed parent) ends the process.

    A failure inside one run (lane construction, a packet, the final
    harvest) is reported as ``ERROR`` and poisons only that run: the
    worker stays alive, discards the failed run's remaining traffic by
    epoch, and serves the next ``BEGIN`` normally.
    """
    # A forked worker inherits its parent's Python signal handlers — the
    # service's graceful-drain SIGTERM handler among them — which would
    # make the pool's terminate() (respawn, close) a no-op.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    in_ring = ShmRing.attach(in_name)
    out_ring = ShmRing.attach(out_name)
    inbox = MessageChannel(in_ring)
    outbox = MessageChannel(out_ring)

    lane = None
    spec = None
    uid_map = None
    admit = None
    run_id = -1
    processed = 0
    telem_armed = False
    last_telem = 0.0

    def fail(error: BaseException) -> None:
        nonlocal lane, spec
        lane = None
        spec = None
        diagnostic = {
            "error": repr(error),
            "traceback": traceback.format_exc(),
            "processed": processed,
        }
        outbox.send(MSG_ERROR,
                    _RUN.pack(run_id) + pickle.dumps(diagnostic),
                    timeout=5.0)

    try:
        from ..core.values import Time
        from ..runtime.faults import NULL_INJECTOR

        while True:
            # A long timeout keeps an idle worker in one deep-backoff
            # pop instead of restarting the backoff ladder twice a
            # second; shutdown and BEGIN latency are bounded by the
            # ring's 50ms backoff cap, not by this value.
            message = inbox.recv(timeout=30.0)
            if message is None:
                continue
            tag, payload = message
            if tag == MSG_SHUTDOWN:
                return
            msg_run = _RUN.unpack_from(payload, 0)[0]
            body = payload[_RUN.size:]
            if tag == MSG_BEGIN:
                run_id = msg_run
                processed = 0
                try:
                    spec, uid_map = pickle.loads(body)
                    lane = spec.make_lane(uid_map)
                    lane.on_begin()
                    # Resolved once per run: an unarmed injector keeps
                    # the packet loop free of fault calls.
                    services = lane.services
                    admit = (None if services.faults is NULL_INJECTOR
                             else services.admit_to_lane)
                    telemetry = getattr(lane, "telemetry", None)
                    telem_armed = (telemetry is not None
                                   and telemetry.any_enabled)
                    last_telem = _time.monotonic()
                except BaseException as error:  # noqa: BLE001
                    fail(error)
                continue
            if msg_run != run_id or lane is None:
                # A stale message from a run that already failed (or
                # that a respawned sibling never saw): drop it.
                continue
            if tag == MSG_UIDS:
                uid_map.update(pickle.loads(body))
            elif tag == MSG_DATA:
                try:
                    for nanos, frame in decode_batch(body):
                        if admit is None or admit(nanos, frame):
                            lane.on_packet(Time.from_nanos(nanos), frame)
                        processed += 1
                except BaseException as error:  # noqa: BLE001
                    fail(error)
                    continue
                outbox.send(MSG_PROGRESS,
                            _PROGRESS.pack(run_id, processed),
                            timeout=5.0)
                # Periodic telemetry: the disabled path never reaches
                # the snapshot (one boolean test per batch, not per
                # packet — the NULL_SPAN discipline).
                if telem_armed:
                    now = _time.monotonic()
                    if now - last_telem >= TELEM_INTERVAL:
                        last_telem = now
                        try:
                            blob = pickle.dumps(
                                telemetry_snapshot(lane, processed),
                                protocol=pickle.HIGHEST_PROTOCOL)
                        except Exception:
                            blob = None
                        if blob is not None:
                            outbox.send(MSG_TELEM,
                                        _RUN.pack(run_id) + blob,
                                        timeout=1.0)
            elif tag == MSG_END:
                try:
                    lane.on_end()
                    result = pickle.dumps(
                        spec.lane_result(lane),
                        protocol=pickle.HIGHEST_PROTOCOL)
                except BaseException as error:  # noqa: BLE001
                    fail(error)
                    continue
                outbox.send(MSG_RESULT, _RUN.pack(run_id) + result)
                lane = None
                spec = None
    finally:
        in_ring.close()
        out_ring.close()


def parse_progress(payload: bytes) -> Tuple[int, int]:
    """Decode a ``PROGRESS`` payload into ``(run_id, processed)``."""
    return _PROGRESS.unpack(payload)


def parse_run_prefix(payload: bytes) -> Tuple[int, bytes]:
    """Split a run-scoped payload into ``(run_id, body)``."""
    return _RUN.unpack_from(payload, 0)[0], payload[_RUN.size:]


def pack_run_prefix(run_id: int) -> bytes:
    """The run-epoch prefix parents prepend to run-scoped messages."""
    return _RUN.pack(run_id)
