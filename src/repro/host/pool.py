"""A persistent, shared-memory-fed worker pool for flow-parallel runs.

The real-parallelism backend of
:class:`~repro.host.parallel.ParallelPipeline` (and the streaming
service's pool lane transport).  It pays neither a per-run worker spawn
nor a per-packet pickle, mirroring the DPDK burst-processing idiom:

* **Workers spawn once and stay hot.**  A :class:`WorkerPool` owns N
  subprocesses that live across runs (and across service restarts);
  each run ships its pickled :class:`~repro.host.parallel.LaneSpec`
  to the workers, which build fresh lanes per run but pay
  interpreter/module startup exactly once.  Pre-assigned flow uids
  follow as the run streams, each worker's ahead of the batch that
  first needs them.
* **Packets travel as length-prefixed batches through shared-memory
  rings** (:class:`~repro.host.ring.ShmRing`, one SPSC pair per
  worker).  The producer packs ~hundreds of frames into one ring
  record; the worker slices frames straight out of the mapped buffer —
  no per-packet pickling, no per-packet syscalls.
* **Results return batched** the same way: the worker pickles its
  whole lane result once and streams it back through its out-ring in
  chunks, with periodic ``PROGRESS`` messages so the parent (and the
  streaming service's conservation accounting) always knows how many
  packets a worker has actually retired.

Failure semantics: a worker death or in-run error is detected by
liveness polling against a deadline, the un-retired packet count is
reported in the diagnostic (the conservation counters), the run fails
loudly instead of hanging, and the dead worker is respawned so the
pool stays usable for the next run.
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
import time as _time
from typing import Callable, Dict, List, Optional, Tuple

from .ring import MessageChannel, ShmRing
from .worker import (
    MSG_BEGIN,
    MSG_DATA,
    MSG_END,
    MSG_ERROR,
    MSG_PROGRESS,
    MSG_RESULT,
    MSG_SHUTDOWN,
    MSG_TELEM,
    MSG_UIDS,
    encode_packet,
    pack_run_prefix,
    parse_progress,
    parse_run_prefix,
    pool_worker_main,
)

__all__ = ["PoolError", "WorkerPool", "default_start_method"]


class PoolError(RuntimeError):
    """A pool run failed; ``failures`` lists per-worker diagnostics and
    ``jobs_lost`` counts packets that were handed to dead workers but
    never retired."""

    def __init__(self, message: str, failures: List[str],
                 jobs_lost: int = 0):
        super().__init__(message)
        self.failures = failures
        self.jobs_lost = jobs_lost


def default_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class _WorkerState:
    """Parent-side bookkeeping for one pool worker."""

    def __init__(self, index: int, ring_bytes: int):
        self.index = index
        self.in_ring = ShmRing(ring_bytes)
        self.out_ring = ShmRing(ring_bytes)
        self.inbox = MessageChannel(self.out_ring)   # worker -> parent
        self.outbox = MessageChannel(self.in_ring)   # parent -> worker
        self.proc = None
        self.run_id = 0
        self.reset_run()

    def reset_run(self) -> None:
        self.batch = bytearray()
        self.batch_count = 0
        self.uids: List[Tuple] = []
        self.pushed = 0
        self.progressed = 0
        self.ended = False
        self.result: Optional[Dict] = None
        self.failure: Optional[str] = None
        self.telem: Optional[Dict] = None


class WorkerPool:
    """N persistent lane workers fed by batched shared-memory rings.

    One pool serves many runs through one surface, :meth:`begin_run`
    (or per worker :meth:`begin_worker`) / :meth:`feed` / :meth:`flush`
    / :meth:`finish` / :meth:`collect`: the ``pool`` backend of
    :class:`~repro.host.parallel.ParallelPipeline` drives it as its plan
    streams, the service's ring-fed lanes as their sources deliver.  Use
    :meth:`WorkerPool.shared` to reuse one pool per ``(workers,
    start_method)`` across runs — that reuse is where the per-run
    spawn cost goes away.
    """

    #: Flush a batch once it holds this many packets ...
    BATCH_PACKETS = 256
    #: ... or this many payload bytes, whichever comes first.  A batch
    #: fits its ring whole, so the channel lands it all or nothing (a
    #: timed-out push leaves no partial message behind).
    BATCH_BYTES = 128 * 1024
    #: Each ring holds the batches in flight, about two: the parent
    #: touches every page of its in-rings as they cycle.  A caller that
    #: sheds on a full ring passes more room to absorb bursts.
    RING_BYTES = 2 * BATCH_BYTES

    _shared: Dict[Tuple[int, str], "WorkerPool"] = {}

    def __init__(self, workers: int, ring_bytes: int = RING_BYTES,
                 start_method: Optional[str] = None):
        if workers < 1:
            raise ValueError("pool needs at least one worker")
        self.workers = workers
        self.start_method = start_method or default_start_method()
        self._ctx = multiprocessing.get_context(self.start_method)
        self._states = [_WorkerState(i, ring_bytes)
                        for i in range(workers)]
        self._spec_blob: Optional[bytes] = None
        self.closed = False
        self.runs_served = 0
        for state in self._states:
            self._spawn(state)
        atexit.register(self.close)

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def shared(cls, workers: int, start_method: Optional[str] = None,
               ring_bytes: int = RING_BYTES) -> "WorkerPool":
        """The process-wide pool for this worker count (and start
        method) — created on first use, with *ring_bytes* rings, and
        reused ever after."""
        method = start_method or default_start_method()
        key = (workers, method)
        pool = cls._shared.get(key)
        if pool is not None and pool.closed:
            pool = None
        if pool is None:
            pool = cls(workers, ring_bytes=ring_bytes, start_method=method)
            cls._shared[key] = pool
        return pool

    def _spawn(self, state: _WorkerState) -> None:
        state.proc = self._ctx.Process(
            target=pool_worker_main,
            args=(state.in_ring.name, state.out_ring.name),
            name=f"pool-worker-{state.index}",
            daemon=True,
        )
        state.proc.start()

    def alive(self, index: int) -> bool:
        proc = self._states[index].proc
        return proc is not None and proc.is_alive()

    def exitcode(self, index: int) -> Optional[int]:
        proc = self._states[index].proc
        return proc.exitcode if proc is not None else None

    def pids(self) -> List[Optional[int]]:
        return [state.proc.pid if state.proc else None
                for state in self._states]

    def respawn(self, index: int) -> None:
        """Replace a dead (or wedged) worker with a fresh process.

        Both rings are reset — safe because the peer is gone — and any
        half-received message state is dropped with them.
        """
        state = self._states[index]
        if state.proc is not None:
            if state.proc.is_alive():
                state.proc.terminate()
            state.proc.join(timeout=5.0)
        state.in_ring.reset()
        state.out_ring.reset()
        state.inbox.reset()
        state.outbox.reset()
        self._spawn(state)

    def close(self) -> None:
        """Shut every worker down and release the shared memory."""
        if self.closed:
            return
        self.closed = True
        for state in self._states:
            if state.proc is not None and state.proc.is_alive():
                state.outbox.send(MSG_SHUTDOWN, timeout=0.5)
        for state in self._states:
            if state.proc is not None:
                state.proc.join(timeout=2.0)
                if state.proc.is_alive():
                    state.proc.terminate()
                    state.proc.join(timeout=2.0)
        for state in self._states:
            state.in_ring.close()
            state.out_ring.close()

    # -- the per-run protocol ----------------------------------------------

    @staticmethod
    def spec_blob(spec) -> bytes:
        """The pickled ``(spec, uid_map)`` a ``BEGIN`` message carries;
        the map starts empty and fills through :meth:`feed`'s *uids*."""
        return pickle.dumps((spec, {}), protocol=pickle.HIGHEST_PROTOCOL)

    def begin_run(self, spec) -> None:
        """Arm every worker for a new run (respawning any dead ones)."""
        self._spec_blob = self.spec_blob(spec)
        self.runs_served += 1
        for state in self._states:
            if not self.alive(state.index):
                self.respawn(state.index)
            self.begin_worker(state.index)

    def begin_worker(self, index: int,
                     blob: Optional[bytes] = None) -> None:
        """(Re)start one worker's run: a fresh lane from *blob* (a
        :meth:`spec_blob`; default: the current run's), a fresh epoch."""
        state = self._states[index]
        state.run_id += 1
        state.reset_run()
        state.outbox.send(
            MSG_BEGIN, pack_run_prefix(state.run_id)
            + (blob if blob is not None else self._spec_blob))

    def feed(self, index: int, nanos: int, frame: bytes, *,
             uids: Tuple = (), wait: Optional[float] = None,
             should_stop: Optional[Callable[[], bool]] = None) -> bool:
        """Queue one packet for a worker, flushing full batches; *uids*
        are ``(key, uid)`` entries the lane's map must hold before the
        packet runs (they travel in a ``UIDS`` message ahead of its
        batch).

        ``wait=None`` blocks for ring space (re-checking *should_stop*)
        — the service's backpressure policy; a finite ``wait`` bounds
        the stall and returns ``False`` without consuming the packet —
        the shed policy.  A ``False`` return means the packet was NOT
        accepted.  At most one unflushed batch is held per worker."""
        state = self._states[index]
        if (state.batch_count >= self.BATCH_PACKETS
                or len(state.batch) >= self.BATCH_BYTES):
            if not self.flush(index, wait=wait, should_stop=should_stop):
                return False
        if uids:
            state.uids.extend(uids)
        encode_packet(state.batch, nanos, frame)
        state.batch_count += 1
        return True

    def flush(self, index: int, *, wait: Optional[float] = None,
              should_stop: Optional[Callable[[], bool]] = None) -> bool:
        """Push the worker's buffered batch as one ring record, its
        pending uid entries first."""
        state = self._states[index]
        if not state.batch_count:
            return True
        if state.uids:
            if not state.outbox.send(
                    MSG_UIDS, pack_run_prefix(state.run_id) + pickle.dumps(
                        state.uids, protocol=pickle.HIGHEST_PROTOCOL),
                    timeout=wait, should_stop=should_stop):
                return False
            state.uids = []
        ok = state.outbox.send(
            MSG_DATA, pack_run_prefix(state.run_id) + bytes(state.batch),
            timeout=wait, should_stop=should_stop)
        if ok:
            state.pushed += state.batch_count
            state.batch = bytearray()
            state.batch_count = 0
        return ok

    def finish(self, index: int, timeout: Optional[float] = None,
               should_stop: Optional[Callable[[], bool]] = None) -> bool:
        """Flush any tail batch and mark the worker's run complete."""
        state = self._states[index]
        if state.ended:
            return True
        if not self.flush(index, wait=timeout, should_stop=should_stop):
            return False
        ok = state.outbox.send(
            MSG_END, pack_run_prefix(state.run_id), timeout=timeout,
            should_stop=should_stop)
        state.ended = ok
        return ok

    def poll(self, index: int) -> None:
        """Drain the worker's outbound messages without blocking:
        progress updates, the final result, or an error report."""
        state = self._states[index]
        while True:
            message = state.inbox.recv(timeout=0.0)
            if message is None:
                return
            tag, payload = message
            if tag == MSG_PROGRESS:
                run_id, processed = parse_progress(payload)
                if run_id == state.run_id:
                    state.progressed = processed
            elif tag == MSG_RESULT:
                run_id, body = parse_run_prefix(payload)
                if run_id == state.run_id:
                    state.result = pickle.loads(body)
                    state.progressed = state.result.get(
                        "stats", {}).get("packets", state.progressed)
            elif tag == MSG_TELEM:
                run_id, body = parse_run_prefix(payload)
                if run_id == state.run_id:
                    try:
                        state.telem = pickle.loads(body)
                    except Exception:
                        pass  # a torn snapshot never poisons the run
            elif tag == MSG_ERROR:
                run_id, body = parse_run_prefix(payload)
                if run_id == state.run_id:
                    diagnostic = pickle.loads(body)
                    state.progressed = int(
                        diagnostic.get("processed", state.progressed))
                    state.failure = diagnostic.get("error", "worker error")

    def pushed(self, index: int) -> int:
        return self._states[index].pushed

    def buffered(self, index: int) -> int:
        """Packets accepted by :meth:`feed` but not yet flushed into
        the ring (lost if the worker dies before the next flush)."""
        return self._states[index].batch_count

    def progressed(self, index: int) -> int:
        return self._states[index].progressed

    def failure(self, index: int) -> Optional[str]:
        return self._states[index].failure

    def down(self, index: int) -> bool:
        """Drain the worker's messages; ``True`` once its run failed or
        its process died (a feeder's *should_stop* while it waits for
        ring space)."""
        self.poll(index)
        return (self._states[index].failure is not None
                or not self.alive(index))

    def telemetry(self, index: int) -> Optional[Dict]:
        """The worker's most recent ``TELEM`` snapshot this run (None
        until one arrives or when the lane's telemetry is off)."""
        return self._states[index].telem

    def collect(self, index: int, timeout: float) -> Dict:
        """Wait for one worker's result; raise :class:`PoolError` with
        the lost-packet accounting (every packet :meth:`feed` accepted
        that the worker never retired, an unflushed batch included) on
        error, death, or deadline."""
        state = self._states[index]
        deadline = _time.monotonic() + timeout
        while True:
            self.poll(index)
            if state.result is not None:
                return state.result
            lost = max(0, state.pushed + state.batch_count
                       - state.progressed)
            if state.failure is not None:
                raise PoolError(
                    f"worker {index}: {state.failure} "
                    f"({lost} queued packets lost)",
                    [state.failure], jobs_lost=lost)
            if not self.alive(index):
                # One grace poll: the result may already be in the ring.
                self.poll(index)
                if state.result is not None:
                    return state.result
                exitcode = state.proc.exitcode if state.proc else None
                raise PoolError(
                    f"worker {index} died (exitcode {exitcode}) "
                    f"with {lost} queued packets lost",
                    [f"worker {index} died (exitcode {exitcode})"],
                    jobs_lost=lost)
            if _time.monotonic() >= deadline:
                raise PoolError(
                    f"worker {index} produced no result within "
                    f"{timeout:.1f}s ({lost} queued packets unaccounted)",
                    [f"worker {index}: result deadline exceeded"],
                    jobs_lost=lost)
            _time.sleep(0.001)


def shutdown_shared_pools() -> None:
    """Close every cached shared pool (test teardown helper)."""
    for pool in list(WorkerPool._shared.values()):
        pool.close()
    WorkerPool._shared.clear()
