"""Shared-memory SPSC ring buffers for the persistent worker pool.

The process backend's original transport pickled every job through a
per-run ``Pipe`` — the per-packet overhead that made flow-parallelism
slower than sequential on the recorded benchmarks.  This module is the
replacement transport, mirroring the DPDK burst-processing idiom: a
power-of-two ring of raw bytes in ``multiprocessing.shared_memory``,
single producer and single consumer, with **length-prefixed records**
written and read by modular byte copies so wraparound needs no special
cases.  Producers amortize per-packet cost by writing whole batches as
one record; consumers slice frames straight out of the mapped buffer.

Layout (``capacity`` is a power of two)::

    [ head u64 | tail u64 | capacity u64 |  data bytes ... capacity ]

``tail`` is written only by the producer, ``head`` only by the
consumer; both are monotonically increasing byte cursors (masked by
``capacity - 1`` on access), so free space is ``capacity - (tail -
head)`` with no ambiguity between full and empty.  The cursors are
aligned 8-byte words read and written as items of a native ``"Q"``
memoryview — one 8-byte copy each, atomic on every platform CPython
runs on — and each is published *after* the record bytes it covers,
which is the entire correctness argument of an SPSC ring.  (Not
``struct.pack_into``: it zeroes the field before writing it, and a
consumer that reads that transient ``tail == 0`` against a non-zero
``head`` pops a record that was never written.)

On top of the raw ring, :class:`MessageChannel` frames logical messages
(a tag byte plus an arbitrarily large payload) as one or more chunked
records, so a pickled lane result far larger than the ring streams
through it without ever needing contiguous space.
"""

from __future__ import annotations

import struct
import time as _time
from multiprocessing import shared_memory
from typing import Callable, Optional, Tuple

__all__ = ["MessageChannel", "RingFull", "ShmRing"]

_HEADER = 24                       # head, tail, capacity: native u64s
_LEN = struct.Struct("<I")         # per-record length prefix

#: Polling interval while waiting on a full/empty ring.  The pool's
#: hot path never waits (batches land in one push); this bounds the
#: latency of backpressure and of idle consumers.
_POLL_SECONDS = 0.0002


class RingFull(Exception):
    """A bounded push found no space before its deadline."""


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without registering it with the resource
    tracker.

    The creator owns the segment's lifetime; under ``fork`` (and fd
    inheritance generally) parent and worker share one tracker process
    with one registration set per name, so an attach that registers and
    later unregisters would strip the *owner's* registration and make
    the owner's eventual ``unlink`` a double-unregister (a noisy
    KeyError in the tracker).  Registration is suppressed for the
    attach instead — Python 3.13's ``track=False``, hand-rolled.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class ShmRing:
    """A single-producer/single-consumer shared-memory byte ring.

    The creating process owns the segment (``close()`` unlinks it);
    workers attach by name via :meth:`attach`.  Records are pushed and
    popped whole: ``push`` refuses (returns ``False``) when the record
    does not fit in the free space, which is the pool's backpressure
    signal, and raises ``ValueError`` for a record that could *never*
    fit so oversized frames fail loudly instead of wedging the
    producer.
    """

    def __init__(self, capacity: int = 1 << 20, *, _shm=None, _owner=True):
        if _shm is not None:
            self._shm = _shm
            self._owner = _owner
            self._cursors = _shm.buf[:_HEADER].cast("Q")
            self.capacity = self._cursors[2]
        else:
            if capacity <= 0 or capacity & (capacity - 1):
                raise ValueError(
                    f"ring capacity must be a power of two, got {capacity}")
            self._shm = shared_memory.SharedMemory(
                create=True, size=_HEADER + capacity)
            self._owner = True
            self.capacity = capacity
            self._cursors = self._shm.buf[:_HEADER].cast("Q")
            self._cursors[2] = capacity
        self._mask = self.capacity - 1
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        """Map an existing ring by shared-memory name (worker side)."""
        return cls(_shm=_attach_untracked(name), _owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        """Unmap (and, for the owner, unlink) the segment."""
        if self._closed:
            return
        self._closed = True
        self._cursors.release()  # an exported view blocks the unmap
        try:
            self._shm.close()
        except Exception:
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except Exception:
                pass

    def reset(self) -> None:
        """Zero both cursors.  Only safe when the peer process is gone
        (the pool calls this while respawning a dead worker)."""
        self._cursors[0] = self._cursors[1] = 0

    # -- cursors -----------------------------------------------------------

    def _head(self) -> int:
        return self._cursors[0]

    def _tail(self) -> int:
        return self._cursors[1]

    def _set_head(self, value: int) -> None:
        self._cursors[0] = value

    def _set_tail(self, value: int) -> None:
        self._cursors[1] = value

    def used_bytes(self) -> int:
        return self._tail() - self._head()

    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes()

    # -- modular byte copies -----------------------------------------------

    def _write_at(self, cursor: int, data) -> None:
        buf = self._shm.buf
        offset = cursor & self._mask
        first = min(len(data), self.capacity - offset)
        buf[_HEADER + offset:_HEADER + offset + first] = data[:first]
        rest = len(data) - first
        if rest:
            buf[_HEADER:_HEADER + rest] = data[first:]

    def _read_at(self, cursor: int, size: int) -> bytes:
        buf = self._shm.buf
        offset = cursor & self._mask
        first = min(size, self.capacity - offset)
        out = bytes(buf[_HEADER + offset:_HEADER + offset + first])
        rest = size - first
        if rest:
            out += bytes(buf[_HEADER:_HEADER + rest])
        return out

    # -- the SPSC protocol -------------------------------------------------

    def push(self, payload) -> bool:
        """Append one length-prefixed record; ``False`` when it does
        not currently fit (backpressure), ``ValueError`` when it never
        could."""
        need = _LEN.size + len(payload)
        if need > self.capacity:
            raise ValueError(
                f"record of {len(payload)} bytes exceeds ring capacity "
                f"{self.capacity} (batch or chunk it)")
        tail = self._tail()
        if need > self.capacity - (tail - self._head()):
            return False
        self._write_at(tail, _LEN.pack(len(payload)))
        self._write_at(tail + _LEN.size, payload)
        # Publishing the tail is the release barrier: the consumer
        # never reads past it, so the record bytes are visible first.
        self._set_tail(tail + need)
        return True

    def push_wait(self, payload, timeout: Optional[float] = None,
                  should_stop: Optional[Callable[[], bool]] = None) -> bool:
        """``push`` with a bounded wait for space; ``False`` when the
        deadline passes or *should_stop* fires first."""
        return self._wait(lambda: self.push(payload), timeout, should_stop)

    def wait_free(self, need: int, timeout: Optional[float] = None,
                  should_stop: Optional[Callable[[], bool]] = None) -> bool:
        """Wait until *need* bytes are free; ``False`` when the deadline
        passes or *should_stop* fires first.  Only the producer fills
        the ring, so the space stays free for its next pushes."""
        return self._wait(lambda: need <= self.free_bytes(), timeout,
                          should_stop)

    @staticmethod
    def _wait(ready: Callable[[], bool], timeout: Optional[float],
              should_stop: Optional[Callable[[], bool]]) -> bool:
        deadline = (None if timeout is None
                    else _time.monotonic() + timeout)
        while True:
            if ready():
                return True
            if should_stop is not None and should_stop():
                return False
            if deadline is not None and _time.monotonic() >= deadline:
                return False
            _time.sleep(_POLL_SECONDS)

    def pop(self, timeout: float = 0.0) -> Optional[bytes]:
        """Pop the oldest record, waiting up to *timeout* seconds;
        ``None`` when the ring stays empty.

        The wait backs off exponentially in two phases: 0.2ms → 5ms
        for the first ~quarter second of emptiness (a mid-run stall —
        the producer is about to push more, so stay responsive), then
        deepening to 50ms (a consumer idle *between* runs — a pool
        worker parked on an empty ring — costs tens of wakeups per
        second instead of five thousand and cannot perturb
        timing-sensitive work elsewhere on the box).
        """
        deadline = _time.monotonic() + timeout if timeout else None
        sleep = _POLL_SECONDS
        slept = 0.0
        while True:
            head = self._head()
            if self._tail() != head:
                size = _LEN.unpack(self._read_at(head, _LEN.size))[0]
                payload = self._read_at(head + _LEN.size, size)
                self._set_head(head + _LEN.size + size)
                return payload
            if deadline is None or _time.monotonic() >= deadline:
                return None
            _time.sleep(sleep)
            slept += sleep
            sleep = min(sleep * 2, 0.05 if slept >= 0.25 else 0.005)


class MessageChannel:
    """Tagged, arbitrarily sized messages over one :class:`ShmRing`.

    Each logical message ``(tag, payload)`` becomes one or more ring
    records of ``tag byte | last-chunk flag | payload part``; because
    the ring is SPSC and FIFO, chunks of one message are contiguous and
    reassembly needs only a running buffer.  ``recv`` returns complete
    messages; a partially received message survives across calls.
    """

    #: Chunk bound: small enough that four in-flight chunks fit any
    #: ring, large enough to amortize the per-record cursor traffic.
    MAX_CHUNK = 256 * 1024

    def __init__(self, ring: ShmRing):
        self.ring = ring
        self._chunk = min(self.MAX_CHUNK, ring.capacity // 4)
        self._partial_tag: Optional[int] = None
        self._partial = bytearray()

    def reset(self) -> None:
        """Drop partial reassembly state (after a peer death)."""
        self._partial_tag = None
        self._partial = bytearray()

    def send(self, tag: int, payload=b"",
             timeout: Optional[float] = None,
             should_stop: Optional[Callable[[], bool]] = None) -> bool:
        """Send one message, chunking as needed; ``False`` if it failed
        to land before the deadline.  A message that fits the ring
        whole waits for room for all its chunks first, so it lands all
        or nothing; a larger one can fail with its head sent (the
        message is then truncated mid-stream — callers treat the
        channel as dead)."""
        view = memoryview(payload)
        total = len(view)
        records = total // self._chunk + 1
        need = total + records * (_LEN.size + 2)
        if need <= self.ring.capacity and not self.ring.wait_free(
                need, timeout=timeout, should_stop=should_stop):
            return False
        offset = 0
        while True:
            end = min(offset + self._chunk, total)
            last = 1 if end == total else 0
            record = bytes([tag, last]) + bytes(view[offset:end])
            if not self.ring.push_wait(record, timeout=timeout,
                                       should_stop=should_stop):
                return False
            offset = end
            if last:
                return True

    def recv(self, timeout: float = 0.0) -> Optional[Tuple[int, bytes]]:
        """Receive the next complete message as ``(tag, payload)``, or
        ``None`` when no complete message arrives in *timeout*."""
        deadline = _time.monotonic() + timeout if timeout else None
        while True:
            remaining = 0.0
            if deadline is not None:
                remaining = max(0.0, deadline - _time.monotonic())
            record = self.ring.pop(timeout=remaining)
            if record is None:
                return None
            tag, last = record[0], record[1]
            if self._partial_tag is None:
                self._partial_tag = tag
            self._partial += record[2:]
            if last:
                payload = bytes(self._partial)
                out_tag = self._partial_tag
                self.reset()
                return out_tag, payload
            if deadline is not None and _time.monotonic() >= deadline:
                return None
