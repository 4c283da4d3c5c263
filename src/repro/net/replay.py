"""Continuous trace replay: the service mode's packet source.

Batch runs read a pcap once and exit; the streaming service
(``repro.host.service``) needs an ingest stage that keeps producing —
a fixed trace looped indefinitely with a continuous virtual timeline,
optionally paced to a target packet rate.  This module provides that
source plus the seam where a live capture would plug in:

* :class:`TraceReplayer` — preloads a pcap into memory and yields
  ``(Time, frame)`` records loop after loop, rebasing each loop's
  timestamps past the previous one so network time stays monotone
  (session TTL eviction depends on that);
* :class:`RateLimiter` — wall-clock pacing toward a target
  packets-per-second budget, sleeping in short slices so a stop
  request is honored promptly;
* :class:`LiveCaptureSource` — the documented live-capture seam: the
  same iterator contract, backed by a callable the embedder supplies
  (an ``AF_PACKET`` socket, a capture library, a generator...).
"""

from __future__ import annotations

import time as _time
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from ..core.values import Time

__all__ = ["LiveCaptureSource", "RateLimiter", "TraceReplayer"]

#: Fallback inter-loop gap when a trace has no usable duration (single
#: packet, or all records share one timestamp): one millisecond.
_DEFAULT_GAP_NANOS = 1_000_000


class RateLimiter:
    """Wall-clock pacing toward *rate* packets per second.

    ``wait()`` blocks until the next packet is due, sleeping in short
    slices and re-checking *should_stop* so a drain request never waits
    behind a long sleep.  A rate of ``None`` disables pacing.
    """

    #: Longest single sleep; bounds the stop-request latency.
    MAX_SLICE = 0.05

    def __init__(self, rate: Optional[float],
                 clock: Callable[[], float] = _time.monotonic,
                 sleep: Callable[[float], None] = _time.sleep):
        if rate is not None and rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        self.rate = rate
        self._clock = clock
        self._sleep = sleep
        self._origin: Optional[float] = None
        self.sent = 0

    def wait(self, should_stop: Optional[Callable[[], bool]] = None) -> None:
        """Block until the next packet's slot; account one packet."""
        if self.rate is None:
            self.sent += 1
            return
        now = self._clock()
        if self._origin is None:
            self._origin = now
        due = self._origin + self.sent / self.rate
        while now < due:
            if should_stop is not None and should_stop():
                break
            self._sleep(min(self.MAX_SLICE, due - now))
            now = self._clock()
        self.sent += 1


class TraceReplayer:
    """Looped replay of one pcap trace with a continuous timeline.

    The trace is read once into memory (service mode replays it many
    times; re-reading the file per loop would measure the filesystem,
    not the pipeline).  Loop *i*'s records are shifted by
    ``i * (trace duration + gap)`` so the emitted timestamps form one
    monotone stream — downstream TTL eviction and rolling windows see
    a single long-running capture, not a time warp per loop.

    *loops* of ``None`` means replay forever (until *should_stop*).
    """

    def __init__(self, path: str, loops: Optional[int] = 1,
                 rate: Optional[float] = None, tolerant: bool = False,
                 should_stop: Optional[Callable[[], bool]] = None,
                 clock: Callable[[], float] = _time.monotonic,
                 sleep: Callable[[float], None] = _time.sleep):
        from .pcap import PcapReader

        if loops is not None and loops < 1:
            raise ValueError(f"loops must be >= 1, got {loops!r}")
        self.path = path
        self.loops = loops
        self.should_stop = should_stop
        self.limiter = RateLimiter(rate, clock=clock, sleep=sleep)
        self.records_emitted = 0
        self.loops_completed = 0
        with PcapReader(path, tolerant=tolerant) as reader:
            self._records: List[Tuple[int, bytes]] = [
                (timestamp.nanos, frame) for timestamp, frame in reader
            ]
            #: The reader's counters (``pcap.*``), read once.
            self.pcap_stats = reader.counters()
        if self._records:
            first = self._records[0][0]
            last = self._records[-1][0]
            span = max(0, last - first)
        else:
            span = 0
        # The per-loop timestamp stride: the trace's duration plus one
        # median inter-packet gap, so loop seams look like one more
        # ordinary packet interval.
        self._stride = span + self._gap_nanos()

    def _gap_nanos(self) -> int:
        deltas = sorted(
            b[0] - a[0]
            for a, b in zip(self._records, self._records[1:])
            if b[0] > a[0]
        )
        if not deltas:
            return _DEFAULT_GAP_NANOS
        return max(1, deltas[len(deltas) // 2])

    def __len__(self) -> int:
        return len(self._records)

    def _stopped(self) -> bool:
        return self.should_stop is not None and self.should_stop()

    def __iter__(self) -> Iterator[Tuple[Time, bytes]]:
        loop = 0
        while self.loops is None or loop < self.loops:
            if not self._records:
                return
            offset = loop * self._stride
            for nanos, frame in self._records:
                if self._stopped():
                    return
                self.limiter.wait(self.should_stop)
                if self._stopped():
                    return
                self.records_emitted += 1
                yield Time.from_nanos(nanos + offset), frame
            loop += 1
            self.loops_completed = loop

    # -- telemetry ---------------------------------------------------------

    def stats(self) -> dict:
        return {
            "records_loaded": len(self._records),
            "records_emitted": self.records_emitted,
            "records_skipped": self.pcap_stats["records_skipped"],
            "loops_completed": self.loops_completed,
        }

    def export_metrics(self, registry, label: str = "replay") -> None:
        """Publish the snapshot into a telemetry MetricsRegistry."""
        stats = self.stats()
        for name in ("records_emitted", "records_skipped",
                     "loops_completed"):
            counter = registry.counter(f"replay.{name}", source=label)
            counter.value = 0
            counter.inc(stats[name])
        registry.gauge("replay.records_loaded", source=label).set(
            stats["records_loaded"])


class LiveCaptureSource:
    """The live-capture seam: service ingest from a packet feed.

    The service pipeline only needs an iterable of ``(Time, frame)``;
    this adapter wraps whatever produces live frames — *capture* is any
    iterable (a socket reader generator, a capture library's stream).
    Records flow through the same optional :class:`RateLimiter` and
    stop-check as :class:`TraceReplayer`, so a drain request behaves
    identically for replayed and live traffic.

    This repository's CI has no capture privileges, so the class is the
    documented integration point rather than a packet socket: embedders
    construct one with their capture iterable and hand it to
    :class:`repro.host.service.HostService` in place of a replayer.
    """

    def __init__(self, capture: Iterable[Tuple[Time, bytes]],
                 rate: Optional[float] = None,
                 should_stop: Optional[Callable[[], bool]] = None):
        self.capture = capture
        self.should_stop = should_stop
        self.limiter = RateLimiter(rate)
        self.records_emitted = 0

    def _stopped(self) -> bool:
        return self.should_stop is not None and self.should_stop()

    def __iter__(self) -> Iterator[Tuple[Time, bytes]]:
        for timestamp, frame in self.capture:
            if self._stopped():
                return
            self.limiter.wait(self.should_stop)
            if self._stopped():
                return
            self.records_emitted += 1
            yield timestamp, frame

    def stats(self) -> dict:
        return {"records_emitted": self.records_emitted}

    def export_metrics(self, registry, label: str = "live") -> None:
        counter = registry.counter("replay.records_emitted", source=label)
        counter.value = 0
        counter.inc(self.records_emitted)
