"""Reading and writing libpcap trace files.

The evaluation drives every application from trace files in libpcap
format (paper, section 6.1).  The classic pcap container is a simple
binary format: a 24-byte global header followed by per-packet records of
a 16-byte header (seconds, microseconds — or nanoseconds for the
nanosecond-magic variant — plus captured/original lengths) and the raw
frame bytes.  We implement both endiannesses and both time resolutions.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.values import Time

__all__ = ["PcapReader", "PcapWriter", "PcapError", "LINKTYPE_ETHERNET",
           "split_pcap"]

MAGIC_MICROS = 0xA1B2C3D4
MAGIC_NANOS = 0xA1B23C4D
LINKTYPE_ETHERNET = 1


class PcapError(ValueError):
    """Malformed pcap data."""


class PcapWriter:
    """Writes packets into a pcap file (microsecond resolution)."""

    def __init__(self, path: str, link_type: int = LINKTYPE_ETHERNET,
                 snaplen: int = 262144, nanos: bool = False):
        self._stream = open(path, "wb")
        self._nanos = nanos
        self._snaplen = snaplen
        magic = MAGIC_NANOS if nanos else MAGIC_MICROS
        self._stream.write(
            struct.pack("<IHHiIII", magic, 2, 4, 0, 0, snaplen, link_type)
        )
        self.packets_written = 0

    def write(self, timestamp: Time, data: bytes) -> None:
        nanos = timestamp.nanos
        seconds, remainder = divmod(nanos, 1_000_000_000)
        fraction = remainder if self._nanos else remainder // 1000
        # Honor the snaplen: capture at most snaplen bytes, but record the
        # packet's true original length in the header.
        captured = data[:self._snaplen]
        self._stream.write(
            struct.pack("<IIII", seconds, fraction, len(captured), len(data))
        )
        self._stream.write(captured)
        self.packets_written += 1

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# A record claiming to capture more than this many bytes is treated as
# corrupt even when the global header's snaplen is unusable.
_SANE_CAPTURE_LIMIT = 0x1000000  # 16 MiB


class PcapReader:
    """Iterates ``(Time, bytes)`` records of a pcap file.

    In *tolerant* mode, truncated or corrupt records are skipped and
    counted in :attr:`records_skipped` instead of raising ``PcapError`` —
    the fail-safe trace-reading mode of the robustness layer
    (``docs/ROBUSTNESS.md``).  Skips that recovered the record boundary
    by reading past an over-long body are additionally counted in
    :attr:`resyncs`; both counters feed the telemetry exporter
    (``docs/OBSERVABILITY.md``).
    """

    def __init__(self, path: str, tolerant: bool = False):
        self.tolerant = tolerant
        self.records_skipped = 0
        self.resyncs = 0
        self._stream = open(path, "rb")
        header = self._stream.read(24)
        if len(header) < 24:
            raise PcapError(f"{path}: truncated pcap global header")
        magic_le = struct.unpack("<I", header[:4])[0]
        magic_be = struct.unpack(">I", header[:4])[0]
        if magic_le in (MAGIC_MICROS, MAGIC_NANOS):
            self._endian = "<"
            magic = magic_le
        elif magic_be in (MAGIC_MICROS, MAGIC_NANOS):
            self._endian = ">"
            magic = magic_be
        else:
            raise PcapError(f"{path}: bad pcap magic {header[:4]!r}")
        self._nanos = magic == MAGIC_NANOS
        fields = struct.unpack(self._endian + "HHiIII", header[4:])
        self.version = (fields[0], fields[1])
        self.snaplen = fields[4]
        self.link_type = fields[5]
        self.packets_read = 0
        # Per-record constants, fixed at open.
        self._unpack_record = struct.Struct(self._endian + "IIII").unpack
        self._fraction_nanos = 1 if self._nanos else 1000
        limit = self.snaplen if 0 < self.snaplen <= _SANE_CAPTURE_LIMIT \
            else 0
        self._capture_limit = max(limit, 0x40000)

    def read_packet(self) -> Optional[Tuple[Time, bytes]]:
        while True:
            record = self._stream.read(16)
            if not record:
                return None
            if len(record) < 16:
                if self.tolerant:
                    self.records_skipped += 1
                    return None
                raise PcapError("truncated pcap record header")
            seconds, fraction, captured, __ = self._unpack_record(record)
            if captured > self._capture_limit:
                if not self.tolerant:
                    raise PcapError(
                        f"implausible captured length {captured}"
                    )
                self.records_skipped += 1
                if captured > _SANE_CAPTURE_LIMIT:
                    # Garbage length field: the record boundary is lost,
                    # nothing after it can be trusted.
                    return None
                # Over-long but bounded: resync past the body and go on.
                body = self._stream.read(captured)
                if len(body) < captured:
                    return None
                self.resyncs += 1
                continue
            data = self._stream.read(captured)
            if len(data) < captured:
                if self.tolerant:
                    self.records_skipped += 1
                    return None
                raise PcapError("truncated pcap record body")
            self.packets_read += 1
            return Time.from_nanos(
                seconds * 1_000_000_000 + fraction * self._fraction_nanos
            ), data

    def counters(self) -> Dict[str, int]:
        """The reader's robustness counters, as the ``pcap.*`` series
        name them."""
        return {"records_read": self.packets_read,
                "records_skipped": self.records_skipped,
                "resyncs": self.resyncs}

    def __iter__(self) -> Iterator[Tuple[Time, bytes]]:
        while True:
            record = self.read_packet()
            if record is None:
                return
            yield record

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_pcap(path: str, packets: Iterable[Tuple[Time, bytes]],
               nanos: bool = False) -> int:
    """Write all *packets* to *path*; returns the packet count."""
    with PcapWriter(path, nanos=nanos) as writer:
        for timestamp, data in packets:
            writer.write(timestamp, data)
        return writer.packets_written


def read_pcap(path: str) -> List[Tuple[Time, bytes]]:
    """All packets of the trace at *path*."""
    with PcapReader(path) as reader:
        return list(reader)


def split_pcap(path: str, out_dir: str, shards: int, shard_of,
               tolerant: bool = False) -> List[str]:
    """Fan a trace out into *shards* per-worker pcap files.

    *shard_of* maps one ``(Time, frame)`` record to a shard index in
    ``[0, shards)`` — the flow-parallel pipeline passes the flow-hash
    placement function so every packet of a connection lands in the same
    shard (``docs/PARALLELISM.md``).  Relative packet order within each
    shard is preserved.  Returns the shard file paths (every file is
    created, even when empty, so worker *i* can always open shard *i*).
    """
    import os

    if shards < 1:
        raise ValueError("split_pcap needs at least one shard")
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, f"shard-{i:03d}.pcap")
             for i in range(shards)]
    writers = [PcapWriter(p) for p in paths]
    try:
        with PcapReader(path, tolerant=tolerant) as reader:
            for timestamp, frame in reader:
                index = shard_of((timestamp, frame)) % shards
                writers[index].write(timestamp, frame)
    finally:
        for writer in writers:
            writer.close()
    return paths
