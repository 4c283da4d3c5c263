"""ipsumdump-style text summaries of traces.

The firewall evaluation feeds both implementations "timestamp, source, and
destination address for each packet, as extracted by ipsumdump" (paper,
section 6.3).  This module reproduces that tool's relevant mode: one line
per packet, space-separated ``timestamp src dst``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from ..core.values import Addr, Time
from .packet import PacketError, decode

__all__ = ["dump_lines", "parse_line", "dump_to_file", "read_file"]


def dump_lines(packets: Iterable[Tuple[Time, bytes]]) -> Iterator[str]:
    """Render ``timestamp src dst`` lines for the IPv4 packets of a trace."""
    for timestamp, frame in packets:
        try:
            packet = decode(frame)
        except PacketError:
            continue
        yield (f"{timestamp.seconds:.6f} {Addr.from_value(packet.src)} "
               f"{Addr.from_value(packet.dst)}")


def parse_line(line: str) -> Tuple[Time, Addr, Addr]:
    """Parse one ipsumdump line back into typed values."""
    ts_text, src_text, dst_text = line.split()
    return Time(float(ts_text)), Addr(src_text), Addr(dst_text)


def dump_to_file(path: str, packets: Iterable[Tuple[Time, bytes]]) -> int:
    count = 0
    with open(path, "w") as stream:
        for line in dump_lines(packets):
            stream.write(line + "\n")
            count += 1
    return count


def read_file(path: str) -> List[Tuple[Time, Addr, Addr]]:
    with open(path) as stream:
        return [parse_line(line) for line in stream if line.strip()]
