"""Flows: 5-tuples and hash-based load balancing.

The ID-based virtual-thread model maps directly onto the hash-based
load-balancing schemes deployed for parallel traffic analysis: hash the
flow's 5-tuple into an integer and interpret it as the virtual thread to
run that flow's analysis on (paper, section 3.2).  The hash is symmetric —
both directions of a connection land on the same thread — matching the
front-end balancers of NIDS clusters.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional, Tuple

from ..core.values import Addr
from .packet import PROTO_TCP, PROTO_UDP, Decoded, PacketError, decode

__all__ = ["FiveTuple", "decode_flow", "flow_hash", "flow_of_frame",
           "frame_flow_info", "vthread_of", "placement"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a(data: bytes) -> int:
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


class FiveTuple(tuple):
    """A connection identifier: endpoints plus transport protocol.

    The value tuple ``(src.value, src_port, dst.value, dst_port,
    protocol)`` under names.  A tuple of ints hashes and compares by
    fields in C — once per dict probe, never through a Python-level
    ``__hash__`` — and identically in every process (nothing salted is
    cached), so a key hashes alike in every worker process.  A canonical ``FiveTuple`` equals the plain
    :attr:`~repro.net.packet.Decoded.key` tuple of its packets: flow
    tables store the decoder's keys and answer lookups by either.
    """

    __slots__ = ()

    def __new__(cls, src: Addr, dst: Addr, src_port: int, dst_port: int,
                protocol: int):
        return tuple.__new__(
            cls, (src.value, src_port, dst.value, dst_port, protocol))

    @classmethod
    def of(cls, packet: Decoded) -> "FiveTuple":
        """The directional tuple of a decoded TCP/UDP packet."""
        return tuple.__new__(cls, (packet.src, packet.src_port, packet.dst,
                                   packet.dst_port, packet.protocol))

    def __getnewargs__(self):
        # Pickle and copy rebuild through __new__, which takes Addrs.
        return self.src, self.dst, self[1], self[3], self[4]

    @property
    def src(self) -> Addr:
        return Addr.from_value(self[0])

    @property
    def dst(self) -> Addr:
        return Addr.from_value(self[2])

    src_port = property(itemgetter(1))
    dst_port = property(itemgetter(3))
    protocol = property(itemgetter(4))

    def reversed(self) -> "FiveTuple":
        return tuple.__new__(
            FiveTuple, (self[2], self[3], self[0], self[1], self[4]))

    @property
    def sender_is_first(self) -> bool:
        """Is ``src`` the canonical key's first — smaller
        ``(Addr.value, port)`` — endpoint?"""
        return self[0] < self[2] or (self[0] == self[2]
                                     and self[1] <= self[3])

    @property
    def key(self) -> "FiveTuple":
        """Direction-independent form: smaller endpoint first."""
        return self if self.sender_is_first else self.reversed()

    def canonical(self) -> "FiveTuple":
        """:attr:`key`, under its historical name."""
        return self.key

    def canonical_with_origin(self) -> Tuple["FiveTuple", bool]:
        """``(key, sender_is_first)`` — what flow tables need to orient
        per-direction counters without re-deriving the order."""
        return self.key, self.sender_is_first

    def __repr__(self) -> str:
        proto = {PROTO_TCP: "tcp", PROTO_UDP: "udp"}.get(
            self.protocol, str(self.protocol)
        )
        return (
            f"{self.src}:{self.src_port} -> {self.dst}:{self.dst_port}/{proto}"
        )


def flow_hash(flow: FiveTuple) -> int:
    """A stable, symmetric 64-bit hash of the flow.

    Both directions produce the same value, so scheduling by
    ``flow_hash(ft) % n_threads`` serializes each connection's analysis on
    a single virtual thread.
    """
    canonical = flow.canonical()
    material = (
        canonical.src.packed()
        + canonical.dst.packed()
        + canonical.src_port.to_bytes(2, "big")
        + canonical.dst_port.to_bytes(2, "big")
        + canonical.protocol.to_bytes(1, "big")
    )
    return _fnv1a(material)


def vthread_of(flow: FiveTuple, vthreads: int) -> int:
    """The virtual thread a flow's analysis runs on (§3.2): the
    symmetric flow hash modulo the vthread supply."""
    return flow_hash(flow) % vthreads


def placement(flow: FiveTuple, vthreads: int, workers: int) -> Tuple[int, int]:
    """``(vthread_id, worker)`` for a flow — the two-level mapping the
    parallel pipeline uses everywhere.

    The worker half mirrors ``Scheduler.worker_of`` (``vid % workers``),
    so the multiprocessing backend's pcap shards land exactly where the
    in-process scheduler would run the same flow's jobs.  The mapping is
    a pure function of the 5-tuple: both directions of a connection, in
    any run, on any backend, always land on the same vthread and worker.
    """
    vid = vthread_of(flow, vthreads)
    return vid, vid % workers


def decode_flow(frame: bytes) -> Optional[Decoded]:
    """:func:`~repro.net.packet.decode`, with undecodable and
    non-TCP/UDP frames as ``None`` — the planner's and the ledger's
    per-packet entry."""
    try:
        packet = decode(frame)
    except PacketError:
        return None
    return packet if packet.key is not None else None


def flow_of_frame(frame: bytes) -> Optional[FiveTuple]:
    """Extract the 5-tuple of an Ethernet frame, or None if not TCP/UDP."""
    packet = decode_flow(frame)
    return FiveTuple.of(packet) if packet is not None else None


def frame_flow_info(frame: bytes) -> Optional[Tuple[FiveTuple, int, int]]:
    """``(flow, payload_len, tcp_flags)`` of a frame, or None.

    The ledger-feed companion of :func:`flow_of_frame`: what a flow
    table needs to account one packet — transport payload length and,
    for TCP, the segment's flag byte (0 for UDP).
    """
    packet = decode_flow(frame)
    if packet is None:
        return None
    return FiveTuple.of(packet), packet.payload_len, packet.flags
