"""Wire-format packet construction and parsing.

The substrate beneath every host application: Ethernet / IPv4 / IPv6 /
TCP / UDP headers built and parsed directly in wire format, since HILTI's
definition of a networking application is one that "processes network
packets directly in wire format" (paper, section 2, footnote 1).

Builders produce real byte strings (checksums included) that flow into
pcap files.  Reading goes through one decoder, :func:`decode`: a single
zero-copy pass over the L2-L4 headers that every app, the flow ledger
and the parallel planner share; the per-class ``parse`` classmethods
are the independent reference its property test compares against.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from ..core.values import Addr, Port

__all__ = [
    "ETHERTYPE_IPV4",
    "ETHERTYPE_IPV6",
    "PROTO_TCP",
    "PROTO_UDP",
    "EthernetFrame",
    "IPv4Packet",
    "IPv6Packet",
    "TCPSegment",
    "UDPDatagram",
    "PacketError",
    "build_tcp_packet",
    "build_udp_packet",
    "build_tcp6_packet",
    "build_udp6_packet",
    "Decoded",
    "decode",
    "parse_ethernet",
    "checksum16",
]

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
PROTO_TCP = 6
PROTO_UDP = 17

# TCP flags.
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10


class PacketError(ValueError):
    """Malformed packet data."""


def checksum16(data: bytes) -> int:
    """The Internet checksum (RFC 1071)."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack(">H", data):
        total += word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class EthernetFrame:
    __slots__ = ("dst_mac", "src_mac", "ethertype", "payload")

    def __init__(self, payload: bytes, ethertype: int = ETHERTYPE_IPV4,
                 src_mac: bytes = b"\x02\x00\x00\x00\x00\x01",
                 dst_mac: bytes = b"\x02\x00\x00\x00\x00\x02"):
        self.dst_mac = dst_mac
        self.src_mac = src_mac
        self.ethertype = ethertype
        self.payload = payload

    def build(self) -> bytes:
        return (
            self.dst_mac + self.src_mac
            + struct.pack(">H", self.ethertype)
            + self.payload
        )

    @classmethod
    def parse(cls, data: bytes) -> "EthernetFrame":
        if len(data) < 14:
            raise PacketError("truncated Ethernet frame")
        ethertype = struct.unpack(">H", data[12:14])[0]
        return cls(data[14:], ethertype, data[6:12], data[0:6])


class IPv4Packet:
    __slots__ = ("src", "dst", "protocol", "payload", "ttl", "identification",
                 "tos", "flags_fragment")

    def __init__(self, src: Addr, dst: Addr, protocol: int, payload: bytes,
                 ttl: int = 64, identification: int = 0, tos: int = 0,
                 flags_fragment: int = 0x4000):
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.payload = payload
        self.ttl = ttl
        self.identification = identification
        self.tos = tos
        self.flags_fragment = flags_fragment

    def build(self) -> bytes:
        total_length = 20 + len(self.payload)
        header = struct.pack(
            ">BBHHHBBH4s4s",
            0x45,  # version 4, IHL 5
            self.tos,
            total_length,
            self.identification,
            self.flags_fragment,
            self.ttl,
            self.protocol,
            0,  # checksum placeholder
            self.src.packed(),
            self.dst.packed(),
        )
        check = checksum16(header)
        header = header[:10] + struct.pack(">H", check) + header[12:]
        return header + self.payload

    @classmethod
    def parse(cls, data: bytes) -> "IPv4Packet":
        if len(data) < 20:
            raise PacketError("truncated IPv4 header")
        version_ihl = data[0]
        if version_ihl >> 4 != 4:
            raise PacketError(f"not an IPv4 packet (version {version_ihl >> 4})")
        ihl = (version_ihl & 0x0F) * 4
        if ihl < 20 or len(data) < ihl:
            raise PacketError("bad IPv4 header length")
        (tos, total_length, identification, flags_fragment, ttl, protocol,
         __, src_raw, dst_raw) = struct.unpack(">BHHHBBH4s4s", data[1:20])
        payload_end = min(total_length, len(data))
        return cls(
            Addr(src_raw), Addr(dst_raw), protocol,
            data[ihl:payload_end], ttl, identification, tos, flags_fragment,
        )


class IPv6Packet:
    """A fixed-header IPv6 packet (extension headers unsupported)."""

    __slots__ = ("src", "dst", "protocol", "payload", "hop_limit",
                 "traffic_class", "flow_label")

    def __init__(self, src: Addr, dst: Addr, protocol: int, payload: bytes,
                 hop_limit: int = 64, traffic_class: int = 0,
                 flow_label: int = 0):
        self.src = src
        self.dst = dst
        self.protocol = protocol  # the "next header" field
        self.payload = payload
        self.hop_limit = hop_limit
        self.traffic_class = traffic_class
        self.flow_label = flow_label

    def build(self) -> bytes:
        first_word = (
            (6 << 28)
            | (self.traffic_class << 20)
            | (self.flow_label & 0xFFFFF)
        )
        header = struct.pack(
            ">IHBB", first_word, len(self.payload), self.protocol,
            self.hop_limit,
        ) + self.src.packed() + self.dst.packed()
        return header + self.payload

    @classmethod
    def parse(cls, data: bytes) -> "IPv6Packet":
        if len(data) < 40:
            raise PacketError("truncated IPv6 header")
        first_word, payload_length, next_header, hop_limit = \
            struct.unpack(">IHBB", data[:8])
        if first_word >> 28 != 6:
            raise PacketError(
                f"not an IPv6 packet (version {first_word >> 28})"
            )
        src = Addr(data[8:24])
        dst = Addr(data[24:40])
        end = min(40 + payload_length, len(data))
        return cls(
            src, dst, next_header, data[40:end], hop_limit,
            (first_word >> 20) & 0xFF, first_word & 0xFFFFF,
        )


class TCPSegment:
    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags", "window",
                 "payload")

    def __init__(self, src_port: int, dst_port: int, seq: int = 0,
                 ack: int = 0, flags: int = ACK, window: int = 65535,
                 payload: bytes = b""):
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window
        self.payload = payload

    def build(self, src: Optional[Addr] = None,
              dst: Optional[Addr] = None) -> bytes:
        header = struct.pack(
            ">HHIIBBHHH",
            self.src_port,
            self.dst_port,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            5 << 4,  # data offset, no options
            self.flags,
            self.window,
            0,  # checksum placeholder
            0,  # urgent pointer
        )
        segment = header + self.payload
        if src is not None and dst is not None:
            pseudo = (
                src.packed() + dst.packed()
                + struct.pack(">BBH", 0, PROTO_TCP, len(segment))
            )
            check = checksum16(pseudo + segment)
            segment = segment[:16] + struct.pack(">H", check) + segment[18:]
        return segment

    @classmethod
    def parse(cls, data: bytes) -> "TCPSegment":
        if len(data) < 20:
            raise PacketError("truncated TCP header")
        (src_port, dst_port, seq, ack, offset_flags_hi, flags, window, __,
         __) = struct.unpack(">HHIIBBHHH", data[:20])
        data_offset = (offset_flags_hi >> 4) * 4
        if data_offset < 20 or len(data) < data_offset:
            raise PacketError("bad TCP data offset")
        return cls(src_port, dst_port, seq, ack, flags, window,
                   data[data_offset:])

    @property
    def payload_len(self) -> int:
        return len(self.payload)

    @property
    def syn(self) -> bool:
        return bool(self.flags & SYN)

    @property
    def fin(self) -> bool:
        return bool(self.flags & FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & RST)

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & ACK)


class UDPDatagram:
    __slots__ = ("src_port", "dst_port", "payload")

    def __init__(self, src_port: int, dst_port: int, payload: bytes = b""):
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload = payload

    def build(self, src: Optional[Addr] = None,
              dst: Optional[Addr] = None) -> bytes:
        length = 8 + len(self.payload)
        header = struct.pack(">HHHH", self.src_port, self.dst_port, length, 0)
        datagram = header + self.payload
        if src is not None and dst is not None:
            pseudo = (
                src.packed() + dst.packed()
                + struct.pack(">BBH", 0, PROTO_UDP, length)
            )
            check = checksum16(pseudo + datagram) or 0xFFFF
            datagram = datagram[:6] + struct.pack(">H", check) + datagram[8:]
        return datagram

    @classmethod
    def parse(cls, data: bytes) -> "UDPDatagram":
        if len(data) < 8:
            raise PacketError("truncated UDP header")
        src_port, dst_port, length, __ = struct.unpack(">HHHH", data[:8])
        if length < 8:
            raise PacketError("bad UDP length")
        return cls(src_port, dst_port, data[8:length])


# --------------------------------------------------------------------------
# Convenience builders / parsers for full frames
# --------------------------------------------------------------------------


def build_tcp_packet(src: Addr, dst: Addr, src_port: int, dst_port: int,
                     seq: int = 0, ack: int = 0, flags: int = ACK,
                     payload: bytes = b"",
                     identification: int = 0) -> bytes:
    """A complete Ethernet/IPv4/TCP frame in wire format."""
    segment = TCPSegment(src_port, dst_port, seq, ack, flags,
                         payload=payload).build(src, dst)
    packet = IPv4Packet(src, dst, PROTO_TCP, segment,
                        identification=identification).build()
    return EthernetFrame(packet).build()


def build_udp_packet(src: Addr, dst: Addr, src_port: int, dst_port: int,
                     payload: bytes = b"",
                     identification: int = 0) -> bytes:
    """A complete Ethernet/IPv4/UDP frame in wire format."""
    datagram = UDPDatagram(src_port, dst_port, payload).build(src, dst)
    packet = IPv4Packet(src, dst, PROTO_UDP, datagram,
                        identification=identification).build()
    return EthernetFrame(packet).build()


def build_udp6_packet(src: Addr, dst: Addr, src_port: int, dst_port: int,
                      payload: bytes = b"") -> bytes:
    """A complete Ethernet/IPv6/UDP frame in wire format."""
    datagram = UDPDatagram(src_port, dst_port, payload).build(src, dst)
    packet = IPv6Packet(src, dst, PROTO_UDP, datagram).build()
    return EthernetFrame(packet, ethertype=ETHERTYPE_IPV6).build()


def build_tcp6_packet(src: Addr, dst: Addr, src_port: int, dst_port: int,
                      seq: int = 0, ack: int = 0, flags: int = ACK,
                      payload: bytes = b"") -> bytes:
    """A complete Ethernet/IPv6/TCP frame in wire format."""
    segment = TCPSegment(src_port, dst_port, seq, ack, flags,
                         payload=payload).build(src, dst)
    packet = IPv6Packet(src, dst, PROTO_TCP, segment).build()
    return EthernetFrame(packet, ethertype=ETHERTYPE_IPV6).build()


# --------------------------------------------------------------------------
# The single-pass decoder
# --------------------------------------------------------------------------

_V4_MAPPED = 0xFFFF << 32  # Addr.value of an IPv4 address: ::ffff:a.b.c.d

# Ethernet + the fixed IP header in one unpack at offset 0 (MACs are
# skipped, never copied), then the transport header at the L4 offset.
_unpack_eth_ip4 = struct.Struct(">12xHBBHHHBBxxII").unpack_from   # 34 bytes
_unpack_eth_ip6 = struct.Struct(">12xHIHBBQQQQ").unpack_from      # 54 bytes
_unpack_tcp = struct.Struct(">HHIIBBH").unpack_from
_unpack_udp = struct.Struct(">HHH").unpack_from


class Decoded:
    """One frame's L2-L4 headers, as :func:`decode` read them.

    ``src``/``dst`` are raw 128-bit :attr:`Addr.value` ints; ``l4:end``
    bounds the IP payload and ``payload_start:payload_end`` the
    transport payload, both as offsets into ``frame`` — nothing is
    sliced until a consumer asks.  ``ip_fields`` holds the rest of the
    IP header in the order the IP classes' constructors take it.

    For TCP and UDP, ``key`` is the canonical flow key ``(addr, port,
    addr, port, protocol)`` with the smaller ``(Addr.value, port)``
    endpoint first — a plain tuple of ints, so it hashes and compares
    in C and identically in every process — and ``sender_is_first``
    says whether this packet's source is that first endpoint.  Other
    protocols carry ``key = None``, zero ports and an empty payload.
    """

    __slots__ = ("frame", "ethertype", "protocol", "src", "dst",
                 "ip_fields", "l4", "end", "src_port", "dst_port", "seq",
                 "ack", "flags", "window", "payload_start", "payload_end",
                 "payload_len", "key", "sender_is_first")

    def __init__(self, frame, ethertype, protocol, src, dst, ip_fields,
                 l4, end, src_port, dst_port, seq, ack, flags, window,
                 payload_start, payload_end, key, sender_is_first):
        self.frame = frame
        self.ethertype = ethertype
        self.protocol = protocol
        self.src = src
        self.dst = dst
        self.ip_fields = ip_fields
        self.l4 = l4
        self.end = end
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window
        self.payload_start = payload_start
        self.payload_end = payload_end
        self.payload_len = payload_end - payload_start
        self.key = key
        self.sender_is_first = sender_is_first

    @property
    def payload(self) -> bytes:
        """The transport payload, sliced on demand."""
        return self.frame[self.payload_start:self.payload_end]

    def ip(self):
        """The network layer as an :class:`IPv4Packet`/:class:`IPv6Packet`."""
        cls = IPv4Packet if self.ethertype == ETHERTYPE_IPV4 else IPv6Packet
        return cls(Addr.from_value(self.src), Addr.from_value(self.dst),
                   self.protocol, self.frame[self.l4:self.end],
                   *self.ip_fields)

    def transport(self):
        """The transport layer as a :class:`TCPSegment`/:class:`UDPDatagram`
        (``None`` for other protocols)."""
        if self.protocol == PROTO_TCP:
            return TCPSegment(self.src_port, self.dst_port, self.seq,
                              self.ack, self.flags, self.window,
                              self.payload)
        if self.protocol == PROTO_UDP:
            return UDPDatagram(self.src_port, self.dst_port, self.payload)
        return None


def decode(frame) -> Decoded:
    """Decode Ethernet -> IPv4 (any IHL) / IPv6 -> TCP / UDP in one pass.

    The single header walk under every consumer: two precompiled
    ``unpack_from`` calls on the frame itself, no intermediate payload
    copies.  Raises :class:`PacketError` exactly where the composed
    per-class ``parse`` methods would.
    """
    size = len(frame)
    if size < 34:
        # Shorter than Ethernet + a minimal IPv4 header: nothing decodes.
        raise PacketError("truncated frame")
    (ethertype, version_ihl, tos, total_length, identification,
     flags_fragment, ttl, protocol, src, dst) = _unpack_eth_ip4(frame)
    if ethertype == ETHERTYPE_IPV4:
        if version_ihl >> 4 != 4:
            raise PacketError(
                f"not an IPv4 packet (version {version_ihl >> 4})")
        l4 = 14 + (version_ihl & 0x0F) * 4
        if l4 < 34 or size < l4:
            raise PacketError("bad IPv4 header length")
        end = 14 + total_length
        src |= _V4_MAPPED
        dst |= _V4_MAPPED
        ip_fields = (ttl, identification, tos, flags_fragment)
    elif ethertype == ETHERTYPE_IPV6:
        if size < 54:
            raise PacketError("truncated IPv6 header")
        (__, first_word, payload_length, protocol, hop_limit, src_hi,
         src_lo, dst_hi, dst_lo) = _unpack_eth_ip6(frame)
        if first_word >> 28 != 6:
            raise PacketError(
                f"not an IPv6 packet (version {first_word >> 28})")
        l4 = 54
        end = 54 + payload_length
        src = src_hi << 64 | src_lo
        dst = dst_hi << 64 | dst_lo
        ip_fields = (hop_limit, (first_word >> 20) & 0xFF,
                     first_word & 0xFFFFF)
    else:
        raise PacketError(f"unsupported ethertype {ethertype:#06x}")
    if end > size:
        end = size
    if protocol == PROTO_TCP:
        if end - l4 < 20:
            raise PacketError("truncated TCP header")
        (src_port, dst_port, seq, ack, offset, flags,
         window) = _unpack_tcp(frame, l4)
        payload_start = l4 + (offset >> 4) * 4
        if offset < 0x50 or payload_start > end:
            raise PacketError("bad TCP data offset")
        payload_end = end
    elif protocol == PROTO_UDP:
        if end - l4 < 8:
            raise PacketError("truncated UDP header")
        src_port, dst_port, length = _unpack_udp(frame, l4)
        if length < 8:
            raise PacketError("bad UDP length")
        seq = ack = flags = window = 0
        payload_start = l4 + 8
        payload_end = l4 + length
        if payload_end > end:
            payload_end = end
    else:
        return Decoded(frame, ethertype, protocol, src, dst, ip_fields, l4,
                       end, 0, 0, 0, 0, 0, 0, end, end, None, True)
    sender_is_first = src < dst or (src == dst and src_port <= dst_port)
    return Decoded(frame, ethertype, protocol, src, dst, ip_fields, l4, end,
                   src_port, dst_port, seq, ack, flags, window,
                   payload_start, payload_end,
                   (src, src_port, dst, dst_port, protocol) if sender_is_first
                   else (dst, dst_port, src, src_port, protocol),
                   sender_is_first)


def parse_ethernet(data: bytes):
    """Parse a frame down to transport: (ip, segment_or_datagram).

    Returns ``(IPv4Packet | IPv6Packet, TCPSegment | UDPDatagram |
    None)``; other ethertypes raise PacketError.  Both IP classes expose
    ``src``/``dst``/``protocol``/``payload``, so callers are
    family-agnostic — HILTI's single ``addr`` type carries through.
    """
    decoded = decode(data)
    return decoded.ip(), decoded.transport()
