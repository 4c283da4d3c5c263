"""The packet substrate: wire formats, traces, flows, and reassembly."""

from .._lazy import lazy_exports
from .flows import FiveTuple, flow_hash, flow_of_frame  # noqa: F401
from .packet import (  # noqa: F401
    EthernetFrame,
    IPv4Packet,
    IPv6Packet,
    PacketError,
    TCPSegment,
    UDPDatagram,
    build_tcp6_packet,
    build_tcp_packet,
    build_udp6_packet,
    build_udp_packet,
    parse_ethernet,
)
from .pcap import PcapReader, PcapWriter, read_pcap, write_pcap  # noqa: F401
from .reassembly import ConnectionReassembler, StreamReassembler  # noqa: F401

# Trace generation and replay load on first use (PEP 562): a run over an
# existing pcap needs neither.
__getattr__ = lazy_exports(__name__, {
    "LiveCaptureSource": "replay",
    "RateLimiter": "replay",
    "TraceReplayer": "replay",
    "DnsTraceConfig": "tracegen",
    "HttpTraceConfig": "tracegen",
    "generate_dns_trace": "tracegen",
    "generate_http_trace": "tracegen",
    "write_dns_trace": "tracegen",
    "write_http_trace": "tracegen",
})
