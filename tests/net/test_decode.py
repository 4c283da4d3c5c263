"""The single-pass decoder against its independent reference.

A P4Testgen-style oracle: frames are derived from every branch of the
header walk — TCP/UDP over IPv4 with IHL 5-15 and over IPv6, other
protocols and ethertypes, every corruption the decoder checks for, and
truncation at every length — and :func:`repro.net.packet.decode` (plus
its adapters ``parse_ethernet`` and ``frame_flow_info``) must agree
with the composed per-class ``parse`` methods on accept vs
``PacketError``, on every field and on the exact payload bytes.

The pins at the end catch a silent re-keying: flow hashes, placements
and the dispatch plan are compared with values recorded before the
decoder existed.
"""

import hashlib
import multiprocessing
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.bro.parallel import BroLaneSpec
from repro.apps.firewall.app import FirewallLaneSpec
from repro.core.values import Addr
from repro.host.parallel import dispatch_plan, flow_key
from repro.net.flowrecord import format_record_uid
from repro.net.flows import (
    FiveTuple,
    flow_hash,
    flow_of_frame,
    frame_flow_info,
    placement,
)
from repro.net.packet import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    PROTO_TCP,
    PROTO_UDP,
    EthernetFrame,
    IPv4Packet,
    IPv6Packet,
    PacketError,
    TCPSegment,
    UDPDatagram,
    decode,
    parse_ethernet,
)
from repro.net.tracegen import (
    DnsTraceConfig,
    HttpTraceConfig,
    SshTraceConfig,
    TftpTraceConfig,
    generate_mixed_trace,
)

# --------------------------------------------------------------------------
# Reference: the per-class parsers, composed the way the old
# parse_ethernet composed them.
# --------------------------------------------------------------------------


def reference_parse(data):
    frame = EthernetFrame.parse(data)
    if frame.ethertype == ETHERTYPE_IPV4:
        ip = IPv4Packet.parse(frame.payload)
    elif frame.ethertype == ETHERTYPE_IPV6:
        ip = IPv6Packet.parse(frame.payload)
    else:
        raise PacketError("unsupported ethertype")
    transport = None
    if ip.protocol == PROTO_TCP:
        transport = TCPSegment.parse(ip.payload)
    elif ip.protocol == PROTO_UDP:
        transport = UDPDatagram.parse(ip.payload)
    return ip, transport


def fields(obj):
    """Every slot of a packet object (addresses by value)."""
    if obj is None:
        return None
    return {name: getattr(obj, name) for name in type(obj).__slots__}


# --------------------------------------------------------------------------
# Frame generator: one draw per decoder branch, corruptions included.
# --------------------------------------------------------------------------


@st.composite
def frames(draw):
    payload = draw(st.binary(max_size=48))
    sport = draw(st.integers(0, 0xFFFF))
    dport = draw(st.integers(0, 0xFFFF))
    transport = draw(st.sampled_from(["tcp", "udp", "other"]))
    if transport == "tcp":
        protocol = PROTO_TCP
        # Data offset 0-15 words: < 5 is malformed, > 5 carries options
        # (and overruns the segment when the payload is short).
        offset = draw(st.sampled_from([5, 5, 5, 6, 8, 15, 0, 4]))
        options = bytes(max(0, offset - 5) * 4)
        if draw(st.booleans()):
            options = options[:draw(st.integers(0, len(options)))]
        l4 = struct.pack(
            ">HHIIBBHHH", sport, dport, draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(0, 2**32 - 1)), offset << 4,
            draw(st.integers(0, 0xFF)), draw(st.integers(0, 0xFFFF)), 0, 0,
        ) + options + payload
    elif transport == "udp":
        protocol = PROTO_UDP
        # Honest length, too short (< 8 is malformed), or past the end.
        length = draw(st.sampled_from(
            [8 + len(payload)] * 3 + [0, 7, 8, 8 + len(payload) // 2,
                                      len(payload) + 40]))
        l4 = struct.pack(">HHHH", sport, dport, length, 0) + payload
    else:
        protocol = draw(st.sampled_from([1, 47, 58]))
        l4 = payload

    family = draw(st.sampled_from(["v4", "v4", "v6", "other"]))
    if family == "v4":
        ihl = draw(st.sampled_from([5, 5, 5, 6, 10, 15, 0, 4]))
        version = draw(st.sampled_from([4, 4, 4, 4, 5, 6, 0]))
        header_len = max(ihl, 5) * 4
        honest = header_len + len(l4)
        # Honest, shorter than the capture (trailing padding is cut),
        # shorter than the header itself, or longer than the capture.
        total_length = draw(st.sampled_from(
            [honest] * 3 + [honest - len(payload) // 2, header_len,
                            header_len - 4, 0, honest + 9]))
        l3 = struct.pack(
            ">BBHHHBBH4s4s", version << 4 | ihl, draw(st.integers(0, 255)),
            max(0, min(total_length, 0xFFFF)),
            draw(st.integers(0, 0xFFFF)), draw(st.integers(0, 0xFFFF)),
            draw(st.integers(0, 255)), protocol, 0,
            draw(st.binary(min_size=4, max_size=4)),
            draw(st.binary(min_size=4, max_size=4)),
        ) + bytes(header_len - 20) + l4
        ethertype = ETHERTYPE_IPV4
    elif family == "v6":
        version = draw(st.sampled_from([6, 6, 6, 4, 0]))
        payload_length = draw(st.sampled_from(
            [len(l4)] * 3 + [len(l4) // 2, 0, len(l4) + 9]))
        first_word = (version << 28 | draw(st.integers(0, 255)) << 20
                      | draw(st.integers(0, 0xFFFFF)))
        l3 = struct.pack(
            ">IHBB16s16s", first_word, payload_length, protocol,
            draw(st.integers(0, 255)),
            draw(st.binary(min_size=16, max_size=16)),
            draw(st.binary(min_size=16, max_size=16)),
        ) + l4
        ethertype = ETHERTYPE_IPV6
    else:
        l3 = l4
        ethertype = draw(st.sampled_from([0x0806, 0x8100, 0x0000]))
    frame = bytes(12) + struct.pack(">H", ethertype) + l3
    # Same endpoints on both ends now and then: the orientation tie.
    if draw(st.integers(0, 9)) == 0 and family == "v4" and len(frame) >= 34:
        frame = frame[:30] + frame[26:30] + frame[34:]
    return frame


def check_against_reference(frame):
    try:
        expected = reference_parse(frame)
    except PacketError:
        with pytest.raises(PacketError):
            decode(frame)
        with pytest.raises(PacketError):
            parse_ethernet(frame)
        assert frame_flow_info(frame) is None
        assert flow_of_frame(frame) is None
        return
    ip, transport = expected

    got_ip, got_transport = parse_ethernet(frame)
    assert type(got_ip) is type(ip)
    assert type(got_transport) is type(transport)
    assert fields(got_ip) == fields(ip)
    assert fields(got_transport) == fields(transport)

    packet = decode(frame)
    assert packet.protocol == ip.protocol
    assert (packet.src, packet.dst) == (ip.src.value, ip.dst.value)
    assert frame[packet.l4:packet.end] == ip.payload
    assert fields(packet.ip()) == fields(ip)
    assert fields(packet.transport()) == fields(transport)
    if transport is None:
        assert packet.key is None
        assert frame_flow_info(frame) is None
        assert flow_of_frame(frame) is None
        return
    assert (packet.src_port, packet.dst_port) == \
        (transport.src_port, transport.dst_port)
    assert packet.payload == transport.payload
    assert packet.payload_len == len(transport.payload)
    assert frame[packet.payload_start:packet.payload_end] == \
        transport.payload
    flags = 0
    if isinstance(transport, TCPSegment):
        flags = transport.flags
        assert (packet.seq, packet.ack, packet.flags, packet.window) == \
            (transport.seq, transport.ack, transport.flags,
             transport.window)

    flow = FiveTuple(ip.src, ip.dst, transport.src_port,
                     transport.dst_port, ip.protocol)
    key, sender_is_first = flow.canonical_with_origin()
    assert packet.key == key and type(packet.key) is tuple
    assert packet.sender_is_first == sender_is_first
    assert key == (
        (ip.src.value, transport.src_port, ip.dst.value,
         transport.dst_port, ip.protocol)
        if (ip.src.value, transport.src_port)
        <= (ip.dst.value, transport.dst_port)
        else (ip.dst.value, transport.dst_port, ip.src.value,
              transport.src_port, ip.protocol))
    assert flow_of_frame(frame) == flow
    assert frame_flow_info(frame) == (flow, len(transport.payload), flags)


def _well_formed_frames():
    """One good frame per accepting path, options and padding included."""
    a4, b4 = bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2])
    a6, b6 = bytes(15) + b"\x01", bytes(15) + b"\x02"
    tcp = struct.pack(">HHIIBBHHH", 40000, 80, 7, 9, 8 << 4, 0x18, 512,
                      0, 0) + bytes(12) + b"GET / HTTP/1.1"
    udp = struct.pack(">HHHH", 5353, 53, 8 + 5, 0) + b"query"
    icmp = b"\x08\x00ping"
    out = []
    for name, protocol, l4 in (("tcp", PROTO_TCP, tcp),
                               ("udp", PROTO_UDP, udp), ("icmp", 1, icmp)):
        for ihl in (5, 15):
            header = struct.pack(
                ">BBHHHBBH4s4s", 4 << 4 | ihl, 0, ihl * 4 + len(l4), 1,
                0x4000, 64, protocol, 0, a4, b4) + bytes(ihl * 4 - 20)
            out.append(pytest.param(
                bytes(12) + struct.pack(">H", ETHERTYPE_IPV4) + header + l4
                + b"pad", id=f"{name}-v4-ihl{ihl}"))
        out.append(pytest.param(
            bytes(12) + struct.pack(">H", ETHERTYPE_IPV6)
            + struct.pack(">IHBB16s16s", 6 << 28, len(l4), protocol, 64,
                          a6, b6) + l4 + b"pad", id=f"{name}-v6"))
    return out


class TestDecodeAgainstReference:
    @pytest.mark.parametrize("frame", _well_formed_frames())
    def test_well_formed_frame_at_every_length(self, frame):
        ip, transport = reference_parse(frame)      # accepted in full
        assert (transport is None) == (ip.protocol == 1)
        for length in range(len(frame) + 1):
            check_against_reference(frame[:length])

    @settings(max_examples=1500, deadline=None)
    @given(frames())
    def test_every_branch(self, frame):
        check_against_reference(frame)

    @settings(max_examples=300, deadline=None)
    @given(frames())
    def test_truncation_at_every_length(self, frame):
        for length in range(len(frame)):
            check_against_reference(frame[:length])

    @settings(max_examples=100, deadline=None)
    @given(frames())
    def test_any_buffer_type(self, frame):
        """Frames arrive as bytes, bytearray (service) or memoryview
        slices (worker batches); all decode alike."""
        try:
            expected = decode(frame)
        except PacketError:
            for wrap in (bytearray, memoryview):
                with pytest.raises(PacketError):
                    decode(wrap(frame))
            return
        for wrap in (bytearray, memoryview):
            got = decode(wrap(frame))
            assert (got.key, got.sender_is_first, got.payload_len,
                    bytes(got.payload)) == \
                (expected.key, expected.sender_is_first,
                 expected.payload_len, expected.payload)


# --------------------------------------------------------------------------
# Pins against a silent re-keying
# --------------------------------------------------------------------------

V4 = (Addr("10.0.0.1"), Addr("10.0.0.2"), 40000, 80, PROTO_TCP)
V4_UDP = (Addr("192.168.7.9"), Addr("8.8.8.8"), 5353, 53, PROTO_UDP)
V6 = (Addr("2001:db8::1"), Addr("2001:db8::2"), 50000, 443, PROTO_TCP)

#: (tuple, flow_hash, placement(16, 4), placement(8, 2)), recorded at
#: the commit before the single-pass decoder.
GOLDEN = [
    (V4, 0xE0B11A481F20EF7E, (14, 2), (6, 0)),
    (V4_UDP, 0xD6B6395806339164, (4, 0), (4, 0)),
    (V6, 0x209EF5656F492FA7, (7, 3), (7, 1)),
]


def _reverse(fields5):
    src, dst, sport, dport, protocol = fields5
    return dst, src, dport, sport, protocol


class TestKeyingPins:
    @pytest.mark.parametrize("fields5,hashed,wide,narrow", GOLDEN)
    def test_golden_flow_hash_and_placement(self, fields5, hashed, wide,
                                            narrow):
        for direction in (fields5, _reverse(fields5)):
            flow = FiveTuple(*direction)
            assert flow_hash(flow) == hashed
            assert placement(flow, 16, 4) == wide
            assert placement(flow, 8, 2) == narrow

    def test_canonical_tuple_equals_decoded_key(self):
        flow = FiveTuple(*_reverse(V4))
        key = flow.canonical()
        assert key == (V4[0].value, 40000, V4[1].value, 80, PROTO_TCP)
        assert hash(key) == hash(tuple(key))
        assert {tuple(key): "uid"}[key] == "uid"
        assert (key.src, key.dst) == (V4[0], V4[1])

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="spawn start method unavailable")
    def test_equality_and_hash_survive_spawn(self):
        """A uid_map pickled into a spawned worker must resolve there:
        keys compare and hash from ints only, nothing salted."""
        flows = [FiveTuple(*f) for f in (V4, _reverse(V4), V4_UDP, V6)]
        keys = flows + [flow_key(flow) for flow in flows]
        payload = pickle.dumps(keys)
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            child = pool.apply(_hashes_in_child, (payload,))
        assert child == [(hash(k), type(k).__name__) for k in keys]
        assert pickle.loads(payload) == keys

    def test_dispatch_plan_digest(self):
        trace = generate_mixed_trace(
            HttpTraceConfig(sessions=40, seed=7),
            DnsTraceConfig(queries=120, seed=8),
            SshTraceConfig(sessions=4, seed=9),
            TftpTraceConfig(transfers=4, seed=10),
        )
        assert len(trace) == 839
        assert _plan_digest(trace, BroLaneSpec()) == PLAN_DIGEST_BRO
        assert _plan_digest(trace, FirewallLaneSpec()) == \
            PLAN_DIGEST_FIREWALL


def _hashes_in_child(payload):
    return [(hash(key), type(key).__name__)
            for key in pickle.loads(payload)]


def _plan_digest(trace, spec):
    """sha256 over one ``vid uid`` line per packet: its vthread and the
    record uid of its flow, named after the flow's first packet."""
    jobs, __ = dispatch_plan(trace, 16, 4, spec=spec)
    digest = hashlib.sha256()
    firsts = {}
    for ordinal, (vid, __, frame) in enumerate(jobs):
        flow = flow_of_frame(frame)
        uid = None
        if flow is not None:
            uid = format_record_uid(
                firsts.setdefault(flow_key(flow), ordinal))
        digest.update(f"{vid} {uid}\n".encode())
    return digest.hexdigest()


#: Recorded when uids became first-packet ordinals; the placements are
#: those pinned since the commit before the single-pass decoder.
PLAN_DIGEST_BRO = \
    "cb3e4fb6cf9c82b72a2bd25301ee835904d9f6bf4b68371fe0aad6245a495f21"
PLAN_DIGEST_FIREWALL = \
    "2f14e5fdfe349309c6fa5768fbf22768187c6897fe9568b3e3094268b8bf73ab"
