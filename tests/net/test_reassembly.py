"""TCP stream reassembly under reordering, overlap, and loss."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.packet import ACK, FIN, PSH, RST, SYN, TCPSegment
from repro.net.reassembly import ConnectionReassembler, StreamReassembler


class TestStream:
    def test_in_order(self):
        s = StreamReassembler()
        s.on_syn(99)
        assert s.feed(100, b"abc") == b"abc"
        assert s.feed(103, b"def") == b"def"

    def test_out_of_order_buffered(self):
        s = StreamReassembler()
        s.on_syn(99)
        assert s.feed(103, b"def") == b""
        assert s.feed(100, b"abc") == b"abcdef"
        assert s.out_of_order_segments == 1

    def test_retransmission_dropped(self):
        s = StreamReassembler()
        s.on_syn(99)
        s.feed(100, b"abcdef")
        assert s.feed(100, b"abcdef") == b""
        assert s.feed(103, b"defghi") == b"ghi"  # overlap trimmed

    def test_sequence_wraparound(self):
        s = StreamReassembler()
        start = (1 << 32) - 3
        s.on_syn(start - 1)
        assert s.feed(start, b"abc") == b"abc"
        assert s.feed(0, b"def") == b"def"

    def test_gap_skip(self):
        s = StreamReassembler()
        s.on_syn(99)
        s.feed(100, b"abc")
        s.feed(110, b"xyz")  # hole at 103..109
        assert s.pending_bytes() == 3
        skipped = s.skip_gap()
        assert skipped == 7
        assert s.feed(113, b"") == b""
        # After the skip the pending segment drains on the next feed.
        assert s.feed(110, b"xyz") == b"xyz"

    def test_mid_stream_pickup(self):
        s = StreamReassembler()
        assert s.feed(5000, b"data") == b"data"


class TestConnection:
    @staticmethod
    def _handshake(conn):
        conn.feed_segment(True, TCPSegment(1, 2, seq=100, flags=SYN))
        conn.feed_segment(False, TCPSegment(2, 1, seq=500, ack=101,
                                            flags=SYN | ACK))
        conn.feed_segment(True, TCPSegment(1, 2, seq=101, ack=501,
                                           flags=ACK))

    def test_established_event(self):
        conn = ConnectionReassembler()
        conn.feed_segment(True, TCPSegment(1, 2, seq=100, flags=SYN))
        conn.feed_segment(False, TCPSegment(2, 1, seq=500, ack=101,
                                            flags=SYN | ACK))
        assert not conn.established
        assert conn.feed_segment(True, TCPSegment(1, 2, seq=101, ack=501,
                                                  flags=ACK)) == b""
        assert conn.established

    def test_data_delivery(self):
        conn = ConnectionReassembler()
        self._handshake(conn)
        assert conn.feed_segment(True, TCPSegment(1, 2, seq=101, ack=501,
                                                  flags=ACK | PSH,
                                                  payload=b"GET /")) \
            == b"GET /"
        assert conn.feed_segment(False, TCPSegment(2, 1, seq=501, ack=106,
                                                   flags=ACK | PSH,
                                                   payload=b"200 OK")) \
            == b"200 OK"

    def test_fin_both_sides_closes(self):
        conn = ConnectionReassembler()
        self._handshake(conn)
        conn.feed_segment(True, TCPSegment(1, 2, seq=101, ack=501,
                                           flags=FIN | ACK))
        assert not conn.closed
        conn.feed_segment(False, TCPSegment(2, 1, seq=501, ack=102,
                                            flags=FIN | ACK))
        assert conn.closed
        # A closed connection takes no more data.
        assert conn.feed_segment(True, TCPSegment(1, 2, seq=102, ack=502,
                                                  flags=ACK,
                                                  payload=b"late")) == b""

    def test_rst_closes_immediately(self):
        conn = ConnectionReassembler()
        self._handshake(conn)
        conn.feed_segment(True, TCPSegment(1, 2, seq=101, flags=RST))
        assert conn.closed


class TestReorderingProperty:
    @given(st.binary(min_size=1, max_size=300), st.integers(0, 2**31),
           st.randoms())
    @settings(max_examples=25, deadline=None)
    def test_any_order_reassembles(self, payload, isn, rng):
        """Segments delivered in any order reassemble to the stream."""
        mss = 7
        segments = []
        seq = (isn + 1) % (1 << 32)
        for i in range(0, len(payload), mss):
            segments.append((seq, payload[i:i + mss]))
            seq = (seq + len(payload[i:i + mss])) % (1 << 32)
        rng.shuffle(segments)
        s = StreamReassembler()
        s.on_syn(isn)
        out = bytearray()
        for seg_seq, chunk in segments:
            out.extend(s.feed(seg_seq, chunk))
        assert bytes(out) == payload

    @given(st.binary(min_size=1, max_size=200), st.randoms())
    @settings(max_examples=25, deadline=None)
    def test_duplicates_do_not_corrupt(self, payload, rng):
        mss = 5
        segments = []
        seq = 100
        for i in range(0, len(payload), mss):
            segments.append((seq, payload[i:i + mss]))
            seq += len(payload[i:i + mss])
        # Deliver everything twice in random order.
        doubled = segments + segments
        rng.shuffle(doubled)
        s = StreamReassembler()
        s.on_syn(99)
        out = bytearray()
        for seg_seq, chunk in doubled:
            out.extend(s.feed(seg_seq, chunk))
        assert bytes(out) == payload


class TestAdversarialOverlap:
    """Pathological overlap/duplication: deterministic resolution,
    counters, bounded memory (docs/ROBUSTNESS.md)."""

    def test_conflicting_retransmit_first_arrival_wins(self):
        s = StreamReassembler()
        s.on_syn(99)
        assert s.feed(103, b"DEF") == b""  # buffered out of order
        # Attacker retransmits the same range with different content.
        assert s.feed(103, b"XYZ") == b""
        assert s.feed(100, b"abc") == b"abcDEF"
        assert s.duplicate_segments == 1
        assert s.overlap_bytes == 3

    def test_overlap_straddling_pending_segment(self):
        s = StreamReassembler()
        s.on_syn(99)
        s.feed(104, b"EF")  # pending at 104..105
        # Newcomer 102..107 overlaps the middle; only the disjoint
        # head and tail survive (first arrival keeps "EF").
        s.feed(102, b"cdXXgh")
        assert s.overlap_bytes == 2
        assert s.feed(100, b"ab") == b"abcdEFgh"

    def test_pending_segment_straddles_delivered_boundary(self):
        """A buffered segment reaching behind an in-order delivery must
        not lose its tail (regression: stale pending entries)."""
        s = StreamReassembler()
        s.on_syn(99)
        s.feed(102, b"ccdd")  # pending 102..105
        assert s.feed(100, b"ab") == b"abccdd"
        assert s.pending_bytes() == 0

    def test_fully_covered_newcomer_counted_duplicate(self):
        s = StreamReassembler()
        s.on_syn(99)
        s.feed(102, b"cdef")
        s.feed(103, b"XX")  # entirely inside the pending segment
        assert s.duplicate_segments == 1
        assert s.feed(100, b"ab") == b"abcdef"

    def test_old_data_trimmed_not_redelivered(self):
        s = StreamReassembler()
        s.on_syn(99)
        assert s.feed(100, b"abcdef") == b"abcdef"
        # Overlapping retransmit with a new tail: only the tail comes out.
        assert s.feed(102, b"XXXXghi") == b"ghi"
        assert s.overlap_bytes == 4

    def test_memory_bound_drops_and_counts(self):
        s = StreamReassembler(max_pending_bytes=10)
        s.on_syn(99)
        s.feed(200, b"A" * 8)   # buffered: 8 bytes
        s.feed(300, b"B" * 8)   # 2 admitted, 6 dropped
        assert s.pending_bytes() == 10
        assert s.dropped_bytes == 6
        s.feed(400, b"C" * 4)   # budget exhausted entirely
        assert s.pending_bytes() == 10
        assert s.dropped_bytes == 10

    def test_memory_bound_does_not_block_in_order_data(self):
        s = StreamReassembler(max_pending_bytes=4)
        s.on_syn(99)
        s.feed(110, b"Z" * 4)  # fills the pending budget
        # In-order data never touches the pending buffer.
        assert s.feed(100, b"abcde") == b"abcde"

    def test_duplicate_flood_bounded(self):
        """Re-sending one out-of-order segment forever costs no memory."""
        s = StreamReassembler()
        s.on_syn(99)
        for _ in range(1000):
            s.feed(200, b"flood")
        assert s.pending_bytes() == 5
        assert s.duplicate_segments == 999

    def test_overlap_resolution_is_arrival_order_deterministic(self):
        """Same segments, same order -> identical stream and counters."""
        segments = [(104, b"EEff"), (100, b"abCD"), (102, b"cdeF"),
                    (100, b"ABcd"), (106, b"ghij")]

        def run():
            s = StreamReassembler()
            s.on_syn(99)
            out = bytearray()
            for seq, data in segments:
                out.extend(s.feed(seq, data))
            return bytes(out), s.overlap_bytes, s.duplicate_segments

        assert run() == run()
        out, overlap, dups = run()
        # First arrival per byte: "EEff" (104..107) landed before the
        # conflicting retransmits at 100/102, so its bytes stand.
        assert out == b"abCDEEffij"
        assert overlap == 2
        assert dups == 2


_FLAGS = st.sampled_from([ACK, ACK | PSH, SYN, SYN | ACK, ACK | FIN,
                          FIN, RST, ACK | RST, 0])

#: (is_orig, in_order, start, length, salt, flags): *start* is the
#: payload's offset in its direction's stream (the cursor when
#: *in_order*), *salt* makes an overlapping retransmit carry other bytes.
_STEPS = st.lists(st.tuples(st.booleans(), st.booleans(),
                            st.integers(0, 48), st.integers(0, 12),
                            st.integers(0, 1), _FLAGS),
                  max_size=40)


class TestDecodedInput:
    """``feed_segment`` reads a decoded packet's record as it reads a
    :class:`TCPSegment`: in any order, with overlap, FIN and RST, both
    return the same bytes and leave the same state."""

    @given(isns=st.tuples(st.integers(0, 2**32 - 1),
                          st.integers(0, 2**32 - 1)),
           steps=_STEPS, content=st.binary(min_size=64, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_records_and_segments_agree(self, isns, steps, content):
        from repro.core.values import Addr
        from repro.net.packet import build_tcp_packet, decode

        ends = {True: (Addr("10.0.0.1"), Addr("10.0.0.2"), 4000, 80),
                False: (Addr("10.0.0.2"), Addr("10.0.0.1"), 80, 4000)}
        by_record = ConnectionReassembler()
        by_segment = ConnectionReassembler()
        cursor = {True: 0, False: 0}
        for is_orig, in_order, start, length, salt, flags in steps:
            if in_order:
                start = cursor[is_orig]
            cursor[is_orig] = start + length
            isn = isns[0] if is_orig else isns[1]
            seq = isn if flags & SYN else (isn + 1 + start) % 2**32
            payload = bytes((byte + salt) % 256
                            for byte in content[start:start + length])
            src, dst, sport, dport = ends[is_orig]
            record = decode(build_tcp_packet(src, dst, sport, dport, seq,
                                             0, flags, payload))
            segment = TCPSegment(sport, dport, seq, 0, flags,
                                 payload=payload)
            assert (by_record.feed_segment(is_orig, record)
                    == by_segment.feed_segment(is_orig, segment))
            assert by_record.established == by_segment.established
            assert by_record.closed == by_segment.closed
            assert by_record.stats() == by_segment.stats()
