"""TCP stream reassembly.

The paper envisions a robust TCP reassembler as exactly the kind of
reusable component HILTI should provide as a library (sections 1 and 7).
This implementation reorders out-of-sequence segments, resolves
overlapping retransmissions (first-arrival wins, the common NIDS policy),
tracks FIN/RST teardown, and hands contiguous payload to a consumer —
which, in the Bro-style host application, is the incremental BinPAC++
parser feeding a suspended fiber.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .packet import ACK, FIN, RST, SYN

__all__ = ["StreamReassembler", "ConnectionReassembler"]

_SEQ_MOD = 1 << 32


def _seq_lt(a: int, b: int) -> bool:
    """Sequence-number comparison with 32-bit wraparound."""
    return ((a - b) & 0xFFFFFFFF) > 0x7FFFFFFF


class StreamReassembler:
    """One direction of a TCP connection.

    Out-of-order data waits in ``_pending`` as mutually *disjoint*
    segments strictly ahead of ``_next_seq`` — overlapping and duplicated
    retransmits (including adversarial ones carrying conflicting bytes)
    are resolved deterministically on insert with a first-arrival-wins
    policy, and total buffered data is bounded by *max_pending_bytes* so
    a flood of disjoint out-of-window segments cannot grow memory without
    limit (excess data is dropped and counted, like a content gap).
    """

    __slots__ = ("_next_seq", "_pending", "_pending_bytes",
                 "_finished", "delivered_bytes", "gap_bytes",
                 "out_of_order_segments", "duplicate_segments",
                 "overlap_bytes", "dropped_bytes", "max_pending_bytes")

    #: Default cap on buffered out-of-order payload per direction.
    DEFAULT_MAX_PENDING = 4 * 1024 * 1024

    def __init__(self, max_pending_bytes: int = DEFAULT_MAX_PENDING):
        self._next_seq: Optional[int] = None
        # pending: seq -> payload, only out-of-order data waits here.
        self._pending: Dict[int, bytes] = {}
        self._pending_bytes = 0
        self._finished = False
        self.delivered_bytes = 0
        self.gap_bytes = 0
        self.out_of_order_segments = 0
        # Entirely-old retransmits and segments fully covered by buffered
        # data (adversarial duplication shows up here).
        self.duplicate_segments = 0
        # Bytes discarded because an earlier arrival already covered them.
        self.overlap_bytes = 0
        # Bytes discarded by the max_pending_bytes memory bound.
        self.dropped_bytes = 0
        self.max_pending_bytes = max_pending_bytes

    def on_syn(self, seq: int) -> None:
        self._next_seq = (seq + 1) % _SEQ_MOD

    def feed(self, seq: int, payload: bytes, fin: bool = False) -> bytes:
        """Add a segment; returns newly contiguous payload (may be empty)."""
        if self._finished:
            return b""
        if self._next_seq is None:
            # Mid-stream pickup: accept the first segment as the origin.
            self._next_seq = seq
        result = b""
        if payload:
            self._insert(seq, payload)
            result = self._drain()
            self.delivered_bytes += len(result)
        if fin:
            fin_seq = (seq + len(payload)) % _SEQ_MOD
            if not _seq_lt(self._next_seq, fin_seq):
                self._finished = True
        return result

    def skip_gap(self) -> int:
        """Skip over a sequence hole to the earliest pending segment.

        Returns the number of bytes skipped (0 if nothing pending).  Host
        applications call this to resume after loss — Bro's "content gap"
        handling.
        """
        if not self._pending or self._next_seq is None:
            return 0
        nearest = min(
            self._pending,
            key=lambda s: (s - self._next_seq) & 0xFFFFFFFF,
        )
        skipped = (nearest - self._next_seq) & 0xFFFFFFFF
        self.gap_bytes += skipped
        self._next_seq = nearest
        return skipped

    def pending_bytes(self) -> int:
        return self._pending_bytes

    # -- internals ------------------------------------------------------------

    def _insert(self, seq: int, payload: bytes) -> None:
        next_seq = self._next_seq
        behind = (next_seq - seq) & 0xFFFFFFFF
        if 0 < behind <= 0x7FFFFFFF:
            # Segment starts before next_seq: trim the overlap
            # (first-arrival wins — already delivered bytes stand).
            if behind >= len(payload):
                self.duplicate_segments += 1
                return  # Entirely old data (retransmission).
            self.overlap_bytes += behind
            payload = payload[behind:]
            seq = next_seq
        if seq != next_seq:
            self.out_of_order_segments += 1
        # Linearize sequence space relative to next_seq, then trim the
        # newcomer against every buffered segment (first-arrival wins):
        # what remains is a set of pieces disjoint from all pending data.
        rel = (seq - next_seq) & 0xFFFFFFFF
        pieces = [(rel, payload)]
        for existing_seq, existing in self._pending.items():
            if not pieces:
                break
            e0 = (existing_seq - next_seq) & 0xFFFFFFFF
            e1 = e0 + len(existing)
            remaining = []
            for p0, data in pieces:
                p1 = p0 + len(data)
                if p1 <= e0 or p0 >= e1:
                    remaining.append((p0, data))
                    continue
                self.overlap_bytes += min(p1, e1) - max(p0, e0)
                if p0 < e0:
                    remaining.append((p0, data[:e0 - p0]))
                if p1 > e1:
                    remaining.append((e1, data[e1 - p0:]))
            pieces = remaining
        if not pieces:
            self.duplicate_segments += 1
            return
        budget = self.max_pending_bytes - self._pending_bytes
        for p0, data in sorted(pieces):
            if p0 > 0:
                # Only out-of-order pieces consume the memory budget; a
                # piece at next_seq drains immediately in _drain(), so a
                # full buffer never blocks the in-order stream.
                if budget <= 0:
                    self.dropped_bytes += len(data)
                    continue
                if len(data) > budget:
                    self.dropped_bytes += len(data) - budget
                    data = data[:budget]
                budget -= len(data)
            self._pending[(next_seq + p0) & 0xFFFFFFFF] = data
            self._pending_bytes += len(data)

    def _drain(self) -> bytes:
        # Pending segments are disjoint and strictly ahead of next_seq,
        # so draining is a plain walk of the contiguous prefix.
        chunks: List[bytes] = []
        while self._next_seq in self._pending:
            chunk = self._pending.pop(self._next_seq)
            self._pending_bytes -= len(chunk)
            chunks.append(chunk)
            self._next_seq = (self._next_seq + len(chunk)) % _SEQ_MOD
        return b"".join(chunks)


class ConnectionReassembler:
    """Both directions of a TCP connection.

    ``feed_segment`` returns the contiguous payload each segment makes
    available; ``established`` turns true once the three-way handshake
    completed, ``closed`` once both sides finished or a RST arrived.
    """

    __slots__ = ("originator", "responder", "_syn_seen", "_syn_ack_seen",
                 "established", "closed")

    def __init__(
        self,
        max_pending_bytes: int = StreamReassembler.DEFAULT_MAX_PENDING,
    ):
        self.originator = StreamReassembler(max_pending_bytes)
        self.responder = StreamReassembler(max_pending_bytes)
        self._syn_seen = False
        self._syn_ack_seen = False
        self.established = False
        self.closed = False

    def feed_segment(self, is_originator: bool, segment) -> bytes:
        """Process one segment; returns contiguous new payload.

        *segment* is a :class:`~repro.net.packet.TCPSegment` or a decoded
        packet's :class:`~repro.net.packet.Decoded` record: both carry
        ``seq``, ``flags``, ``payload_len`` and ``payload``, and the
        payload is only sliced out of a decoded frame when it is not
        empty.
        """
        if self.closed:
            return b""
        flags = segment.flags
        if flags & RST:
            self.closed = True
            return b""
        stream = self.originator if is_originator else self.responder
        seq = segment.seq
        if flags & SYN:
            if is_originator:
                self._syn_seen = True
            else:
                self._syn_ack_seen = True
            stream.on_syn(seq)
            seq = (seq + 1) % _SEQ_MOD
        elif (flags & ACK and not self.established and self._syn_seen
              and self._syn_ack_seen):
            self.established = True
        length = segment.payload_len
        if (seq == stream._next_seq and not stream._pending
                and not stream._finished):
            # In order with nothing waiting: the payload is the stream's
            # next stretch and a FIN ends the stream right after it,
            # exactly as StreamReassembler.feed would have it.
            data = b""
            if length:
                data = segment.payload
                stream._next_seq = (seq + length) % _SEQ_MOD
                stream.delivered_bytes += length
            if not flags & FIN:
                return data
            stream._finished = True
        else:
            data = stream.feed(
                seq, segment.payload if length else b"", flags & FIN)
        if self.originator._finished and self.responder._finished:
            self.closed = True
        return data

    def stats(self) -> dict:
        """Both directions' accounting, summed (telemetry export)."""
        orig, resp = self.originator, self.responder
        return {
            "delivered_bytes": orig.delivered_bytes + resp.delivered_bytes,
            "pending_bytes": orig._pending_bytes + resp._pending_bytes,
            "gap_bytes": orig.gap_bytes + resp.gap_bytes,
            "overlap_bytes": orig.overlap_bytes + resp.overlap_bytes,
            "dropped_bytes": orig.dropped_bytes + resp.dropped_bytes,
        }
