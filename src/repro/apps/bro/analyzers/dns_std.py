"""The standard DNS analyzer — Bro's manually written parser.

An independent, hand-written DNS message decoder (the manual C++ stand-in
of §6.4): struct unpacking, its own name decompression, per-record-type
RDATA interpretation.  Mirrors the paper's noted semantic quirks of the
standard parser: TXT records contribute only their *first* character
string, and non-DNS traffic on port 53 aborts the analyzer quickly.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from ....core.values import Interval
from ....runtime.containers import HiltiVector

__all__ = ["DnsStdAnalyzer"]

_QTYPE_NAMES = {
    1: "A", 2: "NS", 5: "CNAME", 6: "SOA", 12: "PTR", 15: "MX",
    16: "TXT", 28: "AAAA", 33: "SRV",
}


class _Malformed(ValueError):
    pass


def _read_name(message: bytes, offset: int) -> Tuple[str, int]:
    labels: List[str] = []
    jumped = False
    end_offset = offset
    hops = 0
    while True:
        if offset >= len(message):
            raise _Malformed("name runs past message end")
        length = message[offset]
        if length == 0:
            offset += 1
            break
        if length & 0xC0 == 0xC0:
            if offset + 1 >= len(message):
                raise _Malformed("truncated compression pointer")
            pointer = ((length & 0x3F) << 8) | message[offset + 1]
            if not jumped:
                end_offset = offset + 2
                jumped = True
            if pointer >= len(message):
                raise _Malformed("pointer past end")
            offset = pointer
            hops += 1
            if hops > 64:
                raise _Malformed("compression loop")
            continue
        if length > 63:
            raise _Malformed(f"label length {length}")
        if offset + 1 + length > len(message):
            raise _Malformed("truncated label")
        labels.append(
            message[offset + 1:offset + 1 + length].decode("latin-1")
        )
        offset += 1 + length
        if len(labels) > 128:
            raise _Malformed("name too long")
    if not jumped:
        end_offset = offset
    return ".".join(labels).lower(), end_offset


class DnsStdAnalyzer:
    """Parses one UDP datagram per call (complete PDUs, like Bro's)."""

    name = "dns-std"

    def __init__(self, conn, core):
        self.conn = conn
        self.core = core
        self.messages = 0
        self.malformed = 0

    def data(self, is_orig: bool, payload: bytes) -> None:
        try:
            self._parse(is_orig, payload)
            self.messages += 1
        except (_Malformed, struct.error):
            # The standard parser aborts quickly on non-DNS port-53 data.
            self.malformed += 1

    def end(self) -> None:
        pass

    def _parse(self, is_orig: bool, message: bytes) -> None:
        if len(message) < 12:
            raise _Malformed("short header")
        txid, flags, qdcount, ancount, nscount, arcount = struct.unpack(
            ">HHHHHH", message[:12]
        )
        is_response = bool(flags & 0x8000)
        rcode = flags & 0x000F
        offset = 12
        query = ""
        qtype = 0
        for __ in range(qdcount):
            query, offset = _read_name(message, offset)
            if offset + 4 > len(message):
                raise _Malformed("truncated question")
            qtype, __qclass = struct.unpack_from(">HH", message, offset)
            offset += 4
        if not is_response:
            self.core.queue_event("dns_request", [
                self.conn, txid, query, qtype,
                _QTYPE_NAMES.get(qtype, str(qtype)),
            ])
            return
        answers = HiltiVector()
        ttls = HiltiVector()
        for record_index in range(ancount + nscount + arcount):
            name, offset = _read_name(message, offset)
            if offset + 10 > len(message):
                raise _Malformed("truncated RR header")
            rtype, rclass, ttl, rdlength = struct.unpack_from(
                ">HHIH", message, offset
            )
            offset += 10
            if offset + rdlength > len(message):
                raise _Malformed("truncated RDATA")
            rdata = message[offset:offset + rdlength]
            rendered = self._render_rdata(message, offset, rtype, rdata)
            offset += rdlength
            if record_index < ancount and rendered is not None:
                answers.append(rendered)
                ttls.append(Interval(float(ttl)))
        self.core.queue_event("dns_response", [
            self.conn, txid, query, qtype,
            _QTYPE_NAMES.get(qtype, str(qtype)), rcode, answers, ttls,
        ])

    def _render_rdata(self, message: bytes, offset: int, rtype: int,
                      rdata: bytes) -> Optional[str]:
        if rtype == 1 and len(rdata) == 4:
            return ".".join(str(b) for b in rdata)
        if rtype == 28 and len(rdata) == 16:
            from ....core.values import Addr

            return str(Addr(rdata))
        if rtype in (2, 5, 12):
            name, __ = _read_name(message, offset)
            return name
        if rtype == 15:
            if len(rdata) < 2:
                raise _Malformed("short MX")
            name, __ = _read_name(message, offset + 2)
            return name
        if rtype == 16:
            # Standard-parser quirk (paper §6.4): only the first
            # character string of a TXT record is extracted.
            if not rdata:
                return ""
            length = rdata[0]
            return rdata[1:1 + length].decode("latin-1")
        return f"<rtype-{rtype}>"
