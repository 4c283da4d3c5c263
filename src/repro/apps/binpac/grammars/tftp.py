"""A BinPAC++ TFTP grammar (RFC 1350).

A compact binary protocol exercising opcode-switched parsing: request
packets carry NUL-terminated strings, data packets carry a block number
plus payload to end-of-datagram, and errors carry a code and message.
Included as a third shipped grammar demonstrating that the generator
handles classic binary unit layouts beyond HTTP/DNS.
"""

from __future__ import annotations

from ..ast import (
    BytesField,
    ComputeField,
    Call,
    Grammar,
    LiteralField,
    PatternField,
    SelfField,
    SeqField,
    SwitchField,
    UIntField,
    Unit,
)

__all__ = ["tftp_grammar", "OP_RRQ", "OP_WRQ", "OP_DATA", "OP_ACK",
           "OP_ERROR"]

OP_RRQ = 1
OP_WRQ = 2
OP_DATA = 3
OP_ACK = 4
OP_ERROR = 5

_CSTRING = r"[^\x00]*"


def _request_fields():
    return SeqField([
        PatternField("filename", _CSTRING),
        LiteralField(None, b"\x00"),
        PatternField("mode_raw", _CSTRING),
        LiteralField(None, b"\x00"),
        ComputeField("mode", Call("lower", [SelfField("mode_raw")])),
    ])


def tftp_grammar() -> Grammar:
    g = Grammar("TFTP", datagram=True)
    g.unit(Unit("Packet", [
        UIntField("opcode", 16),
        SwitchField(SelfField("opcode"), [
            (OP_RRQ, _request_fields()),
            (OP_WRQ, _request_fields()),
            (OP_DATA, SeqField([
                UIntField("block", 16),
                BytesField("data", eod=True),
            ])),
            (OP_ACK, UIntField("block", 16)),
            (OP_ERROR, SeqField([
                UIntField("error_code", 16),
                PatternField("error_msg", _CSTRING),
                LiteralField(None, b"\x00"),
            ])),
        ], default=None),
    ], exported=True))
    return g
