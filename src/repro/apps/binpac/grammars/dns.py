"""The BinPAC++ DNS grammar.

Binary, count-driven parsing: fixed-width header integers, a
``&count``-repeated question section, and resource records whose RDATA is
parsed by type through a ``switch`` inside a bounded region.  Domain names
use the BinPAC runtime's decompressing name decoder (``NativeField``),
since RFC 1035 compression pointers require random access across the whole
message — the construct the paper's "semantic constructs for ... the
parsing process" extension exists for.

The mark/seek pair around the RDATA switch makes unknown record types
safe: whatever the switch consumed (or didn't), the cursor ends exactly at
``rd_start + rdlength``.
"""

from __future__ import annotations

from ..ast import (
    BinOp,
    BytesField,
    Const,
    Call,
    ComputeField,
    Grammar,
    ListField,
    MarkField,
    NativeField,
    SeekField,
    SelfField,
    SeqField,
    SubUnitField,
    SwitchField,
    UIntField,
    Unit,
)

__all__ = ["dns_grammar"]

TYPE_A = 1
TYPE_NS = 2
TYPE_CNAME = 5
TYPE_PTR = 12
TYPE_MX = 15
TYPE_TXT = 16
TYPE_AAAA = 28


def dns_grammar() -> Grammar:
    g = Grammar("DNS", datagram=True)

    g.unit(Unit("Question", [
        NativeField("qname", "dns_name"),
        UIntField("qtype", 16),
        UIntField("qclass", 16),
    ]))

    g.unit(Unit("RR", [
        NativeField("rname", "dns_name"),
        UIntField("rtype", 16),
        UIntField("rclass", 16),
        UIntField("ttl", 32),
        UIntField("rdlength", 16),
        MarkField("rd_start"),
        SwitchField(SelfField("rtype"), [
            (TYPE_A, SeqField([
                BytesField("a_raw", length=SelfField("rdlength")),
                ComputeField("addr", Call("addr_v4", [SelfField("a_raw")])),
            ])),
            (TYPE_AAAA, SeqField([
                BytesField("aaaa_raw", length=SelfField("rdlength")),
                ComputeField("addr", Call("addr_v6", [SelfField("aaaa_raw")])),
            ])),
            (TYPE_NS, NativeField("rdata_name", "dns_name")),
            (TYPE_CNAME, NativeField("rdata_name", "dns_name")),
            (TYPE_PTR, NativeField("rdata_name", "dns_name")),
            (TYPE_MX, SeqField([
                UIntField("mx_preference", 16),
                NativeField("rdata_name", "dns_name"),
            ])),
            (TYPE_TXT, SeqField([
                BytesField("txt_raw", length=SelfField("rdlength")),
                ComputeField("txt", Call("dns_txt", [SelfField("txt_raw")])),
            ])),
        ], default=None),
        # Authoritative RDATA boundary regardless of the switch arm.
        SeekField("rd_start", SelfField("rdlength")),
    ]))

    g.unit(Unit("Message", [
        UIntField("txid", 16),
        UIntField("flags", 16),
        UIntField("qdcount", 16),
        UIntField("ancount", 16),
        UIntField("nscount", 16),
        UIntField("arcount", 16),
        ComputeField("is_response",
                     BinOp("!=",
                           BinOp("&", SelfField("flags"), Const(0x8000)),
                           Const(0))),
        ComputeField("rcode",
                     BinOp("&", SelfField("flags"), Const(0x000F))),
        ListField("questions", SubUnitField(None, "Question"),
                  count=SelfField("qdcount")),
        ListField("answers", SubUnitField(None, "RR"),
                  count=SelfField("ancount")),
        ListField("authorities", SubUnitField(None, "RR"),
                  count=SelfField("nscount")),
        ListField("additionals", SubUnitField(None, "RR"),
                  count=SelfField("arcount")),
    ], exported=True))
    return g
