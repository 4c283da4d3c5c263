"""Compiling BPF filters into HILTI code.

The paper's first exemplar: instead of interpreting filters on the BPF
stack machine, compile them into native code via HILTI, leveraging a
HILTI *overlay* type for parsing IP packet headers (Figure 4).  The
generated function has the shape

    bool filter(ref<bytes> packet) { ... }

taking a raw Ethernet frame.  Conditions lower to overlay field reads plus
branches; port tests compute the variable IP header length at runtime
through the overlay's ``hdr_len`` sub-byte field, exactly the kind of
wire-format detail overlays encapsulate.
"""

from __future__ import annotations

from typing import Callable, Optional

from ...core import types as ht
from ...core.builder import FunctionBuilder, ModuleBuilder
from ...core.codegen import CompiledProgram
from ...core.toolchain import hiltic
from ...runtime.bytes_buffer import Bytes
from .lang import And, HostTest, NetTest, Node, Not, Or, PortTest, ProtoTest, parse_filter

__all__ = ["compile_to_hilti", "build_filter_module", "HiltiFilter"]

_ETH_LEN = 14


def build_filter_module(node: Node) -> ModuleBuilder:
    """Emit a Main module with ``Main::filter`` implementing *node*."""
    mb = ModuleBuilder("Main")
    # The IP header overlay, offset by the Ethernet header — the Figure 4
    # type, extended with the fields port tests need.
    ip_header = mb.overlay("IP::Header", [
        ("version", ht.INT8, _ETH_LEN + 0, "UInt8Big", (4, 7)),
        ("hdr_len", ht.INT8, _ETH_LEN + 0, "UInt8Big", (0, 3)),
        ("frag", ht.INT16, _ETH_LEN + 6, "UInt16Big", (0, 12)),
        ("proto", ht.INT8, _ETH_LEN + 9, "UInt8Big"),
        ("src", ht.ADDR, _ETH_LEN + 12, "IPv4"),
        ("dst", ht.ADDR, _ETH_LEN + 16, "IPv4"),
    ])
    eth_header = mb.overlay("Eth::Header", [
        ("ethertype", ht.INT16, 12, "UInt16Big"),
    ])

    fb = mb.function("filter", [("packet", ht.RefT(ht.BYTES))], ht.BOOL)
    # BPF semantics: an out-of-bounds load rejects the packet.  The whole
    # filter body runs inside an exception scope, so truncated frames
    # fail safe instead of surfacing Hilti::IndexError to the host.
    from ...core.ir import LabelRef, TypeRef
    from ...runtime.exceptions import EXCEPTION_BASE

    fb.emit("try.begin", LabelRef("reject_error"), TypeRef(EXCEPTION_BASE))
    counter = [0]

    def fresh(hint: str) -> str:
        counter[0] += 1
        return f"{hint}_{counter[0]}"

    accept = "accept"
    reject = "reject"

    def emit_node(n: Node, t_label: str, f_label: str) -> None:
        if isinstance(n, Or):
            middle = fresh("or")
            emit_node(n.left, t_label, middle)
            fb.block(middle)
            emit_node(n.right, t_label, f_label)
            return
        if isinstance(n, And):
            middle = fresh("and")
            emit_node(n.left, middle, f_label)
            fb.block(middle)
            emit_node(n.right, t_label, f_label)
            return
        if isinstance(n, Not):
            emit_node(n.child, f_label, t_label)
            return
        # Primitive: guard on IPv4 ethertype first.
        ethertype = fb.temp(ht.INT16, "ethertype")
        is_ip = fb.temp(ht.BOOL, "is_ip")
        fb.emit("overlay.get", fb.type_ref(eth_header), fb.field("ethertype"),
                fb.var("packet"), target=ethertype)
        fb.emit("int.eq", ethertype, fb.const(ht.INT16, 0x0800),
                target=is_ip)
        ip_ok = fresh("ip_ok")
        fb.branch(is_ip, ip_ok, f_label)
        fb.block(ip_ok)

        if isinstance(n, ProtoTest):
            if n.proto == "ip":
                fb.jump(t_label)
                return
            proto_value = 6 if n.proto == "tcp" else 17
            proto = fb.temp(ht.INT8, "proto")
            match = fb.temp(ht.BOOL, "proto_eq")
            fb.emit("overlay.get", fb.type_ref(ip_header), fb.field("proto"),
                    fb.var("packet"), target=proto)
            fb.emit("int.eq", proto, fb.const(ht.INT8, proto_value),
                    target=match)
            fb.branch(match, t_label, f_label)
            return
        if isinstance(n, HostTest):
            value = fb.const(ht.ADDR, n.addr)
            if n.direction in (None, "src"):
                src = fb.temp(ht.ADDR, "src")
                eq_src = fb.temp(ht.BOOL, "eq_src")
                fb.emit("overlay.get", fb.type_ref(ip_header),
                        fb.field("src"), fb.var("packet"), target=src)
                fb.emit("addr.eq", src, value, target=eq_src)
                if n.direction == "src":
                    fb.branch(eq_src, t_label, f_label)
                    return
                check_dst = fresh("check_dst")
                fb.branch(eq_src, t_label, check_dst)
                fb.block(check_dst)
            dst = fb.temp(ht.ADDR, "dst")
            eq_dst = fb.temp(ht.BOOL, "eq_dst")
            fb.emit("overlay.get", fb.type_ref(ip_header), fb.field("dst"),
                    fb.var("packet"), target=dst)
            fb.emit("addr.eq", dst, value, target=eq_dst)
            fb.branch(eq_dst, t_label, f_label)
            return
        if isinstance(n, NetTest):
            net_const = fb.const(ht.NET, n.net)
            if n.direction in (None, "src"):
                src = fb.temp(ht.ADDR, "src")
                in_src = fb.temp(ht.BOOL, "in_src")
                fb.emit("overlay.get", fb.type_ref(ip_header),
                        fb.field("src"), fb.var("packet"), target=src)
                fb.emit("net.contains", net_const, src, target=in_src)
                if n.direction == "src":
                    fb.branch(in_src, t_label, f_label)
                    return
                check_dst = fresh("check_dst")
                fb.branch(in_src, t_label, check_dst)
                fb.block(check_dst)
            dst = fb.temp(ht.ADDR, "dst")
            in_dst = fb.temp(ht.BOOL, "in_dst")
            fb.emit("overlay.get", fb.type_ref(ip_header), fb.field("dst"),
                    fb.var("packet"), target=dst)
            fb.emit("net.contains", net_const, dst, target=in_dst)
            fb.branch(in_dst, t_label, f_label)
            return
        if isinstance(n, PortTest):
            proto = fb.temp(ht.INT8, "proto")
            is_tcp = fb.temp(ht.BOOL, "is_tcp")
            is_udp = fb.temp(ht.BOOL, "is_udp")
            fb.emit("overlay.get", fb.type_ref(ip_header), fb.field("proto"),
                    fb.var("packet"), target=proto)
            fb.emit("int.eq", proto, fb.const(ht.INT8, 6), target=is_tcp)
            proto_ok = fresh("proto_ok")
            check_udp = fresh("check_udp")
            fb.branch(is_tcp, proto_ok, check_udp)
            fb.block(check_udp)
            fb.emit("int.eq", proto, fb.const(ht.INT8, 17), target=is_udp)
            fb.branch(is_udp, proto_ok, f_label)
            fb.block(proto_ok)
            # Fragments carry no ports.
            frag = fb.temp(ht.INT16, "frag")
            frag_off = fb.temp(ht.INT16, "frag_off")
            unfragmented = fb.temp(ht.BOOL, "unfragmented")
            fb.emit("overlay.get", fb.type_ref(ip_header), fb.field("frag"),
                    fb.var("packet"), target=frag)
            fb.emit("int.and", frag, fb.const(ht.INT16, 0x1FFF),
                    target=frag_off)
            fb.emit("int.eq", frag_off, fb.const(ht.INT16, 0),
                    target=unfragmented)
            ports_ok = fresh("ports")
            fb.branch(unfragmented, ports_ok, f_label)
            fb.block(ports_ok)
            # Transport offset = 14 + 4 * hdr_len, computed at runtime.
            hdr_len = fb.temp(ht.INT8, "hdr_len")
            words = fb.temp(ht.INT64, "words")
            transport = fb.temp(ht.INT64, "transport_off")
            fb.emit("overlay.get", fb.type_ref(ip_header),
                    fb.field("hdr_len"), fb.var("packet"), target=hdr_len)
            fb.emit("int.mul", hdr_len, fb.const(ht.INT64, 4), target=words)
            fb.emit("int.add", words, fb.const(ht.INT64, _ETH_LEN),
                    target=transport)
            port_const = fb.const(ht.INT64, n.port)
            if n.direction in (None, "src"):
                sport = fb.temp(ht.INT64, "sport")
                eq_sport = fb.temp(ht.BOOL, "eq_sport")
                fb.emit("unpack", fb.var("packet"), transport,
                        fb.field("UInt16Big"), target=sport)
                fb.emit("int.eq", sport, port_const, target=eq_sport)
                if n.direction == "src":
                    fb.branch(eq_sport, t_label, f_label)
                    return
                check_dport = fresh("check_dport")
                fb.branch(eq_sport, t_label, check_dport)
                fb.block(check_dport)
            dport_off = fb.temp(ht.INT64, "dport_off")
            dport = fb.temp(ht.INT64, "dport")
            eq_dport = fb.temp(ht.BOOL, "eq_dport")
            fb.emit("int.add", transport, fb.const(ht.INT64, 2),
                    target=dport_off)
            fb.emit("unpack", fb.var("packet"), dport_off,
                    fb.field("UInt16Big"), target=dport)
            fb.emit("int.eq", dport, port_const, target=eq_dport)
            fb.branch(eq_dport, t_label, f_label)
            return
        raise ValueError(f"cannot compile filter node {n!r}")

    emit_node(node, accept, reject)
    fb.block(accept)
    fb.ret(fb.const(ht.BOOL, True))
    fb.block(reject)
    fb.ret(fb.const(ht.BOOL, False))
    fb.block("reject_error")
    fb.ret(fb.const(ht.BOOL, False))
    return mb


class HiltiFilter:
    """A compiled filter: callable host-side object over raw frames."""

    def __init__(self, program: CompiledProgram):
        self.program = program
        self.ctx = program.make_context()
        self._call = program.call

    def __call__(self, frame) -> bool:
        if isinstance(frame, (bytes, bytearray)):
            buf = Bytes(frame)
            buf.freeze()
        else:
            buf = frame
        return self._call(self.ctx, "Main::filter", [buf])


def compile_to_hilti(filter_text_or_node, optimize: bool = True,
                     tier: str = "compiled",
                     opt_level=None) -> HiltiFilter:
    """Full pipeline: filter expression -> HILTI -> executable filter."""
    node = (
        parse_filter(filter_text_or_node)
        if isinstance(filter_text_or_node, str)
        else filter_text_or_node
    )
    module = build_filter_module(node).finish()
    program = hiltic([module], optimize=optimize, tier=tier,
                     opt_level=opt_level)
    if tier == "interpreted":
        filt = HiltiFilter.__new__(HiltiFilter)
        filt.program = program
        filt.ctx = program.make_context()
        filt._call = program.call
        return filt
    return HiltiFilter(program)
