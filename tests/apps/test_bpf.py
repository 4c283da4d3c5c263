"""The BPF exemplar: language, classic VM, HILTI compiler, equivalence."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.bpf import compile_to_hilti, compile_to_vm, parse_filter
from repro.apps.bpf.lang import (
    And,
    FilterError,
    HostTest,
    NetTest,
    Not,
    Or,
    PortTest,
    ProtoTest,
)
from repro.apps.bpf.vm import BpfVmError
from repro.core.values import Addr
from repro.net.packet import build_tcp_packet, build_udp_packet
from repro.net.tracegen import HttpTraceConfig, generate_http_trace


class TestFilterLanguage:
    def test_paper_example(self):
        node = parse_filter("host 192.168.1.1 or src net 10.0.5.0/24")
        assert isinstance(node, Or)
        assert isinstance(node.left, HostTest)
        assert node.left.direction is None
        assert isinstance(node.right, NetTest)
        assert node.right.direction == "src"

    def test_precedence_not_and_or(self):
        node = parse_filter("not tcp and port 80 or udp")
        assert isinstance(node, Or)
        assert isinstance(node.left, And)
        assert isinstance(node.left.left, Not)

    def test_parentheses(self):
        node = parse_filter("tcp and (port 80 or port 443)")
        assert isinstance(node, And)
        assert isinstance(node.right, Or)

    def test_errors(self):
        for bad in ("", "bogus 1", "host", "port abc", "tcp and"):
            with pytest.raises(FilterError):
                parse_filter(bad)


def _tcp(src, dst, sport, dport, payload=b""):
    return build_tcp_packet(Addr(src), Addr(dst), sport, dport,
                            payload=payload)


def _udp(src, dst, sport, dport):
    return build_udp_packet(Addr(src), Addr(dst), sport, dport)


_SAMPLE = [
    _tcp("192.168.1.1", "10.0.0.1", 1234, 80),
    _tcp("10.0.0.1", "192.168.1.1", 80, 1234),
    _tcp("10.0.5.7", "10.0.0.1", 5555, 443),
    _udp("10.0.5.200", "8.8.8.8", 53535, 53),
    _udp("172.16.0.1", "8.8.4.4", 1111, 53),
    _tcp("10.99.0.1", "10.98.0.1", 2000, 8080),
]

_FILTERS = [
    "host 192.168.1.1",
    "src host 10.0.0.1",
    "dst host 8.8.8.8",
    "net 10.0.0.0/8",
    "src net 10.0.5.0/24",
    "tcp",
    "udp",
    "ip",
    "port 80",
    "src port 53535",
    "dst port 53",
    "tcp and port 80",
    "host 192.168.1.1 or src net 10.0.5.0/24",
    "not tcp",
    "udp and dst port 53 and src net 10.0.5.0/24",
    "not (port 80 or port 443)",
]


class TestVmAgainstHilti:
    @pytest.mark.parametrize("expression", _FILTERS)
    def test_same_verdicts(self, expression):
        node = parse_filter(expression)
        vm = compile_to_vm(node)
        hilti = compile_to_hilti(node)
        for frame in _SAMPLE:
            assert bool(vm.run(frame)) == hilti(frame), (
                f"{expression!r} disagrees"
            )

    def test_non_ip_always_rejected(self):
        from repro.net.packet import EthernetFrame

        arp = EthernetFrame(b"\x00" * 28, ethertype=0x0806).build()
        node = parse_filter("host 1.2.3.4")
        assert compile_to_vm(node).run(arp) == 0
        assert compile_to_hilti(node)(arp) is False

    def test_truncated_packet_rejected(self):
        node = parse_filter("port 80")
        assert compile_to_vm(node).run(b"\x00" * 20) == 0


class TestOnTrace:
    def test_match_counts_agree(self):
        frames = generate_http_trace(HttpTraceConfig(sessions=25))
        from repro.net.packet import parse_ethernet

        ip, __ = parse_ethernet(frames[7][1])
        expression = f"host {ip.src} or src net 172.16.0.0/16 and port 80"
        node = parse_filter(expression)
        vm = compile_to_vm(node)
        hilti = compile_to_hilti(node)
        vm_hits = sum(1 for __t, f in frames if vm.run(f))
        hilti_hits = sum(1 for __t, f in frames if hilti(f))
        assert vm_hits == hilti_hits > 0

    def test_interpreted_tier_agrees_too(self):
        frames = generate_http_trace(HttpTraceConfig(sessions=10))
        node = parse_filter("src net 10.10.0.0/16 and port 80")
        compiled = compile_to_hilti(node, tier="compiled")
        interp = compile_to_hilti(node, tier="interpreted")
        for __, frame in frames[:60]:
            assert compiled(frame) == interp(frame)


class TestBpfAppStub:
    """BpfApp enters Main::filter through its host stub on both tiers."""

    @pytest.mark.parametrize("engine", ["compiled", "interpreted"])
    def test_watchdog_trip_is_contained_as_reject(self, engine):
        from repro.apps.bpf.app import BpfApp
        from repro.core.values import Time
        from repro.host.app import PipelineServices

        app = BpfApp("tcp and port 80", engine=engine,
                     services=PipelineServices(watchdog_budget=1))
        frame = _SAMPLE[0]  # matches without a watchdog
        app.packet(Time(1.0), frame)
        # The filter's own catch-all handler turns the ProcessingTimeout
        # into its reject verdict: fail safe, nothing escapes the stub.
        assert (app.accepted, app.rejected, app.errors) == (0, 1, 0)
        assert app._ctx.instr_count > 1
        assert app._ctx.instr_budget is None  # disarmed again

        roomy = BpfApp("tcp and port 80", engine=engine,
                       services=PipelineServices(watchdog_budget=10_000))
        roomy.packet(Time(1.0), frame)
        assert (roomy.accepted, roomy.errors) == (1, 0)

    def test_stub_counts_every_packet(self):
        hilti = compile_to_hilti("tcp")
        for frame in _SAMPLE:
            hilti(frame)
        assert hilti.stub.calls == len(_SAMPLE)
        assert hilti.stub.overhead_ns > 0


class TestVmVerifier:
    def test_rejects_empty(self):
        from repro.apps.bpf.vm import BpfProgram

        with pytest.raises(BpfVmError):
            BpfProgram([])

    def test_rejects_missing_ret(self):
        from repro.apps.bpf.vm import BpfInstruction, BpfProgram

        with pytest.raises(BpfVmError):
            BpfProgram([BpfInstruction("ldh_abs", 12)])


_addr_pool = ["192.168.1.1", "10.0.5.9", "10.0.6.9", "172.16.2.3"]


@st.composite
def _filter_nodes(draw, depth=0):
    if depth >= 2:
        choice = draw(st.integers(0, 3))
    else:
        choice = draw(st.integers(0, 6))
    if choice == 0:
        return HostTest(Addr(draw(st.sampled_from(_addr_pool))),
                        draw(st.sampled_from([None, "src", "dst"])))
    if choice == 1:
        from repro.core.values import Network

        net = draw(st.sampled_from(
            ["10.0.0.0/8", "10.0.5.0/24", "172.16.0.0/12"]))
        return NetTest(Network(net),
                       draw(st.sampled_from([None, "src", "dst"])))
    if choice == 2:
        return PortTest(draw(st.sampled_from([53, 80, 443, 1234])),
                        draw(st.sampled_from([None, "src", "dst"])))
    if choice == 3:
        return ProtoTest(draw(st.sampled_from(["ip", "tcp", "udp"])))
    if choice == 4:
        return Not(draw(_filter_nodes(depth + 1)))
    if choice == 5:
        return And(draw(_filter_nodes(depth + 1)),
                   draw(_filter_nodes(depth + 1)))
    return Or(draw(_filter_nodes(depth + 1)),
              draw(_filter_nodes(depth + 1)))


class TestRandomFilters:
    @given(_filter_nodes())
    @settings(max_examples=30, deadline=None)
    def test_vm_and_hilti_agree_on_random_filters(self, node):
        vm = compile_to_vm(node)
        hilti = compile_to_hilti(node, opt_level=0)
        for frame in _SAMPLE:
            assert bool(vm.run(frame)) == hilti(frame)
