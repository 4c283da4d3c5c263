"""Differential testing: interpreter vs. compiled tier.

Both execution tiers must produce identical results for identical
programs — the guarantee that lets benchmarks attribute differences to
*execution strategy* rather than semantics.
"""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import hiltic
from repro.core.values import Addr, Time

_ARITH_SRC = """module Main
int<64> compute(int<64> a, int<64> b) {
    local int<64> s
    local int<64> p
    local int<64> d
    s = int.add a b
    p = int.mul s a
    local bool neg
    neg = int.lt p 0
    if.else neg flip keep
flip:
    p = int.neg p
keep:
    d = int.sub p b
    return d
}
"""

_STATE_SRC = """module Main
global ref<map<string, int<64>>> table

void init() {
    table = new map<string, int<64>>
}

void put(string k, int<64> v) {
    map.insert table k v
}

int<64> get_or(string k, int<64> dflt) {
    local int<64> r
    r = map.get_default table k dflt
    return r
}
"""

_FIREWALL_SRC = """module Main
import Hilti
type Rule = struct { net src, net dst }
global ref<classifier<Rule, bool>> rules
global ref<set<tuple<addr, addr>>> dyn

void init_classifier() {
    rules = new classifier<Rule, bool>
    classifier.add rules (10.0.0.0/8, *) True
    classifier.compile rules
    dyn = new set<tuple<addr, addr>>
    set.timeout dyn ExpireStrategy::Access interval(300)
}

bool match_packet(time t, addr src, addr dst) {
    local bool b
    timer_mgr.advance_global t
    b = set.exists dyn (src, dst)
    if.else b return_action lookup
lookup:
    try {
        b = classifier.get rules (src, dst)
    } catch (ref<Hilti::IndexError> e) {
        return False
    }
    if.else b add_state return_action
add_state:
    set.insert dyn (src, dst)
    set.insert dyn (dst, src)
return_action:
    return b
}
"""


def _both(source):
    compiled = hiltic([source], tier="compiled")
    interp = hiltic([source], tier="interpreted")
    return (compiled, compiled.make_context()), (interp, interp.make_context())


class TestDifferential:
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    @settings(max_examples=40)
    def test_arithmetic(self, a, b):
        (cp, cc), (ip, ic) = _both(_ARITH_SRC)
        assert cp.call(cc, "Main::compute", [a, b]) == \
            ip.call(ic, "Main::compute", [a, b])

    def test_stateful_map(self):
        (cp, cc), (ip, ic) = _both(_STATE_SRC)
        for program, ctx in ((cp, cc), (ip, ic)):
            program.call(ctx, "Main::init")
            program.call(ctx, "Main::put", ["a", 1])
            program.call(ctx, "Main::put", ["b", 2])
        assert cp.call(cc, "Main::get_or", ["a", 0]) == \
            ip.call(ic, "Main::get_or", ["a", 0]) == 1
        assert cp.call(cc, "Main::get_or", ["zz", -7]) == \
            ip.call(ic, "Main::get_or", ["zz", -7]) == -7

    @given(st.lists(
        st.tuples(
            st.integers(0, 120),
            st.sampled_from(["10.1.2.3", "10.9.9.9", "11.1.1.1",
                             "192.168.0.5"]),
            st.sampled_from(["10.1.2.3", "8.8.8.8", "10.200.1.1"]),
        ),
        max_size=25,
    ))
    @settings(max_examples=20, deadline=None)
    def test_firewall_program(self, packets):
        (cp, cc), (ip, ic) = _both(_FIREWALL_SRC)
        cp.call(cc, "Main::init_classifier")
        ip.call(ic, "Main::init_classifier")
        clock = 0
        for delta, src, dst in packets:
            clock += delta
            args = [Time(float(clock)), Addr(src), Addr(dst)]
            assert cp.call(cc, "Main::match_packet", list(args)) == \
                ip.call(ic, "Main::match_packet", list(args))

    def test_optimized_matches_unoptimized(self):
        results = set()
        for level in (0, 1):
            program = hiltic([_ARITH_SRC], opt_level=level)
            results.add(program.call(program.make_context(),
                                     "Main::compute", [10, -3]))
        assert len(results) == 1
