"""The mini-Bro script language and interpreter."""

import io

import pytest

from repro.apps.bro.builtins import bro_fmt
from repro.apps.bro.core import BroCore
from repro.apps.bro.interp import ScriptInterp
from repro.apps.bro.lang import BroParseError, parse_script
from repro.apps.bro.val import RecordType, RecordVal
from repro.core.values import Addr, Interval, Port


def _interp(source, out=None):
    core = BroCore(print_stream=out or io.StringIO())
    return ScriptInterp(parse_script(source), core,
                        print_stream=core.print_stream), core


class TestParsing:
    def test_figure8_track_bro(self):
        script = parse_script("""
global hosts: set[addr];

event connection_established(c: connection) {
    add hosts[c$id$resp_h];
}

event bro_done() {
    for ( i in hosts )
        print i;
}
""")
        assert len(script.globals) == 1
        assert len(script.events) == 2

    def test_record_types(self):
        script = parse_script("""
type Info: record {
    ts: time;
    n: count &optional;
};
""")
        assert script.types[0].fields[0][0] == "ts"

    def test_literals(self):
        script = parse_script("""
global a: addr = 10.1.2.3;
global p: port = 80/tcp;
global i: interval = 5 min;
global s: string = "hi";
global b: bool = T;
""")
        inits = [g.init.value for g in script.globals]
        assert inits[0] == Addr("10.1.2.3")
        assert inits[1] == Port(80, "tcp")
        assert inits[2] == Interval(300.0)
        assert inits[3] == "hi"
        assert inits[4] is True

    def test_errors(self):
        with pytest.raises(BroParseError):
            parse_script("event f() { if }")
        with pytest.raises(BroParseError):
            parse_script("wat x;")


class TestInterpreter:
    def test_functions_and_recursion(self):
        interp, __ = _interp("""
function fib(n: count): count {
    if ( n < 2 )
        return n;
    return fib(n - 1) + fib(n - 2);
}
""")
        assert interp.call_function("fib", [10]) == 55

    def test_event_dispatch_multiple_handlers(self):
        interp, __ = _interp("""
global total: count;

event tick(n: count) {
    total = total + n;
}

event tick(n: count) {
    total = total + 100;
}
""")
        assert interp.dispatch("tick", [5]) == 2
        assert interp.globals["total"] == 105

    def test_tables_and_in(self):
        interp, __ = _interp("""
global t: table[string] of count;

function put(k: string, v: count) {
    t[k] = v;
}

function has(k: string): bool {
    return k in t;
}

function missing(k: string): bool {
    return k !in t;
}
""")
        interp.call_function("put", ["a", 1])
        assert interp.call_function("has", ["a"]) is True
        assert interp.call_function("has", ["b"]) is False
        assert interp.call_function("missing", ["b"]) is True

    def test_multi_key_tables(self):
        interp, __ = _interp("""
global t: table[string, count] of string;

function put(a: string, b: count, v: string) {
    t[a, b] = v;
}

function get(a: string, b: count): string {
    return t[a, b];
}

function has(a: string, b: count): bool {
    return [a, b] in t;
}
""")
        interp.call_function("put", ["x", 1, "v1"])
        assert interp.call_function("get", ["x", 1]) == "v1"
        assert interp.call_function("has", ["x", 1]) is True
        assert interp.call_function("has", ["x", 2]) is False

    def test_vector_append_idiom(self):
        interp, __ = _interp("""
global v: vector of count;

function push(x: count) {
    v[|v|] = x;
}

function total(): count {
    local sum: count = 0;
    for ( i in v )
        sum = sum + v[i];
    return sum;
}
""")
        for x in (1, 2, 3):
            interp.call_function("push", [x])
        assert interp.call_function("total", []) == 6

    def test_records(self):
        interp, __ = _interp("""
type Pair: record {
    a: count;
    b: string;
};

function make(x: count): Pair {
    local p: Pair;
    p$a = x;
    p$b = fmt("n=%d", x);
    return p;
}

function geta(p: Pair): count {
    return p$a;
}

function hasb(p: Pair): bool {
    return p?$b;
}
""")
        pair = interp.call_function("make", [7])
        assert interp.call_function("geta", [pair]) == 7
        assert interp.call_function("hasb", [pair]) is True
        assert pair.get("b") == "n=7"

    def test_sets_add_delete(self):
        interp, __ = _interp("""
global s: set[addr];

event seen(a: addr) {
    add s[a];
}

event forget(a: addr) {
    delete s[a];
}
""")
        interp.dispatch("seen", [Addr("1.1.1.1")])
        interp.dispatch("seen", [Addr("2.2.2.2")])
        assert len(interp.globals["s"]) == 2
        interp.dispatch("forget", [Addr("1.1.1.1")])
        assert len(interp.globals["s"]) == 1

    def test_print(self):
        out = io.StringIO()
        interp, __ = _interp("""
event go() {
    print "x", 42, T;
}
""", out=out)
        interp.dispatch("go", [])
        assert out.getvalue() == "x, 42, T\n"

    def test_ternary(self):
        interp, __ = _interp("""
function pick(b: bool): string {
    return b ? "yes" : "no";
}
""")
        assert interp.call_function("pick", [True]) == "yes"
        assert interp.call_function("pick", [False]) == "no"

    def test_short_circuit(self):
        interp, __ = _interp("""
global t: table[string] of count;

function safe(k: string): bool {
    return k in t && t[k] > 0;
}
""")
        # RHS would raise if evaluated: short-circuit must protect it.
        assert interp.call_function("safe", ["missing"]) is False


class TestBuiltins:
    def test_fmt(self):
        assert bro_fmt("%s=%d (%f)", "x", 3, 1.5) == "x=3 (1.500000)"
        assert bro_fmt("%%") == "%"
        assert bro_fmt("%x", 255) == "ff"

    def test_fmt_errors(self):
        from repro.apps.bro.val import BroRuntimeError

        with pytest.raises(BroRuntimeError):
            bro_fmt("%d")
        with pytest.raises(BroRuntimeError):
            bro_fmt("%q", 1)

    def test_log_write_through_core(self):
        core = BroCore()
        core.logs.create_stream("test", ["a", "b"])
        row = RecordType("row", [("a", None), ("b", None)])
        record = RecordVal(row, {"a": 1, "b": "x"})
        core.log_write("test", record)
        assert core.logs.lines("test") == ["1\tx"]
