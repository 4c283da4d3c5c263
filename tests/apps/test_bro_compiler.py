"""The Bro script compiler: interpreter vs. compiled HILTI differential."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.bro.compiler import ScriptCompiler
from repro.apps.bro.core import BroCore
from repro.apps.bro.interp import ScriptInterp
from repro.apps.bro.lang import parse_script
from repro.apps.bro.val import RecordType, RecordVal
from repro.core.values import Addr


def _engines(source):
    """(interp_engine, interp_core), (hilti_engine, hilti_core)."""
    out_i, out_h = io.StringIO(), io.StringIO()
    core_i = BroCore(print_stream=out_i)
    interp = ScriptInterp(parse_script(source), core_i,
                          print_stream=out_i)
    core_i.script_engine = interp
    core_h = BroCore(print_stream=out_h)
    compiled = ScriptCompiler(parse_script(source), core_h).compile()
    core_h.script_engine = compiled
    return (interp, core_i, out_i), (compiled, core_h, out_h)


class TestDifferential:
    def test_fib(self):
        src = """
function fib(n: count): count {
    if ( n < 2 )
        return n;
    return fib(n - 1) + fib(n - 2);
}
"""
        (interp, *__), (compiled, *___) = _engines(src)
        for n in (0, 1, 5, 12):
            assert interp.call_function("fib", [n]) == \
                compiled.call_function("fib", [n])

    def test_figure8_output_matches(self):
        src = """
global hosts: set[addr];

event connection_established(c: connection) {
    add hosts[c$id$resp_h];
}

event bro_done() {
    for ( i in hosts )
        print i;
}
"""
        (interp, core_i, out_i), (compiled, core_h, out_h) = _engines(src)
        for engine, core in ((interp, core_i), (compiled, core_h)):
            for ip in ("208.80.152.118", "208.80.152.2", "208.80.152.3"):
                conn = core.make_connection_val(
                    "C1", Addr("10.0.0.1"), None, Addr(ip), None,
                    core.network_time(), "tcp",
                )
                engine.dispatch("connection_established", [conn])
            engine.dispatch("bro_done", [])
        assert out_i.getvalue() == out_h.getvalue()
        assert "208.80.152.118" in out_i.getvalue()

    def test_state_tables_match(self):
        src = """
global t: table[string] of count;

event put(k: string, v: count) {
    t[k] = v;
}

function get(k: string): count {
    if ( k in t )
        return t[k];
    return 0;
}
"""
        (interp, *__), (compiled, *___) = _engines(src)
        for engine in (interp, compiled):
            engine.dispatch("put", ["a", 1])
            engine.dispatch("put", ["b", 2])
            engine.dispatch("put", ["a", 3])
        assert interp.call_function("get", ["a"]) == \
            compiled.call_function("get", ["a"]) == 3
        assert interp.call_function("get", ["zz"]) == \
            compiled.call_function("get", ["zz"]) == 0

    def test_records_and_vectors_match(self):
        src = """
type Info: record {
    name: string;
    hits: count;
};

global infos: vector of Info;

event observe(name: string) {
    local found: bool = F;
    for ( i in infos ) {
        if ( infos[i]$name == name ) {
            infos[i]$hits = infos[i]$hits + 1;
            found = T;
        }
    }
    if ( ! found ) {
        local info: Info;
        info$name = name;
        info$hits = 1;
        infos[|infos|] = info;
    }
}

function report(): string {
    local s: string = "";
    for ( i in infos )
        s = s + fmt("%s=%d;", infos[i]$name, infos[i]$hits);
    return s;
}
"""
        (interp, *__), (compiled, *___) = _engines(src)
        for engine in (interp, compiled):
            for name in ("a", "b", "a", "c", "a", "b"):
                engine.dispatch("observe", [name])
        assert interp.call_function("report", []) == \
            compiled.call_function("report", []) == "a=3;b=2;c=1;"

    def test_logging_matches(self):
        src = """
type Row: record {
    k: string;
    v: count;
};

event emit(k: string, v: count) {
    local row: Row;
    row$k = k;
    row$v = v;
    Log::write("rows", row);
}
"""
        (interp, core_i, __), (compiled, core_h, ___) = _engines(src)
        core_i.logs.create_stream("rows", ["k", "v"])
        core_h.logs.create_stream("rows", ["k", "v"])
        for engine in (interp, compiled):
            engine.dispatch("emit", ["x", 1])
            engine.dispatch("emit", ["y", 2])
        assert core_i.logs.lines("rows") == core_h.logs.lines("rows")

    @given(st.lists(st.tuples(st.sampled_from("abcd"),
                              st.integers(0, 100)), max_size=20))
    @settings(max_examples=15, deadline=None)
    def test_random_event_sequences(self, ops):
        src = """
global acc: table[string] of count;

event bump(k: string, v: count) {
    if ( k in acc )
        acc[k] = acc[k] + v;
    else
        acc[k] = v;
}

function value(k: string): count {
    if ( k in acc )
        return acc[k];
    return 0;
}
"""
        (interp, *__), (compiled, *___) = _engines(src)
        for key, amount in ops:
            interp.dispatch("bump", [key, amount])
            compiled.dispatch("bump", [key, amount])
        for key in "abcd":
            assert interp.call_function("value", [key]) == \
                compiled.call_function("value", [key])


class TestRecordBoundary:
    """Typed records cross the Bro/HILTI boundary by reference."""

    @staticmethod
    def _conn(core):
        return core.make_connection_val(
            "C1", Addr("10.0.0.1"), 1, Addr("10.0.0.2"), 2,
            core.network_time(), "tcp",
        )

    def test_handler_writes_alias_like_the_interpreter(self):
        src = """
event mark(c: connection) {
    c$state = "seen";
    c$id$resp_p = 8080;
}

event mark(c: connection) {
    print c$state, c$id$resp_p;
}

event report(c: connection) {
    print c?$duration, c$state, c$id$resp_p;
}
"""
        (interp, core_i, out_i), (compiled, core_h, out_h) = _engines(src)
        for engine, core in ((interp, core_i), (compiled, core_h)):
            conn = self._conn(core)
            engine.dispatch("mark", [conn])
            engine.dispatch("report", [conn])
            # The host sees the script's writes, on both engines.
            assert conn.get("state") == "seen"
            assert conn.get("id").get("resp_p") == 8080
        assert out_i.getvalue() == out_h.getvalue() == \
            "seen, 8080\nF, seen, 8080\n"

    def test_typed_record_is_not_copied(self):
        from repro.apps.bro.glue import Glue
        from repro.apps.bro.val import VectorVal
        from repro.runtime.containers import HiltiVector

        glue, core = Glue(), BroCore()
        conn = self._conn(core)
        assert glue.to_hilti(conn) is conn
        assert glue.from_hilti(conn) is conn
        # A Bro container inside is lowered in place, once; the record
        # still crosses as is, and Val consumers get a Val snapshot.
        conn.set("state", VectorVal([1, 2]))
        assert glue.to_hilti(conn) is conn
        lowered = conn.get("state")
        assert isinstance(lowered, HiltiVector)
        assert glue.to_hilti(conn) is conn and conn.get("state") is lowered
        snapshot = glue.from_hilti(conn)
        assert snapshot is not conn and snapshot.get("id") is conn.get("id")
        assert list(snapshot.get("state")) == [1, 2]

    def test_records_compare_and_key_alike_whoever_built_them(self):
        # One equality and hash per record type: a host-built record
        # (handed over as is) and a script-built one (`local q: Row`,
        # i.e. HILTI `new`) find each other in tables and under `==`.
        src = """
type Row: record {
    a: count;
    b: string;
};

global seen: table[Row] of count;
global stash: Row;

event put(r: Row) {
    seen[r] = 1;
    stash = r;
}

event probe() {
    local q: Row;
    q$a = 1;
    q$b = "x";
    print q in seen, q == stash;
    q$b = "y";
    print q in seen, q == stash;
}
"""
        (interp, __, out_i), (compiled, ___, out_h) = _engines(src)
        for engine, types in ((interp, interp.record_types),
                              (compiled, compiled.compiler.record_types)):
            engine.dispatch("put", [RecordVal(types["Row"],
                                              {"a": 1, "b": "x"})])
            engine.dispatch("probe", [])
        assert out_i.getvalue() == out_h.getvalue() == "T, T\nF, F\n"

    def test_script_built_record_is_a_record_val(self):
        from repro.runtime.structs import StructInstance

        row = RecordType("Row", [("a", None)])
        built = RecordVal(row, {"a": 1})
        assert built == StructInstance(row, [1]) == built
        assert hash(built) == hash(StructInstance(row, [1]))
        assert built != RecordVal(None, {"a": 1}) != built
        assert RecordVal(None, {"a": 1}) == RecordVal(None, {"a": 1})
        src = """
type Row: record {
    a: count;
};

function make(): Row {
    local r: Row;
    r$a = 1;
    return r;
}
"""
        (interp, *__), (compiled, *___) = _engines(src)
        for engine in (interp, compiled):
            made = engine.call_function("make", [])
            assert type(made) is RecordVal and made.fields() == {"a": 1}

    def test_container_fields_alias_like_the_interpreter(self):
        # The boundary rule for containers: a record that crossed into
        # compiled code lives in the shared representation.  A Bro
        # container the host put in it is lowered in place, once, so
        # script writes through `c$...` persist from event to event on
        # both engines; a container a script wrote stays a HILTI value,
        # and host code reads either through `glue.from_hilti`.
        from repro.apps.bro.val import SetVal
        from repro.runtime.containers import HiltiSet

        src = """
global tags: set[string];

event tag(c: connection) {
    add c$state["a"];
    add tags["t"];
    c$proto = tags;
}

event tag(c: connection) {
    add c$state["b"];
    add tags["u"];
}

event report(c: connection) {
    print |c$state|, "a" in c$state, "b" in c$state, "u" in c$proto;
}
"""
        (interp, core_i, out_i), (compiled, core_h, out_h) = _engines(src)
        for engine, core in ((interp, core_i), (compiled, core_h)):
            conn = self._conn(core)
            conn.set("state", SetVal(["seed"]))
            engine.dispatch("tag", [conn])
            engine.dispatch("report", [conn])
        assert out_i.getvalue() == out_h.getvalue() == "3, T, T, T\n"
        # Host side, hilti engine: HILTI values in the shared record, a
        # Val-only snapshot through the glue.
        assert isinstance(conn.get("state"), HiltiSet)
        assert isinstance(conn.get("proto"), HiltiSet)
        snapshot = compiled.glue.from_hilti(conn)
        assert snapshot is not conn
        assert sorted(snapshot.get("state")) == ["a", "b", "seed"]
        assert sorted(snapshot.get("proto")) == ["t", "u"]
        assert isinstance(snapshot.get("state"), SetVal)

    def test_undeclared_field_is_an_error_on_both_engines(self):
        from repro.apps.bro.val import BroRuntimeError

        src = """
type Row: record {
    a: count;
};

event poke(c: connection) {
    c$bogus = 1;
}

event fresh() {
    local r: Row;
    r$bogus = 1;
}
"""
        (interp, core_i, __), (compiled, core_h, ___) = _engines(src)
        for engine, core in ((interp, core_i), (compiled, core_h)):
            with pytest.raises(BroRuntimeError, match="no field 'bogus'"):
                engine.dispatch("poke", [self._conn(core)])
            with pytest.raises(BroRuntimeError, match="no field 'bogus'"):
                engine.dispatch("fresh", [])
        with pytest.raises(BroRuntimeError, match="no field 'bogus'"):
            self._conn(core_i).set("bogus", 1)

    def test_no_pending_when_means_no_watchpoint_pass(self):
        src = """
event noop() {
}
"""
        for engine, core, __ in _engines(src):
            if hasattr(engine, "program"):
                # Idle: the HILTI watchpoint pass must not be reached.
                engine.program.check_watchpoints = None
            core.queue_event("noop", [])
            assert core.drain_events() == 1
            assert engine.check_watchpoints() == 0


class TestGlueAccounting:
    def test_glue_counts_conversions(self):
        src = """
event noop(c: connection) {
}
"""
        (interp, core_i, __), (compiled, core_h, ___) = _engines(src)
        conn = core_h.make_connection_val(
            "C1", Addr("1.1.1.1"), None, Addr("2.2.2.2"), None,
            core_h.network_time(), "tcp",
        )
        before = compiled.glue.to_hilti_calls
        compiled.dispatch("noop", [conn])
        assert compiled.glue.to_hilti_calls > before
        assert compiled.glue.ns_spent > 0

    def test_roundtrip_preserves_values(self):
        from repro.apps.bro.glue import Glue
        from repro.apps.bro.val import RecordVal, SetVal, TableVal, VectorVal

        glue = Glue()
        table = TableVal({("k", 2): VectorVal([1, 2])})
        back = glue.from_hilti(glue.to_hilti(table))
        assert isinstance(back, TableVal)
        assert list(back.get(("k", 2))) == [1, 2]

        s = SetVal([Addr("1.2.3.4")])
        back = glue.from_hilti(glue.to_hilti(s))
        assert back.contains(Addr("1.2.3.4"))


_scalar_vals = st.one_of(
    st.integers(-1000, 1000),
    st.text(max_size=8),
    st.booleans(),
    st.builds(Addr.from_v4_int, st.integers(0, (1 << 32) - 1)),
)


_ABC_TYPE = RecordType("Abc", [("a", None), ("b", None), ("c", None)])


@st.composite
def _vals(draw, depth=0):
    from repro.apps.bro.val import RecordVal, SetVal, TableVal, VectorVal

    if depth >= 2:
        return draw(_scalar_vals)
    choice = draw(st.integers(0, 4))
    if choice == 0:
        return draw(_scalar_vals)
    if choice == 1:
        return VectorVal(draw(st.lists(_vals(depth + 1), max_size=4)))
    if choice == 2:
        return SetVal(draw(st.lists(_scalar_vals, max_size=4)))
    if choice == 3:
        keys = draw(st.lists(_scalar_vals, max_size=4, unique_by=str))
        from repro.apps.bro.val import TableVal

        table = TableVal()
        for key in keys:
            table.set(key, draw(_vals(depth + 1)))
        return table
    from repro.apps.bro.val import RecordVal

    fields = draw(st.dictionaries(
        st.sampled_from(["a", "b", "c"]), _vals(depth + 1), max_size=3,
    ))
    # Untyped (dict-backed, crosses by copy) or typed (slot-backed;
    # crosses as is, Bro containers in it lowered in place).
    return RecordVal(draw(st.sampled_from([None, _ABC_TYPE])), fields)


class TestGlueRoundtripProperty:
    @staticmethod
    def _canonical(value):
        """Order-insensitive structural fingerprint.

        Anonymous-record field order is not semantically significant
        (the glue's struct types canonicalize it), so records render
        with sorted fields; sets sort their members.
        """
        from repro.apps.bro.val import RecordVal, SetVal, TableVal, VectorVal

        canonical = TestGlueRoundtripProperty._canonical
        if isinstance(value, RecordVal):
            inner = ", ".join(
                f"${k}={canonical(v)}"
                for k, v in sorted(value.fields().items())
            )
            return f"[{inner}]"
        if isinstance(value, VectorVal):
            return "<" + ", ".join(canonical(v) for v in value) + ">"
        if isinstance(value, SetVal):
            return "{" + ", ".join(sorted(canonical(v) for v in value)) + "}"
        if isinstance(value, TableVal):
            entries = sorted(
                f"{canonical(k)}:{canonical(value.get(k))}" for k in value
            )
            return "map{" + ", ".join(entries) + "}"
        return repr(value)

    @given(_vals())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_preserves_structure(self, value):
        from repro.apps.bro.glue import Glue

        glue = Glue()
        # Fingerprints first: a typed record is lowered in place.
        expected = self._canonical(value), self._record_types(value)
        lowered = glue.to_hilti(value)
        if isinstance(value, RecordVal) and value.record_type is not None:
            assert lowered is value
        back = glue.from_hilti(lowered)
        assert (self._canonical(back), self._record_types(back)) == expected
        assert not self._bro_containers(lowered)

    @staticmethod
    def _record_types(value):
        """Record-type names in traversal order (typedness survives)."""
        from repro.apps.bro.val import RecordVal, TableVal

        walk = TestGlueRoundtripProperty._record_types
        if isinstance(value, RecordVal):
            name = value.record_type.name if value.record_type else None
            return [name] + [
                t for __, v in sorted(value.fields().items())
                for t in walk(v)]
        if isinstance(value, TableVal):
            return [t for k in value for t in walk(value.get(k))]
        if isinstance(value, (list, tuple)) or hasattr(value, "__iter__") \
                and not isinstance(value, (str, bytes)):
            return [t for v in value for t in walk(v)]
        return []

    @staticmethod
    def _bro_containers(value):
        """Bro containers still reachable from a lowered HILTI value."""
        from repro.apps.bro.val import SetVal, TableVal, VectorVal
        from repro.runtime.containers import HiltiMap
        from repro.runtime.structs import UNSET, StructInstance

        walk = TestGlueRoundtripProperty._bro_containers
        if isinstance(value, (SetVal, TableVal, VectorVal)):
            return [value]
        if isinstance(value, StructInstance):
            return [c for v in value._slots if v is not UNSET
                    for c in walk(v)]
        if isinstance(value, HiltiMap):
            return [c for k, v in value.items() for c in walk(k) + walk(v)]
        if hasattr(value, "__iter__") and not isinstance(value, (str, bytes)):
            return [c for v in value for c in walk(v)]
        return []
