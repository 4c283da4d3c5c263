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
from repro.runtime.containers import HiltiMap, HiltiSet, HiltiVector


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
        from repro.runtime.containers import HiltiVector

        glue, core = Glue(), BroCore()
        conn = self._conn(core)
        assert glue.to_hilti(conn) is conn
        assert glue.from_hilti(conn) is conn
        # A container inside crosses with it, as the same object.
        state = HiltiVector(items=[1, 2])
        conn.set("state", state)
        assert glue.to_hilti(conn) is conn and conn.get("state") is state
        assert glue.from_hilti(conn) is conn and conn.get("state") is state
        assert glue.to_hilti_calls == glue.from_hilti_calls == 2

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
        assert built != RecordVal(row) != built
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
        # The boundary rule for containers: one representation, crossing
        # by reference.  A set the host puts in `c$state` is the object
        # both engines' scripts add to, and a script global the script
        # stores in `c$proto` is the host's to read, on both engines.
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
            seeded = HiltiSet()
            seeded.insert("seed")
            conn.set("state", seeded)
            engine.dispatch("tag", [conn])
            engine.dispatch("report", [conn])
            assert conn.get("state") is seeded
            assert sorted(seeded) == ["a", "b", "seed"]
            assert type(conn.get("proto")) is HiltiSet
            assert sorted(conn.get("proto")) == ["t", "u"]
        assert out_i.getvalue() == out_h.getvalue() == "3, T, T, T\n"

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

    @pytest.mark.parametrize("decl", [
        "global r: Nope;",
        "event e() {\n    local r: Nope;\n}",
    ])
    def test_undeclared_record_type_is_an_error_on_both_engines(self, decl):
        from repro.apps.bro.val import BroRuntimeError

        messages = []
        with pytest.raises(BroRuntimeError) as raised:
            # The interpreter rejects a global's type when it loads it,
            # a local's when the handler first declares it.
            ScriptInterp(parse_script(decl), BroCore()).dispatch("e", [])
        messages.append(str(raised.value))
        with pytest.raises(BroRuntimeError) as raised:
            ScriptCompiler(parse_script(decl), BroCore()).compile()
        messages.append(str(raised.value))
        assert messages == ["unknown record type 'Nope'"] * 2

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
        from repro.apps.bro.val import index, index_assign

        glue = Glue()
        table, vector = HiltiMap(), HiltiVector(items=[1, 2])
        index_assign(table, ("k", 2), vector)
        assert glue.from_hilti(glue.to_hilti(table)) is table
        assert index(table, ("k", 2)) is vector
        members = HiltiSet()
        members.insert(Addr("1.2.3.4"))
        assert glue.args_from_hilti(glue.args_to_hilti([members, 7])) \
            == [members, 7]


_scalar_vals = st.one_of(
    st.integers(-1000, 1000),
    st.text(max_size=8),
    st.booleans(),
    st.builds(Addr.from_v4_int, st.integers(0, (1 << 32) - 1)),
)


_ABC_TYPE = RecordType("Abc", [("a", None), ("b", None), ("c", None)])


def _hilti_set(members):
    out = HiltiSet()
    for member in members:
        out.insert(member)
    return out


@st.composite
def _vals(draw, depth=0):
    """A Bro value: a scalar, or a typed record or container of them."""
    if depth >= 2:
        return draw(_scalar_vals)
    choice = draw(st.integers(0, 4))
    if choice == 0:
        return draw(_scalar_vals)
    if choice == 1:
        return HiltiVector(items=draw(st.lists(_vals(depth + 1),
                                               max_size=4)))
    if choice == 2:
        return _hilti_set(draw(st.lists(_scalar_vals, max_size=4)))
    if choice == 3:
        table = HiltiMap()
        for key in draw(st.lists(_scalar_vals, max_size=4, unique_by=str)):
            table.insert(key, draw(_vals(depth + 1)))
        return table
    fields = draw(st.dictionaries(
        st.sampled_from(["a", "b", "c"]), _vals(depth + 1), max_size=3,
    ))
    return RecordVal(_ABC_TYPE, fields)


def _parts(value):
    """Every record and container reachable from *value*, by identity."""
    if isinstance(value, RecordVal):
        children = list(value.fields().values())
    elif isinstance(value, HiltiMap):
        children = [item for __, item in value.items()]
    elif isinstance(value, (HiltiVector, HiltiSet)):
        children = list(value)
    else:
        return []
    return [id(value)] + [part for child in children
                          for part in _parts(child)]


class TestGlueRoundtripProperty:
    @given(_vals())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_preserves_structure(self, value):
        from repro.apps.bro.glue import Glue

        # One representation: a value crosses both ways as itself, and
        # so does everything it holds.
        glue = Glue()
        parts = _parts(value)
        assert glue.from_hilti(glue.to_hilti(value)) is value
        assert _parts(value) == parts


def _drained(src, events):
    """Queue *events* on both engines, drain them through the event
    engine; per engine: (printed output, weird lines, script.call
    errors)."""
    from repro.apps.bro.core import WEIRD_LOG_COLUMNS
    from repro.runtime.faults import SITE_SCRIPT_CALL

    outcomes = []
    for engine, core, out in _engines(src):
        core.logs.create_stream("weird", WEIRD_LOG_COLUMNS)
        for name, args in events:
            core.queue_event(name, list(args))
        assert core.drain_events() == len(events)
        outcomes.append((out.getvalue(), core.logs.lines("weird"),
                         core.health.errors_at(SITE_SCRIPT_CALL)))
    return outcomes


class TestContainerSemantics:
    """Bro's container semantics are written once (``repro.apps.bro.val``)
    and both engines run them: same results, same runtime errors."""

    def test_vector_grows_only_by_assignment_at_its_size(self):
        src = """
global v: vector of count;

event put(i: count, x: count) {
    v[i] = x;
}

event report() {
    print |v|, v;
}
"""
        interp, compiled = _drained(src, [
            ("put", (3, 7)), ("put", (0, 1)), ("put", (1, 2)),
            ("put", (0, 5)), ("put", (3, 9)), ("report", ()),
        ])
        assert interp == compiled
        out, weirds, errors = interp
        assert out == "2, {5, 2}\n"
        assert errors == 2
        assert [line.split("\t")[2:] for line in weirds] == [
            ["analyzer_violation", "put: vector index 3 out of range"],
        ] * 2

    def test_missing_key_is_contained_on_both_engines(self):
        src = """
global t: table[string] of count;

event lookup(k: string) {
    print "before";
    print t[k];
    print "after";
}

event later() {
    t["x"] = 1;
    print "later", |t|;
}
"""
        interp, compiled = _drained(src, [
            ("lookup", ("x",)), ("later", ()), ("lookup", ("x",)),
        ])
        assert interp == compiled
        out, weirds, errors = interp
        # The failing event is dropped where it fails; later ones run.
        assert out == "before\nlater, 1\nbefore\n1\nafter\n"
        assert errors == 1
        assert [line.split("\t")[2:] for line in weirds] == [
            ["analyzer_violation", "lookup: no such index: 'x'"],
        ]

    def test_membership_iteration_and_delete(self):
        src = """
global s: set[string];
global t: table[count, string] of string;
global v: vector of string;

event fill() {
    add s["a"];
    add s["b"];
    t[1, "x"] = "one";
    t[2, "y"] = "two";
    v[|v|] = "p";
    v[|v|] = "q";
    delete s["a"];
    delete t[1, "x"];
    delete s["zz"];
}

event report() {
    for ( m in s )
        print "s", m, m in s, "a" in s;
    for ( k in t )
        print "t", k, t[k];
    for ( i in v )
        print "v", i, v[i], "q" in v;
    print |s|, |t|, |v|, [2, "y"] in t, "ell" in "hello";
}
"""
        interp, compiled = _drained(src, [("fill", ()), ("report", ())])
        assert interp == compiled
        assert interp[1:] == ([], 0)
        assert interp[0] == (
            "s, b, T, F\nt, 2, y, two\nv, 0, p, T\nv, 1, q, T\n"
            "1, 1, 2, T, T\n")
