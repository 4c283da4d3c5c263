"""Struct slot semantics, on every tier.

A struct instance is one slot list copied from its type's template; a
slot holding ``UNSET`` is an unset field without a default.  At -O1
constant-field struct ops compile to direct slot access behind a
per-site inline cache (``codegen._struct_site``); the interpreter and
-O0 run the generic REGISTRY functions and are the oracle.  Every
program here must give the same outcome *and* the same
``ctx.instr_count`` on all three.
"""

import copy
import pickle

import pytest

from repro.core import hiltic
from repro.core import types as ht
from repro.core.optimize import OPT_LEVELS
from repro.runtime.exceptions import HiltiError
from repro.runtime.structs import UNSET, StructInstance

_TYPES = """module Main
type A = struct { int<64> x, int<64> y = 7, int<64> z }
type B = struct { int<64> z, int<64> y = 9, int<64> x }
"""

# name -> (function text, expected outcome)
_PROGRAMS = {
    "set_then_get": ("""
int<64> f() {
    local ref<A> s
    local int<64> r
    s = new A
    struct.set s x 41
    r = struct.get s x
    r = int.incr r
    return r
}""", 42),
    "default_reads_without_set": ("""
int<64> f() {
    local ref<A> s
    local int<64> r
    s = new A
    r = struct.get s y
    return r
}""", 7),
    "unset_field_read_traps_mid_batch": ("""
int<64> f() {
    local ref<A> s
    local int<64> r
    s = new A
    r = int.add 1 2
    r = struct.get s z
    r = int.add r 1
    return r
}""", "Hilti::UndefinedValue"),
    "null_reference_traps": ("""
int<64> f() {
    local ref<A> s
    local int<64> r
    r = int.add 1 2
    r = struct.get s x
    return r
}""", "Hilti::ValueError"),
    "null_reference_set_traps": ("""
int<64> f() {
    local ref<A> s
    struct.set s x 1
    return 0
}""", "Hilti::ValueError"),
    "is_set_and_get_default": ("""
int<64> f() {
    local ref<A> s
    local bool b
    local int<64> r
    local int<64> t
    s = new A
    b = struct.is_set s x
    r = select b 100 0
    b = struct.is_set s y
    t = select b 10 0
    r = int.add r t
    t = struct.get_default s z -5
    r = int.add r t
    struct.set s z 3
    t = struct.get_default s z -5
    r = int.add r t
    return r
}""", 10 - 5 + 3),
    "unset_restores_default_or_unset": ("""
int<64> f() {
    local ref<A> s
    local bool b
    local int<64> r
    local int<64> t
    s = new A
    struct.set s x 1
    struct.set s y 2
    struct.unset s x
    struct.unset s y
    b = struct.is_set s x
    r = select b 100 0
    t = struct.get s y
    r = int.add r t
    return r
}""", 7),
    # One site (in `pick`) sees A, then B, then A again: the inline
    # cache misses and re-points each time; x is slot 0 in A, slot 2 in
    # B, so a stale index would read z.
    "two_types_through_one_site": ("""
int<64> pick(any s) {
    local int<64> r
    r = struct.get s x
    return r
}

int<64> f() {
    local ref<A> a
    local ref<B> b
    local int<64> r
    local int<64> t
    a = new A
    b = new B
    struct.set a x 1
    struct.set a z 50
    struct.set b x 20
    struct.set b z 60
    r = call pick(a)
    t = call pick(b)
    r = int.add r t
    t = call pick(a)
    r = int.add r t
    t = call pick(b)
    r = int.add r t
    return r
}""", 42),
    "any_typed_site_traps_on_null_after_a_hit": ("""
int<64> pick(any s) {
    local int<64> r
    r = struct.get s x
    return r
}

int<64> f() {
    local ref<A> a
    local ref<A> nothing
    local int<64> r
    a = new A
    struct.set a x 1
    r = call pick(a)
    r = call pick(nothing)
    return r
}""", "Hilti::ValueError"),
}


def _run(text, **kwargs):
    program = hiltic([_TYPES + text], **kwargs)
    ctx = program.make_context()
    try:
        outcome = program.call(ctx, "Main::f", [])
    except HiltiError as error:
        outcome = error.except_type.type_name
    return outcome, ctx.instr_count


@pytest.mark.parametrize("name", sorted(_PROGRAMS))
def test_every_tier_agrees_with_the_interpreter(name):
    text, expected = _PROGRAMS[name]
    oracle = _run(text, tier="interpreted")
    assert oracle[0] == expected
    assert _run(text, opt_level=0) == oracle
    for level in OPT_LEVELS:
        # The optimizer may fold instructions away; the outcome may not
        # change.
        assert _run(text, opt_level=level)[0] == expected, level
    # -O1 keeps the IR's instruction count: charging (incl. the
    # line-number-based charge of a trap inside a batch) is unchanged.
    assert _run(text, opt_level=1) == oracle


def test_unknown_field_is_a_python_value_error_on_every_tier():
    text = """
int<64> f() {
    local ref<A> s
    local int<64> r
    s = new A
    r = struct.get s nope
    return r
}"""
    for kwargs in ({"tier": "interpreted"}, {"opt_level": 0},
                   {"opt_level": 1}):
        with pytest.raises(ValueError, match="no field 'nope'"):
            _run(text, **kwargs)


class TestStructInstance:
    TYPE = ht.StructT("T", [
        ht.StructField("a", ht.INT64),
        ht.StructField("b", ht.INT64, 5),
    ])

    def test_slots_start_as_the_template(self):
        s = StructInstance(self.TYPE)
        assert s._slots == [UNSET, 5] and s._slots is not self.TYPE.template
        assert not s.is_set("a") and s.is_set("b")
        assert s.get("b") == 5 and s.get_default("a", -1) == -1
        with pytest.raises(HiltiError, match="is unset") as caught:
            s.get("a")
        assert caught.value.except_type.type_name == "Hilti::UndefinedValue"

    def test_set_none_is_set(self):
        s = StructInstance(self.TYPE)
        s.set("a", None)
        assert s.is_set("a") and s.get("a") is None

    def test_unset_goes_back_to_the_template(self):
        s = StructInstance(self.TYPE)
        s.set("a", 1)
        s.set("b", 2)
        s.unset("a")
        s.unset("b")
        assert s._slots == [UNSET, 5]

    def test_eq_hash_repr(self):
        s, t = StructInstance(self.TYPE), StructInstance(self.TYPE)
        assert s == t and hash(s) == hash(t)
        assert repr(s) == "<T a=<unset> b=5>"
        t.set("a", None)  # set-to-None is not unset
        assert s != t
        s.set("a", None)
        assert s == t and hash(s) == hash(t)
        other = ht.StructT("U", self.TYPE.fields)
        assert StructInstance(other) != StructInstance(self.TYPE)

    def test_unset_is_a_singleton_through_copy_and_pickle(self):
        assert copy.deepcopy(UNSET) is UNSET
        assert pickle.loads(pickle.dumps(UNSET)) is UNSET
        clone = copy.deepcopy(self.TYPE)
        assert clone == self.TYPE and clone.template[0] is UNSET
