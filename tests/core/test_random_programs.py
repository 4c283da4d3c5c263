"""Property-based differential testing with randomly generated programs.

Hypothesis builds random (but well-typed) HILTI functions over integer
and boolean locals — straight-line arithmetic, branches, and loops with
bounded trip counts — and checks three engines against each other:

* the compiled tier (closure/bytecode codegen),
* the compiled tier with all HILTI-level optimizations applied,
* the reference interpreter.

Any divergence is a real bug in codegen, the optimizer, or the
interpreter.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import hiltic
from repro.core import types as ht
from repro.core.builder import ModuleBuilder
from repro.runtime.exceptions import HiltiError

_N_VARS = 4
_PURE_BINOPS = ["int.add", "int.sub", "int.mul", "int.min", "int.max",
                "int.and", "int.or", "int.xor"]
_CMP_OPS = ["int.eq", "int.lt", "int.le", "int.gt", "int.ge"]


@st.composite
def _straightline(draw):
    """A list of (mnemonic, target_index, a_index_or_const, b_...)."""
    n_ops = draw(st.integers(1, 12))
    ops = []
    for __ in range(n_ops):
        mnemonic = draw(st.sampled_from(_PURE_BINOPS))
        target = draw(st.integers(0, _N_VARS - 1))
        a = draw(st.one_of(st.integers(0, _N_VARS - 1).map(lambda i: ("v", i)),
                           st.integers(-50, 50).map(lambda c: ("c", c))))
        b = draw(st.one_of(st.integers(0, _N_VARS - 1).map(lambda i: ("v", i)),
                           st.integers(-50, 50).map(lambda c: ("c", c))))
        ops.append((mnemonic, target, a, b))
    return ops


def _build_straightline(ops):
    mb = ModuleBuilder("Main")
    params = [(f"v{i}", ht.INT64) for i in range(_N_VARS)]
    fb = mb.function("f", params, ht.INT64)

    def operand(spec):
        kind, value = spec
        if kind == "v":
            return fb.var(f"v{value}")
        return fb.const(ht.INT64, value)

    for mnemonic, target, a, b in ops:
        fb.emit(mnemonic, operand(a), operand(b),
                target=fb.var(f"v{target}"))
    total = fb.temp(ht.INT64, "total")
    fb.emit("assign", fb.const(ht.INT64, 0), target=total)
    for i in range(_N_VARS):
        fb.emit("int.add", total, fb.var(f"v{i}"), target=total)
    fb.ret(total)
    return mb.finish()


class TestStraightLine:
    @given(_straightline(),
           st.lists(st.integers(-1000, 1000), min_size=_N_VARS,
                    max_size=_N_VARS))
    @settings(max_examples=60, deadline=None)
    def test_three_engines_agree(self, ops, args):
        module = _build_straightline(ops)
        compiled = hiltic([module], opt_level=0)
        # Rebuild: the optimizer mutates modules in place.
        optimized = hiltic([_build_straightline(ops)])
        interp = hiltic([_build_straightline(ops)], tier="interpreted")
        expected = interp.call(interp.make_context(), "Main::f", list(args))
        assert compiled.call(
            compiled.make_context(), "Main::f", list(args)) == expected
        assert optimized.call(
            optimized.make_context(), "Main::f", list(args)) == expected


@st.composite
def _branchy(draw):
    """(comparison op, threshold, then-ops, else-ops, loop-count)."""
    return (
        draw(st.sampled_from(_CMP_OPS)),
        draw(st.integers(-20, 20)),
        draw(_straightline()),
        draw(_straightline()),
        draw(st.integers(0, 8)),
    )


def _build_branchy(spec):
    cmp_op, threshold, then_ops, else_ops, loop_n = spec
    mb = ModuleBuilder("Main")
    params = [(f"v{i}", ht.INT64) for i in range(_N_VARS)]
    fb = mb.function("f", params, ht.INT64)

    def operand(spec_):
        kind, value = spec_
        if kind == "v":
            return fb.var(f"v{value}")
        return fb.const(ht.INT64, value)

    def emit_ops(ops):
        for mnemonic, target, a, b in ops:
            fb.emit(mnemonic, operand(a), operand(b),
                    target=fb.var(f"v{target}"))

    cond = fb.temp(ht.BOOL, "cond")
    counter = fb.temp(ht.INT64, "i")
    fb.emit("assign", fb.const(ht.INT64, 0), target=counter)
    fb.jump("head")
    fb.block("head")
    more = fb.temp(ht.BOOL, "more")
    fb.emit("int.lt", counter, fb.const(ht.INT64, loop_n), target=more)
    fb.branch(more, "body", "out")
    fb.block("body")
    fb.emit(cmp_op, fb.var("v0"), fb.const(ht.INT64, threshold),
            target=cond)
    fb.branch(cond, "then", "orelse")
    fb.block("then")
    emit_ops(then_ops)
    fb.jump("next")
    fb.block("orelse")
    emit_ops(else_ops)
    fb.jump("next")
    fb.block("next")
    fb.emit("int.incr", counter, target=counter)
    fb.jump("head")
    fb.block("out")
    total = fb.temp(ht.INT64, "total")
    fb.emit("assign", fb.const(ht.INT64, 0), target=total)
    for i in range(_N_VARS):
        fb.emit("int.add", total, fb.var(f"v{i}"), target=total)
    fb.ret(total)
    return mb.finish()


class TestBranchesAndLoops:
    @given(_branchy(),
           st.lists(st.integers(-100, 100), min_size=_N_VARS,
                    max_size=_N_VARS))
    @settings(max_examples=40, deadline=None)
    def test_three_engines_agree(self, spec, args):
        interp = hiltic([_build_branchy(spec)], tier="interpreted")
        compiled = hiltic([_build_branchy(spec)], opt_level=0)
        optimized = hiltic([_build_branchy(spec)])
        expected = interp.call(interp.make_context(), "Main::f", list(args))
        assert compiled.call(
            compiled.make_context(), "Main::f", list(args)) == expected
        assert optimized.call(
            optimized.make_context(), "Main::f", list(args)) == expected


class TestTrappingPrograms:
    @given(st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=30, deadline=None)
    def test_division_agrees_including_traps(self, a, b):
        source = """module Main
int<64> f(int<64> a, int<64> b) {
    local int<64> q
    local int<64> r
    q = int.div a b
    r = int.mod a b
    local int<64> out
    out = int.add q r
    return out
}
"""
        compiled = hiltic([source])
        interp = hiltic([source], tier="interpreted")

        def outcome(program):
            try:
                return ("ok", program.call(
                    program.make_context(), "Main::f", [a, b]))
            except HiltiError as error:
                return ("raise", error.except_type.type_name)

        assert outcome(compiled) == outcome(interp)
        if b != 0:
            # C semantics: truncation toward zero.
            q = abs(a) // abs(b)
            if (a >= 0) != (b >= 0):
                q = -q
            r = a - b * q
            assert outcome(compiled) == ("ok", q + r)
