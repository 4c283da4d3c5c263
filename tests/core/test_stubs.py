"""Host stubs: the one entry from host code into HILTI, on both tiers.

A :class:`~repro.core.stubs.Stub` resolves its function once and then
must behave exactly like ``program.call`` by name — same results, same
errors, same instruction counts — whichever tier compiled the program.
"""

import pytest

from repro.core import hiltic
from repro.core.linker import LinkError
from repro.core.stubs import Stub
from repro.runtime.bytes_buffer import Bytes
from repro.runtime.exceptions import HiltiError

TIERS = ["compiled", "interpreted"]

SOURCE = """module Main

import Hilti

global int<64> total

int<64> div(int<64> x) {
    local int<64> r
    r = int.div 100 x
    total = int.add total r
    return r
}

int<64> steps(int<64> x) {
    local int<64> r
    r = int.add x 1
    yield
    r = int.add r 10
    yield
    total = int.add total r
    return r
}

int<64> size(ref<bytes> b) {
    local int<64> n
    n = bytes.length b
    return n
}

bool frozen(ref<bytes> b) {
    local bool f
    f = bytes.is_frozen b
    return f
}
"""


def _program(tier):
    program = hiltic([SOURCE], tier=tier)
    return program, program.make_context()


def _outcome(fn):
    try:
        return ("value", fn())
    except HiltiError as error:
        return ("error", error.except_type.type_name)


class TestParity:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("name,args", [
        ("Main::div", [4]),
        ("Main::div", [0]),          # traps: Hilti::DivisionByZero
        ("Main::steps", [5]),        # suspends twice on the compiled tier
        ("Main::size", [Bytes(b"abc")]),
    ])
    def test_stub_matches_call_by_name(self, tier, name, args):
        by_name, ctx_a = _program(tier)
        by_stub, ctx_b = _program(tier)
        expected = _outcome(lambda: by_name.call(ctx_a, name, args))
        got = _outcome(lambda: Stub(by_stub, name)(ctx_b, *args))
        assert got == expected
        assert ctx_b.instr_count == ctx_a.instr_count > 0
        assert ctx_b.globals == ctx_a.globals

    @pytest.mark.parametrize("name,args", [
        ("Main::div", [7]), ("Main::div", [0]), ("Main::steps", [1]),
    ])
    def test_tiers_agree(self, name, args):
        outcomes = [_outcome(lambda: Stub(p, name)(ctx, *args))
                    for p, ctx in map(_program, TIERS)]
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("tier", TIERS)
    def test_start_resume(self, tier):
        program, ctx = _program(tier)
        result = Stub(program, "Main::steps").start(ctx, 5)
        resumes = 0
        while result.suspended:
            result = Stub.resume(result)
            resumes += 1
        assert result.value == 16
        assert resumes == (2 if tier == "compiled" else 0)

    @pytest.mark.parametrize("tier", TIERS)
    def test_call_checked_returns_the_error(self, tier):
        program, ctx = _program(tier)
        result = Stub(program, "Main::div").call_checked(ctx, 0)
        assert result.raised
        assert "DivisionByZero" in result.error.except_type.type_name


class TestArity:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("args", [(), (1, 2), (1, 2, 3)])
    def test_mismatch_raises_hilti_error(self, tier, args):
        program, ctx = _program(tier)
        stub = Stub(program, "Main::div")
        with pytest.raises(HiltiError, match="expects 1 arguments"):
            stub(ctx, *args)
        with pytest.raises(HiltiError, match="expects 1 arguments"):
            Stub(program, "Main::steps").start(ctx, *args)
        # Nothing ran: an extra argument must not seed a local.
        assert ctx.instr_count == 0

    @pytest.mark.parametrize("tier", TIERS)
    def test_unknown_function_fails_at_build(self, tier):
        program, __ = _program(tier)
        with pytest.raises(LinkError):
            Stub(program, "Main::nope")


class TestMarshalling:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("raw", [b"hello", bytearray(b"hello")])
    def test_raw_bytes_become_frozen_hilti_bytes(self, tier, raw):
        program, ctx = _program(tier)
        assert Stub(program, "Main::size")(ctx, raw) == 5
        assert Stub(program, "Main::frozen")(ctx, raw) is True

    def test_hilti_bytes_pass_through(self):
        program, ctx = _program("compiled")
        growing = Bytes(b"ab")
        assert Stub(program, "Main::frozen")(ctx, growing) is False

    def test_accounting(self):
        program, ctx = _program("compiled")
        stub = Stub(program, "Main::size")
        for __ in range(3):
            stub(ctx, b"x")
        assert stub.calls == 3
        assert stub.overhead_ns > 0
