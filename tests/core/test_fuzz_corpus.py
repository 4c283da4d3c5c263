"""Replay the checked-in differential fuzz corpus, plus pinned bugs.

The corpus under ``tests/core/fuzz_corpus/`` holds minimized,
coverage-signature-preserving modules emitted by ``repro.tools.fuzz``.
Each file must execute identically on the reference interpreter and on
the compiled tier at every optimization level — this is the fast,
deterministic slice of the fuzzing oracle that runs on every test
invocation.

The regression classes pin the actual bugs the fuzzer found so they
stay fixed even if the corpus is regenerated.
"""

import glob
import os

import pytest

from repro.core import hiltic
from repro.core.optimize import OPT_LEVELS
from repro.runtime.exceptions import HiltiError
from repro.tools.fuzz import Fuzzer, run_corpus_text

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "fuzz_corpus")
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.hlt")))


class TestCorpusReplay:
    def test_corpus_is_checked_in(self):
        assert len(CORPUS_FILES) >= 8

    @pytest.mark.parametrize(
        "path", CORPUS_FILES,
        ids=[os.path.basename(p) for p in CORPUS_FILES])
    def test_case_agrees_on_every_level(self, path):
        with open(path) as stream:
            text = stream.read()
        result = run_corpus_text(text, levels=OPT_LEVELS)
        assert result["divergences"] == []


class TestOracleSeesTheEmitter:
    """The corpus cases that suspend, throw and dispatch hooks must
    catch a broken emitter: sabotage it two ways and replay."""

    def _replay(self, name):
        with open(os.path.join(CORPUS_DIR, name)) as stream:
            return run_corpus_text(stream.read())["divergences"]

    def test_sabotaged_line_count_table_is_caught(self, monkeypatch):
        from repro.core import codegen

        emit_line = codegen._Emitter.line

        def uncounted_line(self, text):
            emit_line(self, text)
            self.table[-1] = 0  # a trap here charges nothing

        assert self._replay("case_018.hlt") == []
        monkeypatch.setattr(codegen._Emitter, "line", uncounted_line)
        assert any("instr_count" in line
                   for line in self._replay("case_018.hlt"))

    def test_dropped_yield_from_is_caught(self, monkeypatch):
        from repro.core import codegen

        invoke = codegen._Emitter.invoke

        def plain_call(self, function, args, count):
            return invoke(self, function, args, count).replace(
                "yield from ", "")

        assert self._replay("case_017.hlt") == []
        monkeypatch.setattr(codegen._Emitter, "invoke", plain_call)
        # The caller gets the callee's generator object, not its value.
        with pytest.raises(TypeError):
            self._replay("case_017.hlt")


class TestFixedSeedSmoke:
    def test_fresh_module_cases_do_not_diverge(self):
        fuzzer = Fuzzer(seed=1, lanes=("module",))
        summary = fuzzer.run(40)
        assert summary["cases"] == {"module": 40}
        assert summary["divergences"] == 0


def _outcome(program, entry, args):
    ctx = program.make_context()
    try:
        return ("ok", program.call(ctx, entry, args)), ctx.instr_count
    except HiltiError as error:
        return ("raise", error.except_type.type_name), ctx.instr_count


class TestTrapInstrCountParity:
    """Fuzzer finding: instr_count diverged on trapping paths.

    The compiled tier charged a segment's instructions only after every
    step completed, so a trap mid-segment under-counted relative to the
    interpreter (which counts each instruction as it executes,
    including the one that raises).
    """

    def _parity(self, source, args):
        interp = hiltic([source], tier="interpreted", optimize=False)
        expected, interp_count = _outcome(interp, "Main::f", args)
        compiled = hiltic([source], opt_level=0)
        got, compiled_count = _outcome(compiled, "Main::f", args)
        assert got == expected
        assert compiled_count == interp_count
        return expected, interp_count

    def test_trap_at_first_instruction(self):
        # The very first instruction raises: the interpreter has
        # counted it; the compiled tier used to report 0.
        outcome, count = self._parity("""module Main
int<64> f() {
    local int<64> x
    x = int.div 1 0
    return x
}
""", [])
        assert outcome == ("raise", "Hilti::DivisionByZero")
        assert count == 1

    def test_trap_mid_batch(self):
        # Straight-line runs compile into one batched step; a trap on
        # the batch's second instruction must charge both, not just the
        # completed steps.  33 & 22 == 0, so the div traps.
        outcome, count = self._parity("""module Main
int<64> f(int<64> v0, int<64> v1, int<64> v2, int<64> v3) {
    v1 = int.and 33 v0
    v1 = int.div v2 v1
    return v1
}
""", [22, -50, 16, -54])
        assert outcome == ("raise", "Hilti::DivisionByZero")
        assert count == 2

    def test_trap_after_successful_instructions(self):
        # Several instructions succeed before the trap; every executed
        # instruction (including the raiser) is charged on both tiers.
        outcome, count = self._parity("""module Main
int<64> f(int<64> a) {
    local int<64> x
    x = int.add a 1
    x = int.mul x 2
    x = int.div x 0
    return x
}
""", [5])
        assert outcome == ("raise", "Hilti::DivisionByZero")
        assert count == 3


class TestInlineInitConstRegression:
    """Fuzzer finding: -O2 inlining double-wrapped parsed local inits.

    The parser stores a local's initializer as a ``Const`` operand;
    the builder stores the raw value.  The inliner's splice seeded the
    callee's initialized locals by wrapping in ``Const`` again, so a
    parsed module's inlined helper computed with a ``Const`` operand
    value and crashed (or silently mis-evaluated) at runtime.
    """

    SOURCE = """module Main
int<64> h(int<64> p) {
    local int<64> acc = 3
    acc = int.xor p acc
    return acc
}

int<64> f(int<64> a) {
    local int<64> r
    r = call Main::h(a)
    r = int.add r 1
    return r
}
"""

    def test_parsed_const_init_inlines_correctly(self):
        interp = hiltic([self.SOURCE], tier="interpreted",
                        optimize=False)
        expected = interp.call(interp.make_context(), "Main::f", [9])
        assert expected == (9 ^ 3) + 1
        for level in OPT_LEVELS:
            program = hiltic([self.SOURCE], opt_level=level)
            got = program.call(program.make_context(), "Main::f", [9])
            assert got == expected, f"-O{level} diverged"
        # The helper is small and single-block: -O2 must actually have
        # inlined it, otherwise this test is not covering the splice.
        program = hiltic([self.SOURCE], opt_level=max(OPT_LEVELS))
        assert program.opt_stats.as_dict().get("inlined", 0) >= 1
