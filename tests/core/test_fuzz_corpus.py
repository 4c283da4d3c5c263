"""Replay the checked-in differential fuzz corpus, plus pinned bugs.

The corpus under ``tests/core/fuzz_corpus/`` holds minimized,
coverage-signature-preserving modules emitted by ``repro.tools.fuzz``.
Each file must execute identically on the reference interpreter and on
the compiled tier at every optimization level — this is the fast,
deterministic slice of the fuzzing oracle that runs on every test
invocation.  Beside them, ``dns_*.dns`` files hold malformed DNS
messages from the DNS lane: the one-shot parse at every tier and level
must agree with an incremental build of the same grammar; and
``http_*.http`` files hold HTTP request and reply streams with their
feed splits: the fused HTTP parser at every tier and level must agree
with an unfused build.

The regression classes pin the actual bugs the fuzzer found so they
stay fixed even if the corpus is regenerated.
"""

import glob
import os
import random

import pytest

from repro.core import hiltic
from repro.core.optimize import OPT_LEVELS
from repro.runtime.exceptions import HiltiError
from repro.tools.fuzz import (
    Fuzzer,
    _DnsOracle,
    _PacOracle,
    gen_dns_message,
    run_corpus_text,
    run_dns_corpus_text,
    run_pac_corpus_text,
)

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

    def test_fresh_dns_cases_do_not_diverge(self):
        fuzzer = Fuzzer(seed=1, lanes=("dns",))
        summary = fuzzer.run(40)
        assert summary["cases"] == {"dns": 40}
        assert summary["divergences"] == 0

    def test_fresh_pac_cases_do_not_diverge(self):
        fuzzer = Fuzzer(seed=1, lanes=("pac",))
        summary = fuzzer.run(100)
        assert summary["cases"] == {"pac": 100}
        assert summary["divergences"] == 0


DNS_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.dns")))


@pytest.fixture(scope="module")
def dns_oracle():
    return _DnsOracle()


class TestDnsLane:
    """The malformed-DNS lane: the datagram grammar's one-shot parse
    (interpreter, -O0/-O1) against an incremental build."""

    def test_dns_corpus_is_checked_in(self):
        assert len(DNS_FILES) >= 8

    @pytest.mark.parametrize(
        "path", DNS_FILES, ids=[os.path.basename(p) for p in DNS_FILES])
    def test_dns_case_agrees(self, path, dns_oracle):
        with open(path) as stream:
            result = run_dns_corpus_text(stream.read(), dns_oracle)
        assert result["divergences"] == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_truncation_at_every_length(self, seed, dns_oracle):
        message, __, __ = gen_dns_message(random.Random(seed))
        outcomes = set()
        for length in range(len(message) + 1):
            result = dns_oracle.run_case(message[:length])
            assert result["divergences"] == [], length
            outcomes.add(result["expected"][1] if result["expected"][0]
                         == "raise" else "ok")
        assert "ok" in outcomes and "BinPAC::ParseError" in outcomes

    def test_lane_sees_a_short_availability_check(self, monkeypatch):
        # Sabotage the one-shot parser only: its availability checks ask
        # for one byte less, so a truncated fixed-width run traps in the
        # read instead of failing the check.
        from repro.apps.binpac import codegen
        from repro.core.ir import Const

        need = codegen._UnitCompiler._need

        def short_need(self, count):
            if self.datagram and isinstance(count, Const):
                count = Const(count.type, count.value - 1)
            need(self, count)

        monkeypatch.setattr(codegen._UnitCompiler, "_need", short_need)
        message, __, __ = gen_dns_message(random.Random(1))
        result = _DnsOracle().run_case(message[:11])
        assert any("incremental" in line for line in result["divergences"])


HTTP_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.http")))


@pytest.fixture(scope="module")
def pac_oracle():
    return _PacOracle()


def _replay_http(name, oracle):
    with open(os.path.join(CORPUS_DIR, name)) as stream:
        return run_pac_corpus_text(stream.read(), oracle)


class TestPacLane:
    """The malformed-HTTP lane: the fused parser (interpreter, -O0/-O1)
    against an unfused build, one-shot and fed in chunks."""

    def test_http_corpus_is_checked_in(self):
        assert len(HTTP_FILES) >= 10

    @pytest.mark.parametrize(
        "path", HTTP_FILES, ids=[os.path.basename(p) for p in HTTP_FILES])
    def test_http_case_agrees(self, path, pac_oracle):
        with open(path) as stream:
            result = run_pac_corpus_text(stream.read(), pac_oracle)
        assert result["divergences"] == []

    def test_corpus_fails_at_every_token_that_can_fail(self, pac_oracle):
        # Every token of RequestLine, StatusLine and Header except the
        # two that match any line (reason, header value).
        failed = set()
        for path in HTTP_FILES:
            error = _replay_http(os.path.basename(path),
                                 pac_oracle)["expected"][1]
            if error is not None:
                failed.add(error[1])
        assert {f"expected token /{pattern}/" for pattern in (
            r"[^ \t\r\n]+", r"[ \t]+", r"\r?\n", "HTTP/", r"[0-9]+\.[0-9]+",
            r"[0-9]{3}", r"[^:\r\n]+", r":[ \t]*")} <= failed

    def test_reference_is_unfused_and_builds_are_fused(self, pac_oracle):
        def count(parser, mnemonic):
            return sum(instruction.mnemonic == mnemonic
                       for module in parser.program.linked.modules
                       for function in module.all_functions()
                       for block in function.blocks
                       for instruction in block.instructions)

        assert count(pac_oracle.reference, "regexp.match_seq") == 0
        for parser in pac_oracle.builds.values():
            assert count(parser, "regexp.match_seq") > 0

    def test_lane_sees_a_dropped_end_guard(self, monkeypatch):
        # Sabotage the sequence matcher: a run ending at the open end of
        # the buffer counts as decided.  Feeding byte by byte, a doubled
        # space or a longer version number then fails to parse.
        from repro.runtime import regexp

        source = regexp._sequence_source
        monkeypatch.setattr(regexp, "_sequence_source",
                            lambda sources, open_end: source(sources, False))
        regexp.sequence_matcher.cache_clear()
        try:
            result = _replay_http("http_016.http", _PacOracle())
        finally:
            regexp.sequence_matcher.cache_clear()
        assert any("fed" in line for line in result["divergences"])


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
        interp = hiltic([source], tier="interpreted")
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

