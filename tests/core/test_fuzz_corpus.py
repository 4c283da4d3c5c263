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
with an unfused build; and ``script_*.bro`` files hold mini-Bro scripts
with the events to raise: the script interpreter and the compiled
engine at every level must print the same, log the same weirds and
contain the same runtime errors.

The regression classes pin the actual bugs the fuzzer found so they
stay fixed even if the corpus is regenerated.
"""

import glob
import os
import random

import pytest

from repro.core import hiltic
from repro.core.optimize import OPT_LEVELS
from repro.runtime.containers import HiltiMap, HiltiVector
from repro.runtime.exceptions import HiltiError
from repro.tools.fuzz import (
    LANES,
    Fuzzer,
    _DnsOracle,
    _PacOracle,
    gen_dns_message,
    main,
)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "fuzz_corpus")
# The lane that reads each corpus suffix.
SUFFIXES = {cls.suffix: name for name, cls in LANES.items() if cls.suffix}


def _corpus(suffix):
    return sorted(glob.glob(os.path.join(CORPUS_DIR, f"*.{suffix}")))


CORPUS_FILES = _corpus("hlt")
DNS_FILES = _corpus("dns")
HTTP_FILES = _corpus("http")
SCRIPT_FILES = _corpus("bro")


@pytest.fixture(scope="module")
def lanes():
    """One lane per suffix, so each grammar lane compiles its parsers
    once for the whole module."""
    return {suffix: LANES[name]() for suffix, name in SUFFIXES.items()}


def _replay(name, lane=None):
    """A checked-in case's verdict: its suffix's lane reads and runs it."""
    lane = lane or LANES[SUFFIXES[name.rpartition(".")[2]]]()
    with open(os.path.join(CORPUS_DIR, name)) as stream:
        return lane.run(lane.loads(stream.read()), OPT_LEVELS)


def _replays(suffix):
    """The test that every checked-in case of one suffix agrees on every
    tier and level; each lane's class holds one."""
    files = _corpus(suffix)

    @pytest.mark.parametrize(
        "path", files, ids=[os.path.basename(p) for p in files])
    def test(self, path, lanes):
        name = os.path.basename(path)
        assert _replay(name, lanes[suffix])["divergences"] == []

    return test


def _fresh_cases(lane, count):
    """The test that *count* fresh seed-1 cases of *lane* agree."""
    def test(self):
        summary = Fuzzer(seed=1, lanes=(lane,)).run(count)
        assert summary["cases"] == {lane: count}
        assert summary["divergences"] == 0

    return test


class TestCorpusReplay:
    def test_corpus_is_checked_in(self):
        assert len(CORPUS_FILES) >= 8

    test_case_agrees_on_every_level = _replays("hlt")


class TestOracleSeesTheEmitter:
    """The corpus cases that suspend, throw and dispatch hooks must
    catch a broken emitter: sabotage it two ways and replay."""

    def _replay(self, name):
        return _replay(name)["divergences"]

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
    test_fresh_module_cases_do_not_diverge = _fresh_cases("module", 40)
    test_fresh_filter_cases_do_not_diverge = _fresh_cases("filter", 20)
    test_fresh_dns_cases_do_not_diverge = _fresh_cases("dns", 40)
    test_fresh_pac_cases_do_not_diverge = _fresh_cases("pac", 100)


class TestRoundTrip:
    """An emitted case replays to the verdict it was found with."""

    @pytest.mark.parametrize("name", sorted(
        name for name, cls in LANES.items() if cls.suffix))
    def test_emitted_case_replays_to_the_same_verdict(self, name):
        lane, rng = LANES[name](), random.Random(1)
        for __ in range(12):
            case = lane.generate(rng)
            found = lane.run(case, OPT_LEVELS)
            text = lane.dumps(case, note=found["signature"] or "")
            again = lane.run(lane.loads(text), OPT_LEVELS)
            assert (again["divergences"], again["signature"]) \
                == (found["divergences"], found["signature"]), text

    def test_emit_corpus_writes_one_file_per_interesting_case(self, tmp_path):
        fuzzer = Fuzzer(seed=1, lanes=("script", "dns"))
        fuzzer.run(30)
        written = fuzzer.emit_corpus(str(tmp_path), limit=3)
        assert sorted(os.listdir(tmp_path)) == [
            f"{name}_{index:03d}.{LANES[name].suffix}"
            for name in ("dns", "script") for index in range(3)]
        assert len(written) == 6


class TestCommandLine:
    """The CLI rejects what it cannot run instead of running nothing."""

    @pytest.mark.parametrize("argv", [["--lanes", "modul"],
                                      ["--levels", "2"],
                                      ["--lanes", ""]])
    def test_unknown_lane_or_level_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv + ["--count", "1"])
        assert exit_.value.code == 2
        assert "unknown" in capsys.readouterr().err

    def test_replay_that_finds_no_case_fails(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--replay", str(tmp_path / "missing")])
        assert exit_.value.code == 2
        assert "no corpus cases" in capsys.readouterr().err

    def test_replay_counts_every_case(self, tmp_path, capsys):
        for name in ("case_000.hlt", "dns_000.dns", "script_000.bro"):
            with open(os.path.join(CORPUS_DIR, name)) as source:
                (tmp_path / name).write_text(source.read())
        assert main(["--replay", str(tmp_path)]) == 0
        assert capsys.readouterr().out.endswith(
            "replayed 3 corpus cases, 0 divergences\n")

    def test_an_exception_in_a_lane_is_a_divergence(self, monkeypatch):
        def broken(self, case, levels):
            raise RuntimeError("boom")

        monkeypatch.setattr(LANES["filter"], "run", broken)
        fuzzer = Fuzzer(seed=1, lanes=("filter",))
        assert fuzzer.run(2)["divergences"] == 2
        assert fuzzer.divergences[0]["divergences"] == [
            "toolchain error: RuntimeError('boom')"]


@pytest.fixture(scope="module")
def dns_oracle():
    return _DnsOracle()


class TestDnsLane:
    """The malformed-DNS lane: the datagram grammar's one-shot parse
    (interpreter, -O0/-O1) against an incremental build."""

    def test_dns_corpus_is_checked_in(self):
        assert len(DNS_FILES) >= 8

    test_dns_case_agrees = _replays("dns")

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


@pytest.fixture(scope="module")
def pac_oracle():
    return _PacOracle()


class TestPacLane:
    """The malformed-HTTP lane: the fused parser (interpreter, -O0/-O1)
    against an unfused build, one-shot and fed in chunks."""

    def test_http_corpus_is_checked_in(self):
        assert len(HTTP_FILES) >= 10

    test_http_case_agrees = _replays("http")

    def test_corpus_fails_at_every_token_that_can_fail(self, lanes):
        # Every token of RequestLine, StatusLine and Header except the
        # two that match any line (reason, header value).
        failed = set()
        for path in HTTP_FILES:
            error = _replay(os.path.basename(path),
                            lanes["http"])["expected"][1]
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
            result = _replay("http_016.http")
        finally:
            regexp.sequence_matcher.cache_clear()
        assert any("fed" in line for line in result["divergences"])


class TestScriptLane:
    """The script lane: events drained on the interpreter and on the
    compiled engine at -O0/-O1, over arithmetic and container scripts."""

    def test_script_corpus_is_checked_in(self):
        assert len(SCRIPT_FILES) >= 6

    test_script_case_agrees = _replays("bro")
    test_fresh_script_cases_do_not_diverge = _fresh_cases("script", 60)

    def test_lane_sees_a_vector_write_that_pads(self, monkeypatch):
        # Sabotage the compiled engine only: its vector writes pad with
        # holes, as HILTI's vector.set does, instead of Bro's rule.
        from repro.apps.bro import compiler, val

        def padding_assign(container, key, value):
            if type(container) is HiltiVector:
                container.set(int(key), value)
            else:
                val.index_assign(container, key, value)

        padding_assign.__name__ = "index_assign"
        monkeypatch.setattr(compiler, "_CONTAINER_NATIVES", tuple(
            padding_assign if fn is val.index_assign else fn
            for fn in compiler._CONTAINER_NATIVES))
        assert any("<uninitialized>" in line
                   for line in _replay("script_006.bro")["divergences"])

    def test_lane_sees_an_escaping_runtime_error(self, monkeypatch):
        # Sabotage the interpreter only: a missing key raises an error
        # the event engine does not contain.
        from repro.apps.bro import interp, val

        def escaping_index(container, key):
            if type(container) is HiltiMap and \
                    not container.exists(key):
                raise KeyError(key)
            return val.index(container, key)

        monkeypatch.setattr(interp.val, "index", escaping_index)
        assert any("interp ('raise', 'KeyError'" in line
                   for line in _replay("script_001.bro")["divergences"])


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

