"""Differential tier testing for the optimizer.

The optimizer rewrites the IR the compiled tier executes; the
interpreter deliberately runs the unoptimized module.  For every example
program and benchmark kernel, the observable behaviour at every
optimization level (``-O0``/``-O1``) must be byte-identical to
the interpreted tier — the oracle that lets the benchmark harness
attribute speedups to the pass pipeline rather than to changed
semantics.  ``repro.tools.fuzz`` extends the same oracle to randomly
generated programs; these tests pin the real host applications.
"""

import io
import re
from pathlib import Path

import pytest

from repro.core import hilti_build, hiltic
from repro.core.optimize import OPT_LEVELS
from repro.core.stubs import Stub
from repro.core.values import Addr, Time

REPO = Path(__file__).resolve().parents[2]


def _example_module(stem, index=0):
    text = (REPO / "examples" / f"{stem}.py").read_text()
    return re.findall(r'"""(module .*?)"""', text, re.S)[index]


class TestQuickstartExamples:
    def test_hello_output_identical(self, capsys):
        hello = _example_module("quickstart", 0)
        outputs = []
        for level in OPT_LEVELS:
            hilti_build([hello], opt_level=level).run()
            outputs.append(capsys.readouterr().out)
        assert len(set(outputs)) == 1
        assert outputs[0]  # it does print something

    def test_counter_results_identical(self):
        counter = _example_module("quickstart", 1)

        def drive(program):
            ctx = program.make_context()
            out = []
            program.call(ctx, "Main::bump", [5])
            program.call(ctx, "Main::bump", [37])
            out.append(program.call(ctx, "Main::get"))
            out.append(program.call(ctx, "Main::fib", [18]))
            fresh = program.make_context()
            out.append(program.call(fresh, "Main::get"))
            return out

        compiled = [
            drive(hiltic([counter], tier="compiled", opt_level=level))
            for level in OPT_LEVELS
        ]
        interp = drive(hiltic([counter], tier="interpreted"))
        for result in compiled:
            assert result == interp == [42, 2584, 0]

    def test_suspending_stub_identical(self):
        suspending = _example_module("quickstart", 2)

        def drive(program):
            ctx = program.make_context()
            result = Stub(program, "Main::three_steps").start(ctx)
            steps = 0
            while result.suspended:
                steps += 1
                result = Stub.resume(result)
            return steps, result.value

        results = [
            drive(hiltic([suspending], tier="compiled", opt_level=level))
            for level in OPT_LEVELS
        ]
        assert len(set(results)) == 1


class TestScanDetectorExample:
    def _drive(self, tier, opt_level):
        from repro.lib import SESSION_TABLE

        detector = _example_module("scan_detector", 0)
        program = hiltic([SESSION_TABLE, detector], tier=tier,
                         opt_level=opt_level)
        ctx = program.make_context()
        program.call(ctx, "Scan::init")
        clock = 0.0
        scanner = Addr("198.51.100.99")
        for host in range(1, 60):
            clock += 0.001
            program.call(ctx, "Scan::attempt",
                         [Time(clock), scanner])
            program.call(ctx, "Scan::attempt",
                         [Time(clock), Addr(f"10.10.0.{host % 7}")])
        alerts = ctx.globals[program.linked.global_slot("Scan::alerts")]
        return [str(a) for a in alerts]

    def test_alerts_identical(self):
        interp = self._drive("interpreted", None)
        for level in OPT_LEVELS:
            assert self._drive("compiled", level) == interp
        assert "198.51.100.99" in interp


class TestBpfKernel:
    @pytest.fixture(scope="class")
    def trace(self):
        from repro.net.tracegen import HttpTraceConfig, generate_http_trace

        return generate_http_trace(HttpTraceConfig(sessions=25, seed=7))

    def test_decisions_identical(self, trace):
        from repro.apps.bpf import compile_to_hilti, parse_filter
        from repro.net.packet import parse_ethernet

        ip, __ = parse_ethernet(trace[3][1])
        node = parse_filter(
            f"host {ip.src} or src net 172.16.0.0/16 and port 80"
        )
        frames = [f for __, f in trace]
        variants = [("interp", {"tier": "interpreted"})]
        variants += [
            (f"O{level}", {"tier": "compiled", "opt_level": level})
            for level in OPT_LEVELS
        ]
        decisions = {}
        for key, kwargs in variants:
            hilti_filter = compile_to_hilti(node, **kwargs)
            decisions[key] = bytes(
                1 if hilti_filter(f) else 0 for f in frames
            )
        assert len(set(decisions.values())) == 1
        assert 0 < sum(decisions["interp"]) < len(frames)


class TestScriptKernels:
    def test_fib_identical(self):
        from repro.apps.bro import Bro
        from repro.apps.bro.scripts import FIB_SCRIPT

        variants = [{"scripts_engine": "interp"}]
        variants += [
            {"scripts_engine": "hilti", "opt_level": level}
            for level in OPT_LEVELS
        ]
        results = []
        for kwargs in variants:
            bro = Bro(scripts=[FIB_SCRIPT], print_stream=io.StringIO(),
                      **kwargs)
            results.append(bro.call_function("fib", [18]))
        assert set(results) == {2584}


class TestParserKernel:
    def test_http_logs_identical(self):
        from repro.apps.bro import Bro
        from repro.apps.bro.analyzers.pac import PacParsers
        from repro.net.tracegen import HttpTraceConfig, generate_http_trace

        trace = generate_http_trace(HttpTraceConfig(sessions=8, seed=3))
        logs = {}
        for level in OPT_LEVELS:
            bro = Bro(parsers="pac", pac_parsers=PacParsers(opt_level=level),
                      scripts_engine="hilti", opt_level=level,
                      print_stream=io.StringIO())
            bro.run(trace)
            logs[level] = (
                "\n".join(bro.core.logs.lines("http")),
                "\n".join(bro.core.logs.lines("conn")),
                bro.core.events_dispatched,
            )
        assert len(set(logs.values())) == 1
        assert logs[0][2] > 0


class TestPassesPayOnPaperPrograms:
    """-O1's IR passes earn their place on the paper's own programs
    (docs/PERFORMANCE.md, "Why only four passes"): the compiled Bro
    scripts, the BPF filter and the firewall execute fewer instructions
    at -O1, the BinPAC++ parsers the same number, and every pass fires
    on one of them."""

    @pytest.fixture(scope="class")
    def runs(self):
        from repro.apps.binpac.app import PacApp
        from repro.apps.bpf.app import BpfApp
        from repro.apps.bro import Bro
        from repro.apps.firewall import RuleSet
        from repro.apps.firewall.app import FirewallApp
        from repro.net import tracegen as tg

        rules = re.search(r'RULES = """(.*?)"""', (
            REPO / "examples" / "stateful_firewall.py").read_text(),
            re.S).group(1)
        http = tg.generate_http_trace(tg.HttpTraceConfig(sessions=12,
                                                         seed=101))
        start = 1_400_000_000.0
        mixed = tg.generate_mixed_trace(
            tg.HttpTraceConfig(seed=101, sessions=6, start_time=start),
            tg.DnsTraceConfig(seed=102, queries=30, start_time=start),
            tg.SshTraceConfig(seed=103, sessions=2, start_time=start),
            tg.TftpTraceConfig(seed=104, transfers=2, start_time=start))
        programs = {
            "bro": (lambda level: Bro(
                parsers="pac", scripts_engine="hilti", opt_level=level,
                print_stream=io.StringIO()), http),
            "bpf": (lambda level: BpfApp("tcp and port 80",
                                         opt_level=level), mixed),
            "firewall": (lambda level: FirewallApp(
                RuleSet.parse(rules, timeout_seconds=5.0),
                opt_level=level), mixed),
            "pac": (lambda level: PacApp(opt_level=level), mixed),
        }
        out = {}
        for name, (build, trace) in programs.items():
            for level in OPT_LEVELS:
                app = build(level)
                app.run(trace)
                out[name, level] = (app.result_lines(), {
                    label: (ctx.instr_count, ctx.program.opt_stats)
                    for label, ctx in app.engine_contexts()})
        return out

    def test_results_identical(self, runs):
        for name in ("bro", "bpf", "firewall", "pac"):
            assert runs[name, 0][0] == runs[name, 1][0], name
            assert runs[name, 0][0], name

    @pytest.mark.parametrize("name,label", [
        ("bro", "scripts"), ("bpf", "filter"), ("firewall", "firewall")])
    def test_o1_executes_fewer_instructions(self, runs, name, label):
        unoptimized, optimized = (runs[name, level][1][label][0]
                                  for level in OPT_LEVELS)
        assert 0 < optimized < unoptimized

    def test_parsers_execute_the_same_count(self, runs):
        parsers = [(name, label) for name in ("bro", "pac")
                   for label in runs[name, 1][1] if label.startswith("pac/")]
        assert len(parsers) == 6
        for name, label in parsers:
            counts = [runs[name, level][1][label][0] for level in OPT_LEVELS]
            assert counts[0] == counts[1], (name, label, counts)
        assert all(runs["pac", 1][1][f"pac/{p}"][0] > 0
                   for p in ("http", "dns", "ssh", "tftp"))

    def test_every_pass_fires(self, runs):
        from repro.core.optimize import OptStats

        fired = {counter: [] for counter in OptStats.COUNTERS}
        for (name, level), (_, contexts) in runs.items():
            for label, (_, stats) in contexts.items():
                for counter, count in stats.as_dict().items():
                    if count:
                        fired[counter].append(f"{name}/{label}")
        assert all(fired.values()), fired
