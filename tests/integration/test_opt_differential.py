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
