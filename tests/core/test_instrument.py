"""Compiler-inserted profiling instrumentation (paper §3.3)."""

from repro.core import hiltic
from repro.core.instrument import instrument_module
from repro.core.parser import parse_module

_SRC = """module Main
int<64> helper(int<64> x) {
    local bool neg
    neg = int.lt x 0
    if.else neg a b
a:
    return 0
b:
    local int<64> y
    y = int.mul x 2
    return y
}

void run_all() {
    local int<64> r
    r = call helper(5)
    r = call helper(-5)
    r = call helper(10)
}
"""


class TestInstrumentation:
    def test_stop_on_every_return(self):
        module = parse_module(_SRC)
        stops = instrument_module(module)
        # helper has 2 returns; run_all falls off (1 implicit stop).
        assert stops == 3

    def test_profilers_populated_at_runtime(self):
        program = hiltic([_SRC], profile=True)
        ctx = program.make_context()
        program.call(ctx, "Main::run_all")
        helper = ctx.profilers.get("func/Main::helper")
        run_all = ctx.profilers.get("func/Main::run_all")
        assert helper.updates == 3
        assert run_all.updates == 1
        assert helper.wall_ns > 0
        assert helper.instructions > 0

    def test_results_unchanged_by_instrumentation(self):
        plain = hiltic([_SRC])
        instrumented = hiltic([_SRC], profile=True)
        a = plain.call(plain.make_context(), "Main::helper", [21])
        b = instrumented.call(
            instrumented.make_context(), "Main::helper", [21])
        assert a == b == 42

    def test_interpreter_tier_supports_profiling_too(self):
        program = hiltic([_SRC], profile=True, tier="interpreted")
        ctx = program.make_context()
        program.call(ctx, "Main::run_all")
        assert ctx.profilers.get("func/Main::helper").updates == 3

    def test_report_dump(self):
        import io

        program = hiltic([_SRC], profile=True)
        ctx = program.make_context()
        program.call(ctx, "Main::run_all")
        out = io.StringIO()
        ctx.profilers.dump(out)
        assert "#profile func/Main::helper" in out.getvalue()


_MULTI_RETURN = """module Main
int<64> classify(int<64> x) {
    local bool t
    t = int.lt x 0
    if.else t neg nonneg
neg:
    return -1
nonneg:
    t = int.eq x 0
    if.else t zero pos
zero:
    return 0
pos:
    return 1
}

void run_all() {
    local int<64> r
    r = call classify(-7)
    r = call classify(0)
    r = call classify(7)
}
"""


class TestInlineSites:
    """The compiled tier inlines ``profiler.start``/``profiler.stop``
    (``core/codegen.py``'s ``_site_profiler``) at every ``-O`` level."""

    def test_levels_and_tiers_agree(self):
        reports = []
        for tier, level in (("interpreted", 0), ("compiled", 0),
                            ("compiled", 1)):
            program = hiltic([_MULTI_RETURN], profile=True, tier=tier,
                             opt_level=level)
            ctx = program.make_context()
            program.call(ctx, "Main::run_all")
            report = ctx.profilers.get("func/Main::classify").report()
            reports.append((report["updates"], report["allocations"]))
        assert reports == [(3, 0)] * 3

    def test_interval_snapshots_from_inline_stops(self):
        counts = {}
        for tier in ("compiled", "interpreted"):
            program = hiltic([_SRC], profile=True, tier=tier)
            ctx = program.make_context()
            ctx.profilers.default_snapshot_every_ns = 1
            program.call(ctx, "Main::run_all")
            helper = ctx.profilers.get("func/Main::helper")
            counts[tier] = len(helper.snapshots)
            assert [s["updates"] for s in helper.snapshots] == [1, 2, 3]
        assert counts == {"compiled": 3, "interpreted": 3}

    def test_context_switch_re_resolves(self):
        """One compiled program, two contexts: each site's cache follows
        the context it runs in, so each context's profilers count only
        their own calls."""
        program = hiltic([_SRC], profile=True)
        first, second = program.make_context(), program.make_context()
        program.call(first, "Main::run_all")
        program.call(second, "Main::run_all")
        program.call(first, "Main::run_all")
        assert first.profilers.get("func/Main::helper").updates == 6
        assert second.profilers.get("func/Main::helper").updates == 3


class TestMultiReturnFunctions:
    def test_every_return_gets_a_stop(self):
        from repro.core.parser import parse_module

        module = parse_module(_MULTI_RETURN)
        # classify has 3 returns; run_all falls off (1 implicit stop).
        assert instrument_module(module) == 4

    def test_one_update_per_call_regardless_of_exit(self):
        for tier in ("compiled", "interpreted"):
            program = hiltic([_MULTI_RETURN], profile=True, tier=tier)
            ctx = program.make_context()
            program.call(ctx, "Main::run_all")
            profiler = ctx.profilers.get("func/Main::classify")
            assert profiler.updates == 3
            assert profiler._depth == 0


def _hook_module():
    from repro.core import types as ht
    from repro.core.builder import ModuleBuilder

    mb = ModuleBuilder("Main")
    for suffix, priority in (("early", 10), ("late", -10)):
        fb = mb.hook("observe", [("x", ht.INT64)], body_suffix=suffix,
                     priority=priority)
        doubled = fb.temp(ht.INT64, "d")
        fb.emit("int.mul", fb.var("x"), fb.const(ht.INT64, 2),
                target=doubled)
        fb.ret()
    fb = mb.function("fire", [], ht.VOID)
    fb.emit("hook.run", fb.field("Main::observe"),
            fb.args(fb.const(ht.INT64, 1)))
    fb.ret()
    return mb.finish()


class TestHookBodies:
    def test_hook_bodies_are_instrumented(self):
        module = _hook_module()
        stops = instrument_module(module)
        # Two hook bodies + fire, one stop each.
        assert stops == 3

    def test_hook_body_profilers_populated(self):
        for tier in ("compiled", "interpreted"):
            program = hiltic([_hook_module()], profile=True, tier=tier)
            ctx = program.make_context()
            program.call(ctx, "Main::fire")
            for suffix in ("early", "late"):
                profiler = ctx.profilers.get(f"func/Main::observe%{suffix}")
                assert profiler.updates == 1, (tier, suffix)
                assert profiler.wall_ns > 0


_THROWS = """module Main
int<64> boom(int<64> x) {
    local int<64> y
    y = int.div 10 x
    return y
}
"""


class TestExceptionalExit:
    def test_throw_stops_the_profiler(self):
        """An exceptional exit bypasses the inserted profiler.stop; the
        frame stops the profiler as the exception leaves it, so the call
        is measured and the region closed."""
        from repro.runtime.exceptions import HiltiError

        for tier in ("compiled", "interpreted"):
            program = hiltic([_THROWS], profile=True, tier=tier)
            ctx = program.make_context()
            try:
                program.call(ctx, "Main::boom", [0])
            except HiltiError:
                pass
            profiler = ctx.profilers.get("func/Main::boom")
            assert profiler._depth == 0, tier
            assert profiler.updates == 1
            assert profiler.wall_ns > 0

    def test_clean_exit_stays_balanced(self):
        program = hiltic([_THROWS], profile=True)
        ctx = program.make_context()
        assert program.call(ctx, "Main::boom", [2]) == 5
        profiler = ctx.profilers.get("func/Main::boom")
        assert profiler._depth == 0 and profiler.updates == 1
