"""Cross-tier accounting parity.

The interpreter and the compiled tier must charge the execution context
identically — the per-packet watchdog budget, the profiler instruction
deltas, and the Figures 9/10 attribution all read ``ctx.instr_count``,
so a tier that counts differently skews every downstream report.  The
compiled tier charges one unit per control transfer (including the
synthetic fall-off return of void functions); the interpreter mirrors
that at its fall-through point.
"""

import pytest

from repro.core import hiltic

_FIB = """module Main
int<64> fib(int<64> n) {
    local bool small
    small = int.lt n 2
    if.else small base rec
base:
    return n
rec:
    local int<64> a
    local int<64> b
    a = int.sub n 1
    a = call fib(a)
    b = int.sub n 2
    b = call fib(b)
    a = int.add a b
    return a
}
"""

_FALL_THROUGH = """module Main
global int<64> seen

void touch() {
    seen = int.add seen 1
}

int<64> walk(int<64> n) {
    local bool done
loop:
    done = int.eq n 0
    if.else done out again
again:
    call touch()
    n = int.sub n 1
    jump loop
out:
    return seen
}
"""

_HOOKS = """module Main
global int<64> total

hook void observe(int<64> x) {
    total = int.add total x
}

hook void observe(int<64> x) &priority=5 {
    total = int.add total 1
}

int<64> fire(int<64> n) {
    local bool done
loop:
    done = int.eq n 0
    if.else done out again
again:
    hook.run observe (n)
    n = int.sub n 1
    jump loop
out:
    return total
}
"""


def _count(source: str, entry: str, args, tier: str):
    # opt_level=0 so both tiers execute the identical IR (the
    # interpreter always runs unoptimized modules).
    program = hiltic([source], tier=tier, opt_level=0)
    ctx = program.make_context()
    result = program.call(ctx, entry, list(args))
    return result, ctx.instr_count


@pytest.mark.parametrize("source,entry,args", [
    (_FIB, "Main::fib", [9]),
    (_FALL_THROUGH, "Main::walk", [13]),
    (_HOOKS, "Main::fire", [7]),
], ids=["recursion", "void-fall-off", "hook-bodies"])
class TestInstructionCountParity:
    def test_tiers_agree_on_result_and_count(self, source, entry, args):
        interp_result, interp_count = _count(
            source, entry, args, "interpreted")
        compiled_result, compiled_count = _count(
            source, entry, args, "compiled")
        assert interp_result == compiled_result
        assert interp_count == compiled_count
        assert interp_count > 0

    def test_counts_scale_with_work(self, source, entry, args):
        _, small = _count(source, entry, args, "interpreted")
        _, big = _count(source, entry, [a + 3 for a in args], "interpreted")
        assert big > small


_NESTED = """module Main
type Pair = struct {
    int<64> first,
    int<64> second,
}

int<64> leaf(int<64> x) {
    local ref<Pair> p
    local int<64> y
    p = new Pair
    struct.set p first x
    y = struct.get p first
    y = int.mul y 3
    return y
}

int<64> outer(int<64> n) {
    local int<64> a
    a = call leaf(n)
    a = call leaf(a)
    return a
}

int<64> drive(int<64> n) {
    local int<64> total
    local bool done
loop:
    done = int.eq n 0
    if.else done out again
again:
    total = call outer(n)
    n = int.sub n 1
    jump loop
out:
    return total
}
"""

_CAUGHT = """module Main
int<64> risky(int<64> x) {
    local int<64> y
    y = int.div 10 x
    return y
}

int<64> guarded(int<64> x) {
    local int<64> r
    try {
        r = call risky(x)
    } catch (ref<Hilti::Exception> e) {
        r = -1
    }
    return r
}

int<64> drive() {
    local int<64> total
    local int<64> r
    r = call guarded(5)
    total = int.add total r
    r = call guarded(0)
    total = int.add total r
    r = call guarded(2)
    total = int.add total r
    return total
}
"""

_UNCAUGHT = """module Main
int<64> boom(int<64> x) {
    local int<64> y
    y = int.div 10 x
    return y
}

int<64> calls_boom(int<64> x) {
    local int<64> y
    y = call boom(x)
    return y
}
"""


_FLAKY = """module Main
int<64> flaky(int<64> x) {
    local int<64> y
    y = int.div 12 x
    return y
}
"""


def _profiled(source: str, entry: str, args, tier: str):
    """Run with function-granularity profilers; returns the result (or
    the HILTI error it raised), ``ctx.instr_count`` and every profiler's
    report but its wall time."""
    from repro.runtime.exceptions import HiltiError

    program = hiltic([source], profile=True, tier=tier, opt_level=0)
    ctx = program.make_context()
    try:
        result = program.call(ctx, entry, list(args))
    except HiltiError as error:
        result = repr(error)
    reports = {name: {k: v for k, v in report.items() if k != "wall_ns"}
               for name, report in ctx.profilers.report().items()}
    return result, ctx.instr_count, reports


_PROGRAMS = pytest.mark.parametrize("source,entry,args", [
    (_FIB, "Main::fib", [10]),
    (_NESTED, "Main::drive", [6]),
    (_HOOKS, "Main::fire", [5]),
    (_CAUGHT, "Main::drive", []),
    (_UNCAUGHT, "Main::calls_boom", [0]),
], ids=["recursion", "nested", "hook-bodies", "caught-exit",
        "uncaught-exit"])


class TestProfilerParityAcrossTiers:
    """The compiled tier's inline ``profiler.start``/``profiler.stop``
    sites and the interpreter's registry calls agree on every profiler:
    instructions, allocations and updates."""

    @_PROGRAMS
    def test_profiler_reports_agree(self, source, entry, args):
        compiled = _profiled(source, entry, args, "compiled")
        interpreted = _profiled(source, entry, args, "interpreted")
        assert compiled == interpreted
        __, count, reports = compiled
        assert count > 0 and reports
        assert all(report["updates"] > 0 for report in reports.values())

    @_PROGRAMS
    def test_compiled_sites_are_inline(self, source, entry, args):
        program = hiltic([source], profile=True, opt_level=0)
        for function in program.functions.values():
            code = [line.split("  # ")[0]
                    for line in function.source.splitlines()]
            assert any("ctx.profilers" in line for line in code)
            # No registry call by name is left but the exceptional
            # exit's.
            assert not any("'func/" in line for line in code
                           if "_trap(" not in line
                           and "_unwind(" not in line)

    def test_throw_then_call_again(self):
        """A host call that throws out of a profiled function, then two
        more calls: every call is counted, on the interpreter, -O0 and
        -O1."""
        from repro.runtime.exceptions import HiltiError

        counts = []
        for tier, level in (("interpreted", 0), ("compiled", 0),
                            ("compiled", 1)):
            program = hiltic([_FLAKY], profile=True, tier=tier,
                             opt_level=level)
            ctx = program.make_context()
            with pytest.raises(HiltiError):
                program.call(ctx, "Main::flaky", [0])
            assert program.call(ctx, "Main::flaky", [3]) == 4
            assert program.call(ctx, "Main::flaky", [4]) == 3
            report = ctx.profilers.report()["func/Main::flaky"]
            counts.append((report["updates"], report["instructions"]))
        assert counts[0][0] == 3
        assert counts == [counts[0]] * 3


class TestProfilerExitShapes:
    def test_exits_are_flagged_as_they_happened(self):
        __, __, caught = _profiled(_CAUGHT, "Main::drive", [], "compiled")
        # risky's throw stops its profiler as it unwinds, so its later
        # call counts too; guarded catches and stops normally.
        assert caught["func/Main::risky"]["updates"] == 3
        assert caught["func/Main::guarded"]["updates"] == 3
        __, __, uncaught = _profiled(_UNCAUGHT, "Main::calls_boom", [0],
                                     "compiled")
        assert all(report["updates"] == 1 for report in uncaught.values())
        __, __, nested = _profiled(_NESTED, "Main::drive", [6], "compiled")
        assert nested["func/Main::leaf"]["updates"] == 12
        assert nested["func/Main::leaf"]["allocations"] == 12
        assert nested["func/Main::outer"]["allocations"] == 12


class TestProfilerDeltasMatchAcrossTiers:
    def test_profiled_instruction_deltas_agree(self):
        """Totals are identical; profiler deltas may differ only by the
        segment-boundary skew (the compiled tier charges a segment after
        its steps run, so an in-flight segment is not yet in the
        baseline read by profiler.start/stop).  The skew is bounded by
        one segment, not proportional to the work measured."""
        counts = {}
        totals = {}
        for tier in ("interpreted", "compiled"):
            program = hiltic([_FIB], profile=True, tier=tier, opt_level=0)
            ctx = program.make_context()
            program.call(ctx, "Main::fib", [10])
            counts[tier] = ctx.profilers.get("func/Main::fib").instructions
            totals[tier] = ctx.instr_count
        assert totals["interpreted"] == totals["compiled"]
        assert counts["interpreted"] > 0
        assert abs(counts["interpreted"] - counts["compiled"]) <= 4
