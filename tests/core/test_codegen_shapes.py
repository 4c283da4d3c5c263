"""Every control shape the whole-function emitter structures.

``repro.core.codegen`` turns one HILTI function into one Python function:
single-predecessor blocks nest under the branch that reaches them, join
points / loop headers / handlers become rungs of a ``pc`` ladder, a
suspending function is a generator, hook dispatch is unrolled, and
``ctx.instr_count`` is charged per straight-line region with a
line-to-count table for traps.  Each program below is hand-written HILTI
for one such shape and runs four ways — the reference interpreter on the
unoptimised IR, and at -O0/-O1/-O2 the compiled function next to the
interpreter *on the same optimised IR* — asserting the result (or error
type), the printed output, ``ctx.instr_count`` and the number of fiber
resumes agree.
"""

import contextlib
import io
import sys
import threading

import pytest

from repro.core.codegen import compile_program
from repro.core.interp import Interpreter
from repro.core.linker import link
from repro.core.optimize import OPT_LEVELS, optimize_module
from repro.core.parser import parse_module
from repro.core.typecheck import check_module
from repro.runtime.exceptions import HiltiError
from repro.runtime.fibers import YIELDED


def _linked(source: str, level: int):
    module = parse_module(source)
    check_module(module)
    optimize_module(module, level=level)
    return link([module])


def _observe(program, entry, args, resumes=None, budget=None):
    """(outcome, printed, instr_count) of one execution; a compiled
    program runs in a fiber and appends its resume count to *resumes*."""
    out = io.StringIO()
    ctx = program.make_context(print_stream=out)
    if budget is not None:
        ctx.arm_watchdog(budget)
    count = 0
    try:
        if resumes is None:
            outcome = ("ok", program.call(ctx, entry, list(args)))
        else:
            fiber = program.call_fiber(ctx, entry, list(args))
            value = YIELDED
            while value is YIELDED:
                count += 1
                value = fiber.resume()
            outcome = ("ok", value)
    except HiltiError as error:
        outcome = ("raise", error.except_type.type_name)
    if resumes is not None:
        resumes.append(count)
    return outcome, out.getvalue(), ctx.instr_count


@contextlib.contextmanager
def _recursion_limit(limit):
    """The interpreter spends several Python frames per HILTI call."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(max(saved, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def _check_shape(source, entry, args=(), budget=None):
    """Run all tiers; returns (outcome, printed, resumes at every level)."""
    with _recursion_limit(20000):
        oracle = _observe(Interpreter(_linked(source, 0)), entry, args,
                          budget=budget)
    resumes = []
    for level in OPT_LEVELS:
        linked = _linked(source, level)
        with _recursion_limit(20000):
            expected = _observe(Interpreter(linked), entry, args,
                                budget=budget)
        got = _observe(compile_program(linked, opt_level=level), entry,
                       args, resumes=resumes, budget=budget)
        assert got == expected, f"-O{level} vs interpreter on the same IR"
        assert got[:2] == oracle[:2], f"-O{level} vs unoptimised oracle"
    assert len(set(resumes)) == 1, f"resume counts differ: {resumes}"
    return oracle[0], oracle[1], resumes[0]


DIAMOND = """module Main
int<64> f(int<64> n) {
    local bool big
    local int<64> x
    big = int.gt n 10
    if.else big hi lo
hi:
    x = int.mul n 2
    jump join
lo:
    x = int.add n 100
    jump join
join:
    x = int.add x 1
    call Hilti::print (x)
    return x
}
"""

NESTED_LOOPS = """module Main
int<64> f(int<64> n) {
    local int<64> i
    local int<64> j
    local int<64> total
    local bool more
    i = assign 0
outer:
    more = int.lt i n
    if.else more outer_body done
outer_body:
    j = assign 0
inner:
    more = int.lt j i
    if.else more inner_body outer_next
inner_body:
    total = int.add total j
    j = int.incr j
    jump inner
outer_next:
    call Hilti::print (i, total)
    i = int.incr i
    jump outer
done:
    return total
}
"""

# Two entries (a and b) into one cycle: no single loop header, so the
# ladder is the only structure that fits.
IRREDUCIBLE = """module Main
int<64> f(int<64> n, bool at_b) {
    local int<64> acc
    local bool stop
    if.else at_b b a
a:
    acc = int.add acc 1
    n = int.decr n
    stop = int.le n 0
    if.else stop out b
b:
    acc = int.add acc 10
    n = int.decr n
    stop = int.le n 0
    if.else stop out a
out:
    call Hilti::print (acc)
    return acc
}
"""

# Case 3 and the default share one block.
SWITCH_SHARED_DEFAULT = """module Main
int<64> f(int<64> n) {
    local int<64> r
    switch n other (1, one) (2, two) (3, other)
one:
    r = assign 10
    jump out
two:
    r = assign 20
    jump out
other:
    r = int.mul n 7
    jump out
out:
    call Hilti::print (r)
    return r
}
"""

YIELD_IN_LOOP_IN_TRY = """module Main
int<64> f(int<64> n, int<64> bad) {
    local int<64> i
    local int<64> q
    local bool more
    try {
loop:
        more = int.lt i n
        if.else more body finished
body:
        yield
        q = int.sub i bad
        q = int.div 100 q
        call Hilti::print (i, q)
        i = int.incr i
        jump loop
finished:
        i = int.add i 1000
    } catch (ref<Hilti::DivisionByZero> e) {
        call Hilti::print ("caught at", i)
        i = int.sub 0 i
    }
    return i
}
"""

CALLEE_SUSPENDS_THEN_THROWS = """module Main
int<64> inner(int<64> n) {
    local ref<Hilti::Exception> e
    local bool bad
    n = int.add n 1
    yield
    n = int.add n 1
    yield
    bad = int.gt n 5
    if.else bad boom fine
boom:
    e = exception.new Hilti::ValueError "too big"
    exception.throw e
fine:
    return n
}

int<64> f(int<64> n) {
    local int<64> r
    try {
        r = call inner (n)
        call Hilti::print ("returned", r)
    } catch (ref<Hilti::ValueError> e) {
        call Hilti::print ("handled")
        r = assign -1
    }
    return r
}
"""

HOOK_STOP_ACROSS_SUSPENSION = """module Main
global int<64> seen

hook void ev(int<64> x) &priority=10 {
    seen = int.add seen x
    yield
    seen = int.add seen x
}

hook void ev(int<64> x) &priority=5 {
    yield
    call Hilti::print ("stopping with", seen)
    hook.stop seen
}

hook void ev(int<64> x) &priority=1 {
    call Hilti::print ("never runs")
    seen = assign 999
}

int<64> f(int<64> x) {
    local int<64> r
    r = hook.run Main::ev (x)
    call Hilti::print (r, seen)
    return r
}
"""

DISABLED_GROUP = """module Main
global int<64> seen

hook void ev(int<64> x) &priority=10 &group=noisy {
    call Hilti::print ("noisy body")
    seen = int.add seen 100
}

hook void ev(int<64> x) &priority=5 {
    seen = int.add seen x
}

int<64> f(int<64> x) {
    hook.run Main::ev (x)
    hook.group_disable noisy
    hook.run Main::ev (x)
    hook.group_enable noisy
    hook.run Main::ev (x)
    return seen
}
"""

RECURSION = """module Main
int<64> depth(int<64> n) {
    local bool bottom
    local int<64> below
    bottom = int.eq n 0
    if.else bottom base step
base:
    return 0
step:
    below = int.sub n 1
    below = call depth (below)
    below = int.add below 1
    return below
}
"""

# 4 instructions before the loop, 5 per iteration; a budget of
# 4 + 5 * 7 - 1 makes the interpreter trip on the seventh `jump loop`,
# which is where the compiled region ends: the tiers stop in the same
# state.  (Off a region boundary the compiled tier finishes the region
# it is in before it trips.)
WATCHDOG_IN_LOOP = """module Main
int<64> f(int<64> n) {
    local int<64> i
    local int<64> trips
    local bool more
    i = assign 0
    jump again
again:
    try {
        jump loop
loop:
        more = int.lt i n
        if.else more body finished
body:
        call Hilti::print (i)
        i = int.incr i
        jump loop
finished:
        jump out
    } catch (ref<Hilti::ProcessingTimeout> t) {
        trips = int.incr trips
        n = assign 9
        jump again
    }
out:
    call Hilti::print ("trips", trips)
    return i
}
"""


class TestShapes:
    def test_diamond(self):
        assert _check_shape(DIAMOND, "Main::f", [3]) == \
            (("ok", 104), "104\n", 1)
        assert _check_shape(DIAMOND, "Main::f", [30])[0] == ("ok", 61)

    def test_nested_loops(self):
        outcome, printed, _ = _check_shape(NESTED_LOOPS, "Main::f", [4])
        assert outcome == ("ok", 0 + 0 + 1 + 3)
        assert printed.splitlines()[-1] == "3, 4"

    @pytest.mark.parametrize("at_b,expected", [(False, 23), (True, 32)])
    def test_irreducible_two_entry_loop(self, at_b, expected):
        # n = 5 steps alternating +1/+10 from either entry.
        outcome, printed, _ = _check_shape(
            IRREDUCIBLE, "Main::f", [5, at_b])
        assert outcome == ("ok", expected)
        assert printed == f"{expected}\n"

    @pytest.mark.parametrize("n,expected", [(1, 10), (2, 20), (3, 21),
                                            (8, 56)])
    def test_switch_with_shared_default(self, n, expected):
        assert _check_shape(SWITCH_SHARED_DEFAULT, "Main::f", [n]) == \
            (("ok", expected), f"{expected}\n", 1)

    def test_yield_inside_loop_inside_try(self):
        outcome, printed, resumes = _check_shape(
            YIELD_IN_LOOP_IN_TRY, "Main::f", [4, 99])
        assert outcome == ("ok", 1004)
        assert resumes == 5  # one per iteration, plus the start
        outcome, printed, resumes = _check_shape(
            YIELD_IN_LOOP_IN_TRY, "Main::f", [4, 2])
        assert outcome == ("ok", -2)
        assert printed.endswith("caught at, 2\n")
        assert resumes == 4  # traps in the third iteration

    def test_callee_suspends_then_throws_into_callers_handler(self):
        assert _check_shape(CALLEE_SUSPENDS_THEN_THROWS, "Main::f", [1]) \
            == (("ok", 3), "returned, 3\n", 3)
        assert _check_shape(CALLEE_SUSPENDS_THEN_THROWS, "Main::f", [9]) \
            == (("ok", -1), "handled\n", 3)

    def test_hook_stop_across_a_suspending_body(self):
        outcome, printed, resumes = _check_shape(
            HOOK_STOP_ACROSS_SUSPENSION, "Main::f", [4])
        assert outcome == ("ok", 8)
        assert printed == "stopping with, 8\n8, 8\n"
        assert resumes == 3

    def test_disabled_hook_group(self):
        outcome, printed, _ = _check_shape(DISABLED_GROUP, "Main::f", [1])
        assert outcome == ("ok", 203)
        assert printed == "noisy body\n" * 2

    def test_recursion_depth_500(self):
        assert _check_shape(RECURSION, "Main::depth", [500])[0] == \
            ("ok", 500)

    def test_watchdog_fires_inside_a_loop_and_is_caught_once(self):
        outcome, printed, _ = _check_shape(
            WATCHDOG_IN_LOOP, "Main::f", [1000], budget=4 + 5 * 7 - 1)
        assert outcome == ("ok", 9)
        assert printed.endswith("trips, 1\n")
        # The iterations before the trip, then the rest after recovery.
        assert printed.splitlines()[:9] == [str(i) for i in range(9)]

    def test_uncaught_trap_type_and_count(self):
        outcome, _, _ = _check_shape(YIELD_IN_LOOP_IN_TRY.replace(
            "Hilti::DivisionByZero", "Hilti::IndexError"), "Main::f", [4, 1])
        assert outcome == ("raise", "Hilti::DivisionByZero")


class TestReentrancy:
    def test_one_program_two_threads_separate_contexts(self):
        """Generated functions keep every per-call value in Python
        locals; two threads interleaving in one CompiledProgram must not
        see each other."""
        program = compile_program(_linked(NESTED_LOOPS, 1), opt_level=1)
        expected = {n: sum(j for i in range(n) for j in range(i))
                    for n in (30, 41)}
        failures = []

        def worker(n):
            ctx = program.make_context(print_stream=io.StringIO())
            for _ in range(40):
                got = program.call(ctx, "Main::f", [n])
                if got != expected[n]:
                    failures.append((n, got))
            if ctx.instr_count % 40:
                failures.append((n, "count", ctx.instr_count))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(n,))
                       for n in (30, 41, 30, 41)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []


class TestGeneratedSource:
    def test_traceback_shows_the_hilti_instruction_that_trapped(self):
        """Every generated line ends in its HILTI instruction and the
        source is registered with linecache, so a Python traceback
        through compiled code reads as a HILTI one."""
        import traceback

        program = compile_program(_linked(RECURSION.replace(
            "return 0", "below = int.div 1 n\n    return below"), 1),
            opt_level=1)
        with pytest.raises(HiltiError) as trap:
            program.call(program.make_context(), "Main::depth", [2])
        text = "".join(traceback.format_exception(trap.value))
        # The frame that trapped, then one per HILTI caller.
        assert text.count('File "<hilti:Main::depth>"') == 3
        assert "# below = int.div 1 n" in text
        assert text.count("# below = call depth (below)") == 2
        source = program.functions["Main::depth"].source
        assert source.startswith("def ")
        assert "# Main::depth" in source.splitlines()[0]
        assert "# below = int.div 1 n" in source
