"""HILTI-level optimization passes."""

import pytest

from repro.core import hiltic
from repro.core import types as ht
from repro.core.ir import (
    Block,
    Const,
    Function,
    Instruction,
    LabelRef,
    Module,
    Var,
)
from repro.core.linker import link, strip_unreachable
from repro.core.optimize import (
    DEFAULT_OPT_LEVEL,
    OPT_LEVELS,
    OptStats,
    merge_blocks,
    optimize_module,
)
from repro.core.parser import parse_module


def _optimized(source, level=DEFAULT_OPT_LEVEL):
    module = parse_module(source)
    stats = optimize_module(module, level=level)
    return module, stats


def _behavior(source, entry, cases):
    """Every optimization level agrees with the unoptimized program."""
    for args, expected in cases:
        for level in OPT_LEVELS:
            program = hiltic([source], opt_level=level)
            got = program.call(program.make_context(), entry, list(args))
            assert got == expected, f"-O{level} {entry}{args!r}"


class TestConstantFolding:
    def test_folds_pure_constant_ops(self):
        module, stats = _optimized("""module Main
int<64> f() {
    local int<64> x
    x = int.add 20 22
    return x
}
""")
        assert stats.folded >= 1
        # The folded constant propagates all the way into the return.
        instructions = [
            i
            for b in module.functions["Main::f"].blocks
            for i in b.instructions
        ]
        assert all(i.mnemonic != "int.add" for i in instructions)
        assert instructions[-1].mnemonic == "return.result"
        assert instructions[-1].operands[0].value == 42

    def test_leaves_trapping_folds_for_runtime(self):
        module, stats = _optimized("""module Main
int<64> f() {
    local int<64> x
    x = int.div 1 0
    return x
}
""")
        instr = module.functions["Main::f"].blocks[0].instructions[0]
        assert instr.mnemonic == "int.div"  # still traps at runtime

    def test_folded_program_still_correct(self):
        src = """module Main
int<64> f() {
    local int<64> x
    local int<64> y
    x = int.mul 6 7
    y = int.add x 0
    return y
}
"""
        program = hiltic([src])
        assert program.call(program.make_context(), "Main::f") == 42


class TestDeadCode:
    def test_unreachable_blocks_removed(self):
        module, stats = _optimized("""module Main
int<64> f() {
    jump out
dead:
    local int<64> z
    z = int.add 1 2
    jump out
out:
    return 0
}
""")
        # `dead` has no predecessors (jump goes straight to out).
        labels = [b.label for b in module.functions["Main::f"].blocks]
        assert "dead" not in labels
        assert stats.dead_blocks >= 1

    def test_dead_stores_removed(self):
        module, stats = _optimized("""module Main
int<64> f(int<64> a) {
    local int<64> unused
    unused = int.mul a a
    return a
}
""")
        assert stats.dead_stores >= 1
        mnemonics = [
            i.mnemonic
            for b in module.functions["Main::f"].blocks
            for i in b.instructions
        ]
        assert "int.mul" not in mnemonics

    def test_global_stores_never_removed(self):
        module, stats = _optimized("""module Main
global int<64> g
void f(int<64> a) {
    g = int.mul a a
}
""")
        mnemonics = [
            i.mnemonic
            for b in module.functions["Main::f"].blocks
            for i in b.instructions
        ]
        assert "int.mul" in mnemonics


class TestCSE:
    def test_repeated_expression_collapses(self):
        module, stats = _optimized("""module Main
int<64> f(int<64> a, int<64> b) {
    local int<64> x
    local int<64> y
    local int<64> r
    x = int.add a b
    y = int.add a b
    r = int.add x y
    return r
}
""")
        assert stats.cse_hits >= 1
        program = hiltic([parse_module("""module Main
int<64> f(int<64> a, int<64> b) {
    local int<64> x
    local int<64> y
    local int<64> r
    x = int.add a b
    y = int.add a b
    r = int.add x y
    return r
}
""")])
        assert program.call(program.make_context(), "Main::f", [3, 4]) == 14

    def test_heap_mutation_invalidates_reference_equality(self):
        # `equal` looks through references: a struct.set between two
        # identical comparisons changes the answer.
        _behavior("""module Main
type P = struct { int<64> x }
bool f(int<64> v) {
    local ref<P> a
    local ref<P> b
    local bool first
    local bool second
    a = new P
    b = new P
    struct.set a x 1
    struct.set b x 1
    first = equal a b
    struct.set b x v
    second = equal a b
    second = bool.and first second
    return second
}
""", "Main::f", [((1,), True), ((2,), False)])

    def test_reassignment_invalidates(self):
        src = """module Main
int<64> f(int<64> a) {
    local int<64> x
    local int<64> y
    x = int.add a 1
    a = int.mul a 2
    y = int.add a 1
    return y
}
"""
        program = hiltic([src])
        # a=5: x=6, a=10, y=11 — CSE must NOT reuse x for y.
        assert program.call(program.make_context(), "Main::f", [5]) == 11


class TestLinkTimeDCE:
    def test_strip_unreachable_functions(self):
        module = parse_module("""module Main
void used() {
    return
}

void unused() {
    return
}

void run() {
    call used()
}
""")
        program = link([module])
        removed = strip_unreachable(program, ["Main::run"])
        assert removed == 1
        assert "Main::unused" not in program.functions
        assert "Main::used" in program.functions

    def test_hook_bodies_kept(self):
        module = parse_module("""module Main
hook void h() {
    call helper()
}

void helper() {
    return
}

void run() {
    return
}
""")
        program = link([module])
        removed = strip_unreachable(program, ["Main::run"])
        assert removed == 0
        assert "Main::helper" in program.functions


class TestJumpThreading:
    def test_forwarding_block_bypassed(self):
        module, stats = _optimized("""module Main
int<64> f(int<64> x) {
    local bool b
    b = int.lt x 0
    if.else b hop direct
hop:
    jump target
direct:
    return 1
target:
    return 2
}
""")
        assert stats.jumps_threaded >= 1
        # The forwarding block is now unreachable and removed.
        labels = [b.label for b in module.functions["Main::f"].blocks]
        assert "hop" not in labels

    def test_threaded_program_still_correct(self):
        src = """module Main
int<64> f(int<64> x) {
    local bool b
    b = int.lt x 0
    if.else b hop direct
hop:
    jump target
direct:
    return 1
target:
    return 2
}
"""
        from repro.core import hiltic

        for level in OPT_LEVELS:
            program = hiltic([src], opt_level=level)
            ctx = program.make_context()
            assert program.call(ctx, "Main::f", [-1]) == 2
            assert program.call(ctx, "Main::f", [1]) == 1

    def test_jump_cycle_left_alone(self):
        # Two blocks jumping at each other must not hang the optimizer.
        src = """module Main
void f(bool b) {
    if.else b a done
a:
    jump c
c:
    jump a
done:
    return
}
"""
        from repro.core.optimize import optimize_module
        from repro.core.parser import parse_module

        optimize_module(parse_module(src))  # must terminate


class TestConstantPropagation:
    def test_propagates_across_blocks(self):
        # x is 7 on every path into the join block; the branch on the
        # known condition folds and the add computes at compile time.
        module, stats = _optimized("""module Main
int<64> f(bool c) {
    local int<64> x
    x = int.add 3 4
    if.else c a b
a:
    jump join
b:
    jump join
join:
    local int<64> y
    y = int.add x 1
    return y
}
""")
        assert stats.propagated + stats.folded >= 2
        instructions = [
            i
            for b in module.functions["Main::f"].blocks
            for i in b.instructions
        ]
        returns = [i for i in instructions if i.mnemonic == "return.result"]
        assert returns and returns[0].operands[0].value == 8

    def test_conflicting_paths_not_propagated(self):
        src = """module Main
int<64> f(bool c) {
    local int<64> x
    if.else c a b
a:
    x = int.add 0 1
    jump join
b:
    x = int.add 0 2
    jump join
join:
    return x
}
"""
        for level in (0, 1):
            program = hiltic([src], opt_level=level)
            ctx = program.make_context()
            assert program.call(ctx, "Main::f", [True]) == 1
            assert program.call(ctx, "Main::f", [False]) == 2


class TestBranchSimplification:
    def test_constant_branch_becomes_jump(self):
        module, stats = _optimized("""module Main
int<64> f() {
    local bool c
    c = bool.and True True
    if.else c yes no
yes:
    return 1
no:
    return 2
}
""")
        assert stats.branches_simplified >= 1
        assert stats.dead_blocks >= 1
        mnemonics = [
            i.mnemonic
            for b in module.functions["Main::f"].blocks
            for i in b.instructions
        ]
        assert "if.else" not in mnemonics


class TestBlockMerging:
    def test_single_pred_single_succ_merged(self):
        module, stats = _optimized("""module Main
int<64> f(int<64> a) {
    local int<64> x
    x = int.mul a a
    jump next
next:
    local int<64> y
    y = int.add x a
    return y
}
""")
        assert stats.jumps_threaded + stats.blocks_merged >= 1
        function = module.functions["Main::f"]
        assert len(function.blocks) == 1


class TestLocalPruning:
    def test_unused_locals_dropped(self):
        module, stats = _optimized("""module Main
int<64> f(int<64> a) {
    local int<64> dead
    local int<64> keep
    dead = int.add a 1
    keep = int.mul a 2
    return keep
}
""")
        assert stats.dead_stores >= 1
        assert stats.locals_pruned >= 1
        names = [l.name for l in module.functions["Main::f"].locals]
        assert "dead" not in names
        assert "keep" in names

    def test_pruned_function_still_runs(self):
        src = """module Main
int<64> f(int<64> a) {
    local int<64> dead
    local int<64> keep
    dead = int.add a 1
    keep = int.mul a 2
    return keep
}
"""
        for level in (0, 1):
            program = hiltic([src], opt_level=level)
            assert program.call(program.make_context(), "Main::f", [6]) == 12


class TestOptStats:
    def test_as_dict_reports_every_counter(self):
        module, stats = _optimized("""module Main
int<64> f() {
    local int<64> x
    x = int.add 20 22
    return x
}
""")
        report = stats.as_dict()
        assert report["folded"] >= 1
        assert set(report) == {
            "folded", "propagated", "branches_simplified", "dead_blocks",
            "dead_stores", "cse_hits", "jumps_threaded", "blocks_merged",
            "locals_pruned",
        }
        assert stats.total() == sum(report.values())


class TestOptLevels:
    def test_level_registry(self):
        assert OPT_LEVELS == (0, 1)
        assert DEFAULT_OPT_LEVEL in OPT_LEVELS
        with pytest.raises(ValueError, match="optimization level 2"):
            hiltic(["module Main\n"], opt_level=2)

    def test_level_zero_is_identity(self):
        source = """module Main
int<64> f() {
    local int<64> x
    x = int.add 20 22
    return x
}
"""
        module, stats = _optimized(source, level=0)
        assert stats.total() == 0
        instr = module.functions["Main::f"].blocks[0].instructions[0]
        assert instr.mnemonic == "int.add"


class TestSharedJoin:
    DIAMOND = """module Main
int<64> f(bool c) {
    local int<64> x
    if.else c a b
a:
    x = int.add 0 1
    jump out
b:
    x = int.add 0 2
    jump out
out:
    return x
}
"""

    def test_shared_join_stays_shared(self):
        # No tail duplication (superblock formation was deleted once a
        # `jump` stopped costing a dispatch): one join, one return.
        module, stats = _optimized(self.DIAMOND)
        returns = [
            i for b in module.functions["Main::f"].blocks
            for i in b.instructions if i.mnemonic == "return.result"
        ]
        assert len(returns) == 1

    def test_shared_join_behavior_preserved(self):
        _behavior(self.DIAMOND, "Main::f", [((True,), 1), ((False,), 2)])


class TestMergeBlocksFallthroughRepair:
    """Fuzzer regression: merging a fallthrough-off-the-end block.

    When the merged-in block was the lexically last one and relied on
    falling off the end of the function, the repair used to emit a
    ``return.void`` even in value-returning functions — an ill-typed
    terminator.  The repair is type-aware now: non-void functions get an
    explicit ``return.result`` of the implicit None.
    """

    @staticmethod
    def _merge_shape(result_type):
        function = Function("Main::f", [], result_type)
        entry = function.add_block("entry")
        entry.append(Instruction("jump", (LabelRef("tail"),)))
        tail = function.add_block("tail")
        tail.append(Instruction(
            "assign", (Const(ht.INT64, 1),), Var("x")))
        # No terminator: `tail` falls off the end of the function.
        merge_blocks(function, OptStats())
        return function

    def test_nonvoid_repair_returns_result(self):
        function = self._merge_shape(ht.INT64)
        assert len(function.blocks) == 1
        last = function.blocks[0].instructions[-1]
        assert last.mnemonic == "return.result"
        assert isinstance(last.operands[0], Const)
        assert last.operands[0].value is None

    def test_void_repair_returns_void(self):
        function = self._merge_shape(ht.VOID)
        assert len(function.blocks) == 1
        last = function.blocks[0].instructions[-1]
        assert last.mnemonic == "return.void"


class TestPurityMemo:
    def test_memo_agrees_with_the_prefix_rule(self):
        from repro.core.instructions import REGISTRY
        from repro.core.optimize import _PURE_EXACT, _PURE_PREFIXES, _is_pure

        _is_pure.cache_clear()
        for mnemonic in sorted(REGISTRY):
            rule = mnemonic in _PURE_EXACT or any(
                mnemonic.startswith(prefix) for prefix in _PURE_PREFIXES)
            assert _is_pure(mnemonic) is rule, mnemonic
            assert _is_pure(mnemonic) is rule, mnemonic  # memoized answer
        assert _is_pure.cache_info().currsize == len(REGISTRY)
