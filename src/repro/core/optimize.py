"""HILTI-level optimization passes.

The paper notes its prototype "lacks support for even the most basic
compiler optimizations, such as constant folding and common subexpression
elimination at the HILTI level" (section 6.6) and sketches them as the
clear next step.  We implement CSE, with propagation, dead-store
elimination and block merging, as a pass pipeline run by the toolchain
between typecheck and lowering (``-O1``, the default); the ablation
benchmark (``benchmarks/bench_ablations.py``) and the regression harness
(``benchmarks/bench_regression.py``) turn it on and off:

* constant/copy propagation — values assigned from constants or other
  locals flow forward into later operands (locals are frame-private, so
  facts survive across calls);
* local + extended-basic-block CSE — repeated pure computations on
  unchanged operands collapse to a copy; single-predecessor blocks
  inherit their predecessor's available expressions, which is what folds
  the per-primitive overlay reads a BPF filter re-emits on every branch
  chain;
* dead-store elimination — pure results written to locals nobody reads;
* straight-line block merging — a block whose only entry is one
  unconditional predecessor splices into it, so the code generator
  charges fewer, larger straight-line regions.

Each pass saves executed instructions on one of the paper's programs
(compiled Bro scripts, the BPF filter, the stateful firewall).  Constant
folding, branch simplification, jump threading, dead-block removal and
local pruning saved none worth keeping there and were deleted —
docs/PERFORMANCE.md, "Why only four passes".

The passes must never change observable behaviour; ``repro.tools.fuzz``
differentially tests every level against the interpreter oracle.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Set, Tuple

from . import types as ht
from .cfg import successors
from .ir import (
    Const,
    FieldRef,
    Function,
    Instruction,
    LabelRef,
    Module,
    Operand,
    TupleOp,
    TypeRef,
    Var,
)

__all__ = [
    "optimize_module", "optimize_function", "OptStats",
    "OPT_LEVELS", "DEFAULT_OPT_LEVEL",
]

#: Every optimization level the toolchain accepts; the CLIs derive their
#: ``-O`` flags/choices from this so a new tier lands everywhere at once.
OPT_LEVELS = (0, 1)

#: The level used when no ``-O`` flag is given.
DEFAULT_OPT_LEVEL = 1

# Mnemonic prefixes whose instructions are pure (no side effects, result
# depends only on operand values).
_PURE_PREFIXES = (
    "int.",
    "double.",
    "bool.",
    "string.",
    "addr.",
    "net.",
    "port.",
    "time.",
    "interval.",
    "tuple.",
    "bitset.",
    "enum.",
)
_PURE_EXACT = {
    "assign", "equal", "unequal", "select", "and", "or", "not",
}
# Pure but may raise (division by zero, index errors): the trap is
# observable, so these are neither CSE'd nor removed as dead stores.
_PURE_MAY_RAISE = {"int.div", "int.mod", "double.div", "tuple.index"}

# Memory *reads*: no side effects, but the result depends on heap state
# (a Bytes buffer, mostly).  CSE-able — the first occurrence dominates a
# repeat with identical operands — as long as no potentially-mutating
# instruction intervenes; never removable as dead stores (they may raise
# on truncated input, which BPF semantics observe).
_PURE_MEMREAD = {"overlay.get", "unpack", "bytes.begin", "bytes.length"}
# Available expressions a heap mutation kills: the memory reads, and the
# generic comparisons, which look *through* references (two structs are
# equal field by field) — pure on values, heap-dependent on refs.
_HEAP_DEPENDENT = _PURE_MEMREAD | {"equal", "unequal"}

# Instructions guaranteed not to mutate heap state (so memory-read facts
# survive them).  Everything else that is not pure kills those facts —
# including ``yield``, where the host may mutate buffers mid-suspension.
_NO_HEAP_EFFECT = {
    "jump", "if.else", "switch", "return.void", "return.result",
    "try.begin", "try.end",
}

_TERMINATORS = {"jump", "if.else", "switch", "return.void", "return.result"}


class OptStats:
    """Counts of what each pass changed."""

    #: One counter per pass, in pipeline order; ``total``, ``as_dict``
    #: and ``repr`` (and so every report of the counts) read this tuple.
    COUNTERS = ("propagated", "cse_hits", "dead_stores", "blocks_merged")
    __slots__ = COUNTERS

    def __init__(self):
        for name in self.COUNTERS:
            setattr(self, name, 0)

    def total(self) -> int:
        return sum(self.as_dict().values())

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.COUNTERS}

    def __repr__(self) -> str:
        return "OptStats({})".format(", ".join(
            f"{name}={value}" for name, value in self.as_dict().items()))


@functools.cache
def _is_pure(mnemonic: str) -> bool:
    """The purity rule, memoized per mnemonic (the passes ask it for
    every instruction they visit)."""
    return mnemonic in _PURE_EXACT or mnemonic.startswith(_PURE_PREFIXES)


def _invalidates_memory(mnemonic: str) -> bool:
    """Whether an instruction may mutate state a memory read depends on."""
    if _is_pure(mnemonic):
        return False
    return mnemonic not in _PURE_MEMREAD and mnemonic not in _NO_HEAP_EFFECT


def _operand_key(operand: Operand) -> Optional[Tuple]:
    """A hashable identity for CSE; None if the operand defies comparison."""
    if isinstance(operand, Const):
        try:
            hash(operand.value)
        except TypeError:
            return None
        return ("const", operand.value)
    if isinstance(operand, Var):
        return ("var", operand.name)
    if isinstance(operand, FieldRef):
        return ("field", operand.name)
    if isinstance(operand, TypeRef):
        # Identity of the type object: builders emit a fresh TypeRef per
        # instruction but share the underlying ht.Type.
        return ("type", id(operand.type))
    if isinstance(operand, TupleOp):
        parts = tuple(_operand_key(e) for e in operand.elements)
        if any(p is None for p in parts):
            return None
        return ("tuple",) + parts
    return None


def _operand_vars(operand: Operand) -> Set[str]:
    if isinstance(operand, Var):
        return {operand.name}
    if isinstance(operand, TupleOp):
        out: Set[str] = set()
        for element in operand.elements:
            out |= _operand_vars(element)
        return out
    return set()


def _predecessors(function: Function) -> Dict[str, Set[str]]:
    preds: Dict[str, Set[str]] = {}
    for index, block in enumerate(function.blocks):
        for succ in successors(function, index):
            preds.setdefault(succ, set()).add(block.label)
    return preds


def _handler_labels(function: Function) -> Set[str]:
    """Labels that are exception-handler targets: control can enter them
    from *any* point inside the try scope, so they never inherit
    single-predecessor facts and never merge away."""
    labels: Set[str] = set()
    for block in function.blocks:
        for instruction in block.instructions:
            if instruction.mnemonic == "try.begin" and instruction.operands:
                handler = instruction.operands[0]
                if isinstance(handler, LabelRef):
                    labels.add(handler.label)
    return labels


_MISSING = object()


def _forward_must(function: Function, transfer) -> Dict[str, Dict]:
    """Iterative forward must-dataflow over the CFG, to fixpoint.

    *transfer(block, state) -> state* applies a block's effect to a fact
    dict.  The join is intersection: a fact survives into a block only if
    every processed predecessor ends with the same fact (unprocessed
    predecessors are optimistically TOP; iteration shrinks states
    monotonically, so the result is sound).  The entry block and
    exception-handler entries start from bottom — exceptional control can
    transfer from *any* point inside a try scope, so handlers inherit
    nothing.  Returns label -> facts on block entry.
    """
    handlers = _handler_labels(function)
    preds = _predecessors(function)
    out: Dict[str, Dict] = {}
    ins: Dict[str, Dict] = {}
    changed = True
    while changed:
        changed = False
        for index, block in enumerate(function.blocks):
            if index == 0 or block.label in handlers:
                in_state: Optional[Dict] = {}
            else:
                block_preds = preds.get(block.label, set())
                states = [out[p] for p in block_preds if p in out]
                if not states:
                    if block_preds:
                        continue  # all preds unprocessed: stay at TOP
                    in_state = {}
                else:
                    in_state = dict(states[0])
                    for other in states[1:]:
                        in_state = {
                            key: value for key, value in in_state.items()
                            if other.get(key, _MISSING) == value
                        }
            ins[block.label] = in_state
            new_out = transfer(block, dict(in_state))
            if out.get(block.label) != new_out:
                out[block.label] = new_out
                changed = True
    return ins


# --------------------------------------------------------------------------
# Passes
# --------------------------------------------------------------------------


def _rewrite_operand(operand: Operand, env: Dict[str, Operand],
                     counter: List[int]) -> Operand:
    if isinstance(operand, Var):
        replacement = env.get(operand.name)
        if replacement is not None:
            counter[0] += 1
            return replacement
        return operand
    if isinstance(operand, TupleOp):
        elements = [_rewrite_operand(e, env, counter)
                    for e in operand.elements]
        if any(n is not o for n, o in zip(elements, operand.elements)):
            return TupleOp(elements)
        return operand
    return operand


def _propagation_step(function: Function, instruction: Instruction,
                      env: Dict[str, Operand],
                      stats: Optional[OptStats] = None) -> None:
    """Apply one instruction to the propagation environment; with *stats*
    given, also rewrite the instruction's operands in place."""
    mnemonic = instruction.mnemonic
    # try.begin's trailing Var is a *store* target for the caught
    # exception, not a read — leave its operands untouched.
    if stats is not None and mnemonic != "try.begin" and env:
        counter = [0]
        new_operands = tuple(
            _rewrite_operand(op, env, counter)
            for op in instruction.operands
        )
        if counter[0]:
            instruction.operands = new_operands
            stats.propagated += counter[0]
    target = instruction.target
    if target is None:
        if mnemonic == "try.begin" and len(instruction.operands) > 2:
            caught = instruction.operands[2]
            if isinstance(caught, Var):
                env.pop(caught.name, None)
        return
    name = target.name
    env.pop(name, None)
    for key in [k for k, v in env.items()
                if isinstance(v, Var) and v.name == name]:
        del env[key]
    if mnemonic == "assign" and function.variable_type(name) is not None:
        source = instruction.operands[0]
        if isinstance(source, Const):
            env[name] = source
        elif (
            isinstance(source, Var)
            and source.name != name
            and function.variable_type(source.name) is not None
        ):
            env[name] = source


def propagate_constants(function: Function, stats: OptStats) -> None:
    """Forward constants and copies of locals into later operand uses.

    Locals are frame-private (nothing but this function's own stores can
    change them), so facts survive calls and hook dispatch.  Facts flow
    across block boundaries by must-dataflow: at a join they survive only
    when every incoming path agrees; try-handler entries inherit nothing
    because exceptional control can enter them from anywhere inside the
    scope.
    """
    def transfer(block, env):
        for instruction in block.instructions:
            _propagation_step(function, instruction, env)
        return env

    ins = _forward_must(function, transfer)
    for block in function.blocks:
        env = ins.get(block.label)
        if env is None:
            continue
        env = dict(env)
        for instruction in block.instructions:
            _propagation_step(function, instruction, env, stats)


def remove_dead_stores(function: Function, module: Module,
                       stats: OptStats) -> None:
    """Drop pure instructions whose local target nobody reads."""
    read: Set[str] = set()
    for block in function.blocks:
        for instruction in block.instructions:
            for operand in instruction.operands:
                read |= _operand_vars(operand)
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            kept: List[Instruction] = []
            for instruction in block.instructions:
                target = instruction.target
                removable = (
                    target is not None
                    and _is_pure(instruction.mnemonic)
                    and instruction.mnemonic not in _PURE_MAY_RAISE
                    and target.name not in read
                    and function.variable_type(target.name) is not None
                )
                if removable:
                    stats.dead_stores += 1
                    changed = True
                    continue
                kept.append(instruction)
            block.instructions = kept
        if changed:
            read = set()
            for block in function.blocks:
                for instruction in block.instructions:
                    for operand in instruction.operands:
                        read |= _operand_vars(operand)


def _cse_scan(function: Function, block, available: Dict[Tuple, str],
              stats: Optional[OptStats] = None) -> Dict[Tuple, str]:
    """One block's available-expression transfer; with *stats* given,
    repeats also rewrite to copies in place.  The update rules must be
    identical in both modes so the fixpoint states match the rewrite."""
    for position, instruction in enumerate(block.instructions):
        mnemonic = instruction.mnemonic
        target = instruction.target
        if _invalidates_memory(mnemonic):
            for key in [k for k in available if k[0] in _HEAP_DEPENDENT]:
                del available[key]
        # Invalidate expressions that depend on a reassigned variable.
        if target is not None:
            stale = [
                key for key in available
                if ("var", target.name) in _flatten(key)
            ]
            for key in stale:
                del available[key]
            available = {
                key: var for key, var in available.items()
                if var != target.name
            }
        cse_able = (
            (_is_pure(mnemonic) and mnemonic not in _PURE_MAY_RAISE)
            or mnemonic in _PURE_MEMREAD
        )
        if (
            target is None
            or not cse_able
            or mnemonic == "assign"
            or function.variable_type(target.name) is None
        ):
            continue
        keys = tuple(_operand_key(op) for op in instruction.operands)
        if any(k is None for k in keys):
            continue
        expr = (mnemonic,) + keys
        if ("var", target.name) in _flatten(expr):
            # Self-referencing update (x = int.incr x): the expression
            # as written denotes the *pre*-assignment value, so it is not
            # available afterwards.
            continue
        previous = available.get(expr)
        if previous is not None and previous != target.name:
            if stats is not None:
                block.instructions[position] = Instruction(
                    "assign",
                    (Var(previous),),
                    target,
                    instruction.location,
                )
                stats.cse_hits += 1
        else:
            available[expr] = target.name
    return available


def local_cse(function: Function, stats: OptStats) -> None:
    """Collapse repeated pure computations across the whole CFG.

    Classic available-expression value numbering, extended two ways:
    (a) facts flow across block boundaries by must-dataflow — at a join
    an expression stays available only if every incoming path computed it
    into the same variable (the BPF compiler re-reads the same overlay
    fields on every branch chain, which this folds); (b) memory *reads*
    (``overlay.get``, ``unpack``, …) participate until an instruction
    that may mutate heap state kills them.
    """
    ins = _forward_must(
        function, lambda block, state: _cse_scan(function, block, state)
    )
    for block in function.blocks:
        state = ins.get(block.label)
        if state is None:
            continue
        _cse_scan(function, block, dict(state), stats)


def _flatten(key) -> Set[Tuple]:
    out: Set[Tuple] = set()
    stack = [key]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            if len(item) == 2 and item[0] in ("var", "const", "field"):
                out.add(item)
            else:
                stack.extend(item)
    return out


def merge_blocks(function: Function, stats: OptStats) -> None:
    """Splice single-entry blocks into their unconditional predecessor.

    Chains ``A -jump-> B`` (or fallthroughs) where B has no other entry
    are common in lowered code; merging them gives the code generator
    longer straight-line runs — fewer, larger regions to charge.  Entry blocks and try-handler targets are
    never merged away (exceptional control enters handlers edge-free).
    """
    while True:
        if len(function.blocks) < 2:
            return
        preds = _predecessors(function)
        handlers = _handler_labels(function)
        by_label = {b.label: b for b in function.blocks}
        order = {b.label: i for i, b in enumerate(function.blocks)}
        entry_label = function.blocks[0].label
        merged = False
        for index, block in enumerate(function.blocks):
            last = block.instructions[-1] if block.instructions else None
            if last is not None and last.mnemonic == "jump":
                succ = last.operands[0].label
                explicit = True
            elif last is None or last.mnemonic not in _TERMINATORS:
                if index + 1 >= len(function.blocks):
                    continue
                succ = function.blocks[index + 1].label
                explicit = False
            else:
                continue
            if succ == block.label or succ == entry_label:
                continue
            if succ in handlers:
                continue
            target = by_label.get(succ)
            if target is None or len(preds.get(succ, ())) != 1:
                continue
            if explicit:
                block.instructions.pop()
            block.instructions.extend(target.instructions)
            tail = block.instructions[-1] if block.instructions else None
            if tail is None or tail.mnemonic not in _TERMINATORS:
                # The merged-in block relied on fallthrough; make its
                # continuation explicit since it moves lexically.
                succ_index = order[succ]
                if succ_index + 1 < len(function.blocks):
                    block.instructions.append(Instruction(
                        "jump",
                        (LabelRef(function.blocks[succ_index + 1].label),),
                    ))
                elif function.result == ht.VOID:
                    block.instructions.append(
                        Instruction("return.void", ())
                    )
                else:
                    # Falling off the end of a value-returning function
                    # yields None in every tier; a synthesized
                    # ``return.void`` would also lower to a bare return,
                    # but make the preserved semantics explicit instead
                    # of emitting an ill-typed terminator.
                    block.instructions.append(Instruction(
                        "return.result", (Const(ht.ANY, None),)
                    ))
            function.blocks.remove(target)
            function.rebuild_block_index()
            stats.blocks_merged += 1
            merged = True
            break
        if not merged:
            return


def optimize_function(module: Module, function: Function,
                      stats: Optional[OptStats] = None,
                      level: int = 1) -> OptStats:
    if stats is None:
        stats = OptStats()
    if level <= 0:
        return stats

    for _round in range(4):
        before = stats.total()
        propagate_constants(function, stats)
        local_cse(function, stats)
        remove_dead_stores(function, module, stats)
        merge_blocks(function, stats)
        if stats.total() == before:
            break
    return stats


def optimize_module(module: Module, stats: Optional[OptStats] = None,
                    level: int = 1) -> OptStats:
    """Run all passes over every function of *module*."""
    if stats is None:
        stats = OptStats()
    if level <= 0:
        return stats
    for function in module.all_functions():
        optimize_function(module, function, stats, level=level)
    return stats
