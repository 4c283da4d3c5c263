"""HILTI-level optimization passes.

The paper notes its prototype "lacks support for even the most basic
compiler optimizations, such as constant folding and common subexpression
elimination at the HILTI level" (section 6.6) and sketches them as the
clear next step.  We implement them as a leveled pass pipeline run by the
toolchain between typecheck and lowering (``-O1``, the default); the
ablation benchmark (``benchmarks/bench_ablations.py``) and the regression
harness (``benchmarks/bench_regression.py``) turn it on and off:

* constant folding — pure instructions with all-constant operands execute
  at compile time;
* constant/copy propagation — values assigned from constants or other
  locals flow forward into later operands (locals are frame-private, so
  facts survive across calls);
* branch simplification — ``if.else``/``switch`` on a constant collapse
  to a ``jump``;
* local + extended-basic-block CSE — repeated pure computations on
  unchanged operands collapse to a copy; single-predecessor blocks
  inherit their predecessor's available expressions, which is what folds
  the per-primitive overlay reads a BPF filter re-emits on every branch
  chain;
* dead-store elimination — pure results written to locals nobody reads;
* jump threading — branches into trivial forwarding blocks retarget;
* straight-line block merging — a block whose only entry is one
  unconditional predecessor splices into it, so the code generator
  charges fewer, larger straight-line regions;
* dead-block elimination — blocks unreachable in the CFG are dropped.

``-O2`` adds a second tier on top (guarded by ``level >= 2``):

* branch-refined constant propagation — the must-dataflow join learns
  per-edge facts from the terminator that selected the edge (taking the
  true leg of ``if.else b ...`` pins ``b = True``; a unique ``switch``
  case pins the scrutinee), so re-tests of the same condition fold;
* intra-module inlining — small single-block leaf functions splice into
  their call sites (direct ``call`` operands are statically
  monomorphic);
* flow-function specialization — call sites passing constant arguments
  to a small function retarget to a per-signature clone whose seeded
  parameters the regular pipeline then folds.

(Superblock formation by tail duplication used to close this list: it
saved one trampoline dispatch per ``jump``.  The code generator now
emits a ``jump`` as fall-through Python, the pass stopped beating ``-O1``
on the HTTP and DNS traces — table in docs/PERFORMANCE.md — and was
deleted.)

``-O2`` must never change observable behaviour; ``repro.tools.fuzz``
differentially tests every level against the interpreter oracle.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Set, Tuple

from . import types as ht
from .cfg import reachable_blocks, successors
from .instructions import REGISTRY
from .ir import (
    Block,
    Const,
    FieldRef,
    FuncRef,
    Function,
    Instruction,
    LabelRef,
    Module,
    Operand,
    Parameter,
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
OPT_LEVELS = (0, 1, 2)

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
# Pure but may raise (division by zero, index errors): foldable only when
# folding succeeds, never removable as dead? They are removable — HILTI
# semantics make the trap observable, but dead-store elimination of a
# trapping division changes behaviour only for programs already raising;
# we keep them to stay semantics-preserving.
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
    """Counts of what each pass changed (reported by the ablation bench)."""

    def __init__(self):
        self.folded = 0
        self.propagated = 0
        self.branches_simplified = 0
        self.dead_blocks = 0
        self.dead_stores = 0
        self.cse_hits = 0
        self.jumps_threaded = 0
        self.blocks_merged = 0
        self.locals_pruned = 0
        # -O2 tier.
        self.inlined = 0
        self.specialized = 0

    def total(self) -> int:
        return (self.folded + self.propagated + self.branches_simplified
                + self.dead_blocks + self.dead_stores + self.cse_hits
                + self.jumps_threaded + self.blocks_merged
                + self.locals_pruned + self.inlined + self.specialized)

    def as_dict(self) -> Dict[str, int]:
        return {
            "folded": self.folded,
            "propagated": self.propagated,
            "branches_simplified": self.branches_simplified,
            "dead_blocks": self.dead_blocks,
            "dead_stores": self.dead_stores,
            "cse_hits": self.cse_hits,
            "jumps_threaded": self.jumps_threaded,
            "blocks_merged": self.blocks_merged,
            "locals_pruned": self.locals_pruned,
            "inlined": self.inlined,
            "specialized": self.specialized,
        }

    def __repr__(self) -> str:
        return (
            f"OptStats(folded={self.folded}, prop={self.propagated}, "
            f"branches={self.branches_simplified}, "
            f"dead_blocks={self.dead_blocks}, "
            f"dead_stores={self.dead_stores}, cse={self.cse_hits}, "
            f"jumps={self.jumps_threaded}, merged={self.blocks_merged})"
        )


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


def _forward_must(function: Function, transfer,
                  edge_refine=None) -> Dict[str, Dict]:
    """Iterative forward must-dataflow over the CFG, to fixpoint.

    *transfer(block, state) -> state* applies a block's effect to a fact
    dict.  The join is intersection: a fact survives into a block only if
    every processed predecessor ends with the same fact (unprocessed
    predecessors are optimistically TOP; iteration shrinks states
    monotonically, so the result is sound).  The entry block and
    exception-handler entries start from bottom — exceptional control can
    transfer from *any* point inside a try scope, so handlers inherit
    nothing.  Returns label -> facts on block entry.

    *edge_refine(pred_block, succ_label) -> facts-or-None* (the -O2
    extension) adds facts true only on that specific CFG edge — e.g. the
    branch condition's value on each leg of an ``if.else`` — layered on
    top of the predecessor's out-state before the join.
    """
    handlers = _handler_labels(function)
    preds = _predecessors(function)
    by_label = {b.label: b for b in function.blocks}
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
                states = []
                for p in block_preds:
                    if p not in out:
                        continue
                    state = out[p]
                    if edge_refine is not None:
                        facts = edge_refine(by_label[p], block.label)
                        if facts:
                            state = dict(state)
                            state.update(facts)
                    states.append(state)
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


def fold_constants(function: Function, stats: OptStats) -> None:
    """Evaluate pure all-constant instructions at compile time."""
    for block in function.blocks:
        for position, instruction in enumerate(block.instructions):
            if instruction.target is None:
                continue
            if not _is_pure(instruction.mnemonic):
                continue
            if instruction.mnemonic == "assign":
                continue
            if not instruction.operands or not all(
                isinstance(op, Const) for op in instruction.operands
            ):
                continue
            definition = REGISTRY[instruction.mnemonic]
            if definition.fn is None:
                continue
            try:
                result = definition.fn(
                    None, *[op.value for op in instruction.operands]
                )
            except Exception:
                continue  # Trapping fold (e.g. 1/0): leave for runtime.
            block.instructions[position] = Instruction(
                "assign",
                (Const(ht.ANY, result),),
                instruction.target,
                instruction.location,
            )
            stats.folded += 1


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


def _edge_facts(function: Function, block, succ_label: str) -> Optional[Dict]:
    """Facts implied by control taking the edge *block* -> *succ_label*.

    Reaching the true leg of ``if.else b then else`` means ``b`` held
    ``True`` at the branch (and it is frame-private, so nothing else can
    have changed it since); a ``switch`` case reached through exactly one
    case constant pins the scrutinee to that constant.  Only locals and
    parameters qualify — globals can change between the read and the
    refined use.
    """
    if not block.instructions:
        return None
    last = block.instructions[-1]
    if last.mnemonic == "if.else":
        cond, then_ref, else_ref = last.operands[:3]
        if not isinstance(cond, Var) or \
                function.variable_type(cond.name) is None:
            return None
        if then_ref.label == else_ref.label:
            return None
        if succ_label == then_ref.label:
            return {cond.name: Const(ht.BOOL, True)}
        if succ_label == else_ref.label:
            return {cond.name: Const(ht.BOOL, False)}
        return None
    if last.mnemonic == "switch":
        value = last.operands[0]
        if not isinstance(value, Var) or \
                function.variable_type(value.name) is None:
            return None
        default = last.operands[1]
        if isinstance(default, LabelRef) and default.label == succ_label:
            return None  # the default edge only excludes values
        hits = []
        for case in last.operands[2:]:
            if (
                isinstance(case, TupleOp)
                and len(case.elements) == 2
                and isinstance(case.elements[0], Const)
                and isinstance(case.elements[1], LabelRef)
                and case.elements[1].label == succ_label
            ):
                hits.append(case.elements[0])
        if len(hits) == 1:
            return {value.name: hits[0]}
    return None


def propagate_constants(function: Function, stats: OptStats,
                        level: int = 1) -> None:
    """Forward constants and copies of locals into later operand uses.

    Locals are frame-private (nothing but this function's own stores can
    change them), so facts survive calls and hook dispatch.  Facts flow
    across block boundaries by must-dataflow: at a join they survive only
    when every incoming path agrees; try-handler entries inherit nothing
    because exceptional control can enter them from anywhere inside the
    scope.  At ``-O2`` the join additionally refines each incoming edge
    with the facts its terminator implies (see :func:`_edge_facts`).
    """
    def transfer(block, env):
        for instruction in block.instructions:
            _propagation_step(function, instruction, env)
        return env

    refine = None
    if level >= 2:
        def refine(block, succ_label):
            return _edge_facts(function, block, succ_label)

    ins = _forward_must(function, transfer, edge_refine=refine)
    for block in function.blocks:
        env = ins.get(block.label)
        if env is None:
            continue
        env = dict(env)
        for instruction in block.instructions:
            _propagation_step(function, instruction, env, stats)


def simplify_branches(function: Function, stats: OptStats) -> None:
    """Collapse branches whose condition is a compile-time constant."""
    for block in function.blocks:
        if not block.instructions:
            continue
        last = block.instructions[-1]
        if last.mnemonic == "if.else" and isinstance(last.operands[0], Const):
            taken = last.operands[1] if last.operands[0].value \
                else last.operands[2]
            block.instructions[-1] = Instruction(
                "jump", (taken,), None, last.location
            )
            stats.branches_simplified += 1
        elif last.mnemonic == "switch" and \
                isinstance(last.operands[0], Const):
            value = last.operands[0].value
            taken = last.operands[1]  # default
            for case in last.operands[2:]:
                if (
                    isinstance(case, TupleOp)
                    and len(case.elements) == 2
                    and isinstance(case.elements[0], Const)
                    and isinstance(case.elements[1], LabelRef)
                    and case.elements[0].value == value
                ):
                    taken = case.elements[1]
                    break
            block.instructions[-1] = Instruction(
                "jump", (taken,), None, last.location
            )
            stats.branches_simplified += 1


def remove_dead_blocks(function: Function, stats: OptStats) -> None:
    reachable = reachable_blocks(function)
    kept = [b for b in function.blocks if b.label in reachable]
    stats.dead_blocks += len(function.blocks) - len(kept)
    function.blocks = kept
    function.rebuild_block_index()


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


def thread_jumps(function: Function, stats: OptStats) -> None:
    """Collapse chains of trivial forwarding blocks.

    A block containing only ``jump X`` adds a needless control transfer;
    every branch targeting it is redirected straight to ``X`` (cycles are
    left alone).  Dead-block elimination then removes the skipped block.
    """
    forwards: Dict[str, str] = {}
    for block in function.blocks:
        if len(block.instructions) == 1 and \
                block.instructions[0].mnemonic == "jump":
            target = block.instructions[0].operands[0].label
            if target != block.label:
                forwards[block.label] = target

    def resolve(label: str) -> str:
        seen = set()
        while label in forwards and label not in seen:
            seen.add(label)
            label = forwards[label]
        return label

    rewired = 0
    for block in function.blocks:
        for instruction in block.instructions:
            if instruction.mnemonic not in ("jump", "if.else", "switch",
                                            "try.begin"):
                continue
            new_operands = []
            changed = False
            for operand in instruction.operands:
                if isinstance(operand, LabelRef):
                    resolved = resolve(operand.label)
                    if resolved != operand.label:
                        operand = LabelRef(resolved)
                        changed = True
                elif isinstance(operand, TupleOp):
                    elements = []
                    for element in operand.elements:
                        if isinstance(element, LabelRef):
                            resolved = resolve(element.label)
                            if resolved != element.label:
                                element = LabelRef(resolved)
                                changed = True
                        elements.append(element)
                    operand = TupleOp(elements)
                new_operands.append(operand)
            if changed:
                instruction.operands = tuple(new_operands)
                rewired += 1
    stats.jumps_threaded += rewired


def merge_blocks(function: Function, stats: OptStats) -> None:
    """Splice single-entry blocks into their unconditional predecessor.

    After jump threading the CFG often contains chains ``A -jump-> B``
    (or fallthroughs) where B has no other entry; merging them gives the
    code generator longer straight-line runs — fewer, larger regions to
    charge.  Entry blocks and try-handler targets are
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


def prune_locals(function: Function, stats: OptStats) -> None:
    """Drop locals no remaining instruction reads or writes.

    Earlier passes routinely orphan temporaries (a propagated copy whose
    store was then dead-store-eliminated); removing the slot shrinks
    every frame the compiled tier allocates for this function.
    """
    used: Set[str] = set()
    for block in function.blocks:
        for instruction in block.instructions:
            if instruction.target is not None:
                used.add(instruction.target.name)
            for operand in instruction.operands:
                used |= _operand_vars(operand)
    kept = [local for local in function.locals if local.name in used]
    if len(kept) != len(function.locals):
        stats.locals_pruned += len(function.locals) - len(kept)
        function.locals = kept


# --------------------------------------------------------------------------
# -O2 passes
# --------------------------------------------------------------------------

#: Largest callee body (instructions) the inliner splices.
_INLINE_MAX = 16
#: Largest callee (instructions) eligible for constant-argument cloning.
_SPEC_MAX_INSTRUCTIONS = 48
#: Clone budget per module — specialization must not balloon code size.
_SPEC_MAX_CLONES = 8


def _copy_instruction(instruction: Instruction) -> Instruction:
    """A fresh Instruction wrapper for duplicated code.

    Operand/target objects are never mutated by the passes (rewrites
    rebind ``instruction.operands`` wholesale), so sharing them between
    copies is safe; sharing the Instruction itself is not.
    """
    return Instruction(instruction.mnemonic, instruction.operands,
                       instruction.target, instruction.location)


def _inline_candidates(module: Module) -> Dict[str, Function]:
    """Small single-block leaf functions safe to splice into callers.

    A candidate's body may only contain pure computation (including the
    trapping and memory-reading pure sets — both behave identically
    inline, against the same heap) ending in a single return, and every
    local must be initialized or written before it is read: inlined
    locals live in the *caller's* frame, so a read of a never-written
    local would otherwise observe a previous inline instance's value
    instead of a fresh frame default.
    """
    candidates: Dict[str, Function] = {}
    for fn in module.functions.values():
        if len(fn.blocks) != 1:
            continue
        body = fn.blocks[0].instructions
        if not body or len(body) > _INLINE_MAX:
            continue
        if body[-1].mnemonic not in ("return.void", "return.result"):
            continue
        written = {p.name for p in fn.params}
        written |= {l.name for l in fn.locals if l.init is not None}
        ok = True
        for instruction in body:
            mnemonic = instruction.mnemonic
            if mnemonic not in ("return.void", "return.result") and not (
                _is_pure(mnemonic)
                or mnemonic in _PURE_MAY_RAISE
                or mnemonic in _PURE_MEMREAD
            ):
                ok = False
                break
            for operand in instruction.operands:
                for name in _operand_vars(operand):
                    if fn.variable_type(name) is not None and \
                            name not in written:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
            if instruction.target is not None:
                written.add(instruction.target.name)
        if ok:
            candidates[fn.name] = fn
    return candidates


def _splice_inline(caller: Function, callee: Function, arg_ops,
                   call_target, serial: List[int]) -> List[Instruction]:
    """The inlined instruction sequence replacing one call site."""
    n = serial[0]
    serial[0] += 1
    mapping: Dict[str, Operand] = {}
    spliced: List[Instruction] = []
    for param, arg in zip(callee.params, arg_ops):
        fresh = f"%inl{n}_{param.name}"
        caller.add_local(fresh, param.type)
        mapping[param.name] = Var(fresh)
        spliced.append(Instruction("assign", (arg,), Var(fresh)))
    for local in callee.locals:
        fresh = f"%inl{n}_{local.name}"
        caller.add_local(fresh, local.type)
        mapping[local.name] = Var(fresh)
        if local.init is not None:
            # Callee frames re-initialize per call; the caller's frame
            # does not, so seed the init value at every splice.  Parsed
            # modules store inits as Const operands, builder-made ones
            # as raw values — normalize to one Const either way.
            init = (local.init if isinstance(local.init, Const)
                    else Const(local.type, local.init))
            spliced.append(Instruction("assign", (init,), Var(fresh)))
    body = callee.blocks[0].instructions
    counter = [0]
    for instruction in body[:-1]:
        operands = tuple(_rewrite_operand(op, mapping, counter)
                         for op in instruction.operands)
        target = instruction.target
        if target is not None and target.name in mapping:
            target = mapping[target.name]
        spliced.append(Instruction(instruction.mnemonic, operands, target,
                                   instruction.location))
    tail = body[-1]
    if tail.mnemonic == "return.result" and call_target is not None:
        value = _rewrite_operand(tail.operands[0], mapping, counter)
        spliced.append(Instruction("assign", (value,), call_target,
                                   tail.location))
    return spliced


def _resolve_intra_module(module: Module, by_name: Dict[str, Function],
                          ref) -> Optional[Function]:
    if not isinstance(ref, FuncRef):
        return None
    target = by_name.get(ref.name)
    if target is None:
        target = by_name.get(module.qualified(ref.name))
    return target


def inline_calls(module: Module, stats: OptStats) -> None:
    """Splice small leaf functions into their intra-module call sites.

    Direct ``call`` operands name their target statically, so every site
    is monomorphic by construction: the code generator binds the callee
    by name at link time, inlining removes the call altogether.
    """
    candidates = _inline_candidates(module)
    if not candidates:
        return
    serial = [0]
    for function in module.all_functions():
        for block in function.blocks:
            rewritten: List[Instruction] = []
            changed = False
            for instruction in block.instructions:
                callee = None
                if instruction.mnemonic == "call" and instruction.operands:
                    callee = _resolve_intra_module(
                        module, candidates, instruction.operands[0])
                if callee is None or callee is function:
                    rewritten.append(instruction)
                    continue
                args = (instruction.operands[1]
                        if len(instruction.operands) > 1 else TupleOp(()))
                arg_ops = (list(args.elements)
                           if isinstance(args, TupleOp) else None)
                if arg_ops is None or len(arg_ops) != len(callee.params):
                    rewritten.append(instruction)
                    continue
                rewritten.extend(_splice_inline(
                    function, callee, arg_ops, instruction.target, serial))
                stats.inlined += 1
                changed = True
            if changed:
                block.instructions = rewritten


def _clone_for_specialization(callee: Function, clone_name: str,
                              const_bindings) -> Function:
    clone = Function(
        clone_name,
        [Parameter(p.name, p.type) for p in callee.params],
        callee.result,
        location=callee.location,
    )
    for local in callee.locals:
        clone.add_local(local.name, local.type, local.init)
    for block in callee.blocks:
        copy = clone.add_block(block.label)
        copy.instructions = [_copy_instruction(i)
                             for i in block.instructions]
    # A fresh entry block seeds the known-constant parameters, then
    # jumps to the original entry.  Seeding in a new block (rather than
    # prepending to the old entry) keeps loops targeting the original
    # entry from re-running the seeds on every back edge.
    seed = Block("%spec_entry")
    seed.instructions = [
        Instruction("assign", (Const(arg.type, arg.value),),
                    Var(callee.params[index].name))
        for index, arg in const_bindings
    ]
    seed.instructions.append(
        Instruction("jump", (LabelRef(clone.blocks[0].label),))
    )
    clone.blocks.insert(0, seed)
    clone.rebuild_block_index()
    return clone


def specialize_calls(module: Module, stats: OptStats) -> None:
    """Clone small functions per constant-argument signature.

    A call site passing constants retargets to a clone whose seeded
    parameters the regular pipeline then folds through the whole flow
    function — branches on configuration arguments collapse, dead legs
    disappear.  Clones dedupe on (callee, constant signature) and are
    capped so specialization never balloons the module.
    """
    by_name = dict(module.functions)
    clones: Dict[Tuple, str] = {}
    made = 0
    for function in module.all_functions():
        for block in function.blocks:
            for instruction in block.instructions:
                if instruction.mnemonic != "call" or \
                        len(instruction.operands) < 2:
                    continue
                callee = _resolve_intra_module(
                    module, by_name, instruction.operands[0])
                if callee is None or callee is function:
                    continue
                if "%spec" in callee.name:
                    continue
                args = instruction.operands[1]
                if not isinstance(args, TupleOp) or \
                        len(args.elements) != len(callee.params):
                    continue
                const_bindings = []
                for index, arg in enumerate(args.elements):
                    if isinstance(arg, Const):
                        try:
                            hash(arg.value)
                        except TypeError:
                            continue
                        const_bindings.append((index, arg))
                if not const_bindings:
                    continue
                size = sum(len(b.instructions) for b in callee.blocks)
                if size > _SPEC_MAX_INSTRUCTIONS:
                    continue
                key = (
                    callee.name,
                    tuple((index, arg.value)
                          for index, arg in const_bindings),
                )
                clone_name = clones.get(key)
                if clone_name is None:
                    if made >= _SPEC_MAX_CLONES:
                        continue
                    clone_name = f"{callee.name}%spec{made}"
                    module.add_function(_clone_for_specialization(
                        callee, clone_name, const_bindings))
                    clones[key] = clone_name
                    made += 1
                    stats.specialized += 1
                instruction.operands = (
                    (FuncRef(clone_name),) + instruction.operands[1:]
                )


def optimize_function(module: Module, function: Function,
                      stats: Optional[OptStats] = None,
                      level: int = 1) -> OptStats:
    if stats is None:
        stats = OptStats()
    if level <= 0:
        return stats

    def pipeline():
        fold_constants(function, stats)
        propagate_constants(function, stats, level=level)
        local_cse(function, stats)
        remove_dead_stores(function, module, stats)
        simplify_branches(function, stats)
        thread_jumps(function, stats)
        merge_blocks(function, stats)
        remove_dead_blocks(function, stats)
        prune_locals(function, stats)

    for _round in range(4):
        before = stats.total()
        pipeline()
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
    if level >= 2:
        # Cross-function first: inlining removes call sites outright,
        # specialization retargets the rest to constant-seeded clones;
        # the per-function pipeline below then optimizes callers, clones
        # and survivors alike.
        inline_calls(module, stats)
        specialize_calls(module, stats)
    for function in module.all_functions():
        optimize_function(module, function, stats, level=level)
    return stats
