"""Code generation: one Python function per HILTI function ("native" tier).

This is the reproduction's stand-in for the paper's LLVM backend (§5):
branches, calls and fiber switches are the host machine's own control
flow, not something an engine loop interprets.  Every HILTI function (and
hook body) is emitted once as Python *source*, compiled with
``compile()`` and bound in one per-program namespace:

* params and locals are Python locals (``v0, v1, ...``; locals arrive
  initialised as keyword defaults), thread-locals are ``ctx.globals[i]``,
  constants are literals or names in the namespace;
* ``if.else``/``switch``/``jump`` are inline ``if``/``elif``/``else``: a
  block with a single predecessor nests in place under the branch that
  reaches it, so the hot path through a parser field is straight-line
  code with its retry arm under the ``else``.  Only join points, loop
  headers and exception handlers become *rungs* of a ``pc`` ladder
  (``while True: if pc == 0: ... if pc == 1: ...``); a forward transfer
  sets ``pc`` and falls down the ladder, a backward one ``continue``\\s;
* a function the IR-level analysis (:func:`_ir_can_suspend`) says can
  reach a suspension point is a generator function — ``yield`` is a
  Python ``yield``, calling it is ``yield from callee(ctx, ...)`` — and
  a plain ``def`` called as ``callee(ctx, ...)`` otherwise.  Callees and
  hook bodies are names in the namespace, bound at link time; hook
  dispatch is the body list unrolled under one ``_HookStop`` handler;
* ``try.begin``/``try.end`` push and pop a per-invocation handler stack;
  one ``try/except`` around the ladder dispatches to the innermost
  matching handler's rung;
* value instructions become one line each: the registry's ``inline``
  template, a compile-time specialisation (:data:`_SITES`: struct slots,
  constant-layout reads, constant-type ``new``, precompiled token
  sequences), or a call of the registry function.

**Accounting.**  ``ctx.instr_count`` is charged once per straight-line
*region* — the instructions between two points where control can leave
the function's straight line (a transfer to a rung, a return, a yield, a
suspending call) — after they ran, together with one
``ctx.segments_dispatched`` tick and the one-shot watchdog check.  Every
emitted line records how many instructions of its region have started
but are not charged yet; when an exception surfaces in a function, its
traceback line indexes that table (:func:`_trap`) and exactly the
instructions up to and including the trapping one are charged — the
interpreter's count-then-execute totals, on every path.

Each function's source stays on ``CompiledFunction.source`` and in
``linecache`` under ``<hilti:Module::fn>``, every line ending in the
HILTI instruction it came from, so a Python traceback through compiled
code reads as a HILTI one.  The engine that is left is the host-facing
glue: ``CompiledProgram`` drains generators, ``Fiber`` resumes them.
"""

from __future__ import annotations

import linecache
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..runtime import overlay as rt_overlay
from ..runtime import regexp as rt_regexp
from ..runtime.bytes_buffer import Bytes
from ..runtime.context import ExecutionContext
from ..runtime.exceptions import (
    HiltiError,
    INDEX_ERROR,
    INTERNAL_ERROR,
    PROCESSING_TIMEOUT,
    VALUE_ERROR,
)
from ..runtime.fibers import Fiber, FiberStats
from ..runtime.structs import Callable as HiltiCallable
from . import types as ht
from .instructions import REGISTRY, constructor, default_value, instantiate
from .ir import (
    Const,
    FieldRef,
    FuncRef,
    Function,
    Instruction,
    LabelRef,
    Module,
    Operand,
    TupleOp,
    TypeRef,
    Var,
)
from .linker import LinkedProgram, LinkError

__all__ = ["CompiledFunction", "CompiledProgram", "compile_program"]


class _HookStop(Exception):
    """Internal: a hook body executed ``hook.stop``."""

    def __init__(self, value):
        self.value = value


class CompiledFunction:
    """One HILTI function as the Python function it compiled to."""

    __slots__ = ("name", "result_type", "param_count", "can_suspend",
                 "hook_group", "entry", "filename", "_lines")

    def __init__(self, function: Function, can_suspend: bool):
        self.name = function.name
        self.result_type = function.result
        self.param_count = len(function.params)
        # Whether ``entry`` is a generator function: execution can reach
        # a suspension point (yield, timers, callables, or a call chain
        # containing one).
        self.can_suspend = can_suspend
        # For hook bodies: the group this body belongs to (bodies of a
        # disabled group are skipped at dispatch).
        self.hook_group = function.hook_group
        self.entry = None  # entry(ctx, *args)
        self.filename = f"<hilti:{function.name}>"
        self._lines: List[str] = []

    @property
    def source(self) -> str:
        """The generated Python source (also in ``linecache``)."""
        return "".join(self._lines)

    def enter(self, ctx, args: Sequence):
        """Call with host-supplied *args*: the result, or — for a
        suspending function — the generator that produces it."""
        if len(args) != self.param_count:
            _arity(self.name, self.param_count, len(args))
        return self.entry(ctx, *args)

    def __repr__(self) -> str:
        kind = "generator" if self.can_suspend else "function"
        return f"<compiled {self.name} {kind}>"


def _arity(name: str, expected: int, got: int):
    raise HiltiError(
        VALUE_ERROR, f"{name} expects {expected} arguments, got {got}")


def _drain(generator):
    """Run a compiled generator to completion, ignoring suspensions."""
    try:
        while True:
            next(generator)
    except StopIteration as stop:
        return stop.value


class CompiledProgram:
    """A fully lowered program ready for execution."""

    def __init__(self, linked: LinkedProgram):
        self.linked = linked
        self.functions: Dict[str, CompiledFunction] = {}
        self.hooks: Dict[str, List[CompiledFunction]] = {}
        self.natives = linked.natives
        self.fiber_stats = FiberStats()
        self._global_inits: List[Tuple[int, Operand, ht.Type]] = []
        # Host-selectable runtime backends ("transparent integration of
        # non-standard capabilities", §7): e.g. {"classifier": "trie"}.
        self.runtime_options: Dict[str, str] = {}
        # Optimization level the program was lowered at (one of
        # optimize.OPT_LEVELS).
        self.opt_level = 1
        # IR-level optimization statistics, attached by the toolchain.
        self.opt_stats = None

    # -- host-facing API ------------------------------------------------------

    def make_context(self, **kwargs) -> ExecutionContext:
        """A fresh execution context with initialized thread-locals."""
        ctx = ExecutionContext(**kwargs)
        self.init_context(ctx)
        return ctx

    def init_context(self, ctx: ExecutionContext) -> None:
        ctx.program = self
        ctx.globals = [None] * len(self.linked.global_layout)
        for slot, init, var_type in self._global_inits:
            if init is None:
                ctx.globals[slot] = default_value(var_type)
            elif isinstance(init, TypeRef):
                ctx.globals[slot] = instantiate(ctx, init.type)
            elif isinstance(init, Const):
                ctx.globals[slot] = init.value
            else:
                ctx.globals[slot] = init

    def function(self, name: str) -> CompiledFunction:
        try:
            return self.functions[name]
        except KeyError:
            raise LinkError(f"no compiled function {name!r}") from None

    def call(self, ctx: ExecutionContext, name: str, args: Sequence = ()):
        """Run a function to completion (ignoring suspension points)."""
        cf = self.function(name)
        result = cf.enter(ctx, args)
        return _drain(result) if cf.can_suspend else result

    def call_fiber(self, ctx: ExecutionContext, name: str,
                   args: Sequence = ()) -> Fiber:
        """Start a function inside a fiber; resume() drives it."""
        cf = self.function(name)
        if cf.can_suspend:
            return Fiber(cf.enter(ctx, args), stats=self.fiber_stats)

        # Non-suspending functions still get a fiber interface.
        def _wrap():
            return cf.enter(ctx, args)
            yield  # pragma: no cover - makes this a generator

        return Fiber(_wrap(), stats=self.fiber_stats)

    def run_hook(self, ctx: ExecutionContext, hook_name: str,
                 args: Sequence = ()):
        """Run all bodies of a hook to completion (host-driven events)."""
        result = None
        for body in self.hooks.get(hook_name, ()):
            if body.hook_group is not None and \
                    body.hook_group in ctx.hook_groups_disabled:
                continue
            try:
                started = body.enter(ctx, args)
                if body.can_suspend:
                    _drain(started)
            except _HookStop as stop:
                result = stop.value
                break
        return result

    def run(self, ctx: Optional[ExecutionContext] = None, args: Sequence = ()):
        """Execute the program's entry point (``Main::run`` by default)."""
        if self.linked.entry is None:
            raise LinkError("program has no entry point")
        if ctx is None:
            ctx = self.make_context()
        return self.call(ctx, self.linked.entry, args)

    def run_callable(self, ctx: ExecutionContext, bound):
        """Invoke a HILTI callable value to completion (host side)."""
        return _drain(_run_callable(self, ctx, bound))

    def check_watchpoints(self, ctx: ExecutionContext) -> int:
        """Evaluate pending watchpoints; returns how many fired."""
        return _drain(_check_watchpoints(self, ctx))

    def __repr__(self) -> str:
        return f"<CompiledProgram {len(self.functions)} functions>"


# --------------------------------------------------------------------------
# Runtime support the generated functions call by name
# --------------------------------------------------------------------------


def _watchdog(ctx) -> None:
    """The budget check behind every region charge (armed contexts)."""
    if ctx.instr_count > ctx.instr_budget:
        # One-shot: disarm so catch handlers can run.
        ctx.instr_budget = None
        raise HiltiError(PROCESSING_TIMEOUT, "instruction budget exhausted")


def _charge_pending(ctx, exc, table):
    """Charge the started-but-uncharged part of the trapping region;
    returns the error to propagate.

    The head of ``exc.__traceback__`` is the entry of the frame that is
    handling it — the generated function — and *table* maps its line to
    the instructions of the current region up to and including the one
    on that line (0 once the region is charged).  A stray IndexError
    (constant tuple indexing compiles to a plain subscript) becomes
    Hilti::IndexError here, in the function that trapped.
    """
    pending = table[exc.__traceback__.tb_lineno]
    if pending:
        ctx.instr_count += pending
        ctx.segments_dispatched += 1
    if exc.__class__ is IndexError:
        return HiltiError(INDEX_ERROR, f"index out of range: {exc}")
    return exc


def _leave(ctx, exc, error, profiler) -> None:
    """An exception leaves the function: stop its *profiler* (when
    profiled) and raise the converted *error*; the caller re-raises an
    unconverted one."""
    if profiler is not None:
        ctx.profilers.get(profiler).stop(ctx.instr_count,
                                         ctx.alloc_stats.allocations)
    if error is not exc:
        raise error from exc


def _trap(ctx, exc, table, profiler=None) -> None:
    """Exception leaving a function without handlers; caller re-raises."""
    _leave(ctx, exc, _charge_pending(ctx, exc, table), profiler)


def _unwind(ctx, exc, table, handlers, profiler=None):
    """Exception in a function with try scopes: ``(rung, error)`` of the
    innermost matching handler, or ``(-1, None)`` to re-raise."""
    error = _charge_pending(ctx, exc, table)
    if isinstance(error, HiltiError):
        while handlers:
            rung, catch_type = handlers.pop()
            if catch_type is None or error.matches(catch_type):
                return rung, error
    _leave(ctx, exc, error, profiler)
    return -1, None


def _throwable(error) -> HiltiError:
    if not isinstance(error, HiltiError):
        error = HiltiError(VALUE_ERROR, str(error))
    return error


def _schedule(ctx, vthread_id, function: str, args) -> None:
    if ctx.scheduler is None:
        raise HiltiError(INTERNAL_ERROR, "thread.schedule without a scheduler")
    ctx.scheduler.schedule(vthread_id, function, args)


def _run_callable(program: CompiledProgram, ctx, bound):
    """Execute a HILTI callable (timers, scheduled jobs); a generator."""
    if isinstance(bound, HiltiCallable):
        function = bound.function
        cf = program.functions.get(function) \
            if isinstance(function, str) else function
        if cf is None:
            native = program.natives.get(function)
            if native is None:
                raise HiltiError(
                    INTERNAL_ERROR, f"unresolved callable {function!r}"
                )
            return native(ctx, *bound.args)
        result = cf.enter(ctx, bound.args)
        if cf.can_suspend:
            result = yield from result
        return result
    if callable(bound):
        return bound()
    raise HiltiError(INTERNAL_ERROR, f"cannot invoke {bound!r}")


def _fire(program: CompiledProgram, ctx, actions):
    """Run expired timers' actions, then the evictions they queued."""
    for action in actions:
        yield from _run_callable(program, ctx, action)
    while ctx.pending_expirations:
        yield from _run_callable(
            program, ctx, ctx.pending_expirations.pop(0))


def _check_watchpoints(program: CompiledProgram, ctx):
    fired = 0
    for entry in ctx.watchpoints:
        if entry[2]:
            continue
        if (yield from _run_callable(program, ctx, entry[0])):
            entry[2] = True
            fired += 1
            yield from _run_callable(program, ctx, entry[1])
    ctx.watchpoints[:] = [e for e in ctx.watchpoints if not e[2]]
    return fired


_SUPPORT = {
    "UNSET": ht.UNSET, "_Callable": HiltiCallable, "_HookStop": _HookStop,
    "_watchdog": _watchdog, "_trap": _trap, "_unwind": _unwind,
    "_throwable": _throwable, "_schedule": _schedule, "_arity": _arity,
    "_run_callable": _run_callable, "_fire": _fire,
    "_check_watchpoints": _check_watchpoints,
}


# --------------------------------------------------------------------------
# Compile-time specialisation of single instructions (:data:`_SITES`)
# --------------------------------------------------------------------------
#
# Each takes (emitter, instruction, operand expressions) and returns the
# Python text for the instruction — an expression, or whole statements
# (one per line) for instructions without a target — or None for the
# generic path.


def _site_struct(em: "_Emitter", instruction: Instruction,
                 args: List[str]) -> Optional[str]:
    """A constant-field struct op as direct slot access.

    The site keeps a monomorphic inline cache in the program namespace:
    ``k<n>`` = (struct type last seen, the field's slot in it), one
    tuple so that a hit reads a consistent pair even while another
    thread re-points it.  A hit touches ``_slots`` only; a null
    operand, another type, or an unset field on a read goes to the
    site's ``m<n>``, which runs the generic REGISTRY function (every
    error is the oracle's own) and re-points the cache.  A declared struct
    type resolves the slot here, at compile time; the guard stays
    because typecheck does not prove which struct an ``any``
    assigned into it held.
    """
    operands = instruction.operands
    if len(operands) < 2 or not isinstance(operands[1], FieldRef):
        return None
    mnemonic = instruction.mnemonic
    field = operands[1].name
    generic = REGISTRY[mnemonic].fn
    cached = (None, 0)  # every struct has a type: a miss
    declared = em.function.variable_type(operands[0].name) \
        if isinstance(operands[0], Var) else None
    if isinstance(declared, ht.RefT):
        declared = declared.target
    if isinstance(declared, ht.StructT) and field in declared.slot_index:
        cached = (declared, declared.slot_index[field])
    namespace = em.unit.namespace
    k = em.unit.bind(cached, share=False)

    def miss(ctx, struct, *rest):
        result = generic(ctx, struct, field, *rest)
        struct_type = struct.struct_type
        namespace[k] = (struct_type, struct_type.slot_index[field])
        return result

    m = em.unit.bind(miss, "m")
    hit = (f"(_s := {args[0]}) is not None "
           f"and _s.struct_type is (_k := {k})[0]")
    slot = "_s._slots[_k[1]]"
    if mnemonic == "struct.get":
        return (f"_v if {hit} and (_v := {slot}) is not UNSET "
                f"else {m}(ctx, _s)")
    if mnemonic == "struct.is_set":
        return f"({slot} is not UNSET) if {hit} else {m}(ctx, _s)"
    if mnemonic == "struct.get_default":
        return (f"({args[2]} if (_v := {slot}) is UNSET else _v) "
                f"if {hit} else {m}(ctx, _s, {args[2]})")
    if mnemonic == "struct.set":
        # A miss performs the (generic) set itself and returns None.
        return f"if {hit} or {m}(ctx, _s, {args[2]}): {slot} = {args[2]}"
    # struct.unset: back to the type's template value
    return f"if {hit} or {m}(ctx, _s): {slot} = _k[0].template[_k[1]]"


def _site_overlay_get(em, instruction, args):
    """``overlay.get`` with a constant type and field: the field spec
    (offset, format alias, struct code, bit range) resolves once.  The
    buffer's start is read as the ``_base`` slot (``Bytes.begin_offset``
    without the property call)."""
    operands = instruction.operands
    if len(operands) != 3 or not isinstance(operands[0], TypeRef) \
            or not isinstance(operands[1], FieldRef):
        return None
    overlay_type = operands[0].type
    if isinstance(overlay_type, ht.RefT):
        overlay_type = overlay_type.target
    try:
        fld = overlay_type.field(operands[1].name)
        unpacker = rt_overlay.make_unpacker(fld.fmt)
    except Exception:
        return None  # let the generic path report it at runtime
    return (f"{em.unit.bind(unpacker)}({args[2]}, "
            f"({args[2]})._base + {fld.offset})")


def _site_unpack(em, instruction, args):
    """``unpack <bytes> <offset> <Format>`` (no bit-range operand);
    the offset is relative to the buffer's ``_base``."""
    operands = instruction.operands
    if len(operands) != 3 or not isinstance(operands[2], FieldRef):
        return None
    try:
        unpacker = rt_overlay.make_unpacker(
            ht.UnpackFormat(operands[2].name, None))
    except Exception:
        return None
    return (f"{em.unit.bind(unpacker)}({args[0]}, "
            f"({args[0]})._base + {args[1]})")


def _site_bytes_unpack(em, instruction, args):
    """``bytes.unpack``/``bytes.unpack_seq <iter> <Format>...``: the
    run's precompiled reader (one ``Struct.unpack_from`` for a plain
    run) and a fixed iterator advance."""
    formats = instruction.operands[1:]
    if not all(isinstance(fmt, FieldRef) for fmt in formats):
        return None
    try:
        unpacker = rt_overlay.make_seq_unpacker(
            tuple(fmt.name for fmt in formats))
    except Exception:
        return None
    return f"{em.unit.bind(unpacker)}({args[0]})"


def _site_regexp_match_seq(em, instruction, args):
    """``regexp.match_seq <iter> <mask> <regexp>...`` with constant
    operands: the sequence matcher, built once per operand tuple."""
    constants = instruction.operands[1:]
    if not all(isinstance(op, Const) for op in constants):
        return None
    mask, *regexps = (op.value for op in constants)
    if type(mask) is not int or \
            not all(isinstance(r, rt_regexp.RegExp) for r in regexps):
        return None
    matcher = rt_regexp.sequence_matcher(tuple(regexps), mask)
    return f"{em.unit.bind(matcher)}({args[0]})"


def _site_new(em, instruction, args):
    """``new <constant type>`` without arguments."""
    if len(args) != 1 or not isinstance(instruction.operands[0], TypeRef):
        return None
    make = constructor(instruction.operands[0].type)
    return None if make is None else f"{em.unit.bind(make)}(ctx)"


def _site_tuple_index(em, instruction, args):
    """Constant tuple indexing is a plain subscript; a stray IndexError
    becomes Hilti::IndexError where the function traps (:func:`_trap`)."""
    index = instruction.operands[1]
    if isinstance(index, Const) and type(index.value) is int \
            and index.value >= 0:
        return f"{args[0]}[{index.value}]"
    return None


def _site_profiler(em, instruction, args):
    """``profiler.start``/``profiler.stop`` on a constant name: the
    context's :class:`~repro.runtime.profiler.Profiler` through a
    monomorphic inline cache (``k<n>`` = (profiler registry last seen,
    its profiler of that name); a miss resolves and re-points it), then
    ``Profiler.start``/``Profiler.stop`` inline — nesting depth, clock
    and counters, with the same nesting rule: only the outermost pair
    measures, and a stop at depth 0 does nothing.  The region is
    charged first (:data:`_READS_COUNTER`), so the counter readings
    are the interpreter's."""
    operand = instruction.operands[0]
    if not isinstance(operand, Const) or type(operand.value) is not str:
        return None
    name = operand.value
    clock = em.unit.bind(time.perf_counter_ns)
    namespace = em.unit.namespace
    k = em.unit.bind((None, None), share=False)

    def miss(ctx):
        profiler = ctx.profilers.get(name)
        namespace[k] = (ctx.profilers, profiler)
        return profiler

    resolve = (f"_r, _p = {k}\n"
               f"if _r is not ctx.profilers: "
               f"_p = {em.unit.bind(miss, 'm')}(ctx)\n")
    if instruction.mnemonic == "profiler.start":
        return (f"{resolve}if _p._depth: _p._depth += 1\n"
                f"else: _p._depth = 1; _p._start_ns = {clock}(); "
                "_p._start_instr = ctx.instr_count; "
                "_p._start_alloc = ctx.alloc_stats.allocations")
    return (f"{resolve}if _p._depth == 1: _p._depth = 0; _n = {clock}(); "
            "_p.wall_ns += _n - _p._start_ns; "
            "_p.instructions += ctx.instr_count - _p._start_instr; "
            "_p.allocations += ctx.alloc_stats.allocations - _p._start_alloc; "
            "_p.updates += 1; _p.snapshot_every_ns and _p.sample(_n)\n"
            "elif _p._depth: _p._depth -= 1")


# mnemonic -> (lowest -O level, specialiser)
_SITES = {
    "tuple.index": (0, _site_tuple_index),
    "profiler.start": (0, _site_profiler),
    "profiler.stop": (0, _site_profiler),
    "overlay.get": (1, _site_overlay_get),
    "unpack": (1, _site_unpack),
    "bytes.unpack": (1, _site_bytes_unpack),
    "bytes.unpack_seq": (1, _site_bytes_unpack),
    "regexp.match_seq": (1, _site_regexp_match_seq),
    "new": (1, _site_new),
    **{f"struct.{op}": (1, _site_struct)
       for op in ("get", "set", "is_set", "get_default", "unset")},
}

# Instructions that read ctx.instr_count: the region is charged first
# (themselves included), so profiler deltas equal the interpreter's.
_READS_COUNTER = {"profiler.start", "profiler.stop"}

# A block ends at the first of these; what follows it is dead.
_BLOCK_ENDS = {"jump", "if.else", "switch", "return.void", "return.result",
               "exception.throw", "hook.stop"}

# IR mnemonics that are themselves suspension points: yield, and any
# dispatch whose target is unknown until runtime (timer actions, bound
# callables).
_IR_SUSPENDING = {
    "yield",
    "timer_mgr.advance",
    "timer_mgr.advance_global",
    "timer_mgr.expire_all",
    "callable.call",
    "watchpoint.check",
}

# Deepest nesting of single-predecessor blocks under branches before a
# block becomes a rung instead (CPython refuses > 100 indent levels).
_MAX_NESTING = 40

_LITERALS = (type(None), bool, int, str, bytes)


def _hook_name(operand: Operand) -> str:
    return operand.name if isinstance(operand, (FieldRef, FuncRef)) \
        else str(operand)


def _describe(instruction: Instruction) -> str:
    """The HILTI instruction as the comment ending its generated lines."""

    def text(operand) -> str:
        if isinstance(operand, TupleOp):
            return "(" + ", ".join(text(e) for e in operand.elements) + ")"
        if isinstance(operand, Const):
            return repr(operand.value)
        for attribute in ("name", "label", "type"):
            if hasattr(operand, attribute):
                return str(getattr(operand, attribute))
        return repr(operand)

    parts = [instruction.mnemonic] + [text(o) for o in instruction.operands]
    head = f"{instruction.target.name} = " if instruction.target else ""
    line = " ".join((head + " ".join(parts)).splitlines())
    return line if len(line) <= 100 else line[:97] + "..."


class _Unit:
    """What the functions of one program share while it compiles."""

    def __init__(self, program: CompiledProgram, opt_level: int):
        self.linked = program.linked
        self.opt_level = opt_level
        self.namespace: Dict[str, object] = dict(_SUPPORT, _P=program)
        self.module_of: Dict[int, Module] = {}
        for module in self.linked.modules:
            for function in module.all_functions():
                self.module_of[id(function)] = module
        # id(Function) -> name of its Python function in the namespace.
        self.pyname: Dict[int, str] = {}
        for index, function in enumerate(self.all_functions()):
            self.pyname[id(function)] = f"f{index}"
        self.suspends = _ir_can_suspend(self)
        self._bound: Dict[int, str] = {}

    def all_functions(self) -> List[Function]:
        out = list(self.linked.functions.values())
        for bodies in self.linked.hooks.values():
            out.extend(bodies)
        return out

    def bind(self, value, prefix: str = "k", share: bool = True) -> str:
        """A namespace name for *value*: one per distinct object, or a
        fresh one (*share* off) for a slot the site will rebind."""
        name = self._bound.get(id(value)) if share else None
        if name is None:
            name = f"{prefix}{len(self.namespace)}"
            self.namespace[name] = value
            if share:
                self._bound[id(value)] = name
        return name

class _Emitter:
    """Emits the Python function of one HILTI function."""

    def __init__(self, unit: _Unit, function: Function):
        self.unit = unit
        self.function = function
        self.module = unit.module_of.get(id(function))
        self.can_suspend = unit.suspends[id(function)]
        self.slots: Dict[str, int] = {}
        for variable in list(function.params) + list(function.locals):
            self.slots[variable.name] = len(self.slots)
        self.lines: List[str] = []
        self.table: List[int] = [0]  # line number -> uncharged count
        self.depth = 1
        self.pending = 0  # instructions started in the current region
        self.comment = ""
        self._plan()

    # -- control-flow plan ----------------------------------------------------

    def _plan(self) -> None:
        """Reachable block bodies, their successors, and the rungs."""
        blocks = self.function.blocks
        index_of = {block.label: i for i, block in enumerate(blocks)}
        self.body: Dict[str, List[Instruction]] = {}
        self.next_label: Dict[str, Optional[str]] = {}
        succs: Dict[str, List[str]] = {}
        handlers: List[str] = []
        for i, block in enumerate(blocks):
            body = []
            for instruction in block.instructions:
                body.append(instruction)
                if instruction.mnemonic in _BLOCK_ENDS:
                    break
            self.body[block.label] = body
            self.next_label[block.label] = \
                blocks[i + 1].label if i + 1 < len(blocks) else None
            last = body[-1] if body else None
            out = []
            if last is None or last.mnemonic not in _BLOCK_ENDS:
                out.append(self.next_label[block.label])
            else:
                for operand in last.operands:
                    for leaf in getattr(operand, "elements", (operand,)):
                        if isinstance(leaf, LabelRef):
                            out.append(leaf.label)
            for label in out:
                if label is not None and label not in index_of:
                    raise LinkError(
                        f"branch to unknown block {label!r} in "
                        f"{self.function.name}")
            succs[block.label] = [label for label in out if label is not None]
        entry = blocks[0].label if blocks else None
        preds: Dict[str, int] = {}
        seen = set()
        stack = [entry] if blocks else []
        while stack:
            label = stack.pop()
            if label in seen:
                continue
            seen.add(label)
            for instruction in self.body[label]:
                if instruction.mnemonic == "try.begin":
                    handler = instruction.operands[0].label
                    handlers.append(handler)
                    stack.append(handler)
            for succ in succs[label]:
                preds[succ] = preds.get(succ, 0) + 1
                stack.append(succ)
        self.has_handlers = bool(handlers)
        rungs = {entry} | set(handlers) | \
            {label for label, count in preds.items() if count > 1}
        # Nest single-predecessor blocks in place, up to _MAX_NESTING
        # branch levels below their rung; deeper ones become rungs too.
        work = sorted(rungs - {None}, key=index_of.get)
        for root in work:
            stack = [(root, 0)]
            while stack:
                label, depth = stack.pop()
                for succ in succs[label]:
                    if succ in rungs:
                        continue
                    below = depth + (len(succs[label]) > 1)
                    if below > _MAX_NESTING:
                        rungs.add(succ)
                        work.append(succ)
                    else:
                        stack.append((succ, below))
        ordered = sorted(rungs - {None}, key=index_of.get)
        self.rungs = {label: i for i, label in enumerate(ordered)}
        # try.begin sites that bind the exception land on a rung of their
        # own (assign, then go to the handler): (variable, handler label).
        self.landings: List[Tuple[Var, str]] = []
        self.loop = len(ordered) > 1 or self.has_handlers or \
            preds.get(entry, 0) > 0
        self.rung = 0  # the rung being emitted

    # -- source assembly ------------------------------------------------------

    def line(self, text: str) -> None:
        comment = f"  # {self.comment}" if self.comment else ""
        self.lines.append(f"{'    ' * self.depth}{text}{comment}\n")
        self.table.append(self.pending)

    def compile(self) -> CompiledFunction:
        function = self.function
        cf = CompiledFunction(function, self.can_suspend)
        pyname = self.unit.pyname[id(function)]
        table_name = f"_T{pyname}"
        signature = ["ctx"] + [f"v{i}" for i in range(len(function.params))]
        for local in function.locals:
            if local.init is not None:
                value = local.init.value \
                    if isinstance(local.init, Const) else local.init
            else:
                value = default_value(local.type)
            # Defaults are shared by every call: init values are
            # immutable (ints, strings, domain values).
            signature.append(
                f"v{self.slots[local.name]}={self.literal(value)}")
        self.depth = 0
        self.line(f"def {pyname}({', '.join(signature)}):  "
                  f"# {function.name}")
        self.depth = 1
        if self.can_suspend:
            self.line("if 0: yield  # a generator whatever is reachable")
        if self.loop:
            self.line("pc = 0")
        if self.has_handlers:
            self.line("_h = []")
        if self.loop:
            self.line("while True:")
            self.depth += 1
        self.line("try:")
        self.depth += 1
        if not function.blocks:
            self.transfer(None)
        elif not self.loop:
            self.block(function.blocks[0].label)
        else:
            for label, index in self.rungs.items():
                self.rung = index
                self.comment = ""
                self.line(f"if pc == {index}:")
                self.depth += 1
                self.pending = 0
                self.block(label)
                self.depth -= 1
            self.rung = len(self.rungs)
            self.comment = ""
            for offset, (variable, handler) in enumerate(self.landings):
                self.line(f"if pc == {self.rung + offset}:")
                self.depth += 1
                self.line(f"{self.expr(variable)} = _x")
                self.line(f"pc = {self.rungs[handler]}; continue")
                self.depth -= 1
        self.depth -= 1
        self.comment = ""
        self.pending = 0
        self.line("except Exception as _e:")
        profiler = "" if function.profiler is None \
            else f", {function.profiler!r}"
        if self.has_handlers:
            self.line(f"    pc, _x = _unwind(ctx, _e, {table_name}, _h"
                      f"{profiler})")
            self.line("    if pc < 0: raise")
        else:
            self.line(f"    _trap(ctx, _e, {table_name}{profiler})")
            self.line("    raise")
        cf._lines = self.lines
        namespace = self.unit.namespace
        namespace[table_name] = bytes(self.table) \
            if max(self.table) < 256 else tuple(self.table)
        linecache.cache[cf.filename] = (
            sum(map(len, self.lines)), None, self.lines, cf.filename)
        exec(compile(cf.source, cf.filename, "exec"), namespace)
        cf.entry = namespace[pyname]
        return cf

    # -- operands ---------------------------------------------------------------

    def literal(self, value) -> str:
        """Python text for a constant: a literal, or a namespace name."""
        if type(value) in _LITERALS or \
                (type(value) is float and value == value
                 and abs(value) != float("inf")):
            return repr(value)
        return self.unit.bind(value)

    def expr(self, operand: Operand) -> str:
        """A Python expression reading (or, for a Var, naming) *operand*."""
        if isinstance(operand, Const):
            value = operand.value
            if isinstance(operand.type, ht.BytesT) and isinstance(value, bytes):
                value = Bytes(value)
                value.freeze()
            return self.literal(value)
        if isinstance(operand, Var):
            slot = self.slots.get(operand.name)
            if slot is not None:
                return f"v{slot}"
            slot = self.unit.linked.global_slot(operand.name, self.module)
            return f"ctx.globals[{slot}]"
        if isinstance(operand, TupleOp):
            inner = ", ".join(self.expr(e) for e in operand.elements)
            if len(operand.elements) == 1:
                inner += ","
            return f"({inner})"
        if isinstance(operand, FieldRef):
            return repr(operand.name)
        if isinstance(operand, TypeRef):
            return self.unit.bind(operand.type)
        if isinstance(operand, FuncRef):
            return repr(operand.name)
        raise LinkError(f"cannot compile operand {operand!r}")

    def reads_global(self, operand: Operand) -> bool:
        if isinstance(operand, TupleOp):
            return any(self.reads_global(e) for e in operand.elements)
        return isinstance(operand, Var) and operand.name not in self.slots

    def call_args(self, instruction: Instruction) -> List[str]:
        """Argument expressions of a ``call``/``hook.run``."""
        if len(instruction.operands) < 2:
            return []
        args = instruction.operands[1]
        if isinstance(args, TupleOp):
            return [self.expr(e) for e in args.elements]
        return [self.expr(args)]

    def assign(self, instruction: Instruction, text: str) -> None:
        if instruction.target is not None:
            text = f"{self.expr(instruction.target)} = {text}"
        for part in text.split("\n"):  # a site may emit several lines
            self.line(part)

    # -- regions and transfers --------------------------------------------------

    def charge(self) -> None:
        """End the current region: charge what it started."""
        if self.pending:
            count, self.pending = self.pending, 0
            self.line(f"ctx.instr_count += {count}; "
                      f"ctx.segments_dispatched += 1; "
                      f"ctx.instr_budget is None or _watchdog(ctx)")

    def transfer(self, label: Optional[str]) -> Optional[str]:
        """Continue at *label*: returns it when its block nests right
        here (the caller emits it), else emits the way to its rung."""
        if label is None:  # fell off the function's end
            self.charge()
            self.line("return None")
        elif label in self.rungs:
            self.charge()
            rung = self.rungs[label]
            # A forward transfer falls down the ladder to its rung.
            self.line(f"pc = {rung}" + ("; continue" * (rung <= self.rung)))
        else:
            return label
        return None

    def arm(self, label: str) -> None:
        """One arm of a branch; the region forks with it."""
        pending, comment = self.pending, self.comment
        self.depth += 1
        self.block(self.transfer(label))
        self.depth -= 1
        self.pending, self.comment = pending, comment

    def block(self, label: Optional[str]) -> None:
        """Emit a block, then every block that nests straight after it."""
        while label is not None:
            body = self.body[label]
            following = self.next_label[label]
            label = None
            for instruction in body:
                self.comment = _describe(instruction)
                self.pending += 1  # counted before it executes
                emit = _ENGINE.get(instruction.mnemonic)
                if instruction.mnemonic == "jump":
                    label = self.transfer(instruction.operands[0].label)
                elif emit is not None:
                    emit(self, instruction)
                else:
                    self.value(instruction)
            if not body or body[-1].mnemonic not in _BLOCK_ENDS:
                # The implicit control transfer counts as one instruction.
                self.comment = "(falls through)"
                self.pending += 1
                label = self.transfer(following)

    # -- value instructions -------------------------------------------------------

    def value(self, instruction: Instruction) -> None:
        mnemonic = instruction.mnemonic
        definition = REGISTRY[mnemonic]
        if definition.fn is None:
            raise LinkError(f"unhandled engine instruction {mnemonic}")
        if mnemonic in _READS_COUNTER:
            self.charge()
        args = [self.expr(op) for op in instruction.operands]
        text = None
        level, site = _SITES.get(mnemonic, (0, None))
        if site is not None and self.unit.opt_level >= level:
            text = site(self, instruction, args)
        if text is None and definition.inline is not None and \
                self.unit.opt_level >= definition.inline_level and \
                len(args) == len(definition.operands):
            text = definition.inline.format(*args)
        if text is None:
            name = self.unit.bind(definition.fn, "i")
            text = f"{name}({', '.join(['ctx'] + args)})"
        self.assign(instruction, text)

    # -- engine instructions ----------------------------------------------------

    def op_if_else(self, instruction: Instruction) -> None:
        cond, then_label, else_label = instruction.operands
        self.line(f"if {self.expr(cond)}:")
        self.arm(then_label.label)
        self.line("else:")
        self.arm(else_label.label)

    def op_switch(self, instruction: Instruction) -> None:
        value = self.expr(instruction.operands[0])
        keyword = "if"
        for case in instruction.operands[2:]:
            if not isinstance(case, TupleOp) or len(case.elements) != 2 \
                    or not isinstance(case.elements[0], Const) \
                    or not isinstance(case.elements[1], LabelRef):
                raise LinkError("switch cases must be (constant, label)")
            const, label = case.elements
            # First matching case wins, compared as the interpreter does.
            self.line(f"{keyword} {self.expr(const)} == {value}:")
            self.arm(label.label)
            keyword = "elif"
        default = instruction.operands[1].label
        if keyword == "if":
            self.block(self.transfer(default))
        else:
            self.line("else:")
            self.arm(default)

    def op_return(self, instruction: Instruction) -> None:
        self.charge()
        value = self.expr(instruction.operands[0]) \
            if instruction.operands else "None"
        self.line(f"return {value}")

    def op_yield(self, instruction: Instruction) -> None:
        self.charge()
        self.line("yield")

    def op_throw(self, instruction: Instruction) -> None:
        self.charge()
        self.line(f"raise _throwable({self.expr(instruction.operands[0])})")

    def op_hook_stop(self, instruction: Instruction) -> None:
        self.charge()
        value = self.expr(instruction.operands[0]) \
            if instruction.operands else "None"
        self.line(f"raise _HookStop({value})")

    def invoke(self, function: Function, args: List[str],
               count: int) -> str:
        """Call expression for a HILTI function taking *count* *args*;
        charges first if the callee may suspend (a fiber parked inside
        it may never resume)."""
        if count != len(function.params):
            return f"_arity({function.name!r}, {len(function.params)}, {count})"
        call = f"{self.unit.pyname[id(function)]}({', '.join(['ctx'] + args)})"
        if self.unit.suspends[id(function)]:
            self.charge()
            return f"(yield from {call})"
        return call

    def op_call(self, instruction: Instruction) -> None:
        kind, target = self.unit.linked.resolve_function(
            instruction.operands[0].name, self.module)
        args = self.call_args(instruction)
        if kind == "native":  # synchronous by construction
            text = f"{self.unit.bind(target, 'n')}({', '.join(['ctx'] + args)})"
        else:
            text = self.invoke(target, args, len(args))
        self.assign(instruction, text)

    def op_hook_run(self, instruction: Instruction) -> None:
        name = _hook_name(instruction.operands[0])
        bodies = self.unit.linked.hooks.get(name, ())
        args = self.call_args(instruction)
        result = self.expr(instruction.target) \
            if instruction.target is not None else None
        if any(self.unit.suspends[id(body)] for body in bodies):
            self.charge()
        count = len(args)
        if len(bodies) > 1 and \
                any(map(self.reads_global, instruction.operands[1:])):
            # Evaluate once: a body may change what the next would read.
            self.line(f"_a = ({', '.join(args)},)")
            args = ["*_a"]
        if not bodies:
            self.line(f"{result} = None" if result else "pass")
            return
        # The body list unrolled; hook.stop in any body skips the rest.
        self.line("try:")
        self.depth += 1
        for body in bodies:
            call = self.invoke(body, args, count)
            if body.hook_group is not None:
                call = (f"{body.hook_group!r} in ctx.hook_groups_disabled "
                        f"or {call}")
            self.line(call)
        if result:
            self.line(f"{result} = None")
        self.depth -= 1
        self.line("except _HookStop as _stop:")
        self.line(f"    {result} = _stop.value" if result else "    pass")

    def op_try_begin(self, instruction: Instruction) -> None:
        operands = instruction.operands
        rung = self.rungs[operands[0].label]
        if len(operands) > 2 and isinstance(operands[2], Var):
            rung = len(self.rungs) + len(self.landings)
            self.landings.append((operands[2], operands[0].label))
        catch_type = self.unit.bind(operands[1].type) \
            if len(operands) > 1 else None
        self.line(f"_h.append(({rung}, {catch_type}))")

    def op_try_end(self, instruction: Instruction) -> None:
        self.line("if _h: _h.pop()")

    def op_callable_bind(self, instruction: Instruction) -> None:
        args = self.expr(instruction.operands[1]) \
            if len(instruction.operands) > 1 else "()"
        name = self.resolved_name(instruction.operands[0].name)
        self.assign(instruction, f"_Callable({name!r}, {args})")

    def op_callable_call(self, instruction: Instruction) -> None:
        self.charge()
        bound = self.expr(instruction.operands[0])
        self.assign(instruction,
                    f"(yield from _run_callable(_P, ctx, {bound}))")

    def op_thread_schedule(self, instruction: Instruction) -> None:
        function, args, vid = instruction.operands
        self.line(f"_schedule(ctx, {self.expr(vid)}, "
                  f"{self.resolved_name(function.name)!r}, {self.expr(args)})")

    def op_timers(self, instruction: Instruction) -> None:
        self.charge()
        operands = [self.expr(op) for op in instruction.operands]
        if instruction.mnemonic == "timer_mgr.expire_all":
            due = f"{operands[0] if operands else 'ctx.timer_mgr'}.expire_all()"
        elif instruction.mnemonic == "timer_mgr.advance":
            due = f"{operands[0]}.advance({operands[1]})"
        else:
            due = f"ctx.timer_mgr.advance({operands[0]})"
        self.line(f"yield from _fire(_P, ctx, {due})")

    def op_watchpoint_check(self, instruction: Instruction) -> None:
        self.charge()
        self.line("yield from _check_watchpoints(_P, ctx)")

    def resolved_name(self, name: str) -> str:
        """A function reference as its link-time qualified name."""
        kind, target = self.unit.linked.resolve_function(name, self.module)
        return target.name if kind == "hilti" else name  # native: by name


_ENGINE = {
    "if.else": _Emitter.op_if_else,
    "switch": _Emitter.op_switch,
    "return.void": _Emitter.op_return,
    "return.result": _Emitter.op_return,
    "call": _Emitter.op_call,
    "yield": _Emitter.op_yield,
    "try.begin": _Emitter.op_try_begin,
    "try.end": _Emitter.op_try_end,
    "hook.run": _Emitter.op_hook_run,
    "hook.stop": _Emitter.op_hook_stop,
    "exception.throw": _Emitter.op_throw,
    "callable.bind": _Emitter.op_callable_bind,
    "callable.call": _Emitter.op_callable_call,
    "thread.schedule": _Emitter.op_thread_schedule,
    "timer_mgr.advance": _Emitter.op_timers,
    "timer_mgr.advance_global": _Emitter.op_timers,
    "timer_mgr.expire_all": _Emitter.op_timers,
    "watchpoint.check": _Emitter.op_watchpoint_check,
}


def _ir_can_suspend(unit: _Unit) -> Dict[int, bool]:
    """Whole-program fixpoint over the IR: id(function) -> may suspend.

    A function suspends if it contains a suspension point or calls (or
    runs a hook with a body) that does; natives are synchronous.
    Functions that cannot suspend are plain ``def``\\s on the Python call
    stack — the analogue of the real compiler giving non-yielding
    functions ordinary frames while fiber-capable code carries the
    context-switching machinery.
    """
    functions = unit.all_functions()
    suspend: Dict[int, bool] = {}
    callees: Dict[int, List[Function]] = {}
    for function in functions:
        direct = False
        called: List[Function] = []
        for block in function.blocks:
            for instruction in block.instructions:
                mnemonic = instruction.mnemonic
                if mnemonic in _IR_SUSPENDING:
                    direct = True
                elif mnemonic == "call":
                    kind, target = unit.linked.resolve_function(
                        instruction.operands[0].name,
                        unit.module_of.get(id(function)))
                    if kind == "hilti":
                        called.append(target)
                elif mnemonic == "hook.run":
                    called.extend(unit.linked.hooks.get(
                        _hook_name(instruction.operands[0]), ()))
        suspend[id(function)] = direct
        callees[id(function)] = called
    changed = True
    while changed:
        changed = False
        for function in functions:
            key = id(function)
            if not suspend[key] and \
                    any(suspend[id(callee)] for callee in callees[key]):
                suspend[key] = changed = True
    return suspend


def compile_program(linked: LinkedProgram,
                    opt_level: int = 1) -> CompiledProgram:
    """Lower every function of *linked* into a CompiledProgram.

    The emitter is the same at every level; ``opt_level >= 1`` turns on
    the compile-time specialisations (:data:`_SITES`) and the registry's
    ``-O1`` inline templates, ``-O0`` calls the generic registry
    functions on whatever IR it is handed.
    """
    program = CompiledProgram(linked)
    program.opt_level = opt_level
    unit = _Unit(program, opt_level)
    for name, function in linked.functions.items():
        program.functions[name] = _Emitter(unit, function).compile()
    for hook_name, bodies in linked.hooks.items():
        program.hooks[hook_name] = [
            _Emitter(unit, body).compile() for body in bodies
        ]
    for index, var in enumerate(linked.global_layout):
        program._global_inits.append((index, var.init, var.type))
    return program
