"""Code generation: HILTI IR to specialized closures ("native" tier).

This is the reproduction's stand-in for the paper's LLVM backend.  Each
function lowers once into *segments* of pre-specialized step closures: all
operand addressing (frame slot indices, thread-local global slots,
constants) and instruction dispatch is resolved at compile time, so
executing a step is a direct closure call — no per-step IR walking, no
dict lookups.  Control transfers (branches, calls, yields, hook and timer
dispatch, exception scopes) compile into small control tuples executed by
the engine loop.

The engine runs compiled functions as Python generators so that any point
of the HILTI call stack can *suspend*: ``yield`` instructions pop out to
the host through ``repro.runtime.fibers.Fiber``, which is how incremental
protocol parsers freeze and resume (paper, sections 3.2 and 5).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..runtime import overlay as rt_overlay
from ..runtime.bytes_buffer import Bytes
from ..runtime.context import ExecutionContext
from ..runtime.exceptions import (
    HiltiError,
    INDEX_ERROR as _INDEX_ERROR,
    INTERNAL_ERROR,
    PROCESSING_TIMEOUT,
    VALUE_ERROR,
)
from ..runtime.fibers import Fiber, FiberStats
from ..runtime.structs import Callable as HiltiCallable
from . import types as ht
from .instructions import REGISTRY, default_value, instantiate
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
    """One lowered function: frame layout plus executable segments."""

    __slots__ = (
        "name",
        "result_type",
        "param_count",
        "n_slots",
        "segments",
        "local_inits",
        "can_suspend",
        "hook_group",
        "_frame_template",
    )

    def __init__(self, name: str, result_type: ht.Type, param_count: int,
                 n_slots: int):
        self.name = name
        self.result_type = result_type
        self.param_count = param_count
        self.n_slots = n_slots
        # segments: list of (steps tuple, control tuple)
        self.segments: List[Tuple[Tuple, Tuple]] = []
        # (slot, thunk) pairs evaluated at frame creation.
        self.local_inits: List[Tuple[int, Callable]] = []
        # Whether execution can reach a suspension point (yield, timers,
        # callables, or a call chain containing one).  Computed by the
        # whole-program pass in compile_program; conservative default.
        self.can_suspend = True
        # For hook bodies: the group this body belongs to (bodies of a
        # disabled group are skipped at dispatch).
        self.hook_group = None
        self._frame_template = None

    def make_frame(self, args: Sequence) -> list:
        if len(args) != self.param_count:
            raise HiltiError(
                VALUE_ERROR,
                f"{self.name} expects {self.param_count} arguments, got "
                f"{len(args)}",
            )
        template = self._frame_template
        if template is None:
            # Built once: init values are immutable (ints, strings,
            # domain values) so sharing them across frames is safe.
            template = [None] * self.n_slots
            for slot, thunk in self.local_inits:
                template[slot] = thunk()
            self._frame_template = template
        frame = template[:]
        frame[: self.param_count] = args
        return frame

    def __repr__(self) -> str:
        return f"<compiled {self.name} segments={len(self.segments)}>"


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
        # optimize.OPT_LEVELS; -O2 differs from -O1 only in the IR the
        # toolchain hands this lowering — the codegen specializations
        # below apply identically at every level >= 1).
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
        if not cf.can_suspend:
            return _run_simple(self, ctx, cf, list(args))
        gen = _execute(self, ctx, cf, list(args))
        while True:
            try:
                next(gen)
            except StopIteration as stop:
                return stop.value

    def call_fiber(self, ctx: ExecutionContext, name: str,
                   args: Sequence = ()) -> Fiber:
        """Start a function inside a fiber; resume() drives it."""
        cf = self.function(name)
        if not cf.can_suspend:
            # Non-suspending functions still get a fiber interface.
            def _wrap():
                return _run_simple(self, ctx, cf, list(args))
                yield  # pragma: no cover - makes this a generator

            return Fiber(_wrap(), stats=self.fiber_stats)
        gen = _execute(self, ctx, cf, list(args))
        return Fiber(gen, stats=self.fiber_stats)

    def run_hook(self, ctx: ExecutionContext, hook_name: str,
                 args: Sequence = ()):
        """Run all bodies of a hook to completion (host-driven events)."""
        bodies = self.hooks.get(hook_name, ())
        result = None
        for body in bodies:
            if body.hook_group is not None and \
                    body.hook_group in ctx.hook_groups_disabled:
                continue
            try:
                if not body.can_suspend:
                    _run_simple(self, ctx, body, list(args))
                    continue
                gen = _execute(self, ctx, body, list(args))
                while True:
                    try:
                        next(gen)
                    except StopIteration:
                        break
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
        gen = _run_callable(self, ctx, bound)
        while True:
            try:
                next(gen)
            except StopIteration as stop:
                return stop.value

    def check_watchpoints(self, ctx: ExecutionContext) -> int:
        """Evaluate pending watchpoints; returns how many fired."""
        fired = 0
        for entry in ctx.watchpoints:
            if entry[2]:
                continue
            if self.run_callable(ctx, entry[0]):
                entry[2] = True
                fired += 1
                self.run_callable(ctx, entry[1])
        ctx.watchpoints[:] = [e for e in ctx.watchpoints if not e[2]]
        return fired

    def __repr__(self) -> str:
        return f"<CompiledProgram {len(self.functions)} functions>"


# --------------------------------------------------------------------------
# Lowering
# --------------------------------------------------------------------------

_TERMINATORS = {"jump", "if.else", "switch", "return.void", "return.result"}

# Engine instructions that end a segment (beyond the block terminators).
# thread.schedule, callable.bind, and exception.throw stay plain steps
# (compile_special_step), but they route through this set so the lowering
# looks at them before the batch compiler does.
_SEGMENT_BREAKERS = {
    "call",
    "yield",
    "try.begin",
    "try.end",
    "hook.run",
    "hook.stop",
    "callable.call",
    "callable.bind",
    "thread.schedule",
    "timer_mgr.advance",
    "timer_mgr.advance_global",
    "timer_mgr.expire_all",
    "watchpoint.check",
    "exception.throw",
}


# Struct ops that compile to direct slot access (_struct_site).
_STRUCT_SLOT_OPS = {"struct.get", "struct.set", "struct.is_set",
                    "struct.get_default", "struct.unset"}


class _FunctionLowering:
    def __init__(self, program: CompiledProgram, module: Module,
                 function: Function, opt_level: int = 0,
                 ir_suspends: Optional[Dict[str, bool]] = None):
        self.program = program
        self.module = module
        self.function = function
        # At -O1, calls to provably non-suspending callees compile into
        # the straight-line batches instead of splitting the segment.
        self.opt_level = opt_level
        self.ir_suspends = ir_suspends
        self.slots: Dict[str, int] = {}
        for param in function.params:
            self.slots[param.name] = len(self.slots)
        for local in function.locals:
            self.slots[local.name] = len(self.slots)
        self.cf = CompiledFunction(
            function.name,
            function.result,
            len(function.params),
            len(self.slots),
        )
        self.cf.hook_group = getattr(function, "hook_group", None)
        for local in function.locals:
            slot = self.slots[local.name]
            if local.init is not None:
                value = local.init.value if isinstance(local.init, Const) \
                    else local.init
                self.cf.local_inits.append((slot, (lambda v=value: v)))
            else:
                default = default_value(local.type)
                if default is not None:
                    self.cf.local_inits.append(
                        (slot, (lambda v=default: v))
                    )
        # label -> segment index of the block's first segment.
        self.block_entry: Dict[str, int] = {}
        # Deferred patches: (segment list index, tuple position, label).
        self._label_patches: List[Tuple[int, int, str]] = []
        self._pending: List[List] = []  # mutable control tuples pre-patch

    # -- operand compilation ------------------------------------------------

    def compile_read(self, operand: Operand) -> Callable:
        """Accessor closure (ctx, frame) -> value."""
        if isinstance(operand, Const):
            value = operand.value
            if isinstance(operand.type, ht.BytesT) and isinstance(value, bytes):
                shared = Bytes(value)
                shared.freeze()
                return lambda ctx, frame, v=shared: v
            return lambda ctx, frame, v=value: v
        if isinstance(operand, Var):
            name = operand.name
            if name in self.slots:
                slot = self.slots[name]
                return lambda ctx, frame, s=slot: frame[s]
            slot = self.program.linked.global_slot(name, self.module)
            return lambda ctx, frame, s=slot: ctx.globals[s]
        if isinstance(operand, TupleOp):
            accessors = tuple(self.compile_read(e) for e in operand.elements)
            return lambda ctx, frame, accs=accessors: tuple(
                a(ctx, frame) for a in accs
            )
        if isinstance(operand, FieldRef):
            name = operand.name
            return lambda ctx, frame, v=name: v
        if isinstance(operand, TypeRef):
            ref_type = operand.type
            return lambda ctx, frame, v=ref_type: v
        if isinstance(operand, FuncRef):
            name = operand.name
            return lambda ctx, frame, v=name: v
        raise LinkError(f"cannot compile operand {operand!r}")

    def compile_write(self, target: Var) -> Callable:
        """Store closure (ctx, frame, value)."""
        name = target.name
        if name in self.slots:
            slot = self.slots[name]

            def store_local(ctx, frame, value, s=slot):
                frame[s] = value

            return store_local
        slot = self.program.linked.global_slot(name, self.module)

        def store_global(ctx, frame, value, s=slot):
            ctx.globals[s] = value

        return store_global

    # -- step compilation -------------------------------------------------------
    #
    # Plain (non-engine) instructions compile to *Python source*: each
    # segment's straight-line run becomes one generated function that
    # CPython compiles to bytecode.  This is the reproduction's equivalent
    # of emitting LLVM IR — operand addressing is inlined (frame slots,
    # thread-local indices, constants) and common pure operators lower to
    # native Python operators instead of calls.

    _INLINE_BINOPS = {
        "int.add": "+", "int.sub": "-", "int.mul": "*",
        "int.eq": "==", "int.lt": "<", "int.le": "<=",
        "int.gt": ">", "int.ge": ">=",
        "int.and": "&", "int.or": "|", "int.xor": "^",
        "int.shl": "<<", "int.shr": ">>",
        "double.add": "+", "double.sub": "-", "double.mul": "*",
        "double.eq": "==", "double.lt": "<", "double.gt": ">",
        "string.concat": "+", "string.eq": "==", "string.lt": "<",
        "bool.xor": "!=",
    }

    def _expr_source(self, operand: Operand, env: Dict) -> str:
        """A Python expression for reading *operand*."""
        if isinstance(operand, Const):
            value = operand.value
            if isinstance(operand.type, ht.BytesT) and isinstance(value, bytes):
                shared = Bytes(value)
                shared.freeze()
                value = shared
            if value is None or isinstance(value, (bool, int)):
                return repr(value)
            if isinstance(value, (str, float, bytes)):
                return repr(value)
            name = f"c{len(env)}"
            env[name] = value
            return name
        if isinstance(operand, Var):
            var_name = operand.name
            if var_name in self.slots:
                return f"frame[{self.slots[var_name]}]"
            slot = self.program.linked.global_slot(var_name, self.module)
            return f"ctx.globals[{slot}]"
        if isinstance(operand, TupleOp):
            inner = ", ".join(
                self._expr_source(e, env) for e in operand.elements
            )
            if len(operand.elements) == 1:
                inner += ","
            return f"({inner})"
        if isinstance(operand, FieldRef):
            return repr(operand.name)
        if isinstance(operand, (TypeRef, FuncRef)):
            value = operand.type if isinstance(operand, TypeRef) \
                else operand.name
            name = f"c{len(env)}"
            env[name] = value
            return name
        raise LinkError(f"cannot compile operand {operand!r}")

    def _target_source(self, target: Var) -> str:
        name = target.name
        if name in self.slots:
            return f"frame[{self.slots[name]}]"
        slot = self.program.linked.global_slot(name, self.module)
        return f"ctx.globals[{slot}]"

    def _make_call_thunk(self, callee_name: str) -> Callable:
        """A per-call-site inline cache for a batched HILTI-to-HILTI call.

        The compiled callee is looked up in ``program.functions`` once, on
        the first execution of this site, then reused — no per-call dict
        lookup, no control-tuple dispatch.  The cache also revalidates the
        inlining decision: the IR-level suspension analysis proved the
        callee non-suspending, and if the segment-level fixpoint ever
        disagreed we fail loudly instead of silently dropping a yield.
        """
        program = self.program
        cache: List[CompiledFunction] = []

        def call_site(ctx, *args, _program=program, _name=callee_name,
                      _cache=cache, _run=_run_simple):
            if not _cache:
                cf = _program.functions[_name]
                if cf.can_suspend:
                    raise HiltiError(
                        INTERNAL_ERROR,
                        f"batched call to suspending function {_name}",
                    )
                _cache.append(cf)
            return _run(_program, ctx, _cache[0], list(args))

        return call_site

    def _make_hook_thunk(self, hook_name: str) -> Callable:
        """Per-call-site inline cache for batched hook dispatch."""
        program = self.program
        cache: List[Tuple[CompiledFunction, ...]] = []

        def hook_site(ctx, *args, _program=program, _name=hook_name,
                      _cache=cache, _run=_run_simple):
            if not _cache:
                bodies = tuple(_program.hooks.get(_name, ()))
                for body in bodies:
                    if body.can_suspend:
                        raise HiltiError(
                            INTERNAL_ERROR,
                            f"batched dispatch to suspending hook body "
                            f"{body.name}",
                        )
                _cache.append(bodies)
            result = None
            for body in _cache[0]:
                if body.hook_group is not None and \
                        body.hook_group in ctx.hook_groups_disabled:
                    continue
                try:
                    _run(_program, ctx, body, list(args))
                except _HookStop as stop:
                    result = stop.value
                    break
            return result

        return hook_site

    def _specialized_memread(self, instruction: Instruction, position: int,
                             env: Dict, args: List[str]) -> Optional[str]:
        """-O1: resolve a constant-layout memory read at compile time.

        ``overlay.get`` with a constant overlay type and field, and
        ``unpack`` with a constant format, spend most of their time
        re-resolving the field spec (offset, format alias, struct code,
        bit range) on every execution; here that resolution happens once
        and the site compiles to a precompiled extraction closure.
        Returns the batch expression, or None to use the generic path.
        """
        operands = instruction.operands
        if instruction.mnemonic == "overlay.get":
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
            offset = fld.offset

            def get_field(ctx, data, _u=unpacker, _off=offset):
                return _u(data, data.begin_offset + _off)

            fn_name = f"f{position}"
            env[fn_name] = get_field
            return f"{fn_name}(ctx, {args[2]})"
        # unpack <bytes> <offset> <Format> (no bit-range operand)
        if len(operands) != 3 or not isinstance(operands[2], FieldRef):
            return None
        try:
            unpacker = rt_overlay.make_unpacker(
                ht.UnpackFormat(operands[2].name, None)
            )
        except Exception:
            return None

        def unpack_at(ctx, data, offset, _u=unpacker):
            return _u(data, data.begin_offset + offset)

        fn_name = f"f{position}"
        env[fn_name] = unpack_at
        return f"{fn_name}(ctx, {args[0]}, {args[1]})"

    def _struct_site(self, instruction: Instruction, position: int,
                     env: Dict, args: List[str]) -> Optional[str]:
        """-O1: a constant-field struct op as direct slot access.

        Returns the batch *line*, or None for the generic path.  The
        site keeps a monomorphic inline cache in the batch globals:
        ``k<n>`` = (struct type last seen, the field's slot in it), one
        tuple so that a hit reads a consistent pair even while another
        thread re-points it.  A hit touches ``_slots`` only; a null
        operand, another type, or an unset field on a read goes to
        ``m<n>``, which runs the generic REGISTRY function (every error
        is the oracle's own) and re-points the cache.  A declared struct
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
        k, m = f"k{position}", f"m{position}"
        env[k] = (None, 0)  # every struct has a type: a miss
        declared = self.function.variable_type(operands[0].name) \
            if isinstance(operands[0], Var) else None
        if isinstance(declared, ht.RefT):
            declared = declared.target
        if isinstance(declared, ht.StructT) and \
                field in declared.slot_index:
            env[k] = (declared, declared.slot_index[field])

        def miss(ctx, struct, *rest):
            result = generic(ctx, struct, field, *rest)
            struct_type = struct.struct_type
            env[k] = (struct_type, struct_type.slot_index[field])
            return result

        env[m] = miss
        env["UNSET"] = ht.UNSET
        hit = (f"(_s := {args[0]}) is not None "
               f"and _s.struct_type is (_k := {k})[0]")
        slot = "_s._slots[_k[1]]"
        if mnemonic == "struct.get":
            value = (f"_v if {hit} and (_v := {slot}) is not UNSET "
                     f"else {m}(ctx, _s)")
        elif mnemonic == "struct.is_set":
            value = f"({slot} is not UNSET) if {hit} else {m}(ctx, _s)"
        elif mnemonic == "struct.get_default":
            value = (f"({args[2]} if (_v := {slot}) is UNSET else _v) "
                     f"if {hit} else {m}(ctx, _s, {args[2]})")
        elif mnemonic == "struct.set":
            # A miss performs the (generic) set itself and returns None.
            return (f"    if {hit} or {m}(ctx, _s, {args[2]}): "
                    f"{slot} = {args[2]}")
        else:  # struct.unset: back to the type's template value
            return (f"    if {hit} or {m}(ctx, _s): "
                    f"{slot} = _k[0].template[_k[1]]")
        return f"    {self._target_source(instruction.target)} = {value}"

    def _call_inlinable(self, instruction: Instruction) -> bool:
        """Whether a ``call`` can compile into the enclosing batch."""
        if self.opt_level < 1 or self.ir_suspends is None:
            return False
        if len(instruction.operands) > 1 and \
                not isinstance(instruction.operands[1], TupleOp):
            return False
        try:
            kind, target = self.program.linked.resolve_function(
                instruction.operands[0].name, self.module
            )
        except (LinkError, KeyError):
            return False
        if kind == "native":
            return True  # natives are synchronous by construction
        return not self.ir_suspends.get(target.name, True)

    def _hook_inlinable(self, instruction: Instruction) -> bool:
        """Whether a ``hook.run`` can compile into the enclosing batch."""
        if self.opt_level < 1 or self.ir_suspends is None:
            return False
        if len(instruction.operands) > 1 and \
                not isinstance(instruction.operands[1], TupleOp):
            return False
        operand = instruction.operands[0]
        name = operand.name if isinstance(operand, (FieldRef, FuncRef)) \
            else str(operand)
        bodies = self.program.linked.hooks.get(name, ())
        return all(
            not self.ir_suspends.get(body.name, True) for body in bodies
        )

    def _compile_batch(self, batch: List[Instruction]) -> Callable:
        """Compile a straight-line instruction run into one function."""
        env: Dict = {}
        lines: List[str] = []
        for position, instruction in enumerate(batch):
            mnemonic = instruction.mnemonic
            if mnemonic in ("call", "hook.run"):
                fn_name = f"f{position}"
                if mnemonic == "call":
                    kind, target = self.program.linked.resolve_function(
                        instruction.operands[0].name, self.module
                    )
                    env[fn_name] = target if kind == "native" \
                        else self._make_call_thunk(target.name)
                else:
                    operand = instruction.operands[0]
                    hook_name = operand.name \
                        if isinstance(operand, (FieldRef, FuncRef)) \
                        else str(operand)
                    env[fn_name] = self._make_hook_thunk(hook_name)
                arg_ops = (
                    instruction.operands[1].elements
                    if len(instruction.operands) > 1
                    else ()
                )
                joined = ", ".join(
                    self._expr_source(e, env) for e in arg_ops
                )
                expression = (
                    f"{fn_name}(ctx, {joined})" if joined
                    else f"{fn_name}(ctx)"
                )
                if instruction.target is not None:
                    lines.append(
                        f"    {self._target_source(instruction.target)} = "
                        f"{expression}"
                    )
                else:
                    lines.append(f"    {expression}")
                continue
            args = [self._expr_source(op, env) for op in instruction.operands]
            if self.opt_level >= 1 and mnemonic in _STRUCT_SLOT_OPS:
                line = self._struct_site(instruction, position, env, args)
                if line is not None:
                    lines.append(line)
                    continue
            expression = None
            if mnemonic == "assign":
                expression = args[0]
            elif (
                mnemonic == "tuple.index"
                and len(instruction.operands) == 2
                and isinstance(instruction.operands[1], Const)
            ):
                # Constant tuple indexing compiles to a plain subscript;
                # the engine converts a stray IndexError into
                # Hilti::IndexError, preserving the contained semantics.
                expression = f"{args[0]}[{instruction.operands[1].value}]"
            elif mnemonic in self._INLINE_BINOPS and len(args) == 2:
                expression = f"({args[0]} {self._INLINE_BINOPS[mnemonic]} {args[1]})"
            elif mnemonic == "int.incr":
                expression = f"({args[0]} + 1)"
            elif mnemonic == "int.decr":
                expression = f"({args[0]} - 1)"
            elif mnemonic in ("not", "bool.not"):
                expression = f"(not {args[0]})"
            elif mnemonic == "bool.and":
                expression = f"({args[0]} and {args[1]})"
            elif mnemonic == "bool.or":
                expression = f"({args[0]} or {args[1]})"
            elif self.opt_level >= 1 and \
                    mnemonic in ("overlay.get", "unpack"):
                expression = self._specialized_memread(
                    instruction, position, env, args
                )
            if expression is None:
                definition = REGISTRY[mnemonic]
                if definition.fn is None:
                    raise LinkError(
                        f"engine instruction {mnemonic} in step position"
                    )
                fn_name = f"f{position}"
                env[fn_name] = definition.fn
                joined = ", ".join(args)
                expression = (
                    f"{fn_name}(ctx, {joined})" if joined
                    else f"{fn_name}(ctx)"
                )
            if instruction.target is not None:
                lines.append(
                    f"    {self._target_source(instruction.target)} = "
                    f"{expression}"
                )
            else:
                lines.append(f"    {expression}")
        source = "def _batch(ctx, frame):\n" + "\n".join(lines) + "\n"
        code = compile(source, f"<hilti:{self.function.name}>", "exec")
        exec(code, env)
        fn = env["_batch"]
        fn.hilti_instructions = len(batch)
        return fn

    def compile_step(self, instruction: Instruction) -> Callable:
        definition = REGISTRY[instruction.mnemonic]
        fn = definition.fn
        if fn is None:
            raise LinkError(
                f"engine instruction {instruction.mnemonic} in step position"
            )
        accessors = [self.compile_read(op) for op in instruction.operands]
        store = (
            self.compile_write(instruction.target)
            if instruction.target is not None
            else None
        )
        count = len(accessors)
        if store is None:
            if count == 0:
                return lambda ctx, frame: fn(ctx)
            if count == 1:
                a0 = accessors[0]
                return lambda ctx, frame: fn(ctx, a0(ctx, frame))
            if count == 2:
                a0, a1 = accessors
                return lambda ctx, frame: fn(
                    ctx, a0(ctx, frame), a1(ctx, frame)
                )
            if count == 3:
                a0, a1, a2 = accessors
                return lambda ctx, frame: fn(
                    ctx, a0(ctx, frame), a1(ctx, frame), a2(ctx, frame)
                )
            accs = tuple(accessors)
            return lambda ctx, frame: fn(
                ctx, *[a(ctx, frame) for a in accs]
            )
        if count == 0:
            return lambda ctx, frame: store(ctx, frame, fn(ctx))
        if count == 1:
            a0 = accessors[0]
            return lambda ctx, frame: store(ctx, frame, fn(ctx, a0(ctx, frame)))
        if count == 2:
            a0, a1 = accessors
            return lambda ctx, frame: store(
                ctx, frame, fn(ctx, a0(ctx, frame), a1(ctx, frame))
            )
        if count == 3:
            a0, a1, a2 = accessors
            return lambda ctx, frame: store(
                ctx, frame,
                fn(ctx, a0(ctx, frame), a1(ctx, frame), a2(ctx, frame)),
            )
        accs = tuple(accessors)
        return lambda ctx, frame: store(
            ctx, frame, fn(ctx, *[a(ctx, frame) for a in accs])
        )

    # -- special steps ----------------------------------------------------------

    def compile_special_step(self, instruction: Instruction) -> Optional[Callable]:
        """Engine mnemonics that still lower to plain steps."""
        mnemonic = instruction.mnemonic
        if mnemonic == "thread.schedule":
            func_name = instruction.operands[0].name
            args_acc = self.compile_read(instruction.operands[1])
            vid_acc = self.compile_read(instruction.operands[2])
            resolved = self._resolve_callee(func_name)

            def schedule(ctx, frame):
                if ctx.scheduler is None:
                    raise HiltiError(
                        INTERNAL_ERROR, "thread.schedule without a scheduler"
                    )
                ctx.scheduler.schedule(
                    vid_acc(ctx, frame), resolved, args_acc(ctx, frame)
                )

            return schedule
        if mnemonic == "callable.bind":
            func_name = instruction.operands[0].name
            args_acc = (
                self.compile_read(instruction.operands[1])
                if len(instruction.operands) > 1
                else None
            )
            store = self.compile_write(instruction.target)
            resolved = self._resolve_callee(func_name)

            def bind(ctx, frame):
                args = args_acc(ctx, frame) if args_acc is not None else ()
                store(ctx, frame, HiltiCallable(resolved, args))

            return bind
        if mnemonic == "exception.throw":
            acc = self.compile_read(instruction.operands[0])

            def throw(ctx, frame):
                error = acc(ctx, frame)
                if not isinstance(error, HiltiError):
                    error = HiltiError(VALUE_ERROR, str(error))
                raise error

            return throw
        return None

    def _resolve_callee(self, name: str) -> str:
        """Resolve a function reference to its qualified name at link time."""
        kind, target = self.program.linked.resolve_function(name, self.module)
        if kind == "hilti":
            return target.name
        return name  # native, resolved at execution

    # -- block lowering ----------------------------------------------------------

    def lower(self) -> CompiledFunction:
        for block in self.function.blocks:
            self.block_entry[block.label] = None  # filled when emitted
        for index, block in enumerate(self.function.blocks):
            fallthrough = (
                self.function.blocks[index + 1].label
                if index + 1 < len(self.function.blocks)
                else None
            )
            self._lower_block(block, fallthrough)
        # Patch label references now that all segment indices are known.
        for control in self._pending:
            for position, item in enumerate(control):
                if isinstance(item, _LabelPlaceholder):
                    target = self.block_entry.get(item.label)
                    if target is None:
                        raise LinkError(
                            f"branch to unknown block {item.label!r} in "
                            f"{self.function.name}"
                        )
                    control[position] = target
                elif isinstance(item, dict):
                    for key, value in list(item.items()):
                        if isinstance(value, _LabelPlaceholder):
                            item[key] = self.block_entry[value.label]
        self.cf.segments = [
            (steps, tuple(control), count)
            for steps, control, count in self._raw_segments
        ]
        return self.cf

    @property
    def _raw_segments(self):
        return self.__dict__.setdefault("_segments_storage", [])

    def _emit_segment(self, steps: List[Callable], control: List) -> int:
        index = len(self._raw_segments)
        count = sum(
            getattr(step, "hilti_instructions", 1) for step in steps
        ) + 1  # +1 for the control transfer itself
        self._raw_segments.append((tuple(steps), control, count))
        self._pending.append(control)
        return index

    def _label(self, label: str) -> "_LabelPlaceholder":
        return _LabelPlaceholder(label)

    def _lower_block(self, block, fallthrough: Optional[str]) -> None:
        steps: List[Callable] = []
        batch: List[Instruction] = []
        first_segment_of_block = True

        def flush_batch() -> None:
            nonlocal batch
            if batch:
                steps.append(self._compile_batch(batch))
                batch = []

        def close_segment(control: List) -> None:
            nonlocal steps, first_segment_of_block
            flush_batch()
            index = self._emit_segment(steps, control)
            if first_segment_of_block:
                self.block_entry[block.label] = index
                first_segment_of_block = False
            steps = []

        instructions = block.instructions
        position = 0
        while position < len(instructions):
            instruction = instructions[position]
            mnemonic = instruction.mnemonic
            if mnemonic in _TERMINATORS:
                close_segment(self._lower_terminator(instruction))
                position += 1
                # Anything after a terminator in the same block is dead.
                break
            if mnemonic in _SEGMENT_BREAKERS:
                if mnemonic == "call" and self._call_inlinable(instruction):
                    batch.append(instruction)
                    position += 1
                    continue
                if mnemonic == "hook.run" and \
                        self._hook_inlinable(instruction):
                    batch.append(instruction)
                    position += 1
                    continue
                special = self.compile_special_step(instruction)
                if special is not None:
                    flush_batch()
                    steps.append(special)
                    position += 1
                    continue
                control = self._lower_breaker(instruction)
                close_segment(control)
                position += 1
                continue
            batch.append(instruction)
            position += 1
        else:
            # Block ended without terminator: fall through.
            if fallthrough is not None:
                close_segment(["goto", self._label(fallthrough)])
            elif self.function.result == ht.VOID:
                close_segment(["ret"])
            else:
                close_segment(["ret"])

    def _lower_terminator(self, instruction: Instruction) -> List:
        mnemonic = instruction.mnemonic
        if mnemonic == "jump":
            return ["goto", self._label(instruction.operands[0].label)]
        if mnemonic == "if.else":
            cond = self.compile_read(instruction.operands[0])
            return [
                "branch",
                cond,
                self._label(instruction.operands[1].label),
                self._label(instruction.operands[2].label),
            ]
        if mnemonic == "switch":
            value_acc = self.compile_read(instruction.operands[0])
            default = self._label(instruction.operands[1].label)
            cases = {}
            for case in instruction.operands[2:]:
                if not isinstance(case, TupleOp) or len(case.elements) != 2:
                    raise LinkError("switch cases must be (constant, label)")
                const, label = case.elements
                if not isinstance(const, Const) or not isinstance(label, LabelRef):
                    raise LinkError("switch cases must be (constant, label)")
                cases[const.value] = self._label(label.label)
            return ["switch", value_acc, cases, default]
        if mnemonic == "return.void":
            return ["ret"]
        if mnemonic == "return.result":
            return ["retv", self.compile_read(instruction.operands[0])]
        raise LinkError(f"unknown terminator {mnemonic}")

    def _lower_breaker(self, instruction: Instruction) -> List:
        """Engine instructions that split the enclosing block."""
        mnemonic = instruction.mnemonic
        next_label = _NEXT_SEGMENT  # resolved to the following segment index
        if mnemonic == "call":
            func_name = instruction.operands[0].name
            args_op = (
                instruction.operands[1]
                if len(instruction.operands) > 1
                else TupleOp(())
            )
            if isinstance(args_op, TupleOp):
                arg_accs = tuple(
                    self.compile_read(e) for e in args_op.elements
                )
            else:
                single = self.compile_read(args_op)
                arg_accs = (single,)
            store = (
                self.compile_write(instruction.target)
                if instruction.target is not None
                else None
            )
            kind, target = self.program.linked.resolve_function(
                func_name, self.module
            )
            if kind == "native":
                return ["ncall", target, arg_accs, store, next_label]
            return ["call", target.name, arg_accs, store, next_label]
        if mnemonic == "yield":
            return ["yield", next_label]
        if mnemonic == "try.begin":
            handler = self._label(instruction.operands[0].label)
            catch_type = (
                instruction.operands[1].type
                if len(instruction.operands) > 1
                else None
            )
            store = (
                self.compile_write(instruction.operands[2])
                if len(instruction.operands) > 2
                and isinstance(instruction.operands[2], Var)
                else None
            )
            return ["try_push", handler, catch_type, store, next_label]
        if mnemonic == "try.end":
            return ["try_pop", next_label]
        if mnemonic == "hook.run":
            hook_name = instruction.operands[0]
            name = (
                hook_name.name
                if isinstance(hook_name, (FieldRef, FuncRef))
                else str(hook_name)
            )
            args_op = (
                instruction.operands[1]
                if len(instruction.operands) > 1
                else TupleOp(())
            )
            arg_accs = tuple(self.compile_read(e) for e in args_op.elements) \
                if isinstance(args_op, TupleOp) else (self.compile_read(args_op),)
            store = (
                self.compile_write(instruction.target)
                if instruction.target is not None
                else None
            )
            return ["hook", name, arg_accs, store, next_label]
        if mnemonic == "hook.stop":
            acc = (
                self.compile_read(instruction.operands[0])
                if instruction.operands
                else None
            )
            return ["hook_stop", acc]
        if mnemonic == "callable.call":
            acc = self.compile_read(instruction.operands[0])
            store = (
                self.compile_write(instruction.target)
                if instruction.target is not None
                else None
            )
            return ["call_callable", acc, store, next_label]
        if mnemonic == "timer_mgr.advance":
            mgr_acc = self.compile_read(instruction.operands[0])
            time_acc = self.compile_read(instruction.operands[1])
            return ["advance", mgr_acc, time_acc, next_label]
        if mnemonic == "timer_mgr.advance_global":
            time_acc = self.compile_read(instruction.operands[0])
            return ["advance", None, time_acc, next_label]
        if mnemonic == "timer_mgr.expire_all":
            mgr_acc = (
                self.compile_read(instruction.operands[0])
                if instruction.operands
                else None
            )
            return ["expire", mgr_acc, next_label]
        if mnemonic == "watchpoint.check":
            return ["wp_check", next_label]
        raise LinkError(f"unhandled engine instruction {mnemonic}")


class _LabelPlaceholder:
    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label


class _NextSegment:
    """Placeholder meaning "the segment emitted right after this one"."""

    __repr__ = lambda self: "<next-segment>"


_NEXT_SEGMENT = _NextSegment()


def compile_program(linked: LinkedProgram,
                    opt_level: int = 1) -> CompiledProgram:
    """Lower every function of *linked* into a CompiledProgram.

    At ``opt_level >= 1``, call/hook dispatch is optimized two ways: sites
    whose targets provably cannot suspend compile straight into the
    batches (with per-site inline caches), and the remaining dispatch
    controls get their targets resolved to compiled objects at link time
    instead of per-execution name lookups.
    """
    program = CompiledProgram(linked)
    program.opt_level = opt_level
    module_of: Dict[str, Module] = {}
    for module in linked.modules:
        for function in module.all_functions():
            module_of[id(function)] = module
    ir_suspends = _ir_can_suspend(linked, module_of) if opt_level >= 1 \
        else None
    for name, function in linked.functions.items():
        lowering = _FunctionLowering(
            program, module_of.get(id(function)), function,
            opt_level=opt_level, ir_suspends=ir_suspends,
        )
        program.functions[name] = _finalize(lowering.lower())
    for hook_name, bodies in linked.hooks.items():
        compiled_bodies = []
        for body in bodies:
            lowering = _FunctionLowering(
                program, module_of.get(id(body)), body,
                opt_level=opt_level, ir_suspends=ir_suspends,
            )
            compiled_bodies.append(_finalize(lowering.lower()))
        program.hooks[hook_name] = compiled_bodies
    for index, var in enumerate(linked.global_layout):
        program._global_inits.append((index, var.init, var.type))
    _compute_suspension(program)
    if opt_level >= 1:
        _resolve_dispatch(program)
    return program


# IR mnemonics that are themselves suspension points; the IR-level
# analysis mirrors _SUSPENDING_CONTROLS but runs *before* lowering so the
# batch compiler can inline provably non-suspending call sites.
_IR_SUSPENDING = {
    "yield",
    "timer_mgr.advance",
    "timer_mgr.advance_global",
    "timer_mgr.expire_all",
    "callable.call",
    "watchpoint.check",
}


def _ir_can_suspend(linked: LinkedProgram,
                    module_of: Dict[int, Module]) -> Dict[str, bool]:
    """Whole-program fixpoint over the *IR*: function name -> may suspend.

    Same lattice as :func:`_compute_suspension`, computed pre-lowering;
    anything unresolvable stays conservatively suspending, so the two
    analyses agree wherever this one says "no".
    """
    entries: List[Function] = list(linked.functions.values())
    for bodies in linked.hooks.values():
        entries.extend(bodies)
    suspend: Dict[str, bool] = {}
    callees: Dict[str, set] = {}
    hook_calls: Dict[str, set] = {}
    for function in entries:
        direct = False
        called: set = set()
        hooks_run: set = set()
        for block in function.blocks:
            for instruction in block.instructions:
                mnemonic = instruction.mnemonic
                if mnemonic in _IR_SUSPENDING:
                    direct = True
                elif mnemonic == "call":
                    try:
                        kind, target = linked.resolve_function(
                            instruction.operands[0].name,
                            module_of.get(id(function)),
                        )
                    except (LinkError, KeyError):
                        direct = True  # unresolvable: stay conservative
                        continue
                    if kind == "hilti":
                        called.add(target.name)
                elif mnemonic == "hook.run":
                    operand = instruction.operands[0]
                    name = operand.name \
                        if isinstance(operand, (FieldRef, FuncRef)) \
                        else str(operand)
                    hooks_run.add(name)
        suspend[function.name] = direct
        callees[function.name] = called
        hook_calls[function.name] = hooks_run
    bodies_of = {
        name: [body.name for body in bodies]
        for name, bodies in linked.hooks.items()
    }
    changed = True
    while changed:
        changed = False
        for function in entries:
            name = function.name
            if suspend[name]:
                continue
            transitively = any(
                suspend.get(callee, True) for callee in callees[name]
            ) or any(
                suspend.get(body, True)
                for hook in hook_calls[name]
                for body in bodies_of.get(hook, ())
            )
            if transitively:
                suspend[name] = True
                changed = True
    return suspend


def _resolve_dispatch(program: CompiledProgram) -> None:
    """Resolve remaining call/hook controls to compiled objects.

    The engine accepts either form (name for -O0, object for -O1); this
    removes the per-execution ``program.functions[name]`` /
    ``program.hooks.get(name)`` lookups from suspending dispatch sites
    that could not be batched.
    """
    everything: List[CompiledFunction] = list(program.functions.values())
    for bodies in program.hooks.values():
        everything.extend(bodies)
    for cf in everything:
        resolved = []
        for steps, control, count in cf.segments:
            if control[0] == "call":
                control = ("call", program.functions[control[1]],
                           control[2], control[3], control[4])
            elif control[0] == "hook":
                control = ("hook", tuple(program.hooks.get(control[1], ())),
                           control[2], control[3], control[4])
            resolved.append((steps, control, count))
        cf.segments = resolved


# Control kinds that are themselves suspension points: yield, and any
# dispatch whose target is unknown until runtime (timer actions, bound
# callables) — those must stay on the generator path.
_SUSPENDING_CONTROLS = {"yield", "advance", "expire", "call_callable", "wp_check"}


def _compute_suspension(program: CompiledProgram) -> None:
    """Whole-program fixpoint: which functions can reach a suspension?

    Functions that cannot suspend execute on a plain call stack
    (``_run_simple``) with no generator setup per call — the analogue of
    the real compiler giving non-yielding functions ordinary frames while
    fiber-capable code carries the context-switching machinery.
    """
    everything: List[CompiledFunction] = list(program.functions.values())
    for bodies in program.hooks.values():
        everything.extend(bodies)

    def direct_suspends(cf: CompiledFunction) -> bool:
        return any(
            control[0] in _SUSPENDING_CONTROLS
            for __, control, __count in cf.segments
        )

    suspend = {cf.name: direct_suspends(cf) for cf in everything}
    by_name = {cf.name: cf for cf in everything}

    changed = True
    while changed:
        changed = False
        for cf in everything:
            if suspend[cf.name]:
                continue
            for __, control, __count in cf.segments:
                kind = control[0]
                if kind == "call":
                    if suspend.get(control[1], control[1] not in by_name):
                        suspend[cf.name] = True
                        changed = True
                        break
                elif kind == "hook":
                    bodies = program.hooks.get(control[1], ())
                    if any(suspend.get(b.name, True) for b in bodies):
                        suspend[cf.name] = True
                        changed = True
                        break
    for cf in everything:
        cf.can_suspend = suspend[cf.name]


def _finalize(cf: CompiledFunction) -> CompiledFunction:
    """Resolve _NEXT_SEGMENT placeholders to concrete indices."""
    resolved = []
    for index, (steps, control, count) in enumerate(cf.segments):
        control = tuple(
            index + 1 if isinstance(item, _NextSegment) else item
            for item in control
        )
        resolved.append((steps, control, count))
    cf.segments = resolved
    return cf


# --------------------------------------------------------------------------
# The engine
# --------------------------------------------------------------------------


def _charge_trap(ctx, steps, executed, exc) -> None:
    """Charge a partially-executed segment after a trap.

    The success path adds the whole segment's count at once; when a step
    raises, that charge never lands, so the tiers' ``instr_count`` parity
    would break on any trapping program.  Completed steps charge their
    full batches; the raising step charges up to and including the
    trapping instruction — each batch instruction compiles to exactly
    one line of the generated ``_batch`` function, so the traceback's
    line number recovers how deep the batch got.  The trapping
    instruction itself counts, matching the interpreter's
    count-then-execute accounting.
    """
    if executed < 0:
        return
    charge = 0
    for step in steps[:executed]:
        charge += getattr(step, "hilti_instructions", 1)
    size = getattr(steps[executed], "hilti_instructions", 1)
    if size <= 1:
        charge += size
    else:
        depth = size
        tb = exc.__traceback__
        while tb is not None:
            if tb.tb_frame.f_code.co_name == "_batch":
                depth = min(size, max(1, tb.tb_lineno - 1))
                break
            tb = tb.tb_next
        charge += depth
    ctx.instr_count += charge


def _execute(program: CompiledProgram, ctx, cf: CompiledFunction, args):
    """Run one compiled function as a generator (engine core loop)."""
    frame = cf.make_frame(args)
    handlers: List[Tuple[int, object, Optional[Callable]]] = []
    segments = cf.segments
    seg = 0
    while True:
        steps, control, instr_count = segments[seg]
        ctx.segments_dispatched += 1
        executed = -1
        charged = False
        try:
            for executed, step in enumerate(steps):
                step(ctx, frame)
            ctx.instr_count += instr_count
            charged = True
            if ctx.instr_budget is not None and \
                    ctx.instr_count > ctx.instr_budget:
                # One-shot: disarm so catch handlers can run.
                ctx.instr_budget = None
                raise HiltiError(
                    PROCESSING_TIMEOUT, "instruction budget exhausted"
                )
            kind = control[0]
            if kind == "goto":
                seg = control[1]
                continue
            if kind == "branch":
                seg = control[2] if control[1](ctx, frame) else control[3]
                continue
            if kind == "switch":
                value = control[1](ctx, frame)
                seg = control[2].get(value, control[3])
                continue
            if kind == "retv":
                return control[1](ctx, frame)
            if kind == "ret":
                return None
            if kind == "call":
                __, callee, arg_accs, store, nxt = control
                if callee.__class__ is str:  # -O0: resolve per execution
                    callee = program.functions[callee]
                if callee.can_suspend:
                    result = yield from _execute(
                        program, ctx, callee,
                        [a(ctx, frame) for a in arg_accs],
                    )
                else:
                    result = _run_simple(
                        program, ctx, callee,
                        [a(ctx, frame) for a in arg_accs],
                    )
                if store is not None:
                    store(ctx, frame, result)
                seg = nxt
                continue
            if kind == "ncall":
                __, native, arg_accs, store, nxt = control
                result = native(ctx, *[a(ctx, frame) for a in arg_accs])
                if store is not None:
                    store(ctx, frame, result)
                seg = nxt
                continue
            if kind == "yield":
                yield None
                seg = control[1]
                continue
            if kind == "try_push":
                __, handler_seg, catch_type, store, nxt = control
                handlers.append((handler_seg, catch_type, store))
                seg = nxt
                continue
            if kind == "try_pop":
                if handlers:
                    handlers.pop()
                seg = control[1]
                continue
            if kind == "hook":
                __, hook_ref, arg_accs, store, nxt = control
                bodies = program.hooks.get(hook_ref, ()) \
                    if hook_ref.__class__ is str else hook_ref
                hook_args = [a(ctx, frame) for a in arg_accs]
                hook_result = None
                for body in bodies:
                    if body.hook_group is not None and \
                            body.hook_group in ctx.hook_groups_disabled:
                        continue
                    try:
                        yield from _execute(program, ctx, body, list(hook_args))
                    except _HookStop as stop:
                        hook_result = stop.value
                        break
                if store is not None:
                    store(ctx, frame, hook_result)
                seg = nxt
                continue
            if kind == "hook_stop":
                value = control[1](ctx, frame) if control[1] is not None else None
                raise _HookStop(value)
            if kind == "call_callable":
                __, acc, store, nxt = control
                bound = acc(ctx, frame)
                result = yield from _run_callable(program, ctx, bound)
                if store is not None:
                    store(ctx, frame, result)
                seg = nxt
                continue
            if kind == "advance":
                __, mgr_acc, time_acc, nxt = control
                mgr = mgr_acc(ctx, frame) if mgr_acc is not None else ctx.timer_mgr
                actions = mgr.advance(time_acc(ctx, frame))
                for action in actions:
                    yield from _run_callable(program, ctx, action)
                while ctx.pending_expirations:
                    action = ctx.pending_expirations.pop(0)
                    yield from _run_callable(program, ctx, action)
                seg = nxt
                continue
            if kind == "expire":
                __, mgr_acc, nxt = control
                mgr = mgr_acc(ctx, frame) if mgr_acc is not None else ctx.timer_mgr
                actions = mgr.expire_all()
                for action in actions:
                    yield from _run_callable(program, ctx, action)
                while ctx.pending_expirations:
                    action = ctx.pending_expirations.pop(0)
                    yield from _run_callable(program, ctx, action)
                seg = nxt
                continue
            if kind == "wp_check":
                for entry in ctx.watchpoints:
                    if entry[2]:
                        continue
                    due = yield from _run_callable(program, ctx, entry[0])
                    if due:
                        entry[2] = True
                        yield from _run_callable(program, ctx, entry[1])
                ctx.watchpoints[:] = [
                    e for e in ctx.watchpoints if not e[2]
                ]
                seg = control[1]
                continue
            raise HiltiError(INTERNAL_ERROR, f"bad control {kind!r}")
        except HiltiError as error:
            if not charged:
                _charge_trap(ctx, steps, executed, error)
            seg = _dispatch_exception(handlers, error, ctx, frame)
            if seg is None:
                raise
        except IndexError as exc:
            if not charged:
                _charge_trap(ctx, steps, executed, exc)
            error = HiltiError(_INDEX_ERROR, f"index out of range: {exc}")
            seg = _dispatch_exception(handlers, error, ctx, frame)
            if seg is None:
                raise error from exc


def _run_simple(program: CompiledProgram, ctx, cf: CompiledFunction, args):
    """Run a non-suspending compiled function on the plain call stack.

    Mirrors ``_execute`` minus the generator machinery; the suspension
    analysis guarantees none of the suspending control kinds can occur
    here (callees are non-suspending too).
    """
    frame = cf.make_frame(args)
    handlers: List[Tuple[int, object, Optional[Callable]]] = []
    segments = cf.segments
    seg = 0
    while True:
        steps, control, instr_count = segments[seg]
        ctx.segments_dispatched += 1
        executed = -1
        charged = False
        try:
            for executed, step in enumerate(steps):
                step(ctx, frame)
            ctx.instr_count += instr_count
            charged = True
            if ctx.instr_budget is not None and \
                    ctx.instr_count > ctx.instr_budget:
                # One-shot: disarm so catch handlers can run.
                ctx.instr_budget = None
                raise HiltiError(
                    PROCESSING_TIMEOUT, "instruction budget exhausted"
                )
            kind = control[0]
            if kind == "goto":
                seg = control[1]
                continue
            if kind == "branch":
                seg = control[2] if control[1](ctx, frame) else control[3]
                continue
            if kind == "switch":
                value = control[1](ctx, frame)
                seg = control[2].get(value, control[3])
                continue
            if kind == "retv":
                return control[1](ctx, frame)
            if kind == "ret":
                return None
            if kind == "call":
                __, callee, arg_accs, store, nxt = control
                if callee.__class__ is str:  # -O0: resolve per execution
                    callee = program.functions[callee]
                result = _run_simple(
                    program, ctx, callee,
                    [a(ctx, frame) for a in arg_accs],
                )
                if store is not None:
                    store(ctx, frame, result)
                seg = nxt
                continue
            if kind == "ncall":
                __, native, arg_accs, store, nxt = control
                result = native(ctx, *[a(ctx, frame) for a in arg_accs])
                if store is not None:
                    store(ctx, frame, result)
                seg = nxt
                continue
            if kind == "try_push":
                __, handler_seg, catch_type, store, nxt = control
                handlers.append((handler_seg, catch_type, store))
                seg = nxt
                continue
            if kind == "try_pop":
                if handlers:
                    handlers.pop()
                seg = control[1]
                continue
            if kind == "hook":
                __, hook_ref, arg_accs, store, nxt = control
                bodies = program.hooks.get(hook_ref, ()) \
                    if hook_ref.__class__ is str else hook_ref
                hook_args = [a(ctx, frame) for a in arg_accs]
                hook_result = None
                for body in bodies:
                    if body.hook_group is not None and \
                            body.hook_group in ctx.hook_groups_disabled:
                        continue
                    try:
                        _run_simple(program, ctx, body, list(hook_args))
                    except _HookStop as stop:
                        hook_result = stop.value
                        break
                if store is not None:
                    store(ctx, frame, hook_result)
                seg = nxt
                continue
            if kind == "hook_stop":
                value = control[1](ctx, frame) if control[1] is not None else None
                raise _HookStop(value)
            raise HiltiError(
                INTERNAL_ERROR,
                f"suspending control {kind!r} in non-suspending function "
                f"{cf.name}",
            )
        except HiltiError as error:
            if not charged:
                _charge_trap(ctx, steps, executed, error)
            seg = _dispatch_exception(handlers, error, ctx, frame)
            if seg is None:
                raise
        except IndexError as exc:
            if not charged:
                _charge_trap(ctx, steps, executed, exc)
            error = HiltiError(_INDEX_ERROR, f"index out of range: {exc}")
            seg = _dispatch_exception(handlers, error, ctx, frame)
            if seg is None:
                raise error from exc


def _dispatch_exception(handlers, error: HiltiError, ctx, frame):
    """Find the innermost matching handler; None reraises to the caller."""
    while handlers:
        handler_seg, catch_type, store = handlers.pop()
        if catch_type is None or error.matches(catch_type):
            if store is not None:
                store(ctx, frame, error)
            return handler_seg
    return None


def _run_callable(program: CompiledProgram, ctx, bound):
    """Execute a HILTI callable (timers, scheduled jobs)."""
    if isinstance(bound, HiltiCallable):
        function = bound.function
        if isinstance(function, str):
            cf = program.functions.get(function)
            if cf is None:
                native = program.natives.get(function)
                if native is None:
                    raise HiltiError(
                        INTERNAL_ERROR, f"unresolved callable {function!r}"
                    )
                return native(ctx, *bound.args)
        else:
            cf = function
        result = yield from _execute(program, ctx, cf, list(bound.args))
        return result
    if callable(bound):
        return bound()
    raise HiltiError(INTERNAL_ERROR, f"cannot invoke {bound!r}")
