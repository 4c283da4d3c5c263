"""Reference interpreter for HILTI IR (the non-compiled tier).

Walks the IR directly: every step re-dispatches the mnemonic through the
instruction registry and resolves operands by name — precisely the work
the code generator (``repro.core.codegen``) specializes away.
It exists for two reasons:

* differential testing: both tiers must produce identical results on the
  same program (checked by ``tests/core/test_differential.py``);
* as the analogue of "interpreted" execution for benchmarks contrasting
  compiled versus interpreted analysis, the axis the paper's evaluation
  keeps returning to (BPF, Bro scripts).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..runtime.context import ExecutionContext
from ..runtime.exceptions import (
    HiltiError,
    INTERNAL_ERROR,
    PROCESSING_TIMEOUT,
    VALUE_ERROR,
)
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

__all__ = ["Interpreter"]


class _HookStop(Exception):
    def __init__(self, value):
        self.value = value


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class Interpreter:
    """Executes a LinkedProgram by walking its IR."""

    def __init__(self, linked: LinkedProgram):
        self.linked = linked
        # Host-selectable runtime backends, mirroring CompiledProgram.
        self.runtime_options: Dict[str, str] = {}
        # Yields passed: this tier runs to completion, but the count is
        # the oracle for how often the compiled tier's fiber suspends.
        self.suspensions = 0
        self._module_of: Dict[int, Module] = {}
        for module in linked.modules:
            for function in module.all_functions():
                self._module_of[id(function)] = module

    # -- host API -----------------------------------------------------------

    def make_context(self, **kwargs) -> ExecutionContext:
        ctx = ExecutionContext(**kwargs)
        self.init_context(ctx)
        return ctx

    def init_context(self, ctx: ExecutionContext) -> None:
        ctx.program = self
        ctx.globals = [None] * len(self.linked.global_layout)
        for index, var in enumerate(self.linked.global_layout):
            if var.init is None:
                ctx.globals[index] = default_value(var.type)
            elif isinstance(var.init, TypeRef):
                ctx.globals[index] = instantiate(ctx, var.init.type)
            elif isinstance(var.init, Const):
                ctx.globals[index] = var.init.value
            else:
                ctx.globals[index] = var.init

    def call(self, ctx: ExecutionContext, name: str, args: Sequence = ()):
        kind, target = self.linked.resolve_function(name)
        if kind == "native":
            return target(ctx, *args)
        return self._run_function(ctx, target, list(args))

    def run(self, ctx: Optional[ExecutionContext] = None, args: Sequence = ()):
        if self.linked.entry is None:
            raise LinkError("program has no entry point")
        if ctx is None:
            ctx = self.make_context()
        return self.call(ctx, self.linked.entry, args)

    def run_callable(self, ctx: ExecutionContext, bound):
        """Invoke a HILTI callable value (host side)."""
        return self._run_callable(ctx, bound)

    def check_watchpoints(self, ctx: ExecutionContext) -> int:
        """Evaluate pending watchpoints; returns how many fired."""
        fired = 0
        for entry in ctx.watchpoints:
            if entry[2]:
                continue
            if self._run_callable(ctx, entry[0]):
                entry[2] = True
                fired += 1
                self._run_callable(ctx, entry[1])
        ctx.watchpoints[:] = [e for e in ctx.watchpoints if not e[2]]
        return fired

    def run_hook(self, ctx: ExecutionContext, hook_name: str,
                 args: Sequence = ()):
        result = None
        for body in self.linked.hooks.get(hook_name, ()):
            if body.hook_group is not None and \
                    body.hook_group in ctx.hook_groups_disabled:
                continue
            try:
                self._run_function(ctx, body, list(args))
            except _HookStop as stop:
                result = stop.value
                break
        return result

    # -- execution ------------------------------------------------------------

    def _run_function(self, ctx, function: Function, args: List):
        if len(args) != len(function.params):
            raise HiltiError(
                VALUE_ERROR,
                f"{function.name} expects {len(function.params)} args, got "
                f"{len(args)}",
            )
        module = self._module_of.get(id(function))
        scope: Dict[str, object] = {}
        for param, value in zip(function.params, args):
            scope[param.name] = value
        for local in function.locals:
            if local.init is not None:
                scope[local.name] = (
                    local.init.value if isinstance(local.init, Const)
                    else local.init
                )
            else:
                scope[local.name] = default_value(local.type)
        handlers: List = []
        block_index = {b.label: i for i, b in enumerate(function.blocks)}
        index = 0
        try:
            while True:
                block = function.blocks[index]
                ctx.blocks_dispatched += 1
                try:
                    jumped = False
                    for instruction in block.instructions:
                        ctx.instr_count += 1
                        if ctx.instr_budget is not None and \
                                ctx.instr_count > ctx.instr_budget:
                            # One-shot: disarm so catch handlers can run.
                            ctx.instr_budget = None
                            raise HiltiError(
                                PROCESSING_TIMEOUT,
                                "instruction budget exhausted",
                            )
                        next_label = self._step(
                            ctx, module, function, scope, handlers, instruction
                        )
                        if next_label is not None:
                            index = block_index[next_label]
                            jumped = True
                            break
                    if jumped:
                        continue
                    index += 1  # fall through
                    # The implicit control transfer (fall-through goto, or
                    # the synthetic return of a void fall-off exit) counts
                    # as one instruction, exactly like the compiled tier's
                    # "+1 for the implicit control transfer" — keeping
                    # the two tiers' instruction counts identical.
                    ctx.instr_count += 1
                    if index >= len(function.blocks):
                        return None
                except HiltiError as error:
                    target = self._dispatch(handlers, scope, error)
                    if target is None:
                        raise
                    index = block_index[target]
        except _Return as ret:
            return ret.value

    def _step(self, ctx, module, function, scope, handlers,
              instruction: Instruction) -> Optional[str]:
        """Execute one instruction; return a label to jump to, if any."""
        mnemonic = instruction.mnemonic
        ops = instruction.operands
        if mnemonic == "jump":
            return ops[0].label
        if mnemonic == "if.else":
            cond = self._eval(ctx, module, scope, ops[0])
            return ops[1].label if cond else ops[2].label
        if mnemonic == "switch":
            value = self._eval(ctx, module, scope, ops[0])
            for case in ops[2:]:
                const, label = case.elements
                if const.value == value:
                    return label.label
            return ops[1].label
        if mnemonic == "return.void":
            raise _Return(None)
        if mnemonic == "return.result":
            raise _Return(self._eval(ctx, module, scope, ops[0]))
        if mnemonic == "call":
            result = self._call(ctx, module, scope, instruction)
            self._store(ctx, module, scope, instruction.target, result)
            return None
        if mnemonic == "yield":
            self.suspensions += 1
            return None  # The interpreter tier runs to completion.
        if mnemonic == "try.begin":
            handler = ops[0].label
            catch_type = ops[1].type if len(ops) > 1 else None
            var_name = (
                ops[2].name if len(ops) > 2 and isinstance(ops[2], Var) else None
            )
            handlers.append((handler, catch_type, var_name))
            return None
        if mnemonic == "try.end":
            if handlers:
                handlers.pop()
            return None
        if mnemonic == "exception.throw":
            error = self._eval(ctx, module, scope, ops[0])
            if not isinstance(error, HiltiError):
                error = HiltiError(VALUE_ERROR, str(error))
            raise error
        if mnemonic == "hook.run":
            name = ops[0].name if hasattr(ops[0], "name") else str(ops[0])
            args = self._eval(ctx, module, scope, ops[1]) if len(ops) > 1 else ()
            result = None
            for body in self.linked.hooks.get(name, ()):
                if body.hook_group is not None and \
                        body.hook_group in ctx.hook_groups_disabled:
                    continue
                try:
                    self._run_function(ctx, body, list(args))
                except _HookStop as stop:
                    result = stop.value
                    break
            self._store(ctx, module, scope, instruction.target, result)
            return None
        if mnemonic == "hook.stop":
            value = self._eval(ctx, module, scope, ops[0]) if ops else None
            raise _HookStop(value)
        if mnemonic == "callable.bind":
            func_name = ops[0].name
            args = self._eval(ctx, module, scope, ops[1]) if len(ops) > 1 else ()
            kind, target = self.linked.resolve_function(func_name, module)
            resolved = target.name if kind == "hilti" else func_name
            self._store(
                ctx, module, scope, instruction.target,
                HiltiCallable(resolved, args),
            )
            return None
        if mnemonic == "callable.call":
            bound = self._eval(ctx, module, scope, ops[0])
            result = self._run_callable(ctx, bound)
            self._store(ctx, module, scope, instruction.target, result)
            return None
        if mnemonic == "thread.schedule":
            func_name = ops[0].name
            args = self._eval(ctx, module, scope, ops[1])
            vid = self._eval(ctx, module, scope, ops[2])
            if ctx.scheduler is None:
                raise HiltiError(
                    INTERNAL_ERROR, "thread.schedule without a scheduler"
                )
            kind, target = self.linked.resolve_function(func_name, module)
            resolved = target.name if kind == "hilti" else func_name
            ctx.scheduler.schedule(vid, resolved, args)
            return None
        if mnemonic in ("timer_mgr.advance", "timer_mgr.advance_global"):
            if mnemonic == "timer_mgr.advance":
                mgr = self._eval(ctx, module, scope, ops[0])
                when = self._eval(ctx, module, scope, ops[1])
            else:
                mgr = ctx.timer_mgr
                when = self._eval(ctx, module, scope, ops[0])
            for action in mgr.advance(when):
                self._run_callable(ctx, action)
            while ctx.pending_expirations:
                self._run_callable(ctx, ctx.pending_expirations.pop(0))
            return None
        if mnemonic == "timer_mgr.expire_all":
            mgr = self._eval(ctx, module, scope, ops[0]) if ops else ctx.timer_mgr
            for action in mgr.expire_all():
                self._run_callable(ctx, action)
            while ctx.pending_expirations:
                self._run_callable(ctx, ctx.pending_expirations.pop(0))
            return None
        if mnemonic == "watchpoint.check":
            self.check_watchpoints(ctx)
            return None
        definition = REGISTRY.get(mnemonic)
        if definition is None or definition.fn is None:
            raise HiltiError(INTERNAL_ERROR, f"cannot interpret {mnemonic}")
        values = [self._eval(ctx, module, scope, op) for op in ops]
        result = definition.fn(ctx, *values)
        self._store(ctx, module, scope, instruction.target, result)
        return None

    def _call(self, ctx, module, scope, instruction: Instruction):
        func_name = instruction.operands[0].name
        args_op = (
            instruction.operands[1]
            if len(instruction.operands) > 1
            else TupleOp(())
        )
        args = self._eval(ctx, module, scope, args_op)
        if not isinstance(args, tuple):
            args = (args,)
        kind, target = self.linked.resolve_function(func_name, module)
        if kind == "native":
            return target(ctx, *args)
        return self._run_function(ctx, target, list(args))

    def _run_callable(self, ctx, bound):
        if isinstance(bound, HiltiCallable):
            function = bound.function
            if isinstance(function, str):
                kind, target = self.linked.resolve_function(function)
                if kind == "native":
                    return target(ctx, *bound.args)
                return self._run_function(ctx, target, list(bound.args))
            raise HiltiError(
                INTERNAL_ERROR, "interpreter callables must be name-bound"
            )
        if callable(bound):
            return bound()
        raise HiltiError(INTERNAL_ERROR, f"cannot invoke {bound!r}")

    def _dispatch(self, handlers, scope, error: HiltiError) -> Optional[str]:
        while handlers:
            handler, catch_type, var_name = handlers.pop()
            if catch_type is None or error.matches(catch_type):
                if var_name is not None:
                    scope[var_name] = error
                return handler
        return None

    # -- operands -----------------------------------------------------------------

    def _eval(self, ctx, module, scope, operand: Operand):
        if isinstance(operand, Const):
            value = operand.value
            if isinstance(operand.type, ht.BytesT) and isinstance(value, bytes):
                from ..runtime.bytes_buffer import Bytes

                wrapped = Bytes(value)
                wrapped.freeze()
                return wrapped
            return value
        if isinstance(operand, Var):
            name = operand.name
            if name in scope:
                return scope[name]
            slot = self.linked.global_slot(name, module)
            return ctx.globals[slot]
        if isinstance(operand, TupleOp):
            return tuple(
                self._eval(ctx, module, scope, e) for e in operand.elements
            )
        if isinstance(operand, FieldRef):
            return operand.name
        if isinstance(operand, TypeRef):
            return operand.type
        if isinstance(operand, FuncRef):
            return operand.name
        if isinstance(operand, LabelRef):
            return operand.label
        raise HiltiError(INTERNAL_ERROR, f"cannot evaluate {operand!r}")

    def _store(self, ctx, module, scope, target: Optional[Var], value) -> None:
        if target is None:
            return
        name = target.name
        if name in scope:
            scope[name] = value
            return
        slot = self.linked.global_slot(name, module)
        ctx.globals[slot] = value
