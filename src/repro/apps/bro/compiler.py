"""The Bro script compiler: mini-Bro AST -> HILTI.

The paper's fourth exemplar (section 4): a plugin translating all loaded
scripts into corresponding HILTI logic.  Event handlers become HILTI
*hooks* ("roughly, functions with multiple bodies that all execute upon
invocation", Figure 8); script functions become HILTI functions; script
globals become HILTI (thread-local) globals; and Bro data types map onto
HILTI equivalents — records to structs, tables to maps, sets to sets,
vectors to vectors.

When Bro generates an event, the host triggers the corresponding hook
instead of the interpreter, converting arguments through the glue layer
(``repro.apps.bro.glue``).  Builtins that interact with the rest of "Bro"
(fmt, logging, network_time) cross back through the same glue.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from ...core import types as ht
from ...core.builder import FunctionBuilder, ModuleBuilder
from ...core.ir import LabelRef, TupleOp, Var
from ...core.stubs import Stub
from ...core.toolchain import hiltic
from .builtins import make_builtins, render
from .glue import HILTI_BOXED, Glue
from .lang import (
    AddStmt,
    Assign,
    BinExpr,
    CallExpr,
    DeleteStmt,
    EventDecl,
    EventStmt,
    ExprStmt,
    FieldAccess,
    For,
    FunctionDecl,
    HasField,
    If,
    Index,
    InExpr,
    Literal,
    LocalDecl,
    Name,
    PrintStmt,
    RecordRef,
    Return,
    Script,
    SetType,
    SizeOf,
    TableType,
    TypeName,
    ScheduleStmt,
    UnaryExpr,
    VectorType,
    WhenStmt,
)
from .val import BroRuntimeError, RecordType, RecordVal, SetVal, TableVal, VectorVal

__all__ = ["ScriptCompiler", "CompiledScripts"]

_NUMERIC_OPS = {
    "+": "int.add",
    "-": "int.sub",
    "*": "int.mul",
    "/": "int.div",
    "%": "int.mod",
    "==": "equal",
    "!=": "unequal",
    "<": "int.lt",
    "<=": "int.le",
    ">": "int.gt",
    ">=": "int.ge",
}

# Builtins whose arguments/results are plain enough to skip Val
# conversion entirely (pure structural helpers the compiler itself emits).
_DIRECT_NATIVES = {"__select", "vector", "set", "table"}


class _BodyCompiler:
    """Compiles one handler/function body into HILTI instructions."""

    def __init__(self, compiler: "ScriptCompiler", fb: FunctionBuilder,
                 params: List[str]):
        self.compiler = compiler
        self.fb = fb
        self.locals = set(params)

    # -- helpers ------------------------------------------------------------

    def _ensure_local(self, name: str) -> None:
        if name not in self.locals and \
                self.fb.function.variable_type(name) is None:
            self.fb.local(name, ht.ANY)
        self.locals.add(name)

    def _native(self, name: str, args, target=None):
        return self.fb.call(f"Bro::{name}", args, target=target)

    # -- statements -----------------------------------------------------------

    def compile_block(self, statements: List) -> None:
        for statement in statements:
            self.compile_statement(statement)

    def compile_statement(self, statement) -> None:
        fb = self.fb
        if isinstance(statement, list):
            self.compile_block(statement)
            return
        if isinstance(statement, LocalDecl):
            self._ensure_local(statement.name)
            if statement.init is not None:
                value = self.compile_expr(statement.init)
                fb.emit("assign", value, target=fb.var(statement.name))
            else:
                self._emit_default(statement.name, statement.type)
            return
        if isinstance(statement, Assign):
            value = self.compile_expr(statement.value)
            if statement.op != "=":
                current = self.compile_expr(statement.target)
                combined = fb.temp(ht.ANY, "aug")
                mnemonic = "int.add" if statement.op == "+=" else "int.sub"
                fb.emit(mnemonic, current, value, target=combined)
                value = combined
            self._compile_assign(statement.target, value)
            return
        if isinstance(statement, ExprStmt):
            self.compile_expr(statement.expr)
            return
        if isinstance(statement, If):
            cond = self.compile_expr(statement.cond)
            then_label = fb.fresh_label("then")
            done_label = fb.fresh_label("fi")
            else_label = (
                fb.fresh_label("else") if statement.orelse else done_label
            )
            fb.branch(cond, then_label, else_label)
            fb.block(then_label)
            self.compile_block(statement.then)
            self._jump_if_open(done_label)
            if statement.orelse is not None:
                fb.block(else_label)
                self.compile_block(statement.orelse)
                self._jump_if_open(done_label)
            fb.block(done_label)
            return
        if isinstance(statement, For):
            container = self.compile_expr(statement.container)
            keys = fb.temp(ht.ANY, "iter_keys")
            self._native("iter_keys", [container], target=keys)
            iterator = fb.temp(ht.ANY, "it")
            fb.emit("container.iter", keys, target=iterator)
            self._ensure_local(statement.var)
            head = fb.fresh_label("for_head")
            body = fb.fresh_label("for_body")
            done = fb.fresh_label("for_done")
            fb.jump(head)
            fb.block(head)
            pair = fb.temp(ht.ANY, "pair")
            has = fb.temp(ht.BOOL, "has")
            fb.emit("container.next", iterator, target=pair)
            fb.emit("tuple.index", pair, fb.const(ht.INT64, 0), target=has)
            fb.branch(has, body, done)
            fb.block(body)
            fb.emit("tuple.index", pair, fb.const(ht.INT64, 1),
                    target=fb.var(statement.var))
            self.compile_block(statement.body)
            self._jump_if_open(head)
            fb.block(done)
            return
        if isinstance(statement, PrintStmt):
            args = [self.compile_expr(a) for a in statement.args]
            self._native("print", [TupleOp(tuple(args))])
            return
        if isinstance(statement, Return):
            if statement.value is not None:
                fb.ret(self.compile_expr(statement.value))
            else:
                fb.ret(fb.const(ht.ANY, None))
            return
        if isinstance(statement, AddStmt):
            target = self.compile_expr(statement.target)
            key = self._compile_key(statement.index)
            fb.emit("set.insert", target, key)
            return
        if isinstance(statement, DeleteStmt):
            target = self.compile_expr(statement.target)
            key = self._compile_key(statement.index)
            self._native("delete", [target, key])
            return
        if isinstance(statement, EventStmt):
            args = [self.compile_expr(a) for a in statement.args]
            self._native("queue_event", [
                self.fb.const(ht.STRING, statement.name),
                TupleOp(tuple(args)),
            ])
            return
        if isinstance(statement, ScheduleStmt):
            delay = self.compile_expr(statement.delay)
            args = [self.compile_expr(a) for a in statement.args]
            self._native("schedule_event", [
                delay,
                self.fb.const(ht.STRING, statement.event_name),
                TupleOp(tuple(args)),
            ])
            return
        if isinstance(statement, WhenStmt):
            # Lowered to HILTI watchpoints (paper, footnote 4): the
            # condition and body were hoisted into hidden functions by
            # the compiler's pre-pass; here we bind and register them.
            index = self.compiler.when_index(statement)
            pred = fb.temp(ht.ANY, "when_pred")
            action = fb.temp(ht.ANY, "when_body")
            fb.emit("callable.bind",
                    fb.func(f"Scripts::__when_pred_{index}"),
                    TupleOp(()), target=pred)
            fb.emit("callable.bind",
                    fb.func(f"Scripts::__when_body_{index}"),
                    TupleOp(()), target=action)
            fb.emit("watchpoint.add", pred, action)
            return
        raise BroRuntimeError(f"cannot compile statement {statement!r}")

    _TERMINATORS = frozenset(
        ["jump", "if.else", "switch", "return.void", "return.result"]
    )

    def terminated(self) -> bool:
        block = self.fb.current
        return bool(block.instructions) and (
            block.instructions[-1].mnemonic in self._TERMINATORS
        )

    def _jump_if_open(self, label: str) -> None:
        if not self.terminated():
            self.fb.jump(label)

    def finish(self) -> None:
        """Terminate the trailing block with an implicit return."""
        if not self.terminated():
            self.fb.ret(self.fb.const(ht.ANY, None))

    def _emit_default(self, name: str, type_expr) -> None:
        fb = self.fb
        target = fb.var(name)
        if isinstance(type_expr, SetType):
            fb.emit("new", fb.type_ref(ht.SetT(ht.ANY)), target=target)
        elif isinstance(type_expr, TableType):
            fb.emit("new", fb.type_ref(ht.MapT(ht.ANY, ht.ANY)),
                    target=target)
        elif isinstance(type_expr, VectorType):
            self._native("vector", [], target=target)
        elif isinstance(type_expr, RecordRef):
            struct_type = self.compiler.struct_type(type_expr.name)
            fb.emit("new", fb.type_ref(struct_type), target=target)
        elif isinstance(type_expr, TypeName):
            default = {
                "bool": False, "count": 0, "int": 0, "double": 0.0,
                "string": "",
            }.get(type_expr.name)
            fb.emit("assign", fb.const(ht.ANY, default), target=target)
        else:
            fb.emit("assign", fb.const(ht.ANY, None), target=target)

    def _compile_key(self, indexes: List):
        operands = [self.compile_expr(i) for i in indexes]
        if len(operands) == 1:
            return operands[0]
        out = self.fb.temp(ht.ANY, "key")
        self.fb.emit("assign", TupleOp(tuple(operands)), target=out)
        return out

    def _compile_assign(self, target, value) -> None:
        fb = self.fb
        if isinstance(target, Name):
            name = target.name
            if name in self.locals:
                fb.emit("assign", value, target=fb.var(name))
            elif name in self.compiler.global_names:
                fb.emit("assign", value, target=fb.var(name))
            else:
                self._ensure_local(name)
                fb.emit("assign", value, target=fb.var(name))
            return
        if isinstance(target, FieldAccess):
            record = self.compile_expr(target.obj)
            fb.emit("struct.set", record, fb.field(target.field), value)
            return
        if isinstance(target, Index):
            container = self.compile_expr(target.obj)
            key = self._compile_key(target.index)
            self._native("index_assign", [container, key, value])
            return
        raise BroRuntimeError(f"cannot compile assignment to {target!r}")

    # -- expressions --------------------------------------------------------------

    def compile_expr(self, expr):
        fb = self.fb
        if isinstance(expr, Literal):
            return fb.const(ht.ANY, expr.value)
        if isinstance(expr, Name):
            name = expr.name
            if name in self.locals or name in self.compiler.global_names:
                return fb.var(name)
            raise BroRuntimeError(f"undefined identifier {name!r}")
        if isinstance(expr, FieldAccess):
            record = self.compile_expr(expr.obj)
            out = fb.temp(ht.ANY, f"f_{expr.field}")
            fb.emit("struct.get", record, fb.field(expr.field), target=out)
            return out
        if isinstance(expr, HasField):
            record = self.compile_expr(expr.obj)
            out = fb.temp(ht.BOOL, "has_field")
            fb.emit("struct.is_set", record, fb.field(expr.field),
                    target=out)
            return out
        if isinstance(expr, Index):
            container = self.compile_expr(expr.obj)
            key = self._compile_key(expr.index)
            out = fb.temp(ht.ANY, "indexed")
            self._native("index", [container, key], target=out)
            return out
        if isinstance(expr, SizeOf):
            value = self.compile_expr(expr.expr)
            out = fb.temp(ht.INT64, "size")
            self._native("size", [value], target=out)
            return out
        if isinstance(expr, BinExpr):
            if expr.op in ("&&", "||"):
                return self._compile_short_circuit(expr)
            left = self.compile_expr(expr.left)
            right = self.compile_expr(expr.right)
            out = fb.temp(ht.ANY, "binop")
            fb.emit(_NUMERIC_OPS[expr.op], left, right, target=out)
            return out
        if isinstance(expr, UnaryExpr):
            operand = self.compile_expr(expr.operand)
            out = fb.temp(ht.ANY, "unary")
            if expr.op == "!":
                fb.emit("not", operand, target=out)
            else:
                fb.emit("int.neg", operand, target=out)
            return out
        if isinstance(expr, InExpr):
            element = self.compile_expr(expr.element)
            container = self.compile_expr(expr.container)
            out = fb.temp(ht.BOOL, "contains")
            self._native("contains", [container, element], target=out)
            if expr.negated:
                negated = fb.temp(ht.BOOL, "not_in")
                fb.emit("not", out, target=negated)
                return negated
            return out
        if isinstance(expr, CallExpr):
            args = [self.compile_expr(a) for a in expr.args]
            out = fb.temp(ht.ANY, "call")
            if expr.name in self.compiler.function_names:
                fb.call(f"Scripts::{expr.name}", args, target=out)
            else:
                self._native(expr.name, args, target=out)
            return out
        raise BroRuntimeError(f"cannot compile expression {expr!r}")

    def _compile_short_circuit(self, expr: BinExpr):
        fb = self.fb
        out = fb.temp(ht.BOOL, "logic")
        left = self.compile_expr(expr.left)
        fb.emit("assign", left, target=out)
        eval_right = fb.fresh_label("sc_rhs")
        done = fb.fresh_label("sc_done")
        if expr.op == "&&":
            fb.branch(out, eval_right, done)
        else:
            fb.branch(out, done, eval_right)
        fb.block(eval_right)
        right = self.compile_expr(expr.right)
        fb.emit("assign", right, target=out)
        fb.jump(done)
        fb.block(done)
        return out


class ScriptCompiler:
    """Compiles a Script into a HILTI module plus the native bridge."""

    def __init__(self, script: Script, core, opt_level=None,
                 profile: bool = False):
        self.script = script
        self.core = core
        self.opt_level = opt_level
        # Compiler-inserted function-granularity profiling (paper §3.3);
        # armed by the host when metrics collection is on.
        self.profile = profile
        self.glue = Glue()
        self.mb = ModuleBuilder("Scripts")
        self.global_names = {g.name for g in script.globals}
        self.function_names = {f.name for f in script.functions}
        self.record_types: Dict[str, RecordType] = {}
        for decl in script.types:
            self.record_types[decl.name] = RecordType(decl.name, decl.fields)
        # `when` statements hoist their condition/body into hidden
        # functions; collect them up front so calls resolve at link time.
        self._when_statements: List[WhenStmt] = []
        self._when_ids: Dict[int, int] = {}
        self._collect_whens()

    def _collect_whens(self) -> None:
        def scan(statements):
            for statement in statements:
                if isinstance(statement, list):
                    scan(statement)
                elif isinstance(statement, WhenStmt):
                    self._when_ids[id(statement)] = \
                        len(self._when_statements)
                    self._when_statements.append(statement)
                    scan(statement.body)
                elif isinstance(statement, If):
                    scan(statement.then)
                    if statement.orelse is not None:
                        scan(statement.orelse)
                elif isinstance(statement, For):
                    scan(statement.body)

        for decl in list(self.script.functions) + list(self.script.events):
            scan(decl.body)

    def when_index(self, statement: WhenStmt) -> int:
        return self._when_ids[id(statement)]

    def struct_type(self, name: str) -> ht.StructT:
        """The struct layout of a declared record type (they are one)."""
        try:
            return self.record_types[name]
        except KeyError:
            raise BroRuntimeError(f"unknown record type {name!r}") from None

    # -- compilation ------------------------------------------------------------

    def compile(self) -> "CompiledScripts":
        for decl in self.script.globals:
            self.mb.global_var(decl.name, ht.ANY)
        self._compile_global_init()
        for decl in self.script.functions:
            self._compile_function(decl)
        for index, decl in enumerate(self.script.events):
            self._compile_event(decl, index)
        for index, statement in enumerate(self._when_statements):
            self._compile_when(statement, index)
        module = self.mb.finish()
        program = hiltic([module], natives=self._natives(),
                         opt_level=self.opt_level, profile=self.profile)
        return CompiledScripts(self, program)

    def _compile_global_init(self) -> None:
        fb = self.mb.function("__init_globals", [], ht.VOID)
        body = _BodyCompiler(self, fb, [])
        for decl in self.script.globals:
            if decl.init is not None:
                value = body.compile_expr(decl.init)
                fb.emit("assign", value, target=fb.var(decl.name))
            else:
                body._emit_default(decl.name, decl.type)
        fb.ret()

    def _compile_function(self, decl: FunctionDecl) -> None:
        params = [(name, ht.ANY) for name, __ in decl.params]
        fb = self.mb.function(decl.name, params, ht.ANY)
        body = _BodyCompiler(self, fb, [name for name, __ in decl.params])
        body.compile_block(decl.body)
        body.finish()

    def _compile_event(self, decl: EventDecl, index: int) -> None:
        params = [(name, ht.ANY) for name, __ in decl.params]
        fb = self.mb.hook(f"event::{decl.name}", params,
                          body_suffix=str(index))
        body = _BodyCompiler(self, fb, [name for name, __ in decl.params])
        body.compile_block(decl.body)
        if not body.terminated():
            fb.ret()

    def _compile_when(self, statement: WhenStmt, index: int) -> None:
        """Hoist a `when`'s condition and body into hidden functions.

        Conditions and bodies run with no surrounding frame, so they may
        only reference script globals — matching the "global condition"
        semantics of Bro's `when` the paper describes.
        """
        pred = self.mb.function(f"__when_pred_{index}", [], ht.ANY)
        body = _BodyCompiler(self, pred, [])
        pred.ret(body.compile_expr(statement.cond))
        action = self.mb.function(f"__when_body_{index}", [], ht.VOID)
        body = _BodyCompiler(self, action, [])
        body.compile_block(statement.body)
        if not body.terminated():
            action.ret()

    # -- the native bridge ---------------------------------------------------------

    def _natives(self) -> Dict[str, Callable]:
        glue = self.glue
        core = self.core
        val_builtins = make_builtins(core)

        def wrapped(name: str):
            impl = val_builtins[name]

            def call(ctx, *args):
                return glue.to_hilti(impl(*glue.args_from_hilti(args)))

            return call

        natives: Dict[str, Callable] = {}
        for name in val_builtins:
            natives[f"Bro::{name}"] = wrapped(name)

        # Structural helpers the compiler emits; these act on HILTI values
        # directly (no Val conversion — they are not Bro-facing).
        from ...runtime.containers import (
            HiltiList,
            HiltiMap,
            HiltiSet,
            HiltiVector,
        )
        from ...runtime.exceptions import HiltiError, INDEX_ERROR

        def native_size(ctx, value):
            return len(value)

        def native_contains(ctx, container, element):
            if isinstance(container, HiltiSet):
                return container.exists(element)
            if isinstance(container, HiltiMap):
                return container.exists(element)
            if isinstance(container, (HiltiVector, HiltiList)):
                return any(item == element for item in container)
            if isinstance(container, str):
                return str(element) in container
            raise HiltiError(INDEX_ERROR, f"'in' on {container!r}")

        def native_index(ctx, container, key):
            if isinstance(container, HiltiMap):
                return container.get(key)
            if isinstance(container, HiltiVector):
                return container.get(int(key))
            raise HiltiError(INDEX_ERROR, f"indexing {container!r}")

        def native_index_assign(ctx, container, key, value):
            if isinstance(container, HiltiMap):
                container.insert(key, value)
            elif isinstance(container, HiltiVector):
                container.set(int(key), value)
            else:
                raise HiltiError(INDEX_ERROR, f"index-assign {container!r}")

        def native_delete(ctx, container, key):
            container.remove(key)

        def native_iter_keys(ctx, container):
            if isinstance(container, (HiltiVector, HiltiList)):
                return list(range(len(container)))
            if isinstance(container, (HiltiMap, HiltiSet)):
                return list(container)
            raise HiltiError(INDEX_ERROR, f"'for' over {container!r}")

        def native_vector(ctx, *items):
            out = HiltiVector()
            for item in items:
                out.push_back(item)
            return out

        def native_print(ctx, args):
            vals = glue.args_from_hilti(args)
            core.print_line(", ".join(render(v) for v in vals))

        def native_queue_event(ctx, name, args):
            core.queue_event(name, glue.args_from_hilti(args))

        boxed_tuple = natives["Bro::__tuple"]

        def native_tuple(ctx, *items):
            # A key of plain values ([c$uid, trans_id]) is its own HILTI
            # value; only boxed members take the glue round trip.
            for item in items:
                if type(item) in HILTI_BOXED:
                    return boxed_tuple(ctx, *items)
            return items

        snapshot_log_write = natives["Bro::Log::write"]

        def native_log_write(ctx, stream, record):
            # A typed record is rendered from its slots as it is (the log
            # framework reads HILTI cells); untyped or anonymous records,
            # or a non-string stream name, take the Val snapshot.
            if type(record) is RecordVal and record._extra is None \
                    and type(stream) is str:
                core.log_write(stream, record)
                return None
            return snapshot_log_write(ctx, stream, record)

        natives.update({
            "Bro::size": native_size,
            "Bro::contains": native_contains,
            "Bro::index": native_index,
            "Bro::index_assign": native_index_assign,
            "Bro::delete": native_delete,
            "Bro::iter_keys": native_iter_keys,
            "Bro::vector": native_vector,
            "Bro::print": native_print,
            "Bro::queue_event": native_queue_event,
            "Bro::__tuple": native_tuple,
            "Bro::Log::write": native_log_write,
        })
        # fmt and the other builtins need Val conversion (they face Bro):
        # wrapped above via val_builtins.
        return natives


class CompiledScripts:
    """The compiled-script engine: same dispatch API as ScriptInterp."""

    def __init__(self, compiler: ScriptCompiler, program):
        self.compiler = compiler
        self.glue = compiler.glue
        self.program = program
        self.ctx = program.make_context()
        # Per-event dispatch plan: the hook each handled event runs.
        self.handlers = {
            decl.name: f"event::{decl.name}"
            for decl in compiler.script.events
        }
        # Host stubs of the script functions called so far, by name.
        self._stubs: Dict[str, Stub] = {}
        program.call(self.ctx, "Scripts::__init_globals")

    def has_handler(self, event_name: str) -> bool:
        return event_name in self.handlers

    def dispatch(self, event_name: str, args: List) -> int:
        hook = self.handlers.get(event_name)
        if hook is None:
            return 0
        self.program.run_hook(self.ctx, hook, self.glue.args_to_hilti(args))
        return 1

    def call_function(self, name: str, args: List):
        stub = self._stubs.get(name)
        if stub is None:
            stub = self._stubs[name] = Stub(self.program, f"Scripts::{name}")
        result = stub(self.ctx, *self.glue.args_to_hilti(args))
        return self.glue.from_hilti(result)

    def check_watchpoints(self) -> int:
        """Evaluate pending `when` triggers (HILTI watchpoints)."""
        if not self.ctx.watchpoints:
            return 0
        return self.program.check_watchpoints(self.ctx)
