"""The standard script interpreter — the tree-walking tier.

This is the reproduction's stand-in for Bro's stock script interpreter:
it executes the mini-Bro AST directly, re-dispatching on node types and
resolving names through environment dictionaries at every step.  The
HILTI script compiler (``repro.apps.bro.compiler``) is measured against
this engine in Figure 10 and the Fibonacci baseline (§6.5).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ...runtime.containers import HiltiMap, HiltiSet, HiltiVector
from . import val
from .builtins import make_builtins, render
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
    GlobalDecl,
    HasField,
    If,
    Index,
    InExpr,
    Literal,
    LocalDecl,
    Name,
    PrintStmt,
    RecordRef,
    RecordTypeDecl,
    Return,
    Script,
    SetType,
    SizeOf,
    TableType,
    TypeName,
    UnaryExpr,
    ScheduleStmt,
    VectorType,
    WhenStmt,
)
from .val import BroRuntimeError, RecordType, RecordVal

__all__ = ["ScriptInterp"]


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


def default_value(type_expr, record_types: Dict[str, RecordType]):
    """The value an uninitialized variable of this type holds."""
    if type_expr is None:
        return None
    if isinstance(type_expr, TypeName):
        return {
            "bool": False,
            "count": 0,
            "int": 0,
            "double": 0.0,
            "string": "",
        }.get(type_expr.name)
    if isinstance(type_expr, SetType):
        return HiltiSet()
    if isinstance(type_expr, TableType):
        return HiltiMap()
    if isinstance(type_expr, VectorType):
        return HiltiVector()
    if isinstance(type_expr, RecordRef):
        return RecordVal(val.declared_type(record_types, type_expr.name))
    return None


class ScriptInterp:
    """Executes a Script: globals, functions, and event handlers."""

    def __init__(self, script: Script, core, print_stream=None):
        import sys

        self.core = core
        self.print_stream = print_stream or sys.stdout
        self.record_types: Dict[str, RecordType] = {}
        self.globals: Dict[str, object] = {}
        self.functions: Dict[str, FunctionDecl] = {}
        self.handlers: Dict[str, List[EventDecl]] = {}
        self.builtins = make_builtins(core)
        self.statements_executed = 0
        # Pending `when` triggers: (cond_expr, body, fired-flag) lists.
        self.watchpoints = []
        self._load(script)

    # -- loading ------------------------------------------------------------

    def _load(self, script: Script) -> None:
        for decl in script.types:
            self.record_types[decl.name] = RecordType(decl.name, decl.fields)
        for decl in script.globals:
            if decl.init is not None:
                value = self._eval(decl.init, {})
            else:
                value = default_value(decl.type, self.record_types)
            self.globals[decl.name] = value
        for decl in script.functions:
            self.functions[decl.name] = decl
        for decl in script.events:
            self.handlers.setdefault(decl.name, []).append(decl)

    # -- entry points -----------------------------------------------------------

    def has_handler(self, event_name: str) -> bool:
        return event_name in self.handlers

    def dispatch(self, event_name: str, args: List) -> int:
        """Run all handlers of an event; returns the handler count."""
        handlers = self.handlers.get(event_name, ())
        for handler in handlers:
            env = {
                name: value
                for (name, __), value in zip(handler.params, args)
            }
            try:
                self._exec_block(handler.body, env)
            except _ReturnSignal:
                pass
        return len(handlers)

    def check_watchpoints(self) -> int:
        """Evaluate pending `when` conditions; fire due bodies once."""
        if not self.watchpoints:
            return 0
        fired = 0
        for entry in self.watchpoints:
            if entry[2]:
                continue
            if self._eval(entry[0], {}):
                entry[2] = True
                fired += 1
                try:
                    self._exec_block(entry[1], {})
                except _ReturnSignal:
                    pass
        self.watchpoints = [e for e in self.watchpoints if not e[2]]
        return fired

    def call_function(self, name: str, args: List):
        decl = self.functions.get(name)
        if decl is None:
            builtin = self.builtins.get(name)
            if builtin is None:
                raise BroRuntimeError(f"no such function {name!r}")
            return builtin(*args)
        env = {
            param_name: value
            for (param_name, __), value in zip(decl.params, args)
        }
        try:
            self._exec_block(decl.body, env)
        except _ReturnSignal as signal:
            return signal.value
        return None

    # -- statements --------------------------------------------------------------

    def _exec_block(self, statements: List, env: Dict) -> None:
        for statement in statements:
            self._exec(statement, env)

    def _exec(self, statement, env: Dict) -> None:
        self.statements_executed += 1
        if isinstance(statement, list):
            self._exec_block(statement, env)
            return
        if isinstance(statement, LocalDecl):
            if statement.init is not None:
                env[statement.name] = self._eval(statement.init, env)
            else:
                env[statement.name] = default_value(
                    statement.type, self.record_types
                )
            return
        if isinstance(statement, Assign):
            value = self._eval(statement.value, env)
            if statement.op != "=":
                current = self._eval(statement.target, env)
                value = (current + value) if statement.op == "+=" \
                    else (current - value)
            self._assign(statement.target, value, env)
            return
        if isinstance(statement, ExprStmt):
            self._eval(statement.expr, env)
            return
        if isinstance(statement, If):
            if self._eval(statement.cond, env):
                self._exec_block(statement.then, env)
            elif statement.orelse is not None:
                self._exec_block(statement.orelse, env)
            return
        if isinstance(statement, For):
            container = self._eval(statement.container, env)
            for item in val.iter_keys(container):
                env[statement.var] = item
                self._exec_block(statement.body, env)
            return
        if isinstance(statement, PrintStmt):
            values = [self._eval(a, env) for a in statement.args]
            self.print_stream.write(
                ", ".join(render(v) for v in values) + "\n"
            )
            return
        if isinstance(statement, Return):
            raise _ReturnSignal(
                self._eval(statement.value, env)
                if statement.value is not None else None
            )
        if isinstance(statement, AddStmt):
            target = self._eval(statement.target, env)
            val.add(target, self._key(statement.index, env))
            return
        if isinstance(statement, DeleteStmt):
            target = self._eval(statement.target, env)
            val.delete(target, self._key(statement.index, env))
            return
        if isinstance(statement, EventStmt):
            args = [self._eval(a, env) for a in statement.args]
            self.core.queue_event(statement.name, args)
            return
        if isinstance(statement, WhenStmt):
            # Conditions are evaluated over globals when checked.
            self.watchpoints.append([statement.cond, statement.body, False])
            return
        if isinstance(statement, ScheduleStmt):
            delay = self._eval(statement.delay, env)
            args = [self._eval(a, env) for a in statement.args]
            self.core.schedule_event(delay, statement.event_name, args)
            return
        raise BroRuntimeError(f"cannot execute {statement!r}")

    def _assign(self, target, value, env: Dict) -> None:
        if isinstance(target, Name):
            name = target.name
            if name in env:
                env[name] = value
            elif name in self.globals:
                self.globals[name] = value
            else:
                env[name] = value
            return
        if isinstance(target, FieldAccess):
            record = self._eval(target.obj, env)
            if not isinstance(record, RecordVal):
                raise BroRuntimeError("field assignment on non-record")
            record.set(target.field, value)
            return
        if isinstance(target, Index):
            container = self._eval(target.obj, env)
            val.index_assign(container, self._key(target.index, env), value)
            return
        raise BroRuntimeError(f"cannot assign to {target!r}")

    def _key(self, indexes: List, env: Dict):
        """A container key: one index, or a tuple of several."""
        if len(indexes) == 1:
            return self._eval(indexes[0], env)
        return tuple([self._eval(i, env) for i in indexes])

    # -- expressions --------------------------------------------------------------

    def _eval(self, expr, env: Dict):
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, Name):
            name = expr.name
            if name in env:
                return env[name]
            if name in self.globals:
                return self.globals[name]
            raise BroRuntimeError(f"undefined identifier {name!r}")
        if isinstance(expr, FieldAccess):
            record = self._eval(expr.obj, env)
            if not isinstance(record, RecordVal):
                raise BroRuntimeError(
                    f"${expr.field} access on non-record {record!r}"
                )
            return record.get(expr.field)
        if isinstance(expr, HasField):
            record = self._eval(expr.obj, env)
            return isinstance(record, RecordVal) and record.has(expr.field)
        if isinstance(expr, Index):
            container = self._eval(expr.obj, env)
            return val.index(container, self._key(expr.index, env))
        if isinstance(expr, SizeOf):
            return val.size(self._eval(expr.expr, env))
        if isinstance(expr, BinExpr):
            if expr.op == "&&":
                return bool(self._eval(expr.left, env)) and bool(
                    self._eval(expr.right, env)
                )
            if expr.op == "||":
                return bool(self._eval(expr.left, env)) or bool(
                    self._eval(expr.right, env)
                )
            left = self._eval(expr.left, env)
            right = self._eval(expr.right, env)
            return _binop(expr.op, left, right)
        if isinstance(expr, UnaryExpr):
            value = self._eval(expr.operand, env)
            if expr.op == "!":
                return not value
            return -value
        if isinstance(expr, InExpr):
            element = self._eval(expr.element, env)
            container = self._eval(expr.container, env)
            result = val.contains(container, element)
            return (not result) if expr.negated else result
        if isinstance(expr, CallExpr):
            args = [self._eval(a, env) for a in expr.args]
            return self.call_function(expr.name, args)
        raise BroRuntimeError(f"cannot evaluate {expr!r}")


def _binop(op: str, left, right):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if isinstance(left, int) and isinstance(right, int):
            if right == 0:
                raise BroRuntimeError("division by zero")
            return left // right
        return left / right
    if op == "%":
        return left % right
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise BroRuntimeError(f"unknown operator {op!r}")

