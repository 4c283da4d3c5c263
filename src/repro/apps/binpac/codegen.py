"""BinPAC++ code generation: grammar -> HILTI parsers.

Each unit compiles into a HILTI function

    <Grammar>::<Unit>::parse(data ref<bytes>, cur iterator, args...)
        -> (struct, iterator)

that allocates the unit's struct, parses field by field, and — crucially —
is *fully incremental* (paper, section 4): whenever a field needs more
input than the buffer currently holds and the buffer is not frozen, the
generated code executes HILTI's ``yield``, suspending the whole parse
inside its fiber.  The host resumes the fiber after appending more data
and parsing transparently continues where it left off; no per-session
state machines, no PDU-level buffering layer.

A grammar declared ``datagram`` (``Grammar(..., datagram=True)``: DNS,
TFTP) is parsed from whole PDUs only, the one-shot path paper §6.4 says
UDP deserves: running out of input fails at once, the parse functions
contain no suspension point and compile to plain calls, and the host
enters through ``Parser.parse``.  Either way, a run of consecutive
fixed-width integer fields is one availability check and one
``bytes.unpack_seq`` read.

Regular-expression tokens are compiled to automata at *grammar compile
time* and embedded as constants, and each finished unit runs the hook
``<Grammar>::<Unit>::%done`` so event glue (``repro.apps.binpac.evt``) can
attach without touching the parser.  A run of two or more unconditional
tokens is one ``regexp.match_seq`` — each token still its own longest
match, the whole run retried from its start while undecided, a failure
naming the failing token — and a parameterless unit made only of
unconditional tokens (HTTP's ``Header``, ``Version``) is inlined at its
use site as ``new``, one such run, and its ``%done`` hook.  A run never
crosses a hook; lone tokens, ``&until`` delimiters and list sentinels
match through ``regexp.match_token``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ...core import types as ht
from ...core.builder import FunctionBuilder, ModuleBuilder
from ...core.ir import Const as IRConst
from ...core.ir import LabelRef, Module, TupleOp, Var
from ...core.stubs import Stub
from ...core.toolchain import hiltic
from ...runtime.bytes_buffer import Bytes
from ...runtime.fibers import YIELDED
from ...runtime.regexp import RegExp
from . import runtime as bp_runtime
from .ast import (
    BinOp,
    BytesField,
    Call,
    ComputeField,
    Const,
    Expr,
    Field,
    Grammar,
    GrammarError,
    ListField,
    LiteralField,
    MarkField,
    NativeField,
    Param,
    PatternField,
    SeqField,
    SeekField,
    SelfField,
    SubUnitField,
    SwitchField,
    UIntField,
    Unit,
)

__all__ = ["compile_grammar", "GrammarCompiler", "Parser"]

_BINOPS = {
    "+": "int.add",
    "-": "int.sub",
    "*": "int.mul",
    "==": "equal",
    "!=": "unequal",
    "<": "int.lt",
    "<=": "int.le",
    ">": "int.gt",
    ">=": "int.ge",
    "&&": "bool.and",
    "||": "bool.or",
    "&": "int.and",
}


class _UnitCompiler:
    """Emits the parse function of one unit."""

    def __init__(self, grammar: Grammar, unit: Unit, mb: ModuleBuilder,
                 struct_types: Dict[str, ht.StructT],
                 token_cache: Dict[str, RegExp]):
        self.grammar = grammar
        self.unit = unit
        self.mb = mb
        self.struct_types = struct_types
        self.token_cache = token_cache
        # Whole-PDU input: no suspension points, so the parse function
        # compiles to a plain call instead of a fiber-driven generator.
        self.datagram = grammar.datagram
        params = [("data", ht.RefT(ht.BYTES)), ("cur", ht.ANY)]
        params += [(f"arg{i}", ht.ANY) for i in range(unit.params)]
        self.fb: FunctionBuilder = mb.function(
            f"{unit.name}::parse", params, ht.ANY
        )
        self.obj = self.fb.local("obj", ht.ANY)

    # -- small helpers ------------------------------------------------------

    def _regexp(self, pattern: str) -> IRConst:
        """A compiled-at-grammar-compile-time regexp constant."""
        compiled = self.token_cache.get(pattern)
        if compiled is None:
            compiled = RegExp([pattern])
            self.token_cache[pattern] = compiled
        return IRConst(ht.ANY, compiled)

    def _bytes_const(self, raw: bytes) -> IRConst:
        shared = Bytes(raw)
        shared.freeze()
        return IRConst(ht.ANY, shared)

    def _fail(self, message: str) -> None:
        """Raise BinPAC::ParseError."""
        fb = self.fb
        err = fb.temp(ht.ANY, "err")
        fb.emit("exception.new", fb.field("BinPAC::ParseError"),
                fb.const(ht.STRING, message), target=err)
        fb.emit("exception.throw", err)

    def _retry_point(self, name: str) -> Optional[str]:
        """Open the block a suspended parse re-enters once resumed; a
        datagram grammar never suspends and needs none."""
        if self.datagram:
            return None
        fb = self.fb
        retry = fb.fresh_label(name)
        fb.jump(retry)
        fb.block(retry)
        return retry

    def _undecided(self, retry: Optional[str], give_up: str) -> None:
        """End the current block, where the input seen so far cannot
        decide the field: with the buffer frozen (always, for a datagram
        grammar) go to *give_up*, else suspend and retry at *retry*."""
        fb = self.fb
        if retry is None:
            fb.jump(give_up)
            return
        suspend = fb.fresh_label("suspend")
        frozen = fb.temp(ht.BOOL, "frozen")
        fb.emit("bytes.is_frozen", fb.var("data"), target=frozen)
        fb.branch(frozen, give_up, suspend)
        fb.block(suspend)
        fb.emit("yield")
        fb.jump(retry)

    def _need(self, count_operand) -> None:
        """Continue once *count_operand* bytes are available at cur:
        suspend until they are, or fail at the end of input — at once,
        for a datagram grammar."""
        fb = self.fb
        retry = self._retry_point("need")
        ok = fb.fresh_label("have")
        wait = fb.fresh_label("wait") if retry is not None else None
        fail = fb.fresh_label("short")
        avail = fb.temp(ht.INT64, "avail")
        enough = fb.temp(ht.BOOL, "enough")
        fb.emit("bytes.available", fb.var("cur"), target=avail)
        fb.emit("int.ge", avail, count_operand, target=enough)
        fb.branch(enough, ok, wait or fail)
        if wait is not None:
            fb.block(wait)
            self._undecided(retry, fail)
        fb.block(fail)
        self._fail("unexpected end of input")
        fb.block(ok)

    # -- expressions ---------------------------------------------------------

    def eval_expr(self, expr: Expr):
        """Emit code computing *expr*; returns an operand."""
        fb = self.fb
        if isinstance(expr, Const):
            value = expr.value
            if isinstance(value, bytes):
                return self._bytes_const(value)
            return fb.const(ht.ANY, value)
        if isinstance(expr, SelfField):
            out = fb.temp(ht.ANY, f"f_{expr.name}")
            fb.emit("struct.get", self.obj, fb.field(expr.name), target=out)
            return out
        if isinstance(expr, Param):
            return fb.var(f"arg{expr.index}")
        if isinstance(expr, BinOp):
            left = self.eval_expr(expr.left)
            right = self.eval_expr(expr.right)
            out = fb.temp(ht.ANY, "binop")
            fb.emit(_BINOPS[expr.op], left, right, target=out)
            return out
        if isinstance(expr, Call):
            args = [self.eval_expr(a) for a in expr.args]
            out = fb.temp(ht.ANY, "callres")
            fb.call(f"BinPAC::{expr.name}", args, target=out)
            return out
        raise GrammarError(f"cannot compile expression {expr!r}")

    # -- field dispatch ----------------------------------------------------------

    def emit_unit_body(self) -> None:
        fb = self.fb
        struct_type = self.struct_types[self.unit.name]
        fb.emit("new", fb.type_ref(struct_type), target=self.obj)
        self.emit_fields(self.unit.fields)
        # Unit finished: run the %done hook (event glue attaches here).
        self._run_done_hook(self.unit, self.obj)
        result = fb.temp(ht.ANY, "result")
        fb.emit("assign", TupleOp((self.obj, fb.var("cur"))), target=result)
        fb.ret(result)

    def _run_done_hook(self, unit: Unit, obj) -> None:
        self.fb.emit("hook.run",
                     self.fb.field(f"{self.grammar.name}::{unit.name}::%done"),
                     self.fb.args(obj))

    def _store_to_struct(self, field: Field, obj=None) -> Optional[Callable]:
        """Where a named field's value goes: its slot in *obj* (default:
        the unit being parsed)."""
        if not field.stored():
            return None
        target = self.obj if obj is None else obj

        def store(value_operand) -> None:
            self.fb.emit("struct.set", target,
                         self.fb.field(field.name), value_operand)

        return store

    def emit_fields(self, fields: Sequence[Field]) -> None:
        """Emit a field sequence; a run of two or more consecutive
        unconditional fixed-width integers is one read, of two or more
        unconditional tokens one match."""
        index = 0
        while index < len(fields):
            kind = type(fields[index])
            end = index
            while end < len(fields) and type(fields[end]) is kind \
                    and kind in (UIntField, PatternField) \
                    and fields[end].condition is None:
                end += 1
            if end - index > 1:
                if kind is UIntField:
                    self._emit_uint_run(fields[index:end])
                else:
                    self._emit_token_run(fields[index:end], self.obj)
                index = end
            else:
                field = fields[index]
                self.emit_field(field, self._store_to_struct(field))
                index += 1

    def emit_field(self, field: Field, store: Optional[Callable]) -> None:
        fb = self.fb
        if field.condition is not None:
            cond = self.eval_expr(field.condition)
            then_label = fb.fresh_label("cond_then")
            done_label = fb.fresh_label("cond_done")
            fb.branch(cond, then_label, done_label)
            fb.block(then_label)
            self._emit_field_inner(field, store)
            fb.jump(done_label)
            fb.block(done_label)
        else:
            self._emit_field_inner(field, store)

    def _emit_field_inner(self, field: Field,
                          store: Optional[Callable]) -> None:
        if isinstance(field, PatternField):
            self._emit_pattern(field.pattern, store)
        elif isinstance(field, LiteralField):
            self._emit_literal(field.literal, store)
        elif isinstance(field, UIntField):
            self._emit_uint(field, store)
        elif isinstance(field, BytesField):
            self._emit_bytes(field, store)
        elif isinstance(field, SubUnitField):
            self._emit_subunit(field, store)
        elif isinstance(field, ListField):
            self._emit_list(field, store)
        elif isinstance(field, NativeField):
            self._emit_native(field, store)
        elif isinstance(field, SeqField):
            self.emit_fields(field.fields)
        elif isinstance(field, SwitchField):
            self._emit_switch(field)
        elif isinstance(field, ComputeField):
            value = self.eval_expr(field.expr)
            if store is not None:
                store(value)
        elif isinstance(field, MarkField):
            if store is not None:
                store(self.fb.var("cur"))
        elif isinstance(field, SeekField):
            self._emit_seek(field)
        else:
            raise GrammarError(f"cannot compile field {field!r}")

    # -- concrete field kinds -----------------------------------------------------

    def _emit_pattern(self, pattern: str, store: Optional[Callable]) -> None:
        fb = self.fb
        regexp_const = self._regexp(pattern)
        retry = self._retry_point("tok")
        matched = fb.fresh_label("tok_ok")
        no_match = fb.fresh_label("tok_no")
        undecided = fb.fresh_label("tok_more")
        fail = fb.fresh_label("tok_fail")
        result = fb.temp(ht.ANY, "match")
        status = fb.temp(ht.INT64, "status")
        end_iter = fb.temp(ht.ANY, "match_end")
        hit = fb.temp(ht.BOOL, "hit")
        fb.emit("regexp.match_token", regexp_const, fb.var("cur"),
                target=result)
        fb.emit("tuple.index", result, fb.const(ht.INT64, 0), target=status)
        fb.emit("tuple.index", result, fb.const(ht.INT64, 1), target=end_iter)
        fb.emit("int.gt", status, fb.const(ht.INT64, 0), target=hit)
        fb.branch(hit, matched, no_match)
        fb.block(no_match)
        failed = fb.temp(ht.BOOL, "failed")
        fb.emit("int.eq", status, fb.const(ht.INT64, 0), target=failed)
        fb.branch(failed, fail, undecided)
        fb.block(undecided)
        self._undecided(retry, fail)
        fb.block(fail)
        self._fail(f"expected token /{pattern}/")
        fb.block(matched)
        if store is not None:
            value = fb.temp(ht.ANY, "token")
            fb.emit("bytes.sub", fb.var("cur"), end_iter, target=value)
            store(value)
        fb.emit("assign", end_iter, target=fb.var("cur"))

    def _emit_token_run(self, run: Sequence[PatternField], obj) -> None:
        """Consecutive tokens as one ``regexp.match_seq``: each token its
        own longest match, exactly as lone tokens would match in turn.
        While undecided the whole run retries from its start — exact, as
        a decided token match does not change when input arrives.  A
        failure names the failing token; a match yields each named
        token's value, stored into *obj*'s slot."""
        fb = self.fb
        retry = self._retry_point("toks")
        matched = fb.fresh_label("toks_ok")
        no_match = fb.fresh_label("toks_no")
        undecided = fb.fresh_label("toks_more")
        fail = fb.fresh_label("toks_fail")
        result = fb.temp(ht.ANY, "toks")
        status = fb.temp(ht.INT64, "toks_status")
        hit = fb.temp(ht.BOOL, "toks_hit")
        mask = sum(1 << index for index, field in enumerate(run)
                   if field.stored())
        fb.emit("regexp.match_seq", fb.var("cur"), fb.const(ht.INT64, mask),
                *[self._regexp(field.pattern) for field in run],
                target=result)
        fb.emit("tuple.index", result, fb.const(ht.INT64, 0), target=status)
        fb.emit("int.gt", status, fb.const(ht.INT64, 0), target=hit)
        fb.branch(hit, matched, no_match)
        fb.block(no_match)
        failed = fb.temp(ht.BOOL, "toks_failed")
        fb.emit("int.eq", status, fb.const(ht.INT64, 0), target=failed)
        fb.branch(failed, fail, undecided)
        fb.block(undecided)
        self._undecided(retry, fail)
        fb.block(fail)
        failing = fb.temp(ht.INT64, "toks_failing")
        fb.emit("tuple.index", result, fb.const(ht.INT64, 2), target=failing)
        labels = [fb.fresh_label("tok_fail") for __ in run]
        fb.emit("switch", failing, LabelRef(labels[0]),
                *[TupleOp((fb.const(ht.ANY, index), LabelRef(label)))
                  for index, label in enumerate(labels) if index])
        for label, field in zip(labels, run):
            fb.block(label)
            self._fail(f"expected token /{field.pattern}/")
        fb.block(matched)
        slot = 3
        for field in run:
            store = self._store_to_struct(field, obj)
            if store is not None:
                value = fb.temp(ht.ANY, "token")
                fb.emit("tuple.index", result, fb.const(ht.INT64, slot),
                        target=value)
                store(value)
                slot += 1
        fb.emit("tuple.index", result, fb.const(ht.INT64, 1),
                target=fb.var("cur"))

    def _emit_literal(self, literal: bytes, store: Optional[Callable]) -> None:
        fb = self.fb
        self._need(fb.const(ht.INT64, len(literal)))
        ok = fb.fresh_label("lit_ok")
        bad = fb.fresh_label("lit_bad")
        is_match = fb.temp(ht.BOOL, "lit_match")
        fb.emit("bytes.match_at", fb.var("cur"), self._bytes_const(literal),
                target=is_match)
        fb.branch(is_match, ok, bad)
        fb.block(bad)
        self._fail(f"expected literal {literal!r}")
        fb.block(ok)
        if store is not None:
            store(self._bytes_const(literal))
        advanced = fb.temp(ht.ANY, "lit_cur")
        fb.emit("iterator.incr_by", fb.var("cur"),
                fb.const(ht.INT64, len(literal)), target=advanced)
        fb.emit("assign", advanced, target=fb.var("cur"))

    @staticmethod
    def _uint_format(field: UIntField) -> str:
        endian = "Little" if field.little_endian else "Big"
        return f"UInt{field.width}{endian}"

    def _emit_uint(self, field: UIntField, store: Optional[Callable]) -> None:
        fb = self.fb
        self._need(fb.const(ht.INT64, field.width // 8))
        pair = fb.temp(ht.ANY, "uint_pair")
        fb.emit("bytes.unpack", fb.var("cur"),
                fb.field(self._uint_format(field)), target=pair)
        if store is not None:
            value = fb.temp(ht.INT64, "uint")
            fb.emit("tuple.index", pair, fb.const(ht.INT64, 0), target=value)
            store(value)
        advanced = fb.temp(ht.ANY, "uint_cur")
        fb.emit("tuple.index", pair, fb.const(ht.INT64, 1), target=advanced)
        fb.emit("assign", advanced, target=fb.var("cur"))

    def _emit_uint_run(self, run: Sequence[UIntField]) -> None:
        """Consecutive fixed-width integers: one availability check, one
        ``bytes.unpack_seq`` yielding every value plus the advanced
        cursor, then each value stored as a lone field would be."""
        fb = self.fb
        self._need(fb.const(ht.INT64, sum(field.width for field in run) // 8))
        values = fb.temp(ht.ANY, "uint_run")
        fb.emit("bytes.unpack_seq", fb.var("cur"),
                *[fb.field(self._uint_format(field)) for field in run],
                target=values)
        for index, field in enumerate(run):
            store = self._store_to_struct(field)
            if store is not None:
                value = fb.temp(ht.INT64, "uint")
                fb.emit("tuple.index", values, fb.const(ht.INT64, index),
                        target=value)
                store(value)
        fb.emit("tuple.index", values, fb.const(ht.INT64, len(run)),
                target=fb.var("cur"))

    def _emit_bytes(self, field: BytesField, store: Optional[Callable]) -> None:
        fb = self.fb
        if field.length is not None:
            length = self.eval_expr(field.length)
            self._need(length)
            end_iter = fb.temp(ht.ANY, "bytes_end")
            fb.emit("iterator.incr_by", fb.var("cur"), length,
                    target=end_iter)
            if store is not None:
                value = fb.temp(ht.ANY, "bytes_val")
                fb.emit("bytes.sub", fb.var("cur"), end_iter, target=value)
                store(value)
            fb.emit("assign", end_iter, target=fb.var("cur"))
            return
        if field.eod:
            # Consume everything up to the (frozen) end of the data.
            if not self.datagram:
                take = fb.fresh_label("eod_take")
                self._undecided(self._retry_point("eod_wait"), take)
                fb.block(take)
            end_iter = fb.temp(ht.ANY, "eod_end")
            fb.emit("bytes.end", fb.var("data"), target=end_iter)
            if store is not None:
                value = fb.temp(ht.ANY, "eod_val")
                fb.emit("bytes.sub", fb.var("cur"), end_iter, target=value)
                store(value)
            fb.emit("assign", end_iter, target=fb.var("cur"))
            return
        # &until=/re/: take bytes up to the first delimiter match; the
        # delimiter itself is consumed (and included when include_delim).
        delim = self._regexp(field.until)
        retry = self._retry_point("until")
        take = fb.fresh_label("until_take")
        fail = fb.fresh_label("until_fail")
        result = fb.temp(ht.ANY, "until_res")
        status = fb.temp(ht.INT64, "until_status")
        fb.call("BinPAC::find_delim", [fb.var("data"), fb.var("cur"), delim],
                target=result)
        fb.emit("tuple.index", result, fb.const(ht.INT64, 0), target=status)
        found = fb.temp(ht.BOOL, "until_found")
        fb.emit("int.gt", status, fb.const(ht.INT64, 0), target=found)
        if retry is None:
            # Whole input: find_delim has decided (status 1 or 0).
            fb.branch(found, take, fail)
        else:
            undecided = fb.fresh_label("until_more")
            suspend = fb.fresh_label("until_wait")
            fb.branch(found, take, undecided)
            fb.block(undecided)
            needs_more = fb.temp(ht.BOOL, "until_need")
            fb.emit("int.lt", status, fb.const(ht.INT64, 0),
                    target=needs_more)
            fb.branch(needs_more, suspend, fail)
            fb.block(suspend)
            fb.emit("yield")
            fb.jump(retry)
        fb.block(fail)
        self._fail(f"delimiter /{field.until}/ not found before end of input")
        fb.block(take)
        delim_begin = fb.temp(ht.ANY, "delim_begin")
        delim_end = fb.temp(ht.ANY, "delim_end")
        fb.emit("tuple.index", result, fb.const(ht.INT64, 1),
                target=delim_begin)
        fb.emit("tuple.index", result, fb.const(ht.INT64, 2),
                target=delim_end)
        if store is not None:
            value = fb.temp(ht.ANY, "until_val")
            boundary = delim_end if field.include_delim else delim_begin
            fb.emit("bytes.sub", fb.var("cur"), boundary, target=value)
            store(value)
        fb.emit("assign", delim_end, target=fb.var("cur"))

    def _emit_subunit(self, field: SubUnitField,
                      store: Optional[Callable]) -> None:
        fb = self.fb
        unit = self.grammar.units.get(field.unit_name)
        if unit is None:
            raise GrammarError(f"unknown unit {field.unit_name!r}")
        if not unit.params and not field.args and unit.fields and all(
                isinstance(inner, PatternField) and inner.condition is None
                for inner in unit.fields):
            # A token-only unit, inlined: what its parse function does
            # (new, its tokens as one run, %done), minus the call.
            obj = fb.temp(ht.ANY, "sub_obj")
            fb.emit("new", fb.type_ref(self.struct_types[unit.name]),
                    target=obj)
            self._emit_token_run(unit.fields, obj)
            self._run_done_hook(unit, obj)
            if store is not None:
                store(obj)
            return
        args = [fb.var("data"), fb.var("cur")]
        args += [self.eval_expr(a) for a in field.args]
        pair = fb.temp(ht.ANY, "sub_pair")
        fb.call(f"{self.grammar.name}::{field.unit_name}::parse", args,
                target=pair)
        if store is not None:
            value = fb.temp(ht.ANY, "sub_obj")
            fb.emit("tuple.index", pair, fb.const(ht.INT64, 0), target=value)
            store(value)
        advanced = fb.temp(ht.ANY, "sub_cur")
        fb.emit("tuple.index", pair, fb.const(ht.INT64, 1), target=advanced)
        fb.emit("assign", advanced, target=fb.var("cur"))

    def _emit_list(self, field: ListField, store: Optional[Callable]) -> None:
        fb = self.fb
        items = fb.temp(ht.ANY, "items")
        fb.emit("new", fb.type_ref(ht.ListT(ht.ANY)), target=items)

        def push(value_operand) -> None:
            fb.emit("list.push_back", items, value_operand)

        # Every element lands in the list, named or not — the list itself
        # is the stored value.
        element_store = push
        if field.count is not None:
            count = self.eval_expr(field.count)
            remaining = fb.temp(ht.INT64, "remaining")
            fb.emit("assign", count, target=remaining)
            head = fb.fresh_label("list_head")
            body = fb.fresh_label("list_body")
            done = fb.fresh_label("list_done")
            fb.jump(head)
            fb.block(head)
            more = fb.temp(ht.BOOL, "more")
            fb.emit("int.gt", remaining, fb.const(ht.INT64, 0), target=more)
            fb.branch(more, body, done)
            fb.block(body)
            self._emit_field_inner(field.element, element_store)
            decremented = fb.temp(ht.INT64, "dec")
            fb.emit("int.decr", remaining, target=decremented)
            fb.emit("assign", decremented, target=remaining)
            fb.jump(head)
            fb.block(done)
        elif field.until_input is not None:
            # Stop when the input at cur matches the sentinel pattern; the
            # sentinel is consumed.
            sentinel = self._regexp(field.until_input)
            head = fb.fresh_label("ulist_head")
            body = fb.fresh_label("ulist_body")
            stop = fb.fresh_label("ulist_stop")
            undecided = fb.fresh_label("ulist_more")
            fb.jump(head)
            fb.block(head)
            result = fb.temp(ht.ANY, "ulist_match")
            status = fb.temp(ht.INT64, "ulist_status")
            end_iter = fb.temp(ht.ANY, "ulist_end")
            hit = fb.temp(ht.BOOL, "ulist_hit")
            fb.emit("regexp.match_token", sentinel, fb.var("cur"),
                    target=result)
            fb.emit("tuple.index", result, fb.const(ht.INT64, 0),
                    target=status)
            fb.emit("tuple.index", result, fb.const(ht.INT64, 1),
                    target=end_iter)
            fb.emit("int.gt", status, fb.const(ht.INT64, 0), target=hit)
            fb.branch(hit, stop, undecided)
            fb.block(undecided)
            needs_more = fb.temp(ht.BOOL, "ulist_need")
            fb.emit("int.lt", status, fb.const(ht.INT64, 0),
                    target=needs_more)
            decide = fb.fresh_label("ulist_decide")
            fb.branch(needs_more, decide, body)
            fb.block(decide)
            self._undecided(None if self.datagram else head, body)
            fb.block(body)
            self._emit_field_inner(field.element, element_store)
            fb.jump(head)
            fb.block(stop)
            fb.emit("assign", end_iter, target=fb.var("cur"))
        else:  # eod
            head = fb.fresh_label("elist_head")
            body = fb.fresh_label("elist_body")
            check = fb.fresh_label("elist_check")
            done = fb.fresh_label("elist_done")
            fb.jump(head)
            fb.block(head)
            at_end = fb.temp(ht.BOOL, "elist_at_end")
            fb.emit("bytes.at_end", fb.var("cur"), target=at_end)
            fb.branch(at_end, check, body)
            fb.block(check)
            self._undecided(None if self.datagram else head, done)
            fb.block(body)
            self._emit_field_inner(field.element, element_store)
            fb.jump(head)
            fb.block(done)
        if store is not None:
            store(items)

    def _emit_native(self, field: NativeField,
                     store: Optional[Callable]) -> None:
        fb = self.fb
        args = [fb.var("data"), fb.var("cur")]
        args += [self.eval_expr(a) for a in field.args]
        pair = fb.temp(ht.ANY, "native_pair")
        fb.call(f"BinPAC::{field.native}", args, target=pair)
        if store is not None:
            value = fb.temp(ht.ANY, "native_val")
            fb.emit("tuple.index", pair, fb.const(ht.INT64, 0), target=value)
            store(value)
        advanced = fb.temp(ht.ANY, "native_cur")
        fb.emit("tuple.index", pair, fb.const(ht.INT64, 1), target=advanced)
        fb.emit("assign", advanced, target=fb.var("cur"))

    def _emit_switch(self, field: SwitchField) -> None:
        fb = self.fb
        selector = self.eval_expr(field.selector)
        done = fb.fresh_label("switch_done")
        default = fb.fresh_label("switch_default")
        cases = []
        labels = []
        for index, (value, __) in enumerate(field.cases):
            label = fb.fresh_label(f"case{index}")
            labels.append(label)
            cases.append(TupleOp((fb.const(ht.ANY, value),
                                  LabelRef(label))))
        fb.emit("switch", selector, LabelRef(default), *cases)
        for label, (__, case_field) in zip(labels, field.cases):
            fb.block(label)
            self.emit_field(case_field, self._store_to_struct(case_field))
            fb.jump(done)
        fb.block(default)
        if field.default is not None:
            self.emit_field(field.default,
                            self._store_to_struct(field.default))
        fb.jump(done)
        fb.block(done)

    def _emit_seek(self, field: SeekField) -> None:
        fb = self.fb
        mark = fb.temp(ht.ANY, "mark")
        fb.emit("struct.get", self.obj, fb.field(field.mark), target=mark)
        offset = self.eval_expr(field.offset)
        target_iter = fb.temp(ht.ANY, "seek_to")
        fb.emit("iterator.incr_by", mark, offset, target=target_iter)
        fb.emit("assign", target_iter, target=fb.var("cur"))


class GrammarCompiler:
    """Compiles a grammar into a HILTI module (plus hook glue)."""

    def __init__(self, grammar: Grammar):
        self.grammar = grammar
        self.mb = ModuleBuilder(grammar.name)
        self.struct_types: Dict[str, ht.StructT] = {}
        self.token_cache: Dict[str, RegExp] = {}

    def compile_module(self) -> Module:
        for unit in self.grammar.units.values():
            fields = [(name, ht.ANY) for name in unit.stored_fields()]
            self.struct_types[unit.name] = self.mb.struct(
                unit.name.replace("::", "_"), fields
            )
        for unit in self.grammar.units.values():
            compiler = _UnitCompiler(
                self.grammar, unit, self.mb, self.struct_types,
                self.token_cache,
            )
            compiler.emit_unit_body()
        return self.mb.finish()


class Parser:
    """Host-side handle: one compiled grammar, ready to parse.

    ``parse(unit, data)`` runs to completion over complete input — the
    one entry of a datagram grammar, whose parse functions are plain
    calls; ``start(unit)`` returns an incremental session of a stream
    grammar: feed chunks with ``session.feed(b"...")``, finish with
    ``session.done()``.  *tier* is ``hiltic``'s: the reference
    interpreter runs the same parsers as the code generator.
    """

    def __init__(self, grammar: Grammar, extra_modules=(),
                 natives: Optional[dict] = None,
                 on_event: Optional[Callable] = None,
                 opt_level: Optional[int] = None,
                 tier: str = "compiled"):
        self.grammar = grammar
        self.tier = tier
        compiled_module = GrammarCompiler(grammar).compile_module()
        table = bp_runtime.natives()
        if natives:
            table.update(natives)
        self._events: List = []
        self.on_event = on_event

        def raise_event(ctx, name, args):
            if self.on_event is not None:
                self.on_event(name, args)
            else:
                self._events.append((name, args))

        table.setdefault("Bro::raise_event", raise_event)
        self.program = hiltic(
            [compiled_module, *extra_modules],
            natives=table,
            opt_level=opt_level,
            tier=tier,
        )
        self.ctx = self.program.make_context()
        self._stubs: Dict[str, Stub] = {}

    def events(self) -> List:
        """Events collected so far (when no on_event callback is set)."""
        out = self._events
        self._events = []
        return out

    def stub(self, unit_name: str) -> Stub:
        """The host stub of *unit_name*'s parse function (built once)."""
        stub = self._stubs.get(unit_name)
        if stub is None:
            stub = self._stubs[unit_name] = Stub(
                self.program, f"{self.grammar.name}::{unit_name}::parse")
        return stub

    def parse(self, unit_name: str, data):
        """One-shot parse of complete input — any bytes-like object or a
        ``Bytes``, copied once into a frozen buffer; returns the unit
        struct."""
        buf = Bytes(data._data if isinstance(data, Bytes) else data)
        buf.freeze()
        return self.stub(unit_name).call(self.ctx, buf, buf.begin())[0]

    def start(self, unit_name: str) -> "ParseSession":
        if self.grammar.datagram:
            raise GrammarError(
                f"grammar {self.grammar.name} parses whole datagrams: "
                f"use parse(), not an incremental session")
        if self.tier == "interpreted":
            # The interpreter runs `yield` to completion: a session on
            # an empty buffer would retry forever.
            raise GrammarError("the interpreted tier cannot suspend: "
                               "use parse(), not an incremental session")
        return ParseSession(self, unit_name)


class ParseSession:
    """An incremental parse riding a suspended fiber."""

    def __init__(self, parser: Parser, unit_name: str):
        self.parser = parser
        self.buffer = Bytes()
        self.result = None
        self.finished = False
        # The stub runs the parse up to its first suspension (empty
        # buffer -> immediate yield unless the unit is empty).
        started = parser.stub(unit_name).start(
            parser.ctx, self.buffer, self.buffer.begin())
        self.fiber = started.fiber
        if self.fiber is None:
            self._complete(started.value)

    def _advance(self) -> None:
        outcome = self.fiber.resume()
        if outcome is not YIELDED:
            self._complete(outcome)

    def _complete(self, outcome) -> None:
        self.finished = True
        self.result = outcome[0] if outcome is not None else None

    def feed(self, data: bytes) -> bool:
        """Append payload; returns True once the unit completed."""
        if self.finished:
            return True
        self.buffer.append(data)
        self._advance()
        return self.finished

    def done(self):
        """Signal end of input; returns the parsed struct."""
        if not self.finished:
            self.buffer.freeze()
            self._advance()
        return self.result


def compile_grammar(grammar: Grammar, **kwargs) -> Parser:
    """Compile *grammar* and return a ready host-side Parser."""
    return Parser(grammar, **kwargs)
