"""fuzz — the coverage-guided differential oracle for the optimizer.

The ``-O1`` pass pipeline rewrites the IR the compiled tier runs; the
reference interpreter always executes the *unoptimized* IR.  That
pairing is a differential oracle: for any program, every compiled level
must produce byte-identical observable behaviour to the interpreter.
This tool generates random-but-well-typed programs and drives the
oracle at scale::

    python -m repro.tools.fuzz --seed 1 --count 500
    python -m repro.tools.fuzz --replay tests/core/fuzz_corpus
    python -m repro.tools.fuzz --seed 7 --count 200 \
        --emit-corpus tests/core/fuzz_corpus

Five lanes, each a different program source:

* ``module`` — random HILTI modules built through ``core.builder``:
  integer dataflow, branches, bounded loops, switches, lexical
  fallthrough blocks, div/mod traps, calls into small helper
  functions of five shapes, struct ops on typed, ``any`` and null
  operands (the codegen's slot inline cache), and what the code generator turns into Python control flow
  of its own: ``yield`` (in ``Main::f`` and in suspending helpers),
  ``try.begin``/``try.end`` scopes with throws from ``int.div`` and
  ``exception.throw`` inside and outside them, and hooks with 0-3
  bodies, priorities, a group that gets disabled, and ``hook.stop``.
  Oracle: interpreter vs compiled ``-O0``/``-O1``, each compiled
  program driven through ``call_fiber`` to completion: outcome (value
  or exception type), the number of suspensions (the interpreter counts
  the yields it passes), plus the ``ctx.instr_count`` parity invariant
  between the interpreter and ``-O0``.
* ``filter`` — random BPF expressions over well-formed and mutated
  frames; the classic VM, the interpreted tier, and every compiled
  level must agree on each accept/reject decision.
* ``script`` — random mini-Bro functions run on the tree-walking
  script interpreter and the HILTI script compiler at every level.
* ``pac`` — malformed HTTP request or reply streams through the
  BinPAC++-generated parser, whose token runs and token-only units
  compile to one ``regexp.match_seq`` each.  Oracle: that parser — on
  the interpreter one-shot, at every compiled level one-shot and fed in
  random chunks — against an unfused build of the same grammar at
  ``-O0``: equal unit events (every field), parse error class and
  message, and completion state, plus ``instr_count`` parity between
  the interpreter and ``-O0``.  Corpus cases are ``.http`` files (unit,
  feed splits, hex).
* ``dns`` — well-formed DNS responses malformed by truncation, label
  lengths over 63, self- and forward-pointing compression pointers,
  pointers past the end, count fields larger than the body, ``rdlength``
  mismatches and bit flips.  Oracle: the datagram grammar's one-shot
  parse on the interpreter and at every compiled level against an
  always-incremental build of the same grammar fed the same bytes —
  equal unit fields or the same error class — plus ``instr_count``
  parity between the interpreter and ``-O0``.  Corpus cases are hex
  ``.dns`` files.

Coverage guidance: each module case's ``-O1`` ``OptStats`` counters
(which passes actually fired) plus its structural features form a
signature; cases with novel signatures enter a pool that seeds further
mutations, steering generation toward optimizer paths not yet hit.
Diverging cases are minimized greedily (drop statements, unwrap
control flow, shrink constants) before being reported or written to
the corpus, so a failure lands as a small reproducible ``.hlt`` file.
"""

from __future__ import annotations

import argparse
import copy
import json
import random
import re
import struct
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import types as ht
from ..core.builder import FunctionBuilder, ModuleBuilder
from ..core.optimize import OPT_LEVELS
from ..core.parser import parse_module
from ..core.printer import print_module
from ..core.toolchain import hiltic
from ..runtime.bytes_buffer import Bytes, BytesIter
from ..runtime.containers import HiltiList
from ..runtime.exceptions import HiltiError, builtin_exception_types
from ..runtime.fibers import YIELDED
from ..runtime.structs import UNSET, StructInstance

__all__ = [
    "Fuzzer",
    "build_module",
    "dns_case_source",
    "gen_dns_input",
    "gen_dns_message",
    "gen_http_input",
    "gen_module_spec",
    "minimize_module_case",
    "module_case_source",
    "mutate_module_spec",
    "pac_case_source",
    "run_corpus_text",
    "run_dns_corpus_text",
    "run_filter_case",
    "run_module_case",
    "run_pac_corpus_text",
    "run_script_case",
    "unfused_http_grammar",
]

_N_VARS = 4
_ENTRY = "Main::f"

_BINOPS = ["int.add", "int.sub", "int.mul", "int.min", "int.max",
           "int.and", "int.or", "int.xor"]
_CMP_OPS = ["int.eq", "int.lt", "int.le", "int.gt", "int.ge"]
_DIV_OPS = ["int.div", "int.mod"]

# ---------------------------------------------------------------------------
# Module lane: spec -> IR
#
# A *spec* is a JSON-serializable description of one program: a list of
# helper functions plus a statement tree for ``Main::f``.  Everything
# the oracle runs is rebuilt from the spec (the optimizer mutates
# modules in place), and the corpus stores specs rendered to textual
# HILTI, so a case survives minimization, serialization, and replay.
#
# Operands are ``["v", i]`` (variable ``v<i>``) or ``["c", n]`` (an
# int<64> constant).  Statements:
#
#   ["op", mnemonic, target, a, b]          pure binary op
#   ["div", mnemonic, target, a, b]         int.div / int.mod (may trap)
#   ["if", cmp, a, b, then, else]           comparison + branch
#   ["loop", n, body]                       counted loop, 0..6 trips
#   ["switch", a, [[const, stmts]...], default_stmts]
#   ["fallthrough", stmts]                  stmts, then a lexical
#                                           fallthrough into a fresh block
#   ["call", helper_name, [operand...], target]
#   ["yield"]                               a suspension point
#   ["try", stmts, exc, handler_stmts]      try scope catching _EXC_TYPES[exc]
#   ["throw", exc, cmp, a, b]               if cmp(a, b): throw _EXC_TYPES[exc]
#   ["hook", hook_index, operand, target]   target = stop value (or the
#                                           global `acc`) of hook.run
#   ["group", "disable" | "enable"]         the hook group "g"
#   ["struct", op, which, field, target, operand]
#       op: get / set / is_set / unset / get_default on struct variable
#       `which` (sa: ref<A>, sb: ref<B>, so: any, sn: a null ref<A>);
#       "pick" points `so` at sa or sb; "via" digests all three fields
#       through the helper Main::sx(any), whose sites then see both
#       struct types (inline-cache misses and hits) — f ends by adding
#       sx(sa), sx(sb), sx(so), sx(sa) to its result.  A and B order
#       x, y, z differently, so a stale slot index reads the wrong field.
#
# Helpers are int<64> -> int<64> functions in one of five shapes:
# "leaf" (a single pure block), "init" (leaf plus an initialized local,
# which every call must reset), "branchy" (two-armed), "big" (a long
# straight-line body), and "susp" (a leaf that yields half way, so
# every caller up to Main::f compiles to a generator).
#
# spec["hooks"] is a list of body lists; hook i is Main::hk<i>(x).  A
# body is {"priority", "group" (bool), "ops" [[mnemonic, operand]...]
# folded into the global `acc`, "yields" (bool), "stop" (operand or
# None)}; inside a body operands index (x, acc).


def _operand(fb: FunctionBuilder, spec, names: Sequence[str]):
    kind, value = spec
    if kind == "v":
        return fb.var(names[value % len(names)])
    return fb.const(ht.INT64, int(value))


def _gen_operand(rng: random.Random, n_vars: int, lo=-50, hi=50):
    if rng.random() < 0.6:
        return ["v", rng.randrange(n_vars)]
    return ["c", rng.randint(lo, hi)]


def _gen_ops(rng: random.Random, n_vars: int, count: int) -> List:
    return [["op", rng.choice(_BINOPS), rng.randrange(n_vars),
             _gen_operand(rng, n_vars), _gen_operand(rng, n_vars)]
            for __ in range(count)]


def _gen_helper(rng: random.Random, index: int) -> Dict:
    kind = rng.choice(["leaf", "leaf", "init", "branchy", "big", "susp"])
    nparams = rng.randint(1, 3)
    n_vars = nparams + (1 if kind == "init" else 0)
    sizes = {"leaf": (1, 6), "init": (1, 5), "branchy": (1, 4),
             "big": (18, 22), "susp": (2, 6)}
    ops = _gen_ops(rng, n_vars, rng.randint(*sizes[kind]))
    helper = {
        "name": f"h{index}",
        "kind": kind,
        "params": nparams,
        "ops": ops,
        "ret": _gen_operand(rng, n_vars),
    }
    if kind == "init":
        helper["init"] = rng.randint(-20, 20)
    if kind == "branchy":
        helper["cmp"] = [rng.choice(_CMP_OPS),
                         _gen_operand(rng, nparams),
                         _gen_operand(rng, nparams)]
        helper["else_ops"] = _gen_ops(rng, n_vars,
                                      rng.randint(*sizes[kind]))
    return helper


_STRUCT_OPS = ["get", "set", "set", "is_set", "unset", "get_default",
               "pick", "via"]
_STRUCT_VARS = ["sa", "sb", "so", "sn"]
_EXC_TYPES = ["Hilti::DivisionByZero", "Hilti::ValueError",
              "Hilti::Exception"]
_MAX_HOOKS = 2


def _gen_stmt(rng: random.Random, helpers: Sequence[Dict],
              depth: int) -> List:
    roll = rng.random()
    if 0.30 <= roll < 0.36:
        return ["struct", rng.choice(_STRUCT_OPS),
                rng.choice([0, 1, 2, 2, 2, 3]), rng.choice("xyz"),
                rng.randrange(_N_VARS), _gen_operand(rng, _N_VARS)]
    if 0.36 <= roll < 0.40:
        return ["yield"]
    if 0.40 <= roll < 0.44:
        return ["throw", rng.randrange(len(_EXC_TYPES)),
                rng.choice(_CMP_OPS), _gen_operand(rng, _N_VARS),
                _gen_operand(rng, _N_VARS)]
    if 0.44 <= roll < 0.48:
        if rng.random() < 0.2:
            return ["group", rng.choice(["disable", "disable", "enable"])]
        return ["hook", rng.randrange(_MAX_HOOKS),
                _gen_operand(rng, _N_VARS), rng.randrange(_N_VARS)]
    if depth >= 2 or roll < 0.36:
        return ["op", rng.choice(_BINOPS), rng.randrange(_N_VARS),
                _gen_operand(rng, _N_VARS), _gen_operand(rng, _N_VARS)]
    if roll < 0.53:
        return ["div", rng.choice(_DIV_OPS), rng.randrange(_N_VARS),
                _gen_operand(rng, _N_VARS), _gen_operand(rng, _N_VARS)]
    if roll < 0.60:
        return ["try", _gen_stmts(rng, helpers, depth + 1, 1, 3),
                rng.randrange(len(_EXC_TYPES)),
                _gen_stmts(rng, helpers, depth + 1, 0, 2)]
    if roll < 0.70:
        return ["if", rng.choice(_CMP_OPS),
                _gen_operand(rng, _N_VARS), _gen_operand(rng, _N_VARS),
                _gen_stmts(rng, helpers, depth + 1, 1, 3),
                _gen_stmts(rng, helpers, depth + 1, 0, 3)]
    if roll < 0.79:
        return ["loop", rng.randint(0, 6),
                _gen_stmts(rng, helpers, depth + 1, 1, 3)]
    if roll < 0.85:
        cases, seen = [], set()
        for __ in range(rng.randint(1, 3)):
            const = rng.randint(-6, 6)
            if const in seen:
                continue
            seen.add(const)
            cases.append([const, _gen_stmts(rng, helpers, depth + 1, 1, 2)])
        return ["switch", _gen_operand(rng, _N_VARS, -6, 6), cases,
                _gen_stmts(rng, helpers, depth + 1, 0, 2)]
    if roll < 0.92 or not helpers:
        return ["fallthrough", _gen_stmts(rng, helpers, depth + 1, 1, 2)]
    helper = rng.choice(helpers)
    arguments = [
        ["c", rng.randint(-9, 9)] if rng.random() < 0.5
        else _gen_operand(rng, _N_VARS)
        for __ in range(helper["params"])
    ]
    return ["call", helper["name"], arguments, rng.randrange(_N_VARS)]


def _gen_stmts(rng: random.Random, helpers: Sequence[Dict], depth: int,
               lo: int, hi: int) -> List:
    return [_gen_stmt(rng, helpers, depth)
            for __ in range(rng.randint(lo, hi))]


def _gen_hook_body(rng: random.Random) -> Dict:
    return {
        "priority": rng.randint(-2, 2),
        "group": rng.random() < 0.3,
        "ops": [[rng.choice(_BINOPS), _gen_operand(rng, 2, -9, 9)]
                for __ in range(rng.randint(1, 3))],
        "yields": rng.random() < 0.3,
        "stop": _gen_operand(rng, 2, -9, 9) if rng.random() < 0.3 else None,
    }


def gen_module_spec(rng: random.Random) -> Dict:
    helpers = [_gen_helper(rng, i) for i in range(rng.randint(0, 3))]
    return {
        "helpers": helpers,
        "hooks": [[_gen_hook_body(rng) for __ in range(rng.randint(0, 3))]
                  for __ in range(_MAX_HOOKS)],
        "body": _gen_stmts(rng, helpers, 0, 2, 7),
    }


def _build_helper(mb: ModuleBuilder, helper: Dict) -> None:
    nparams = helper["params"]
    names = [f"p{i}" for i in range(nparams)]
    fb = mb.function(helper["name"],
                     [(name, ht.INT64) for name in names], ht.INT64)
    if "init" in helper:
        fb.local("acc", ht.INT64, helper["init"])
        names.append("acc")

    def emit_ops(ops):
        for __, mnemonic, target, a, b in ops:
            fb.emit(mnemonic, _operand(fb, a, names),
                    _operand(fb, b, names),
                    target=fb.var(names[target % len(names)]))

    if helper["kind"] == "branchy":
        cmp_op, a, b = helper["cmp"]
        cond = fb.temp(ht.BOOL, "c")
        fb.emit(cmp_op, _operand(fb, a, names), _operand(fb, b, names),
                target=cond)
        fb.branch(cond, "then", "orelse")
        fb.block("then")
        emit_ops(helper["ops"])
        fb.jump("done")
        fb.block("orelse")
        emit_ops(helper["else_ops"])
        fb.jump("done")
        fb.block("done")
    elif helper["kind"] == "susp":
        half = len(helper["ops"]) // 2
        emit_ops(helper["ops"][:half])
        fb.emit("yield")
        emit_ops(helper["ops"][half:])
    else:
        emit_ops(helper["ops"])
    fb.ret(_operand(fb, helper["ret"], names))


def _build_hooks(mb: ModuleBuilder, hooks: Sequence) -> None:
    for index, bodies in enumerate(hooks):
        for body in bodies:
            fb = mb.hook(f"hk{index}", [("x", ht.INT64)],
                         priority=body["priority"],
                         group="g" if body["group"] else None)
            names = ["x", "acc"]
            for mnemonic, operand in body["ops"]:
                fb.emit(mnemonic, fb.var("acc"),
                        _operand(fb, operand, names), target=fb.var("acc"))
            if body["yields"]:
                fb.emit("yield")
            if body["stop"] is not None:
                fb.emit("hook.stop", _operand(fb, body["stop"], names))


def _emit_stmts(fb: FunctionBuilder, stmts: Sequence, names: List[str],
                helpers: Dict[str, Dict]) -> None:
    for stmt in stmts:
        tag = stmt[0]
        if tag == "op" or tag == "div":
            __, mnemonic, target, a, b = stmt
            fb.emit(mnemonic, _operand(fb, a, names),
                    _operand(fb, b, names),
                    target=fb.var(names[target % len(names)]))
        elif tag == "if":
            __, cmp_op, a, b, then_stmts, else_stmts = stmt
            cond = fb.temp(ht.BOOL, "c")
            fb.emit(cmp_op, _operand(fb, a, names),
                    _operand(fb, b, names), target=cond)
            then_l, else_l, join = (fb.fresh_label("t"),
                                    fb.fresh_label("e"),
                                    fb.fresh_label("j"))
            fb.branch(cond, then_l, else_l)
            fb.block(then_l)
            _emit_stmts(fb, then_stmts, names, helpers)
            fb.jump(join)
            fb.block(else_l)
            _emit_stmts(fb, else_stmts, names, helpers)
            fb.jump(join)
            fb.block(join)
        elif tag == "loop":
            __, trips, body = stmt
            counter = fb.temp(ht.INT64, "i")
            more = fb.temp(ht.BOOL, "m")
            head, body_l, out = (fb.fresh_label("h"),
                                 fb.fresh_label("b"),
                                 fb.fresh_label("o"))
            fb.emit("assign", fb.const(ht.INT64, 0), target=counter)
            fb.jump(head)
            fb.block(head)
            fb.emit("int.lt", counter, fb.const(ht.INT64, int(trips)),
                    target=more)
            fb.branch(more, body_l, out)
            fb.block(body_l)
            _emit_stmts(fb, body, names, helpers)
            fb.emit("int.incr", counter, target=counter)
            fb.jump(head)
            fb.block(out)
        elif tag == "switch":
            __, scrutinee, cases, default_stmts = stmt
            join = fb.fresh_label("j")
            default_l = fb.fresh_label("d")
            labels = [fb.fresh_label("s") for __ in cases]
            case_ops = [
                fb.args(fb.const(ht.INT64, int(const)), fb.label(label))
                for (const, __), label in zip(cases, labels)
            ]
            fb.emit("switch", _operand(fb, scrutinee, names),
                    fb.label(default_l), *case_ops)
            for (__, case_stmts), label in zip(cases, labels):
                fb.block(label)
                _emit_stmts(fb, case_stmts, names, helpers)
                fb.jump(join)
            fb.block(default_l)
            _emit_stmts(fb, default_stmts, names, helpers)
            fb.jump(join)
            fb.block(join)
        elif tag == "fallthrough":
            __, body = stmt
            _emit_stmts(fb, body, names, helpers)
            # No terminator: execution falls through lexically into the
            # next block — the shape merge_blocks' off-the-end repair
            # must keep honest in value-returning functions.
            fb.block(fb.fresh_label("ft"))
        elif tag == "struct":
            __, op, which, field, target, operand = stmt
            ref = fb.var(_STRUCT_VARS[which % 4])
            dest = fb.var(names[target % len(names)])
            value = _operand(fb, operand, names)
            if op == "pick":
                fb.emit("assign", fb.var(_STRUCT_VARS[which % 2]),
                        target=fb.var("so"))
            elif op == "via":
                fb.call("Main::sx", [ref], target=dest)
            elif op == "is_set":
                flag = fb.temp(ht.BOOL, "s")
                fb.emit("struct.is_set", ref, fb.field(field), target=flag)
                fb.emit("select", flag, fb.const(ht.INT64, 1),
                        fb.const(ht.INT64, 0), target=dest)
            else:  # get / get_default / set / unset
                extra = [value] if op in ("set", "get_default") else []
                fb.emit(f"struct.{op}", ref, fb.field(field), *extra,
                        target=dest if op.startswith("get") else None)
        elif tag == "yield":
            fb.emit("yield")
        elif tag == "try":
            __, body, exc, handler_stmts = stmt
            exc_type = builtin_exception_types()[
                _EXC_TYPES[exc % len(_EXC_TYPES)]]
            handler, after = fb.fresh_label("x"), fb.fresh_label("a")
            fb.emit("try.begin", fb.label(handler), fb.type_ref(exc_type),
                    fb.temp(ht.RefT(exc_type), "e"))
            _emit_stmts(fb, body, names, helpers)
            fb.emit("try.end")
            fb.jump(after)
            fb.block(handler)
            _emit_stmts(fb, handler_stmts, names, helpers)
            fb.jump(after)
            fb.block(after)
        elif tag == "throw":
            __, exc, cmp_op, a, b = stmt
            cond = fb.temp(ht.BOOL, "c")
            fb.emit(cmp_op, _operand(fb, a, names),
                    _operand(fb, b, names), target=cond)
            throw_l, on = fb.fresh_label("r"), fb.fresh_label("n")
            fb.branch(cond, throw_l, on)
            fb.block(throw_l)
            error = fb.temp(ht.ANY, "x")
            fb.emit("exception.new",
                    fb.field(_EXC_TYPES[exc % len(_EXC_TYPES)]),
                    fb.const(ht.STRING, "fuzz"), target=error)
            fb.emit("exception.throw", error)
            fb.block(on)
        elif tag == "hook":
            __, index, operand, target = stmt
            stopped, ran_out = fb.temp(ht.ANY, "h"), fb.temp(ht.BOOL, "n")
            fb.emit("hook.run", fb.field(f"Main::hk{index % _MAX_HOOKS}"),
                    fb.args(_operand(fb, operand, names)), target=stopped)
            fb.emit("equal", stopped, fb.const(ht.ANY, None),
                    target=ran_out)
            fb.emit("select", ran_out, fb.var("acc"), stopped,
                    target=fb.var(names[target % len(names)]))
        elif tag == "group":
            fb.emit(f"hook.group_{stmt[1]}", fb.field("g"))
        elif tag == "call":
            __, name, arguments, target = stmt
            helper = helpers.get(name)
            if helper is None:
                continue
            ops = [_operand(fb, a, names)
                   for a in arguments[:helper["params"]]]
            while len(ops) < helper["params"]:
                ops.append(fb.const(ht.INT64, 0))
            fb.call(f"Main::{name}", ops,
                    target=fb.var(names[target % len(names)]))
        else:  # pragma: no cover - spec invariant
            raise ValueError(f"unknown fuzz statement {tag!r}")


def build_module(spec: Dict):
    """Build the spec's module fresh (callers compile it destructively)."""
    mb = ModuleBuilder("Main")
    mb.global_var("acc", ht.INT64)
    helpers = {helper["name"]: helper for helper in spec["helpers"]}
    for helper in spec["helpers"]:
        _build_helper(mb, helper)
    _build_hooks(mb, spec.get("hooks", ()))
    names = [f"v{i}" for i in range(_N_VARS)]
    uses_structs = any(
        stmt[0] == "struct" for stmt in _walk_stmts(spec["body"]))
    if uses_structs:
        fields = {"x": ht.StructField("x", ht.INT64),
                  "y": ht.StructField("y", ht.INT64, 7),
                  "z": ht.StructField("z", ht.INT64)}
        type_a = mb.type("A", ht.StructT("Main::A", fields.values()))
        type_b = mb.type("B", ht.StructT(
            "Main::B", [fields["z"], fields["y"], fields["x"]]))
        sx = mb.function("sx", [("s", ht.ANY)], ht.INT64)
        digest, part = sx.local("r", ht.INT64, 0), sx.local("t", ht.INT64)
        for weight, field in enumerate("xyz", 2):
            sx.emit("struct.get_default", sx.var("s"), sx.field(field),
                    sx.const(ht.INT64, -weight), target=part)
            sx.emit("int.mul", digest, sx.const(ht.INT64, weight),
                    target=digest)
            sx.emit("int.add", digest, part, target=digest)
        sx.ret(digest)
    fb = mb.function("f", [(name, ht.INT64) for name in names], ht.INT64)
    if uses_structs:
        fb.emit("new", fb.type_ref(type_a),
                target=fb.local("sa", ht.RefT(type_a)))
        fb.emit("new", fb.type_ref(type_b),
                target=fb.local("sb", ht.RefT(type_b)))
        fb.local("sn", ht.RefT(type_a))
        fb.emit("assign", fb.var("sa"), target=fb.local("so", ht.ANY))
    _emit_stmts(fb, spec["body"], names, helpers)
    total = fb.temp(ht.INT64, "total")
    fb.emit("assign", fb.const(ht.INT64, 0), target=total)
    for name in names + ["acc"]:
        fb.emit("int.add", total, fb.var(name), target=total)
    if uses_structs:
        for ref in ("sa", "sb", "so", "sa"):
            fb.call("Main::sx", [fb.var(ref)], target=fb.var(names[0]))
            fb.emit("int.add", total, fb.var(names[0]), target=total)
    fb.ret(total)
    return mb.finish()


def mutate_module_spec(rng: random.Random, spec: Dict) -> Dict:
    """One random structural edit, for coverage-pool evolution."""
    mutant = copy.deepcopy(spec)
    body = mutant["body"]
    roll = rng.random()
    if roll < 0.3 and body:
        # Tweak one constant somewhere in the tree.
        def tweak(node):
            if isinstance(node, list):
                if len(node) == 2 and node[0] == "c" \
                        and isinstance(node[1], int):
                    node[1] = rng.randint(-50, 50)
                    return True
                for child in rng.sample(node, len(node)):
                    if tweak(child):
                        return True
            return False
        tweak(body)
    elif roll < 0.5 and len(body) > 1:
        body.pop(rng.randrange(len(body)))
    elif roll < 0.7 and body:
        body.insert(rng.randrange(len(body) + 1),
                    copy.deepcopy(rng.choice(body)))
    else:
        body.append(_gen_stmt(rng, mutant["helpers"], 0))
    return mutant


# ---------------------------------------------------------------------------
# Module lane: the oracle


def _outcome(call):
    try:
        return ("ok", call())
    except HiltiError as error:
        return ("raise", error.except_type.type_name)


_STMT_TAGS = ("op", "div", "if", "loop", "switch", "fallthrough", "call",
              "struct", "yield", "try", "throw", "hook", "group")


def _walk_stmts(node):
    """Yield every statement in a nested spec fragment."""
    if not isinstance(node, list):
        return
    if node and isinstance(node[0], str) and node[0] in _STMT_TAGS:
        yield node
    for child in node:
        yield from _walk_stmts(child)


def _spec_features(spec: Dict) -> List[str]:
    tags = {stmt[0] if stmt[0] != "struct" else f"struct.{stmt[1]}"
            for stmt in _walk_stmts(spec["body"])}
    tags.update(helper["kind"] for helper in spec["helpers"])
    return sorted(tags)


def _run_oracle(make_module, entry: str, arguments: List,
                levels: Sequence[int]):
    """One program on the interpreter and every compiled level.

    Compiled programs run inside a fiber, resumed until done, so the
    generator path is what executes; the interpreter runs yields
    through and counts them.  Returns ``(expected, outcomes,
    divergences, the program compiled at the highest level)``.
    """
    interp = hiltic([make_module()], tier="interpreted")
    interp_ctx = interp.make_context()
    expected = _outcome(
        lambda: interp.call(interp_ctx, entry, arguments))
    outcomes, divergences, top = {}, [], None
    for level in levels:
        program = hiltic([make_module()], opt_level=level)
        if level == max(levels):
            top = program
        ctx = program.make_context()
        resumes = [0]

        def drive():
            fiber = program.call_fiber(ctx, entry, arguments)
            value = YIELDED
            while value is YIELDED:
                resumes[0] += 1
                value = fiber.resume()
            return value

        got = outcomes[level] = _outcome(drive)
        if got != expected:
            divergences.append(
                f"-O{level}: {got!r} != interp {expected!r}")
        if resumes[0] - 1 != interp.suspensions:
            divergences.append(
                f"-O{level}: suspended {resumes[0] - 1} times, interp "
                f"passed {interp.suspensions} yields")
        if level == 0 and ctx.instr_count != interp_ctx.instr_count:
            divergences.append(
                f"-O0 instr_count {ctx.instr_count} != "
                f"interp {interp_ctx.instr_count}")
    return expected, outcomes, divergences, top


def run_module_case(spec: Dict, args: Sequence[int],
                    levels: Sequence[int] = OPT_LEVELS) -> Dict:
    """Run one spec through the oracle; returns outcomes + divergences."""
    expected, outcomes, divergences, program = _run_oracle(
        lambda: build_module(spec), _ENTRY, list(args), levels)
    stats = getattr(program, "opt_stats", None)
    fired = sorted(key for key, value in
                   (stats.as_dict() if stats else {}).items() if value)
    return {
        "expected": expected,
        "levels": outcomes,
        "divergences": divergences,
        # Which passes fired at the highest level, plus what was in it.
        "signature": fired + _spec_features(spec),
    }


def minimize_module_case(spec: Dict, args: Sequence[int],
                         levels: Sequence[int] = OPT_LEVELS,
                         budget: int = 200) -> Tuple[Dict, List[int]]:
    """Greedy shrink: keep any edit that preserves a divergence."""
    runs = [0]

    def diverges(candidate) -> bool:
        if runs[0] >= budget:
            return False
        runs[0] += 1
        try:
            return bool(run_module_case(candidate, args,
                                        levels)["divergences"])
        except Exception:
            # A candidate the toolchain rejects is not a reproduction.
            return False

    if not diverges(spec):
        return copy.deepcopy(spec), list(args)
    current = copy.deepcopy(spec)

    def _stmt_lists(stmt):
        """The nested statement lists inside one statement."""
        return [child for child in stmt[1:]
                if isinstance(child, list) and all(
                    isinstance(entry, list) and entry
                    and isinstance(entry[0], str)
                    for entry in child)]

    def shrink_list(stmts) -> bool:
        changed = False
        index = 0
        while index < len(stmts):
            trial = stmts[index]
            del stmts[index]
            if diverges(current):
                changed = True
                continue
            stmts.insert(index, trial)
            # Unwrap control flow: replace the statement with one of
            # its nested statement lists.
            unwrapped = False
            for child in _stmt_lists(trial):
                stmts[index:index + 1] = copy.deepcopy(child)
                if diverges(current):
                    changed = unwrapped = True
                    break
                stmts[index:index + len(child)] = [trial]
            if not unwrapped:
                # Recurse into nested lists in place (switch cases are
                # [const, stmts] pairs — descend through them too).
                for child in trial[1:]:
                    if isinstance(child, list):
                        for nested in _stmt_lists(["", child]):
                            changed |= shrink_list(nested)
                        for entry in child:
                            if isinstance(entry, list) and len(entry) == 2 \
                                    and isinstance(entry[1], list):
                                for nested in _stmt_lists(["", entry[1]]):
                                    changed |= shrink_list(nested)
                index += 1
            # After a successful unwrap, revisit the same index.
        return changed

    while shrink_list(current["body"]) and runs[0] < budget:
        pass
    # Drop helpers the (shrunken) body no longer calls.
    called = {stmt[1] for stmt in _walk_stmts(current["body"])
              if stmt[0] == "call"}
    trimmed = [helper for helper in current["helpers"]
               if helper["name"] in called]
    if len(trimmed) < len(current["helpers"]):
        trial = dict(current, helpers=trimmed)
        if diverges(trial):
            current = trial
    return current, list(args)


# ---------------------------------------------------------------------------
# Corpus serialization: spec -> .hlt text with replay headers


def module_case_source(spec: Dict, args: Sequence[int],
                       note: str = "") -> str:
    text = print_module(build_module(spec))
    header = [
        "# fuzz corpus case — repro.tools.fuzz (module lane)",
        f"# entry: {_ENTRY}",
        f"# args: {json.dumps(list(args))}",
    ]
    if note:
        header.append(f"# note: {note}")
    return "\n".join(header) + "\n\n" + text


def run_corpus_text(text: str,
                    levels: Sequence[int] = OPT_LEVELS) -> Dict:
    """Replay one corpus file's text through every tier."""
    match = re.search(r"#\s*args:\s*(\[[^\n]*\])", text)
    arguments = json.loads(match.group(1)) if match else [0] * _N_VARS
    match = re.search(r"#\s*entry:\s*(\S+)", text)
    entry = match.group(1) if match else _ENTRY

    expected, __, divergences, __ = _run_oracle(
        lambda: parse_module(text), entry, arguments, levels)
    return {"expected": expected, "divergences": divergences}


# ---------------------------------------------------------------------------
# Filter lane


_FILTER_PORTS = (21, 25, 53, 80, 443, 8080)
_FILTER_DIRS = ("", "src ", "dst ")


def gen_filter_text(rng: random.Random, depth: int = 0) -> str:
    if depth >= 3 or rng.random() < 0.45:
        roll = rng.random()
        if roll < 0.3:
            return rng.choice(("ip", "tcp", "udp"))
        if roll < 0.55:
            return (f"{rng.choice(_FILTER_DIRS)}port "
                    f"{rng.choice(_FILTER_PORTS)}")
        if roll < 0.8:
            return (f"{rng.choice(_FILTER_DIRS)}host "
                    f"172.16.{rng.randrange(4)}.{rng.randrange(1, 30)}")
        return (f"{rng.choice(_FILTER_DIRS)}net "
                f"172.16.{rng.randrange(4)}.0/"
                f"{rng.choice((16, 24))}")
    roll = rng.random()
    if roll < 0.45:
        return (f"{gen_filter_text(rng, depth + 1)} and "
                f"{gen_filter_text(rng, depth + 1)}")
    if roll < 0.9:
        return (f"{gen_filter_text(rng, depth + 1)} or "
                f"{gen_filter_text(rng, depth + 1)}")
    return f"not {gen_filter_text(rng, depth + 1)}"


def _mutate_frame(rng: random.Random, frame: bytes) -> bytes:
    data = bytearray(frame)
    roll = rng.random()
    if roll < 0.4 and data:
        return bytes(data[:rng.randrange(len(data))])
    if roll < 0.8 and data:
        for __ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        return bytes(data)
    return bytes(rng.randrange(256) for __ in range(rng.randint(0, 60)))


def _filter_frames(rng: random.Random, count: int = 24) -> List[bytes]:
    from ..net.tracegen import HttpTraceConfig, generate_http_trace

    trace = generate_http_trace(
        HttpTraceConfig(sessions=6, seed=rng.randrange(1 << 16)))
    frames = [frame for __, frame in trace][:count]
    frames.extend(_mutate_frame(rng, rng.choice(frames))
                  for __ in range(count // 2))
    return frames


def run_filter_case(filter_text: str, frames: Sequence[bytes],
                    levels: Sequence[int] = OPT_LEVELS) -> Dict:
    from ..apps.bpf import compile_to_hilti, compile_to_vm, parse_filter

    node = parse_filter(filter_text)
    decisions = {}
    vm = compile_to_vm(node)
    decisions["vm"] = bytes(
        1 if vm.run(frame) else 0 for frame in frames)
    interp = compile_to_hilti(node, tier="interpreted")
    decisions["interp"] = bytes(
        1 if interp(frame) else 0 for frame in frames)
    for level in levels:
        hilti_filter = compile_to_hilti(node, opt_level=level)
        decisions[f"O{level}"] = bytes(
            1 if hilti_filter(frame) else 0 for frame in frames)
    expected = decisions["interp"]
    divergences = [
        f"filter {filter_text!r}: {key} decisions differ from interp"
        for key, got in decisions.items() if got != expected
    ]
    return {"decisions": decisions, "divergences": divergences}


# ---------------------------------------------------------------------------
# Script lane


def _gen_script_expr(rng: random.Random, names: Sequence[str],
                     depth: int = 0) -> str:
    if depth >= 2 or rng.random() < 0.5:
        if rng.random() < 0.4:
            return rng.choice(names)
        return str(rng.randint(0, 20))
    left = _gen_script_expr(rng, names, depth + 1)
    right = _gen_script_expr(rng, names, depth + 1)
    return f"({left} {rng.choice('+*')} {right})"


def gen_script_case(rng: random.Random) -> Tuple[str, List[int]]:
    cond_op = rng.choice(("<", "<=", ">", ">=", "=="))
    ab = ("a", "b")
    abx = ("a", "b", "x")
    source = f"""
function g(n: count): count {{
    return {_gen_script_expr(rng, ("n",))};
}}

function f(a: count, b: count): count {{
    local x: count = {_gen_script_expr(rng, ab)};
    if ( a {cond_op} {rng.randint(0, 40)} ) {{
        x = x + g({_gen_script_expr(rng, ab)});
    }} else {{
        x = {_gen_script_expr(rng, abx)};
    }}
    return x + a + b;
}}

event bro_init() {{
}}
"""
    return source, [rng.randint(0, 50), rng.randint(0, 50)]


def run_script_case(source: str, args: Sequence[int],
                    levels: Sequence[int] = OPT_LEVELS) -> Dict:
    import io

    from ..apps.bro import Bro

    def call(**kwargs):
        bro = Bro(scripts=[source], print_stream=io.StringIO(), **kwargs)
        return bro.call_function("f", list(args))

    expected = call(scripts_engine="interp")
    divergences = []
    outcomes = {"interp": expected}
    for level in levels:
        got = call(scripts_engine="hilti", opt_level=level)
        outcomes[f"O{level}"] = got
        if got != expected:
            divergences.append(
                f"script -O{level}: {got!r} != interp {expected!r}")
    return {"outcomes": outcomes, "divergences": divergences}


# ---------------------------------------------------------------------------
# Pac lane: malformed HTTP, the fused parser against an unfused build
#
# The HTTP grammar compiles each run of tokens, and each token-only unit
# (Header, Version), to one regexp.match_seq.  The oracle holds that build
# — on the interpreter and at every compiled level — to an unfused build
# of the same grammar at -O0: a copy whose tokens are conditional on
# True, which fusion and inlining skip.  Requests or replies, parsed
# one-shot and (where the tier can suspend) fed in the same chunks, must
# raise the same events (every unit field), the same error class and
# message, and end in the same completion state; the interpreter and -O0
# also agree on the instruction count.  Corpus cases are ``.http``
# files: the unit, the feed splits and the hex payload.

_HTTP_UNITS = ("Requests", "Replies")
# Request and reply templates (spacing, version): the variants give feed
# splits tokens to land in that could still grow.
_HTTP_TEMPLATES = {
    "Requests": (b"GET /index.html%sHTTP/%s\r\n"
                 b"Host: example.org\r\n"
                 b"User-Agent: fuzz/1.0\r\n"
                 b"Content-Length: 5\r\n"
                 b"\r\n"
                 b"hello"),
    "Replies": (b"HTTP/%s%s200 OK\r\n"
                b"Server: fuzz/1.0\r\n"
                b"Content-Type:\ttext/plain\r\n"
                b"Content-Length: 5\r\n"
                b"\r\n"
                b"hello"),
}
_HTTP_SPACES = (b" ", b"  ", b" \t")
_HTTP_VERSIONS = (b"1.1", b"1.0", b"1.10")


def gen_http_input(rng: random.Random, unit: str = "Requests") -> bytes:
    """A well-formed request or reply stream with 0-4 malformations."""
    space, version = rng.choice(_HTTP_SPACES), rng.choice(_HTTP_VERSIONS)
    data = bytearray(_HTTP_TEMPLATES[unit] % (
        (space, version) if unit == "Requests" else (version, space)))
    for __ in range(rng.randint(0, 4)):
        roll = rng.random()
        if roll < 0.3 and data:
            data = data[:rng.randrange(len(data))]
        elif roll < 0.5 and data:
            data[rng.randrange(len(data))] = rng.choice(
                (rng.randrange(256), *b" \t\r\n:/."))
        elif roll < 0.7 and len(data) > 4:
            start = rng.randrange(len(data) - 2)
            del data[start:start + rng.randint(1, 8)]
        elif roll < 0.9:
            start = rng.randrange(len(data) + 1)
            data[start:start] = bytes(
                rng.randrange(256) for __ in range(rng.randint(1, 8)))
        else:
            data += rng.choice((b"\r\n", b"GET ", b"\xff\xfe",
                                b"HTTP/1.0 404 \r\n",
                                b"Content-Length: 99\r\n"))
    return bytes(data)


def unfused_http_grammar():
    """The HTTP grammar with every token conditional on ``True``:
    fusion and inlining skip conditional tokens, so this build matches
    each token on its own, through ``regexp.match_token``."""
    from ..apps.binpac.ast import Const, PatternField
    from ..apps.binpac.grammars import http_grammar

    grammar = http_grammar()
    for unit in grammar.units.values():
        for field in unit.fields:
            if isinstance(field, PatternField):
                field.condition = Const(True)
    return grammar


def _split(payload: bytes, cuts: Sequence[int]) -> List[bytes]:
    chunks, start = [], 0
    for cut in list(cuts) + [len(payload)]:
        chunks.append(payload[start:cut])
        start = cut
    return chunks


def _unit_fields(value):
    """A parsed unit as plain nested tuples (marks as buffer offsets)."""
    if isinstance(value, StructInstance):
        return tuple((field.name, _unit_fields(item)) for field, item
                     in zip(value.struct_type.fields, value._slots)
                     if item is not UNSET)
    if isinstance(value, HiltiList):
        return tuple(_unit_fields(item) for item in value)
    if isinstance(value, Bytes):
        return value.to_bytes()
    if isinstance(value, BytesIter):
        return ("offset", value.offset - value.bytes_obj.begin_offset)
    if isinstance(value, (bool, int, str, bytes, type(None))):
        return value
    return str(value)


class _PacOracle:
    """The fused HTTP parser on the interpreter and at every level, and
    the unfused reference at -O0.

    Every build parses the whole payload one-shot from a frozen buffer;
    the compiled builds, which can suspend, also parse it fed in chunks
    to an incremental session.  (The interpreter runs suspension points
    to completion, so it takes the one-shot parse only.)
    """

    def __init__(self, levels: Sequence[int] = OPT_LEVELS):
        from ..apps.binpac.codegen import Parser
        from ..apps.binpac.glue import unit_done_glue
        from ..apps.binpac.grammars import http_grammar

        self.events: List[Tuple[str, Tuple]] = []

        def build(grammar, **kwargs):
            return Parser(grammar,
                          extra_modules=[unit_done_glue(
                              "HTTP", ["Request", "Reply"])],
                          on_event=self._on_event, **kwargs)

        self.reference = build(unfused_http_grammar(), opt_level=0)
        self.builds = {"interp": build(http_grammar(), tier="interpreted")}
        for level in levels:
            self.builds[f"O{level}"] = build(http_grammar(), opt_level=level)

    def _on_event(self, name, event_args) -> None:
        self.events.append((name, _unit_fields(event_args[0])))

    def _outcome(self, parser, unit: str, payload: bytes,
                 chunks: Optional[Sequence[bytes]] = None) -> Tuple:
        """Events, error and completion of one parse: one-shot, or with
        *chunks* fed to an incremental session."""
        self.events = []
        finished = False
        error = None
        try:
            if chunks is None:
                parser.parse(unit, payload)
                finished = True
            else:
                session = parser.start(unit)
                for chunk in chunks:
                    session.feed(chunk)
                session.done()
                finished = session.finished
        except HiltiError as exc:
            error = (exc.except_type.type_name, exc.message)
        except Exception as exc:  # a crash is a finding on every side
            error = ("crash", f"{type(exc).__name__}: {exc}")
        return tuple(self.events), error, finished

    def run_case(self, unit: str, payload: bytes,
                 cuts: Sequence[int] = ()) -> Dict:
        # The same chunks everywhere, so resume points line up.
        chunks = _split(payload, cuts)
        # The reference outcome, keyed by "fed in chunks".
        expected = {
            False: self._outcome(self.reference, unit, payload),
            True: self._outcome(self.reference, unit, payload, chunks)}
        outcomes, counts = {}, {}
        for name, parser in self.builds.items():
            before = parser.ctx.instr_count
            outcomes[name] = self._outcome(parser, unit, payload)
            counts[name] = parser.ctx.instr_count - before
            if name != "interp":
                outcomes[f"{name} fed"] = self._outcome(parser, unit,
                                                        payload, chunks)
        divergences = []
        for name, got in outcomes.items():
            want = expected[name.endswith(" fed")]
            if got != want:
                divergences.append(f"pac {name}: {got!r} != unfused "
                                   f"{want!r}")
        if "O0" in counts and counts["O0"] != counts["interp"]:
            divergences.append(f"pac -O0 instr_count {counts['O0']} != "
                               f"interp {counts['interp']}")
        for fed, (__, error, __) in expected.items():
            if error is not None and error[0] == "crash":
                divergences.append(f"pac unfused{' fed' * fed} crashed: "
                                   f"{error[1]}")
        return {"expected": expected[False], "outcomes": outcomes,
                "divergences": divergences}


def pac_case_source(unit: str, payload: bytes, cuts: Sequence[int] = (),
                    note: str = "") -> str:
    header = ["# fuzz corpus case — repro.tools.fuzz (pac lane)",
              f"# unit: {unit}",
              f"# splits: {json.dumps(list(cuts))}"]
    if note:
        header.append(f"# note: {note}")
    return "\n".join(header) + "\n\n" + payload.hex() + "\n"


def run_pac_corpus_text(text: str, oracle: Optional[_PacOracle] = None,
                        levels: Sequence[int] = OPT_LEVELS) -> Dict:
    """Replay one HTTP corpus file's text (unit and feed splits in the
    comment header, hex after it) through the pac oracle."""
    unit = re.search(r"#\s*unit:\s*(\S+)", text).group(1)
    cuts = json.loads(re.search(r"#\s*splits:\s*(\[[^\n]*\])", text).group(1))
    payload = bytes.fromhex("".join(
        line for line in text.splitlines() if not line.startswith("#")))
    return (oracle or _PacOracle(levels)).run_case(unit, payload, cuts)


# ---------------------------------------------------------------------------
# DNS lane: malformed datagrams, one-shot parse vs an incremental build
#
# The DNS grammar is a datagram grammar: its parse functions cannot
# suspend and the host parses a whole message in one call.  The oracle
# holds that path — on the interpreter and at every compiled level — to
# an always-incremental build of the same grammar fed the same bytes:
# equal unit fields, or the same error class.  The interpreter and -O0
# also agree on the instruction count.

_DNS_NAMES = ("www", "mail", "ns1", "cdn", "a", "example", "org", "io")
_DNS_MUTATIONS = ("truncate", "label", "self_pointer", "forward_pointer",
                  "pointer_past_end", "counts", "rdlength", "flip")


def _dns_name(rng: random.Random) -> bytes:
    out = bytearray()
    for __ in range(rng.randint(1, 4)):
        label = rng.choice(_DNS_NAMES).encode()
        out += bytes([len(label)]) + label
    return bytes(out + b"\x00")


def gen_dns_message(rng: random.Random) -> Tuple[bytes, List[int],
                                                 List[int]]:
    """A well-formed DNS response: one question and 0-4 records (A,
    AAAA, NS, MX, TXT or an unknown type) whose owner names point back
    at the question.  Returns the message, the offsets of its names, and
    the offsets of its ``rdlength`` fields."""
    records = []
    for __ in range(rng.randint(0, 4)):
        rtype = rng.choice((1, 28, 2, 15, 16, 99))
        if rtype == 1:
            rdata = bytes(rng.randrange(256) for __ in range(4))
        elif rtype == 28:
            rdata = bytes(rng.randrange(256) for __ in range(16))
        elif rtype == 2:
            rdata = _dns_name(rng)
        elif rtype == 15:
            rdata = struct.pack(">H", rng.randrange(100)) + _dns_name(rng)
        elif rtype == 16:
            text = rng.choice(_DNS_NAMES).encode() * rng.randint(1, 3)
            rdata = bytes([len(text)]) + text
        else:
            rdata = bytes(rng.randrange(256)
                          for __ in range(rng.randint(0, 6)))
        records.append((rtype, rdata))
    split = rng.randint(0, len(records))
    message = bytearray(struct.pack(
        ">HHHHHH", rng.randrange(1 << 16), 0x8180, 1, split,
        len(records) - split, 0))
    names = [len(message)]
    message += _dns_name(rng) + struct.pack(">HH", 1, 1)
    rdlengths = []
    for rtype, rdata in records:
        names.append(len(message))
        message += b"\xc0\x0c" + struct.pack(">HHI", rtype, 1, 300)
        rdlengths.append(len(message))
        if rtype in (2, 15):
            names.append(len(message) + 2 + (2 if rtype == 15 else 0))
        message += struct.pack(">H", len(rdata)) + rdata
    return bytes(message), names, rdlengths


def gen_dns_input(rng: random.Random) -> Tuple[bytes, List[str]]:
    """A well-formed message with 0-3 malformations (none: the fields
    must agree too); returns the bytes and the mutation kinds applied."""
    message, names, rdlengths = gen_dns_message(rng)
    data = bytearray(message)
    kinds = []
    for __ in range(rng.randint(0, 3)):
        kind = rng.choice(_DNS_MUTATIONS)
        kinds.append(kind)
        name = rng.choice(names)
        if kind == "truncate":
            data = data[:rng.randrange(len(data) + 1)]
        elif kind == "label" and name < len(data):
            data[name] = rng.randint(64, 191)
        elif kind in ("self_pointer", "forward_pointer",
                      "pointer_past_end") and name + 1 < len(data):
            target = {"self_pointer": name,
                      "forward_pointer": rng.randint(name + 1,
                                                     len(data) - 1),
                      "pointer_past_end": rng.randint(len(data),
                                                      len(data) + 64),
                      }[kind]
            data[name:name + 2] = bytes([0xC0 | (target >> 8) & 0x3F,
                                         target & 0xFF])
        elif kind == "counts" and len(data) >= 12:
            field = 4 + 2 * rng.randrange(4)  # qd/an/ns/arcount
            count = rng.choice((len(data), 255, 0xFFFF))
            data[field:field + 2] = count.to_bytes(2, "big")
        elif kind == "rdlength" and rdlengths \
                and rdlengths[-1] + 2 <= len(data):
            where = rng.choice(rdlengths)
            length = rng.randint(0, len(data) + 8)
            data[where:where + 2] = length.to_bytes(2, "big")
        elif kind == "flip" and data:
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return bytes(data), kinds


def _dns_outcome(parse) -> Tuple:
    try:
        return ("ok", _unit_fields(parse()))
    except HiltiError as error:
        return ("raise", error.except_type.type_name)
    except Exception as error:  # a crash is a finding on every side
        return ("crash", f"{type(error).__name__}: {error}")


class _DnsOracle:
    """The DNS grammar compiled once per tier: one-shot on the
    interpreter and at every level, plus the incremental reference."""

    def __init__(self, levels: Sequence[int] = OPT_LEVELS):
        from ..apps.binpac.codegen import Parser
        from ..apps.binpac.grammars import dns_grammar

        self.levels = tuple(levels)
        incremental = dns_grammar()
        incremental.datagram = False
        self.reference = Parser(incremental)
        self.parsers = {level: Parser(dns_grammar(), opt_level=level)
                        for level in self.levels}
        self.interp = Parser(dns_grammar(), tier="interpreted")

    def _incremental(self, payload: bytes):
        session = self.reference.start("Message")
        session.feed(payload)
        return session.done()

    def run_case(self, payload: bytes) -> Dict:
        # The reference gets the datagram as one chunk, then the end of
        # input: the name decoder is a native and cannot suspend, so a
        # name split across chunks would fail there and nowhere else.
        expected = _dns_outcome(lambda: self._incremental(payload))
        if expected == ("raise", "Hilti::WouldBlock"):
            # A native's short read before the freeze: the same read of
            # the frozen buffer raises Hilti::IndexError (Bytes.read).
            expected = ("raise", "Hilti::IndexError")
        before = self.interp.ctx.instr_count
        outcomes = {"interp": _dns_outcome(
            lambda: self.interp.parse("Message", payload))}
        interp_count = self.interp.ctx.instr_count - before
        divergences = []
        for level in self.levels:
            parser = self.parsers[level]
            before = parser.ctx.instr_count
            outcomes[f"O{level}"] = _dns_outcome(
                lambda: parser.parse("Message", payload))
            count = parser.ctx.instr_count - before
            if level == 0 and count != interp_count:
                divergences.append(f"dns -O0 instr_count {count} != "
                                   f"interp {interp_count}")
        for side, got in outcomes.items():
            if got != expected:
                divergences.append(f"dns {side}: {got!r} != "
                                   f"incremental {expected!r}")
        if expected[0] == "crash":
            divergences.append(f"dns incremental crashed: {expected[1]}")
        return {"expected": expected, "outcomes": outcomes,
                "divergences": divergences}


def dns_case_source(payload: bytes, note: str = "") -> str:
    header = ["# fuzz corpus case — repro.tools.fuzz (dns lane)"]
    if note:
        header.append(f"# note: {note}")
    return "\n".join(header) + "\n\n" + payload.hex() + "\n"


def run_dns_corpus_text(text: str, oracle: Optional[_DnsOracle] = None,
                        levels: Sequence[int] = OPT_LEVELS) -> Dict:
    """Replay one DNS corpus file's text (hex after the comment header)
    through the DNS oracle."""
    payload = bytes.fromhex("".join(
        line for line in text.splitlines() if not line.startswith("#")))
    return (oracle or _DnsOracle(levels)).run_case(payload)


# ---------------------------------------------------------------------------
# The fuzzing loop


class Fuzzer:
    """Seeded, coverage-guided differential fuzzing across all lanes."""

    def __init__(self, seed: int = 0, levels: Sequence[int] = OPT_LEVELS,
                 lanes: Sequence[str] = ("module", "filter", "script",
                                         "pac", "dns")):
        self.rng = random.Random(seed)
        self.levels = tuple(levels)
        self.lanes = tuple(lanes)
        self.pool: List[Dict] = []
        self.signatures = set()
        self.divergences: List[Dict] = []
        self.cases = {lane: 0 for lane in self.lanes}
        self.interesting: List[Tuple[Dict, List[int], str]] = []
        # DNS inputs with a novel (mutations, outcome) signature.
        self.dns_interesting: List[Tuple[bytes, str]] = []
        self._pac: Optional[_PacOracle] = None
        self._dns: Optional[_DnsOracle] = None
        self._frames: Optional[List[bytes]] = None

    # Lane weights: the module lane is where the optimizer lives.
    _WEIGHTS = {"module": 6, "filter": 2, "script": 1, "pac": 1, "dns": 1}

    def _pick_lane(self) -> str:
        weights = [self._WEIGHTS.get(lane, 1) for lane in self.lanes]
        return self.rng.choices(self.lanes, weights=weights, k=1)[0]

    def _module_case(self) -> Dict:
        rng = self.rng
        if self.pool and rng.random() < 0.5:
            spec = mutate_module_spec(rng, rng.choice(self.pool))
        else:
            spec = gen_module_spec(rng)
        args = [rng.randint(-100, 100) for __ in range(_N_VARS)]
        try:
            result = run_module_case(spec, args, self.levels)
        except Exception as error:
            # The generator only emits well-typed programs; anything the
            # toolchain rejects is itself a finding.
            return {"lane": "module", "spec": spec, "args": args,
                    "divergences": [f"toolchain error: {error!r}"]}
        signature = tuple(result["signature"])
        if signature and signature not in self.signatures:
            self.signatures.add(signature)
            self.pool.append(spec)
            self.interesting.append(
                (spec, args, ",".join(result["signature"])))
        return {"lane": "module", "spec": spec, "args": args,
                "divergences": result["divergences"]}

    def _filter_case(self) -> Dict:
        if self._frames is None:
            self._frames = _filter_frames(self.rng)
        text = gen_filter_text(self.rng)
        result = run_filter_case(text, self._frames, self.levels)
        return {"lane": "filter", "filter": text,
                "divergences": result["divergences"]}

    def _script_case(self) -> Dict:
        source, args = gen_script_case(self.rng)
        result = run_script_case(source, args, self.levels)
        return {"lane": "script", "source": source, "args": args,
                "divergences": result["divergences"]}

    def _pac_case(self) -> Dict:
        if self._pac is None:
            self._pac = _PacOracle(self.levels)
        rng = self.rng
        unit = rng.choice(_HTTP_UNITS)
        payload = gen_http_input(rng, unit)
        cuts = sorted(rng.randrange(len(payload) + 1)
                      for __ in range(rng.randint(0, 6)))
        result = self._pac.run_case(unit, payload, cuts)
        return {"lane": "pac", "unit": unit, "payload": payload.hex(),
                "splits": cuts, "divergences": result["divergences"]}

    def _dns_case(self) -> Dict:
        if self._dns is None:
            self._dns = _DnsOracle(self.levels)
        payload, kinds = gen_dns_input(self.rng)
        result = self._dns.run_case(payload)
        signature = ",".join(sorted(set(kinds)) + [result["expected"][0]])
        if result["expected"][0] == "raise":
            signature += f":{result['expected'][1]}"
        if signature not in self.signatures:
            self.signatures.add(signature)
            self.dns_interesting.append((payload, signature))
        return {"lane": "dns", "payload": payload.hex(),
                "divergences": result["divergences"]}

    def run_one(self) -> Dict:
        lane = self._pick_lane()
        case = {
            "module": self._module_case,
            "filter": self._filter_case,
            "script": self._script_case,
            "pac": self._pac_case,
            "dns": self._dns_case,
        }[lane]()
        self.cases[lane] += 1
        if case["divergences"]:
            if lane == "module" and "spec" in case:
                spec, args = minimize_module_case(
                    case["spec"], case["args"], self.levels)
                case["minimized"] = module_case_source(
                    spec, args, note="; ".join(case["divergences"]))
            self.divergences.append(case)
        return case

    def run(self, count: int, max_seconds: float = 0,
            progress=None) -> Dict:
        started = time.monotonic()
        for index in range(count):
            if max_seconds and time.monotonic() - started > max_seconds:
                break
            self.run_one()
            if progress and (index + 1) % progress == 0:
                print(f"fuzz: {index + 1}/{count} cases, "
                      f"{len(self.signatures)} signatures, "
                      f"{len(self.divergences)} divergences",
                      file=sys.stderr)
        return self.summary()

    def summary(self) -> Dict:
        return {
            "cases": dict(self.cases),
            "total": sum(self.cases.values()),
            "signatures": len(self.signatures),
            "divergences": len(self.divergences),
        }

    # -- corpus -------------------------------------------------------------

    def emit_corpus(self, directory: str, limit: int = 8) -> List[str]:
        """Write the most interesting minimized module cases as .hlt and
        the DNS inputs with novel signatures as .dns."""
        import os

        os.makedirs(directory, exist_ok=True)
        written = []
        for index, (spec, args, note) in enumerate(
                self.interesting[:limit]):
            small, small_args = _shrink_interesting(spec, args,
                                                    self.levels)
            path = os.path.join(directory, f"case_{index:03d}.hlt")
            with open(path, "w") as stream:
                stream.write(module_case_source(small, small_args,
                                                note=note))
            written.append(path)
        for index, (payload, note) in enumerate(
                self.dns_interesting[:limit]):
            path = os.path.join(directory, f"dns_{index:03d}.dns")
            with open(path, "w") as stream:
                stream.write(dns_case_source(payload, note=note))
            written.append(path)
        return written


def _shrink_interesting(spec: Dict, args: Sequence[int],
                        levels: Sequence[int]) -> Tuple[Dict, List[int]]:
    """Shrink a (non-diverging) corpus case while keeping its coverage
    signature — smaller files, same optimizer paths exercised."""
    target = tuple(run_module_case(spec, args, levels)["signature"])
    current = copy.deepcopy(spec)

    def keeps_signature(candidate) -> bool:
        try:
            result = run_module_case(candidate, args, levels)
        except Exception:
            return False
        return tuple(result["signature"]) == target \
            and not result["divergences"]

    index = 0
    while index < len(current["body"]):
        trial = current["body"][index]
        del current["body"][index]
        if keeps_signature(current):
            continue
        current["body"].insert(index, trial)
        index += 1
    return current, list(args)


# ---------------------------------------------------------------------------
# CLI


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fuzz",
        description="coverage-guided differential fuzzing of the "
                    "optimizer tiers against the interpreter oracle")
    parser.add_argument("--seed", type=int, default=0,
                        help="PRNG seed (default 0; runs are "
                             "deterministic per seed)")
    parser.add_argument("--count", type=int, default=200,
                        help="number of cases to run (default 200)")
    parser.add_argument("--levels", default=",".join(
                            str(level) for level in OPT_LEVELS),
                        help="comma-separated opt levels to compare "
                             "(default all)")
    parser.add_argument("--lanes",
                        default="module,filter,script,pac,dns",
                        help="comma-separated lanes to fuzz")
    parser.add_argument("--max-seconds", type=float, default=0,
                        help="stop after this wall-clock budget "
                             "(0 = no limit)")
    parser.add_argument("--emit-corpus", metavar="DIR", default=None,
                        help="write minimized interesting module cases "
                             "(.hlt) and DNS inputs (.dns) into DIR as "
                             "replayable files")
    parser.add_argument("--corpus-limit", type=int, default=8,
                        help="max corpus files to emit (default 8)")
    parser.add_argument("--replay", metavar="DIR", default=None,
                        help="replay every .hlt, .dns and .http corpus "
                             "case in DIR instead of fuzzing")
    parser.add_argument("--progress", type=int, default=0, metavar="N",
                        help="print a progress line every N cases")
    args = parser.parse_args(argv)
    levels = tuple(int(part) for part in args.levels.split(","))

    if args.replay:
        import glob
        import os

        failures = 0
        dns_oracle = pac_oracle = None
        paths = []
        for suffix in ("hlt", "dns", "http"):
            paths += sorted(glob.glob(os.path.join(args.replay,
                                                   f"*.{suffix}")))
        for path in paths:
            with open(path) as stream:
                text = stream.read()
            if path.endswith(".dns"):
                dns_oracle = dns_oracle or _DnsOracle(levels)
                result = run_dns_corpus_text(text, dns_oracle)
            elif path.endswith(".http"):
                pac_oracle = pac_oracle or _PacOracle(levels)
                result = run_pac_corpus_text(text, pac_oracle)
            else:
                result = run_corpus_text(text, levels)
            status = "ok" if not result["divergences"] else "DIVERGED"
            print(f"{path}: {status}")
            for line in result["divergences"]:
                print(f"  {line}")
                failures += 1
        print(f"replayed {len(paths)} corpus cases, "
              f"{failures} divergences")
        return 1 if failures else 0

    lanes = tuple(part for part in args.lanes.split(",") if part)
    fuzzer = Fuzzer(seed=args.seed, levels=levels, lanes=lanes)
    summary = fuzzer.run(args.count, max_seconds=args.max_seconds,
                         progress=args.progress)
    print(f"fuzz: {summary['total']} cases "
          f"({', '.join(f'{lane}={n}' for lane, n in summary['cases'].items())}), "
          f"{summary['signatures']} coverage signatures, "
          f"{summary['divergences']} divergences")
    for case in fuzzer.divergences:
        print(f"DIVERGENCE in {case['lane']} lane:")
        for line in case["divergences"]:
            print(f"  {line}")
        if "minimized" in case:
            print("  minimized reproduction:")
            for line in case["minimized"].splitlines():
                print(f"    {line}")
    if args.emit_corpus:
        written = fuzzer.emit_corpus(args.emit_corpus,
                                     limit=args.corpus_limit)
        for path in written:
            print(f"wrote {path}")
    return 1 if fuzzer.divergences else 0


if __name__ == "__main__":
    sys.exit(main())
