"""fuzz — the coverage-guided differential oracle for the compiled tier.

The reference interpreter always executes the *unoptimized* IR; the
compiled tier runs what the ``-O1`` pass pipeline made of it.  That
pairing is a differential oracle: for any input, every compiled level
must behave exactly as the interpreter does.  This tool generates
random-but-valid inputs and drives the oracle at scale::

    python -m repro.tools.fuzz --seed 1 --count 500
    python -m repro.tools.fuzz --replay tests/core/fuzz_corpus
    python -m repro.tools.fuzz --seed 7 --count 200 --emit-corpus DIR

Five lanes, each a different input source with its own oracle (the
lane classes below say what each generates and compares):

* ``module`` — random HILTI modules, interpreter against ``-O0``/``-O1``;
* ``filter`` — random BPF filters, the classic VM against every tier;
* ``script`` — mini-Bro scripts, the script interpreter against the
  compiled engine;
* ``pac`` — malformed HTTP, the fused parser against an unfused build;
* ``dns`` — malformed DNS datagrams, the one-shot parse against an
  incremental build.

Every lane implements one interface, ``Lane``, and is listed once in
``LANES``; the driver (``Fuzzer``, ``--replay``, ``--emit-corpus``)
names none of them.  It picks a lane by weight, generates a case, runs
it, and keeps it as interesting when its coverage signature is new: a
module case's signature is the ``-O1`` passes that fired plus its
structural features, and interesting module cases seed further
mutations, steering generation toward optimizer paths not yet hit.  A
diverging case is shrunk greedily (drop statements, unwrap control
flow, drop helpers) and printed as a reproducible corpus file.
``--emit-corpus`` writes each lane's interesting cases as
``<lane>_<NNN>.<suffix>``; ``--replay`` reads every file back through
the lane its suffix names.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import random
import re
import struct
import sys
import time
import traceback
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
    "LANES",
    "DnsLane",
    "FilterLane",
    "Fuzzer",
    "Lane",
    "ModuleLane",
    "PacLane",
    "ScriptLane",
    "build_module",
    "gen_dns_input",
    "gen_dns_message",
    "gen_http_input",
    "gen_module_spec",
    "gen_script_case",
    "mutate_module_spec",
    "replay",
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


_HELPER_KINDS = ("leaf", "init", "branchy", "big", "susp")


def _gen_helper(rng: random.Random, index: int) -> Dict:
    kind = rng.choice(["leaf", *_HELPER_KINDS])
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
# The lane protocol and the verdict every lane shares


class Lane:
    """One source of differential test cases.

    A lane generates cases from the fuzzer's seeded ``rng`` and runs
    each through its oracle.  A lane with a corpus ``suffix`` also
    writes a case as replayable text and reads it back.  The driver
    (``Fuzzer``, ``--replay`` and ``--emit-corpus``) knows lanes only
    through this class, so adding a lane is one subclass and one
    ``LANES`` entry.

    * ``name``, ``weight`` (its share of the picks) and ``suffix``
      (``None``: the lane writes no corpus files), class attributes;
    * ``generate(rng)`` returns a case;
    * ``run(case, levels)`` returns at least ``{"divergences",
      "signature"}``.  A ``None`` signature means the case is never
      kept as interesting; a lane that returns signatures needs a
      ``suffix``;
    * ``dumps(case, note)`` and ``loads(text)`` write and read a corpus
      file;
    * ``shrink(case, keep, deep=True)``, optional: a smaller case for
      which ``keep`` still holds.  The driver shrinks a diverging case
      deeply and trims an interesting one in one shallow pass before
      writing it.

    ``interesting`` holds the cases whose signature was new, each with
    its signature, in the order found: the driver appends to it, and
    ``generate`` may mutate them.
    """

    name = ""
    weight = 1
    suffix: Optional[str] = None
    shrink = None

    def __init__(self):
        self.interesting: List[Tuple[object, str]] = []

    def _source(self, fields: Sequence[str], note: str) -> str:
        """A corpus file's comment header: the lane, *fields*, the note."""
        header = ["# fuzz corpus case — repro.tools.fuzz "
                  f"({self.name} lane)", *fields]
        if note:
            header.append(f"# note: {note}")
        return "\n".join(header)


def _divergences(side: str, against: str, pairs: Dict,
                 counts: Optional[Dict] = None) -> List[str]:
    """The verdict every lane shares: each candidate's outcome equals its
    reference's, and ``-O0`` executes as many instructions as the
    interpreter.  *pairs* maps a candidate to ``(got, want)``; *counts*
    maps ``"interp"`` and ``"O<level>"`` to instruction counts."""
    lines = [f"{side}{name}: {got!r} != {against} {want!r}"
             for name, (got, want) in pairs.items() if got != want]
    if "O0" in (counts or ()) and counts["O0"] != counts["interp"]:
        lines.append(f"{side}-O0 instr_count {counts['O0']} != "
                     f"interp {counts['interp']}")
    return lines


def _header(text: str, key: str) -> Optional[str]:
    """The value of a corpus file's ``# key: value`` header line."""
    match = re.search(rf"^#\s*{key}:\s*(.*?)\s*$", text, re.M)
    return match.group(1) if match else None


def _body(text: str) -> str:
    """A corpus file's text without its comment lines."""
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("#"))


# ---------------------------------------------------------------------------
# Module lane: the oracle, the minimizer and the .hlt corpus


_STMT_TAGS = ("op", "div", "if", "loop", "switch", "fallthrough", "call",
              "struct", "yield", "try", "throw", "hook", "group")
# Everything _spec_features can report.
_FEATURES = frozenset(_STMT_TAGS + _HELPER_KINDS) | {
    f"struct.{op}" for op in _STRUCT_OPS}
# Deep shrinking stops after this many candidate runs.
_SHRINK_BUDGET = 200


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


def _outcome(call):
    try:
        return ("ok", call())
    except HiltiError as error:
        return ("raise", error.except_type.type_name)


def _is_stmts(node) -> bool:
    return isinstance(node, list) and all(
        isinstance(entry, list) and entry and isinstance(entry[0], str)
        for entry in node)


class ModuleLane(Lane):
    """Random HILTI modules (the spec format above) on the interpreter
    and every compiled level: equal outcome (value or exception type)
    and number of suspensions, and ``instr_count`` parity between the
    interpreter and ``-O0``.  Compiled programs run inside a fiber,
    resumed until done, so the generator path is what executes; the
    interpreter runs yields through and counts them.

    A generated case is ``{"spec", "args"}``; a case read from a corpus
    file is ``{"text", "entry", "args", "features"}``.  The signature is
    the passes that fired at the highest level plus the spec's
    statement features; a corpus file keeps the features in its note,
    and the rest is recomputed.
    """

    name = "module"
    # The module lane is where the optimizer lives.
    weight = 6
    suffix = "hlt"

    def generate(self, rng: random.Random) -> Dict:
        if self.interesting and rng.random() < 0.5:
            spec = mutate_module_spec(
                rng, rng.choice(self.interesting)[0]["spec"])
        else:
            spec = gen_module_spec(rng)
        return {"spec": spec,
                "args": [rng.randint(-100, 100) for __ in range(_N_VARS)]}

    def run(self, case: Dict, levels: Sequence[int]) -> Dict:
        spec = case.get("spec")

        def make_module():
            return build_module(spec) if spec else parse_module(case["text"])

        features = _spec_features(spec) if spec else case["features"]
        entry, arguments = case.get("entry", _ENTRY), list(case["args"])
        interp = hiltic([make_module()], tier="interpreted")
        interp_ctx = interp.make_context()
        expected = _outcome(
            lambda: interp.call(interp_ctx, entry, arguments))
        pairs, counts = {}, {"interp": interp_ctx.instr_count}
        suspensions, top = [], None
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

            pairs[f"-O{level}"] = (_outcome(drive), expected)
            counts[f"O{level}"] = ctx.instr_count
            if resumes[0] - 1 != interp.suspensions:
                suspensions.append(
                    f"-O{level}: suspended {resumes[0] - 1} times, interp "
                    f"passed {interp.suspensions} yields")
        stats = getattr(top, "opt_stats", None)
        fired = sorted(key for key, value in
                       (stats.as_dict() if stats else {}).items() if value)
        return {
            "expected": expected,
            "divergences": _divergences("", "interp", pairs, counts)
            + suspensions,
            "signature": ",".join(fired + features) or None,
        }

    def shrink(self, case: Dict, keep, deep: bool = True) -> Dict:
        """Greedily drop statements from the body while *keep* holds.

        *deep* also unwraps control flow, descends into nested
        statement lists, repeats until nothing changes and drops the
        helpers the body no longer calls, within ``_SHRINK_BUDGET``
        candidate runs; otherwise it makes one pass over the top-level
        statements."""
        runs = [0]

        def holds(candidate) -> bool:
            if deep and runs[0] >= _SHRINK_BUDGET:
                return False
            runs[0] += 1
            return keep(candidate)

        current = copy.deepcopy(case)
        if deep and not holds(current):
            return current

        def shrink_list(stmts) -> bool:
            changed = False
            index = 0
            while index < len(stmts):
                trial = stmts[index]
                del stmts[index]
                if holds(current):
                    changed = True
                    continue
                stmts.insert(index, trial)
                if not deep:
                    index += 1
                    continue
                # Unwrap control flow: replace the statement with one of
                # its nested statement lists.
                unwrapped = False
                for child in filter(_is_stmts, trial[1:]):
                    stmts[index:index + 1] = copy.deepcopy(child)
                    if holds(current):
                        changed = unwrapped = True
                        break
                    stmts[index:index + len(child)] = [trial]
                if not unwrapped:
                    # Recurse into nested lists in place (switch cases
                    # are [const, stmts] pairs — descend through them).
                    for child in trial[1:]:
                        if not isinstance(child, list):
                            continue
                        if _is_stmts(child):
                            changed |= shrink_list(child)
                        for entry in child:
                            if isinstance(entry, list) and len(entry) == 2 \
                                    and _is_stmts(entry[1]):
                                changed |= shrink_list(entry[1])
                    index += 1
                # After a successful unwrap, revisit the same index.
            return changed

        spec = current["spec"]
        if not deep:
            shrink_list(spec["body"])
            return current
        while shrink_list(spec["body"]) and runs[0] < _SHRINK_BUDGET:
            pass
        # Drop helpers the (shrunken) body no longer calls.
        called = {stmt[1] for stmt in _walk_stmts(spec["body"])
                  if stmt[0] == "call"}
        trimmed = [helper for helper in spec["helpers"]
                   if helper["name"] in called]
        if len(trimmed) < len(spec["helpers"]):
            trial = dict(current, spec=dict(spec, helpers=trimmed))
            if holds(trial):
                current = trial
        return current

    def dumps(self, case: Dict, note: str = "") -> str:
        header = self._source([f"# entry: {_ENTRY}",
                               f"# args: {json.dumps(list(case['args']))}"],
                              note)
        return header + "\n\n" + print_module(build_module(case["spec"]))

    def loads(self, text: str) -> Dict:
        args = _header(text, "args")
        return {
            "text": text,
            "entry": _header(text, "entry") or _ENTRY,
            "args": json.loads(args) if args else [0] * _N_VARS,
            "features": [item for item in
                         (_header(text, "note") or "").split(",")
                         if item in _FEATURES],
        }


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


class FilterLane(Lane):
    """Random BPF expressions over well-formed and mutated frames: the
    classic VM, the interpreted tier and every compiled level decide
    alike.  A case is ``(filter text, frames)``; the frames are drawn
    once, at the lane's first case."""

    name = "filter"
    weight = 2
    frames: Optional[List[bytes]] = None

    def generate(self, rng: random.Random) -> Tuple[str, List[bytes]]:
        if self.frames is None:
            self.frames = _filter_frames(rng)
        return gen_filter_text(rng), self.frames

    def run(self, case, levels: Sequence[int]) -> Dict:
        from ..apps.bpf import compile_to_hilti, compile_to_vm, parse_filter

        text, frames = case
        node = parse_filter(text)
        filters = {"vm": compile_to_vm(node).run,
                   "interp": compile_to_hilti(node, tier="interpreted")}
        for level in levels:
            filters[f"O{level}"] = compile_to_hilti(node, opt_level=level)
        decisions = {name: bytes(1 if accept(frame) else 0
                                 for frame in frames)
                     for name, accept in filters.items()}
        pairs = {name: (got, decisions["interp"])
                 for name, got in decisions.items()}
        return {"divergences": _divergences(f"filter {text!r} ", "interp",
                                            pairs),
                "signature": None}


# ---------------------------------------------------------------------------
# Script lane: mini-Bro scripts, the interpreter against the compiled engine
#
# A case is a script and the events to raise.  Half the scripts are
# integer arithmetic through a helper function; half exercise Bro's
# containers — table, set and vector globals and locals, add/delete,
# index reads and writes (a missing key, a vector write at and past
# |v|), `in`, `for` and |x|.  The oracle drains the events through the
# event engine on the interpreter and the compiled engine at every level
# and compares the printed output, the weird lines and the outcome: the
# event engine contained every error (and how many), or one escaped.
# Corpus cases are ``.bro`` files: the events in the comment header, the
# script after it.

_SCRIPT_KEYS = ('k', '"a"', '"b"', '"zz"')
_SCRIPT_COUNTS = ('n', '0', '1', '2', '3')
# The containers a script case declares: name -> kind.
_SCRIPT_GLOBALS = {"t": "table", "s": "set", "v": "vector", "p": "pairs"}
_SCRIPT_DECLS = {
    "table": "table[string] of count",
    "set": "set[count]",
    "vector": "vector of string",
    "pairs": "table[string, count] of string",
}


def _gen_script_expr(rng: random.Random, names: Sequence[str],
                     depth: int = 0) -> str:
    if depth >= 2 or rng.random() < 0.5:
        if rng.random() < 0.4:
            return rng.choice(names)
        return str(rng.randint(0, 20))
    left = _gen_script_expr(rng, names, depth + 1)
    right = _gen_script_expr(rng, names, depth + 1)
    return f"({left} {rng.choice('+*')} {right})"


def _gen_arith_script(rng: random.Random) -> str:
    cond_op = rng.choice(("<", "<=", ">", ">=", "=="))
    ab = ("a", "b")
    abx = ("a", "b", "x")
    return f"""
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

event e0(a: count, b: count) {{
    print f(a, b);
}}
"""


def _gen_container_stmt(rng: random.Random, name: str, kind: str) -> str:
    key, count = rng.choice(_SCRIPT_KEYS), rng.choice(_SCRIPT_COUNTS)
    if kind == "table":
        return rng.choice((
            f"{name}[{key}] = n;",
            f"{name}[{key}] += n;",
            f"print {name}[{key}];",
            f"delete {name}[{key}];",
            f"print {key} in {name}, {key} !in {name}, |{name}|;",
            f"if ( {key} in {name} ) print {name}[{key}];",
            f"for ( x in {name} ) print x, {name}[x];",
            f"for ( x in {name} ) delete {name}[x];",
        ))
    if kind == "set":
        return rng.choice((
            f"add {name}[{count}];",
            f"delete {name}[{count}];",
            f"print {count} in {name}, {count} !in {name}, |{name}|;",
            f"for ( m in {name} ) print m;",
            f"print {name};",
        ))
    if kind == "vector":
        return rng.choice((
            f"{name}[|{name}|] = k;",
            f"{name}[{count}] = k;",
            f"print {name}[{count}];",
            f"print k in {name}, |{name}|, {name};",
            f"for ( i in {name} ) print i, {name}[i];",
        ))
    return rng.choice((
        f"{name}[k, {count}] = k;",
        f"print {name}[{key}, {count}];",
        f"delete {name}[k, {count}];",
        f"print [k, {count}] in {name}, |{name}|;",
        f"for ( x in {name} ) print x, {name}[x];",
    ))


def _gen_container_script(rng: random.Random) -> str:
    lines = [f"global {name}: {_SCRIPT_DECLS[kind]};"
             for name, kind in _SCRIPT_GLOBALS.items()]
    for index in range(rng.randint(1, 3)):
        body = []
        scope = list(_SCRIPT_GLOBALS.items())
        if rng.random() < 0.5:
            kind = rng.choice(sorted(_SCRIPT_DECLS))
            body.append(f"local l: {_SCRIPT_DECLS[kind]};")
            scope.append(("l", kind))
        for __ in range(rng.randint(2, 7)):
            body.append(_gen_container_stmt(rng, *rng.choice(scope)))
        lines.append(f"\nevent e{index}(k: string, n: count) {{")
        lines += [f"    {stmt}" for stmt in body]
        lines.append("}")
    return "\n".join(lines) + "\n"


def gen_script_case(rng: random.Random) -> Tuple[str, List]:
    """A script case: ``(source, events)``, each event ``[name, args]``."""
    if rng.random() < 0.5:
        source = _gen_arith_script(rng)
        return source, [["e0", [rng.randint(0, 50), rng.randint(0, 50)]]]
    source = _gen_container_script(rng)
    handlers = len(re.findall(r"^event ", source, re.M))
    events = [[f"e{rng.randrange(handlers)}",
               [rng.choice("abc"), rng.randint(0, 3)]]
              for __ in range(rng.randint(2, 8))]
    return source, events


def _script_outcome(source: str, events: Sequence, level=None) -> Tuple:
    """(outcome, printed output, weird lines) of draining *events* on the
    interpreter (*level* None) or the compiled engine at *level*."""
    import io

    from ..apps.bro.compiler import ScriptCompiler
    from ..apps.bro.core import WEIRD_LOG_COLUMNS, BroCore
    from ..apps.bro.interp import ScriptInterp
    from ..apps.bro.lang import parse_script
    from ..runtime.faults import SITE_SCRIPT_CALL

    core = BroCore(print_stream=io.StringIO())
    core.logs.create_stream("weird", WEIRD_LOG_COLUMNS)
    script = parse_script(source)
    core.script_engine = (
        ScriptInterp(script, core, print_stream=core.print_stream)
        if level is None else
        ScriptCompiler(script, core, opt_level=level).compile())
    for name, args in events:
        core.queue_event(name, list(args))
    try:
        core.drain_events()
        outcome = ("contained", core.health.errors_at(SITE_SCRIPT_CALL))
    except Exception as error:
        outcome = ("raise", type(error).__name__, str(error))
    return outcome, core.print_stream.getvalue(), core.logs.lines("weird")


class ScriptLane(Lane):
    """A case is ``(source, events)``.  The signature is what the case
    covers: its kind, its outcome and the classes of the runtime errors
    the event engine contained (``script:``-prefixed, as every emitted
    note has been)."""

    name = "script"
    suffix = "bro"

    def generate(self, rng: random.Random) -> Tuple[str, List]:
        return gen_script_case(rng)

    def run(self, case, levels: Sequence[int]) -> Dict:
        source, events = case
        expected = _script_outcome(source, events)
        pairs = {}
        for level in levels:
            got = _script_outcome(source, events, level)
            for what, mine, theirs in zip(("outcome", "output", "weirds"),
                                          got, expected):
                pairs[f"-O{level} {what}"] = (mine, theirs)
        outcome, __, weirds = expected
        errors = sorted({re.sub(r"'[^']*'|\d+", "_", line.split("\t")[3]
                                .split(": ", 1)[1]) for line in weirds})
        kind = "containers" if "global " in source else "arith"
        return {"expected": expected,
                "divergences": _divergences("script ", "interp", pairs),
                "signature": "script:" + ",".join([kind, outcome[0]]
                                                  + errors)}

    def dumps(self, case, note: str = "") -> str:
        source, events = case
        return self._source([f"# events: {json.dumps(list(events))}"],
                            note) + "\n" + source

    def loads(self, text: str) -> Tuple[str, List]:
        return _body(text), json.loads(_header(text, "events"))


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

        self.levels = tuple(levels)
        self.events: List[Tuple[str, Tuple]] = []

        def build(grammar, **kwargs):
            return Parser(grammar,
                          extra_modules=[unit_done_glue(
                              "HTTP", ["Request", "Reply"])],
                          on_event=self._on_event, **kwargs)

        self.reference = build(unfused_http_grammar(), opt_level=0)
        self.builds = {"interp": build(http_grammar(), tier="interpreted")}
        for level in self.levels:
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
        pairs, counts = {}, {}
        for name, parser in self.builds.items():
            before = parser.ctx.instr_count
            pairs[name] = (self._outcome(parser, unit, payload),
                           expected[False])
            counts[name] = parser.ctx.instr_count - before
            if name != "interp":
                pairs[f"{name} fed"] = (self._outcome(parser, unit, payload,
                                                      chunks),
                                        expected[True])
        divergences = _divergences("pac ", "unfused", pairs, counts)
        for fed, (__, error, __) in expected.items():
            if error is not None and error[0] == "crash":
                divergences.append(f"pac unfused{' fed' * fed} crashed: "
                                   f"{error[1]}")
        return {"expected": expected[False], "divergences": divergences}


def _built(oracle, make, levels: Sequence[int]):
    """*oracle* if it was made for *levels*, else a new ``make(levels)``:
    a grammar lane compiles its parsers at first use, drawing nothing."""
    levels = tuple(levels)
    return oracle if oracle is not None and oracle.levels == levels \
        else make(levels)


class PacLane(Lane):
    """A case is ``(unit, payload, feed splits)``.  Its cases are never
    kept as interesting: the checked-in ``.http`` files pin the parse
    errors that matter."""

    name = "pac"
    suffix = "http"
    oracle: Optional[_PacOracle] = None

    def generate(self, rng: random.Random) -> Tuple[str, bytes, List[int]]:
        unit = rng.choice(_HTTP_UNITS)
        payload = gen_http_input(rng, unit)
        cuts = sorted(rng.randrange(len(payload) + 1)
                      for __ in range(rng.randint(0, 6)))
        return unit, payload, cuts

    def run(self, case, levels: Sequence[int]) -> Dict:
        self.oracle = _built(self.oracle, _PacOracle, levels)
        return dict(self.oracle.run_case(*case), signature=None)

    def dumps(self, case, note: str = "") -> str:
        unit, payload, cuts = case
        return self._source([f"# unit: {unit}",
                             f"# splits: {json.dumps(list(cuts))}"],
                            note) + "\n\n" + payload.hex() + "\n"

    def loads(self, text: str) -> Tuple[str, bytes, List[int]]:
        return (_header(text, "unit"), bytes.fromhex(_body(text)),
                json.loads(_header(text, "splits")))


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
        self.parsers = {f"O{level}": Parser(dns_grammar(), opt_level=level)
                        for level in self.levels}
        self.parsers["interp"] = Parser(dns_grammar(), tier="interpreted")

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
        pairs, counts = {}, {}
        for side, parser in self.parsers.items():
            before = parser.ctx.instr_count
            pairs[side] = (_dns_outcome(
                lambda: parser.parse("Message", payload)), expected)
            counts[side] = parser.ctx.instr_count - before
        divergences = _divergences("dns ", "incremental", pairs, counts)
        if expected[0] == "crash":
            divergences.append(f"dns incremental crashed: {expected[1]}")
        return {"expected": expected, "divergences": divergences}


class DnsLane(Lane):
    """A case is ``(payload, mutation kinds)``.  The signature is the
    kinds and the reference's outcome; a corpus file keeps the kinds in
    its note."""

    name = "dns"
    suffix = "dns"
    oracle: Optional[_DnsOracle] = None

    def generate(self, rng: random.Random) -> Tuple[bytes, List[str]]:
        return gen_dns_input(rng)

    def run(self, case, levels: Sequence[int]) -> Dict:
        payload, kinds = case
        self.oracle = _built(self.oracle, _DnsOracle, levels)
        result = self.oracle.run_case(payload)
        expected = result["expected"]
        signature = ",".join(sorted(set(kinds)) + [expected[0]])
        if expected[0] == "raise":
            signature += f":{expected[1]}"
        return dict(result, signature=signature)

    def dumps(self, case, note: str = "") -> str:
        return self._source([], note) + "\n\n" + case[0].hex() + "\n"

    def loads(self, text: str) -> Tuple[bytes, List[str]]:
        return bytes.fromhex(_body(text)), [
            kind for kind in (_header(text, "note") or "").split(",")
            if kind in _DNS_MUTATIONS]


# One entry per lane: the --lanes default and the replay suffixes come
# from here.
LANES = {lane.name: lane for lane in (ModuleLane, FilterLane, ScriptLane,
                                      PacLane, DnsLane)}


# ---------------------------------------------------------------------------
# The fuzzing loop


def _verdict(lane: Lane, case, levels: Sequence[int]) -> Dict:
    """``lane.run``, with an exception reported as the case's divergence
    (its traceback on stderr): the generators emit only valid inputs, so
    anything the toolchain rejects is itself a finding."""
    try:
        return lane.run(case, levels)
    except Exception as error:
        traceback.print_exc()
        return {"divergences": [f"toolchain error: {error!r}"],
                "signature": None}


class Fuzzer:
    """Seeded, coverage-guided differential fuzzing across lanes."""

    def __init__(self, seed: int = 0, levels: Sequence[int] = OPT_LEVELS,
                 lanes: Sequence[str] = tuple(LANES)):
        self.rng = random.Random(seed)
        self.levels = tuple(levels)
        self.lanes = [LANES[name]() for name in lanes]
        self.signatures = set()
        self.divergences: List[Dict] = []
        self.cases = {lane.name: 0 for lane in self.lanes}

    def _holds(self, lane: Lane, test):
        """A shrink predicate: *test* holds for the candidate's result (a
        candidate the toolchain rejects reproduces nothing)."""
        def keep(candidate) -> bool:
            try:
                return test(lane.run(candidate, self.levels))
            except Exception:
                return False
        return keep

    def run_one(self) -> Dict:
        lane = self.rng.choices(
            self.lanes, weights=[lane.weight for lane in self.lanes])[0]
        case = lane.generate(self.rng)
        result = _verdict(lane, case, self.levels)
        self.cases[lane.name] += 1
        signature = result["signature"]
        if signature is not None \
                and (lane.name, signature) not in self.signatures:
            self.signatures.add((lane.name, signature))
            lane.interesting.append((case, signature))
        record = {"lane": lane.name, "case": case,
                  "divergences": result["divergences"]}
        if record["divergences"]:
            if lane.shrink is not None:
                case = lane.shrink(case, self._holds(
                    lane, lambda again: bool(again["divergences"])))
            if lane.suffix:
                record["reproduction"] = lane.dumps(
                    case, note="; ".join(record["divergences"]))
            self.divergences.append(record)
        return record

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

    def emit_corpus(self, directory: str, limit: int = 8) -> List[str]:
        """Write each lane's first *limit* interesting cases into
        *directory* as ``<lane>_<NNN>.<suffix>``.  A lane that can
        shrink trims each case first, in one shallow pass that keeps
        its signature and its agreement."""
        os.makedirs(directory, exist_ok=True)
        written = []
        for lane in self.lanes:
            for index, (case, note) in enumerate(lane.interesting[:limit]):
                if lane.shrink is not None:
                    case = lane.shrink(case, self._holds(
                        lane, lambda again, note=note:
                        again["signature"] == note
                        and not again["divergences"]), deep=False)
                path = os.path.join(directory,
                                    f"{lane.name}_{index:03d}.{lane.suffix}")
                with open(path, "w") as stream:
                    stream.write(lane.dumps(case, note=note))
                written.append(path)
        return written


# ---------------------------------------------------------------------------
# CLI


def _names(allowed: Sequence[str], what: str):
    """An argparse type: a comma-separated list drawn from *allowed*."""
    def parse(text: str) -> Tuple[str, ...]:
        names = tuple(part for part in text.split(",") if part)
        unknown = [name for name in names if name not in allowed]
        if unknown or not names:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {','.join(unknown) or repr(text)} "
                f"(choose from {','.join(allowed)})")
        return names
    return parse


def replay(directory: str, levels: Sequence[int]) -> Tuple[int, int]:
    """Replay every corpus case in *directory*, printing one line per
    case and one per divergence; returns ``(cases, divergences)``."""
    lanes = {cls.suffix: cls() for cls in LANES.values() if cls.suffix}
    paths = sorted(os.path.join(directory, name)
                   for name in (os.listdir(directory)
                                if os.path.isdir(directory) else ())
                   if os.path.splitext(name)[1][1:] in lanes)
    failures = 0
    for path in paths:
        lane = lanes[os.path.splitext(path)[1][1:]]
        with open(path) as stream:
            text = stream.read()
        divergences = _verdict(lane, lane.loads(text), levels)["divergences"]
        print(f"{path}: {'DIVERGED' if divergences else 'ok'}")
        for line in divergences:
            print(f"  {line}")
        failures += len(divergences)
    return len(paths), failures


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
    parser.add_argument("--levels",
                        type=_names([str(level) for level in OPT_LEVELS],
                                    "level"),
                        default=tuple(str(level) for level in OPT_LEVELS),
                        help="comma-separated opt levels to compare "
                             "(default all)")
    parser.add_argument("--lanes", type=_names(tuple(LANES), "lane"),
                        default=tuple(LANES),
                        help=f"comma-separated lanes to fuzz (default "
                             f"{','.join(LANES)})")
    parser.add_argument("--max-seconds", type=float, default=0,
                        help="stop after this wall-clock budget "
                             "(0 = no limit)")
    parser.add_argument("--emit-corpus", metavar="DIR", default=None,
                        help="write each lane's interesting cases, "
                             "trimmed, into DIR as replayable "
                             "<lane>_<NNN>.<suffix> files")
    parser.add_argument("--corpus-limit", type=int, default=8,
                        help="max corpus files to emit per lane "
                             "(default 8)")
    parser.add_argument("--replay", metavar="DIR", default=None,
                        help="replay every corpus case in DIR instead "
                             "of fuzzing")
    parser.add_argument("--progress", type=int, default=0, metavar="N",
                        help="print a progress line every N cases")
    args = parser.parse_args(argv)
    levels = tuple(int(level) for level in args.levels)

    if args.replay:
        cases, failures = replay(args.replay, levels)
        if not cases:
            parser.error(f"--replay {args.replay}: no corpus cases")
        print(f"replayed {cases} corpus cases, {failures} divergences")
        return 1 if failures else 0

    fuzzer = Fuzzer(seed=args.seed, levels=levels, lanes=args.lanes)
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
        if "reproduction" in case:
            print("  reproduction:")
            for line in case["reproduction"].splitlines():
                print(f"    {line}")
    if args.emit_corpus:
        written = fuzzer.emit_corpus(args.emit_corpus,
                                     limit=args.corpus_limit)
        for path in written:
            print(f"wrote {path}")
    return 1 if fuzzer.divergences else 0


if __name__ == "__main__":
    sys.exit(main())
