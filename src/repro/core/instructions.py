"""The HILTI instruction set.

Instructions have the general form ``<target> = <mnemonic> <op1> <op2>
<op3>`` with mnemonics grouped by prefix (paper, Table 1).  This module is
the single source of truth shared by the type checker, the AST interpreter,
and the closure code generator:

* ``InstrDef`` describes each mnemonic: target requirements, operand
  specs, and — for *value* instructions — a semantics function
  ``fn(ctx, *values) -> result``, plus an optional ``inline`` template:
  the same semantics as a Python expression over the operand
  expressions (``"({0} + {1})"``), which the code generator pastes into
  the function it emits instead of calling ``fn``.  ``inline_level`` is
  the lowest ``-O`` level that uses the template: operators inline at
  every level, the one-method wrappers on the parsers' hot path
  (``({0}).available()``) from ``-O1`` so ``-O0`` stays the
  generic-call baseline.
* *Engine* instructions (control flow, calls, fibers, hooks, timer
  advancement) have no ``fn``; both execution tiers implement them against
  the operand conventions documented per instruction.

Operand specs are strings: a kind name, with ``?`` marking an optional
trailing operand and ``*`` a variadic tail.  Kinds double as light-weight
type predicates for the verifier (``repro.core.typecheck``).
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Optional, Tuple

from ..runtime import classifier as rt_classifier
from ..runtime import containers as rt_containers
from ..runtime import overlay as rt_overlay
from ..runtime import regexp as rt_regexp
from ..runtime.bytes_buffer import Bytes, BytesIter
from ..runtime.channels import Channel
from ..runtime.exceptions import (
    ASSERTION_ERROR,
    DIVISION_BY_ZERO,
    HiltiError,
    INDEX_ERROR,
    VALUE_ERROR,
)
from ..runtime.files import HiltiFile
from ..runtime.iosrc import IOSource
from ..runtime.structs import Callable as HiltiCallable
from ..runtime.structs import StructInstance
from ..runtime.timers import Timer, TimerMgr
from . import types as ht
from .values import Addr, Interval, Network, Port, Time

__all__ = [
    "InstrDef",
    "REGISTRY",
    "ENGINE_MNEMONICS",
    "lookup",
    "default_value",
    "instantiate",
    "constructor",
]


class InstrDef:
    """Definition of one instruction."""

    __slots__ = ("mnemonic", "target", "operands", "fn", "engine", "doc",
                 "inline", "inline_level")

    def __init__(
        self,
        mnemonic: str,
        target: Optional[str],
        operands: Tuple[str, ...],
        fn: Optional[Callable] = None,
        engine: bool = False,
        doc: str = "",
        inline: Optional[str] = None,
        inline_level: int = 0,
    ):
        self.mnemonic = mnemonic
        self.target = target  # None, "req", or "opt"
        self.operands = operands
        self.fn = fn
        self.engine = engine
        self.doc = doc
        self.inline = inline
        self.inline_level = inline_level

    def min_operands(self) -> int:
        count = 0
        for spec in self.operands:
            if spec.endswith("?") or spec.endswith("*"):
                break
            count += 1
        return count

    def max_operands(self) -> Optional[int]:
        if any(spec.endswith("*") for spec in self.operands):
            return None
        return len(self.operands)

    def __repr__(self) -> str:
        return f"<instr {self.mnemonic}>"


REGISTRY: Dict[str, InstrDef] = {}
ENGINE_MNEMONICS = set()


def _register(mnemonic, target, operands, fn=None, engine=False, doc="",
              inline=None, inline_o1=None):
    if mnemonic in REGISTRY:
        raise ValueError(f"duplicate instruction {mnemonic}")
    REGISTRY[mnemonic] = InstrDef(
        mnemonic, target, tuple(operands), fn, engine, doc,
        inline=inline or inline_o1, inline_level=1 if inline_o1 else 0)
    if engine:
        ENGINE_MNEMONICS.add(mnemonic)


def lookup(mnemonic: str) -> InstrDef:
    try:
        return REGISTRY[mnemonic]
    except KeyError:
        raise ValueError(f"unknown instruction {mnemonic!r}") from None


# --------------------------------------------------------------------------
# Default values and allocation
# --------------------------------------------------------------------------


def default_value(value_type: ht.Type):
    """The default a local/field of *value_type* starts out with."""
    if isinstance(value_type, ht.Integer):
        return 0
    if isinstance(value_type, ht.Bool):
        return False
    if isinstance(value_type, ht.Double):
        return 0.0
    if isinstance(value_type, ht.String):
        return ""
    if isinstance(value_type, ht.TimeT):
        return Time.EPOCH
    if isinstance(value_type, ht.IntervalT):
        return Interval(0)
    if isinstance(value_type, ht.EnumT):
        return 0
    if isinstance(value_type, ht.BitsetT):
        return 0
    if isinstance(value_type, ht.TupleT):
        return tuple(default_value(t) for t in value_type.elements)
    # References, containers, and the remaining heap types start null.
    return None


def instantiate(ctx, value_type: ht.Type, *args):
    """Semantics of ``new <type> [args]``."""
    if isinstance(value_type, ht.RefT):
        value_type = value_type.target
    ctx.alloc_stats.on_new()
    if isinstance(value_type, ht.ListT):
        return rt_containers.HiltiList()
    if isinstance(value_type, ht.VectorT):
        return rt_containers.HiltiVector(default=default_value(value_type.element))
    if isinstance(value_type, ht.SetT):
        return rt_containers.HiltiSet()
    if isinstance(value_type, ht.MapT):
        return rt_containers.HiltiMap()
    if isinstance(value_type, ht.BytesT):
        return Bytes(args[0] if args else b"")
    if isinstance(value_type, ht.StructT):
        return (value_type.instance_class or StructInstance)(value_type)
    if isinstance(value_type, ht.OverlayT):
        return rt_overlay.OverlayInstance(value_type)
    if isinstance(value_type, ht.RegExpT):
        return rt_regexp.RegExp(args[0]) if args else None
    if isinstance(value_type, ht.ChannelT):
        return Channel(int(args[0]) if args else 0)
    if isinstance(value_type, ht.ClassifierT):
        rule = value_type.rule
        fields = len(rule.fields) if isinstance(rule, ht.StructT) else int(args[0])
        if len(args) > 1:
            impl = args[1]
        else:
            # "It will be straightforward to later transparently switch
            # to a better data structure" (§5): the host application can
            # select the classifier backend per program without touching
            # any HILTI code.
            options = getattr(ctx.program, "runtime_options", None) or {}
            impl = options.get("classifier", "linear")
        return rt_classifier.make_classifier(fields, impl)
    if isinstance(value_type, ht.TimerT):
        if not args:
            raise HiltiError(VALUE_ERROR, "new timer requires a callable")
        return Timer(args[0])
    if isinstance(value_type, ht.TimerMgrT):
        return TimerMgr()
    if isinstance(value_type, ht.FileT):
        return HiltiFile(ctx.file_manager)
    if isinstance(value_type, ht.CallableT):
        raise HiltiError(VALUE_ERROR, "use callable.bind to create callables")
    raise HiltiError(VALUE_ERROR, f"cannot instantiate type {value_type}")


def constructor(value_type: ht.Type) -> Optional[Callable]:
    """``new <type>`` for a type known at compile time.

    Returns ``make(ctx) -> object`` with :func:`instantiate`'s effect for
    the argument-less allocations generated code is full of (containers,
    bytes, structs), the type dispatch done once; None for every other
    type, which stays on the generic path.
    """
    if isinstance(value_type, ht.RefT):
        value_type = value_type.target
    if isinstance(value_type, ht.StructT):
        build = functools.partial(
            value_type.instance_class or StructInstance, value_type)
    elif isinstance(value_type, ht.VectorT):
        build = functools.partial(
            rt_containers.HiltiVector,
            default=default_value(value_type.element))
    else:
        build = {ht.ListT: rt_containers.HiltiList,
                 ht.SetT: rt_containers.HiltiSet,
                 ht.MapT: rt_containers.HiltiMap,
                 ht.BytesT: Bytes}.get(type(value_type))
        if build is None:
            return None

    def make(ctx):
        ctx.alloc_stats.on_new()
        return build()

    return make


_register(
    "new", "req", ("type", "val*"),
    fn=lambda ctx, t, *args: instantiate(ctx, t, *args),
    doc="Allocate a new heap object of the given type.",
)


# --------------------------------------------------------------------------
# Generic value handling
# --------------------------------------------------------------------------


def _generic_equal(a, b) -> bool:
    if isinstance(a, Bytes) and isinstance(b, (bytes, bytearray)):
        return a.to_bytes() == bytes(b)
    if isinstance(b, Bytes) and isinstance(a, (bytes, bytearray)):
        return b.to_bytes() == bytes(a)
    return a == b


_register("assign", "req", ("val",), fn=lambda ctx, v: v,
          doc="Copy a value into the target.", inline="{0}")
_register("equal", "req", ("val", "val"),
          fn=lambda ctx, a, b: _generic_equal(a, b),
          doc="Generic equality on two values of the same type.")
_register("unequal", "req", ("val", "val"),
          fn=lambda ctx, a, b: not _generic_equal(a, b),
          doc="Generic inequality.")
_register("select", "req", ("bool", "val", "val"),
          fn=lambda ctx, c, a, b: a if c else b,
          doc="Ternary select: target = cond ? a : b.")

# Short spellings used by generated code for boolean combination.
_register("and", "req", ("val", "val"), fn=lambda ctx, a, b: a and b,
          doc="Logical/bitwise and (per operand type).")
_register("or", "req", ("val", "val"), fn=lambda ctx, a, b: a or b,
          doc="Logical/bitwise or (per operand type).")
_register("not", "req", ("bool",), fn=lambda ctx, a: not a,
          doc="Boolean negation.", inline="(not {0})")


# --------------------------------------------------------------------------
# Integers
# --------------------------------------------------------------------------


def _int_div(ctx, a, b):
    if b == 0:
        raise HiltiError(DIVISION_BY_ZERO, "integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_mod(ctx, a, b):
    if b == 0:
        raise HiltiError(DIVISION_BY_ZERO, "integer modulo by zero")
    return a - b * _int_div(ctx, a, b)


_register("int.add", "req", ("int", "int"), fn=lambda ctx, a, b: a + b,
          inline="({0} + {1})")
_register("int.sub", "req", ("int", "int"), fn=lambda ctx, a, b: a - b,
          inline="({0} - {1})")
_register("int.mul", "req", ("int", "int"), fn=lambda ctx, a, b: a * b,
          inline="({0} * {1})")
_register("int.div", "req", ("int", "int"), fn=_int_div,
          doc="Truncating division; raises Hilti::DivisionByZero.")
_register("int.mod", "req", ("int", "int"), fn=_int_mod)
_register("int.pow", "req", ("int", "int"), fn=lambda ctx, a, b: a ** b)
_register("int.eq", "req", ("int", "int"), fn=lambda ctx, a, b: a == b,
          inline="({0} == {1})")
_register("int.lt", "req", ("int", "int"), fn=lambda ctx, a, b: a < b,
          inline="({0} < {1})")
_register("int.le", "req", ("int", "int"), fn=lambda ctx, a, b: a <= b,
          inline="({0} <= {1})")
_register("int.gt", "req", ("int", "int"), fn=lambda ctx, a, b: a > b,
          inline="({0} > {1})")
_register("int.ge", "req", ("int", "int"), fn=lambda ctx, a, b: a >= b,
          inline="({0} >= {1})")
_register("int.and", "req", ("int", "int"), fn=lambda ctx, a, b: a & b,
          inline="({0} & {1})")
_register("int.or", "req", ("int", "int"), fn=lambda ctx, a, b: a | b,
          inline="({0} | {1})")
_register("int.xor", "req", ("int", "int"), fn=lambda ctx, a, b: a ^ b,
          inline="({0} ^ {1})")
_register("int.shl", "req", ("int", "int"), fn=lambda ctx, a, b: a << b,
          inline="({0} << {1})")
_register("int.shr", "req", ("int", "int"), fn=lambda ctx, a, b: a >> b,
          inline="({0} >> {1})")
_register("int.incr", "req", ("int",), fn=lambda ctx, a: a + 1,
          inline="({0} + 1)")
_register("int.decr", "req", ("int",), fn=lambda ctx, a: a - 1,
          inline="({0} - 1)")
_register("int.neg", "req", ("int",), fn=lambda ctx, a: -a)
_register("int.abs", "req", ("int",), fn=lambda ctx, a: abs(a))
_register("int.min", "req", ("int", "int"), fn=lambda ctx, a, b: min(a, b))
_register("int.max", "req", ("int", "int"), fn=lambda ctx, a, b: max(a, b))
_register("int.to_double", "req", ("int",), fn=lambda ctx, a: float(a))
_register("int.to_time", "req", ("int",), fn=lambda ctx, a: Time(a))
_register("int.to_interval", "req", ("int",), fn=lambda ctx, a: Interval(a))
_register("int.wrap", "req", ("int", "int"),
          fn=lambda ctx, a, width: ht.int_type(width).wrap(a),
          doc="Wrap into two's-complement range of the given width.")


# --------------------------------------------------------------------------
# Doubles
# --------------------------------------------------------------------------


def _double_div(ctx, a, b):
    if b == 0.0:
        raise HiltiError(DIVISION_BY_ZERO, "double division by zero")
    return a / b


_register("double.add", "req", ("double", "double"), fn=lambda ctx, a, b: a + b,
          inline="({0} + {1})")
_register("double.sub", "req", ("double", "double"), fn=lambda ctx, a, b: a - b,
          inline="({0} - {1})")
_register("double.mul", "req", ("double", "double"), fn=lambda ctx, a, b: a * b,
          inline="({0} * {1})")
_register("double.div", "req", ("double", "double"), fn=_double_div)
_register("double.pow", "req", ("double", "double"), fn=lambda ctx, a, b: a ** b)
_register("double.eq", "req", ("double", "double"), fn=lambda ctx, a, b: a == b,
          inline="({0} == {1})")
_register("double.lt", "req", ("double", "double"), fn=lambda ctx, a, b: a < b,
          inline="({0} < {1})")
_register("double.gt", "req", ("double", "double"), fn=lambda ctx, a, b: a > b,
          inline="({0} > {1})")
_register("double.to_int", "req", ("double",), fn=lambda ctx, a: int(a))


# --------------------------------------------------------------------------
# Booleans / bitsets / enums
# --------------------------------------------------------------------------

_register("bool.and", "req", ("bool", "bool"), fn=lambda ctx, a, b: a and b,
          inline="({0} and {1})")
_register("bool.or", "req", ("bool", "bool"), fn=lambda ctx, a, b: a or b,
          inline="({0} or {1})")
_register("bool.xor", "req", ("bool", "bool"), fn=lambda ctx, a, b: a != b,
          inline="({0} != {1})")
_register("bool.not", "req", ("bool",), fn=lambda ctx, a: not a,
          inline="(not {0})")

_register("bitset.set", "req", ("int", "int"), fn=lambda ctx, a, b: a | b,
          doc="Set the given bits.")
_register("bitset.clear", "req", ("int", "int"), fn=lambda ctx, a, b: a & ~b)
_register("bitset.has", "req", ("int", "int"),
          fn=lambda ctx, a, b: (a & b) == b)

_register("enum.to_int", "req", ("int",), fn=lambda ctx, a: int(a))
_register("enum.from_int", "req", ("int",), fn=lambda ctx, a: int(a))


# --------------------------------------------------------------------------
# Strings
# --------------------------------------------------------------------------


def _string_fmt(ctx, template: str, args):
    """printf-lite formatting: %s %d %f %% (HILTI's string.format)."""
    out = []
    arg_iter = iter(args if isinstance(args, tuple) else (args,))
    i = 0
    while i < len(template):
        ch = template[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        i += 1
        if i >= len(template):
            raise HiltiError(VALUE_ERROR, "dangling % in format string")
        spec = template[i]
        i += 1
        if spec == "%":
            out.append("%")
            continue
        try:
            value = next(arg_iter)
        except StopIteration:
            raise HiltiError(VALUE_ERROR, "not enough format arguments") from None
        if spec == "d":
            out.append(str(int(value)))
        elif spec == "f":
            out.append(f"{float(value):f}")
        elif spec == "s":
            if isinstance(value, Bytes):
                out.append(value.to_bytes().decode("utf-8", "replace"))
            else:
                out.append(str(value))
        else:
            raise HiltiError(VALUE_ERROR, f"unknown format spec %{spec}")
    return "".join(out)


_register("string.concat", "req", ("string", "string"),
          fn=lambda ctx, a, b: a + b, inline="({0} + {1})")
_register("string.length", "req", ("string",), fn=lambda ctx, a: len(a))
_register("string.eq", "req", ("string", "string"), fn=lambda ctx, a, b: a == b,
          inline="({0} == {1})")
_register("string.lt", "req", ("string", "string"), fn=lambda ctx, a, b: a < b,
          inline="({0} < {1})")
_register("string.find", "req", ("string", "string"),
          fn=lambda ctx, a, b: a.find(b))
_register("string.upper", "req", ("string",), fn=lambda ctx, a: a.upper())
_register("string.lower", "req", ("string",), fn=lambda ctx, a: a.lower())
_register("string.substr", "req", ("string", "int", "int"),
          fn=lambda ctx, a, start, length: a[start:start + length])
_register("string.encode", "req", ("string",),
          fn=lambda ctx, a: _freeze(Bytes(a.encode("utf-8"))),
          doc="UTF-8 encode into a bytes object.")
_register("string.decode", "req", ("bytes",),
          fn=lambda ctx, a: a.to_bytes().decode("utf-8", "replace"),
          doc="UTF-8 decode a bytes object.")
_register("string.fmt", "req", ("string", "val"), fn=_string_fmt,
          doc="Format with %s/%d/%f specifiers from a tuple of arguments.")


def _freeze(value: Bytes) -> Bytes:
    value.freeze()
    return value


# --------------------------------------------------------------------------
# Bytes
# --------------------------------------------------------------------------


def _as_raw(value) -> bytes:
    if isinstance(value, Bytes):
        return value.to_bytes()
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    raise HiltiError(VALUE_ERROR, f"expected bytes, got {type(value).__name__}")


def _bytes_find(ctx, haystack, needle, start=None):
    found, it = haystack.find(_as_raw(needle), start)
    return found, it


_register("bytes.new", "req", ("val?",),
          fn=lambda ctx, raw=b"": _new_bytes(ctx, raw))


def _new_bytes(ctx, raw=b""):
    ctx.alloc_stats.on_new()
    return Bytes(_as_raw(raw) if raw else b"")


_register("bytes.append", None, ("bytes", "val"),
          fn=lambda ctx, b, data: b.append(
              data if isinstance(data, Bytes) else _as_raw(data)))
_register("bytes.length", "req", ("bytes",), fn=lambda ctx, b: len(b))
_register("bytes.empty", "req", ("bytes",), fn=lambda ctx, b: len(b) == 0)
_register("bytes.cmp", "req", ("bytes", "bytes"),
          fn=lambda ctx, a, b: (_as_raw(a) > _as_raw(b)) - (_as_raw(a) < _as_raw(b)))
_register("bytes.eq", "req", ("bytes", "bytes"),
          fn=lambda ctx, a, b: _as_raw(a) == _as_raw(b))
_register("bytes.contains", "req", ("bytes", "bytes"),
          fn=lambda ctx, a, b: _as_raw(b) in _as_raw(a))
_register("bytes.startswith", "req", ("bytes", "bytes"),
          fn=lambda ctx, a, b: _as_raw(a).startswith(_as_raw(b)))
_register("bytes.sub", "req", ("iter", "iter"),
          fn=lambda ctx, i1, i2: i1.bytes_obj.sub(i1, i2),
          inline_o1="({0}).bytes_obj.sub({0}, {1})")
_register("bytes.find", "req", ("bytes", "bytes", "iter?"), fn=_bytes_find,
          doc="Returns (found, iterator) tuple.")
_register("bytes.offset", "req", ("bytes", "int"),
          fn=lambda ctx, b, off: b.at(b.begin_offset + off))
_register("bytes.begin", "req", ("bytes",), fn=lambda ctx, b: b.begin())
_register("bytes.end", "req", ("bytes",), fn=lambda ctx, b: b.end())
_register("bytes.freeze", None, ("bytes",), fn=lambda ctx, b: b.freeze())
_register("bytes.unfreeze", None, ("bytes",), fn=lambda ctx, b: b.unfreeze())
_register("bytes.is_frozen", "req", ("bytes",), fn=lambda ctx, b: b.is_frozen,
          inline_o1="({0}).is_frozen")
_register("bytes.trim", None, ("bytes", "iter"),
          fn=lambda ctx, b, it: b.trim(it))
_register("bytes.to_int", "req", ("bytes", "int?"),
          fn=lambda ctx, b, base=10: b.to_int(base))
_register("bytes.lower", "req", ("bytes",), fn=lambda ctx, b: b.lower())
_register("bytes.upper", "req", ("bytes",), fn=lambda ctx, b: b.upper())
_register("bytes.strip", "req", ("bytes",), fn=lambda ctx, b: b.strip())
_register("bytes.split1", "req", ("bytes", "bytes"),
          fn=lambda ctx, b, sep: b.split1(_as_raw(sep)))
_register("bytes.split", "req", ("bytes", "bytes"),
          fn=lambda ctx, b, sep: _list_of(b.split(_as_raw(sep))))
_register("bytes.copy", "req", ("bytes",),
          fn=lambda ctx, b: _freeze(Bytes(b.to_bytes())))
_register("bytes.concat", "req", ("bytes", "bytes"),
          fn=lambda ctx, a, b: a + b)
_register("bytes.available", "req", ("iter",),
          fn=lambda ctx, it: it.available(),
          doc="Bytes available at and after the iterator position.",
          inline_o1="({0}).available()")
_register("bytes.match_at", "req", ("iter", "bytes"),
          fn=lambda ctx, it, prefix: it.bytes_obj.startswith(
              _as_raw(prefix), it),
          doc="True if the data at the iterator starts with the prefix.")
_register("bytes.at_end", "req", ("iter",),
          fn=lambda ctx, it: it.at_end(),
          doc="True if the iterator sits at the current end of data.",
          inline_o1="({0}).at_end()")


def _list_of(items):
    result = rt_containers.HiltiList()
    for item in items:
        result.push_back(item)
    return result


# Generic iterator operations (bytes, list, and container iterators).
def _iter_incr(ctx, it):
    return it.incr()


def _iter_incr_by(ctx, it, n):
    if isinstance(it, BytesIter):
        return it.incr_by(n)
    for __ in range(n):
        it = it.incr()
    return it


def _iter_deref(ctx, it):
    return it.deref()


_register("iterator.incr", "req", ("iter",), fn=_iter_incr)
_register("iterator.incr_by", "req", ("iter", "int"), fn=_iter_incr_by)
_register("iterator.deref", "req", ("iter",), fn=_iter_deref)
_register("iterator.eq", "req", ("iter", "iter"), fn=lambda ctx, a, b: a == b)
_register("iterator.distance", "req", ("iter", "iter"),
          fn=lambda ctx, a, b: a.distance(b))


# --------------------------------------------------------------------------
# Domain types: addr / net / port / time / interval
# --------------------------------------------------------------------------

_register("addr.family", "req", ("addr",), fn=lambda ctx, a: a.family)
_register("addr.eq", "req", ("addr", "addr"), fn=lambda ctx, a, b: a == b)
_register("addr.mask", "req", ("addr", "int"),
          fn=lambda ctx, a, length: a.mask(length))
_register("addr.to_string", "req", ("addr",), fn=lambda ctx, a: str(a))

_register("net.family", "req", ("net",), fn=lambda ctx, n: n.family)
_register("net.prefix", "req", ("net",), fn=lambda ctx, n: n.prefix)
_register("net.length", "req", ("net",), fn=lambda ctx, n: n.length)
_register("net.contains", "req", ("net", "addr"),
          fn=lambda ctx, n, a: n.contains(a))

_register("port.protocol", "req", ("port",), fn=lambda ctx, p: p.protocol)
_register("port.number", "req", ("port",), fn=lambda ctx, p: p.number)
_register("port.eq", "req", ("port", "port"), fn=lambda ctx, a, b: a == b)

_register("time.add", "req", ("time", "interval"), fn=lambda ctx, t, i: t + i)
_register("time.sub", "req", ("time", "val"), fn=lambda ctx, t, o: t - o)
_register("time.eq", "req", ("time", "time"), fn=lambda ctx, a, b: a == b)
_register("time.lt", "req", ("time", "time"), fn=lambda ctx, a, b: a < b)
_register("time.gt", "req", ("time", "time"), fn=lambda ctx, a, b: a > b)
_register("time.nsecs", "req", ("time",), fn=lambda ctx, t: t.nanos)
_register("time.from_nsecs", "req", ("int",),
          fn=lambda ctx, n: Time.from_nanos(n))
_register("time.to_double", "req", ("time",), fn=lambda ctx, t: t.seconds)
_register("time.from_double", "req", ("double",), fn=lambda ctx, d: Time(d))

_register("interval.add", "req", ("interval", "interval"),
          fn=lambda ctx, a, b: a + b)
_register("interval.sub", "req", ("interval", "interval"),
          fn=lambda ctx, a, b: a - b)
_register("interval.mul", "req", ("interval", "int"),
          fn=lambda ctx, a, b: a * b)
_register("interval.eq", "req", ("interval", "interval"),
          fn=lambda ctx, a, b: a == b)
_register("interval.lt", "req", ("interval", "interval"),
          fn=lambda ctx, a, b: a < b)
_register("interval.gt", "req", ("interval", "interval"),
          fn=lambda ctx, a, b: a > b)
_register("interval.nsecs", "req", ("interval",), fn=lambda ctx, i: i.nanos)
_register("interval.from_nsecs", "req", ("int",),
          fn=lambda ctx, n: Interval.from_nanos(n))
_register("interval.to_double", "req", ("interval",),
          fn=lambda ctx, i: i.seconds)
_register("interval.from_double", "req", ("double",),
          fn=lambda ctx, d: Interval(d))


# --------------------------------------------------------------------------
# Tuples
# --------------------------------------------------------------------------

_register("tuple.index", "req", ("tuple", "int"),
          fn=lambda ctx, t, i: _tuple_index(t, i))
_register("tuple.length", "req", ("tuple",), fn=lambda ctx, t: len(t))


def _tuple_index(t, i):
    if not 0 <= i < len(t):
        raise HiltiError(INDEX_ERROR, f"tuple index {i} out of range")
    return t[i]


# --------------------------------------------------------------------------
# Containers: list / vector / set / map
# --------------------------------------------------------------------------


def _require(value, kind):
    if value is None:
        raise HiltiError(VALUE_ERROR, f"null reference used as {kind}")
    return value


_register("list.push_back", None, ("ref", "val"),
          fn=lambda ctx, l, v: _require(l, "list").push_back(v))
_register("list.append", None, ("ref", "val"),
          fn=lambda ctx, l, v: _require(l, "list").push_back(v))
_register("list.push_front", None, ("ref", "val"),
          fn=lambda ctx, l, v: _require(l, "list").push_front(v))
_register("list.pop_front", "req", ("ref",),
          fn=lambda ctx, l: _require(l, "list").pop_front())
_register("list.pop_back", "req", ("ref",),
          fn=lambda ctx, l: _require(l, "list").pop_back())
_register("list.front", "req", ("ref",),
          fn=lambda ctx, l: _require(l, "list").front())
_register("list.back", "req", ("ref",),
          fn=lambda ctx, l: _require(l, "list").back())
_register("list.size", "req", ("ref",), fn=lambda ctx, l: len(_require(l, "list")))
_register("list.erase", None, ("iter",),
          fn=lambda ctx, it: it.owner.erase(it))
_register("list.insert", None, ("val", "iter"),
          fn=lambda ctx, v, it: it.owner.insert_before(it, v))
_register("list.begin", "req", ("ref",), fn=lambda ctx, l: l.begin())
_register("list.end", "req", ("ref",), fn=lambda ctx, l: l.end())
_register("list.clear", None, ("ref",), fn=lambda ctx, l: l.clear())

_register("vector.get", "req", ("ref", "int"),
          fn=lambda ctx, v, i: _require(v, "vector").get(i))
_register("vector.set", None, ("ref", "int", "val"),
          fn=lambda ctx, v, i, value: _require(v, "vector").set(i, value))
_register("vector.push_back", None, ("ref", "val"),
          fn=lambda ctx, v, value: _require(v, "vector").push_back(value))
_register("vector.size", "req", ("ref",),
          fn=lambda ctx, v: len(_require(v, "vector")))
_register("vector.reserve", None, ("ref", "int"),
          fn=lambda ctx, v, n: _require(v, "vector").reserve(n))

_register("set.insert", None, ("ref", "val"),
          fn=lambda ctx, s, v: _require(s, "set").insert(v))
_register("set.exists", "req", ("ref", "val"),
          fn=lambda ctx, s, v: _require(s, "set").exists(v))
_register("set.remove", None, ("ref", "val"),
          fn=lambda ctx, s, v: _require(s, "set").remove(v))
_register("set.size", "req", ("ref",), fn=lambda ctx, s: len(_require(s, "set")))
_register("set.clear", None, ("ref",), fn=lambda ctx, s: s.clear())
_register("set.timeout", None, ("ref", "field", "interval"),
          fn=lambda ctx, s, strategy, timeout: s.set_timeout(
              strategy, timeout, ctx.timer_mgr),
          doc="Attach an expiration policy (strategy: Create or Access).")

_register("map.insert", None, ("ref", "val", "val"),
          fn=lambda ctx, m, k, v: _require(m, "map").insert(k, v))
_register("map.get", "req", ("ref", "val"),
          fn=lambda ctx, m, k: _require(m, "map").get(k))
_register("map.get_default", "req", ("ref", "val", "val"),
          fn=lambda ctx, m, k, d: _require(m, "map").get_default(k, d))
_register("map.exists", "req", ("ref", "val"),
          fn=lambda ctx, m, k: _require(m, "map").exists(k))
_register("map.remove", None, ("ref", "val"),
          fn=lambda ctx, m, k: _require(m, "map").remove(k))
_register("map.size", "req", ("ref",), fn=lambda ctx, m: len(_require(m, "map")))
_register("map.clear", None, ("ref",), fn=lambda ctx, m: m.clear())
_register("map.default", None, ("ref", "val"),
          fn=lambda ctx, m, d: m.set_default(d))
_register("map.timeout", None, ("ref", "field", "interval"),
          fn=lambda ctx, m, strategy, timeout: m.set_timeout(
              strategy, timeout, ctx.timer_mgr))


def _container_on_expire(ctx, container, bound):
    """Queue *bound(key)* for the engine whenever an entry expires."""

    def hook(key):
        ctx.pending_expirations.append(
            HiltiCallable(bound.function, tuple(bound.args) + (key,))
        )

    container.on_expire(hook)


_register("map.on_expire", None, ("ref", "val"), fn=_container_on_expire,
          doc="Run a callable with the evicted key whenever an entry "
              "expires (state-management hook for library components).")
_register("set.on_expire", None, ("ref", "val"), fn=_container_on_expire,
          doc="Run a callable with the evicted element on expiration.")


# --------------------------------------------------------------------------
# Structs
# --------------------------------------------------------------------------

# The struct semantics are StructInstance's own, called unbound: a host
# value that *is* a struct (Bro's RecordVal) may layer a by-name API of
# its own on top without changing what the instructions do.
_register("struct.get", "req", ("ref", "field"),
          fn=lambda ctx, s, f: StructInstance.get(_require(s, "struct"), f))
_register("struct.get_default", "req", ("ref", "field", "val"),
          fn=lambda ctx, s, f, d: StructInstance.get_default(
              _require(s, "struct"), f, d))
_register("struct.set", None, ("ref", "field", "val"),
          fn=lambda ctx, s, f, v: StructInstance.set(
              _require(s, "struct"), f, v))
_register("struct.is_set", "req", ("ref", "field"),
          fn=lambda ctx, s, f: StructInstance.is_set(
              _require(s, "struct"), f))
_register("struct.unset", None, ("ref", "field"),
          fn=lambda ctx, s, f: StructInstance.unset(
              _require(s, "struct"), f))


# --------------------------------------------------------------------------
# Overlays and unpacking
# --------------------------------------------------------------------------


def _overlay_get(ctx, overlay_type, field, data):
    """One-shot field read: attach-and-get, as Figure 4's generated code."""
    if isinstance(overlay_type, ht.RefT):
        overlay_type = overlay_type.target
    fld = overlay_type.field(field)
    return rt_overlay.unpack_value(data, data.begin_offset + fld.offset, fld.fmt)


_register("overlay.attach", None, ("ref", "bytes"),
          fn=lambda ctx, o, data: o.attach(data))
_register("overlay.get", "req", ("type", "field", "bytes"), fn=_overlay_get,
          doc="Extract a field of the overlay type from raw data.")
_register("overlay.get_attached", "req", ("ref", "field"),
          fn=lambda ctx, o, f: o.get(f))


def _unpack(ctx, data, offset, fmt_name, bits=None):
    fmt = ht.UnpackFormat(fmt_name, tuple(bits) if bits else None)
    return rt_overlay.unpack_value(data, data.begin_offset + offset, fmt)


_register("unpack", "req", ("bytes", "int", "field", "tuple?"), fn=_unpack,
          doc="Unpack a single value at a byte offset per the given format.")


def _pack(ctx, value, fmt_name):
    """Render *value* into wire format per *fmt_name* (inverse of unpack)."""
    import struct as _struct

    from ..runtime.overlay import canonical_format

    name = canonical_format(fmt_name)
    codes = {
        "UInt8Big": ">B", "UInt8Little": "<B",
        "UInt16Big": ">H", "UInt16Little": "<H",
        "UInt32Big": ">I", "UInt32Little": "<I",
        "UInt64Big": ">Q", "UInt64Little": "<Q",
        "Int8Big": ">b", "Int16Big": ">h",
        "Int32Big": ">i", "Int64Big": ">q",
        "DoubleBig": ">d", "DoubleLittle": "<d",
    }
    if name in codes:
        try:
            raw = _struct.pack(codes[name], value)
        except _struct.error as exc:
            raise HiltiError(VALUE_ERROR, f"cannot pack {value!r}: {exc}") \
                from exc
    elif name == "IPv4":
        if not isinstance(value, Addr) or not value.is_v4:
            raise HiltiError(VALUE_ERROR, "IPv4 pack needs a v4 address")
        raw = value.packed()
    elif name == "IPv6":
        if not isinstance(value, Addr):
            raise HiltiError(VALUE_ERROR, "IPv6 pack needs an address")
        raw = value.value.to_bytes(16, "big")
    elif name in ("PortTCP", "PortUDP"):
        number = value.number if isinstance(value, Port) else int(value)
        raw = _struct.pack(">H", number)
    else:
        raise HiltiError(VALUE_ERROR, f"cannot pack format {fmt_name!r}")
    out = Bytes(raw)
    out.freeze()
    return out


_register("pack", "req", ("val", "field"), fn=_pack,
          doc="Render a value into wire-format bytes (inverse of unpack).")


def _unpack_iter(ctx, it, *fmt_names):
    return rt_overlay.make_seq_unpacker(fmt_names)(it)


_register("bytes.unpack", "req", ("iter", "field"), fn=_unpack_iter,
          doc="Unpack at an iterator; returns (value, advanced iterator).")
_register("bytes.unpack_seq", "req", ("iter", "field", "field*"),
          fn=_unpack_iter,
          doc="Unpack consecutive fields at an iterator in one read; "
              "returns (value, ..., advanced iterator).")


# --------------------------------------------------------------------------
# Classifier
# --------------------------------------------------------------------------

_register("classifier.add", None, ("ref", "tuple", "val"),
          fn=lambda ctx, c, fields, v: _require(c, "classifier").add(fields, v))
_register("classifier.compile", None, ("ref",),
          fn=lambda ctx, c: _require(c, "classifier").compile())
_register("classifier.get", "req", ("ref", "tuple"),
          fn=lambda ctx, c, key: _require(c, "classifier").get(key))
_register("classifier.matches", "req", ("ref", "tuple"),
          fn=lambda ctx, c, key: _require(c, "classifier").matches(key))
_register("classifier.size", "req", ("ref",),
          fn=lambda ctx, c: _require(c, "classifier").rule_count)


# --------------------------------------------------------------------------
# Regular expressions
# --------------------------------------------------------------------------


def _regexp_compile(ctx, patterns):
    if isinstance(patterns, rt_containers.HiltiList):
        patterns = list(patterns)
    elif isinstance(patterns, (str, bytes, Bytes)):
        patterns = [patterns]
    patterns = [
        p.to_bytes().decode("latin-1") if isinstance(p, Bytes) else p
        for p in patterns
    ]
    ctx.alloc_stats.on_new()
    return rt_regexp.RegExp(patterns)


_register("regexp.compile", "req", ("val",), fn=_regexp_compile,
          doc="Compile one pattern or a list of patterns into a regexp.")
_register("regexp.match", "req", ("ref", "bytes"),
          fn=lambda ctx, r, data: r.matches(_as_raw(data)),
          doc="Anchored match against a bytes value; returns pattern id.")
_register("regexp.match_token", "req", ("ref", "iter"),
          fn=lambda ctx, r, it: r.match_token(it.bytes_obj, it),
          doc="Incremental anchored match; returns (status, iterator).",
          inline_o1="({0}).match_token(({1}).bytes_obj, {1})")
_register("regexp.match_seq", "req", ("iter", "int", "ref", "ref*"),
          fn=lambda ctx, it, mask, *regexps: rt_regexp.match_seq(
              it, mask, *regexps),
          doc="Match tokens in turn, each longest-first, at an iterator; "
              "returns (status, end iterator, failing index, one bytes "
              "per token named in the mask).")
_register("regexp.find", "req", ("ref", "bytes"),
          fn=lambda ctx, r, data: r.find(_as_raw(data)),
          doc="Leftmost match anywhere; returns (id, begin, end).")
_register("regexp.matches_exactly", "req", ("ref", "bytes"),
          fn=lambda ctx, r, data: r.matches_exactly(_as_raw(data)))


# --------------------------------------------------------------------------
# Channels
# --------------------------------------------------------------------------

_register("channel.write", None, ("ref", "val"),
          fn=lambda ctx, c, v: _require(c, "channel").write_try(v))
_register("channel.write_try", None, ("ref", "val"),
          fn=lambda ctx, c, v: _require(c, "channel").write_try(v))
_register("channel.read", "req", ("ref",),
          fn=lambda ctx, c: _require(c, "channel").read_try())
_register("channel.read_try", "req", ("ref",),
          fn=lambda ctx, c: _require(c, "channel").read_try())
_register("channel.size", "req", ("ref",),
          fn=lambda ctx, c: _require(c, "channel").size())


# --------------------------------------------------------------------------
# Timers and timer managers
# --------------------------------------------------------------------------

_register("timer.cancel", None, ("ref",), fn=lambda ctx, t: t.cancel())
_register("timer.update", None, ("ref", "time"),
          fn=lambda ctx, t, when: t.update(when))

_register("timer_mgr.schedule", None, ("ref", "time", "ref"),
          fn=lambda ctx, mgr, when, timer: mgr.schedule(when, timer))
_register("timer_mgr.schedule_global", None, ("time", "ref"),
          fn=lambda ctx, when, timer: ctx.timer_mgr.schedule(when, timer))
_register("timer_mgr.current", "req", ("ref?",),
          fn=lambda ctx, mgr=None: (mgr or ctx.timer_mgr).current)
# timer_mgr.advance / advance_global are engine instructions: expired
# timers carry HILTI callables the engine must execute.
_register("timer_mgr.advance", None, ("ref", "time"), engine=True,
          doc="Advance a timer manager, firing due timers.")
_register("timer_mgr.advance_global", None, ("time",), engine=True,
          doc="Advance this thread's global notion of time.")
_register("timer_mgr.expire_all", None, ("ref?",), engine=True,
          doc="Fire all pending timers of the manager.")


# --------------------------------------------------------------------------
# Files and I/O sources
# --------------------------------------------------------------------------

_register("file.open", None, ("ref", "string"),
          fn=lambda ctx, f, path: _require(f, "file").open(path))
_register("file.write", None, ("ref", "val"),
          fn=lambda ctx, f, data: _require(f, "file").write(data))
_register("file.close", None, ("ref",), fn=lambda ctx, f: f.close())

_register("iosrc.new", "req", ("string",),
          fn=lambda ctx, path: IOSource.from_pcap(path))
_register("iosrc.read", "req", ("ref",),
          fn=lambda ctx, src: _require(src, "iosrc").read(),
          doc="Next packet as (time, bytes) or None at end of input.")
_register("iosrc.close", None, ("ref",), fn=lambda ctx, src: None)


# --------------------------------------------------------------------------
# Debugging, profiling, exceptions
# --------------------------------------------------------------------------


def _debug_msg(ctx, stream, fmt, args=()):
    message = _string_fmt(ctx, fmt, args) if args else fmt
    ctx.debug_stream.write(f"[{stream}] {message}\n")


def _debug_assert(ctx, cond, message=""):
    if not cond:
        raise HiltiError(ASSERTION_ERROR, message or "assertion failed")


_register("debug.msg", None, ("string", "string", "tuple?"), fn=_debug_msg)
_register("debug.assert", None, ("bool", "string?"), fn=_debug_assert)

_register("profiler.start", None, ("string",),
          fn=lambda ctx, name: ctx.profilers.get(name).start(
              ctx.instr_count, ctx.alloc_stats.allocations))
_register("profiler.stop", None, ("string",),
          fn=lambda ctx, name: ctx.profilers.get(name).stop(
              ctx.instr_count, ctx.alloc_stats.allocations))
_register("profiler.update", None, ("string", "int?"),
          fn=lambda ctx, name, amount=0: ctx.profilers.get(name).update(
              wall_ns=amount))


def _exception_new(ctx, type_name, message=""):
    from ..runtime.exceptions import builtin_exception_types

    exc_type = builtin_exception_types().get(
        type_name, ht.ExceptionT(type_name)
    )
    return HiltiError(exc_type, message)


_register("exception.new", "req", ("field", "string?"), fn=_exception_new)
_register("exception.throw", None, ("val",), engine=True,
          doc="Raise a HILTI exception (unwinds to nearest handler).")


# --------------------------------------------------------------------------
# Engine instructions: control flow, calls, concurrency
# --------------------------------------------------------------------------

_register("jump", None, ("label",), engine=True, doc="Unconditional branch.")
_register("if.else", None, ("bool", "label", "label"), engine=True,
          doc="Branch to first label if true, else second.")
_register("switch", None, ("val", "label", "tuple*"), engine=True,
          doc="Multi-way branch: operands are value, default label, then "
              "(constant, label) pairs.")
_register("return.void", None, (), engine=True)
_register("return.result", None, ("val",), engine=True)
_register("call", "opt", ("func", "tuple?"), engine=True,
          doc="Call a HILTI or host (native) function with a tuple of args.")
_register("yield", None, (), engine=True,
          doc="Suspend the current fiber; resumption continues here.")
_register("try.begin", None, ("label", "type", "val?"), engine=True,
          doc="Enter a try scope whose handler is at the label.")
_register("try.end", None, (), engine=True, doc="Leave the innermost try scope.")
_register("hook.run", "opt", ("field", "tuple?"), engine=True,
          doc="Run all bodies of the named hook.")
_register("hook.stop", None, ("val?",), engine=True,
          doc="Stop executing the current hook's remaining bodies.")
_register("callable.bind", "req", ("func", "tuple?"), engine=True,
          doc="Capture a function call as a callable value.")
_register("callable.call", "opt", ("val",), engine=True,
          doc="Invoke a callable value.")
_register("thread.schedule", None, ("func", "tuple", "int"), engine=True,
          doc="Schedule an asynchronous call onto a virtual thread.")
_register("hook.group_enable", None, ("field",),
          fn=lambda ctx, group: ctx.hook_groups_disabled.discard(group),
          doc="Re-enable all hook bodies of the named group.")
_register("hook.group_disable", None, ("field",),
          fn=lambda ctx, group: ctx.hook_groups_disabled.add(group),
          doc="Skip all hook bodies of the named group until re-enabled.")
_register("watchpoint.add", None, ("val", "val"),
          fn=lambda ctx, predicate, action: ctx.watchpoints.append(
              [predicate, action, False]),
          doc="Register a watchpoint: when the predicate callable turns "
              "true, run the action callable once (the planned extension "
              "supporting Bro's `when`, paper footnote 4).")
_register("watchpoint.check", None, (), engine=True,
          doc="Evaluate all pending watchpoints, firing due actions.")
_register("thread.id", "req", (),
          fn=lambda ctx: ctx.vthread_id,
          doc="The id of the executing virtual thread.")
