"""HILTI-to-Bro glue: converting between Vals and HILTI values.

Even with the interpreter replaced by compiled code, the rest of Bro —
logging, event generation, builtins — still traffics in ``Val`` instances,
so the HILTI plugin "needs to generate a significant amount of glue code,
which comes with a corresponding performance penalty" (paper, section 5).
This module is that glue: bidirectional conversion between the Val
wrappers and HILTI runtime objects, instrumented so the Figure 9/10
benchmarks can report the glue share of total cycles.

The boundary rule: a typed record is shared, not converted.  Once it has
crossed into compiled code its container and bytes fields are HILTI
values — Bro containers the host put there are lowered in place, those
scripts write stay as written — and Val consumers (natives, the log
framework, host Python) read it through ``from_hilti``, which returns a
Val-only snapshot, or the record itself when it holds none.
"""

from __future__ import annotations

from functools import lru_cache
from operator import is_
from time import perf_counter_ns
from typing import Dict, List, Sequence

from ...core import types as ht
from ...runtime.bytes_buffer import Bytes
from ...runtime.containers import HiltiList, HiltiMap, HiltiSet, HiltiVector
from ...runtime.structs import StructInstance
from .val import RecordVal, SetVal, TableVal, VectorVal

__all__ = ["Glue"]

# The Val-side types that are not their own HILTI value, and back.
# Anything else (scalars incl. Addr/Port/Time/Interval/bytes/str)
# crosses the boundary untouched.
_BRO_BOXED = frozenset((RecordVal, TableVal, SetVal, VectorVal, tuple))
_HILTI_BOXED = frozenset((StructInstance, RecordVal, HiltiMap, HiltiSet,
                          HiltiVector, HiltiList, Bytes, tuple))


@lru_cache(maxsize=256)
def _anon_struct(names: tuple) -> ht.StructT:
    """The stand-in layout of an untyped record with these fields."""
    return ht.StructT("anon<" + ",".join(names) + ">",
                      [ht.StructField(name, ht.ANY) for name in names])


class Glue:
    """A conversion context with accounting.

    ``to_hilti_calls``/``from_hilti_calls`` count values crossing the
    boundary; ``ns_spent`` brackets each argument list once, not each
    value.
    """

    def __init__(self):
        self.to_hilti_calls = 0
        self.from_hilti_calls = 0
        self.ns_spent = 0

    # -- conversions ------------------------------------------------------------

    def to_hilti(self, value):
        """Val -> HILTI value."""
        return self.args_to_hilti((value,))[0]

    def args_to_hilti(self, args: Sequence) -> List:
        """One event's or call's arguments, Val -> HILTI; timed once."""
        begin = perf_counter_ns()
        out = [self._to_hilti(a) if type(a) in _BRO_BOXED else a
               for a in args]
        self.to_hilti_calls += len(out)
        self.ns_spent += perf_counter_ns() - begin
        return out

    def _to_hilti(self, value):
        kind = type(value)
        convert = self._to_hilti
        if kind is RecordVal:
            if value._extra is not None:
                # Untyped: no layout to share; copy into a stand-in.
                fields = value._extra
                return StructInstance(_anon_struct(tuple(fields)),
                                      [convert(v) for v in fields.values()])
            # A typed record *is* a struct: handed over as is.  Bro
            # containers in its slots are lowered in place, once — from
            # here on the record lives in the shared representation and
            # script writes to it alias, whatever it holds.
            slots = value._slots
            for index, item in enumerate(slots):
                if type(item) in _BRO_BOXED:
                    slots[index] = convert(item)
            return value
        if kind is TableVal:
            out = HiltiMap()
            for key in value:
                out.insert(convert(key), convert(value.get(key)))
            return out
        if kind is SetVal:
            out = HiltiSet()
            for member in value:
                out.insert(convert(member))
            return out
        if kind is VectorVal:
            out = HiltiVector()
            for item in value:
                out.push_back(convert(item))
            return out
        if kind is tuple:
            return tuple(convert(v) for v in value)
        return value

    def from_hilti(self, value):
        """HILTI value -> Val."""
        return self.args_from_hilti((value,))[0]

    def args_from_hilti(self, args: Sequence) -> List:
        """One native call's arguments, HILTI -> Val; timed once."""
        begin = perf_counter_ns()
        out = [self._from_hilti(a) if type(a) in _HILTI_BOXED else a
               for a in args]
        self.from_hilti_calls += len(out)
        self.ns_spent += perf_counter_ns() - begin
        return out

    def _from_hilti(self, value):
        kind = type(value)
        convert = self._from_hilti
        if kind is StructInstance or kind is RecordVal:
            slots = [convert(v) if type(v) in _HILTI_BOXED else v
                     for v in value._slots]
            if kind is RecordVal and all(map(is_, slots, value._slots)):
                return value  # handed over as is, comes back as is
            return RecordVal.from_struct(value.struct_type, slots)
        if kind is HiltiMap:
            out = TableVal()
            for key, item in value.items():
                out.set(convert(key), convert(item))
            return out
        if kind is HiltiSet:
            return SetVal(convert(m) for m in value)
        if kind is HiltiVector or kind is HiltiList:
            return VectorVal(convert(i) for i in value)
        if kind is Bytes:
            return value.to_bytes()
        if kind is tuple:
            return tuple(convert(v) for v in value)
        return value

    def stats(self) -> Dict:
        return {
            "to_hilti_calls": self.to_hilti_calls,
            "from_hilti_calls": self.from_hilti_calls,
            "ns_spent": self.ns_spent,
        }

    def reset_stats(self) -> None:
        self.to_hilti_calls = 0
        self.from_hilti_calls = 0
        self.ns_spent = 0
