"""Bro script values: one value model for both script engines.

Bro internally represents all script values as instances of classes
derived from a joint ``Val`` base class, and those instances circulate far
beyond the interpreter — the logging system, the event engine, the
analyzers all traffic in them (paper, section 5 "Bro Interface").  Here
that representation *is* HILTI's: a record is a HILTI struct of its
``RecordType`` (:class:`RecordVal`), a table, set or vector is a
``runtime.containers`` ``HiltiMap``/``HiltiSet``/``HiltiVector``, and a
scalar (bool/int/str/Addr/Port/Time/Interval/bytes) is a plain Python
object.  The interpreter, the compiled engine, the event engine, the
analyzers and the log framework all hold the same objects, so nothing is
converted where values cross into compiled code (``repro.apps.bro.glue``
only accounts for the crossing).

What Bro adds on top of HILTI's containers is written once, below, as
plain functions: indexing (a missing key is a script runtime error),
index assignment (assigning at ``|v|`` appends, past it is an error),
``in``, the keys ``for`` binds, ``add``, ``delete`` and ``|x|``.  The
interpreter calls them directly; the compiled engine registers them as
its ``Bro::*`` natives.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...core import types as ht
from ...runtime.containers import HiltiMap, HiltiSet, HiltiVector
from ...runtime.exceptions import EXCEPTION_BASE, HiltiError
from ...runtime.structs import UNSET, StructInstance

__all__ = ["RecordType", "RecordVal", "BroRuntimeError", "SCRIPT_ERROR",
           "declared_type", "index", "index_assign", "contains", "iter_keys",
           "add", "delete", "size"]

# The HILTI exception type of a script runtime error.
SCRIPT_ERROR = ht.ExceptionT("Bro::RuntimeError", EXCEPTION_BASE)


class BroRuntimeError(HiltiError):
    """A script-level runtime error.

    A HILTI exception (of type ``Bro::RuntimeError``), so whichever engine
    raises it, the event engine contains it the way it contains any
    HILTI exception escaping a handler: the event is dropped and logged
    as a weird, and later events still run.
    """

    def __init__(self, message: str):
        super().__init__(SCRIPT_ERROR, message)


def _no_such_field(record_type, field: str) -> BroRuntimeError:
    return BroRuntimeError(
        f"record {record_type.type_name} has no field {field!r}"
    )


class RecordType(ht.StructT):
    """A named record type: the slot layout both sides of the
    Bro/HILTI boundary share (every field is ``any`` to HILTI)."""

    def __init__(self, name: str, fields: List):
        # fields: list of (field_name, type_expr or None)
        super().__init__(
            name, [ht.StructField(field, ht.ANY) for field, __ in fields]
        )

    @property
    def name(self) -> str:
        return self.type_name

    def field_index(self, name: str) -> int:
        try:
            return self.slot_index[name]
        except KeyError:
            raise _no_such_field(self, name) from None


def declared_type(record_types: Dict[str, RecordType],
                  name: str) -> RecordType:
    """The declared record type *name*; an undeclared one is an error
    on both engines."""
    try:
        return record_types[name]
    except KeyError:
        raise BroRuntimeError(f"unknown record type {name!r}") from None


class RecordVal(StructInstance):
    """A record instance; unset fields read as errors (like Bro).

    A record *is* a HILTI struct of its ``RecordType`` — same slot list,
    same equality and hash — so it crosses into compiled code as is, and
    ``new`` of a ``RecordType`` builds one.  Writing a field its type does
    not declare is an error.
    """

    __slots__ = ()

    def __init__(self, record_type: RecordType,
                 values: Optional[Dict[str, object]] = None,
                 slots: Optional[List] = None):
        super().__init__(record_type, slots)
        for field, value in (values or {}).items():
            self.set(field, value)

    def get(self, field: str):
        try:
            value = self._slots[self.struct_type.slot_index[field]]
        except KeyError:
            raise _no_such_field(self.struct_type, field) from None
        if value is UNSET:
            raise BroRuntimeError(
                f"field {field!r} of record {self.struct_type.type_name} "
                "is not set"
            )
        return value

    def get_or(self, field: str, default=None):
        index = self.struct_type.slot_index.get(field)
        value = UNSET if index is None else self._slots[index]
        return default if value is UNSET else value

    def has(self, field: str) -> bool:
        return self.get_or(field, UNSET) is not UNSET

    def set(self, field: str, value) -> None:
        try:
            self._slots[self.struct_type.slot_index[field]] = value
        except KeyError:
            raise _no_such_field(self.struct_type, field) from None

    def fields(self) -> Dict[str, object]:
        """The set fields, by name."""
        return {
            field.name: value
            for field, value in zip(self.struct_type.fields, self._slots)
            if value is not UNSET
        }

    def __repr__(self) -> str:
        inner = ", ".join(f"${k}={v!r}" for k, v in self.fields().items())
        return f"[{inner}]"


RecordType.instance_class = RecordVal


# ---------------------------------------------------------------------------
# Bro's container semantics over HILTI's containers: a table is a
# HiltiMap, a set a HiltiSet, a vector a HiltiVector.  Keys of more than
# one index are tuples.

_MISSING = object()


def index(container, key):
    """``c[key]``: a table's value at *key* or a vector's item."""
    kind = type(container)
    if kind is HiltiMap:
        value = container.get_default(key, _MISSING)
        if value is _MISSING:
            raise BroRuntimeError(f"no such index: {key!r}")
        return value
    if kind is HiltiVector:
        position = int(key)
        if not 0 <= position < len(container):
            raise BroRuntimeError(f"vector index {position} out of range")
        return container.get(position)
    raise BroRuntimeError("indexing non-container")


def index_assign(container, key, value) -> None:
    """``c[key] = value``; a vector grows only by assignment at ``|v|``."""
    kind = type(container)
    if kind is HiltiMap:
        container.insert(key, value)
        return
    if kind is HiltiVector:
        position = int(key)
        if position == len(container):
            container.push_back(value)
        elif 0 <= position < len(container):
            container.set(position, value)
        else:
            raise BroRuntimeError(f"vector index {position} out of range")
        return
    raise BroRuntimeError("index assignment on non-container")


def contains(container, element) -> bool:
    """``element in c``: a table key, a set member, a vector item, or a
    substring."""
    kind = type(container)
    if kind is HiltiSet or kind is HiltiMap:
        return container.exists(element)
    if kind is HiltiVector:
        return any(item == element for item in container)
    if kind is str:
        return str(element) in container
    raise BroRuntimeError(f"'in' on non-container {container!r}")


def iter_keys(container) -> List:
    """What ``for`` binds: a table's keys, a set's members, a vector's
    indices — a snapshot, so the body may change the container."""
    kind = type(container)
    if kind is HiltiVector:
        return list(range(len(container)))
    if kind is HiltiMap or kind is HiltiSet:
        return list(container)
    raise BroRuntimeError(f"'for' over non-container {container!r}")


def add(container, member) -> None:
    """``add s[member]``."""
    if type(container) is not HiltiSet:
        raise BroRuntimeError("add on non-set")
    container.insert(member)


def delete(container, key) -> None:
    """``delete c[key]``: drop a table entry or a set member, if there."""
    kind = type(container)
    if kind is not HiltiMap and kind is not HiltiSet:
        raise BroRuntimeError("delete on non-container")
    container.remove(key)


def size(value) -> int:
    """``|x|``."""
    try:
        return len(value)
    except TypeError:
        raise BroRuntimeError(f"|...| of non-container {value!r}") from None
