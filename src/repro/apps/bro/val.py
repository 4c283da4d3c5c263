"""Bro-style script values ("Vals").

Bro internally represents all script values as instances of classes
derived from a joint ``Val`` base class, and those instances circulate far
beyond the interpreter — the logging system, the event engine, the
analyzers all traffic in them (paper, section 5 "Bro Interface").  We
reproduce that architecture: the interpreter, event engine, and log
framework all use these wrappers, and the HILTI-compiled script engine
must convert at the boundary (``repro.apps.bro.glue``) — the measured
"HILTI-to-Bro glue" slice of Figures 9 and 10.

Scalars (bool/int/str/Addr/Port/Time/Interval/bytes) stay as plain Python
objects; the wrappers cover the structured types.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ...core import types as ht
from ...runtime.structs import UNSET, StructInstance

__all__ = ["RecordType", "RecordVal", "TableVal", "SetVal", "VectorVal",
           "BroRuntimeError"]


class BroRuntimeError(Exception):
    """A script-level runtime error."""


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


_UNTYPED = RecordType("?", [])


class RecordVal(StructInstance):
    """A record instance; unset fields read as errors (like Bro).

    A typed record *is* a HILTI struct of its ``RecordType`` — same slot
    list, same equality and hash — so the glue hands it to compiled code
    as is, and ``new`` of a ``RecordType`` builds one.  An untyped
    record (``RecordVal(None, ...)``) has no layout: its fields live in
    ``_extra`` and it crosses the boundary by copy.
    """

    __slots__ = ("_extra",)

    def __init__(self, record_type: Optional[RecordType] = None,
                 values: Optional[Dict[str, object]] = None,
                 slots: Optional[List] = None):
        untyped = record_type is None
        super().__init__(_UNTYPED if untyped else record_type, slots)
        self._extra = {} if untyped else None
        for field, value in (values or {}).items():
            self.set(field, value)

    @classmethod
    def from_struct(cls, struct_type: ht.StructT, slots: List) -> "RecordVal":
        """The record over a struct's slot list (adopted, not copied);
        untyped, from the set fields, when the struct's type is not a
        ``RecordType`` (an untyped record's stand-in, a foreign struct)."""
        if isinstance(struct_type, RecordType):
            return cls(struct_type, slots=slots)
        return cls(None, {
            field.name: value
            for field, value in zip(struct_type.fields, slots)
            if value is not UNSET
        })

    @property
    def record_type(self) -> Optional[RecordType]:
        return None if self._extra is not None else self.struct_type

    def get(self, field: str):
        try:
            value = self._slots[self.struct_type.slot_index[field]]
        except KeyError:
            value = (self._extra or {}).get(field, UNSET)
        if value is UNSET:
            raise BroRuntimeError(
                f"field {field!r} of record {self.struct_type.type_name} "
                "is not set"
            )
        return value

    def get_or(self, field: str, default=None):
        try:
            value = self._slots[self.struct_type.slot_index[field]]
        except KeyError:
            value = (self._extra or {}).get(field, UNSET)
        return default if value is UNSET else value

    def has(self, field: str) -> bool:
        return self.get_or(field, UNSET) is not UNSET

    def set(self, field: str, value) -> None:
        try:
            self._slots[self.struct_type.slot_index[field]] = value
        except KeyError:
            if self._extra is None:
                raise _no_such_field(self.struct_type, field) from None
            self._extra[field] = value

    def fields(self) -> Dict[str, object]:
        """The set fields, by name."""
        if self._extra is not None:
            return dict(self._extra)
        return {
            field.name: value
            for field, value in zip(self.struct_type.fields, self._slots)
            if value is not UNSET
        }

    # Typed records compare and hash as the structs they are (type and
    # slots), whichever side of the boundary built them; untyped ones by
    # their field dict.

    def __eq__(self, other) -> bool:
        if self._extra is None:
            return StructInstance.__eq__(self, other)
        return isinstance(other, RecordVal) and self._extra == other._extra

    def __hash__(self) -> int:
        if self._extra is None:
            return StructInstance.__hash__(self)
        return hash(tuple(sorted(
            (k, str(v)) for k, v in self._extra.items()
        )))

    def __repr__(self) -> str:
        inner = ", ".join(f"${k}={v!r}" for k, v in self.fields().items())
        return f"[{inner}]"


RecordType.instance_class = RecordVal


class TableVal:
    """``table[K] of V``."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Optional[dict] = None):
        self._entries = dict(entries or {})

    def get(self, key):
        try:
            return self._entries[key]
        except KeyError:
            raise BroRuntimeError(f"no such index: {key!r}") from None

    def set(self, key, value) -> None:
        self._entries[key] = value

    def contains(self, key) -> bool:
        return key in self._entries

    def remove(self, key) -> None:
        self._entries.pop(key, None)

    def keys(self):
        return list(self._entries.keys())

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(list(self._entries.keys()))

    def __repr__(self) -> str:
        return f"<table of {len(self._entries)}>"


class SetVal:
    """``set[T]``."""

    __slots__ = ("_members",)

    def __init__(self, members: Optional[Iterable] = None):
        self._members = dict.fromkeys(members or ())  # insertion-ordered

    def add(self, member) -> None:
        self._members[member] = None

    def remove(self, member) -> None:
        self._members.pop(member, None)

    def contains(self, member) -> bool:
        return member in self._members

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(list(self._members.keys()))

    def __repr__(self) -> str:
        return f"<set of {len(self._members)}>"


class VectorVal:
    """``vector of T`` — dense, append-by-index-past-end like Bro."""

    __slots__ = ("_items",)

    def __init__(self, items: Optional[Iterable] = None):
        self._items = list(items or ())

    def get(self, index: int):
        if not 0 <= index < len(self._items):
            raise BroRuntimeError(f"vector index {index} out of range")
        return self._items[index]

    def set(self, index: int, value) -> None:
        if index == len(self._items):
            self._items.append(value)
        elif 0 <= index < len(self._items):
            self._items[index] = value
        else:
            raise BroRuntimeError(f"vector index {index} out of range")

    def append(self, value) -> None:
        self._items.append(value)

    def items(self) -> List:
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(list(self._items))

    def __repr__(self) -> str:
        return f"<vector of {len(self._items)}>"
