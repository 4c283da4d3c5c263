"""Struct instances and callables (captured function calls).

``struct`` values are heap objects with typed, optionally-defaulted fields;
reading an unset field without a default raises ``Hilti::UndefinedValue``.
``Callable`` captures a function plus arguments for later invocation — the
value timers schedule and ``thread.schedule`` ships across threads.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..core import types as ht
from ..core.types import UNSET
from .exceptions import HiltiError, UNDEFINED_VALUE
from .memory import Managed

__all__ = ["StructInstance", "Callable", "UNSET"]


class StructInstance(Managed):
    """A heap-allocated struct value: one slot per field of its type.

    ``_slots`` starts as a copy of the type's template (or adopts the
    *slots* list given); a slot holding ``UNSET`` is an unset field
    without a default.  Compiled code reads and writes ``_slots``
    directly (``codegen._site_struct``).
    """

    __slots__ = ("struct_type", "_slots")

    def __init__(self, struct_type: ht.StructT, slots: Optional[list] = None):
        super().__init__()
        self.struct_type = struct_type
        self._slots = struct_type.template[:] if slots is None else slots

    def get(self, name: str):
        value = self._slots[self.struct_type.field_index(name)]
        if value is UNSET:
            raise HiltiError(
                UNDEFINED_VALUE,
                f"field {name!r} of struct {self.struct_type.type_name} is unset",
            )
        return value

    def get_default(self, name: str, default):
        value = self._slots[self.struct_type.field_index(name)]
        return default if value is UNSET else value

    def set(self, name: str, value) -> None:
        self._slots[self.struct_type.field_index(name)] = value

    def is_set(self, name: str) -> bool:
        return self._slots[self.struct_type.field_index(name)] is not UNSET

    def unset(self, name: str) -> None:
        index = self.struct_type.field_index(name)
        self._slots[index] = self.struct_type.template[index]

    def field_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self.struct_type.fields)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StructInstance)
            and self.struct_type == other.struct_type
            and self._slots == other._slots
        )

    def __hash__(self) -> int:
        return hash((self.struct_type.type_name, tuple(map(str, self._slots))))

    def __repr__(self) -> str:
        parts = " ".join(
            f"{field.name}={value!r}"
            for field, value in zip(self.struct_type.fields, self._slots)
        )
        return f"<{self.struct_type.type_name} {parts}>"


class Callable(Managed):
    """A captured function call: function plus bound arguments.

    ``function`` may be a name (resolved by the engine against the linked
    program) or an already-resolved compiled function object.
    """

    __slots__ = ("function", "args")

    hilti_callable = True

    def __init__(self, function, args: Sequence = ()):
        super().__init__()
        self.function = function
        self.args = tuple(args)

    def __repr__(self) -> str:
        name = getattr(self.function, "name", self.function)
        return f"<Callable {name} args={self.args!r}>"
