"""Static type system of the HILTI abstract machine.

HILTI is statically typed: every local, global, operand, and container is
parameterized by type, which the verifier (``repro.core.typecheck``) checks
before a program runs.  The type grammar mirrors the paper's section 3.2:

* atomic types — ``int<N>``, ``bool``, ``string``, ``bytes``, ``double``,
  ``enum``, ``bitset``, ``tuple<...>``
* domain types — ``addr``, ``net``, ``port``, ``time``, ``interval``
* containers — ``list<T>``, ``vector<T>``, ``set<T>``, ``map<K,V>`` with
  built-in state management
* references and iterators — ``ref<T>``, ``iterator<T>``
* structural types — ``struct``, ``overlay``, ``exception``, ``callable``
* infrastructure types — ``channel<T>``, ``classifier<R,V>``, ``regexp``,
  ``timer``, ``timer_mgr``, ``file``, ``iosrc``, ``hook``, ``caddr``

Types are immutable values with structural equality, so they can be freely
interned and compared during type checking and code generation.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

__all__ = [
    "Type",
    "Void",
    "Any",
    "Bool",
    "Integer",
    "Double",
    "String",
    "BytesT",
    "AddrT",
    "NetT",
    "PortT",
    "TimeT",
    "IntervalT",
    "EnumT",
    "BitsetT",
    "TupleT",
    "ListT",
    "VectorT",
    "SetT",
    "MapT",
    "RefT",
    "IteratorT",
    "StructField",
    "StructT",
    "UNSET",
    "OverlayField",
    "OverlayT",
    "ExceptionT",
    "CallableT",
    "ChannelT",
    "ClassifierT",
    "RegExpT",
    "TimerT",
    "TimerMgrT",
    "FileT",
    "IOSrcT",
    "CAddrT",
    "MatchTokenStateT",
    "FunctionT",
    "UnpackFormat",
    "VOID",
    "ANY",
    "BOOL",
    "DOUBLE",
    "STRING",
    "BYTES",
    "ADDR",
    "NET",
    "PORT",
    "TIME",
    "INTERVAL",
    "REGEXP",
    "TIMER",
    "TIMER_MGR",
    "FILE",
    "IOSRC",
    "CADDR",
    "MATCH_STATE",
    "int_type",
    "INT8",
    "INT16",
    "INT32",
    "INT64",
]


class Type:
    """Base class for all HILTI types."""

    name = "type"

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return ()

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<hilti type {self}>"

    @property
    def is_reference_type(self) -> bool:
        """Heap-allocated types that must be held through ``ref<T>``."""
        return False


class Void(Type):
    name = "void"


class Any(Type):
    """Wildcard used by polymorphic instruction signatures, not by programs."""

    name = "any"


class Bool(Type):
    name = "bool"


class Integer(Type):
    """``int<width>`` — a signed integer of the given bit width."""

    def __init__(self, width: int):
        if width not in (8, 16, 32, 64):
            raise ValueError(f"unsupported integer width: {width}")
        self.width = width

    def _key(self):
        return (self.width,)

    def __str__(self) -> str:
        return f"int<{self.width}>"

    @property
    def min_value(self) -> int:
        return -(1 << (self.width - 1))

    @property
    def max_value(self) -> int:
        return (1 << (self.width - 1)) - 1

    def wrap(self, value: int) -> int:
        """Wrap *value* into this width's two's-complement range."""
        mask = (1 << self.width) - 1
        value &= mask
        if value > self.max_value:
            value -= 1 << self.width
        return value


class Double(Type):
    name = "double"


class String(Type):
    name = "string"


class BytesT(Type):
    name = "bytes"

    @property
    def is_reference_type(self) -> bool:
        return True


class AddrT(Type):
    name = "addr"


class NetT(Type):
    name = "net"


class PortT(Type):
    name = "port"


class TimeT(Type):
    name = "time"


class IntervalT(Type):
    name = "interval"


class EnumT(Type):
    """A named enumeration with explicit labels."""

    def __init__(self, type_name: str, labels: Sequence[str]):
        self.type_name = type_name
        self.labels = tuple(labels)
        self._index = {label: i for i, label in enumerate(self.labels)}

    def _key(self):
        return (self.type_name, self.labels)

    def __str__(self) -> str:
        return f"enum {self.type_name}"

    def label_value(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(
                f"enum {self.type_name} has no label {label!r}"
            ) from None

    def label_name(self, value: int) -> str:
        return self.labels[value]


class BitsetT(Type):
    """A named set of single-bit flags."""

    def __init__(self, type_name: str, labels: Sequence[str]):
        if len(labels) > 64:
            raise ValueError("bitset supports at most 64 labels")
        self.type_name = type_name
        self.labels = tuple(labels)
        self._index = {label: i for i, label in enumerate(self.labels)}

    def _key(self):
        return (self.type_name, self.labels)

    def __str__(self) -> str:
        return f"bitset {self.type_name}"

    def bit(self, label: str) -> int:
        try:
            return 1 << self._index[label]
        except KeyError:
            raise ValueError(
                f"bitset {self.type_name} has no label {label!r}"
            ) from None


class TupleT(Type):
    def __init__(self, elements: Sequence[Type]):
        self.elements = tuple(elements)

    def _key(self):
        return self.elements

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.elements)
        return f"tuple<{inner}>"


class _Container(Type):
    @property
    def is_reference_type(self) -> bool:
        return True


class ListT(_Container):
    def __init__(self, element: Type):
        self.element = element

    def _key(self):
        return (self.element,)

    def __str__(self) -> str:
        return f"list<{self.element}>"


class VectorT(_Container):
    def __init__(self, element: Type):
        self.element = element

    def _key(self):
        return (self.element,)

    def __str__(self) -> str:
        return f"vector<{self.element}>"


class SetT(_Container):
    def __init__(self, element: Type):
        self.element = element

    def _key(self):
        return (self.element,)

    def __str__(self) -> str:
        return f"set<{self.element}>"


class MapT(_Container):
    def __init__(self, key: Type, value: Type):
        self.key = key
        self.value = value

    def _key(self):
        return (self.key, self.value)

    def __str__(self) -> str:
        return f"map<{self.key}, {self.value}>"


class RefT(Type):
    """``ref<T>`` — a garbage-collected reference to a heap object."""

    def __init__(self, target: Type):
        self.target = target

    def _key(self):
        return (self.target,)

    def __str__(self) -> str:
        return f"ref<{self.target}>"


class IteratorT(Type):
    """``iterator<C>`` — a type-safe iterator over container *C*."""

    def __init__(self, container: Type):
        self.container = container

    def _key(self):
        return (self.container,)

    def __str__(self) -> str:
        return f"iterator<{self.container}>"


class _Unset:
    """The value an unset struct slot holds (a singleton)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<unset>"

    def __reduce__(self):
        return "UNSET"  # pickle/copy hand back the singleton


UNSET = _Unset()


class StructField:
    __slots__ = ("name", "type", "default")

    def __init__(self, name: str, field_type: Type, default=None):
        self.name = name
        self.type = field_type
        self.default = default

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StructField)
            and self.name == other.name
            and self.type == other.type
        )

    def __hash__(self) -> int:
        return hash((self.name, self.type))

    def __repr__(self) -> str:
        return f"StructField({self.name!r}, {self.type})"


class StructT(Type):
    """A struct type owns its slot layout.

    ``slot_index`` maps a field name to its slot; ``template`` is the
    slot list of a fresh instance (the field default, or ``UNSET``).
    Instances copy the template and address slots directly, and so does
    compiled code (``codegen._site_struct``).  ``new`` builds a
    ``StructInstance``, or the subclass of it a host's struct types name
    in ``instance_class`` (Bro's ``RecordType`` names ``RecordVal``).
    """

    instance_class = None

    def __init__(self, type_name: str, fields: Sequence[StructField]):
        self.type_name = type_name
        self.fields = tuple(fields)
        self.slot_index = {f.name: i for i, f in enumerate(self.fields)}
        self.template = [
            UNSET if f.default is None else f.default for f in self.fields
        ]

    def _key(self):
        return (self.type_name, self.fields)

    def __str__(self) -> str:
        return f"struct {self.type_name}"

    @property
    def is_reference_type(self) -> bool:
        return True

    def field_index(self, name: str) -> int:
        try:
            return self.slot_index[name]
        except KeyError:
            raise ValueError(
                f"struct {self.type_name} has no field {name!r}"
            ) from None

    def field(self, name: str) -> StructField:
        return self.fields[self.field_index(name)]


class UnpackFormat:
    """A wire-format unpack specification used by overlays and ``unpack``.

    Formats name both the width/encoding and the byte order, e.g.
    ``UInt16Big`` or ``IPv4Network``.  Sub-byte fields carry a bit range.
    """

    __slots__ = ("name", "bits")

    def __init__(self, name: str, bits: Optional[Tuple[int, int]] = None):
        self.name = name
        self.bits = bits

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UnpackFormat)
            and self.name == other.name
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.name, self.bits))

    def __repr__(self) -> str:
        if self.bits:
            return f"UnpackFormat({self.name!r}, bits={self.bits})"
        return f"UnpackFormat({self.name!r})"


class OverlayField:
    """One field of an overlay: name, value type, byte offset, and format."""

    __slots__ = ("name", "type", "offset", "fmt")

    def __init__(self, name: str, field_type: Type, offset: int, fmt: UnpackFormat):
        self.name = name
        self.type = field_type
        self.offset = offset
        self.fmt = fmt

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OverlayField)
            and self.name == other.name
            and self.type == other.type
            and self.offset == other.offset
            and self.fmt == other.fmt
        )

    def __hash__(self) -> int:
        return hash((self.name, self.type, self.offset, self.fmt))


class OverlayT(Type):
    """Zero-copy dissection of a binary structure in wire format."""

    def __init__(self, type_name: str, fields: Sequence[OverlayField]):
        self.type_name = type_name
        self.fields = tuple(fields)
        self._index = {f.name: f for f in self.fields}

    def _key(self):
        return (self.type_name, self.fields)

    def __str__(self) -> str:
        return f"overlay {self.type_name}"

    def field(self, name: str) -> OverlayField:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(
                f"overlay {self.type_name} has no field {name!r}"
            ) from None


class ExceptionT(Type):
    """A named exception type, optionally derived from a base exception."""

    def __init__(self, type_name: str, base: Optional["ExceptionT"] = None,
                 arg_type: Optional[Type] = None):
        self.type_name = type_name
        self.base = base
        self.arg_type = arg_type

    def _key(self):
        return (self.type_name, self.base, self.arg_type)

    def __str__(self) -> str:
        return f"exception {self.type_name}"

    @property
    def is_reference_type(self) -> bool:
        return True

    def is_a(self, other: "ExceptionT") -> bool:
        """True if this exception type equals or derives from *other*."""
        current: Optional[ExceptionT] = self
        while current is not None:
            if current.type_name == other.type_name:
                return True
            current = current.base
        return False


class CallableT(Type):
    """A closure capturing a function call (``callable<result>``)."""

    def __init__(self, result: Type):
        self.result = result

    def _key(self):
        return (self.result,)

    def __str__(self) -> str:
        return f"callable<{self.result}>"

    @property
    def is_reference_type(self) -> bool:
        return True


class ChannelT(Type):
    def __init__(self, element: Type):
        self.element = element

    def _key(self):
        return (self.element,)

    def __str__(self) -> str:
        return f"channel<{self.element}>"

    @property
    def is_reference_type(self) -> bool:
        return True


class ClassifierT(Type):
    """``classifier<RuleStruct, Value>`` — ACL-style packet classification."""

    def __init__(self, rule: Type, value: Type):
        self.rule = rule
        self.value = value

    def _key(self):
        return (self.rule, self.value)

    def __str__(self) -> str:
        return f"classifier<{self.rule}, {self.value}>"

    @property
    def is_reference_type(self) -> bool:
        return True


class RegExpT(Type):
    name = "regexp"

    @property
    def is_reference_type(self) -> bool:
        return True


class MatchTokenStateT(Type):
    """Internal state of an in-progress incremental regexp match."""

    name = "match_token_state"

    @property
    def is_reference_type(self) -> bool:
        return True


class TimerT(Type):
    name = "timer"

    @property
    def is_reference_type(self) -> bool:
        return True


class TimerMgrT(Type):
    name = "timer_mgr"

    @property
    def is_reference_type(self) -> bool:
        return True


class FileT(Type):
    name = "file"

    @property
    def is_reference_type(self) -> bool:
        return True


class IOSrcT(Type):
    name = "iosrc"

    @property
    def is_reference_type(self) -> bool:
        return True


class CAddrT(Type):
    """An opaque pointer to host-application data ("C address")."""

    name = "caddr"


class FunctionT(Type):
    """The type of a HILTI function (used by ``callable.bind`` and calls)."""

    def __init__(self, params: Sequence[Type], result: Type):
        self.params = tuple(params)
        self.result = result

    def _key(self):
        return (self.params, self.result)

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.params)
        return f"function ({inner}) -> {self.result}"


# Interned singletons for the common monomorphic types.
VOID = Void()
ANY = Any()
BOOL = Bool()
DOUBLE = Double()
STRING = String()
BYTES = BytesT()
ADDR = AddrT()
NET = NetT()
PORT = PortT()
TIME = TimeT()
INTERVAL = IntervalT()
REGEXP = RegExpT()
TIMER = TimerT()
TIMER_MGR = TimerMgrT()
FILE = FileT()
IOSRC = IOSrcT()
CADDR = CAddrT()
MATCH_STATE = MatchTokenStateT()

INT8 = Integer(8)
INT16 = Integer(16)
INT32 = Integer(32)
INT64 = Integer(64)

_INT_CACHE = {8: INT8, 16: INT16, 32: INT32, 64: INT64}


def int_type(width: int) -> Integer:
    """Return the interned ``int<width>`` type."""
    try:
        return _INT_CACHE[width]
    except KeyError:
        raise ValueError(f"unsupported integer width: {width}") from None


def types_compatible(expected: Type, actual: Type) -> bool:
    """Check operand compatibility as the verifier sees it.

    ``any`` matches everything; ``ref<T>`` operands accept the bare heap
    type as a convenience, matching the paper's examples which pass
    container instances directly to container instructions.
    """
    if isinstance(expected, Any) or isinstance(actual, Any):
        return True
    if isinstance(expected, RefT) and not isinstance(actual, RefT):
        return types_compatible(expected.target, actual)
    if isinstance(expected, RefT) and isinstance(actual, RefT):
        return types_compatible(expected.target, actual.target)
    if isinstance(expected, ExceptionT) and isinstance(actual, ExceptionT):
        return actual.is_a(expected)
    return expected == actual
