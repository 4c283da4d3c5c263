"""Overlays: type-safe dissection of wire-format structures.

Overlays are user-definable composite types that specify the layout of a
binary structure in wire format and provide transparent, type-safe access
to its fields while accounting for alignment, byte order, and sub-byte
fields (paper, Figure 4 — the BPF exemplar parses IP headers this way).

An overlay *type* lives in ``repro.core.types``; this module implements the
unpacking semantics: given a ``Bytes`` buffer, a byte offset, and an unpack
format, produce the typed field value.
"""

from __future__ import annotations

import functools
import struct
from typing import Optional, Tuple

from ..core import types as ht
from ..core.values import Addr, Port
from .bytes_buffer import Bytes, BytesIter
from .exceptions import HiltiError, OVERLAY_NOT_ATTACHED, VALUE_ERROR

__all__ = ["unpack_value", "make_unpacker", "make_seq_unpacker",
           "OverlayInstance", "FORMAT_SIZES"]

# Format name -> (size in bytes, struct code or special handler tag).
_FIXED_FORMATS = {
    "UInt8Big": (1, ">B"),
    "UInt8Little": (1, "<B"),
    "UInt16Big": (2, ">H"),
    "UInt16Little": (2, "<H"),
    "UInt32Big": (4, ">I"),
    "UInt32Little": (4, "<I"),
    "UInt64Big": (8, ">Q"),
    "UInt64Little": (8, "<Q"),
    "Int8Big": (1, ">b"),
    "Int8Little": (1, "<b"),
    "Int16Big": (2, ">h"),
    "Int16Little": (2, "<h"),
    "Int32Big": (4, ">i"),
    "Int32Little": (4, "<i"),
    "Int64Big": (8, ">q"),
    "Int64Little": (8, "<q"),
    "DoubleBig": (8, ">d"),
    "DoubleLittle": (8, "<d"),
    "IPv4": (4, "addr4"),
    "IPv6": (16, "addr6"),
    "PortTCP": (2, "port-tcp"),
    "PortUDP": (2, "port-udp"),
}

# The paper's textual spellings map onto the canonical names above.
_ALIASES = {
    "UInt8InBigEndian": "UInt8Big",
    "UInt16InBigEndian": "UInt16Big",
    "UInt32InBigEndian": "UInt32Big",
    "UInt64InBigEndian": "UInt64Big",
    "UInt8InLittleEndian": "UInt8Little",
    "UInt16InLittleEndian": "UInt16Little",
    "UInt32InLittleEndian": "UInt32Little",
    "UInt64InLittleEndian": "UInt64Little",
    "Int8InBigEndian": "Int8Big",
    "Int16InBigEndian": "Int16Big",
    "Int32InBigEndian": "Int32Big",
    "Int64InBigEndian": "Int64Big",
    "IPv4InNetworkOrder": "IPv4",
    "IPv6InNetworkOrder": "IPv6",
}

FORMAT_SIZES = {name: size for name, (size, __) in _FIXED_FORMATS.items()}


def canonical_format(name: str) -> str:
    """Resolve aliases like ``UInt8InBigEndian`` to canonical names."""
    resolved = _ALIASES.get(name, name)
    if resolved not in _FIXED_FORMATS and not resolved.startswith("BytesFixed"):
        raise HiltiError(VALUE_ERROR, f"unknown unpack format {name!r}")
    return resolved


def format_size(name: str) -> int:
    resolved = canonical_format(name)
    if resolved.startswith("BytesFixed"):
        return int(resolved[len("BytesFixed"):])
    return FORMAT_SIZES[resolved]


def unpack_value(data: Bytes, offset: int, fmt: ht.UnpackFormat):
    """Unpack one field at absolute *offset* of *data* per format *fmt*."""
    name = canonical_format(fmt.name)
    if name.startswith("BytesFixed"):
        count = int(name[len("BytesFixed"):])
        result = Bytes(data.read(offset, count))
        result.freeze()
        return result
    size, code = _FIXED_FORMATS[name]
    raw = data.read(offset, size)
    if code == "addr4":
        return Addr(raw)
    if code == "addr6":
        return Addr(raw)
    if code == "port-tcp":
        return Port(struct.unpack(">H", raw)[0], Port.TCP)
    if code == "port-udp":
        return Port(struct.unpack(">H", raw)[0], Port.UDP)
    value = struct.unpack(code, raw)[0]
    if fmt.bits is not None:
        low, high = fmt.bits
        if not 0 <= low <= high < size * 8:
            raise HiltiError(VALUE_ERROR, f"bit range {fmt.bits} out of field")
        value = (value >> low) & ((1 << (high - low + 1)) - 1)
    return value


@functools.lru_cache(maxsize=None)  # bounded by the formats programs name
def make_unpacker(fmt: ht.UnpackFormat):
    """Precompile :func:`unpack_value` for a fixed format.

    Returns ``f(data, offset) -> value`` with the same observable
    behavior, but format resolution, size/code dispatch, and bit-range
    validation happen once per distinct format: the compiled tier binds
    the result into ``overlay.get``/``unpack`` sites whose layout is a
    compile-time constant, and :func:`make_seq_unpacker` builds its
    field-by-field readers from it.

    Scalars read the backing buffer in place (``Struct.unpack_from``)
    after one bounds check; a short or trimmed read goes through
    ``Bytes.read`` so the error is its own (``WouldBlock`` while the
    buffer can still grow, ``IndexError`` once frozen).
    """
    name = canonical_format(fmt.name)
    if name.startswith("BytesFixed"):
        count = int(name[len("BytesFixed"):])

        def unpack_fixed_bytes(data, offset, _count=count):
            result = Bytes(data.read(offset, _count))
            result.freeze()
            return result

        return unpack_fixed_bytes
    size, code = _FIXED_FORMATS[name]
    if code in ("addr4", "addr6"):
        from_packed = Addr.from_packed

        def unpack_addr(data, offset, _size=size, _make=from_packed):
            return _make(data.read(offset, _size))

        return unpack_addr
    proto = {"port-tcp": Port.TCP, "port-udp": Port.UDP}.get(code)
    unpack_from = struct.Struct(
        ">H" if proto is not None else code).unpack_from

    def scalar(data, offset):
        index = offset - data._base
        if index < 0 or index + size > len(data._data):
            data.read(offset, size)  # raises the buffer's own error
        return unpack_from(data._data, index)[0]

    if proto is not None:
        return lambda data, offset: Port(scalar(data, offset), proto)
    if fmt.bits is None:
        return scalar
    low, high = fmt.bits
    if not 0 <= low <= high < size * 8:
        raise HiltiError(VALUE_ERROR, f"bit range {fmt.bits} out of field")
    mask = (1 << (high - low + 1)) - 1
    return lambda data, offset: (scalar(data, offset) >> low) & mask


@functools.lru_cache(maxsize=None)
def make_seq_unpacker(fmt_names: Tuple[str, ...]):
    """A run of consecutive fields at an iterator, read as one: the
    reader behind ``bytes.unpack`` (a run of one) and ``bytes.unpack_seq``.

    Returns ``f(it) -> (value, ..., iterator advanced past the run)``;
    the advance is a fixed offset, not a per-call ``format_size`` lookup.
    A run of plain integer/double formats of one byte order is one
    precompiled ``Struct``: one bounds check for the whole run and one
    ``unpack_from`` on the backing buffer; a short run raises the
    buffer's own error, as the first short field would.  Any other run
    reads field by field through :func:`make_unpacker`.
    """
    names = [canonical_format(name) for name in fmt_names]
    codes = [_FIXED_FORMATS.get(name, (0, ""))[1] for name in names]
    size = sum(format_size(name) for name in names)
    order = codes[0][:1]
    if order in (">", "<") and all(
            len(code) == 2 and code[0] == order for code in codes):
        unpack_from = struct.Struct(
            order + "".join(code[1] for code in codes)).unpack_from

        def unpack_run(it):
            data, offset = it.bytes_obj, it.offset
            index = offset - data._base
            if index < 0 or index + size > len(data._data):
                data.read(offset, size)  # raises the buffer's own error
            return (*unpack_from(data._data, index),
                    BytesIter(data, offset + size))

        return unpack_run
    fields = [(make_unpacker(ht.UnpackFormat(name)), format_size(name))
              for name in names]

    def unpack_each(it):
        data, offset = it.bytes_obj, it.offset
        values = []
        for unpacker, width in fields:
            values.append(unpacker(data, offset))
            offset += width
        return (*values, BytesIter(data, offset))

    return unpack_each


class OverlayInstance:
    """An overlay value: a layout attached to a position in a buffer.

    HILTI programs first ``overlay.attach`` an instance to raw data, then
    ``overlay.get`` individual fields; reading without attaching raises
    ``Hilti::OverlayNotAttached``.
    """

    __slots__ = ("overlay_type", "_data", "_offset")

    def __init__(self, overlay_type: ht.OverlayT):
        self.overlay_type = overlay_type
        self._data: Optional[Bytes] = None
        self._offset = 0

    def attach(self, data: Bytes, offset: Optional[int] = None) -> None:
        self._data = data
        self._offset = data.begin_offset if offset is None else offset

    @property
    def attached(self) -> bool:
        return self._data is not None

    def get(self, field_name: str):
        if self._data is None:
            raise HiltiError(
                OVERLAY_NOT_ATTACHED,
                f"overlay {self.overlay_type.type_name} not attached",
            )
        field = self.overlay_type.field(field_name)
        return unpack_value(self._data, self._offset + field.offset, field.fmt)

    def __repr__(self) -> str:
        state = f"at {self._offset}" if self.attached else "detached"
        return f"<OverlayInstance {self.overlay_type.type_name} {state}>"
