"""HILTI's ``bytes`` type: an incremental, freezable byte buffer.

``bytes`` objects are the unit of input for protocol parsing.  Host
applications append chunks of payload as packets arrive; generated parsers
walk the buffer with iterators and *suspend* when they reach the end of the
available data while the buffer is not yet frozen.  Freezing marks the
definitive end of input (e.g. TCP FIN).  Trimming releases consumed data so
memory stays proportional to the working set — the property the paper's
fiber discussion (section 5) checks for stacks, applied here to buffers.

Iterators are stable across ``append``: they hold absolute stream offsets,
not physical indices.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from .exceptions import (
    HiltiError,
    INDEX_ERROR,
    VALUE_ERROR,
    WOULD_BLOCK,
)
from .memory import Managed

__all__ = ["Bytes", "BytesIter"]


class Bytes(Managed):
    """A growable byte buffer addressed by absolute stream offsets."""

    __slots__ = ("_data", "_base", "_frozen")

    def __init__(self, initial: bytes = b""):
        # Managed.__init__, inlined: host stubs and parsers build one
        # Bytes per packet or field.
        self._refcount = 1
        self._data = bytearray(initial)
        self._base = 0  # absolute offset of _data[0]
        self._frozen = False

    @staticmethod
    def frozen(raw: bytearray) -> "Bytes":
        """A frozen Bytes owning *raw*, a bytearray no one else holds
        (no copy): a parsed field's value."""
        value = Bytes.__new__(Bytes)
        value._refcount = 1
        value._data = raw
        value._base = 0
        value._frozen = True
        return value

    # -- construction and growth ------------------------------------------

    def append(self, data) -> None:
        """Append a chunk of raw data (bytes or another Bytes)."""
        if self._frozen:
            raise HiltiError(VALUE_ERROR, "append to frozen bytes object")
        if isinstance(data, Bytes):
            data = data.to_bytes()
        self._data.extend(data)

    def freeze(self) -> None:
        """Mark the definitive end of input."""
        self._frozen = True

    def unfreeze(self) -> None:
        self._frozen = False

    @property
    def is_frozen(self) -> bool:
        return self._frozen

    # -- extent ------------------------------------------------------------

    @property
    def begin_offset(self) -> int:
        """Absolute offset of the first retained byte."""
        return self._base

    @property
    def end_offset(self) -> int:
        """Absolute offset one past the last appended byte."""
        return self._base + len(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def begin(self) -> "BytesIter":
        return BytesIter(self, self._base)

    def end(self) -> "BytesIter":
        return BytesIter(self, self.end_offset)

    def at(self, offset: int) -> "BytesIter":
        return BytesIter(self, offset)

    # -- reading -----------------------------------------------------------

    def byte_at(self, offset: int) -> int:
        """The byte at absolute *offset*."""
        idx = offset - self._base
        if idx < 0:
            raise HiltiError(INDEX_ERROR, "offset before trimmed region")
        if idx >= len(self._data):
            raise HiltiError(INDEX_ERROR, "offset past end of bytes object")
        return self._data[idx]

    def _index(self, offset: int, count: int) -> int:
        """Index into ``_data`` of [offset, offset+count); raises if
        that range is unavailable."""
        start = offset - self._base
        if start < 0:
            raise HiltiError(INDEX_ERROR, "read before trimmed region")
        if start + count > len(self._data):
            raise HiltiError(
                WOULD_BLOCK if not self._frozen else INDEX_ERROR,
                "read past end of bytes object",
            )
        return start

    def read(self, offset: int, count: int) -> bytes:
        """Raw data for [offset, offset+count); raises if unavailable."""
        start = self._index(offset, count)
        return bytes(self._data[start:start + count])

    def available_from(self, offset: int) -> int:
        """Number of bytes available at and after absolute *offset*."""
        size = len(self._data)
        left = self._base + size - offset
        # Past the end: nothing; before the trimmed region: all of it.
        return left if 0 <= left <= size else (0 if left < 0 else size)

    def view_from(self, offset: int) -> memoryview:
        """Zero-copy view of the data from absolute *offset* to the end.

        The view is only valid until the next append/trim; the regexp
        engine uses it to scan tokens without copying the buffer.
        """
        start = offset - self._base
        if start < 0:
            raise HiltiError(INDEX_ERROR, "view before trimmed region")
        return memoryview(self._data)[start:]

    def sub(self, start: "BytesIter", stop: "BytesIter") -> "Bytes":
        """A new frozen Bytes with a copy of [start, stop)."""
        if start.offset > stop.offset:
            raise HiltiError(VALUE_ERROR, "bytes.sub: start after stop")
        count = stop.offset - start.offset
        index = self._index(start.offset, count)
        return Bytes.frozen(self._data[index:index + count])  # the one copy

    def to_bytes(self) -> bytes:
        return bytes(self._data)

    # -- searching ----------------------------------------------------------

    def find(self, needle: bytes, start: Optional["BytesIter"] = None) -> Tuple[bool, "BytesIter"]:
        """Search *needle*; returns (found, iterator).

        On success the iterator points at the first byte of the match; on
        failure it points to the first position from which a partial match
        could still complete once more data arrives (so incremental callers
        can resume the search there).
        """
        if isinstance(needle, Bytes):
            needle = needle.to_bytes()
        begin = start.offset if start is not None else self._base
        idx = self._data.find(needle, begin - self._base)
        if idx >= 0:
            return True, BytesIter(self, self._base + idx)
        # No full match: find the earliest suffix that is a needle prefix.
        tail_start = max(begin - self._base, len(self._data) - len(needle) + 1)
        for i in range(tail_start, len(self._data)):
            if needle.startswith(self._data[i:]):
                return False, BytesIter(self, self._base + i)
        return False, self.end()

    def startswith(self, prefix: bytes, start: Optional["BytesIter"] = None) -> bool:
        if isinstance(prefix, Bytes):
            prefix = prefix.to_bytes()
        begin = (start.offset if start is not None else self._base) - self._base
        return self._data.startswith(bytes(prefix), begin)

    # -- mutation / memory ---------------------------------------------------

    def trim(self, upto: "BytesIter") -> None:
        """Release all data before *upto*; iterators before it become invalid."""
        drop = upto.offset - self._base
        if drop <= 0:
            return
        if drop > len(self._data):
            raise HiltiError(INDEX_ERROR, "trim past end of bytes object")
        del self._data[:drop]
        self._base += drop

    # -- conversions ----------------------------------------------------------

    def to_int(self, base: int = 10) -> int:
        text = self.to_bytes()
        try:
            return int(text, base)
        except ValueError:
            raise HiltiError(
                VALUE_ERROR, f"cannot convert bytes {text!r} to integer"
            ) from None

    def lower(self) -> "Bytes":
        result = Bytes(bytes(self._data).lower())
        result.freeze()
        return result

    def upper(self) -> "Bytes":
        result = Bytes(bytes(self._data).upper())
        result.freeze()
        return result

    def strip(self) -> "Bytes":
        result = Bytes(bytes(self._data).strip())
        result.freeze()
        return result

    def split1(self, sep: bytes) -> Tuple["Bytes", "Bytes"]:
        """Split at the first occurrence of *sep* (like ``partition``)."""
        if isinstance(sep, Bytes):
            sep = sep.to_bytes()
        head, found, tail = bytes(self._data).partition(bytes(sep))
        first, second = Bytes(head), Bytes(tail if found else b"")
        first.freeze()
        second.freeze()
        return first, second

    def split(self, sep: bytes) -> list:
        if isinstance(sep, Bytes):
            sep = sep.to_bytes()
        parts = []
        for chunk in bytes(self._data).split(bytes(sep)):
            item = Bytes(chunk)
            item.freeze()
            parts.append(item)
        return parts

    # -- dunder conveniences ----------------------------------------------------

    def __iter__(self) -> Iterator[int]:
        return iter(bytes(self._data))

    def __eq__(self, other) -> bool:
        if isinstance(other, Bytes):
            return self._data == other._data
        if isinstance(other, (bytes, bytearray)):
            return self._data == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(bytes(self._data))

    def __bool__(self) -> bool:
        return len(self._data) > 0

    def __add__(self, other) -> "Bytes":
        result = Bytes(self.to_bytes())
        result.append(other)
        result.freeze()
        return result

    def __repr__(self) -> str:
        preview = bytes(self._data[:32])
        suffix = "..." if len(self._data) > 32 else ""
        state = " frozen" if self._frozen else ""
        return f"Bytes({preview!r}{suffix}, len={len(self._data)}{state})"


class BytesIter:
    """A position within a Bytes object, stable across appends."""

    __slots__ = ("bytes_obj", "offset")

    def __init__(self, bytes_obj: Bytes, offset: int):
        self.bytes_obj = bytes_obj
        self.offset = offset

    def deref(self) -> int:
        """The byte at this position."""
        return self.bytes_obj.byte_at(self.offset)

    def incr(self) -> "BytesIter":
        return BytesIter(self.bytes_obj, self.offset + 1)

    def incr_by(self, count: int) -> "BytesIter":
        return BytesIter(self.bytes_obj, self.offset + count)

    def distance(self, other: "BytesIter") -> int:
        """Bytes between this iterator and *other* (``other - self``)."""
        if other.bytes_obj is not self.bytes_obj:
            raise HiltiError(VALUE_ERROR, "iterators of different bytes objects")
        return other.offset - self.offset

    def at_end(self) -> bool:
        data = self.bytes_obj
        return self.offset >= data._base + len(data._data)

    def available(self) -> int:
        return self.bytes_obj.available_from(self.offset)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BytesIter)
            and self.bytes_obj is other.bytes_obj
            and self.offset == other.offset
        )

    def __lt__(self, other) -> bool:
        if not isinstance(other, BytesIter) or other.bytes_obj is not self.bytes_obj:
            return NotImplemented
        return self.offset < other.offset

    def __hash__(self) -> int:
        return hash((id(self.bytes_obj), self.offset))

    def __repr__(self) -> str:
        return f"BytesIter(offset={self.offset})"
