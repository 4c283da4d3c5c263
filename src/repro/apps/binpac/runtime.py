"""The BinPAC++ runtime library.

Like HILTI itself, BinPAC++ ships a small runtime of domain functions that
generated parsers call out to — in the paper these are C functions linked
into the final binary; here they are natives registered with the linker
under the ``BinPAC::`` namespace.

The DNS helpers deal with the parts of the protocol that defeat a pure
field grammar: domain-name decompression requires random access across the
whole message (RFC 1035 pointer chasing, loop-guarded).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ...core import types as ht
from ...runtime.bytes_buffer import Bytes, BytesIter
from ...runtime.exceptions import EXCEPTION_BASE, HiltiError
from ...runtime.structs import UNSET, StructInstance

__all__ = ["natives", "ParseError", "PARSE_ERROR", "unit_field",
           "unit_text"]

PARSE_ERROR = ht.ExceptionT("BinPAC::ParseError", EXCEPTION_BASE)


class ParseError(HiltiError):
    def __init__(self, message: str):
        super().__init__(PARSE_ERROR, message)


def _to_raw(value) -> bytes:
    if isinstance(value, Bytes):
        return value.to_bytes()
    return bytes(value)


def unit_field(struct: StructInstance, name: str, default=None):
    """Field *name* of a parsed unit, or *default* while it is unset: a
    slot read, for the host adapters that turn units into events."""
    value = struct._slots[struct.struct_type.slot_index[name]]
    return default if value is UNSET else value


def unit_text(value, default: str = "") -> str:
    """A unit field as host text (bytes decode as latin-1)."""
    if value is None:
        return default
    if isinstance(value, Bytes):
        return value.to_bytes().decode("latin-1")
    if isinstance(value, bytes):
        return value.decode("latin-1")
    return str(value)


def bp_dns_name(ctx, data: Bytes, it: BytesIter) -> Tuple[str, BytesIter]:
    """Decode a (possibly compressed) DNS name at *it*.

    Returns ``(name, iterator past the name)``.  Compression pointers are
    followed with a hop limit so adversarial loops terminate — fail-safe
    processing of untrusted input.

    The scan reads the backing ``bytearray`` in place and only takes
    names the reference loop (:func:`dns_name_reference`) would accept;
    anything irregular — a bad label length, a pointer loop, a read out
    of range, too many labels — runs that loop from the start instead,
    so every error is its own.
    """
    buf = data._data
    base = data._base
    size = len(buf)
    pos = it.offset - base
    labels = []
    end = None  # buffer index where parsing resumes (set at first pointer)
    hops = 0
    while 0 <= pos < size:
        length = buf[pos]
        if length == 0:
            name = b".".join(labels).decode("latin-1").lower()
            return name, BytesIter(data, base + (pos + 1 if end is None
                                                 else end))
        if length < 64:
            pos += 1 + length
            if pos > size or len(labels) == 128:
                break
            labels.append(buf[pos - length:pos])
        elif length >= 0xC0 and pos + 1 < size and hops < 64:
            if end is None:
                end = pos + 2
            pos = ((length & 0x3F) << 8) | buf[pos + 1]
            hops += 1
        else:
            break
    return dns_name_reference(ctx, data, it)


def dns_name_reference(ctx, data: Bytes, it: BytesIter
                       ) -> Tuple[str, BytesIter]:
    """The reference DNS name decoder :func:`bp_dns_name` falls back to:
    one checked buffer access per byte, the error classes of record."""
    labels = []
    offset = it.offset
    end_offset = None  # where parsing resumes (set at first pointer)
    hops = 0
    while True:
        length = data.byte_at(offset)
        if length == 0:
            offset += 1
            break
        if length & 0xC0 == 0xC0:
            pointer = ((length & 0x3F) << 8) | data.byte_at(offset + 1)
            if end_offset is None:
                end_offset = offset + 2
            # Pointers are relative to the DNS message start.
            offset = data.begin_offset + pointer
            hops += 1
            if hops > 64:
                raise ParseError("DNS name compression loop")
            continue
        if length > 63:
            raise ParseError(f"bad DNS label length {length}")
        labels.append(
            data.read(offset + 1, length).decode("latin-1")
        )
        offset += 1 + length
        if len(labels) > 128:
            raise ParseError("DNS name too long")
    if end_offset is None:
        end_offset = offset
    return ".".join(labels).lower(), data.at(end_offset)


def bp_find_delim(ctx, data: Bytes, it: BytesIter, regexp):
    """Leftmost match of *regexp* at or after *it* within *data*.

    Returns ``(status, begin_iter, end_iter)``: status 1 when found
    (iterators bracket the delimiter), -1 when more input could still
    contain or extend a match, 0 when the input is frozen with no match.
    Powers ``bytes &until=/re/`` fields.  The scan reads the buffer in
    place; the view is released before returning, since a live export
    would make the next ``Bytes.append`` raise ``BufferError``.
    """
    with data.view_from(it.offset) as available:
        pid, begin, end = regexp.find(available)
    if pid > 0:
        match_end_is_buffer_end = it.offset + end == data.end_offset
        if match_end_is_buffer_end and not data.is_frozen:
            # The delimiter match touches the end of data; more input
            # could extend it (longest-match), so wait.
            return (-1, it, it)
        return (1, data.at(it.offset + begin), data.at(it.offset + end))
    if data.is_frozen:
        return (0, it, it)
    return (-1, it, it)


def bp_dns_txt(ctx, rdata) -> str:
    """Decode all character-strings of a TXT RDATA section."""
    raw = _to_raw(rdata)
    parts = []
    pos = 0
    while pos < len(raw):
        length = raw[pos]
        parts.append(raw[pos + 1:pos + 1 + length].decode("latin-1"))
        pos += 1 + length
    return " ".join(parts)


def bp_http_header_value(ctx, headers, name: str):
    """The value of the first header whose name matches (case-insensitive).

    *headers* is a HILTI list of Header structs with ``name``/``value``
    fields; returns the value bytes or None.  Names compare on their
    backing ``bytearray``, without a copy.
    """
    wanted = name.lower().encode("latin-1")
    for header in headers:
        if not isinstance(header, StructInstance):
            continue
        header_name = unit_field(header, "name")
        if isinstance(header_name, Bytes):
            header_name = header_name._data
        if header_name is not None and \
                header_name.strip().lower() == wanted:
            return unit_field(header, "value")
    return None


def bp_http_content_length(ctx, headers) -> int:
    """Content-Length of a header list, or -1 when absent/invalid."""
    value = bp_http_header_value(ctx, headers, "content-length")
    if value is None:
        return -1
    try:
        return int(_to_raw(value).strip())
    except ValueError:
        return -1


def bp_http_header_is(ctx, headers, name: str, expected: str) -> bool:
    value = bp_http_header_value(ctx, headers, name)
    if value is None:
        return False
    return _to_raw(value).strip().lower() == expected.lower().encode("latin-1")


def bp_to_int(ctx, value, base: int = 10) -> int:
    if isinstance(value, Bytes):
        return value.to_int(base)
    if isinstance(value, (bytes, bytearray)):
        try:
            return int(bytes(value), base)
        except ValueError:
            raise ParseError(f"cannot convert {value!r} to int") from None
    return int(value)


def bp_to_string(ctx, value) -> str:
    if isinstance(value, Bytes):
        return value.to_bytes().decode("utf-8", "replace")
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).decode("utf-8", "replace")
    return str(value)


def bp_lower(ctx, value):
    if isinstance(value, Bytes):
        return value.lower()
    return value.lower()


def bp_strip(ctx, value):
    if isinstance(value, Bytes):
        return value.strip()
    return value.strip()


def bp_length(ctx, value) -> int:
    return len(value)


def bp_list_size(ctx, value) -> int:
    return len(value) if value is not None else 0


def bp_addr_v4(ctx, rdata):
    """Interpret 4 RDATA bytes as an IPv4 address."""
    from ...core.values import Addr

    raw = _to_raw(rdata)
    if len(raw) != 4:
        raise ParseError(f"A record with {len(raw)} bytes of RDATA")
    return Addr(raw)


def bp_addr_v6(ctx, rdata):
    from ...core.values import Addr

    raw = _to_raw(rdata)
    if len(raw) != 16:
        raise ParseError(f"AAAA record with {len(raw)} bytes of RDATA")
    return Addr(raw)


def bp_parse_error(ctx, message: str):
    raise ParseError(message)


def natives() -> Dict[str, callable]:
    """The ``BinPAC::*`` native function table for the linker."""
    return {
        "BinPAC::dns_name": bp_dns_name,
        "BinPAC::find_delim": bp_find_delim,
        "BinPAC::dns_txt": bp_dns_txt,
        "BinPAC::http_header_value": bp_http_header_value,
        "BinPAC::http_content_length": bp_http_content_length,
        "BinPAC::http_header_is": bp_http_header_is,
        "BinPAC::to_int": bp_to_int,
        "BinPAC::to_string": bp_to_string,
        "BinPAC::lower": bp_lower,
        "BinPAC::strip": bp_strip,
        "BinPAC::length": bp_length,
        "BinPAC::list_size": bp_list_size,
        "BinPAC::addr_v4": bp_addr_v4,
        "BinPAC::addr_v6": bp_addr_v6,
        "BinPAC::error": bp_parse_error,
    }
