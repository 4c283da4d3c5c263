"""The logging framework: Bro-style TSV logs.

Streams are declared with an ordered column list; writes take a RecordVal
and render one tab-separated line.  The evaluation compares ``http.log``,
``files.log``, and ``dns.log`` between parser/script configurations
(Tables 2 and 3), including a normalization step mirroring the paper's
(sorting, unique'ing, dropping volatile columns).
"""

from __future__ import annotations

import io
from typing import Dict, Iterable, List, Optional, Sequence

from ...core import types as ht
from ...core.values import Addr, Interval, Port, Time
from ...runtime.bytes_buffer import Bytes
from ...runtime.containers import HiltiList, HiltiSet, HiltiVector
from .glue import to_val
from .val import RecordVal, SetVal, VectorVal

__all__ = ["LogStream", "LogManager", "render_value", "normalize_log"]

UNSET = "-"
EMPTY = "(empty)"


def _render_seconds(value) -> str:
    return f"{value.seconds:.6f}"


# What a log cell almost always is, by exact class: one dict probe in
# place of the isinstance chain below (which a str walked most of and an
# int all of).  Subclasses and containers take the chain.
_RENDER_EXACT = {
    type(None): lambda value: UNSET,
    bool: lambda value: "T" if value else "F",
    int: str,
    float: lambda value: f"{value:.6f}",
    str: lambda value: value or EMPTY,
    Time: _render_seconds,
    Interval: _render_seconds,
    Addr: str,
    Port: str,
}


def render_value(value) -> str:
    """Render one field the way Bro's ASCII writer does (approximately)."""
    render = _RENDER_EXACT.get(value.__class__)
    if render is not None:
        return render(value)
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, Time):
        return f"{value.seconds:.6f}"
    if isinstance(value, Interval):
        return f"{value.seconds:.6f}"
    if isinstance(value, (Addr, Port)):
        return str(value)
    if isinstance(value, bytes):
        return value.decode("utf-8", "replace") or EMPTY
    if isinstance(value, str):
        return value if value else EMPTY
    if isinstance(value, (VectorVal, SetVal)):
        items = [render_value(v) for v in value]
        return ",".join(items) if items else UNSET
    if isinstance(value, (list, tuple)):
        items = [render_value(v) for v in value]
        return ",".join(items) if items else UNSET
    return str(value)


def _render_bytes(value) -> str:
    return value.decode("utf-8", "replace") or EMPTY


def _render_items(value) -> str:
    items = [_render_hilti(v) for v in value]
    return ",".join(items) if items else UNSET


# The values a record shared with compiled code holds, by exact class,
# rendered as their Val snapshots (``glue.to_val``) would render: Bytes as
# bytes, a HILTI container as the VectorVal/SetVal it snapshots to (its
# items likewise); Val containers are their own snapshot.
_RENDER_HILTI = {
    **_RENDER_EXACT,
    bytes: _render_bytes,
    VectorVal: render_value,
    SetVal: render_value,
    Bytes: lambda value: _render_bytes(value._data),
    HiltiVector: _render_items,
    HiltiList: _render_items,
    HiltiSet: _render_items,
}

# A top-level cell may also be an unset slot, which renders as unset.
_RENDER_CELL = {**_RENDER_HILTI, type(ht.UNSET): lambda value: UNSET}


def _render_hilti(value) -> str:
    """One value as ``render_value(to_val(value))``, without building
    the snapshot unless its class is not in the table."""
    render = _RENDER_HILTI.get(value.__class__)
    if render is not None:
        return render(value)
    return render_value(to_val(value))


class LogStream:
    """One log stream: name plus ordered columns.

    A typed record renders straight from its slot list through a
    column -> slot plan built once per record type (cached by the type's
    identity: struct types hash structurally); an untyped one reads its
    fields by name.  Both script engines write here, and a record from
    compiled code arrives as is, HILTI cells included.
    """

    def __init__(self, name: str, columns: Sequence[str]):
        self.name = name
        self.columns = list(columns)
        self.lines: List[str] = []
        self.writes = 0
        # id(record type) -> (the type, slot per column or None); holding
        # the type keeps its id from being reused by another one.
        self._plans: Dict[int, tuple] = {}

    def _plan(self, record_type) -> tuple:
        plan = self._plans.get(id(record_type))
        if plan is None:
            index = record_type.slot_index
            plan = (record_type,
                    tuple(index.get(column) for column in self.columns))
            self._plans[id(record_type)] = plan
        return plan[1]

    def write(self, record: RecordVal) -> str:
        if record._extra is not None:  # untyped: fields by name
            fields = [render_value(record.get_or(c)) for c in self.columns]
        else:
            slots = record._slots
            fields = []
            for index in self._plan(record.struct_type):
                value = ht.UNSET if index is None else slots[index]
                render = _RENDER_CELL.get(value.__class__)
                fields.append(render(value) if render is not None
                              else render_value(to_val(value)))
        line = "\t".join(fields)
        self.lines.append(line)
        self.writes += 1
        return line

    def header(self) -> str:
        return "#fields\t" + "\t".join(self.columns)

    def dump(self) -> str:
        return "\n".join([self.header(), *self.lines]) + "\n"


class LogManager:
    """All streams of one Bro instance."""

    def __init__(self, enabled: bool = True):
        self.streams: Dict[str, LogStream] = {}
        # Disabling keeps the same computation but skips the final write,
        # exactly how the paper benchmarks CPU without I/O noise (§6.1).
        self.enabled = enabled

    def create_stream(self, name: str, columns: Sequence[str]) -> LogStream:
        stream = LogStream(name, columns)
        self.streams[name] = stream
        return stream

    def write(self, name: str, record: RecordVal) -> None:
        stream = self.streams.get(name)
        if stream is None:
            raise KeyError(f"no such log stream {name!r}")
        if self.enabled:
            stream.write(record)
        else:
            stream.writes += 1

    def lines(self, name: str) -> List[str]:
        return list(self.streams[name].lines)

    def save(self, directory: str) -> None:
        import os

        os.makedirs(directory, exist_ok=True)
        for stream in self.streams.values():
            path = os.path.join(directory, f"{stream.name}.log")
            with open(path, "w") as out:
                out.write(stream.dump())


def normalize_log(lines: Iterable[str],
                  drop_columns: Sequence[int] = ()) -> List[str]:
    """The paper's §6.4 normalization: drop volatile columns, sort, unique.

    *drop_columns* are 0-based indices removed before comparison (e.g.
    timestamps or fields one side cannot produce).
    """
    normalized = set()
    for line in lines:
        fields = line.rstrip("\n").split("\t")
        kept = [f for i, f in enumerate(fields) if i not in drop_columns]
        normalized.add("\t".join(kept))
    return sorted(normalized)
