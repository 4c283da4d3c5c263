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

from ...core.values import Addr, Interval, Port, Time
from ...runtime.containers import HiltiSet, HiltiVector
from ...runtime.structs import UNSET as UNSET_SLOT
from .val import RecordVal

__all__ = ["LogStream", "LogManager", "render_value", "normalize_log"]

UNSET = "-"
EMPTY = "(empty)"


def _render_seconds(value) -> str:
    return f"{value.seconds:.6f}"


def _render_bytes(value) -> str:
    return value.decode("utf-8", "replace") or EMPTY


def _render_items(value) -> str:
    items = [render_value(v) for v in value]
    return ",".join(items) if items else UNSET


# What a log cell is, by exact class: one dict probe in place of the
# isinstance chain below, which only subclasses reach.  A vector or set
# renders its items comma-joined; an unset record slot renders as unset.
_RENDER_EXACT = {
    type(None): lambda value: UNSET,
    type(UNSET_SLOT): lambda value: UNSET,
    bool: lambda value: "T" if value else "F",
    int: str,
    float: lambda value: f"{value:.6f}",
    str: lambda value: value or EMPTY,
    bytes: _render_bytes,
    Time: _render_seconds,
    Interval: _render_seconds,
    Addr: str,
    Port: str,
    HiltiVector: _render_items,
    HiltiSet: _render_items,
    tuple: _render_items,
    list: _render_items,
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
    return str(value)


class LogStream:
    """One log stream: name plus ordered columns.

    A record renders straight from its slot list through a column ->
    slot plan built once per record type (cached by the type's identity:
    struct types hash structurally).  Both script engines write here,
    and hand over the record as is.
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
        slots = record._slots
        fields = []
        for index in self._plan(record.struct_type):
            value = UNSET_SLOT if index is None else slots[index]
            render = _RENDER_EXACT.get(value.__class__)
            fields.append(render(value) if render is not None
                          else render_value(value))
        line = "\t".join(fields)
        self.lines.append(line)
        self.writes += 1
        return line

    def header(self) -> str:
        return "#fields\t" + "\t".join(self.columns)


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
            # Line by line: joining the log first would copy it whole.
            with open(path, "w") as out:
                write = out.write
                write(stream.header() + "\n")
                for line in stream.lines:
                    write(line + "\n")


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
