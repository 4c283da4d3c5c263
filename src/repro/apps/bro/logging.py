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


class LogStream:
    """One log stream: name plus ordered columns."""

    def __init__(self, name: str, columns: Sequence[str]):
        self.name = name
        self.columns = list(columns)
        self.lines: List[str] = []
        self.writes = 0

    def write(self, record: RecordVal) -> str:
        fields = [render_value(record.get_or(c)) for c in self.columns]
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
