"""NetFlow-style flow records: the unified ledger's export format.

Every host application accounts its flows through one shared ledger
(:class:`repro.host.flowtable.FlowTable`); when a flow closes — normally,
by TTL expiry, or by capacity eviction — the ledger seals it into a
:class:`FlowRecord`: canonical 5-tuple, uid, first/last timestamps,
per-direction packet/byte counters, the TCP flag union, and the close
reason.  Records serialize to one deterministic JSON line each
(``sort_keys``, compact separators), so a sorted record stream is a pure
function of trace content — byte-identical across the sequential
pipeline and all four parallel backends.

The ``repro-flowrecords/1`` schema is one entry of the table every
artifact format shares (:mod:`repro.tools.validate`):
``python -m repro.tools.validate flow_records.jsonl`` checks a file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = [
    "CLOSE_REASONS",
    "FLOWRECORDS_SCHEMA",
    "FlowRecord",
    "flowrecords_header_line",
    "format_record_uid",
    "write_flowrecords_jsonl",
]

#: Schema tag carried by the header line of every flow_records.jsonl.
FLOWRECORDS_SCHEMA = "repro-flowrecords/1"

#: Why a flow left the table: normal teardown / end-of-trace flush
#: ("finished"), TTL expiry ("expired"), capacity or memory-budget
#: eviction ("evicted").
CLOSE_REASONS = ("finished", "expired", "evicted")


def format_record_uid(serial: int) -> str:
    """The generic record uid: ``S`` + zero-padded arrival serial.

    Apps with their own uid scheme (Bro's ``C...`` base62, binpac's
    ``F...``) reuse it for their records; apps without one (bpf,
    firewall, the flowexport tool) get this.
    """
    return f"S{serial:06d}"


@dataclass
class FlowRecord:
    """One sealed bidirectional flow.

    ``src``/``src_port`` is the *originator* end — whichever endpoint
    sent the first packet of the flow — so direction-split counters are
    meaningful; the 5-tuple itself is still canonical under direction
    reversal (the same two endpoints always produce the same record).
    """

    src: str
    dst: str
    src_port: int
    dst_port: int
    protocol: int
    uid: Optional[str]
    first_ts: float
    last_ts: float
    orig_pkts: int
    orig_bytes: int
    resp_pkts: int
    resp_bytes: int
    tcp_flags: int
    close_reason: str

    def to_dict(self) -> Dict:
        return {
            "src": self.src,
            "dst": self.dst,
            "src_port": self.src_port,
            "dst_port": self.dst_port,
            "protocol": self.protocol,
            "uid": self.uid,
            "first_ts": round(self.first_ts, 6),
            "last_ts": round(self.last_ts, 6),
            "orig_pkts": self.orig_pkts,
            "orig_bytes": self.orig_bytes,
            "resp_pkts": self.resp_pkts,
            "resp_bytes": self.resp_bytes,
            "tcp_flags": self.tcp_flags,
            "close_reason": self.close_reason,
        }

    def to_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict) -> "FlowRecord":
        return cls(**{field: data[field] for field in _RECORD_FIELDS})


_RECORD_FIELDS = (
    "src", "dst", "src_port", "dst_port", "protocol", "uid",
    "first_ts", "last_ts", "orig_pkts", "orig_bytes",
    "resp_pkts", "resp_bytes", "tcp_flags", "close_reason",
)


def flowrecords_header_line(app: str, count: int) -> str:
    """The deterministic header line.

    Intentionally carries only the schema tag, the producing app, and
    the record count — *not* backend/worker topology — because the file
    body must be byte-identical across sequential and every parallel
    backend (the cross-backend identity oracle diffs whole files).
    """
    return json.dumps(
        {"schema": FLOWRECORDS_SCHEMA, "app": app, "records": count},
        sort_keys=True, separators=(",", ":"))


def write_flowrecords_jsonl(path: str, app: str,
                            record_lines: List[str]) -> str:
    """Write a flow_records.jsonl: header + pre-sorted record lines."""
    with open(path, "w") as stream:
        stream.write(flowrecords_header_line(app, len(record_lines)))
        stream.write("\n")
        for line in record_lines:
            stream.write(line)
            stream.write("\n")
    return path
