"""Flow export: pcap -> flow records.

The flow layer as a standalone tool — no host application, no parsers,
just :class:`~repro.host.demux.FlowDemux` with no handler, tracking
every TCP/UDP flow of a trace and sealing one ``repro-flowrecords/1``
record per flow::

    python -m repro.tools.flowexport -r trace.pcap --logdir logs --validate

Writes ``records.jsonl``, the schema-valid sorted record stream.  It is
a pure function of trace content: re-running, or exporting from any
pipeline backend, fingerprints identically (docs/FLOWS.md).
"""

from __future__ import annotations

import argparse
import os as _os
import sys
from typing import List, Optional

from ..host.demux import FlowDemux, track_only
from ..host.flowtable import FlowTable
from ..net.flowrecord import format_record_uid, write_flowrecords_jsonl
from ..net.pcap import PcapReader
from .validate import validate_file

__all__ = ["export_flows", "main"]


def export_flows(trace_path: str, tolerant: bool = False) -> FlowTable:
    """Run every frame of *trace_path* through a fresh flow layer;
    returns its ledger with all flows sealed."""
    demux = FlowDemux(track_only, format_record_uid)
    with PcapReader(trace_path, tolerant=tolerant) as reader:
        for ordinal, (timestamp, frame) in enumerate(reader):
            demux.feed(timestamp, frame, ordinal)
    demux.finish()
    return demux.table


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowexport",
        description="export per-flow records from a pcap trace",
    )
    parser.add_argument("-r", "--read", required=True, metavar="TRACE",
                        help="pcap file to read")
    parser.add_argument("--logdir", default="logs",
                        help="directory for the output files "
                             "(default logs)")
    parser.add_argument("--tolerant-pcap", action="store_true",
                        help="skip truncated/corrupt trace records "
                             "instead of aborting")
    parser.add_argument("--validate", action="store_true",
                        help="re-read and schema-check the written "
                             "record stream (exit 1 on violations)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    table = export_flows(args.read, tolerant=args.tolerant_pcap)
    lines = table.record_lines()
    _os.makedirs(args.logdir, exist_ok=True)

    records_path = write_flowrecords_jsonl(
        _os.path.join(args.logdir, "records.jsonl"), "flowexport", lines)

    print(f"exported {len(lines)} flows "
          f"({table.serial} first-sighted)")
    print(f"  wrote {records_path}")

    if args.validate:
        errors = validate_file(records_path)
        for error in errors:
            print(f"{records_path}: {error}")
        if errors:
            return 1
        print(f"{records_path}: ok")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
