"""The standalone BinPAC++ driver's command line.

Runs the generated HILTI parsers directly over a trace — the paper's
section 5 exemplar without the Bro event engine on top::

    python -m repro.tools.pac_driver -r trace.pcap
    python -m repro.tools.pac_driver -r trace.pcap \
        --protocols http,dns --parallel --backend vthread

Every finished unit becomes one line of ``events.log``; a flow's uid
names the packet that opened it, so sequential and parallel runs
fingerprint identically.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from ..apps.binpac.app import PROTOCOLS, PacApp, PacLaneSpec
from ..core.optimize import OPT_LEVELS
from ..host.cli import add_pipeline_args, add_service_args, run_host_app

_DEFAULT = "http,dns,ssh,tftp"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pac_driver",
        description="run BinPAC++-generated HILTI parsers over a pcap "
                    "trace on the shared host pipeline",
    )
    parser.add_argument("--protocols", default=_DEFAULT, metavar="LIST",
                        help="comma-separated protocols to parse "
                             f"(default {_DEFAULT})")
    parser.add_argument("-O", "--opt-level", type=int,
                        choices=list(OPT_LEVELS), default=None,
                        help="HILTI optimization level for the "
                             "generated parsers")
    parser.add_argument("--flow-budget-ms", type=float, default=None,
                        metavar="MS",
                        help="per-dispatch wall-clock budget for one "
                             "flow's parser; a flow exceeding it is "
                             "quarantined (counted in the health "
                             "report) instead of stalling the pipeline")
    add_pipeline_args(parser)
    add_service_args(parser)
    return parser


def _protocols(args: argparse.Namespace) -> tuple:
    names = tuple(p.strip() for p in args.protocols.split(",") if p.strip())
    unknown = [p for p in names if p not in PROTOCOLS]
    if unknown:
        known = ", ".join(sorted(PROTOCOLS))
        raise SystemExit(f"pac_driver: unknown protocols "
                         f"{', '.join(unknown)} (known: {known})")
    if not names:
        raise SystemExit("pac_driver: --protocols must name at least one "
                         "protocol")
    return names


def _flow_budget_ns(args: argparse.Namespace):
    if args.flow_budget_ms is None:
        return None
    return int(args.flow_budget_ms * 1e6)


def _make_app(args: argparse.Namespace, services) -> PacApp:
    return PacApp(protocols=_protocols(args),
                  opt_level=args.opt_level, services=services,
                  flow_budget_ns=_flow_budget_ns(args))


def _make_spec(args: argparse.Namespace) -> PacLaneSpec:
    return PacLaneSpec({
        "protocols": _protocols(args),
        "opt_level": args.opt_level,
        "watchdog_budget": args.watchdog,
        "metrics": args.metrics,
        "trace": args.trace_flows,
    })


def _summarize(stats: Dict) -> str:
    return (f", {stats['events']} events from "
            f"{stats['flows_opened']} flows "
            f"({stats['parse_errors']} parse errors)")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    return run_host_app(args, "pac_driver", _make_app, _make_spec,
                        results_name="events.log",
                        summarize=_summarize)


if __name__ == "__main__":
    sys.exit(main())
