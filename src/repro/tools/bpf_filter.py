"""The BPF exemplar's command line: filter a trace through HILTI.

The paper's simplest host application as a standalone tool over the
shared pipeline driver::

    python -m repro.tools.bpf_filter 'tcp and port 80' -r trace.pcap
    python -m repro.tools.bpf_filter 'host 10.0.0.1' -r trace.pcap \
        --engine vm --parallel --backend vthread

Shares the full ``repro.host.cli`` surface with the other drivers:
``--metrics``, ``--inject``, ``--watchdog``, ``--parallel``,
``--tolerant-pcap`` and friends all behave identically.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from ..apps.bpf.app import ENGINES, BpfApp, BpfLaneSpec
from ..core.optimize import OPT_LEVELS
from ..host.cli import add_pipeline_args, add_service_args, run_host_app


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpf_filter",
        description="evaluate a BPF filter expression over a pcap trace "
                    "on the shared host pipeline",
    )
    parser.add_argument("filter", help="tcpdump-style filter expression "
                                       "(e.g. 'tcp and port 80')")
    parser.add_argument("--engine", choices=ENGINES, default="compiled",
                        help="execution tier: HILTI compiled (default), "
                             "HILTI interpreted, or the classic BPF "
                             "virtual machine")
    parser.add_argument("-O", "--opt-level", type=int,
                        choices=list(OPT_LEVELS), default=None,
                        help="HILTI optimization level for the compiled "
                             "tier")
    add_pipeline_args(parser)
    add_service_args(parser)
    return parser


def _make_app(args: argparse.Namespace, services) -> BpfApp:
    return BpfApp(args.filter, engine=args.engine,
                  opt_level=args.opt_level, services=services)


def _make_spec(args: argparse.Namespace) -> BpfLaneSpec:
    return BpfLaneSpec({
        "filter": args.filter,
        "engine": args.engine,
        "opt_level": args.opt_level,
        "watchdog_budget": args.watchdog,
        "metrics": args.metrics,
        "trace": args.trace_flows,
    })


def _summarize(stats: Dict) -> str:
    return (f", accepted {stats['accepted']}, "
            f"rejected {stats['rejected']} "
            f"({stats['engine']} engine)")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    return run_host_app(args, "bpf_filter", _make_app, _make_spec,
                        results_name="accepted.log",
                        summarize=_summarize)


if __name__ == "__main__":
    sys.exit(main())
