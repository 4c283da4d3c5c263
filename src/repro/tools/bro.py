"""bro — run the analysis pipeline over a pcap trace.

The Figure 8 command line in miniature::

    # bro -r wikipedia.pcap compile_scripts=T track.bro
    python -m repro.tools.bro -r trace.pcap --compile-scripts track.bro

Without script files, the default conn/http/dns analysis scripts run;
the per-stream ``.log`` files land in ``--logdir`` (default ``./logs``)
next to the shared ``results.log`` (every log line, sorted — the
fingerprinted stream).

Everything beyond the scripts, ``--parsers``, ``--compile-scripts`` and
``-O`` is the shared host-app surface of :mod:`repro.host.cli` —
robustness (docs/ROBUSTNESS.md), telemetry (docs/OBSERVABILITY.md),
session bounds, ``--parallel`` (docs/PARALLELISM.md) and ``--serve``
(docs/SERVICE.md) — driven by :func:`~repro.host.cli.run_host_app`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from ..apps.bro.main import Bro
from ..apps.bro.parallel import BroLaneSpec, merge_logs
from ..apps.bro.scripts import TRACK_SCRIPT
from ..core.optimize import OPT_LEVELS
from ..host.cli import add_pipeline_args, add_service_args, run_host_app

_BUNDLED = {"track.bro": TRACK_SCRIPT}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bro", description="mini-Bro over a pcap trace")
    parser.add_argument("scripts", nargs="*",
                        help="script files (default: conn/http/dns); the "
                             "bundled track.bro may be named directly")
    parser.add_argument("--parsers", choices=["std", "pac"], default="std",
                        help="protocol parser tier (default std)")
    parser.add_argument("--compile-scripts", action="store_true",
                        help="compile scripts through HILTI "
                             "(the paper's compile_scripts=T)")
    parser.add_argument("-O", "--opt-level", type=int,
                        choices=list(OPT_LEVELS), default=None,
                        help="HILTI optimization level for compiled "
                             "scripts and pac parsers")
    add_pipeline_args(parser)
    add_service_args(parser)
    return parser


def _scripts_engine(ns) -> str:
    return "hilti" if ns.compile_scripts else "interp"


def _make_app(ns, services, scripts) -> Bro:
    return Bro(
        scripts=scripts,
        parsers=ns.parsers,
        scripts_engine=_scripts_engine(ns),
        opt_level=ns.opt_level,
        fault_injector=services.faults,
        watchdog_budget=services.watchdog_budget,
        telemetry=services.telemetry,
        max_sessions=services.max_sessions,
        session_ttl=services.session_ttl,
        memory_budget_bytes=services.memory_budget_bytes,
    )


def _make_spec(ns, scripts) -> BroLaneSpec:
    """The lane spec for ``--parallel`` and pool-transport ``--serve``:
    lanes are built from it in worker processes, where only the
    picklable spec travels — so every compilation knob, including
    ``-O``, must ride in it."""
    return BroLaneSpec({
        "scripts": scripts,
        "parsers": ns.parsers,
        "scripts_engine": _scripts_engine(ns),
        "log_enabled": True,
        "watchdog_budget": ns.watchdog,
        "opt_level": ns.opt_level,
        "metrics": ns.metrics,
        "trace": ns.trace_flows,
    })


def _summarize(stats: Dict) -> str:
    return f", {stats.get('events', 0)} events"


def _save_logs(run, logdir: str) -> List[str]:
    """The per-stream ``.log`` files: the sequential app's own log
    manager, or the parallel lanes' merged streams."""
    logs = (run.core.logs if isinstance(run, Bro)
            else merge_logs(run.lane_results))
    logs.save(logdir)
    return [f"  {logdir}/{name}.log: {stream.writes} entries"
            for name, stream in sorted(logs.streams.items())
            if stream.writes]


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)

    scripts = None
    if args.scripts:
        scripts = []
        for name in args.scripts:
            if name in _BUNDLED:
                scripts.append(_BUNDLED[name])
            else:
                with open(name) as stream:
                    scripts.append(stream.read())

    return run_host_app(
        args, "bro",
        lambda ns, services: _make_app(ns, services, scripts),
        lambda ns: _make_spec(ns, scripts),
        summarize=_summarize,
        save_logs=_save_logs,
    )


if __name__ == "__main__":
    sys.exit(main())
