"""hiltic — the HILTI compiler driver (paper, Figure 2/3).

Usage::

    python -m repro.tools.hiltic prog.hlt [more.hlt ...] [options]

Without ``--run``, parses / verifies / optimizes and reports; with
``--run``, JIT-executes the program's entry point.  ``--print-ir`` dumps
the linked module inventory, ``--profile`` inserts function-granularity
instrumentation and prints the profiler report after the run.
"""

from __future__ import annotations

import argparse
import sys

from ..core.optimize import DEFAULT_OPT_LEVEL, OPT_LEVELS
from ..core.toolchain import hiltic

_LEVEL_HELP = {
    0: "disable HILTI-level optimizations",
    1: "enable the IR pass pipeline",
}


def add_opt_level_flags(parser: argparse.ArgumentParser) -> None:
    """Per-level ``-O<N>`` const flags, one per ``OPT_LEVELS`` entry."""
    for level in OPT_LEVELS:
        help_text = _LEVEL_HELP.get(level, f"optimization level {level}")
        if level == DEFAULT_OPT_LEVEL:
            help_text += " (default)"
        parser.add_argument(f"-O{level}", dest="opt_level",
                            action="store_const", const=level,
                            help=help_text)
    parser.set_defaults(opt_level=DEFAULT_OPT_LEVEL)


def build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiltic", description="HILTI compiler")
    parser.add_argument("sources", nargs="+", help="HILTI source files")
    parser.add_argument("--run", action="store_true",
                        help="JIT-execute the entry point after compiling")
    parser.add_argument("--entry", default=None,
                        help="entry function (default Main::run)")
    parser.add_argument("--tier", choices=["compiled", "interpreted"],
                        default="compiled")
    add_opt_level_flags(parser)
    parser.add_argument("--profile", action="store_true",
                        help="insert function-granularity profiling")
    parser.add_argument("--profile-snapshots", type=float, default=0,
                        metavar="MS",
                        help="with --profile, record interval snapshots "
                             "of every profiler at least MS milliseconds "
                             "apart (paper §3.3 'regular intervals'); "
                             "dumped as #snapshot lines after the run")
    parser.add_argument("--print-ir", action="store_true",
                        help="print the linked program inventory")
    return parser


def main(argv=None) -> int:
    args = build_argparser().parse_args(argv)
    sources = []
    for path in args.sources:
        with open(path) as stream:
            sources.append(stream.read())
    program = hiltic(
        sources,
        opt_level=args.opt_level,
        entry=args.entry,
        tier=args.tier,
        profile=args.profile,
    )
    linked = program.linked
    if args.print_ir:
        print(f"modules:   {', '.join(m.name for m in linked.modules)}")
        print(f"functions: {len(linked.functions)}")
        for name in sorted(linked.functions):
            print(f"  {name}")
        print(f"hooks:     {len(linked.hooks)}")
        print(f"globals:   {len(linked.global_layout)}")
        stats = getattr(program, "opt_stats", None)
        fired = {key: value for key, value in stats.as_dict().items()
                 if value} if stats else {}
        if fired:
            print("opt:       " + ", ".join(
                f"{key}={value}" for key, value in sorted(fired.items())))
    if args.run:
        ctx = program.make_context()
        if args.profile_snapshots:
            ctx.profilers.default_snapshot_every_ns = int(
                args.profile_snapshots * 1e6
            )
        result = program.run(ctx=ctx)
        if result is not None:
            print(result)
        if args.profile:
            ctx.profilers.dump(sys.stdout)
    elif not args.print_ir:
        print(
            f"compiled {len(linked.functions)} functions, "
            f"{len(linked.hooks)} hooks ({args.tier} tier)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
