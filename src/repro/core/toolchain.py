"""The compiler driver: ``hiltic`` and ``hilti-build`` equivalents.

``hiltic`` compiles HILTI source (text or IR modules) into an executable
program object; ``hilti_build`` additionally wires an entry point so the
result behaves like the static binary of the paper's Figure 3.  JIT-style
execution — compile and immediately run — is ``run_source``.

Pipeline: parse -> typecheck -> optimize (optional) -> link -> codegen.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from .codegen import CompiledProgram, compile_program
from .instrument import instrument_module
from .interp import Interpreter
from .ir import Module
from .linker import link
from .optimize import DEFAULT_OPT_LEVEL, OPT_LEVELS, OptStats, optimize_module
from .parser import parse_module
from .typecheck import check_module

__all__ = ["hiltic", "hilti_build", "run_source", "HiltiExecutable"]

Source = Union[str, Module]


def _to_modules(sources: Sequence[Source]) -> List[Module]:
    modules = []
    for index, source in enumerate(sources):
        if isinstance(source, Module):
            modules.append(source)
        else:
            modules.append(parse_module(source, filename=f"<source-{index}>"))
    return modules


def hiltic(
    sources: Sequence[Source],
    natives: Optional[Dict[str, Callable]] = None,
    entry: Optional[str] = None,
    tier: str = "compiled",
    profile: bool = False,
    opt_level: Optional[int] = None,
):
    """Compile sources into an executable program.

    *tier* selects the backend: ``"compiled"`` (the code generator, the
    paper's native-code path) or ``"interpreted"`` (the reference
    interpreter).  *profile* inserts function-granularity profiler
    instrumentation (paper, section 3.3); per-function reports appear in
    each context's ``profilers`` registry under ``func/<name>``.

    *opt_level* is the ``-O`` knob (see ``optimize.OPT_LEVELS``): ``0``
    lowers the IR verbatim, ``1`` (the default, also for ``None``) runs
    the ``repro.core.optimize`` pass pipeline between typecheck and
    lowering and turns on codegen's compile-time specialisations.  The
    interpreted tier always executes the *unoptimized* IR so the two
    tiers stay a differential oracle for the optimizer;
    ``repro.tools.fuzz`` exercises that oracle at every level.
    """
    level = DEFAULT_OPT_LEVEL if opt_level is None else opt_level
    if level not in OPT_LEVELS:
        raise ValueError(f"unknown optimization level {level!r}")
    modules = _to_modules(sources)
    stats = OptStats()
    profile_stops = 0
    for module in modules:
        check_module(module)
        if level >= 1 and tier == "compiled":
            optimize_module(module, stats, level=level)
        if profile:
            profile_stops += instrument_module(module)
    linked = link(modules, natives=natives, entry=entry)
    if tier == "compiled":
        program = compile_program(linked, opt_level=level)
        program.opt_stats = stats
        program.profile_stops = profile_stops
        return program
    if tier == "interpreted":
        interpreter = Interpreter(linked)
        interpreter.opt_stats = stats
        interpreter.profile_stops = profile_stops
        return interpreter
    raise ValueError(f"unknown tier {tier!r}")


class HiltiExecutable:
    """The ``hilti-build`` output: a program with a fixed entry point."""

    def __init__(self, program: CompiledProgram):
        self.program = program

    def run(self, args: Sequence = (), ctx=None):
        return self.program.run(ctx=ctx, args=args)

    def __call__(self, *args):
        return self.run(args)


def hilti_build(
    sources: Sequence[Source],
    natives: Optional[Dict[str, Callable]] = None,
    entry: Optional[str] = None,
    opt_level: Optional[int] = None,
) -> HiltiExecutable:
    """Build an executable (entry defaults to ``Main::run``)."""
    program = hiltic(sources, natives=natives, entry=entry,
                     opt_level=opt_level)
    if program.linked.entry is None:
        raise ValueError("hilti-build requires an entry point (Main::run)")
    return HiltiExecutable(program)


def run_source(
    source: str,
    natives: Optional[Dict[str, Callable]] = None,
    args: Sequence = (),
    print_stream=None,
):
    """JIT-execute HILTI source text; returns the entry's result."""
    program = hiltic([source], natives=natives)
    ctx = program.make_context(print_stream=print_stream) \
        if print_stream is not None else program.make_context()
    return program.run(ctx=ctx, args=args)
