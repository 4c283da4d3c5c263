"""Compiler-inserted profiling instrumentation.

"The HILTI compiler can also insert instrumentation to profile at
function granularity" (paper, section 3.3).  This pass rewrites each
function to bracket its execution with ``profiler.start``/``profiler.stop``
on a profiler named after the function; the runtime's ProfilerRegistry
then accumulates wall time, instruction counts, and allocation counts per
function, queryable from the execution context after a run.

The stop must fire on *every* exit.  The pass inserts it before each
return terminator and on the implicit fall-off of void functions, and
names the profiler on the function (``Function.profiler``): an exit by
exception (a throw, ``hook.stop``, a watchdog timeout) is each tier's
own, and both stop that profiler as the exception leaves the frame —
the compiled tier in the except clause every generated function already
has, so the non-raising path pays nothing for it.
"""

from __future__ import annotations

from typing import List

from . import types as ht
from .ir import Const, Function, Instruction, Module

__all__ = ["instrument_module", "instrument_function"]

_RETURNS = {"return.void", "return.result"}


def _start(name: str) -> Instruction:
    return Instruction("profiler.start", (Const(ht.STRING, name),))


def _stop(name: str) -> Instruction:
    return Instruction("profiler.stop", (Const(ht.STRING, name),))


def instrument_function(function: Function) -> int:
    """Insert start/stop pairs; returns the number of stops inserted."""
    profiler_name = f"func/{function.name}"
    if not function.blocks:
        return 0
    function.profiler = profiler_name
    entry = function.blocks[0]
    entry.instructions.insert(0, _start(profiler_name))
    stops = 0
    for block in function.blocks:
        rewritten: List[Instruction] = []
        for instruction in block.instructions:
            if instruction.mnemonic in _RETURNS:
                rewritten.append(_stop(profiler_name))
                stops += 1
            rewritten.append(instruction)
        block.instructions = rewritten
    last = function.blocks[-1]
    if not last.instructions or \
            last.instructions[-1].mnemonic not in _RETURNS:
        # Implicit fall-off exit of a void function.
        last.instructions.append(_stop(profiler_name))
        stops += 1
    return stops


def instrument_module(module: Module) -> int:
    """Instrument every function and hook body of *module*."""
    total = 0
    for function in module.all_functions():
        total += instrument_function(function)
    return total
