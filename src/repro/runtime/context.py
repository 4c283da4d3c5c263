"""Per-virtual-thread execution contexts.

With each virtual thread HILTI's runtime associates a context object
storing all of the thread's relevant state: the array of thread-local
variables ("globals"), the currently executing fiber, the timers scheduled
within the thread, and the exception status (paper, section 5 "Runtime
Model").  Compiled functions receive the context as a hidden argument —
here it is the explicit first parameter of every generated function.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from ..core.values import Time
from .files import FileManager
from .memory import AllocationStats
from .profiler import ProfilerRegistry
from .timers import TimerMgr

__all__ = ["ExecutionContext"]


class ExecutionContext:
    """All mutable state of one virtual thread."""

    __slots__ = (
        "vthread_id",
        "globals",
        "timer_mgr",
        "alloc_stats",
        "profilers",
        "file_manager",
        "scheduler",
        "program",
        "fiber",
        "instr_count",
        "blocks_dispatched",
        "segments_dispatched",
        "instr_budget",
        "debug_stream",
        "print_stream",
        "hook_groups_disabled",
        "watchpoints",
        "pending_expirations",
    )

    def __init__(
        self,
        vthread_id: int = 0,
        file_manager: Optional[FileManager] = None,
        print_stream=None,
    ):
        self.vthread_id = vthread_id
        # Thread-local variable array; layout assigned by the linker.
        self.globals: List = []
        # The thread's global notion of time (timer_mgr.advance_global).
        self.timer_mgr = TimerMgr(name=f"global/vthread-{vthread_id}")
        self.alloc_stats = AllocationStats()
        self.profilers = ProfilerRegistry()
        self.file_manager = file_manager if file_manager is not None else FileManager()
        self.scheduler = None
        self.program = None
        self.fiber = None
        self.instr_count = 0
        # Tier dispatch counters (telemetry): basic blocks entered by the
        # interpreter, straight-line regions charged by compiled code.
        self.blocks_dispatched = 0
        self.segments_dispatched = 0
        # Watchdog: when set, execution raises Hilti::ProcessingTimeout as
        # soon as instr_count passes this value (one-shot; the engines
        # disarm it on firing so handlers can run).  Hosts arm it per unit
        # of untrusted work, e.g. per packet.
        self.instr_budget = None
        self.debug_stream = sys.stderr
        self.print_stream = print_stream if print_stream is not None else sys.stdout
        self.hook_groups_disabled = set()
        # Watchpoints: [predicate, action, fired] triples evaluated by
        # watchpoint.check / Program.check_watchpoints (the paper's
        # footnote-4 extension supporting Bro's `when` statement).
        self.watchpoints = []
        # Container-eviction callbacks queued during timer advancement;
        # the engine drains them right after the advance that caused
        # them (map.on_expire / set.on_expire).
        self.pending_expirations = []

    @property
    def now(self) -> Time:
        return self.timer_mgr.current

    def arm_watchdog(self, budget: int) -> None:
        """Allow *budget* more instructions before Hilti::ProcessingTimeout."""
        self.instr_budget = self.instr_count + budget

    def disarm_watchdog(self) -> None:
        self.instr_budget = None

    def clone_for_vthread(self, vthread_id: int) -> "ExecutionContext":
        """A fresh context for another virtual thread.

        Thread-locals start from the program's initializers (the scheduler
        re-runs global initialization per thread); the file manager is
        shared — its command queue serializes output, matching the paper's
        single-manager design.
        """
        ctx = ExecutionContext(
            vthread_id=vthread_id,
            file_manager=self.file_manager,
            print_stream=self.print_stream,
        )
        ctx.scheduler = self.scheduler
        ctx.program = self.program
        return ctx

    def __repr__(self) -> str:
        return (
            f"<ExecutionContext vthread={self.vthread_id} "
            f"globals={len(self.globals)} instrs={self.instr_count}>"
        )
