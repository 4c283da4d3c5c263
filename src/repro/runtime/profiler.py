"""Profilers: measuring runtime properties of code blocks.

HILTI supports measuring CPU and memory attributes for arbitrary blocks of
code via profilers; the runtime records measured attributes at regular
intervals (paper, section 3.3).  PAPI cycle counters are substituted with
monotonic nanosecond timers plus the engine's instruction and allocation
counters — relative breakdowns, which is what Figures 9 and 10 report,
are preserved.

A function-granularity profiler closes its region on every exit: the
instrumentation pass stops it before each return, and each tier stops
it when an exception leaves the function (``repro.core.instrument``).
A report counts closed regions only; a region still open when it is
taken (a fiber suspended mid-call) is counted once it closes.
"""

from __future__ import annotations

import time
from typing import Dict, List

__all__ = ["Profiler", "ProfilerRegistry"]


class Profiler:
    """A named profiler accumulating time/instruction/allocation deltas."""

    __slots__ = (
        "name",
        "wall_ns",
        "instructions",
        "allocations",
        "updates",
        "_start_ns",
        "_start_instr",
        "_start_alloc",
        "_depth",
        "snapshots",
        "snapshot_every_ns",
        "_last_snapshot_ns",
    )

    def __init__(self, name: str, snapshot_every_ns: int = 0):
        self.name = name
        self.wall_ns = 0
        self.instructions = 0
        self.allocations = 0
        self.updates = 0
        self._start_ns = 0
        self._start_instr = 0
        self._start_alloc = 0
        self._depth = 0
        self.snapshots: List[Dict] = []
        self.snapshot_every_ns = snapshot_every_ns
        self._last_snapshot_ns = 0

    def start(self, instructions: int = 0, allocations: int = 0) -> None:
        """Begin (or nest into) a measured region.

        start/stop pairs may nest — e.g. a profiled function calling
        itself recursively, or a hook profiled under the same name as
        its caller.  Only the outermost pair delimits the measurement;
        inner pairs just track depth, so the deltas are attributed once
        instead of once per level (and never to the wrong baseline).
        """
        self._depth += 1
        if self._depth > 1:
            return
        self._start_ns = time.perf_counter_ns()
        self._start_instr = instructions
        self._start_alloc = allocations

    def stop(self, instructions: int = 0, allocations: int = 0) -> None:
        if self._depth == 0:
            return
        self._depth -= 1
        if self._depth:
            return
        now = time.perf_counter_ns()
        self.wall_ns += now - self._start_ns
        self.instructions += instructions - self._start_instr
        self.allocations += allocations - self._start_alloc
        self.updates += 1
        if self.snapshot_every_ns:
            self.sample(now)

    def sample(self, now: int) -> None:
        """Take an interval snapshot if one is due at *now* (the clock
        reading that closed the region)."""
        if now - self._last_snapshot_ns >= self.snapshot_every_ns:
            self._last_snapshot_ns = now
            self.snapshots.append(self._snapshot())

    def update(self, wall_ns: int = 0, instructions: int = 0,
               allocations: int = 0) -> None:
        """Directly add measured deltas (profiler.update instruction)."""
        self.wall_ns += wall_ns
        self.instructions += instructions
        self.allocations += allocations
        self.updates += 1

    def _snapshot(self) -> Dict:
        """One interval sample: the running totals plus a wall-clock
        timestamp, so interval series line up with external logs."""
        return {
            "name": self.name,
            "ts": time.time(),
            "wall_ns": self.wall_ns,
            "instructions": self.instructions,
            "allocations": self.allocations,
            "updates": self.updates,
        }

    def report(self) -> Dict:
        return {
            "name": self.name,
            "wall_ns": self.wall_ns,
            "instructions": self.instructions,
            "allocations": self.allocations,
            "updates": self.updates,
        }

    def __repr__(self) -> str:
        return (
            f"<Profiler {self.name}: {self.wall_ns / 1e6:.3f} ms, "
            f"{self.instructions} instrs, {self.allocations} allocs>"
        )


class ProfilerRegistry:
    """All profilers of one execution context, addressed by name."""

    __slots__ = ("_profilers", "default_snapshot_every_ns")

    def __init__(self, default_snapshot_every_ns: int = 0):
        self._profilers: Dict[str, Profiler] = {}
        # Hosts wanting §3.3-style interval series for every profiler
        # (e.g. hiltic --profile-snapshots) set this before the run.
        self.default_snapshot_every_ns = default_snapshot_every_ns

    def get(self, name: str, snapshot_every_ns: int = 0) -> Profiler:
        profiler = self._profilers.get(name)
        if profiler is None:
            profiler = Profiler(
                name,
                snapshot_every_ns or self.default_snapshot_every_ns,
            )
            self._profilers[name] = profiler
        return profiler

    def exists(self, name: str) -> bool:
        return name in self._profilers

    def all(self) -> List[Profiler]:
        return list(self._profilers.values())

    def report(self) -> Dict[str, Dict]:
        return {name: p.report() for name, p in self._profilers.items()}

    def dump(self, stream) -> None:
        """Write all profiler reports to *stream*, one line per profiler,
        followed by one ``#snapshot`` line per recorded interval sample."""
        for name in sorted(self._profilers):
            report = self._profilers[name].report()
            fields = " ".join(f"{k}={v}" for k, v in report.items() if k != "name")
            stream.write(f"#profile {name} {fields}\n")
        for name in sorted(self._profilers):
            for seq, snapshot in enumerate(self._profilers[name].snapshots):
                fields = " ".join(
                    f"{k}={v}" for k, v in snapshot.items() if k != "name"
                )
                stream.write(f"#snapshot {name} seq={seq} {fields}\n")
