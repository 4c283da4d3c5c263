"""Profilers: measuring runtime properties of code blocks.

HILTI supports measuring CPU and memory attributes for arbitrary blocks of
code via profilers; the runtime records measured attributes at regular
intervals (paper, section 3.3).  PAPI cycle counters are substituted with
monotonic nanosecond timers plus the engine's instruction and allocation
counters — relative breakdowns, which is what Figures 9 and 10 report,
are preserved.

A profiler whose region is exited exceptionally (compiler-inserted
``profiler.stop`` never reached) does not silently misattribute time:
:meth:`Profiler.report` drains any still-open measurement up to the
report's wall clock and flags the series ``unbalanced`` so downstream
consumers can tell clean accounting from truncated accounting.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

__all__ = ["Profiler", "ProfilerRegistry"]


class Profiler:
    """A named profiler accumulating time/instruction/allocation deltas."""

    __slots__ = (
        "name",
        "wall_ns",
        "instructions",
        "allocations",
        "updates",
        "unbalanced",
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
        self.unbalanced = False
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

    def drain(self, instructions: Optional[int] = None,
              allocations: Optional[int] = None) -> bool:
        """Close a region left open by an exceptional exit.

        Accounts wall time up to now (and counter deltas when the
        caller can supply current readings), marks the profiler
        :attr:`unbalanced`, and resets the nesting depth.  Returns True
        when there was anything to drain.
        """
        if self._depth == 0:
            return False
        now = time.perf_counter_ns()
        self.wall_ns += now - self._start_ns
        if instructions is not None:
            self.instructions += instructions - self._start_instr
        if allocations is not None:
            self.allocations += allocations - self._start_alloc
        self.updates += 1
        self._depth = 0
        self.unbalanced = True
        return True

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
        # Exceptional exits leave start/stop unbalanced; drain the open
        # measurement rather than dropping it on the floor, and say so.
        self.drain()
        return {
            "name": self.name,
            "wall_ns": self.wall_ns,
            "instructions": self.instructions,
            "allocations": self.allocations,
            "updates": self.updates,
            "unbalanced": self.unbalanced,
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
