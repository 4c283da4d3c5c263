"""HILTI-to-Bro glue: where values cross between Bro and compiled
scripts, and what the crossing costs.

In the paper, Bro's logging, event generation and builtins traffic in
Bro's own ``Val`` classes, so the HILTI plugin "needs to generate a
significant amount of glue code, which comes with a corresponding
performance penalty" (paper, section 5).  Here host and HILTI share one
representation (``repro.apps.bro.val``): a record is a HILTI struct, a
table, set or vector a HILTI container, a scalar a plain Python object.

The boundary rule: every value crosses by reference, in both
directions.  An event's arguments are the objects the analyzers built,
a native's arguments the objects compiled code holds, and a write on
either side is seen on the other.  Nothing is lowered, copied or
snapshotted.

What is left is the accounting behind the glue share of Figures 9 and
10: ``to_hilti_calls``/``from_hilti_calls`` count the values crossing,
and ``ns_spent`` brackets each argument list once, not each value.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Dict, List, Sequence

__all__ = ["Glue"]


class Glue:
    """The boundary's accounting context."""

    def __init__(self):
        self.to_hilti_calls = 0
        self.from_hilti_calls = 0
        self.ns_spent = 0

    # -- crossings ----------------------------------------------------------

    def to_hilti(self, value):
        """One value, Bro -> HILTI."""
        return self.args_to_hilti((value,))[0]

    def args_to_hilti(self, args: Sequence) -> List:
        """One event's or call's arguments, Bro -> HILTI; timed once."""
        begin = perf_counter_ns()
        out = list(args)
        self.to_hilti_calls += len(out)
        self.ns_spent += perf_counter_ns() - begin
        return out

    def from_hilti(self, value):
        """One value, HILTI -> Bro."""
        return self.args_from_hilti((value,))[0]

    def args_from_hilti(self, args: Sequence) -> List:
        """One native call's arguments, HILTI -> Bro; timed once."""
        begin = perf_counter_ns()
        out = list(args)
        self.from_hilti_calls += len(out)
        self.ns_spent += perf_counter_ns() - begin
        return out

    def stats(self) -> Dict:
        return {
            "to_hilti_calls": self.to_hilti_calls,
            "from_hilti_calls": self.from_hilti_calls,
            "ns_spent": self.ns_spent,
        }

    def reset_stats(self) -> None:
        self.to_hilti_calls = 0
        self.from_hilti_calls = 0
        self.ns_spent = 0
