"""Host-application interface stubs: the one way host code enters HILTI.

The HILTI compiler generates C stubs through which host applications call
into compiled code (paper, Figure 2 and section 3.4).  The stubs integrate
exception handling (surfacing uncaught HILTI exceptions), fiber resumption
(a call that suspends hands back a resumable object), and measurement of
stub overhead — the §6.2 evaluation explicitly charges 20.6% of the BPF
gap to stub work, so the stub layer is a real, measurable component here
too.

A :class:`Stub` resolves its function once, when it is built — the call
target, its arity, whether it can suspend — so a call is one arity
check, the marshalling of raw host bytes, and a direct call of the
function's entry.  Every per-packet and per-record entry of the host
applications goes through one; only one-time initialisation calls still
look a function up by name (``program.call``).  The same stub works on
both tiers: the interpreter hands out the same host-entry view of a
function (:meth:`repro.core.interp.Interpreter.function`).
"""

from __future__ import annotations

import time
from typing import Optional

from ..runtime.bytes_buffer import Bytes
from ..runtime.exceptions import HiltiError, VALUE_ERROR
from ..runtime.fibers import Fiber, YIELDED
from .codegen import _drain

__all__ = ["Stub", "StubResult", "make_stub"]

_clock = time.perf_counter_ns

# The host types a stub converts.
_RAW = (bytes, bytearray)


class StubResult:
    """Outcome of a stub call: value, suspension, or exception."""

    __slots__ = ("value", "fiber", "error")

    def __init__(self, value=None, fiber: Optional[Fiber] = None,
                 error: Optional[HiltiError] = None):
        self.value = value
        self.fiber = fiber
        self.error = error

    @property
    def suspended(self) -> bool:
        return self.fiber is not None

    @property
    def raised(self) -> bool:
        return self.error is not None

    def __repr__(self) -> str:
        if self.raised:
            return f"StubResult(error={self.error!r})"
        if self.suspended:
            return "StubResult(<suspended>)"
        return f"StubResult(value={self.value!r})"


def _generate(stub: "Stub", entry, drain: bool):
    """Generate the stub's entry for a function of ``stub.param_count``
    parameters, as the HILTI compiler generates a C stub per function.

    The generated ``enter(ctx, *args)`` checks the arity, marshals each
    argument in place (raw ``bytes``/``bytearray`` become one frozen
    ``Bytes``: one copy), charges that work to ``stub.overhead_ns`` with
    one clock pair — so benchmarks can report the stub share like §6.2 —
    and calls *entry* directly; with *drain* it runs a suspending
    function's generator to completion.
    """
    params = [f"a{i}" for i in range(stub.param_count)]
    lines = ["def enter(ctx, *args):",
             "    begin = _clock()",
             "    stub.calls += 1",
             f"    if len(args) != {len(params)}:",
             "        raise stub._arity(len(args))"]
    if params:
        lines.append(f"    {', '.join(params)}, = args")
    for a in params:
        lines.append(f"    if isinstance({a}, _RAW): "
                     f"{a} = Bytes({a}); {a}.freeze()")
    call = f"entry({', '.join(['ctx'] + params)})"
    lines += ["    stub.overhead_ns += _clock() - begin",
              f"    return _drain({call})" if drain else f"    return {call}"]
    namespace = {"stub": stub, "entry": entry, "_clock": _clock,
                 "_RAW": _RAW, "Bytes": Bytes, "_drain": _drain}
    exec("\n".join(lines), namespace)
    return namespace["enter"]


class Stub:
    """A generated entry point for one exported HILTI function.

    ``stub(ctx, *args)`` calls to completion; hot callers keep the
    bound ``stub.call`` (the generated function itself, one call layer
    less).  The arity check is not optional: a compiled function takes
    its locals as defaulted parameters, so an extra argument would
    silently seed a local instead of failing.
    """

    __slots__ = ("program", "name", "param_count", "can_suspend",
                 "overhead_ns", "calls", "call", "_enter")

    def __init__(self, program, name: str):
        function = program.function(name)  # LinkError when unknown
        self.program = program
        self.name = name
        self.param_count = function.param_count
        # Compiled functions that can suspend are generator functions;
        # ``call`` drains them (suspension points are ignored), ``start``
        # runs them in a fiber.
        self.can_suspend = function.can_suspend
        self.overhead_ns = 0
        self.calls = 0
        self._enter = _generate(self, function.entry, drain=False)
        self.call = _generate(self, function.entry, drain=True) \
            if self.can_suspend else self._enter

    def _arity(self, got: int) -> HiltiError:
        return HiltiError(VALUE_ERROR, f"{self.name} expects "
                                       f"{self.param_count} arguments, got {got}")

    def __call__(self, ctx, *args):
        """Call to completion; HILTI exceptions surface as HiltiError."""
        return self.call(ctx, *args)

    def call_checked(self, ctx, *args) -> StubResult:
        """Like __call__, but returns errors instead of raising."""
        try:
            return StubResult(value=self.call(ctx, *args))
        except HiltiError as error:
            return StubResult(error=error)

    def start(self, ctx, *args) -> StubResult:
        """Start inside a fiber; suspension yields a resumable result."""
        if not self.can_suspend:
            return StubResult(value=self.call(ctx, *args))
        fiber = Fiber(self._enter(ctx, *args), stats=self.program.fiber_stats)
        return self.resume(StubResult(fiber=fiber))

    @staticmethod
    def resume(result: StubResult) -> StubResult:
        """Resume a suspended call after more input became available."""
        outcome = result.fiber.resume()
        if outcome is YIELDED:
            return result
        return StubResult(value=outcome)

    def __repr__(self) -> str:
        return f"<Stub {self.name} calls={self.calls}>"


def make_stub(program, name: str) -> Stub:
    """Generate the host-side stub for one compiled function."""
    return Stub(program, name)
