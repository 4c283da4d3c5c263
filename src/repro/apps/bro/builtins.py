"""Built-in functions of the mini-Bro script language.

One implementation shared by both script engines: the interpreter calls
these directly; the HILTI compiler exposes them as ``Bro::*`` natives,
most behind the glue layer's accounting (``repro.apps.bro.glue``).  Both
engines hand them the same values (``repro.apps.bro.val``).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict

from ...core.values import Addr, Interval, Port, Time
from ...runtime.containers import HiltiMap, HiltiSet, HiltiVector
from .val import BroRuntimeError, RecordVal

__all__ = ["make_builtins", "bro_fmt", "render"]


def render(value) -> str:
    """Bro's ``print``/%s rendering."""
    if value is None:
        return "<uninitialized>"
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, Time):
        return f"{value.seconds:.6f}"
    if isinstance(value, Interval):
        return f"{value.seconds:.1f}"
    if isinstance(value, bytes):
        return value.decode("utf-8", "replace")
    if isinstance(value, (HiltiSet, HiltiVector, HiltiMap)):
        # A table renders its keys.
        return "{" + ", ".join(render(v) for v in value) + "}"
    if isinstance(value, RecordVal):
        inner = ", ".join(
            f"${k}={render(v)}" for k, v in value.fields().items()
        )
        return f"[{inner}]"
    if isinstance(value, tuple):
        return ", ".join(render(v) for v in value)
    return str(value)


def bro_fmt(template: str, *args) -> str:
    """``fmt()``: %s %d %f %x with Bro value rendering."""
    out = []
    arg_iter = iter(args)
    i = 0
    while i < len(template):
        ch = template[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        i += 1
        if i >= len(template):
            raise BroRuntimeError("dangling % in fmt()")
        spec = template[i]
        i += 1
        if spec == "%":
            out.append("%")
            continue
        try:
            value = next(arg_iter)
        except StopIteration:
            raise BroRuntimeError("not enough arguments for fmt()") from None
        if spec == "d":
            out.append(str(int(value)))
        elif spec == "f":
            out.append(f"{float(value):.6f}")
        elif spec == "x":
            out.append(f"{int(value):x}")
        elif spec == "s":
            out.append(render(value))
        else:
            raise BroRuntimeError(f"unknown fmt() spec %{spec}")
    return "".join(out)


def _set(*members) -> HiltiSet:
    out = HiltiSet()
    for member in members:
        out.insert(member)
    return out


def make_builtins(core) -> Dict[str, Callable]:
    """The builtin table; *core* supplies engine services (time, logs).

    *core* must expose ``network_time() -> Time`` and ``log_write(stream,
    record)``.
    """

    def _as_text(value) -> str:
        if isinstance(value, bytes):
            return value.decode("utf-8", "replace")
        return str(value)

    def builtin_sha1(value) -> str:
        data = value if isinstance(value, bytes) else _as_text(value).encode()
        return hashlib.sha1(data).hexdigest()

    def builtin_md5(value) -> str:
        data = value if isinstance(value, bytes) else _as_text(value).encode()
        return hashlib.md5(data).hexdigest()

    return {
        "fmt": bro_fmt,
        "cat": lambda *args: "".join(render(a) for a in args),
        "to_lower": lambda s: _as_text(s).lower(),
        "to_upper": lambda s: _as_text(s).upper(),
        "to_count": lambda s: int(_as_text(s) or 0),
        "sha1": builtin_sha1,
        "md5": builtin_md5,
        "network_time": lambda: core.network_time(),
        "schedule_event": lambda delay, name, args: core.schedule_event(
            delay, _as_text(name), list(args)
        ),
        "vector": lambda *items: HiltiVector(items=items),
        "set": _set,
        "table": HiltiMap,
        "__select": lambda cond, a, b: a if cond else b,
        "__tuple": lambda *items: tuple(items),
        "port_to_count": lambda p: p.number if isinstance(p, Port) else int(p),
        "addr_to_str": lambda a: str(a),
        "is_v4_addr": lambda a: isinstance(a, Addr) and a.is_v4,
        "double_to_time": lambda d: Time(float(d)),
        "time_to_double": lambda t: t.seconds if isinstance(t, Time) else float(t),
        "Log::write": lambda stream, record: core.log_write(
            _as_text(stream), record
        ),
        "log_write": lambda stream, record: core.log_write(
            _as_text(stream), record
        ),
    }
