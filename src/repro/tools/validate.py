"""Schema validation for every machine-readable artifact a run writes.

One declarative table, :data:`SCHEMAS`, gives each format's header,
record fields, field types and domains, and cross-field rules as small
named checks: the CPU breakdown and the service's discovery document
(one JSON document each), metrics, timeseries and flow records (a
header line, then one object per line).
One function, :func:`validate`, applies any entry::

    python -m repro.tools.validate logs/metrics.jsonl
    python -m repro.tools.validate logs/cpu_breakdown.json --require-nonzero
    python -m repro.tools.validate logs/flow_records.jsonl --min 100

The CLI reads the schema tag from the file itself and exits 1 on any
violation (the CI gate).  Nothing on a run's path imports this module.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

from ..host.service import SERVICE_SCHEMA
from ..net.flowrecord import CLOSE_REASONS, FLOWRECORDS_SCHEMA
from ..runtime.telemetry import (
    CPU_BREAKDOWN_SCHEMA,
    METRICS_SCHEMA,
    TIMESERIES_SCHEMA,
)

__all__ = ["SCHEMAS", "Schema", "main", "validate", "validate_file"]


def _is_number(value) -> bool:
    """The one numeric type rule: JSON ``true``/``false`` are not
    numbers, whatever Python's ``bool`` subclassing says."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return _is_number(value) and isinstance(value, int)


def _child(where: str, name: str) -> str:
    return f"{where}.{name}" if ": " in where else f"{where}: {name}"


class Rule:
    """A scalar field: a predicate and what a violation says."""

    def __init__(self, ok: Callable[[object], bool], says: str):
        self.ok = ok
        self.says = says

    def errors(self, value, where: str) -> List[str]:
        if self.ok(value):
            return []
        return [f"{where} {self.says}, got {value!r}"]


def Int(hi: int) -> Rule:
    """An integer in ``[0, hi]``."""
    return Rule(lambda v: _is_int(v) and 0 <= v <= hi,
                f"out of range [0, {hi}]")


def Const(value) -> Rule:
    return Rule(lambda v: v == value, f"must be {value!r}")


NAT = Rule(lambda v: _is_int(v) and v >= 0, "must be a non-negative int")
NUMBER = Rule(_is_number, "must be a number")
NONNEG_NUMBER = Rule(lambda v: _is_number(v) and v >= 0,
                     "must be a non-negative number")
PERCENT = Rule(lambda v: _is_number(v) and 0 <= v <= 100,
               "must be a percentage in [0, 100]")
NAME = Rule(lambda v: isinstance(v, str) and v != "",
            "must be a non-empty string")
OBJECT = Rule(lambda v: isinstance(v, dict), "must be an object")
LABELS = Rule(lambda v: isinstance(v, dict) and all(
    isinstance(key, str) and isinstance(label, str)
    for key, label in v.items()), "must map str -> str")


class ListOf:
    """A JSON list whose every element matches *element*."""

    def __init__(self, element):
        self.element = element

    def errors(self, value, where: str) -> List[str]:
        if not isinstance(value, list):
            return [f"{where} must be a list, got {value!r}"]
        errors: List[str] = []
        for index, item in enumerate(value):
            errors.extend(self.element.errors(item, f"{where}[{index}]"))
        return errors


class Obj:
    """A JSON object: *fields* are required, *optional* may be absent,
    a *closed* object allows no others.  With *tag* (a series' kind),
    the value of that (required) field picks one of *variants* — a map
    to further required fields.  *checks* are cross-field rules, each
    returning a problem or None; they run only on an object whose
    fields all passed."""

    def __init__(self, fields: Dict, optional: Optional[Dict] = None,
                 closed: bool = False, tag: Optional[str] = None,
                 variants: Optional[Dict[str, Dict]] = None, checks=()):
        self.fields = fields
        self.optional = optional or {}
        self.closed = closed
        self.tag = tag
        self.variants = variants or {}
        self.checks = checks

    def errors(self, value, where: str) -> List[str]:
        if not isinstance(value, dict):
            return [f"{where} is not an object"]
        errors: List[str] = []
        fields = dict(self.fields)
        if self.tag is not None:
            fields[self.tag] = None
            kind = value.get(self.tag)
            if isinstance(kind, str) and kind in self.variants:
                fields.update(self.variants[kind])
            elif self.tag in value:
                errors.append(f"{where}: unknown series {self.tag} {kind!r}")
        missing = [name for name in fields if name not in value]
        if missing:
            errors.append(f"{where}: missing fields {missing}")
        if self.closed:
            unknown = [name for name in value
                       if name not in fields and name not in self.optional]
            if unknown:
                errors.append(f"{where}: unknown fields {unknown}")
        for name, rule in list(fields.items()) + list(self.optional.items()):
            if rule is not None and name in value:
                errors.extend(rule.errors(value[name], _child(where, name)))
        if not errors:
            for check in self.checks:
                problem = check(value)
                if problem:
                    errors.append(f"{where}: {problem}")
        return errors


_COMPONENTS = ("parsing", "script", "glue", "other")


def shares_sum_to_100(doc: Dict) -> Optional[str]:
    total = sum(entry["share"] for entry in doc["components"].values())
    if abs(total - 100.0) > 0.01:
        return f"shares sum to {total:.2f}, expected 100.00"
    return None


def first_ts_not_after_last_ts(record: Dict) -> Optional[str]:
    return "first_ts > last_ts" if record["first_ts"] > record["last_ts"] \
        else None


def ts_never_decreases(header: Dict, body: List) -> List[str]:
    errors: List[str] = []
    last = None
    for where, __, doc in body:
        ts = doc.get("ts") if isinstance(doc, dict) else None
        if _is_number(ts):
            if last is not None and ts < last:
                errors.append(f"{where}: ts {ts} goes backwards "
                              f"(previous {last})")
            last = ts
    return errors


def record_count_matches(header: Dict, body: List) -> List[str]:
    declared = header.get("records")
    if NAT.ok(declared) and declared != len(body):
        return [f"header declares {declared} records, body has {len(body)}"]
    return []


def body_sorted(header: Dict, body: List) -> List[str]:
    lines = [line for __, line, __ in body]
    return [] if lines == sorted(lines) else [
        "body: record lines are not sorted"]


def drained_carries_final_fields(doc: Dict) -> Optional[str]:
    missing = [name for name in ("exit_code", "stop_reason", "totals",
                                 "sessions", "artifacts")
               if name not in doc]
    if doc["state"] == "drained" and missing:
        return f"a drained service lacks {missing}"
    return None


def packets_conserved(doc: Dict) -> Optional[str]:
    totals = doc.get("totals")
    if totals is None:
        return None
    accounted = (totals["packets_processed"] + totals["packets_shed"]
                 + totals["packets_lost"] + totals["packets_dropped"])
    if totals["packets_ingested"] != accounted:
        return (f"totals ingested {totals['packets_ingested']} packets, "
                f"accounted for {accounted}")
    return None


def every_share_nonzero(doc: Dict) -> List[str]:
    return [f"components.{name}.share is zero" for name in _COMPONENTS
            if doc["components"][name]["share"] <= 0]


class Schema(NamedTuple):
    """One artifact format: JSON lines, a *header* line then one
    *record* per line, or — without *record* — one JSON document, the
    *header*.  *checks* see the whole file: ``check(header, body) ->
    [problem]`` with *body* a list of ``(where, line, parsed)``."""

    header: Obj
    record: Optional[Obj] = None
    checks: tuple = ()


def _series(cumulative: Dict) -> Obj:
    """A ``MetricsRegistry.collect()`` entry; *cumulative* adds fields
    to counters and histograms (a timeseries sample's ``delta``)."""
    return Obj(
        {"name": NAME}, optional={"labels": LABELS},
        tag="kind", variants={
            "counter": {"value": NONNEG_NUMBER, **cumulative},
            "gauge": {"value": NUMBER},
            "histogram": {"buckets": OBJECT, "count": NAT, **cumulative},
        })


SCHEMAS: Dict[str, Schema] = {
    CPU_BREAKDOWN_SCHEMA: Schema(
        header=Obj(
            {"schema": Const(CPU_BREAKDOWN_SCHEMA),
             "total_ns": Rule(lambda v: _is_int(v) and v > 0,
                              "must be a positive int"),
             "components": Obj(
                 dict.fromkeys(_COMPONENTS, Obj(
                     {"ns": NAT, "share": PERCENT})),
                 closed=True)},
            optional={
                "ranking": Rule(
                    lambda v: isinstance(v, list)
                    and all(isinstance(name, str) for name in v)
                    and sorted(v) == sorted(_COMPONENTS),
                    f"must permute {list(_COMPONENTS)}"),
                "packets": NAT,
                "events": NAT,
            },
            checks=(shares_sum_to_100,))),
    SERVICE_SCHEMA: Schema(
        header=Obj(
            {"schema": Const(SERVICE_SCHEMA),
             "pid": Rule(lambda v: _is_int(v) and v > 0,
                         "must be a positive int"),
             "state": Rule(lambda v: v in ("running", "drained"),
                           "must be 'running' or 'drained'"),
             "started_ts": NUMBER,
             "http": Rule(lambda v: v is None or (
                 isinstance(v, dict) and NAME.ok(v.get("host"))
                 and Int(0xFFFF).ok(v.get("port"))),
                 "must be null or {host, port}"),
             "config": OBJECT},
            optional={
                "exit_code": Rule(_is_int, "must be an int"),
                "stop_reason": Rule(lambda v: v is None or NAME.ok(v),
                                    "must be null or a non-empty string"),
                "totals": Obj(dict.fromkeys(
                    ("packets_ingested", "packets_processed",
                     "packets_shed", "packets_lost", "packets_dropped",
                     "packets_dropped_on_stop", "packets_dropped_failed",
                     "lane_crashes", "lane_restarts"), NAT)),
                "sessions": Obj(dict.fromkeys(
                    ("open", "evicted", "expired"), NAT)),
                "artifacts": ListOf(NAME),
            },
            closed=True,
            checks=(drained_carries_final_fields, packets_conserved))),
    METRICS_SCHEMA: Schema(
        header=Obj({"schema": Const(METRICS_SCHEMA)}),
        record=_series({})),
    TIMESERIES_SCHEMA: Schema(
        header=Obj({"schema": Const(TIMESERIES_SCHEMA)}),
        record=Obj({"ts": NUMBER,
                    "series": ListOf(_series({"delta": NUMBER}))}),
        checks=(ts_never_decreases,)),
    FLOWRECORDS_SCHEMA: Schema(
        header=Obj({"schema": Const(FLOWRECORDS_SCHEMA),
                    "app": NAME, "records": NAT}),
        record=Obj(
            {"src": NAME, "dst": NAME,
             "src_port": Int(0xFFFF), "dst_port": Int(0xFFFF),
             "protocol": Int(0xFF),
             "uid": Rule(lambda v: v is None or NAME.ok(v),
                         "must be null or a non-empty string"),
             "first_ts": NUMBER, "last_ts": NUMBER,
             "orig_pkts": NAT, "orig_bytes": NAT,
             "resp_pkts": NAT, "resp_bytes": NAT,
             "tcp_flags": Int(0xFF),
             "close_reason": Rule(lambda v: v in CLOSE_REASONS,
                                  f"must be one of {list(CLOSE_REASONS)}")},
            closed=True, checks=(first_ts_not_after_last_ts,)),
        checks=(record_count_matches, body_sorted)),
}


# What a line that is not JSON parses as: reported once, checked no
# further.  (None would be the JSON literal ``null``, which is checked.)
_UNPARSED = object()


def _split(lines: Iterable[str], errors: List[str]):
    """A JSON-lines file's header and its body rows ``(where, line,
    parsed)``; blank lines are skipped."""
    rows = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        where = f"line {number}"
        try:
            doc = json.loads(line)
        except ValueError as exc:
            errors.append(f"{where}: not JSON ({exc})")
            doc = _UNPARSED
        rows.append((where, line, doc))
    if not rows:
        return _UNPARSED, []
    return rows[0][2], rows[1:]


def validate(schema: str, data, min_count: int = 0,
             require_nonzero: bool = False) -> List[str]:
    """The problems found checking *data* — a parsed document, or an
    iterable of JSON-lines text lines — against the format tagged
    *schema*.  *min_count* demands that many body records at least;
    *require_nonzero* a CPU breakdown whose every share is above zero."""
    entry = SCHEMAS[schema]
    errors: List[str] = []
    if entry.record is None:
        header, body = data, []
        errors.extend(entry.header.errors(header, "document"))
    else:
        header, body = _split(data, errors)
        if header is _UNPARSED and not body:
            return errors or ["no header line"]
        if header is not _UNPARSED:
            errors.extend(entry.header.errors(header, "header"))
        for where, __, doc in body:
            if doc is not _UNPARSED:
                errors.extend(entry.record.errors(doc, where))
    if not isinstance(header, dict):
        return errors
    for check in entry.checks:
        errors.extend(check(header, body))
    if errors:
        return errors
    if len(body) < min_count:
        errors.append(f"only {len(body)} records, expected at least "
                      f"{min_count}")
    if require_nonzero:
        if schema != CPU_BREAKDOWN_SCHEMA:
            errors.append(f"{schema} has no nonzero rule")
        else:
            errors.extend(every_share_nonzero(header))
    return errors


def validate_file(path: str, min_count: int = 0,
                  require_nonzero: bool = False) -> List[str]:
    """:func:`validate` a file by the schema tag it carries: a JSON
    document's, else its header line's."""
    with open(path) as stream:
        text = stream.read()
    for candidate in (text, text.lstrip().partition("\n")[0]):
        try:
            doc = json.loads(candidate)
        except ValueError:
            continue
        tag = doc.get("schema") if isinstance(doc, dict) else None
        if not isinstance(tag, str) or tag not in SCHEMAS:
            continue
        if SCHEMAS[tag].record is not None:
            return validate(tag, text.splitlines(), min_count,
                            require_nonzero)
        if candidate != text:
            return ["not JSON (a document followed by more lines)"]
        return validate(tag, doc, min_count, require_nonzero)
    return [f"no known schema tag (expected one of {sorted(SCHEMAS)})"]


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.validate",
        description="check a report against the schema it declares "
                    f"({', '.join(sorted(SCHEMAS))})")
    parser.add_argument("path")
    parser.add_argument("--min", type=int, default=0, metavar="N",
                        help="require at least N body records")
    parser.add_argument("--require-nonzero", action="store_true",
                        help="require every CPU-breakdown share to be > 0")
    args = parser.parse_args(argv)
    errors = validate_file(args.path, args.min, args.require_nonzero)
    for error in errors:
        print(f"{args.path}: {error}")
    if errors:
        return 1
    print(f"{args.path}: ok")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
