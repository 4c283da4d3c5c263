"""End-to-end telemetry: metrics registry, span tracer, report emitters.

The paper's evaluation rests on per-component CPU attribution (Figures 9
and 10 split Bro-pipeline time into parsing / script / glue / other) and
on compiler-inserted profiling sampled "at regular intervals" (section
3.3).  This module is the measurement substrate that makes those numbers
queryable and exportable instead of scattered across ad-hoc counters:

* a **metrics registry** of labeled series — monotonic :class:`Counter`,
  point-in-time :class:`Gauge`, and bucketed :class:`Histogram` — with a
  JSON-lines exporter;
* a lightweight **span tracer** (:class:`Tracer` / :class:`Span`) for
  per-flow span trees with attached point events, each packet one flat
  record on its flow, sealed into the flow's line through a template;
* a **reporting layer**: the human ``stats.log`` renderer, the
  ``prof.log`` writer (delegating to :class:`~.profiler.ProfilerRegistry`)
  and the Figures 9/10 **CPU-breakdown** report builder.  The schemas
  of the machine-readable formats are checked by
  ``python -m repro.tools.validate`` (:mod:`repro.tools.validate`).

Disabled-path cost is near zero by construction: hosts hold one
:class:`Telemetry` object and guard hot-path hooks on its ``enabled`` /
``tracer.enabled`` booleans; nothing allocates when telemetry is off,
and the null span/tracer singletons absorb stray calls.
"""

from __future__ import annotations

import json
import time
from collections import deque as _deque
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SchemaError",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "TimeSeriesStore",
    "Tracer",
    "NULL_TRACER",
    "Telemetry",
    "cpu_breakdown_report",
    "render_stats_log",
    "CPU_BREAKDOWN_SCHEMA",
    "METRICS_SCHEMA",
    "TIMESERIES_SCHEMA",
]

CPU_BREAKDOWN_SCHEMA = "bro-cpu-breakdown/1"
METRICS_SCHEMA = "repro-metrics/1"
TIMESERIES_SCHEMA = "repro-timeseries/1"


class SchemaError(ValueError):
    """Structurally incompatible telemetry data: merging registries
    whose series disagree on shape (histogram bucket bounds), or a
    report that does not match its declared schema."""

_COMPONENTS = ("parsing", "script", "glue", "other")


# --------------------------------------------------------------------------
# Metric series
# --------------------------------------------------------------------------


class _Series:
    """Common shape of one labeled series."""

    kind = "abstract"
    __slots__ = ("name", "labels", "help")

    def __init__(self, name: str, labels: Dict[str, str], help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help

    def as_dict(self) -> Dict:
        raise NotImplementedError

    def _base(self) -> Dict:
        out: Dict[str, object] = {"kind": self.kind, "name": self.name}
        if self.labels:
            out["labels"] = dict(self.labels)
        return out

    def __repr__(self) -> str:
        labels = ",".join(f"{k}={v}" for k, v in self.labels.items())
        return f"<{self.kind} {self.name}{{{labels}}}>"


class Counter(_Series):
    """A monotonically increasing count (packets seen, faults injected)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name, labels, help=""):
        super().__init__(name, labels, help)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def as_dict(self) -> Dict:
        out = self._base()
        out["value"] = self.value
        return out


class Gauge(_Series):
    """A point-in-time value (table occupancy, pending bytes)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, name, labels, help=""):
        super().__init__(name, labels, help)
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount

    def set_max(self, value) -> None:
        """Retain the high-water mark."""
        if value > self.value:
            self.value = value

    def as_dict(self) -> Dict:
        out = self._base()
        out["value"] = self.value
        return out


class Histogram(_Series):
    """Bucketed observations (per-packet latency, payload sizes)."""

    kind = "histogram"
    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    #: Generic latency-ish default buckets (values are unit-free).
    DEFAULT_BOUNDS = (
        1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000,
    )

    def __init__(self, name, labels, help="", bounds=None):
        super().__init__(name, labels, help)
        self.bounds: Tuple = tuple(bounds) if bounds else self.DEFAULT_BOUNDS
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.sum = 0
        self.count = 0

    def observe(self, value) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1  # +Inf bucket

    def as_dict(self) -> Dict:
        out = self._base()
        buckets = {str(b): c for b, c in zip(self.bounds, self.bucket_counts)}
        buckets["+Inf"] = self.bucket_counts[-1]
        out["buckets"] = buckets
        out["sum"] = self.sum
        out["count"] = self.count
        return out


class MetricsRegistry:
    """Process- or host-app-wide registry of labeled metric series.

    Series are addressed by ``(name, labels)``; repeated calls with the
    same address return the same series object, so hot paths can resolve
    once and hold the series.
    """

    __slots__ = ("_series",)

    def __init__(self):
        self._series: Dict[Tuple, _Series] = {}

    def _get(self, cls, name: str, labels: Dict[str, str], help: str,
             **kwargs) -> _Series:
        # Label values arrive as whatever the caller had in hand (lane
        # indexes as ints, worker ids as strs).  Coercing to str here
        # keeps the registry's sort keys homogeneous — a mixed-type
        # label value would make ``sorted(self._series)`` raise and the
        # merged multi-worker emit order nondeterministic.
        labels = {str(k): str(v) for k, v in labels.items()}
        key = (name, tuple(sorted(labels.items())))
        series = self._series.get(key)
        if series is None:
            series = cls(name, labels, help=help, **kwargs)
            self._series[key] = series
        elif not isinstance(series, cls):
            raise ValueError(
                f"metric {name!r} already registered as {series.kind}"
            )
        return series

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get(Counter, name, labels, help)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get(Gauge, name, labels, help)

    def histogram(self, name: str, help: str = "", bounds=None,
                  **labels) -> Histogram:
        return self._get(Histogram, name, labels, help, bounds=bounds)

    def all_series(self) -> List[_Series]:
        return [self._series[key] for key in sorted(self._series)]

    def collect(self) -> List[Dict]:
        """Every series as a plain dict, sorted by (name, labels)."""
        return [series.as_dict() for series in self.all_series()]

    def emit_jsonl(self, stream, meta: Optional[Dict] = None) -> int:
        """Write the registry as JSON-lines; returns lines written.

        The first line is a header record carrying the schema version
        (plus caller-supplied *meta*); each following line is one series.
        """
        header = {"schema": METRICS_SCHEMA, "ts": time.time()}
        if meta:
            header.update(meta)
        stream.write(json.dumps(header, sort_keys=True) + "\n")
        lines = 1
        for series in self.all_series():
            stream.write(json.dumps(series.as_dict(), sort_keys=True) + "\n")
            lines += 1
        return lines

    def merge_series(self, series_dicts: Iterable[Dict],
                     gauge_merge: Optional[Dict[str, str]] = None,
                     extra_labels: Optional[Dict[str, str]] = None) -> int:
        """Fold ``collect()``-shaped series dicts into this registry.

        The reduction step of the flow-parallel pipeline: each worker
        (thread lane or subprocess) collects into its own registry, and
        the driver merges them at join (``docs/PARALLELISM.md``).
        Counters and histograms are additive; gauges sum by default, or
        take the maximum for names mapped to ``"max"`` in *gauge_merge*
        (high-water marks like peak occupancy).  *extra_labels* are
        stamped onto every merged series — the per-worker attribution
        labels (``worker=N``) of the cross-process telemetry plane.
        Histograms whose bucket bounds disagree with an already
        registered series raise :class:`SchemaError` — a silent merge
        would misalign every bucket.  Returns the number of series
        merged.
        """
        gauge_merge = gauge_merge or {}
        merged = 0
        for entry in series_dicts:
            kind = entry["kind"]
            name = entry["name"]
            labels = dict(entry.get("labels", {}))
            if extra_labels:
                labels.update(extra_labels)
            if kind == "counter":
                self.counter(name, **labels).inc(entry["value"])
            elif kind == "gauge":
                gauge = self.gauge(name, **labels)
                if gauge_merge.get(name) == "max":
                    gauge.set_max(entry["value"])
                else:
                    gauge.inc(entry["value"])
            elif kind == "histogram":
                buckets = entry["buckets"]
                bounds = tuple(
                    int(b) if float(b).is_integer() else float(b)
                    for b in buckets if b != "+Inf"
                )
                histogram = self.histogram(name, bounds=bounds, **labels)
                if tuple(histogram.bounds) != bounds:
                    raise SchemaError(
                        f"histogram {name!r}: bucket bounds "
                        f"{bounds} differ from registered bounds "
                        f"{tuple(histogram.bounds)} — refusing to "
                        "misalign buckets"
                    )
                for index, bound in enumerate(histogram.bounds):
                    histogram.bucket_counts[index] += buckets[str(bound)]
                histogram.bucket_counts[-1] += buckets["+Inf"]
                histogram.sum += entry["sum"]
                histogram.count += entry["count"]
            else:
                raise ValueError(f"unknown series kind {kind!r}")
            merged += 1
        return merged


# --------------------------------------------------------------------------
# Time-series history (the service's /metrics/history surface)
# --------------------------------------------------------------------------


class TimeSeriesStore:
    """A bounded ring of periodic registry snapshots with deltas.

    One point-in-time ``/metrics`` dump answers "what is the value now";
    operating a long-running service needs "what happened over the last
    minute".  The service's aggregator tick feeds each registry
    ``collect()`` here; every stored sample carries, per cumulative
    series (counters and histogram counts), the delta against the
    previous sample, so consumers (``servicetop``, the
    ``/metrics/history`` endpoint) get rates without re-diffing.

    The ring is bounded by *max_samples* (600 one-second ticks = ten
    minutes of history) so a service that runs for weeks holds a flat
    amount of telemetry memory.
    """

    def __init__(self, max_samples: int = 600):
        if max_samples < 1:
            raise ValueError(
                f"max_samples must be >= 1, got {max_samples!r}")
        self.max_samples = max_samples
        self._samples: "deque" = _deque(maxlen=max_samples)
        self._last: Dict[Tuple, float] = {}

    def __len__(self) -> int:
        return len(self._samples)

    @staticmethod
    def _key(entry: Dict) -> Tuple:
        return (entry["name"],
                tuple(sorted(entry.get("labels", {}).items())))

    def sample(self, ts: float, series_dicts: Iterable[Dict]) -> Dict:
        """Record one snapshot; returns the stored sample record."""
        last = self._last
        current: Dict[Tuple, float] = {}
        series: List[Dict] = []
        for entry in series_dicts:
            entry = dict(entry)
            key = self._key(entry)
            cumulative = (entry["count"] if entry["kind"] == "histogram"
                          else entry["value"])
            if entry["kind"] in ("counter", "histogram"):
                entry["delta"] = cumulative - last.get(key, 0)
            current[key] = cumulative
            series.append(entry)
        self._last = current
        record = {"ts": ts, "series": series}
        self._samples.append(record)
        return record

    def history(self, window: Optional[float] = None,
                now: Optional[float] = None) -> List[Dict]:
        """The stored samples, newest-last; *window* (seconds) keeps
        only samples at or after ``now - window`` (*now* defaults to
        the newest sample's timestamp)."""
        samples = list(self._samples)
        if window is None or not samples:
            return samples
        if now is None:
            now = samples[-1]["ts"]
        horizon = now - window
        return [record for record in samples if record["ts"] >= horizon]

    def emit_jsonl(self, stream, meta: Optional[Dict] = None) -> int:
        """Write the ring as schema-tagged JSON lines (header first);
        returns lines written."""
        header = {"schema": TIMESERIES_SCHEMA, "ts": time.time(),
                  "samples": len(self._samples)}
        if meta:
            header.update(meta)
        stream.write(json.dumps(header, sort_keys=True) + "\n")
        lines = 1
        for record in self._samples:
            stream.write(json.dumps(record, sort_keys=True) + "\n")
            lines += 1
        return lines


# --------------------------------------------------------------------------
# Span tracer
# --------------------------------------------------------------------------


class Span:
    """One timed region with attributes, point events, and child spans."""

    __slots__ = ("name", "attrs", "start_ns", "end_ns", "children", "events")

    def __init__(self, name: str, attrs: Optional[Dict] = None):
        self.name = name
        self.attrs = attrs or {}
        self.start_ns = time.perf_counter_ns()
        self.end_ns: Optional[int] = None
        self.children: List["Span"] = []
        self.events: List[Tuple[int, str, Dict]] = []

    def child(self, name: str, **attrs) -> "Span":
        span = Span(name, attrs)
        self.children.append(span)
        return span

    def event(self, name: str, **attrs) -> None:
        self.events.append(
            (time.perf_counter_ns() - self.start_ns, name, attrs)
        )

    def finish(self) -> None:
        if self.end_ns is None:
            self.end_ns = time.perf_counter_ns()

    @property
    def duration_ns(self) -> int:
        end = self.end_ns if self.end_ns is not None \
            else time.perf_counter_ns()
        return end - self.start_ns

    def to_dict(self) -> Dict:
        out: Dict[str, object] = {
            "name": self.name,
            "duration_ns": self.duration_ns,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.events:
            out["events"] = [
                {"offset_ns": offset, "name": name,
                 **({"attrs": attrs} if attrs else {})}
                for offset, name, attrs in self.events
            ]
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:
        return f"<Span {self.name} {self.duration_ns / 1e6:.3f} ms>"


class NullSpan:
    """No-op span: absorbs tracing calls when the tracer is disabled."""

    __slots__ = ()
    name = "<null>"
    attrs: Dict = {}
    children: Tuple = ()
    events: Tuple = ()
    duration_ns = 0

    def child(self, name: str, **attrs) -> "NullSpan":
        return self

    def event(self, name: str, **attrs) -> None:
        pass

    def packet(self, is_orig, length, start_ns, parse_bytes=-1,
               parse_ns=0, events=None) -> None:
        pass

    def finish(self) -> None:
        pass

    def to_dict(self) -> Dict:
        return {"name": self.name, "duration_ns": 0}


NULL_SPAN = NullSpan()

# A packet of a traced flow is not a Span but one flat record on its
# root: a template — the packet's ``flows.jsonl`` text, i.e.
# ``json.dumps(..., sort_keys=True)`` of its ``to_dict``, with the
# numbers left open, one per (is_orig, parsed) shape — and the numbers
# appended to one flat list: ``len, duration_ns``, or ``len, bytes,
# parse_ns, duration_ns`` when its payload went to the parser (the
# ``parse`` child).  Sealing a flow is then one ``join`` and one ``%``.
_PACKET = tuple(
    '{"attrs": {"is_orig": %s, "len": %%d}, "duration_ns": %%d, '
    '"name": "packet"}' % flag for flag in ("false", "true"))
_PARSED = tuple(
    '{"attrs": {"is_orig": %s, "len": %%d}, "children": [{"attrs": '
    '{"bytes": %%d}, "duration_ns": %%d, "name": "parse"}], '
    '"duration_ns": %%d, "name": "packet"}' % flag
    for flag in ("false", "true"))
#: The template of a generic child span; its value is the Span.
_GENERIC = "%s"
_SHAPES = {template: (bool(is_orig), parsed)
           for parsed, templates in ((False, _PACKET), (True, _PARSED))
           for is_orig, template in enumerate(templates)}

_sorted_json = json.JSONEncoder(sort_keys=True).encode


def _event_json(event: Tuple[int, str, Dict]) -> str:
    offset, name, attrs = event
    doc = {"name": name, "offset_ns": offset}
    if attrs:
        doc["attrs"] = attrs
    return _sorted_json(doc)


class _RootSpan(Span):
    """A tracer's root span: a flow.  Its packets are flat records
    (:meth:`packet`) and other children generic spans, kept in order
    as templates plus one list of their values.  Finishing the root
    seals the tree: the tracer's slot for the root takes the tree's
    ``flows.jsonl`` line in place of the root, so from then on the tree
    lives only as long as its host holds the root (the connection
    tracker lets go when the flow closes).  Spans added to a sealed
    tree are not in its line."""

    __slots__ = ("_shapes", "_values", "_spans", "_slots", "_index",
                 "__weakref__")

    def __init__(self, name: str, attrs: Dict, slots: List):
        super().__init__(name, attrs)
        self.children = ()  # see _shapes
        self._shapes: List[str] = []
        self._values: List = []
        self._spans = 0
        self._slots = slots
        self._index = len(slots)
        slots.append(self)

    def child(self, name: str, **attrs) -> Span:
        return self._add(Span(name, attrs))

    def _add(self, span: Span) -> Span:
        self._shapes.append(_GENERIC)
        self._values.append(span)
        self._spans += 1
        return span

    def packet(self, is_orig: bool, length: int, start_ns: int,
               parse_bytes: int = -1, parse_ns: int = 0,
               events: Optional[List[Tuple[int, str, Dict]]] = None,
               ) -> None:
        """Record one packet of the flow, from *start_ns* to now: the
        ``packet`` child with its ``len``/``is_orig`` attributes and,
        when *parse_bytes* >= 0, a ``parse`` child of that many bytes
        lasting *parse_ns*.  A packet with point *events* (``(offset_ns,
        name, attrs)``, as :attr:`Span.events`) is rare and is kept as
        a :class:`Span`."""
        end = time.perf_counter_ns()
        if events is None:
            if parse_bytes < 0:
                self._shapes.append(_PACKET[is_orig])
                self._values += (length, end - start_ns)
            else:
                self._shapes.append(_PARSED[is_orig])
                self._values += (length, parse_bytes, parse_ns,
                                 end - start_ns)
            return
        span = Span("packet", {"len": length, "is_orig": is_orig})
        span.start_ns, span.end_ns, span.events = start_ns, end, events
        if parse_bytes >= 0:
            parse = span.child("parse", bytes=parse_bytes)
            parse.start_ns, parse.end_ns = 0, parse_ns
        self._add(span)

    def to_dict(self) -> Dict:
        out = super().to_dict()
        if self._shapes:
            values = iter(self._values)
            children = out["children"] = []
            for shape in self._shapes:
                if shape == _GENERIC:
                    children.append(next(values).to_dict())
                    continue
                is_orig, parsed = _SHAPES[shape]
                attrs = {"len": next(values), "is_orig": is_orig}
                doc = {"name": "packet", "attrs": attrs}
                if parsed:
                    doc["children"] = [{"name": "parse",
                                        "attrs": {"bytes": next(values)},
                                        "duration_ns": next(values)}]
                doc["duration_ns"] = next(values)
                children.append(doc)
        return out

    def finish(self) -> None:
        if self.end_ns is None:
            self.end_ns = time.perf_counter_ns()
            self._slots[self._index] = self.line()

    def line(self) -> str:
        """The tree's ``flows.jsonl`` line: the bytes of
        ``json.dumps(self.to_dict(), sort_keys=True)``, with the packet
        records filled into their templates in one ``%`` and only
        attrs, events and generic child spans through the encoder."""
        parts = []
        if self.attrs:
            parts.append('"attrs": ' + _sorted_json(self.attrs))
        if self._shapes:
            values = self._values
            if self._spans:
                values = [_sorted_json(value.to_dict())
                          if value.__class__ is Span else value
                          for value in values]
            parts.append('"children": ['
                         + ", ".join(self._shapes) % tuple(values) + "]")
        parts.append('"duration_ns": %d' % self.duration_ns)
        if self.events:
            parts.append('"events": ['
                         + ", ".join(map(_event_json, self.events)) + "]")
        parts.append('"name": ' + _sorted_json(self.name))
        return "{" + ", ".join(parts) + "}"


class Tracer:
    """Root-span factory whose memory follows the open roots.

    Hosts check :attr:`enabled` before touching the tracer on hot paths;
    when disabled (or when the *max_spans* bound is hit) ``start_span``
    hands back the shared :data:`NULL_SPAN` so callers never branch on
    None.  The tracer keeps one slot per started root, in start order:
    the root while it is open, its encoded line once it finishes.
    *max_spans* bounds the number of roots, not bytes; ``spans_dropped``
    makes the bound visible instead of silently truncating a trace.
    """

    __slots__ = ("enabled", "_slots", "max_spans", "spans_started",
                 "spans_dropped")

    def __init__(self, enabled: bool = False, max_spans: int = 100_000):
        self.enabled = enabled
        self._slots: List = []
        self.max_spans = max_spans
        self.spans_started = 0
        self.spans_dropped = 0

    def start_span(self, name: str, **attrs):
        if not self.enabled:
            return NULL_SPAN
        if self.spans_started >= self.max_spans:
            self.spans_dropped += 1
            return NULL_SPAN
        self.spans_started += 1
        return _RootSpan(name, attrs, self._slots)

    def lines(self) -> List[str]:
        """One JSON line per root span tree, in start order.  A root
        still open is sealed here (its duration ends now), so asking
        twice gives the same lines."""
        slots = self._slots
        for slot in slots:
            if not isinstance(slot, str):
                slot.finish()
        return list(slots)

    def emit_jsonl(self, stream) -> int:
        """One root span tree per line; returns lines written."""
        lines = self.lines()
        for line in lines:
            stream.write(line + "\n")
        return len(lines)


NULL_TRACER = Tracer(enabled=False)


# --------------------------------------------------------------------------
# The telemetry handle hosts carry around
# --------------------------------------------------------------------------


class Telemetry:
    """One host application's telemetry switchboard.

    ``enabled`` gates metrics collection; ``tracer.enabled`` gates span
    recording independently (``--trace-flows`` without ``--metrics`` is
    legal).  The default-constructed object is fully off and costs one
    attribute read per guarded hook.
    """

    __slots__ = ("enabled", "metrics", "tracer")

    def __init__(self, metrics: bool = False, trace: bool = False,
                 max_spans: int = 100_000):
        self.enabled = metrics
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(enabled=trace, max_spans=max_spans)

    @property
    def any_enabled(self) -> bool:
        return self.enabled or self.tracer.enabled


#: Shared disabled instance for hosts that were not handed one.
NULL_TELEMETRY = Telemetry()


# --------------------------------------------------------------------------
# CPU-breakdown report (Figures 9–10)
# --------------------------------------------------------------------------


def _shares(ns_by_component: Dict[str, int]) -> Dict[str, float]:
    """Percentage shares rounded to 2 decimals that sum to exactly 100."""
    total = sum(ns_by_component.values())
    if total <= 0:
        raise ValueError("cannot compute shares of a zero total")
    shares = {
        name: round(ns * 100.0 / total, 2)
        for name, ns in ns_by_component.items()
    }
    # Absorb the rounding residue into the largest component so the
    # shares sum to exactly 100.00 (the validator holds us to it).
    residue = round(100.0 - sum(shares.values()), 2)
    if residue:
        largest = max(shares, key=lambda name: ns_by_component[name])
        shares[largest] = round(shares[largest] + residue, 2)
    return shares


def cpu_breakdown_report(stats: Dict, config: Optional[Dict] = None) -> Dict:
    """Build the machine-readable Figures 9/10 report from ``Bro.stats``.

    *stats* is the dict ``Bro.run`` returns (``total_ns``,
    ``parsing_ns``, ``script_ns``, ``glue_ns``, ``other_ns``,
    ``packets``, ``events``); *config* records the run configuration
    (parser tier, script engine, trace identity) for reproducibility.
    """
    ns = {name: int(stats[f"{name}_ns"]) for name in _COMPONENTS}
    total_ns = int(stats["total_ns"])
    shares = _shares(ns)
    components = {
        name: {"ns": ns[name], "share": shares[name]}
        for name in _COMPONENTS
    }
    ranking = sorted(_COMPONENTS, key=lambda name: ns[name], reverse=True)
    report = {
        "schema": CPU_BREAKDOWN_SCHEMA,
        "total_ns": total_ns,
        "components": components,
        "ranking": ranking,
        "packets": int(stats.get("packets", 0)),
        "events": int(stats.get("events", 0)),
    }
    if config:
        report["config"] = dict(config)
    return report


# --------------------------------------------------------------------------
# Human stats.log rendering
# --------------------------------------------------------------------------


def render_stats_log(stats: Dict, sections: Optional[Dict[str, Dict]] = None,
                     ) -> str:
    """The human-readable run summary (``stats.log``).

    *stats* is ``Bro.stats``; *sections* adds named key/value blocks
    (health, engine counters, occupancy...) below the breakdown.
    """
    out: List[str] = []
    total = max(1, int(stats.get("total_ns", 0)))
    out.append("# stats.log — one pipeline run")
    out.append(f"total_ms {total / 1e6:.3f}")
    for name in _COMPONENTS:
        ns = int(stats.get(f"{name}_ns", 0))
        out.append(
            f"{name:>8} {ns / 1e6:12.3f} ms  {ns * 100.0 / total:6.2f}%"
        )
    for key in ("packets", "events", "parser_tier", "script_tier"):
        if key in stats:
            out.append(f"{key} {stats[key]}")
    for title, entries in (sections or {}).items():
        out.append("")
        out.append(f"[{title}]")
        for key in sorted(entries):
            out.append(f"{key} {entries[key]}")
    return "\n".join(out) + "\n"
