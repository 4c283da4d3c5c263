"""The flow-trace line encoder against a reference encoder.

A traced flow keeps its packets as flat records and seals into its
``flows.jsonl`` line through one template per record shape
(``repro.runtime.telemetry._RootSpan.line``).  The reference is the
generic encoder, kept here only: ``json.dumps(root.to_dict(),
sort_keys=True)``.  Besides that, a flow built from records must encode
exactly as the same flow built from generic :class:`Span` children (the
per-packet span graph the records replaced).
"""

import json
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import telemetry
from repro.runtime.telemetry import NULL_SPAN, Tracer

#: Error text as a quarantine event carries it: quotes, a newline,
#: a backslash and non-ASCII.
_NASTY = 'bad "token" at\nline 2 \\ café ☃ \U0001f600'


def _reference(root) -> str:
    return json.dumps(root.to_dict(), sort_keys=True)


def _stepping_clock(monkeypatch, step=7_919):
    """A clock that advances by *step* ns a read, so every duration and
    offset is a distinct, deterministic number."""
    now = [1_000_000]

    def clock():
        now[0] += step
        return now[0]

    monkeypatch.setattr(time, "perf_counter_ns", clock)


def _frozen_clock(monkeypatch):
    monkeypatch.setattr(time, "perf_counter_ns", lambda: 5_000)


def _flow(tracer, **attrs):
    return tracer.start_span("flow", **(attrs or {
        "uid": "C00000001", "proto": "tcp", "resp_port": 80}))


# A packet as the tracker records it: (is_orig, len, parse bytes or -1,
# parse ns, packet events or None).
_PACKETS = [
    (True, 0, -1, 0, None),               # SYN: empty payload
    (False, 0, -1, 0, None),
    (True, 120, 120, 3_000, None),        # request, parsed
    (False, 1460, 1460, 9_000, None),     # reply, parsed
    (False, 1460, -1, 0, None),           # payload, no analyzer
    (True, 0, -1, 0, [(11, "reassembly_fault", {})]),
    (False, 64, 64, 0, [(3, "reassembly_fault", {"reason": _NASTY})]),
]


def _record_flow(tracer, packets=_PACKETS):
    flow = _flow(tracer)
    for is_orig, length, parse_bytes, parse_ns, events in packets:
        flow.packet(is_orig, length, time.perf_counter_ns(), parse_bytes,
                    parse_ns, events)
    return flow


def _untimed(packets):
    """*packets* with the times a stopped clock reads: every parse
    duration and event offset 0."""
    return [(is_orig, length, parse_bytes, 0,
             [(0, name, attrs) for __, name, attrs in events]
             if events else None)
            for is_orig, length, parse_bytes, __, events in packets]


def _span_flow(tracer, packets=_PACKETS):
    """The same flow as a graph of generic spans."""
    flow = _flow(tracer)
    for is_orig, length, parse_bytes, __, events in packets:
        packet = flow.child("packet", len=length, is_orig=is_orig)
        if parse_bytes >= 0:
            packet.child("parse", bytes=parse_bytes).finish()
        for __, name, attrs in events or ():
            packet.event(name, **attrs)
        packet.finish()
    return flow


class TestTemplateEncoder:
    def test_empty_and_parsed_packets(self, monkeypatch):
        _stepping_clock(monkeypatch)
        flow = _record_flow(Tracer(enabled=True), _PACKETS[:5])
        flow.event("close")
        flow.finish()
        assert flow.line() == _reference(flow)

    def test_events_with_hostile_text(self, monkeypatch):
        _stepping_clock(monkeypatch)
        tracer = Tracer(enabled=True)
        flow = _record_flow(tracer)
        flow.event("quarantine", error=_NASTY)
        flow.event("close")
        flow.finish()
        line = tracer.lines()[0]
        assert line == _reference(flow)
        assert line.isascii()
        doc = json.loads(line)
        assert doc["events"][0]["attrs"]["error"] == _NASTY
        assert doc["children"][6]["events"][0]["attrs"]["reason"] == _NASTY

    def test_child_still_open_at_seal(self, monkeypatch):
        _stepping_clock(monkeypatch)
        tracer = Tracer(enabled=True)
        flow = _record_flow(tracer, _PACKETS[:3])
        flow.child("packet", len=10, is_orig=True)  # never finished
        flow.packet(False, 0, time.perf_counter_ns())
        # Sealed by the emit, with the open child's duration up to now
        # (a stopped clock, so the reference reads the same now).
        monkeypatch.setattr(time, "perf_counter_ns", lambda: 10**9)
        line = tracer.lines()[0]
        assert line == _reference(flow)
        assert len(json.loads(line)["children"]) == 5

    def test_root_without_attrs_children_or_events(self, monkeypatch):
        _stepping_clock(monkeypatch)
        tracer = Tracer(enabled=True)
        flow = tracer.start_span("flow")
        flow.finish()
        assert tracer.lines() == [_reference(flow)]
        assert set(json.loads(tracer.lines()[0])) == {"duration_ns", "name"}

    def test_records_encode_as_the_span_graph(self, monkeypatch):
        _frozen_clock(monkeypatch)
        tracer = Tracer(enabled=True)
        for build in (_record_flow, _span_flow):
            flow = build(tracer, _untimed(_PACKETS))
            flow.event("quarantine", error=_NASTY)
            flow.event("close")
            flow.finish()
        records, spans = tracer.lines()
        assert records == spans

    def test_max_spans_hands_out_the_null_span(self, monkeypatch):
        _stepping_clock(monkeypatch)
        tracer = Tracer(enabled=True, max_spans=1)
        first = _record_flow(tracer)
        dropped = _flow(tracer)
        assert dropped is NULL_SPAN
        dropped.packet(True, 10, time.perf_counter_ns(), 10, 5)
        dropped.event("close")
        dropped.finish()
        first.finish()
        assert tracer.lines() == [_reference(first)]
        assert (tracer.spans_started, tracer.spans_dropped) == (1, 1)

    def test_one_template_per_shape(self):
        shapes = telemetry._SHAPES
        assert len(shapes) == 4
        for template, (is_orig, parsed) in shapes.items():
            numbers = (1, 2, 3, 4) if parsed else (1, 2)
            doc = json.loads(template % numbers)
            assert doc["attrs"] == {"is_orig": is_orig, "len": 1}
            assert ("children" in doc) == parsed
            assert json.dumps(doc, sort_keys=True) == template % numbers


_TEXT = st.text(max_size=12)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), _TEXT,
    st.floats(allow_nan=False, allow_infinity=False))
# Attribute names arrive as keyword arguments next to ``name``.
_ATTRS = st.dictionaries(
    st.text(min_size=1, max_size=6).filter(lambda key: key != "name"),
    _SCALARS, max_size=4)
_EVENTS = st.lists(st.tuples(st.integers(0, 10**12), _TEXT, _ATTRS),
                   max_size=3)
_PACKET = st.tuples(
    st.booleans(), st.integers(0, 65_535),
    st.one_of(st.just(-1), st.integers(0, 65_535)),
    st.integers(0, 10**12), st.one_of(st.none(), _EVENTS))


class TestEncoderProperty:
    @settings(max_examples=300, deadline=None)
    @given(_ATTRS, st.lists(_PACKET, max_size=8), _EVENTS,
           st.lists(st.tuples(_TEXT, _ATTRS), max_size=2))
    def test_line_is_the_reference_encoding(self, attrs, packets, events,
                                            children):
        tracer = Tracer(enabled=True)
        flow = tracer.start_span("flow", **attrs)
        for is_orig, length, parse_bytes, parse_ns, packet_events in \
                packets:
            flow.packet(is_orig, length, flow.start_ns, parse_bytes,
                        parse_ns, packet_events or None)
        for name, child_attrs in children:
            flow.child(name, **child_attrs).finish()
        for offset, name, event_attrs in events:
            flow.events.append((offset, name, event_attrs))
        flow.finish()
        assert tracer.lines() == [_reference(flow)]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_PACKET, max_size=8))
    def test_span_graph_equivalence(self, packets):
        tracer = Tracer(enabled=True)
        clock = time.perf_counter_ns
        time.perf_counter_ns = lambda: 5_000
        try:
            for build in (_record_flow, _span_flow):
                build(tracer, _untimed(packets)).finish()
        finally:
            time.perf_counter_ns = clock
        records, spans = tracer.lines()
        assert records == spans
