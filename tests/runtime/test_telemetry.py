"""The telemetry substrate: metrics registry, span tracer, reports."""

import gc
import io
import json
import time
import weakref

import pytest

from repro.runtime.telemetry import (
    CPU_BREAKDOWN_SCHEMA,
    METRICS_SCHEMA,
    TIMESERIES_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MERGE_RULES,
    MetricsRegistry,
    NULL_SPAN,
    NULL_TELEMETRY,
    SchemaError,
    Span,
    Telemetry,
    TimeSeriesStore,
    Tracer,
    cpu_breakdown_report,
    render_stats_log,
)
from repro.tools.validate import validate


class TestCounter:
    def test_monotonic(self):
        registry = MetricsRegistry()
        c = registry.counter("packets")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labeled_series_are_distinct(self):
        registry = MetricsRegistry()
        tcp = registry.counter("flows", proto="tcp")
        udp = registry.counter("flows", proto="udp")
        assert tcp is not udp
        tcp.inc(3)
        assert registry.counter("flows", proto="tcp").value == 3
        assert registry.counter("flows", proto="udp").value == 0

    def test_same_address_returns_same_series(self):
        registry = MetricsRegistry()
        a = registry.counter("x", a="1", b="2")
        b = registry.counter("x", b="2", a="1")  # label order irrelevant
        assert a is b

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("occupancy")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12


class TestHistogram:
    def test_bucketing(self):
        h = MetricsRegistry().histogram("lat", bounds=(10, 100))
        for value in (5, 50, 500):
            h.observe(value)
        d = h.as_dict()
        assert d["buckets"] == {"10": 1, "100": 1, "+Inf": 1}
        assert d["sum"] == 555
        assert d["count"] == 3

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", bounds=(100, 10))


class TestRegistryEmission:
    def test_collect_sorted_and_emit_jsonl_valid(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.gauge("a").set(1)
        registry.histogram("c").observe(42)
        names = [d["name"] for d in registry.collect()]
        assert names == ["a", "b", "c"]
        out = io.StringIO()
        lines = registry.emit_jsonl(out, meta={"run": "test"})
        assert lines == 4  # header + 3 series
        text = out.getvalue().splitlines()
        assert json.loads(text[0])["run"] == "test"
        assert validate(METRICS_SCHEMA, text) == []

    def test_validator_flags_problems(self):
        assert validate(METRICS_SCHEMA, []) == ["no header line"]
        bad = [
            json.dumps({"schema": "repro-metrics/1"}),
            json.dumps({"kind": "counter", "name": "x", "value": -1}),
            json.dumps({"kind": "wat", "name": "y"}),
            "not json",
        ]
        errors = validate(METRICS_SCHEMA, bad)
        assert any("negative" in e for e in errors)
        assert any("unknown series kind" in e for e in errors)
        assert any("not JSON" in e for e in errors)

    def test_validator_rejects_bool_values(self):
        lines = [json.dumps({"schema": METRICS_SCHEMA}),
                 json.dumps({"kind": "counter", "name": "x",
                             "value": True})]
        assert any("value must be a non-negative number" in e
                   for e in validate(METRICS_SCHEMA, lines))

    def test_emit_jsonl_is_byte_deterministic(self):
        """Series order (and key order within a line) is a function of
        the registry's content alone — never of insertion order — so
        merged multi-worker emissions diff cleanly across runs."""
        def build(spec):
            registry = MetricsRegistry()
            for name, labels, amount in spec:
                registry.counter(name, **labels).inc(amount)
            registry.gauge("depth", worker=1).set(3)  # int label value
            out = io.StringIO()
            registry.emit_jsonl(out)
            return out.getvalue().splitlines()[1:]  # drop ts header

        spec = [("pkts", {"worker": "1"}, 5),
                ("pkts", {"worker": "0"}, 7),
                ("pkts", {}, 12),
                ("drops", {"worker": "0"}, 1)]
        forward = build(spec)
        reversed_ = build(list(reversed(spec)))
        assert forward == reversed_
        names = [json.loads(line)["name"] for line in forward]
        assert names == sorted(names)
        # The int label value was coerced to str at registration.
        depth = json.loads(forward[-1])
        assert depth["labels"] == {"worker": "1"}


class TestMergeSeries:
    def test_counters_and_histograms_add(self):
        source = MetricsRegistry()
        source.counter("pkts").inc(5)
        source.histogram("size", bounds=(10, 100)).observe(50)
        target = MetricsRegistry()
        target.counter("pkts").inc(2)
        assert target.merge_series(source.collect()) == 2
        assert target.counter("pkts").value == 7
        assert target.histogram("size", bounds=(10, 100)).count == 1

    def test_empty_registry_merges_as_noop(self):
        target = MetricsRegistry()
        target.counter("pkts").inc(3)
        assert target.merge_series(MetricsRegistry().collect()) == 0
        assert [d["name"] for d in target.collect()] == ["pkts"]
        assert target.counter("pkts").value == 3

    def test_gauge_max_merge(self):
        assert MERGE_RULES["bro.flows_peak"] == "max"
        target = MetricsRegistry()
        target.gauge("bro.flows_peak").set(10)
        source = [{"kind": "gauge", "name": "bro.flows_peak", "value": 7},
                  {"kind": "gauge", "name": "load", "value": 7}]
        target.merge_series(source)
        assert target.gauge("bro.flows_peak").value == 10  # max, not 17
        assert target.gauge("load").value == 7   # default: additive
        target.merge_series(source)
        assert target.gauge("load").value == 14

    def test_worker_copy_applied_twice_sets_not_stacks(self):
        """The service mirrors a worker's TELEM series under its
        ``worker`` label, then the final flush applies that lane's
        registry again: the copy is set, never added twice."""
        mirror = [{"kind": "counter", "name": "pkts", "value": 4},
                  {"kind": "gauge", "name": "load", "value": 3}]
        final = [{"kind": "counter", "name": "pkts", "value": 9},
                 {"kind": "gauge", "name": "load", "value": 5}]
        target = MetricsRegistry()
        target.merge_series(mirror, extra_labels={"worker": "1"})
        target.merge_series(final, extra_labels={"worker": "1"})
        target.merge_series(final, extra_labels={"worker": "1"})
        assert target.counter("pkts", worker="1").value == 9
        assert target.gauge("load", worker="1").value == 5
        source = MetricsRegistry()
        source.histogram("size", bounds=(10, 100)).observe(50)
        for __ in range(2):
            target.merge_series(source.collect(),
                                extra_labels={"worker": "1"})
        assert target.histogram("size", bounds=(10, 100),
                                worker="1").count == 1

    def test_once_series_takes_one_lane(self):
        assert MERGE_RULES["opt.rewrites"] == "once"
        lane = [{"kind": "counter", "name": "opt.rewrites",
                 "labels": {"context": "scripts"}, "value": 25}]
        target = MetricsRegistry()
        target.merge_series(lane)
        target.merge_series(lane)
        assert target.counter("opt.rewrites", context="scripts").value == 25

    def test_once_series_disagreeing_lanes_raise_schema_error(self):
        target = MetricsRegistry()
        target.merge_series([{"kind": "counter", "name": "opt.rewrites",
                              "labels": {"context": "scripts"},
                              "value": 25}])
        with pytest.raises(SchemaError, match="once"):
            target.merge_series([{"kind": "counter",
                                  "name": "opt.rewrites",
                                  "labels": {"context": "scripts"},
                                  "value": 24}])

    def test_extra_labels_stamp_every_series(self):
        source = MetricsRegistry()
        source.counter("pkts", proto="tcp").inc(4)
        target = MetricsRegistry()
        target.merge_series(source.collect(),
                            extra_labels={"worker": "2"})
        labeled = target.counter("pkts", proto="tcp", worker="2")
        assert labeled.value == 4

    def test_histogram_bounds_mismatch_raises_schema_error(self):
        target = MetricsRegistry()
        target.histogram("size", bounds=(10, 100)).observe(5)
        source = MetricsRegistry()
        source.histogram("size", bounds=(10, 1000)).observe(5)
        with pytest.raises(SchemaError, match="bucket bounds"):
            target.merge_series(source.collect())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown series kind"):
            MetricsRegistry().merge_series(
                [{"kind": "summary", "name": "x", "value": 1}])


class TestTimeSeriesStore:
    @staticmethod
    def _collect(pkts, depth):
        registry = MetricsRegistry()
        registry.counter("pkts").inc(pkts)
        registry.gauge("depth").set(depth)
        return registry.collect()

    def test_deltas_against_previous_sample(self):
        store = TimeSeriesStore()
        store.sample(1.0, self._collect(10, 3))
        record = store.sample(2.0, self._collect(25, 1))
        by_name = {e["name"]: e for e in record["series"]}
        assert by_name["pkts"]["delta"] == 15
        assert "delta" not in by_name["depth"]  # gauges are not diffed
        assert len(store) == 2

    def test_first_sample_deltas_from_zero(self):
        store = TimeSeriesStore()
        record = store.sample(1.0, self._collect(10, 0))
        assert record["series"][1]["delta"] == 10

    def test_window_filters_old_samples(self):
        store = TimeSeriesStore()
        for ts in (10.0, 50.0, 100.0):
            store.sample(ts, self._collect(1, 0))
        assert [r["ts"] for r in store.history(window=60)] == [50.0, 100.0]
        assert [r["ts"] for r in store.history()] == [10.0, 50.0, 100.0]
        assert [r["ts"] for r in store.history(window=5, now=200.0)] == []

    def test_ring_is_bounded(self):
        store = TimeSeriesStore(max_samples=3)
        for ts in range(10):
            store.sample(float(ts), [])
        assert len(store) == 3
        assert [r["ts"] for r in store.history()] == [7.0, 8.0, 9.0]

    def test_max_samples_must_be_positive(self):
        with pytest.raises(ValueError):
            TimeSeriesStore(max_samples=0)

    def test_emit_jsonl_validates(self):
        store = TimeSeriesStore()
        store.sample(1.0, self._collect(5, 2))
        store.sample(2.0, self._collect(9, 4))
        out = io.StringIO()
        assert store.emit_jsonl(out, meta={"app": "bro"}) == 3
        lines = out.getvalue().splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == TIMESERIES_SCHEMA
        assert header["app"] == "bro"
        assert header["samples"] == 2
        assert validate(TIMESERIES_SCHEMA, lines) == []

    def test_validator_flags_problems(self):
        assert validate(TIMESERIES_SCHEMA, []) == ["no header line"]
        bad = [
            json.dumps({"schema": TIMESERIES_SCHEMA}),
            json.dumps({"ts": 5.0, "series": [
                {"kind": "counter", "name": "x", "value": 1}]}),
            json.dumps({"ts": 4.0, "series": "nope"}),
        ]
        errors = validate(TIMESERIES_SCHEMA, bad)
        assert any("missing fields ['delta']" in e for e in errors)
        assert any("goes backwards" in e for e in errors)
        assert any("series must be a list" in e for e in errors)

    def test_validator_rejects_bool_values(self):
        lines = [
            json.dumps({"schema": TIMESERIES_SCHEMA}),
            json.dumps({"ts": True, "series": [
                {"kind": "counter", "name": "x", "value": 1,
                 "delta": False}]}),
        ]
        errors = validate(TIMESERIES_SCHEMA, lines)
        assert any("ts must be a number" in e for e in errors)
        assert any("delta must be a number" in e for e in errors)

    def test_validate_timeseries_cli(self, tmp_path):
        import subprocess
        import sys

        store = TimeSeriesStore()
        store.sample(1.0, self._collect(5, 2))
        store.sample(2.0, self._collect(9, 4))
        path = tmp_path / "timeseries.jsonl"
        with open(path, "w") as stream:
            store.emit_jsonl(stream)
        done = subprocess.run(
            [sys.executable, "-m", "repro.tools.validate",
             str(path), "--min", "2"],
            capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        strict = subprocess.run(
            [sys.executable, "-m", "repro.tools.validate",
             str(path), "--min", "3"],
            capture_output=True, text=True)
        assert strict.returncode != 0


class TestSpans:
    def test_tree_and_events(self):
        tracer = Tracer(enabled=True)
        flow = tracer.start_span("flow", uid="c1")
        pkt = flow.child("packet", len=64)
        pkt.event("reassembly_fault", reason="gap")
        pkt.finish()
        flow.finish()
        doc = flow.to_dict()
        assert doc["name"] == "flow"
        assert doc["attrs"] == {"uid": "c1"}
        assert doc["children"][0]["events"][0]["name"] == "reassembly_fault"
        assert doc["duration_ns"] >= doc["children"][0]["duration_ns"]

    def test_finish_idempotent(self):
        span = Span("x")
        span.finish()
        first = span.end_ns
        span.finish()
        assert span.end_ns == first

    def test_disabled_tracer_hands_out_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.start_span("flow")
        assert span is NULL_SPAN
        # The null span absorbs the whole protocol without allocating.
        assert span.child("packet") is NULL_SPAN
        span.event("anything")
        span.finish()
        assert tracer.lines() == []
        assert tracer.spans_started == 0

    def test_max_spans_bound_counts_drops(self):
        tracer = Tracer(enabled=True, max_spans=2)
        spans = [tracer.start_span(f"s{i}") for i in range(4)]
        assert spans[2] is NULL_SPAN and spans[3] is NULL_SPAN
        assert tracer.spans_started == 2
        assert tracer.spans_dropped == 2

    def test_emit_jsonl_one_tree_per_line(self):
        tracer = Tracer(enabled=True)
        for i in range(3):
            tracer.start_span("flow", n=i).finish()
        out = io.StringIO()
        assert tracer.emit_jsonl(out) == 3
        docs = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [d["attrs"]["n"] for d in docs] == [0, 1, 2]


class TestSealOnFinish:
    """A root span seals into its line when it finishes: the tracer
    keeps the text, not the tree."""

    @staticmethod
    def _flow(tracer, n=0):
        flow = tracer.start_span("flow", n=n)
        pkt = flow.child("packet", len=64)
        pkt.child("parse", bytes=10).finish()
        pkt.event("reassembly_fault")
        pkt.finish()
        flow.event("close")
        return flow

    def test_tracer_lets_go_of_a_finished_root(self):
        tracer = Tracer(enabled=True)
        flow = self._flow(tracer)
        ref = weakref.ref(flow)
        flow.finish()
        del flow
        gc.collect()
        assert ref() is None
        assert len(tracer.lines()) == 1

    def test_line_is_the_tree_encoded_at_finish(self, monkeypatch):
        # A stopped clock makes the snapshot's timings the seal's.
        monkeypatch.setattr(time, "perf_counter_ns", lambda: 1_000)
        tracer = Tracer(enabled=True)
        flow = self._flow(tracer)
        expected = json.dumps(flow.to_dict(), sort_keys=True)
        flow.finish()
        assert tracer.lines() == [expected]

    def test_unfinished_root_still_emits(self):
        tracer = Tracer(enabled=True)
        self._flow(tracer, n=0).finish()
        open_flow = self._flow(tracer, n=1)
        docs = [json.loads(line) for line in tracer.lines()]
        assert [doc["attrs"]["n"] for doc in docs] == [0, 1]
        assert docs[1]["children"][0]["name"] == "packet"
        assert open_flow.end_ns is not None  # sealed by the emit

    def test_emit_twice_is_identical(self):
        tracer = Tracer(enabled=True)
        self._flow(tracer, n=0).finish()
        self._flow(tracer, n=1)  # still open at the first emit
        first, second = io.StringIO(), io.StringIO()
        assert tracer.emit_jsonl(first) == 2
        assert tracer.emit_jsonl(second) == 2
        assert first.getvalue() == second.getvalue()


class TestTelemetryHandle:
    def test_default_fully_off(self):
        t = Telemetry()
        assert not t.enabled
        assert not t.tracer.enabled
        assert not t.any_enabled

    def test_trace_without_metrics_is_legal(self):
        t = Telemetry(trace=True)
        assert not t.enabled
        assert t.any_enabled

    def test_null_telemetry_shared_and_off(self):
        assert not NULL_TELEMETRY.any_enabled


_STATS = {
    "total_ns": 1_000,
    "parsing_ns": 400,
    "script_ns": 300,
    "glue_ns": 200,
    "other_ns": 100,
    "packets": 10,
    "events": 20,
}


class TestCpuBreakdown:
    def test_report_shape(self):
        report = cpu_breakdown_report(_STATS, config={"parsers": "pac"})
        assert report["schema"] == CPU_BREAKDOWN_SCHEMA
        assert report["ranking"] == ["parsing", "script", "glue", "other"]
        assert report["components"]["parsing"]["share"] == 40.0
        assert report["config"] == {"parsers": "pac"}
        assert validate(CPU_BREAKDOWN_SCHEMA, report) == []

    def test_shares_sum_to_exactly_100(self):
        # 1/3 splits round to 33.33 x3 = 99.99; the residue must be
        # absorbed so the validator's sum check holds.
        stats = dict(_STATS, parsing_ns=1, script_ns=1, glue_ns=1,
                     other_ns=0, total_ns=3)
        report = cpu_breakdown_report(stats)
        shares = [c["share"] for c in report["components"].values()]
        assert round(sum(shares), 2) == 100.0
        assert validate(CPU_BREAKDOWN_SCHEMA, report) == []

    def test_zero_total_rejected(self):
        stats = {f"{n}_ns": 0 for n in ("parsing", "script", "glue", "other")}
        stats["total_ns"] = 0
        with pytest.raises(ValueError):
            cpu_breakdown_report(stats)

    def test_validator_catches_corruption(self):
        report = cpu_breakdown_report(_STATS)
        report["components"]["parsing"]["share"] = 95.0
        assert any("sum" in e for e in validate(CPU_BREAKDOWN_SCHEMA, report))
        del report["components"]["glue"]
        assert any("glue" in e for e in validate(CPU_BREAKDOWN_SCHEMA, report))
        assert validate(CPU_BREAKDOWN_SCHEMA, {"schema": "nope"})
        assert validate(CPU_BREAKDOWN_SCHEMA, "not a dict") == \
            ["document is not an object"]

    def test_validator_rejects_bool_values(self):
        report = cpu_breakdown_report(_STATS)
        report["total_ns"] = True
        report["packets"] = True
        errors = validate(CPU_BREAKDOWN_SCHEMA, report)
        assert any("total_ns must be" in e for e in errors)
        assert any("packets must be" in e for e in errors)


class TestStatsLogRendering:
    def test_breakdown_and_sections(self):
        text = render_stats_log(
            dict(_STATS, parser_tier="pac", script_tier="hilti"),
            sections={"health": {"records_skipped": 2}},
        )
        assert "parsing" in text and "40.00%" in text
        assert "parser_tier pac" in text
        assert "[health]" in text
        assert "records_skipped 2" in text
