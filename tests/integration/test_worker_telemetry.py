"""The cross-process worker telemetry plane.

The parallel-equivalence oracle for metrics: a ``--backend pool`` (or
``vthread``) run must merge its per-worker registries so that

* the unlabeled aggregate series are identical to the sequential
  pipeline's content-determined counters, and
* the ``worker=N``-labeled attribution copies, summed after stripping
  the label, reproduce exactly the same totals

— plus the transport itself: pool workers ship periodic ``TELEM``
snapshots over their rings (surfacing as ``worker.*`` gauges in a
pool-transport service) and per-worker profiler dumps land in a
sectioned ``prof.log``.
"""

import multiprocessing
import os
import pickle
import time

import pytest

from repro.apps.bpf.app import BpfApp, BpfLaneSpec
from repro.host import worker
from repro.host.app import PipelineServices
from repro.host.parallel import ParallelPipeline
from repro.host.pool import WorkerPool, shutdown_shared_pools
from repro.host.ring import MessageChannel, ShmRing
from repro.host.service import HostService, ServiceConfig
from repro.host.worker import (
    MSG_TELEM,
    TELEM_DROPPED,
    TELEM_INTERVAL,
    pack_run_prefix,
    send_telemetry,
    telemetry_snapshot,
)
from repro.net.replay import TraceReplayer
from repro.net.tracegen import (
    DnsTraceConfig,
    HttpTraceConfig,
    generate_mixed_trace,
    write_pcap,
)
from repro.runtime.telemetry import (
    METRICS_SCHEMA,
    MetricsRegistry,
    Telemetry,
)
from repro.tools.validate import validate

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

BACKENDS = ["vthread", "pool"]

CONFIG = {"filter": "tcp", "engine": "interpreted", "opt_level": 1,
          "watchdog_budget": None, "metrics": True, "trace": False}

#: Timing/occupancy series that are not content-determined.
_NON_COMPARABLE_PREFIXES = ("bpf.cpu_ns",)


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    yield
    shutdown_shared_pools()


@pytest.fixture(scope="module")
def trace():
    return generate_mixed_trace(
        HttpTraceConfig(sessions=20, seed=11),
        DnsTraceConfig(queries=40, seed=11),
    )


@pytest.fixture(scope="module")
def sequential_counters(trace):
    app = BpfApp(CONFIG["filter"], engine=CONFIG["engine"],
                 opt_level=CONFIG["opt_level"],
                 services=PipelineServices(
                     telemetry=Telemetry(metrics=True)))
    app.run(trace)
    return _counters(app.telemetry.metrics.collect())


def _counters(series_dicts, only_worker_labeled=False):
    """Counter series as ``(name, labels-sans-worker) -> value`` sums.

    With *only_worker_labeled* the unlabeled aggregates are excluded,
    so what remains is purely the per-worker attribution copies — the
    label-stripped sum the oracle compares against sequential."""
    out = {}
    for entry in series_dicts:
        if entry["kind"] != "counter":
            continue
        name = entry["name"]
        if name.startswith(_NON_COMPARABLE_PREFIXES):
            continue
        labels = dict(entry.get("labels", {}))
        had_worker = "worker" in labels
        labels.pop("worker", None)
        if only_worker_labeled and not had_worker:
            continue
        if not only_worker_labeled and had_worker:
            continue
        key = (name, tuple(sorted(labels.items())))
        out[key] = out.get(key, 0) + entry["value"]
    return {key: value for key, value in out.items() if value != 0}


class TestCounterSumIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [1, 3])
    def test_all_backends_match_sequential(self, trace,
                                           sequential_counters,
                                           backend, workers):
        pipe = ParallelPipeline(BpfLaneSpec(CONFIG), workers=workers,
                                backend=backend,
                                telemetry=Telemetry(metrics=True))
        pipe.run(trace)
        merged = pipe.telemetry.metrics.collect()
        # The unlabeled aggregate is the sequential run's counters...
        assert _counters(merged) == sequential_counters
        # ...and so is the label-stripped sum of the per-worker copies.
        assert _counters(merged, only_worker_labeled=True) == \
            sequential_counters

    def test_worker_labels_partition_the_total(self, trace):
        pipe = ParallelPipeline(BpfLaneSpec(CONFIG), workers=3,
                                backend="vthread",
                                telemetry=Telemetry(metrics=True))
        pipe.run(trace)
        lanes = int(pipe.stats["lanes"])
        assert lanes > 1
        workers = set()
        for entry in pipe.telemetry.metrics.collect():
            workers.add(entry.get("labels", {}).get("worker"))
        assert {str(i) for i in range(lanes)} <= workers


class TestMergedArtifacts:
    @pytest.mark.parametrize(
        "backend",
        ["vthread", pytest.param(
            "pool", marks=pytest.mark.skipif(
                not HAVE_FORK, reason="pool wants fork"))])
    def test_pool_emits_same_file_family_as_sequential(
            self, trace, backend, tmp_path):
        sequential = BpfApp(CONFIG["filter"], engine=CONFIG["engine"],
                            opt_level=CONFIG["opt_level"],
                            services=PipelineServices(
                                telemetry=Telemetry(metrics=True)))
        from repro.host.pipeline import Pipeline

        Pipeline(sequential).run(trace)
        seq_dir = tmp_path / "seq"
        Pipeline(sequential).write_telemetry(str(seq_dir))

        pipe = ParallelPipeline(BpfLaneSpec(CONFIG), workers=2,
                                backend=backend,
                                telemetry=Telemetry(metrics=True))
        pipe.run(trace)
        par_dir = tmp_path / "par"
        pipe.write_telemetry(str(par_dir))

        seq_files = {p.name for p in seq_dir.iterdir()}
        par_files = {p.name for p in par_dir.iterdir()}
        assert {"metrics.jsonl", "stats.log", "prof.log"} <= seq_files
        assert seq_files == par_files
        errors = validate(
            METRICS_SCHEMA,
            (par_dir / "metrics.jsonl").read_text().splitlines())
        assert errors == []

    @pytest.mark.parametrize(
        "backend",
        ["vthread", pytest.param(
            "pool", marks=pytest.mark.skipif(
                not HAVE_FORK, reason="pool wants fork"))])
    def test_flows_jsonl_written_when_tracing_armed_without_roots(
            self, trace, backend, tmp_path):
        # BPF opens no span: armed tracing still writes an empty
        # flows.jsonl, as the sequential run does.
        config = dict(CONFIG, trace=True)
        sequential = BpfApp(config["filter"], engine=config["engine"],
                            opt_level=config["opt_level"],
                            services=PipelineServices(
                                telemetry=Telemetry(trace=True)))
        sequential.run(trace)
        seq_dir = tmp_path / "seq"
        sequential.write_telemetry(str(seq_dir))
        pipe = ParallelPipeline(BpfLaneSpec(config), workers=2,
                                backend=backend,
                                telemetry=Telemetry(trace=True))
        pipe.run(trace)
        par_dir = tmp_path / "par"
        pipe.write_telemetry(str(par_dir))
        assert (seq_dir / "flows.jsonl").read_text() == ""
        assert (par_dir / "flows.jsonl").read_text() == ""

    def test_prof_log_sections_per_worker(self, trace, tmp_path):
        pipe = ParallelPipeline(BpfLaneSpec(CONFIG), workers=2,
                                backend="vthread",
                                telemetry=Telemetry(metrics=True))
        pipe.run(trace)
        pipe.write_telemetry(str(tmp_path))
        text = (tmp_path / "prof.log").read_text()
        lanes = int(pipe.stats["lanes"])
        for index in range(lanes):
            assert f"# worker {index} context filter" in text

    def test_metrics_jsonl_byte_deterministic(self, trace, tmp_path):
        """Two identical runs emit byte-identical metrics.jsonl bodies
        (the header carries a wall-clock ts; every series line after it
        must match)."""
        bodies = []
        for name in ("a", "b"):
            pipe = ParallelPipeline(BpfLaneSpec(CONFIG), workers=2,
                                    backend="vthread",
                                    telemetry=Telemetry(metrics=True))
            pipe.run(trace)
            out = tmp_path / name
            pipe.write_telemetry(str(out))
            lines = (out / "metrics.jsonl").read_text().splitlines()
            bodies.append([line for line in lines
                           if "bpf.cpu_ns" not in line][1:])
        assert bodies[0] == bodies[1]


class TestTelemSnapshot:
    def test_snapshot_shape(self, trace):
        app = BpfApp("tcp", engine="vm",
                     services=PipelineServices(
                         telemetry=Telemetry(metrics=True)))
        app.on_begin()
        for timestamp, frame in trace[:50]:
            app.on_packet(timestamp, frame)
        snapshot = telemetry_snapshot(app, processed=50)
        assert snapshot["processed"] == 50
        assert snapshot["live"]["packets"] == 50.0
        assert isinstance(snapshot["ts"], float)
        # Mid-run the registry is sparse (export happens at on_end) —
        # the series list still rides along, possibly empty.
        assert isinstance(snapshot["series"], list)

    def test_bro_live_metrics(self, trace):
        """Bro's packet count is its tracker's: the live gauges a pool
        lane ships in TELEM must not be swallowed as ``{}``."""
        from repro.apps.bro import Bro

        bro = Bro(telemetry=Telemetry(metrics=True))
        bro.on_begin()
        for timestamp, frame in trace[:50]:
            bro.on_packet(timestamp, frame)
        live = bro.live_metrics()
        assert live["packets"] == 50.0
        assert live["sessions_open"] == bro.tracker.open_flows() > 0
        assert telemetry_snapshot(bro, processed=50)["live"] == live

    def test_disabled_telemetry_omits_series(self, trace):
        app = BpfApp("tcp", engine="vm",
                     services=PipelineServices(telemetry=Telemetry()))
        app.on_begin()
        snapshot = telemetry_snapshot(app, processed=0)
        assert "series" not in snapshot
        assert "spans_started" not in snapshot

    def test_message_tag_is_distinct(self):
        from repro.host import worker

        tags = [worker.MSG_BEGIN, worker.MSG_DATA, worker.MSG_END,
                worker.MSG_RESULT, worker.MSG_ERROR, worker.MSG_PROGRESS,
                worker.MSG_SHUTDOWN, MSG_TELEM]
        assert len(set(tags)) == len(tags)
        assert 0 < TELEM_INTERVAL < 5


def _dropped(series, reason):
    return sum(entry["value"] for entry in series
               if entry["name"] == TELEM_DROPPED
               and entry.get("labels", {}).get("reason") == reason)


class TestTelemDropped:
    """A snapshot lost on its way to the parent is counted, on the side
    that lost it, as ``telemetry.telem_dropped{reason=...}``."""

    @staticmethod
    def _lane(trace):
        app = BpfApp("tcp", engine="vm",
                     services=PipelineServices(
                         telemetry=Telemetry(metrics=True)))
        app.on_begin()
        for timestamp, frame in trace[:20]:
            app.on_packet(timestamp, frame)
        return app

    def test_full_ring_drops_and_counts(self, trace, monkeypatch):
        monkeypatch.setattr(worker, "TELEM_SEND_TIMEOUT", 0.01)
        app = self._lane(trace)
        ring = ShmRing(1 << 16)
        try:
            outbox = MessageChannel(ring)
            assert send_telemetry(outbox, 1, app, 20)
            for size in (512, 1):
                while ring.push(b"x" * size):
                    pass
            assert not send_telemetry(outbox, 1, app, 20)
        finally:
            ring.close()
        series = app.telemetry.metrics.collect()
        assert _dropped(series, "ring_full") == 1
        assert _dropped(series, "unpicklable") == 0

    def test_unpicklable_snapshot_drops_and_counts(self, trace,
                                                   monkeypatch):
        app = self._lane(trace)
        monkeypatch.setattr(app, "live_metrics",
                            lambda: {"packets": lambda: 0})
        ring = ShmRing(1 << 16)
        try:
            assert not send_telemetry(MessageChannel(ring), 1, app, 20)
            assert ring.used_bytes() == 0
        finally:
            ring.close()
        assert _dropped(app.telemetry.metrics.collect(),
                        "unpicklable") == 1

    @pytest.mark.skipif(not HAVE_FORK, reason="pool wants fork")
    def test_late_and_torn_snapshots_reach_the_merge(self, trace):
        """A stale-epoch snapshot and a torn one are dropped by the
        parent, counted, and folded into the next good snapshot's and
        the run result's series — the lists the worker-series merge
        reads."""
        pool = WorkerPool(1, start_method="fork")
        try:
            pool.begin_run(BpfLaneSpec(CONFIG))
            state = pool._states[0]
            # Until it is fed, the worker sends nothing: this side can
            # stand in for it on the out-ring.
            fake = MessageChannel(state.out_ring)
            good = telemetry_snapshot(self._lane(trace), processed=20)
            for run_id, body in (
                    (state.run_id - 1, pickle.dumps(good)),
                    (state.run_id, pickle.dumps(good)[:-7]),
                    (state.run_id, pickle.dumps(good))):
                assert fake.send(MSG_TELEM,
                                 pack_run_prefix(run_id) + body)
            pool.poll(0)
            snapshot = pool.telemetry(0)
            assert _dropped(snapshot["series"], "late") == 1
            assert _dropped(snapshot["series"], "torn") == 1
            for ordinal, (timestamp, frame) in enumerate(trace[:30]):
                pool.feed(0, timestamp.nanos, frame, ordinal)
            pool.finish(0)
            result = pool.collect(0, timeout=30.0)
        finally:
            pool.close()
        merged = MetricsRegistry()
        merged.merge_series(result["metrics"], extra_labels={"worker": "0"})
        assert merged.counter(TELEM_DROPPED, reason="late",
                              worker="0").value == 1
        assert merged.counter(TELEM_DROPPED, reason="torn",
                              worker="0").value == 1

    @pytest.mark.skipif(not HAVE_FORK, reason="pool wants fork")
    def test_drops_stay_with_their_run(self, trace):
        """A drop in a run whose metrics are off is not reported by the
        next run on the same pool as its own."""
        pool = WorkerPool(1, start_method="fork")
        try:
            results = []
            for metrics in (False, True):
                pool.begin_run(BpfLaneSpec(
                    dict(CONFIG, metrics=metrics, trace=not metrics)))
                state = pool._states[0]
                if not metrics:
                    assert MessageChannel(state.out_ring).send(
                        MSG_TELEM, pack_run_prefix(state.run_id) + b"torn")
                for ordinal, (timestamp, frame) in enumerate(trace[:30]):
                    pool.feed(0, timestamp.nanos, frame, ordinal)
                pool.finish(0)
                results.append(pool.collect(0, timeout=30.0))
        finally:
            pool.close()
        assert results[0]["metrics"] is None
        series = results[1]["metrics"]
        assert series
        assert not [entry for entry in series
                    if entry["name"] == TELEM_DROPPED]


@pytest.mark.skipif(not HAVE_FORK, reason="pool transport wants fork")
class TestServiceWorkerTelemetry:
    def test_pool_service_publishes_worker_gauges(self, tmp_path):
        """A paced pool-transport service run outlives TELEM_INTERVAL,
        so the aggregator must surface ``worker.*`` gauges shipped by
        the workers over their rings — and the drained registry must
        carry the worker-labeled final merge."""
        records = generate_mixed_trace(
            HttpTraceConfig(sessions=10, seed=7),
            DnsTraceConfig(queries=20, seed=7))
        pcap = tmp_path / "svc.pcap"
        write_pcap(str(pcap), records)

        config = ServiceConfig(
            lanes=2, lane_transport="pool", http_host=None,
            http_port=None, tick_seconds=0.05,
            logdir=str(tmp_path / "logs"), app_name="bpf")
        service = None
        replayer = TraceReplayer(
            str(pcap), loops=50, rate=1500.0,
            should_stop=lambda: service.should_stop())
        service = HostService(lambda services: None, replayer, config,
                              spec=BpfLaneSpec(CONFIG))

        def stop_late():
            deadline = time.monotonic() + (TELEM_INTERVAL * 6)
            while time.monotonic() < deadline:
                time.sleep(0.05)
            service.request_stop("test window elapsed")

        import threading

        stopper = threading.Thread(target=stop_late, daemon=True)
        stopper.start()
        code = service.serve()
        stopper.join()
        assert code == 0

        series = {(entry["name"],
                   tuple(sorted(entry.get("labels", {}).items()))): entry
                  for entry in service.metrics.collect()}
        live = [key for key in series
                if key[0] == "worker.packets"]
        assert live, "no TELEM-shipped worker.packets gauges"
        final = [key for key in series
                 if key[0] == "bpf.packets_total"
                 and any(k == "worker" for k, __ in key[1])]
        assert final, "no worker-labeled final merge"
        # The unlabeled aggregate matches the processed total exactly.
        totals = service.totals()
        aggregate = series[("bpf.packets_total", ())]["value"]
        assert aggregate == totals["packets_processed"]
        history = service.history_report(window=600)
        assert history["count"] >= 2
        assert not (tmp_path / "logs" / "service.json").exists()
        assert (tmp_path / "logs" / "timeseries.jsonl").exists()
