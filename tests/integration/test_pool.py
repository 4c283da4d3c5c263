"""The persistent shared-memory worker pool and its ring transport.

Covers the tentpole of the pool backend (byte-identity with the
sequential oracle, worker reuse across runs, spawn-mode safety) and
its failure semantics: a worker killed mid-run is detected by a
deadline poll, reaped, its unretired packets accounted as lost, and
the run fails loudly instead of hanging; the pool survives — the dead
worker is respawned and the next run proceeds normally.

Ring coverage (the satellite checklist): wraparound, full-ring
backpressure, oversized-record rejection, concurrent
producer/consumer stress, and pool reuse across two consecutive runs
with differing traces.

Streaming: the batch run feeds the pool as its plan streams, so the
parent holds at most one unflushed batch per worker however long the
trace is, and pre-assigned uids reach each worker ahead of the batch
that first needs them, at any batch size.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.apps.bpf.app import BpfApp, BpfLaneSpec
from repro.apps.bro import Bro
from repro.apps.bro.parallel import BroLaneSpec
from repro.host.parallel import ParallelPipeline
from repro.host.pipeline import Pipeline
from repro.host.pool import PoolError, WorkerPool, shutdown_shared_pools
from repro.host.ring import MessageChannel, ShmRing
from repro.host.worker import encode_packet
from repro.net.tracegen import (
    DnsTraceConfig,
    HttpTraceConfig,
    generate_mixed_trace,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    """Close the cached shared pools after this module so their idle
    workers cannot add CPU noise to timing-sensitive suites that run
    later in the same pytest process."""
    yield
    shutdown_shared_pools()

BPF_CONFIG = {"filter": "tcp", "engine": "vm", "opt_level": 1,
              "watchdog_budget": None, "metrics": False, "trace": False}


def _trace(sessions=12, queries=30, seed=5):
    return generate_mixed_trace(HttpTraceConfig(sessions=sessions, seed=seed),
                                DnsTraceConfig(queries=queries, seed=seed))


def _produce_counted(name: str, count: int) -> None:
    """Forked producer: *count* small tagged messages, numbered."""
    ring = ShmRing.attach(name)
    channel = MessageChannel(ring)
    for i in range(count):
        channel.send(6, i.to_bytes(8, "little"), timeout=10.0)
    ring.close()


def _record(i: int) -> bytes:
    # Deterministic pseudo-content with varying record sizes so pushes
    # land on every possible wraparound phase.
    return bytes((i * 7 + j) & 0xFF for j in range(1 + (i * 13) % 97))


class KillerSpec(BpfLaneSpec):
    """A lane spec whose worker dies the moment it builds a lane —
    the OOM-kill stand-in for the death-detection tests."""

    def make_lane(self):
        os.kill(os.getpid(), 9)


class MidRunKillerSpec(BpfLaneSpec):
    """A lane spec whose worker dies on its lane's 300th packet, after
    retiring one full 256-packet batch."""

    def make_lane(self):
        lane = super().make_lane()
        on_packet = lane.on_packet
        seen = [0]

        def dying(timestamp, frame):
            seen[0] += 1
            if seen[0] == 300:
                os.kill(os.getpid(), 9)
            on_packet(timestamp, frame)

        lane.on_packet = dying
        return lane


class BrokenSpec(BpfLaneSpec):
    """A lane spec that raises during lane construction (a survivable
    in-run error: the worker reports it and stays alive)."""

    def make_lane(self):
        raise RuntimeError("lane construction exploded")


# --------------------------------------------------------------------------
# The SPSC ring
# --------------------------------------------------------------------------


class TestShmRing:
    def test_capacity_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            ShmRing(1000)

    def test_roundtrip(self):
        ring = ShmRing(1 << 12)
        try:
            assert ring.push(b"hello")
            assert ring.push(b"")
            assert ring.pop() == b"hello"
            assert ring.pop() == b""
            assert ring.pop() is None
        finally:
            ring.close()

    def test_wraparound(self):
        """Thousands of variable-size records through a tiny ring hit
        every wraparound phase; every payload must survive intact."""
        ring = ShmRing(1 << 10)
        try:
            expect = []
            sent = 0
            for i in range(4000):
                record = _record(i)
                while not ring.push(record):
                    got = ring.pop()
                    assert got == expect.pop(0)
                expect.append(record)
                sent += 1
            while expect:
                assert ring.pop() == expect.pop(0)
            assert ring.pop() is None
            assert sent == 4000
        finally:
            ring.close()

    def test_full_ring_backpressure(self):
        ring = ShmRing(1 << 10)
        try:
            payload = b"x" * 200
            pushed = 0
            while ring.push(payload):
                pushed += 1
            assert pushed > 0
            assert not ring.push(payload)          # full: refused
            assert not ring.push_wait(payload, timeout=0.05)
            assert ring.pop() == payload           # free one slot
            assert ring.push(payload)              # accepted again
        finally:
            ring.close()

    def test_oversized_record_rejected(self):
        ring = ShmRing(1 << 10)
        try:
            with pytest.raises(ValueError):
                ring.push(b"y" * (1 << 10))  # can never fit (len prefix)
        finally:
            ring.close()

    def test_attach_sees_owner_capacity(self):
        ring = ShmRing(1 << 12)
        try:
            other = ShmRing.attach(ring.name)
            try:
                # shm segments round up to page size; the header keeps
                # the logical capacity authoritative.
                assert other.capacity == 1 << 12
                assert ring.push(b"cross-process")
                assert other.pop() == b"cross-process"
            finally:
                other.close()
        finally:
            ring.close()

    def test_concurrent_producer_consumer_stress(self):
        """One producer thread races one consumer over a small ring;
        FIFO order and payload integrity must hold throughout."""
        ring = ShmRing(1 << 12)
        count = 20000
        errors = []

        def produce():
            for i in range(count):
                if not ring.push_wait(_record(i), timeout=10.0):
                    errors.append(f"push {i} timed out")
                    return

        try:
            producer = threading.Thread(target=produce)
            producer.start()
            for i in range(count):
                got = ring.pop(timeout=10.0)
                if got != _record(i):
                    errors.append(f"record {i} corrupted")
                    break
            producer.join(timeout=30.0)
            assert not errors
            assert ring.pop() is None
        finally:
            ring.close()


    @pytest.mark.skipif(not HAVE_FORK,
                        reason="fork start method unavailable")
    def test_cross_process_polling_sees_only_whole_records(self):
        """A forked producer streams small messages while this process
        polls without waiting, as a pool feeder drains a worker's
        PROGRESS messages on every retry.  Each cursor store must be
        one atomic write: ``struct.pack_into`` zeroes the field first,
        so a poll could read ``tail == 0 != head`` and pop a record
        that was never written (caught by a run like this one some of
        the time, never deterministically)."""
        ring = ShmRing(1 << 20)
        count = 200000
        proc = multiprocessing.get_context("fork").Process(
            target=_produce_counted, args=(ring.name, count))
        proc.start()
        channel = MessageChannel(ring)
        try:
            for i in range(count):
                message = None
                while message is None:
                    message = channel.recv(timeout=0.0)
                assert message == (6, i.to_bytes(8, "little"))
        finally:
            proc.kill()
            proc.join()
            ring.close()


class TestMessageChannel:
    def test_message_larger_than_ring_streams_through(self):
        ring = ShmRing(1 << 12)
        channel = MessageChannel(ring)
        payload = bytes((i * 31) & 0xFF for i in range(3 * ring.capacity))
        received = []

        def consume():
            received.append(MessageChannel(ring).recv(timeout=10.0))

        try:
            consumer = threading.Thread(target=consume)
            consumer.start()
            assert channel.send(7, payload, timeout=10.0)
            consumer.join(timeout=30.0)
            assert received == [(7, payload)]
        finally:
            ring.close()

    def test_fitting_message_lands_whole_or_not_at_all(self):
        """A message that fits the ring never lands in part: a batch a
        timed-out push left half-sent would be re-sent whole and reach
        the worker garbled."""
        ring = ShmRing(1 << 10)
        channel = MessageChannel(ring)  # chunks of 256 bytes
        message = bytes(range(200)) * 3
        try:
            assert ring.push(b"x" * 500)
            used = ring.used_bytes()
            # Room for the first chunk, not for all three.
            assert not channel.send(7, message, timeout=0.0)
            assert ring.used_bytes() == used
            assert ring.pop() == b"x" * 500
            assert channel.send(7, message, timeout=0.0)
            assert channel.recv() == (7, message)
        finally:
            ring.close()

    def test_tagged_messages_in_order(self):
        ring = ShmRing(1 << 12)
        channel = MessageChannel(ring)
        try:
            assert channel.send(1, b"alpha")
            assert channel.send(2, b"beta")
            assert channel.recv() == (1, b"alpha")
            assert channel.recv() == (2, b"beta")
            assert channel.recv() is None
        finally:
            ring.close()


# --------------------------------------------------------------------------
# The worker pool
# --------------------------------------------------------------------------


def _reference_lines(spec, trace, workers):
    pipe = ParallelPipeline(spec, workers=workers, backend="vthread")
    pipe.run(trace)
    return pipe.result_lines()


def _pool_run(pool, spec, shards, timeout=60.0):
    """One complete run on the pool's granular surface: arm every
    worker, feed each shard to its worker, then finish and collect
    them in order (``collect`` raises :class:`PoolError`)."""
    pool.begin_run(spec)
    for index, shard in enumerate(shards):
        for nanos, frame, ordinal in shard:
            assert pool.feed(index, nanos, frame, ordinal, wait=timeout)
    results = []
    for index in range(len(shards)):
        pool.finish(index, timeout=timeout)
        results.append(pool.collect(index, timeout))
    return results


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
class TestWorkerPool:
    def test_identity_and_reuse_across_differing_traces(self):
        """Two consecutive runs with different traces through the SAME
        pool (no respawn) must each match the vthread oracle — run
        state fully resets between runs."""
        spec = BpfLaneSpec(dict(BPF_CONFIG))
        pool = WorkerPool(2, start_method="fork")
        try:
            first_pids = pool.pids()
            for seed in (5, 11):
                trace = _trace(seed=seed)
                jobs = [(timestamp.nanos, frame, ordinal)
                        for ordinal, (timestamp, frame) in enumerate(trace)]
                shards = [jobs[0::2], jobs[1::2]]
                results = _pool_run(pool, spec, shards)
                lines = sorted(
                    line for result in results for line in result["lines"])
                # Oracle: one sequential lane per shard.
                expect = []
                for shard in shards:
                    expect.extend(self._drive_lines(spec, shard))
                assert lines == sorted(expect)
            assert pool.pids() == first_pids  # nobody was respawned
            assert pool.runs_served == 2
        finally:
            pool.close()

    def test_shared_pool_keyed_by_ring_size(self):
        """A caller asking for bigger rings gets them, even when a pool
        of that worker count already exists with the default size."""
        shutdown_shared_pools()
        try:
            batch = WorkerPool.shared(1, start_method="fork")
            service = WorkerPool.shared(1, start_method="fork",
                                        ring_bytes=1 << 20)
            assert service is not batch
            assert batch._states[0].in_ring.capacity == \
                WorkerPool.RING_BYTES
            assert service._states[0].in_ring.capacity == 1 << 20
            assert WorkerPool.shared(1, start_method="fork") is batch
        finally:
            shutdown_shared_pools()

    @staticmethod
    def _drive(spec, shard):
        from repro.core.values import Time

        lane = spec.make_lane()
        lane.on_begin()
        for nanos, frame, ordinal in shard:
            lane.ordinal = ordinal
            lane.on_packet(Time.from_nanos(nanos), frame)
        lane.on_end()
        return lane

    @classmethod
    def _drive_lines(cls, spec, shard):
        return spec.lane_result(cls._drive(spec, shard))["lines"]

    def test_pool_backend_matches_vthread_oracle(self):
        spec = BpfLaneSpec(dict(BPF_CONFIG))
        trace = _trace()
        pipe = ParallelPipeline(spec, workers=2, backend="pool")
        pipe.run(trace)
        assert pipe.result_lines() == _reference_lines(spec, trace, 2)

    def test_worker_error_poisons_only_that_run(self):
        """An in-run failure is reported, the run raises, and the SAME
        workers serve the next run — errors don't leak across epochs."""
        trace = _trace(sessions=4, queries=8)
        jobs = [(t.nanos, f, i) for i, (t, f) in enumerate(trace)]
        pool = WorkerPool(1, start_method="fork")
        try:
            with pytest.raises(PoolError, match="exploded"):
                _pool_run(pool, BrokenSpec(dict(BPF_CONFIG)), [jobs])
            pids = pool.pids()
            spec = BpfLaneSpec(dict(BPF_CONFIG))
            results = _pool_run(pool, spec, [jobs])
            assert pool.pids() == pids  # alive worker was NOT respawned
            assert sorted(results[0]["lines"]) == \
                sorted(self._drive_lines(spec, jobs))
        finally:
            pool.close()

    def test_worker_death_detected_and_respawned(self):
        """A SIGKILLed worker is detected by liveness (not a hang), the
        lost packets are accounted, and the pool replaces the corpse so
        the next run succeeds."""
        trace = _trace(sessions=4, queries=8)
        jobs = [(t.nanos, f, i) for i, (t, f) in enumerate(trace)]
        pool = WorkerPool(1, start_method="fork")
        try:
            with pytest.raises(PoolError) as excinfo:
                _pool_run(pool, KillerSpec(dict(BPF_CONFIG)), [jobs],
                          timeout=20.0)
            assert "died" in str(excinfo.value)
            assert excinfo.value.jobs_lost == len(jobs)
            spec = BpfLaneSpec(dict(BPF_CONFIG))
            results = _pool_run(pool, spec, [jobs])
            assert sorted(results[0]["lines"]) == \
                sorted(self._drive_lines(spec, jobs))
        finally:
            pool.close()


# --------------------------------------------------------------------------
# The streamed batch run
# --------------------------------------------------------------------------


_LANE = {"watchdog_budget": None, "metrics": False, "trace": False,
         "opt_level": None}

#: app -> (sequential app, lane spec); bro pre-assigns connection uids,
#: bpf flow-record uids.
STREAM_APPS = {
    "bro": (lambda: Bro(parsers="std"),
            BroLaneSpec(dict(_LANE, scripts=None, parsers="std",
                             scripts_engine="interp", log_enabled=True))),
    "bpf": (lambda: BpfApp("tcp"), BpfLaneSpec(dict(BPF_CONFIG))),
}


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
class TestStreamedRun:
    def test_parent_buffers_at_most_one_batch_per_worker(self,
                                                         monkeypatch):
        """A trace 16x the rings' total capacity cannot sit in the rings,
        so it completes only if the parent streams it; meanwhile each
        worker's unflushed batch never exceeds ``BATCH_BYTES`` plus the
        largest frame (with its record header) — a bound with no trace
        length in it."""
        ring_bytes = 1 << 14
        monkeypatch.setattr(WorkerPool, "BATCH_BYTES", 2048)
        # The pipeline asks for the default ring size: make it small.
        monkeypatch.setattr(WorkerPool, "RING_BYTES", ring_bytes)
        shutdown_shared_pools()
        pool = WorkerPool.shared(2, start_method="fork")
        trace = _trace(sessions=200, queries=50, seed=17)
        assert sum(len(frame) for __, frame in trace) >= (
            16 * pool.workers * 2 * ring_bytes)
        peaks = [0] * pool.workers
        feed = pool.feed

        def watched_feed(index, nanos, frame, ordinal, **options):
            accepted = feed(index, nanos, frame, ordinal, **options)
            peaks[index] = max(peaks[index],
                               len(pool._states[index].batch))
            return accepted

        monkeypatch.setattr(pool, "feed", watched_feed)
        spec = BpfLaneSpec(dict(BPF_CONFIG))
        try:
            pipe = ParallelPipeline(spec, workers=2, start_method="fork")
            pipe.run(iter(trace))
            assert sum(pool.pushed(index)
                       for index in range(pool.workers)) == len(trace)
        finally:
            shutdown_shared_pools()
        assert pipe.result_lines() == _reference_lines(spec, trace, 2)
        header = bytearray()
        encode_packet(header, 0, b"")
        largest = max(len(frame) for __, frame in trace)
        assert all(0 < peak <= WorkerPool.BATCH_BYTES + len(header)
                   + largest for peak in peaks)

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("name", sorted(STREAM_APPS))
    def test_uid_entries_at_batch_boundaries(self, monkeypatch, name,
                                             batch):
        """Tiny batches put first sightings on every batch boundary:
        each packet's ordinal must still ride with it, so pool output
        stays byte-identical to the sequential run's."""
        monkeypatch.setattr(WorkerPool, "BATCH_PACKETS", batch)
        make, spec = STREAM_APPS[name]
        trace = _trace(sessions=6, queries=20, seed=7)
        app = make()
        Pipeline(app).run(trace)
        pipe = ParallelPipeline(spec, workers=2, start_method="fork")
        pipe.run(trace)
        assert pipe.result_lines() == sorted(app.result_lines())
        assert pipe.flow_record_lines() == app.flow_record_lines()


# --------------------------------------------------------------------------
# Spawn-mode regression (worker entry must be side-effect-free)
# --------------------------------------------------------------------------


@pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="spawn start method unavailable")
class TestSpawnStartMethod:
    """The worker entry lives in :mod:`repro.host.worker`, which a
    ``spawn`` child imports cold — these would hang or crash if the
    entry module dragged in import-time side effects (the original
    bug: worker bodies lived in ``repro.host.parallel``)."""

    def test_pool_backend_under_spawn(self):
        spec = BpfLaneSpec(dict(BPF_CONFIG))
        trace = _trace(sessions=6, queries=12)
        pipe = ParallelPipeline(spec, workers=2, backend="pool",
                                start_method="spawn")
        pipe.run(trace)
        assert pipe.result_lines() == _reference_lines(spec, trace, 2)

    def test_worker_module_own_imports_are_clean(self):
        """The entry module's own top-level imports must stay stdlib +
        the ring — the runtime substrate (``Time``) is imported
        lazily inside the worker body.  This is the property
        that keeps a spawned child from re-importing application code
        before a run's pickled spec names what to build."""
        import ast
        import inspect

        import repro.host.worker as worker

        tree = ast.parse(inspect.getsource(worker))
        bad = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                bad.extend(a.name for a in node.names
                           if a.name.startswith("repro"))
            elif isinstance(node, ast.ImportFrom):
                # Relative imports of anything but the ring transport
                # (level 2 reaches out of repro.host entirely).
                if node.level >= 2 or (node.level == 1
                                       and node.module != "ring"):
                    bad.append("." * node.level + (node.module or ""))
                elif (node.level == 0 and node.module
                        and node.module.startswith("repro")):
                    bad.append(node.module)
        assert not bad, f"worker entry imports the substrate: {bad}"


class TestBatchImportSet:
    def test_batch_apps_never_import_multiprocessing(self):
        """Only the pool forks: a sequential or vthread run's imports
        must not pay for ``multiprocessing`` (the pool and its rings
        load on first use)."""
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = ("import sys\n"
                "import repro.apps.bro, repro.apps.bpf.app, "
                "repro.host.pipeline\n"
                "print(sorted(m for m in sys.modules "
                "if m.startswith('multiprocessing')))\n")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), check=True)
        assert out.stdout.strip() == "[]"


# --------------------------------------------------------------------------
# Worker death through the driver (the recv() hang bugfix, on the pool)
# --------------------------------------------------------------------------


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
class TestPoolBackendDeath:
    def test_dead_worker_fails_run_instead_of_hanging(self):
        trace = _trace(sessions=4, queries=8)
        pipe = ParallelPipeline(KillerSpec(dict(BPF_CONFIG)), workers=2,
                                backend="pool", join_timeout=15.0)
        with pytest.raises(PoolError, match="lost"):
            pipe.run(trace)
        assert pipe.jobs_lost > 0
        # The dead workers were respawned: the same pipeline runs on.
        spec = BpfLaneSpec(dict(BPF_CONFIG))
        pipe.spec = spec
        pipe.run(trace)
        assert pipe.result_lines() == _reference_lines(spec, trace, 2)

    def test_lost_jobs_cover_the_whole_trace(self):
        trace = _trace(sessions=4, queries=8)
        pipe = ParallelPipeline(KillerSpec(dict(BPF_CONFIG)), workers=2,
                                backend="pool", join_timeout=15.0)
        with pytest.raises(PoolError):
            pipe.run(trace)
        assert pipe.jobs_lost == len(trace)

    def test_worker_killed_mid_run_loses_exactly_the_unretired(self):
        """Death mid-stream: the one retired batch is not lost, every
        other packet — in the ring, in the parent's unflushed batch, or
        never fed because the worker was gone — is."""
        trace = _trace(sessions=40, queries=60)
        assert len(trace) > 300
        pipe = ParallelPipeline(MidRunKillerSpec(dict(BPF_CONFIG)),
                                workers=1, backend="pool",
                                join_timeout=15.0)
        with pytest.raises(PoolError, match="died"):
            pipe.run(trace)
        assert pipe.jobs_lost == len(trace) - WorkerPool.BATCH_PACKETS


# --------------------------------------------------------------------------
# Backend selection
# --------------------------------------------------------------------------


class TestDefaultBackend:
    def test_pipeline_defaults_to_pool(self):
        spec = BpfLaneSpec(dict(BPF_CONFIG))
        assert ParallelPipeline(spec, workers=1).backend == "pool"
        for removed in (None, "process", "threaded"):
            with pytest.raises(ValueError):
                ParallelPipeline(spec, workers=1, backend=removed)


# --------------------------------------------------------------------------
# Service pool transport
# --------------------------------------------------------------------------


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
class TestServicePoolTransport:
    def test_pool_lanes_match_thread_lanes(self, tmp_path):
        from repro.apps.bro import Bro
        from repro.apps.bro.parallel import BroLaneSpec
        from repro.host.service import HostService, ServiceConfig

        trace = list(_trace(sessions=8, queries=20, seed=3))
        spec = BroLaneSpec({"scripts": None, "parsers": "std",
                            "scripts_engine": "interp", "log_enabled": True,
                            "watchdog_budget": None, "opt_level": None,
                            "metrics": False, "trace": False})

        def make_app(services):
            return Bro(telemetry=services.telemetry)

        outputs = {}
        for transport in ("thread", "pool"):
            logdir = tmp_path / transport
            config = ServiceConfig(
                lanes=2, lane_transport=transport, http_host=None,
                http_port=None, logdir=str(logdir))
            service = HostService(make_app, list(trace), config, spec=spec)
            assert service.serve() == 0
            totals = service.totals()
            assert totals["packets_ingested"] == len(trace)
            assert totals["packets_processed"] == len(trace)
            assert totals["packets_lost"] == 0
            assert totals["packets_dropped"] == 0
            outputs[transport] = (logdir / "results.log").read_text()
        assert outputs["pool"] == outputs["thread"]

    def test_conservation_in_pool_service_json(self, tmp_path):
        import json

        from repro.apps.bro import Bro
        from repro.apps.bro.parallel import BroLaneSpec
        from repro.host.service import HostService, ServiceConfig

        trace = list(_trace(sessions=4, queries=10, seed=9))
        spec = BroLaneSpec({"scripts": None, "parsers": "std",
                            "scripts_engine": "interp", "log_enabled": True,
                            "watchdog_budget": None, "opt_level": None,
                            "metrics": False, "trace": False})
        config = ServiceConfig(lanes=2, lane_transport="pool",
                               http_host=None, http_port=None,
                               logdir=str(tmp_path))
        service = HostService(lambda services: Bro(), list(trace),
                              config, spec=spec)
        assert service.serve() == 0
        # The discovery file dies with the service; the terminal record
        # lands in service-final.json.
        assert not (tmp_path / "service.json").exists()
        doc = json.loads((tmp_path / "service-final.json").read_text())
        totals = doc["totals"]
        assert totals["packets_ingested"] == (
            totals["packets_processed"] + totals["packets_shed"]
            + totals["packets_lost"] + totals["packets_dropped"])
        assert doc["config"]["lane_transport"] == "pool"
        # Under the shed policy the ring is the lane's burst buffer:
        # service lanes keep 1 MiB rings, not the batch-sized default.
        assert service.lanes[0].pool._states[0].in_ring.capacity == 1 << 20

    def test_session_bounds_reach_pool_lanes(self, tmp_path):
        # Pool lanes are built in worker processes from the pickled
        # spec; the service's bounds must travel in it.
        from repro.apps.binpac.app import PacApp, PacLaneSpec
        from repro.host.service import HostService, ServiceConfig

        trace = list(_trace(sessions=4, queries=60, seed=11))
        spec = PacLaneSpec({"protocols": ("dns",), "opt_level": None,
                            "watchdog_budget": None, "metrics": False,
                            "trace": False})

        def make_app(services):
            return PacApp(protocols=("dns",), services=services)

        evicted = {}
        for transport in ("thread", "pool"):
            config = ServiceConfig(
                lanes=2, lane_transport=transport, http_host=None,
                http_port=None, logdir=str(tmp_path / transport),
                max_sessions=8)
            service = HostService(make_app, list(trace), config, spec=spec)
            assert service.serve() == 0
            evicted[transport] = sum(lane.end_stats["sessions_evicted"]
                                     for lane in service.lanes)
        assert evicted["pool"] > 0
        assert evicted["pool"] == evicted["thread"]

    def test_pool_lanes_crash_restart_and_drain(self, tmp_path):
        """service.lane faults crash pool workers mid-run; the one crash
        routine restarts them with backoff and the drain still exits
        cleanly with exact conservation."""
        from repro.host.service import HostService, ServiceConfig

        trace = list(_trace(sessions=20, queries=120, seed=13))

        def paced():
            # Slow enough that crashed lanes outlive their backoff.
            for index, record in enumerate(trace):
                if index % 10 == 0:
                    time.sleep(0.005)
                yield record

        config = ServiceConfig(
            lanes=2, lane_transport="pool", http_host=None,
            http_port=None, backoff_base=0.01, backoff_cap=0.05,
            breaker_min_starts=1000, inject_rates={"service.lane": 0.01},
            fault_seed=4, logdir=str(tmp_path))
        service = HostService(lambda services: None, paced(), config,
                              spec=BpfLaneSpec(dict(BPF_CONFIG)))
        assert service.serve() == 0
        totals = service.totals()
        assert totals["lane_crashes"] > 0
        assert totals["lane_restarts"] > 0
        assert totals["packets_lost"] > 0
        assert not any(lane.failed for lane in service.lanes)
        assert totals["packets_ingested"] == len(trace) == (
            totals["packets_processed"] + totals["packets_shed"]
            + totals["packets_lost"] + totals["packets_dropped"])
        assert (tmp_path / "results.log").exists()

    def test_pool_lane_reporting(self, tmp_path):
        """Pool lanes report sheds and sessions through the lane
        interface: the per-lane shed series add up to packets_shed, and
        the final session totals are the lanes' end stats."""
        import json

        from repro.apps.binpac.app import PacLaneSpec
        from repro.host.service import HostService, ServiceConfig

        trace = list(_trace(sessions=4, queries=60, seed=11))
        spec = PacLaneSpec({"protocols": ("dns",), "opt_level": None,
                            "watchdog_budget": None, "metrics": False,
                            "trace": False})
        config = ServiceConfig(
            lanes=2, lane_transport="pool", overload="shed",
            max_sessions=8, http_host=None, http_port=None,
            logdir=str(tmp_path))
        service = HostService(lambda services: None, trace, config,
                              spec=spec)
        assert service.serve() == 0
        totals = service.totals()
        shed = [entry["value"] for entry in service.metrics.collect()
                if entry["name"] == "service.queue_shed"]
        assert len(shed) == 2
        assert sum(shed) == totals["packets_shed"]
        evicted = sum(lane.end_stats["sessions_evicted"]
                      for lane in service.lanes)
        assert evicted > 0
        final = json.loads((tmp_path / "service-final.json").read_text())
        assert final["sessions"]["evicted"] == evicted
        assert service.session_totals()["evicted"] == evicted
