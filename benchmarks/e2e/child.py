"""One workload, pcap in -> logs on disk, inside a fresh process.

``run.py`` starts this file once per round with a JSON spec in
``argv[1]`` and reads the result back from ``spec["result"]``.  The
process does set-up (imports, compilers, pool spawn), then the *run
region* — the program's own ``run_pcap``/``serve`` call until every
output file is closed — and reports what it measured around those
calls.  Nothing under ``src/`` is instrumented: with ``mode: "trace"``
this file drives the public loop itself (``PcapReader`` iteration,
``on_begin/on_packet/on_end``, the log writers) and records one span
per stage per 1024-packet batch, then times each layer's public
functions alone on the same pcap.  End-to-end numbers never come from
a traced process.
"""

import contextlib
import itertools
import json
import os
import sys
import time

BATCH = 1024            # packets per traced span
WORKERS = 2             # pool workers / service lanes (= nproc of the reference host)
BPF_FILTER = "tcp and port 80"
OPEN_LOOP_PPS = 1500    # paced phase of the traced svc-bro run
OPEN_LOOP_WARMUP_S = 1.0
OPEN_LOOP_MEASURE_S = 8.0

# name -> what runs.  ``ref`` names the workload whose logs the output
# checks compare against (run.py); entries without ``why`` are
# reference-only and not part of the benchmark.
WORKLOADS = {
    "bro-http": dict(
        trace="http", kind="bro", parsers="pac", scripts="hilti",
        ref="bro-std-http", check="agreement",
        why="headline: reassembly + BinPAC++ parsing + compiled scripts + "
            "glue on TCP/HTTP, the paper's full HILTI configuration "
            "(http trace: 800 sessions, ~10.7k packets, mean ~460 B)"),
    "bro-dns": dict(
        trace="dns", kind="bro", parsers="pac", scripts="hilti",
        ref="bro-std-dns", check="agreement",
        why="smallest packets, a new flow every two packets: per-packet and "
            "per-flow cost dominates, reassembly does nothing "
            "(dns trace: 5000 queries, ~9.9k packets, mean ~95 B)"),
    "bro-std-http": dict(
        trace="http", kind="bro", parsers="std", scripts="interp",
        ref="bro-http", check="agreement",
        why="bypass: same bytes as bro-http with zero HILTI instructions; "
            "an engine change must leave it flat"),
    "bpf-mixed": dict(
        trace="mixed", kind="bpf", engine="compiled",
        ref="bpf-vm-mixed", check="accepted",
        why="per-packet floor: pcap read + decode + one engine entry per "
            "packet, no per-flow analysis to dilute decode savings (mixed "
            "trace: http 1200, dns 7000, ssh 60, tftp 60; ~31k packets)"),
    "bro-http-telem": dict(
        trace="http", kind="bro", parsers="pac", scripts="hilti",
        telemetry=True, ref="bro-http", check="identical",
        why="bro-http with metrics and flow tracing on and written: prices "
            "the enabled telemetry path"),
    "bro-pool2": dict(
        trace="http", kind="pool", parsers="pac", scripts="hilti",
        ref="bro-http", check="identical",
        why="2 pool workers: dispatch plan, worker codec, shm ring, merge; "
            "the only place ring copies and backend changes show"),
    "svc-bro": dict(
        trace="http", kind="service", parsers="pac", scripts="hilti",
        ref="bro-http", check="stream-counts",
        why="streaming service, 2 thread lanes fed unpaced under "
            "backpressure: placement, bounded queues, supervision, drain"),
    "bro-std-dns": dict(
        trace="dns", kind="bro", parsers="std", scripts="interp"),
    "bpf-vm-mixed": dict(trace="mixed", kind="bpf", engine="vm"),
}

BRO_STREAMS = ("conn", "dns", "files", "http", "weird")


# -- spans -------------------------------------------------------------------


class Recorder:
    """In-memory spans ``[name, start_ns, end_ns, parent, run_id, count,
    busy_ns]``, written out when the process ends."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def add(self, name, start, end, count=0, parent=None, busy=None):
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append([name, start, end, parent, self.run_id, count,
                           end - start if busy is None else busy])
        return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name, count=0):
        """A nested span on the calling thread; yields its index."""
        index = self.add(name, time.perf_counter_ns(), 0, count)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            span = self.spans[index]
            span[2] = time.perf_counter_ns()
            span[6] = span[2] - span[1]


def self_times(spans):
    """Self time per stage name: each span's duration minus the part
    its children cover."""
    covered = [0] * len(spans)
    for span in spans:
        if span[3] is not None:
            covered[span[3]] += span[2] - span[1]
    out = {}
    for span, child_ns in zip(spans, covered):
        out[span[0]] = out.get(span[0], 0) + (span[2] - span[1]) - child_ns
    return out


# -- process accounting --------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def _proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as stream:
        fields = stream.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK   # utime + stime


def cpu_s(pids):
    """User+sys CPU of this process and the live descendants *pids*
    (pool workers are not reaped until exit, so ``os.times`` misses
    them)."""
    return time.process_time() + sum(_proc_cpu_s(pid) for pid in pids)


def _peak_kb(pid):
    with open(f"/proc/{pid}/status") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def peak_rss_mb(pids):
    """This process's high-water RSS plus the largest descendant's.
    Read from ``VmHWM``: ``ru_maxrss`` survives ``exec`` and would
    report the harness's own size."""
    return (_peak_kb("self")
            + max((_peak_kb(pid) for pid in pids), default=0)) / 1024.0


# -- set-up ------------------------------------------------------------------


def load(kind):
    """Import what the workload needs (``setup.import_s``)."""
    import repro.host.pipeline  # noqa: F401
    import repro.net.flowrecord  # noqa: F401
    if kind == "bpf":
        import repro.apps.bpf.app  # noqa: F401
    else:
        import repro.apps.bro  # noqa: F401
    if kind == "pool":
        import repro.host.pool  # noqa: F401
    if kind == "service":
        import repro.host.service  # noqa: F401


def toolchain_times(w):
    """Time each compiler alone, on a throwaway app, before anything
    else has warmed it."""
    out = {"setup.scripts_compile_s": 0.0, "setup.pac_compile_s": 0.0,
           "setup.bpf_compile_s": 0.0}
    begin = time.perf_counter()
    if w["kind"] == "bpf":
        from repro.apps.bpf.app import BpfApp

        BpfApp(BPF_FILTER, engine=w["engine"])
        out["setup.bpf_compile_s"] = time.perf_counter() - begin
        return out
    from repro.apps.bro import Bro

    pac = None
    if w["parsers"] == "pac":
        from repro.apps.bro.analyzers.pac import PacParsers

        pac = PacParsers()
        out["setup.pac_compile_s"] = time.perf_counter() - begin
        begin = time.perf_counter()
    Bro(parsers=w["parsers"], scripts_engine=w["scripts"], pac_parsers=pac)
    out["setup.scripts_compile_s"] = time.perf_counter() - begin
    return out


class Source:
    """The service's packet source, owned by the harness: one pass over
    the pcap.  Unpaced it is a closed loop of one client — the service's
    backpressure sets the rate.  With *rate* it is an open loop: packet
    i is due at ``t0 + i/rate`` whether or not the service keeps up, and
    ``late_ns`` records how far behind its schedule the generator ran."""

    def __init__(self, pcap, rec=None, rate=None, limit=None):
        self.pcap = pcap
        self.rec = rec
        self.root = None        # parent span for source.read
        self.stamps = (LaneStamps(rec)
                       if rec is not None or rate is not None else None)
        self.rate = rate
        self.limit = limit
        self.frames = []        # open loop: keeps ids unique
        self.due_ns = []
        self.late_ns = []
        self.exhausted_ns = None

    def __iter__(self):
        from repro.net.pcap import PcapReader

        clock = time.perf_counter_ns
        with PcapReader(self.pcap) as reader:
            if self.rate is not None:
                yield from self._paced(reader, clock)
            elif self.rec is not None:
                yield from self._traced(reader, clock)
            else:
                yield from reader
        self.exhausted_ns = clock()

    def _traced(self, reader, clock):
        records = iter(reader)
        start = clock()
        busy = count = 0
        while True:
            t0 = clock()
            record = next(records, None)
            busy += clock() - t0
            if record is not None:
                yield record
                count += 1
            if count == BATCH or (record is None and count):
                self.rec.add("source.read", start, clock(), count,
                             self.root, busy)
                start = clock()
                busy = count = 0
            if record is None:
                return

    def _paced(self, reader, clock):
        interval = 1e9 / self.rate
        t0 = clock()
        for i, record in enumerate(itertools.islice(reader, self.limit)):
            due = t0 + int(i * interval)
            now = clock()
            if now < due:
                time.sleep((due - now) / 1e9)
                now = clock()
            self.frames.append(record[1])
            self.due_ns.append(due)
            self.late_ns.append(now - due)
            yield record


class LaneStamps:
    """``make_app`` wrapper for the traced service runs: stamps every
    ``on_packet`` return (open loop) and records one ``lane.on_packet``
    span per batch with its busy time (closed loop)."""

    def __init__(self, rec=None):
        self.rec = rec
        self.root = None
        self.done_ns = {}       # id(frame) -> ns on_packet returned
        self._flushes = []

    def wrap(self, app):
        inner = app.on_packet
        clock = time.perf_counter_ns
        state = {"start": 0, "busy": 0, "count": 0}

        def flush(now):
            if state["count"] and self.rec is not None:
                self.rec.add("lane.on_packet", state["start"], now,
                             state["count"], self.root, state["busy"])
            state["busy"] = state["count"] = 0

        def on_packet(timestamp, frame):
            t0 = clock()
            inner(timestamp, frame)
            t1 = clock()
            self.done_ns[id(frame)] = t1
            if not state["count"]:
                state["start"] = t0
            state["busy"] += t1 - t0
            state["count"] += 1
            if state["count"] == BATCH:
                flush(t1)

        app.on_packet = on_packet
        self._flushes.append(flush)
        return app

    def flush(self):
        now = time.perf_counter_ns()
        for flush in self._flushes:
            flush(now)


def make_service(w, logdir, source):
    from repro.apps.bro import Bro
    from repro.apps.bro.parallel import BroLaneSpec
    from repro.host.service import HostService, ServiceConfig

    def make_app(services):
        app = Bro(parsers=w["parsers"], scripts_engine=w["scripts"],
                  fault_injector=services.faults,
                  watchdog_budget=services.watchdog_budget,
                  telemetry=services.telemetry)
        stamps = source.stamps
        return stamps.wrap(app) if stamps is not None else app

    config = ServiceConfig(
        lanes=WORKERS, lane_transport="thread", queue_capacity=512,
        overload="block", http_port=None, logdir=logdir, app_name="bro")
    return HostService(make_app, source, config, spec=BroLaneSpec())


def setup(w, pcap, logdir, rec=None):
    """Everything before the first packet; returns ``(target, pids)``
    where *pids* are the descendants the run region will use."""
    kind = w["kind"]
    if kind == "bpf":
        from repro.apps.bpf.app import BpfApp

        return BpfApp(BPF_FILTER, engine=w["engine"]), []
    if kind == "bro":
        from repro.apps.bro import Bro
        from repro.runtime.telemetry import Telemetry

        telemetry = (Telemetry(metrics=True, trace=True)
                     if w.get("telemetry") else None)
        return Bro(parsers=w["parsers"], scripts_engine=w["scripts"],
                   telemetry=telemetry), []
    if kind == "pool":
        from repro.apps.bro import ParallelBro
        from repro.host.pool import WorkerPool

        target = ParallelBro(workers=WORKERS, backend="pool",
                             parsers=w["parsers"],
                             scripts_engine=w["scripts"])
        return target, WorkerPool.shared(WORKERS).pids()
    return make_service(w, logdir, Source(pcap, rec)), []


# -- the run region ------------------------------------------------------------


def drive(w, target, pcap, rec):
    """Packets through the app; returns ``(processed, stats)``.  Untraced
    this is one call into the program's own loop."""
    kind = w["kind"]
    if kind == "service":
        if rec is None:
            code = target.serve()
        else:
            with rec.span("service.serve") as root:
                source = target.source
                source.root = source.stamps.root = root
                code = target.serve()
                source.stamps.flush()
        totals = target.totals()
        clean = (code == 0
                 and totals["packets_ingested"] == totals["packets_processed"]
                 and not (totals["packets_shed"] or totals["packets_lost"]
                          or totals["packets_dropped"]))
        stats = _sum_stats(lane.end_stats or {} for lane in target.lanes)
        return (int(totals["packets_processed"]) if clean else 0), stats
    if rec is None:
        if kind == "pool":
            stats = target.run_pcap(pcap)
        else:
            from repro.host.pipeline import Pipeline

            stats = Pipeline(target).run_pcap(pcap)
        return stats["packets"], stats
    from repro.net.pcap import PcapReader, read_pcap

    if kind == "pool":
        with rec.span("pcap.read") as index:
            packets = read_pcap(pcap)
            rec.spans[index][5] = len(packets)
        with rec.span("parallel.run", len(packets)):
            stats = target.run(packets)
        return stats["packets"], stats
    with PcapReader(pcap) as reader:
        clock = time.perf_counter_ns
        with rec.span("app.on_begin"):
            target.on_begin()
        records = iter(reader)
        while True:
            t0 = clock()
            batch = list(itertools.islice(records, BATCH))
            t1 = clock()
            if not batch:
                break
            for timestamp, frame in batch:
                target.on_packet(timestamp, frame)
            rec.add("pcap.read", t0, t1, len(batch))
            rec.add("app.on_packet", t1, clock(), len(batch))
        with rec.span("app.on_end"):
            stats = target.on_end()
    return stats["packets"], stats


def _sum_stats(parts):
    out = {}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, int) and not isinstance(value, bool):
                out[key] = out.get(key, 0) + value
    return out


def write_outputs(w, target, logdir, rec):
    """Logs and flow records onto disk (the service wrote its own in
    ``serve``); returns the traced-only numbers about them."""
    from repro.net.flowrecord import write_flowrecords_jsonl

    span = (rec.span if rec is not None
            else lambda name: contextlib.nullcontext())
    kind = w["kind"]
    if kind == "service":
        return {}
    records_path = os.path.join(logdir, "flow_records.jsonl")
    if kind == "pool":
        with span("logs.save"):
            target.save_logs(logdir)
        with span("flow_records.write"):
            write_flowrecords_jsonl(records_path, "bro",
                                    target.flow_record_lines())
        return {}
    out = {}
    if rec is not None:
        with span("logs.result_lines"):
            target.result_lines()
    with span("logs.save"):
        if kind == "bpf":
            with open(os.path.join(logdir, "results.log"), "w") as stream:
                for line in target.result_lines():
                    stream.write(line + "\n")
        else:
            target.core.logs.save(logdir)
    if w.get("telemetry"):
        with span("telemetry.write"):     # writes flow_records.jsonl too
            written = target.write_telemetry(logdir)
        tracer = target.telemetry.tracer
        out["telemetry.series"] = len(target.telemetry.metrics.collect())
        out["telemetry.spans_started"] = tracer.spans_started
        out["telemetry.spans_dropped"] = tracer.spans_dropped
        out["telemetry.bytes"] = sum(
            os.path.getsize(path) for path in written
            if not path.endswith("flow_records.jsonl"))
    else:
        with span("flow_records.write"):
            write_flowrecords_jsonl(records_path, target.name,
                                    target.flow_record_lines())
    return out


# -- traced-only layer numbers ---------------------------------------------------


def app_layers(w, target, stats, packets):
    """Per-packet attribution from what the app itself returned: the
    ``stats`` dict and ``engine_contexts()``."""
    out = {}
    for part in ("parsing", "script", "glue", "other"):
        out[f"app.{part}_ns_per_pkt"] = stats.get(f"{part}_ns", 0) / packets
    out["bro.events_per_pkt"] = stats.get("events", 0) / packets
    if w["kind"] == "service":
        apps = [lane.app for lane in target.lanes if lane.app is not None]
    elif w["kind"] == "pool":
        apps = []       # lanes live in the workers
    else:
        apps = [target]
    contexts = [ctx for app in apps for _, ctx in app.engine_contexts()]
    instr = sum(ctx.instr_count for ctx in contexts)
    out["engine.instr_per_pkt"] = instr / packets
    out["engine.blocks_per_pkt"] = sum(
        ctx.blocks_dispatched for ctx in contexts) / packets
    out["engine.segments_per_pkt"] = sum(
        ctx.segments_dispatched for ctx in contexts) / packets
    out["engine.allocs_per_pkt"] = sum(
        ctx.alloc_stats.allocations for ctx in contexts) / packets
    engine_ns = stats.get("parsing_ns", 0) + stats.get("script_ns", 0)
    out["engine.ns_per_instr"] = engine_ns / instr if instr else 0.0
    trackers = [app.tracker for app in apps if hasattr(app, "tracker")]
    if trackers:
        out["flowtable.peak_open"] = sum(t.peak_flows for t in trackers)
    return out


def open_loop(w, pcap, logdir):
    """The paced phase of the traced service run: each packet is timed
    from when it was due to when its ``on_packet`` returned."""
    total_s = OPEN_LOOP_WARMUP_S + OPEN_LOOP_MEASURE_S
    source = Source(pcap, rate=OPEN_LOOP_PPS,
                    limit=int(OPEN_LOOP_PPS * total_s))
    stamps = source.stamps
    make_service(w, logdir, source).serve()
    skip = int(OPEN_LOOP_PPS * OPEN_LOOP_WARMUP_S)
    latency = sorted(
        (stamps.done_ns[id(frame)] - due) / 1e6
        for frame, due in zip(source.frames[skip:], source.due_ns[skip:])
        if id(frame) in stamps.done_ns)
    late = sorted(ns / 1e6 for ns in source.late_ns[skip:])
    if not latency:
        return {}
    return {
        "service.lat_p50_ms": latency[len(latency) // 2],
        "service.lat_p99_ms": latency[int(len(latency) * 0.99)],
        "service.gen_late_p99_ms": late[int(len(late) * 0.99)],
    }


def layer_drives(pcap):
    """Each layer's public functions alone over the same pcap."""
    from repro.apps.bro.parallel import BroLaneSpec
    from repro.host.flowtable import FlowTable
    from repro.host.parallel import dispatch_plan
    from repro.host.pool import WorkerPool
    from repro.host.ring import MessageChannel, ShmRing
    from repro.host.worker import MSG_DATA, decode_batch, encode_packet
    from repro.net.flowrecord import format_record_uid
    from repro.net.flows import frame_flow_info
    from repro.net.packet import PacketError, TCPSegment, parse_ethernet
    from repro.net.pcap import read_pcap
    from repro.net.reassembly import ConnectionReassembler

    clock = time.perf_counter_ns
    out = {}

    begin = clock()
    packets = read_pcap(pcap)
    n = len(packets)
    out["pcap.read_ns_per_pkt"] = (clock() - begin) / n
    out["pcap.bytes"] = os.path.getsize(pcap)

    decoded = []
    begin = clock()
    for _, frame in packets:
        try:
            decoded.append(parse_ethernet(frame))
        except PacketError:
            decoded.append(None)
    out["packet.decode_ns_per_pkt"] = (clock() - begin) / n

    begin = clock()
    infos = [frame_flow_info(frame) for _, frame in packets]
    out["flows.key_ns_per_pkt"] = (clock() - begin) / n

    table = FlowTable(uid_format=format_record_uid)
    begin = clock()
    for (timestamp, _), info in zip(packets, infos):
        if info is not None:
            table.account(info[0], timestamp.seconds, payload_len=info[1],
                          tcp_flags=info[2])
    out["flowtable.account_ns_per_pkt"] = (clock() - begin) / n
    out["flowtable.flows"] = table.serial
    out["flowtable.peak_open"] = len(table)

    connections = {}
    feeds = []
    for parsed, info in zip(decoded, infos):
        if parsed is None or not isinstance(parsed[1], TCPSegment):
            continue
        key = info[0].canonical()
        entry = connections.get(key)
        if entry is None:
            entry = connections[key] = (ConnectionReassembler(), info[0])
        feeds.append((entry[0], info[0] == entry[1], parsed[1]))
    begin = clock()
    for reassembler, is_orig, segment in feeds:
        reassembler.feed_segment(is_orig, segment)
    out["reassembly.ns_per_segment"] = (
        (clock() - begin) / len(feeds) if feeds else 0.0)
    totals = [entry[0].stats() for entry in connections.values()]
    out["reassembly.bytes_delivered"] = sum(
        s["delivered_bytes"] for s in totals)
    out["reassembly.gaps"] = sum(s["gap_bytes"] for s in totals)

    begin = clock()
    jobs, _ = dispatch_plan(packets, 4 * WORKERS, WORKERS,
                            spec=BroLaneSpec())
    out["parallel.plan_ns_per_pkt"] = (clock() - begin) / n
    lanes = [0] * WORKERS
    for vid, _, _ in jobs:
        lanes[vid % WORKERS] += 1
    out["parallel.lane_skew"] = max(lanes) / (n / WORKERS)

    batches = []
    begin = clock()
    batch = bytearray()
    count = 0
    for _, nanos, frame in jobs:
        encode_packet(batch, nanos, frame)
        count += 1
        if (count == WorkerPool.BATCH_PACKETS
                or len(batch) >= WorkerPool.BATCH_BYTES):
            batches.append(bytes(batch))
            batch = bytearray()
            count = 0
    if count:
        batches.append(bytes(batch))
    for payload in batches:
        for _ in decode_batch(payload):
            pass
    out["worker.codec_ns_per_pkt"] = (clock() - begin) / n

    ring = ShmRing(1 << 20)
    try:
        channel = MessageChannel(ring)
        retries = 0
        begin = clock()
        for payload in batches:
            while not channel.send(MSG_DATA, payload, timeout=0):
                retries += 1        # full: be the consumer for a while
                while channel.recv() is not None:
                    pass
        while channel.recv() is not None:
            pass
        out["ring.ns_per_pkt"] = (clock() - begin) / n
    finally:
        ring.close()
    out["ring.bytes_per_pkt"] = sum(len(b) for b in batches) / n
    out["ring.full_retries"] = retries

    begin = time.perf_counter()
    pool = WorkerPool(WORKERS)
    out["pool.spawn_s"] = time.perf_counter() - begin
    pool.close()
    return out


# -- main ----------------------------------------------------------------------


def main(spec):
    w = WORKLOADS[spec["workload"]]
    mode = spec["mode"]                 # run | trace
    pcap, logdir = spec["pcap"], spec["logdir"]
    os.makedirs(logdir, exist_ok=True)
    result = {"workload": spec["workload"], "mode": mode}
    layers = {}
    rec = Recorder(spec["run_id"]) if mode == "trace" else None

    begin = time.perf_counter()
    load(w["kind"])
    if rec is not None:
        layers["setup.import_s"] = time.perf_counter() - begin
        layers.update(toolchain_times(w))
    target, pids = setup(w, pcap, logdir, rec)
    result["setup_s"] = time.time() - spec["spawned_at"]

    cpu0 = cpu_s(pids)
    wall0 = time.perf_counter()
    with (rec.span("run") if rec is not None
          else contextlib.nullcontext()) as root:
        processed, stats = drive(w, target, pcap, rec)
        layers.update(write_outputs(w, target, logdir, rec))
    result["wall_s"] = time.perf_counter() - wall0
    result["cpu_s"] = cpu_s(pids) - cpu0
    result["peak_rss_mb"] = peak_rss_mb(pids)
    result["processed"] = processed
    if "accepted" in stats:
        result["accepted"] = stats["accepted"]
    if rec is None:
        return result

    own = self_times(rec.spans)
    wall_ns = rec.spans[root][2] - rec.spans[root][1]
    layers.update(layer_drives(pcap))
    layers.update(app_layers(w, target, stats, max(1, processed)))
    for stage in ("app.on_end", "logs.save", "logs.result_lines",
                  "telemetry.write"):
        layers[f"{stage}_s"] = own.get(stage, 0) / 1e9
    layers["harness.trace_coverage_frac"] = 1.0 - own["run"] / wall_ns
    if w["kind"] == "service":
        layers["service.queue_depth_max"] = max(
            lane.queue.high_water for lane in target.lanes)
        layers["service.shed"] = int(target.totals()["packets_shed"])
        serve = next(s for s in rec.spans if s[0] == "service.serve")
        layers["service.drain_s"] = (
            serve[2] - target.source.exhausted_ns) / 1e9
        if spec["open_loop"]:
            layers.update(
                open_loop(w, pcap, os.path.join(logdir, "open-loop")))
    result["layers"] = layers
    with open(spec["trace_path"], "w") as stream:
        json.dump({
            "workload": spec["workload"], "run_id": rec.run_id,
            "fields": ["name", "start_ns", "end_ns", "parent", "run_id",
                       "count", "busy_ns"],
            "spans": rec.spans, "wall_ns": wall_ns, "self_ns": own,
            "on_packet_split_ns": {
                part: stats.get(f"{part}_ns", 0)
                for part in ("parsing", "script", "glue", "other")},
        }, stream)
    return result


if __name__ == "__main__":
    _spec = json.loads(sys.argv[1])
    _result = main(_spec)
    with open(_spec["result"], "w") as _stream:
        json.dump(_result, _stream)
