#!/usr/bin/env python3
"""benchmarks/e2e — pcap in, logs out: the repo's benchmark.

    python3 benchmarks/e2e/run.py [--seed 101] [--rounds N]
        [--workloads a,b] [--trace] [--out DIR] [--scale K] [--calibrate]

generates seeded traces with ``repro.net.tracegen``, runs every workload
pcap-in -> logs-on-disk in a fresh child process per round (rounds
interleaved across workloads), checks the outputs, and prints every
metric by name with unit, median, quartiles and sample count.  The
same file is the ``BENCHMARK.json`` command:

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

measures one workload for S seconds and prints one JSON object as the
last line of stdout.  See README.md next to this file for the metrics,
the workloads and why each is there.
"""

import argparse
import collections
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

from child import BRO_STREAMS, WORKLOADS  # noqa: E402

PUBLIC = [name for name, w in WORKLOADS.items() if "why" in w]
DEV_SEED, HELD_OUT_SEED = 101, 202
#: Trace sizes as a share of the issue's http-53k / dns-49k / mixed-150k
#: (sessions 4000, queries 25000, mixed 6000/35000/300/300): the
#: contract's time cap on 4 + 22 x 7 runs does not fit the full sizes.
SCALE = 0.2
CHILD_TIMEOUT_S = 150
#: A --seconds run makes at least this many rounds: the host's speed
#: drifts over seconds, and a median needs samples on both sides of it.
MIN_ROUNDS = 5
TRACED_ROUNDS = 3       # untraced/traced pairs in a --trace run

# (name, unit, better); BENCHMARK.json repeats the first four with bounds.
END_TO_END = [
    ("pkts_per_s", "1/s", "higher"),
    ("cpu_us_per_pkt", "us/pkt", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("fail_frac", "ratio", "lower"),
]
DEFAULT_BOUNDS = {"pkts_per_s": 0.07, "cpu_us_per_pkt": 0.07,
                  "setup_s": 0.10, "peak_rss_mb": 0.05, "fail_frac": 0.0}
PER_LAYER = [
    ("pcap.read_ns_per_pkt", "ns/pkt", "lower"),
    ("pcap.bytes", "bytes", "lower"),
    ("packet.decode_ns_per_pkt", "ns/pkt", "lower"),
    ("flows.key_ns_per_pkt", "ns/pkt", "lower"),
    ("flowtable.account_ns_per_pkt", "ns/pkt", "lower"),
    ("flowtable.flows", "count", "lower"),
    ("flowtable.peak_open", "count", "lower"),
    ("reassembly.ns_per_segment", "ns/segment", "lower"),
    ("reassembly.bytes_delivered", "bytes", "higher"),
    ("reassembly.gaps", "bytes", "lower"),
    ("app.parsing_ns_per_pkt", "ns/pkt", "lower"),
    ("app.script_ns_per_pkt", "ns/pkt", "lower"),
    ("app.glue_ns_per_pkt", "ns/pkt", "lower"),
    ("app.other_ns_per_pkt", "ns/pkt", "lower"),
    ("app.on_end_s", "s", "lower"),
    ("bro.events_per_pkt", "1/pkt", "lower"),
    ("engine.instr_per_pkt", "1/pkt", "lower"),
    ("engine.blocks_per_pkt", "1/pkt", "lower"),
    ("engine.segments_per_pkt", "1/pkt", "lower"),
    ("engine.allocs_per_pkt", "1/pkt", "lower"),
    ("engine.ns_per_instr", "ns", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.scripts_compile_s", "s", "lower"),
    ("setup.pac_compile_s", "s", "lower"),
    ("setup.bpf_compile_s", "s", "lower"),
    ("logs.lines", "count", "higher"),
    ("logs.bytes", "bytes", "higher"),
    ("logs.save_s", "s", "lower"),
    ("logs.result_lines_s", "s", "lower"),
    ("parallel.plan_ns_per_pkt", "ns/pkt", "lower"),
    ("parallel.lane_skew", "ratio", "lower"),
    ("worker.codec_ns_per_pkt", "ns/pkt", "lower"),
    ("ring.ns_per_pkt", "ns/pkt", "lower"),
    ("ring.bytes_per_pkt", "bytes/pkt", "lower"),
    ("ring.full_retries", "count", "lower"),
    ("pool.spawn_s", "s", "lower"),
    ("pool.speedup", "ratio", "higher"),
    ("pool.cpu_overhead", "ratio", "lower"),
    ("service.overhead", "ratio", "higher"),
    ("service.lat_p50_ms", "ms", "lower"),
    ("service.lat_p99_ms", "ms", "lower"),
    ("service.gen_late_p99_ms", "ms", "lower"),
    ("service.queue_depth_max", "count", "lower"),
    ("service.shed", "count", "lower"),
    ("service.drain_s", "s", "lower"),
    ("telemetry.overhead_frac", "ratio", "lower"),
    ("telemetry.write_s", "s", "lower"),
    ("telemetry.series", "count", "higher"),
    ("telemetry.spans_started", "count", "higher"),
    ("telemetry.spans_dropped", "count", "lower"),
    ("telemetry.bytes", "bytes", "lower"),
    ("harness.trace_overhead_frac", "ratio", "lower"),
    ("harness.trace_coverage_frac", "ratio", "higher"),
    ("harness.tracegen_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}
#: Check (4): minimum share of normalized log lines the BinPAC++/HILTI
#: run and the std/interp run must have in common, per trace and stream.
#: The two parser sets differ on the trace's 206 and crud requests, a
#: 2 % draw per request: over 59 seeds at 800 sessions http.log agreed
#: 0.981 +- 0.003 and files.log 0.979 +- 0.003 (lowest 0.9704 / 0.9679),
#: so the issue's 0.97 floor, set for 4000 sessions, is under three
#: standard deviations from the mean here and failed one seed of the 59.
#: 0.95 is nine away at this size, and a broken parser or script still
#: lands far below it.  dns.log agreed 0.9990-0.9998 over 52 seeds.
AGREEMENT = {"http": {"conn": 1.0, "http": 0.95, "files": 0.95},
             "dns": {"dns": 0.995}}


# -- statistics ----------------------------------------------------------------


def summarize(values):
    """Median, quartiles (``statistics.quantiles(n=4)``) and count."""
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def host_metadata():
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
        "loadavg": list(os.getloadavg()),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def code_id():
    """Changes whenever a source file does; keys the reference cache."""
    digest = hashlib.sha256()
    for top in (SRC, HERE):
        for folder, _, names in sorted(os.walk(top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    stat = os.stat(path)
                    digest.update(f"{path}:{stat.st_size}:{stat.st_mtime_ns};"
                                  .encode())
    return digest.hexdigest()[:12]


# -- traces --------------------------------------------------------------------


def draw(name, seed, scale):
    """The named trace as ``(Time, frame)`` records.  The seed reaches
    every generator; the mixed trace's four protocols share one start
    time so their flows interleave.  HTTP draws from 250 clients x 100
    servers (the generator's default 40 x 15 reuses a closed
    connection's 5-tuple in ~1 % of the seeds at 800 sessions)."""
    from repro.net import tracegen as tg

    def n(base):
        return max(1, round(base * scale))

    def http(sessions, **kwargs):
        return tg.HttpTraceConfig(seed=seed, sessions=n(sessions),
                                  clients=250, servers=100, **kwargs)

    if name == "http":
        return tg.generate_http_trace(http(4000))
    if name == "dns":
        return tg.generate_dns_trace(
            tg.DnsTraceConfig(seed=seed + 1, queries=n(25000)))
    start = 1_400_000_000.0
    return tg.generate_mixed_trace(
        http(6000, start_time=start),
        tg.DnsTraceConfig(seed=seed + 1, queries=n(35000), start_time=start),
        tg.SshTraceConfig(seed=seed + 2, sessions=n(300), start_time=start),
        tg.TftpTraceConfig(seed=seed + 3, transfers=n(300),
                           start_time=start))


def reopens_a_connection(records):
    """True when two connection-opening SYNs share a 5-tuple: the
    parallel pipeline's documented divergence from the sequential one
    (docs/PARALLELISM.md), which check (3) would report as a failure of
    the program when it is a property of the input."""
    from repro.net.flows import frame_flow_info

    opened = set()
    for _, frame in records:
        info = frame_flow_info(frame)
        if info is not None and info[2] & 0x12 == 0x02:    # SYN, no ACK
            key = info[0].canonical()
            if key in opened:
                return True
            opened.add(key)
    return False


def generate(name, seed, scale):
    """``draw`` from *seed*, drawn again from a derived seed in the rare
    case that the trace reopens a connection's 5-tuple — still a pure
    function of the arguments."""
    for attempt in range(8):
        records = draw(name, seed + 1_000_003 * attempt, scale)
        if not reopens_a_connection(records):
            return records
    raise RuntimeError(f"no {name} trace without 5-tuple reuse near seed "
                       f"{seed}: raise clients in run.draw")


def make_trace(name, seed, scale, out):
    """Generate (or reuse) the pcap; returns its path, packet count,
    sha256 and generation time."""
    from repro.net.pcap import write_pcap

    folder = os.path.join(out, "traces")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{name}-seed{seed}-x{scale:g}.pcap")
    if os.path.exists(path + ".json"):
        with open(path + ".json") as stream:
            return json.load(stream)
    begin = time.perf_counter()
    packets = write_pcap(path, generate(name, seed, scale))
    gen_s = time.perf_counter() - begin
    with open(path, "rb") as stream:
        sha = hashlib.sha256(stream.read()).hexdigest()
    trace = {"name": name, "path": path, "packets": packets, "sha256": sha,
             "seed": seed, "scale": scale, "gen_s": gen_s}
    with open(path + ".json", "w") as stream:
        json.dump(trace, stream)
    return trace


# -- children ------------------------------------------------------------------


def run_child(workload, trace, mode, logdir, seed, run_id=0):
    """One fresh process; returns its result dict, with ``error`` set
    when it crashed, timed out or left no result."""
    shutil.rmtree(logdir, ignore_errors=True)
    os.makedirs(logdir)
    spec = {
        "workload": workload, "mode": mode, "pcap": trace["path"],
        "logdir": logdir, "run_id": run_id, "open_loop": run_id == 0,
        "result": os.path.join(logdir, "result.json"),
        "trace_path": os.path.join(logdir, "trace.json"),
    }
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(seed % 2**32))
    with open(os.path.join(logdir, "child.out"), "w") as log:
        spec["spawned_at"] = time.time()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"),
             json.dumps(spec)],
            stdout=log, stderr=subprocess.STDOUT, env=env,
            start_new_session=True)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            # The child's own exit closes its pool; this reaps anything
            # a crash or timeout left behind in its session.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if code == 0 and os.path.exists(spec["result"]):
        with open(spec["result"]) as stream:
            return json.load(stream)
    with open(os.path.join(logdir, "child.out")) as stream:
        tail = stream.read()[-2000:]
    return {"workload": workload, "mode": mode,
            "error": f"child exit {code}: {tail.strip()}"}


def read_outputs(logdir):
    """What the run left on disk: result lines per stream (headers
    dropped), flow-record lines, and the two fingerprints."""
    from repro.host.cli import fingerprint

    streams, size = {}, 0
    for name in BRO_STREAMS + ("results",):
        path = os.path.join(logdir, f"{name}.log")
        if os.path.exists(path):
            size += os.path.getsize(path)
            with open(path) as stream:
                streams[name] = [line for line in stream.read().splitlines()
                                 if not line.startswith("#fields")]
    records = []
    path = os.path.join(logdir, "flow_records.jsonl")
    if os.path.exists(path):
        with open(path) as stream:
            records = stream.read().splitlines()[1:]
    lines = sorted(line for part in streams.values() for line in part)
    return {"streams": streams, "bytes": size, "lines": len(lines),
            "fingerprint": fingerprint(lines),
            "flow_fingerprint": fingerprint(records)}


# -- output checks -----------------------------------------------------------------


def agreement(ours, theirs):
    """Table 2's measure: normalized (timestamp dropped, sorted, unique)
    lines in common over the larger side."""
    from repro.apps.bro import normalize_log

    a = set(normalize_log(ours, drop_columns=(0,)))
    b = set(normalize_log(theirs, drop_columns=(0,)))
    return len(a & b) / max(len(a), len(b), 1)


def check_determinism(workload, rounds):
    """Check (2): every round of a workload leaves the same bytes."""
    prints = {(r["fingerprint"], r["flow_fingerprint"])
              for r in rounds if "fingerprint" in r}
    if len(prints) > 1:
        return [f"{workload}: fingerprints differ across rounds (check 2)"]
    return []


def check_reference(workload, ours, ref):
    """Checks (3) and (4) against the reference workload's round."""
    w = WORKLOADS[workload]
    kind, name = w["check"], f"{workload} vs {w['ref']}"
    failures = []
    if kind == "identical":
        for key in ("fingerprint", "flow_fingerprint"):
            if ours["outputs"][key] != ref["outputs"][key]:
                failures.append(f"{name}: {key} differs (check 3)")
    elif kind == "stream-counts":
        def shape(outputs):     # streams differ in column count
            return collections.Counter(
                line.count("\t") for part in outputs["streams"].values()
                for line in part)
        if shape(ours["outputs"]) != shape(ref["outputs"]):
            failures.append(f"{name}: per-stream line counts differ "
                            "(check 3)")
    elif kind == "accepted":
        if ours.get("accepted") != ref.get("accepted"):
            failures.append(
                f"{name}: accepted {ours.get('accepted')} != "
                f"{ref.get('accepted')} (check 4)")
    else:
        for stream, floor in AGREEMENT[w["trace"]].items():
            share = agreement(ours["outputs"]["streams"].get(stream, []),
                              ref["outputs"]["streams"].get(stream, []))
            if share < floor:
                failures.append(f"{name}: {stream}.log agreement "
                                f"{share:.4f} < {floor} (check 4)")
    return failures


# -- the harness -------------------------------------------------------------------


class Harness:
    def __init__(self, seed, scale, out):
        self.seed, self.scale, self.out = seed, scale, out
        self.traces = {}
        self.rounds = collections.defaultdict(list)   # workload -> rounds
        self.layers = {}                              # workload -> metrics
        self.failures = []
        self._children = 0

    def trace(self, workload):
        name = WORKLOADS[workload]["trace"]
        if name not in self.traces:
            self.traces[name] = make_trace(name, self.seed, self.scale,
                                           self.out)
        return self.traces[name]

    def _logdir(self, workload):
        self._children += 1
        return os.path.join(self.out, "logs", f"{workload}-{self._children}")

    def round(self, workload, logdir=None):
        """One untraced round: child, outputs, conservation (check 1)."""
        trace = self.trace(workload)
        logdir = logdir or self._logdir(workload)
        result = run_child(workload, trace, "run", logdir, self.seed)
        packets = trace["packets"]
        result["logdir"] = logdir
        if "error" in result:
            self.failures.append(f"{workload}: {result['error']}")
            result["fail_frac"] = 1.0
            return result
        result["outputs"] = outputs = read_outputs(logdir)
        result["fingerprint"] = outputs["fingerprint"]
        result["flow_fingerprint"] = outputs["flow_fingerprint"]
        result["pkts_per_s"] = packets / result["wall_s"]
        result["cpu_us_per_pkt"] = result["cpu_s"] * 1e6 / packets
        result["fail_frac"] = (packets - result["processed"]) / packets
        if result["processed"] != packets:
            self.failures.append(
                f"{workload}: processed {result['processed']} of {packets} "
                "packets (check 1)")
        return result

    def measure(self, workloads, rounds=None, seconds=None):
        """Interleaved rounds: *rounds* of each workload, or — with
        *seconds* — rounds until each has measured that long."""
        pending = list(workloads)
        while pending:
            for workload in list(pending):
                done = self.rounds[workload]
                done.append(self.round(workload))
                if len(done) > 1:       # round 0's logs feed the checks
                    done[-1].pop("outputs", None)
                    shutil.rmtree(done[-1]["logdir"], ignore_errors=True)
                if "error" in done[-1]:
                    pending.remove(workload)
                elif rounds is not None:
                    if len(done) >= rounds:
                        pending.remove(workload)
                elif (len(done) >= MIN_ROUNDS and seconds <= sum(
                        r.get("wall_s", 0.0) for r in done)):
                    pending.remove(workload)

    def reference(self, workload):
        """The round the checks compare against: one measured in this
        invocation, else one kept from an earlier invocation on the
        same trace and code, else a fresh untimed one."""
        ref = WORKLOADS[workload]["ref"]
        good = [r for r in self.rounds.get(ref, []) if "outputs" in r]
        if good:
            return good[0]
        trace = self.trace(ref)
        logdir = os.path.join(
            self.out, "ref", f"{ref}-{trace['sha256'][:16]}-{code_id()}")
        kept = os.path.join(logdir, "round.json")
        if os.path.exists(kept):
            with open(kept) as stream:
                return json.load(stream)
        result = self.round(ref, logdir)
        if "error" not in result:
            with open(kept, "w") as stream:
                json.dump(result, stream)
        return result

    def check(self, workloads):
        """Checks (2)-(4); a failure fails every round of the workload."""
        for workload in workloads:
            rounds = self.rounds[workload]
            failures = check_determinism(workload, rounds)
            ours = next((r for r in rounds if "outputs" in r), None)
            if ours is not None:
                ref = self.reference(workload)
                if "outputs" in ref:
                    failures += check_reference(workload, ours, ref)
                else:
                    failures.append(f"{workload}: reference run failed")
            if failures:
                self.failures += failures
                for r in rounds:
                    r["fail_frac"] = 1.0

    def values(self, workload, metric, rounds=slice(None)):
        return [r[metric] for r in self.rounds[workload][rounds]
                if metric in r]

    def traced(self, workload):
        """The separate traced runs, each paired with an untraced round
        so the host's drift cancels: spans, the per-layer numbers (the
        median over the traced runs), and the ratios that need a second
        workload's untraced numbers."""
        trace = self.trace(workload)
        untraced, traced = [], []
        for index in range(TRACED_ROUNDS):
            self.measure([workload], rounds=len(self.rounds[workload]) + 1)
            untraced.append(self.rounds[workload][-1])
            logdir = self._logdir(workload)
            result = run_child(workload, trace, "trace", logdir, self.seed,
                               run_id=index)
            if "error" in result or "error" in untraced[-1]:
                self.failures.append(
                    f"{workload} (traced): {result.get('error', 'no pair')}")
                return
            if index == 0:
                shutil.copy(os.path.join(logdir, "trace.json"),
                            os.path.join(self.out, f"trace-{workload}.json"))
                outputs = read_outputs(logdir)
            traced.append(result)
        layers = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
        for name in {name for r in traced for name in r["layers"]}:
            values = [r["layers"][name] for r in traced
                      if name in r["layers"]]
            layers[name] = statistics.median(values)
            if name.startswith("engine.") and name.endswith("_per_pkt") \
                    and len(set(values)) > 1:
                self.failures.append(
                    f"{workload}: {name} differs across traced runs")
        layers["logs.lines"] = outputs["lines"]
        layers["logs.bytes"] = outputs["bytes"]
        layers["harness.tracegen_s"] = trace["gen_s"]

        def median(rounds, metric):
            return statistics.median(r[metric] for r in rounds)

        layers["harness.trace_overhead_frac"] = (
            median(traced, "wall_s") / median(untraced, "wall_s") - 1.0)
        w = WORKLOADS[workload]
        if w["ref"] == "bro-http":
            base = self.reference(workload)
            speed = median(untraced, "pkts_per_s") / base["pkts_per_s"]
            cpu = (median(untraced, "cpu_us_per_pkt")
                   / base["cpu_us_per_pkt"])
            if w["kind"] == "pool":
                layers["pool.speedup"] = speed
                layers["pool.cpu_overhead"] = cpu
            elif w["kind"] == "service":
                layers["service.overhead"] = speed
            else:
                layers["telemetry.overhead_frac"] = 1.0 - speed
        self.layers[workload] = layers

    # -- reporting -----------------------------------------------------------

    def summary(self, workload, rounds=slice(None)):
        out = {}
        for metric, unit, _ in END_TO_END:
            values = self.values(workload, metric, rounds)
            if values:
                out[metric] = dict(summarize(values), unit=unit)
        return out

    def report(self, workloads):
        """Every metric by name, with unit, median, quartiles and n."""
        for workload in workloads:
            for metric, s in self.summary(workload).items():
                print(f"{workload:15} {metric:15} {s['unit']:7}"
                      f" median={s['median']:<12.6g} q1={s['q1']:<12.6g}"
                      f" q3={s['q3']:<12.6g} n={s['n']}")
        for workload in workloads:
            for metric, value in self.layers.get(workload, {}).items():
                print(f"{workload:15} {metric:30} {UNITS[metric]:10}"
                      f" {value:.6g}")
        for failure in self.failures:
            print(f"FAIL {failure}")
            print(f"FAIL {failure}", file=sys.stderr)   # drivers keep stderr

    def results(self, workloads, rounds=slice(None)):
        keep = [m for m, _, _ in END_TO_END] + ["wall_s", "cpu_s"]

        def first(workload, key):
            return next((r[key] for r in self.rounds[workload] if key in r),
                        None)

        return {
            "schema": "bench-e2e/1",
            "claim": None,
            "host": host_metadata(),
            "seed": self.seed,
            "scale": self.scale,
            "traces": {name: {k: t[k] for k in ("packets", "sha256", "gen_s")}
                       for name, t in self.traces.items()},
            "workloads": {
                workload: {
                    "summary": self.summary(workload, rounds),
                    "rounds": [{k: r[k] for k in keep if k in r}
                               for r in self.rounds[workload][rounds]],
                    "fingerprint": first(workload, "fingerprint"),
                    "flow_fingerprint": first(workload, "flow_fingerprint"),
                    "layers": self.layers.get(workload, {}),
                } for workload in workloads},
            "failures": self.failures,
        }

    def write(self, name, results):
        path = os.path.join(self.out, name)
        with open(path, "w") as stream:
            json.dump(results, stream, indent=1)
        return path


# -- calibration -------------------------------------------------------------------


def calibrate(harness, workloads, rounds):
    """A/A: two interleaved sets of the same code.  Each (workload,
    metric) bound becomes max(default, 2 x observed median difference);
    a pair that disagrees by more than 10 % is an error to fix."""
    harness.measure(workloads, rounds=2 * rounds)
    harness.check(workloads)
    sets = [harness.results(workloads, slice(i, None, 2)) for i in (0, 1)]
    for label, results in zip("AB", sets):
        harness.write(f"results-{label}.json", results)
    pairs, observed = {}, {}
    for workload in workloads:
        pairs[workload], observed[workload] = {}, {}
        for metric, _, _ in END_TO_END[:4]:
            a, b = (statistics.median(
                r[metric] for r in s["workloads"][workload]["rounds"]
                if metric in r) for s in sets)
            diff = abs(a - b) / a
            observed[workload][metric] = diff
            pairs[workload][metric] = max(DEFAULT_BOUNDS[metric], 2 * diff)
            if diff > 0.10:
                harness.failures.append(
                    f"{workload} {metric}: A/A medians differ by "
                    f"{diff:.1%} (> 10 %)")
    path = os.path.join(HERE, "bounds.json")
    with open(path, "w") as stream:
        json.dump({"default": DEFAULT_BOUNDS, "pairs": pairs,
                   "calibration": {"host": host_metadata(),
                                   "seed": harness.seed,
                                   "scale": harness.scale,
                                   "rounds_per_set": rounds,
                                   "observed_aa_diff": observed}},
                  stream, indent=1)
        stream.write("\n")
    print(f"wrote {path}")


# -- main --------------------------------------------------------------------------


def contract_line(harness, workload, traced):
    """The one JSON object ``BENCHMARK.json``'s driver reads."""
    rounds = harness.rounds[workload]
    packets = harness.trace(workload)["packets"]
    if traced:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in harness.layers.get(workload, {}).items()}
    else:
        metrics = {metric: {"value": s["median"], "unit": s["unit"]}
                   for metric, s in harness.summary(workload).items()
                   if metric != "fail_frac"}
    return json.dumps({
        "correct": not harness.failures,
        "attempted": packets * len(rounds),
        "failed": round(sum(r["fail_frac"] for r in rounds) * packets),
        "metrics": metrics,
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEV_SEED,
                        help=f"trace seed: {DEV_SEED} is the development "
                             f"seed, {HELD_OUT_SEED} the held-out one a "
                             "claim must also hold on")
    parser.add_argument("--workloads", default=",".join(PUBLIC))
    parser.add_argument("--workload", help="driver mode: one workload, "
                                           "one JSON line at the end")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seconds", type=float,
                        help="driver mode: measure this long")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--scale", type=float, default=SCALE)
    parser.add_argument("--out", default=".bench_e2e")
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: {SRC}/repro not found — run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    workloads = ([args.workload] if args.workload
                 else args.workloads.split(","))
    unknown = [w for w in workloads if w not in PUBLIC]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {PUBLIC}")
    out = os.path.abspath(args.out)
    harness = Harness(args.seed, args.scale, out)

    if args.calibrate:
        calibrate(harness, workloads, max(5, args.rounds))
    else:
        if args.workload and args.seconds is not None:
            if not args.trace:
                harness.measure(workloads, seconds=args.seconds)
        else:
            harness.measure(workloads, rounds=args.rounds)
        if args.trace:
            for workload in workloads:
                harness.traced(workload)
        harness.check(workloads)
    harness.report(workloads)
    name = (f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
            if args.workload else "results.json")
    print(f"wrote {harness.write(name, harness.results(workloads))}")
    if args.workload:
        print(contract_line(harness, args.workload, bool(args.trace)))
    if harness.failures:
        return 1
    shutil.rmtree(os.path.join(out, "logs"), ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
