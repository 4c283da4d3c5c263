#!/usr/bin/env python3
"""Benchmark-regression harness for the IR optimization pipeline.

Runs the paper's benchmark kernels — recursive Fibonacci (§6.5), the
BPF filter (§6.2), the BinPAC++ HTTP parser (Figure 9), and the Bro
scripts (Figure 10) — once per optimization level (``-O0``/``-O1``/
``-O2``), checks the outputs are byte-identical across every level,
and writes a machine-readable report to ``BENCH_ir_opt.json`` at the
repository root.

Usage::

    PYTHONPATH=src python benchmarks/bench_regression.py [--quick]
        [--output PATH] [--check fib,bpf]

``--quick`` shrinks the workloads for CI smoke runs; ``--check`` exits
non-zero if any optimized level is slower than -O0 on any named kernel
(the regression gate).  See docs/PERFORMANCE.md for the JSON schema.

``--parallel-scaling`` switches to the flow-parallel harness
(docs/PARALLELISM.md): a fixed-seed HTTP+DNS trace runs through the
sequential pipeline and through ``ParallelBro`` on the pool backend at
1, 2, and 4 workers; each run's merged-log fingerprint must match the
sequential one, and per-worker wall-clock/speedup land in
``BENCH_parallel.json`` together with the host's usable CPU count.  ``--check-parallel FACTOR`` always asserts
fingerprint identity; on a multi-core host it additionally fails if
the pool's 1-worker run costs more than FACTOR× sequential (the
fan-out-overhead gate) or the pool never beats sequential at ≥2
workers.  On a single-CPU host the speedup gates are skipped with a
logged reason — time-slicing one core can never show >1x.

``--telemetry-overhead`` switches to the observability cost harness
(docs/OBSERVABILITY.md): each kernel runs three ways — *baseline* (no
telemetry handle passed), *off* (an explicitly disabled
``Telemetry``), and *on* (metrics collection plus compiler-inserted
profiling) — and the deltas land in ``BENCH_observability.json``.
The ``pool`` kernel prices the cross-process worker telemetry plane
itself: a pool-backend parallel run whose lanes ship per-worker
registries back over the rings for the parent to merge.
``--check-overhead PCT`` exits non-zero if the disabled path costs
more than PCT percent over baseline on any kernel (the "near-zero
when off" gate; baseline and off execute the same guarded code, so
the delta is timing noise plus the guard reads themselves).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))


def _best_of(fn, rounds, setup=None):
    """Best-of-N timing of ``fn``; ``setup`` runs untimed before each
    round (compilation stays out of the measurement)."""
    best = None
    result = None
    for __ in range(rounds):
        state = setup() if setup is not None else None
        begin = time.perf_counter()
        result = fn(state) if setup is not None else fn()
        elapsed = time.perf_counter() - begin
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def _opt_levels():
    from repro.core.optimize import OPT_LEVELS

    return OPT_LEVELS


def _http_trace(sessions, seed=101):
    from repro.net.tracegen import HttpTraceConfig, generate_http_trace

    return generate_http_trace(HttpTraceConfig(sessions=sessions, seed=seed))


def bench_fib(quick):
    """§6.5 baseline: recursive fib through the Bro script pipeline."""
    from repro.apps.bro import Bro
    from repro.apps.bro.scripts import FIB_SCRIPT

    n = 18 if quick else 22
    rounds = 3 if quick else 5
    results = {}
    for level in _opt_levels():
        bro = Bro(scripts=[FIB_SCRIPT], scripts_engine="hilti",
                  opt_level=level, print_stream=io.StringIO())
        seconds, value = _best_of(
            lambda: bro.call_function("fib", [n]), rounds
        )
        results[level] = (seconds, f"fib({n})={value}")
    return results


def bench_bpf(quick):
    """§6.2: the compiled HILTI packet filter over an HTTP trace."""
    from repro.apps.bpf import compile_to_hilti, parse_filter
    from repro.net.packet import parse_ethernet

    trace = _http_trace(40 if quick else 120)
    ip, __ = parse_ethernet(trace[3][1])
    node = parse_filter(
        f"host {ip.src} or src net 172.16.0.0/16 and port 80"
    )
    frames = [f for __, f in trace]
    rounds = 3 if quick else 5
    results = {}
    for level in _opt_levels():
        hilti_filter = compile_to_hilti(node, opt_level=level)
        seconds, decisions = _best_of(
            lambda: bytes(1 if hilti_filter(f) else 0 for f in frames),
            rounds,
        )
        results[level] = (
            seconds,
            f"packets={len(frames)} matches={sum(decisions)} "
            f"decisions=sha:{hashlib.sha256(decisions).hexdigest()[:12]}",
        )
    return results


def bench_parser(quick):
    """Figure 9: the BinPAC++ HTTP parser inside the Bro pipeline."""
    from repro.apps.bro import Bro
    from repro.apps.bro.analyzers.pac import PacParsers

    trace = _http_trace(10 if quick else 40, seed=7)
    rounds = 2 if quick else 3
    results = {}
    for level in _opt_levels():
        def setup(level=level):
            return Bro(parsers="pac",
                       pac_parsers=PacParsers(opt_level=level),
                       scripts_engine="hilti", opt_level=level,
                       print_stream=io.StringIO())

        def run(bro):
            bro.run(trace)
            return (
                "\n".join(bro.core.logs.lines("http")),
                bro.core.events_dispatched,
            )
        seconds, (http_log, events) = _best_of(run, rounds, setup=setup)
        results[level] = (
            seconds,
            f"events={events} http_log=sha:"
            f"{hashlib.sha256(http_log.encode()).hexdigest()[:12]}",
        )
    return results


def bench_script(quick):
    """Figure 10: the default analysis scripts over an HTTP trace."""
    from repro.apps.bro import Bro

    trace = _http_trace(10 if quick else 40, seed=13)
    rounds = 2 if quick else 3
    results = {}
    for level in _opt_levels():
        def setup(level=level):
            return Bro(scripts_engine="hilti", opt_level=level,
                       print_stream=io.StringIO())

        def run(bro):
            bro.run(trace)
            return (
                "\n".join(bro.core.logs.lines("conn")),
                bro.core.events_dispatched,
            )
        seconds, (conn_log, events) = _best_of(run, rounds, setup=setup)
        results[level] = (
            seconds,
            f"events={events} conn_log=sha:"
            f"{hashlib.sha256(conn_log.encode()).hexdigest()[:12]}",
        )
    return results


KERNELS = {
    "fib": bench_fib,
    "bpf": bench_bpf,
    "parser": bench_parser,
    "script": bench_script,
}


# ---------------------------------------------------------------------------
# Telemetry-overhead mode (--telemetry-overhead)
# ---------------------------------------------------------------------------

_MODES = ("baseline", "off", "on")


def _telemetry(mode):
    """Bro's ``telemetry=`` kwarg for one measurement mode."""
    from repro.runtime.telemetry import Telemetry

    if mode == "baseline":
        return {}
    if mode == "off":
        return {"telemetry": Telemetry()}
    return {"telemetry": Telemetry(metrics=True)}


def overhead_fib(quick):
    """Script-function kernel; 'on' adds compiler-inserted profiling."""
    from repro.apps.bro import Bro
    from repro.apps.bro.scripts import FIB_SCRIPT

    n = 18 if quick else 22
    rounds = 3 if quick else 5
    results = {}
    for mode in _MODES:
        bro = Bro(scripts=[FIB_SCRIPT], scripts_engine="hilti",
                  print_stream=io.StringIO(), **_telemetry(mode))
        seconds, value = _best_of(
            lambda: bro.call_function("fib", [n]), rounds
        )
        results[mode] = (seconds, f"fib({n})={value}")
    return results


def overhead_bpf(quick):
    """Filter kernel; 'on' compiles the filter with profiling."""
    from repro.apps.bpf import compile_to_hilti, parse_filter
    from repro.apps.bpf.compiler import HiltiFilter, build_filter_module
    from repro.core import hiltic
    from repro.net.packet import parse_ethernet

    trace = _http_trace(40 if quick else 120)
    ip, __ = parse_ethernet(trace[3][1])
    node = parse_filter(
        f"host {ip.src} or src net 172.16.0.0/16 and port 80"
    )
    frames = [f for __, f in trace]
    rounds = 3 if quick else 5
    results = {}
    for mode in _MODES:
        if mode == "on":
            program = hiltic([build_filter_module(node).finish()],
                             profile=True)
            hilti_filter = HiltiFilter(program)
        else:
            hilti_filter = compile_to_hilti(node)
        seconds, decisions = _best_of(
            lambda: bytes(1 if hilti_filter(f) else 0 for f in frames),
            rounds,
        )
        results[mode] = (
            seconds,
            f"packets={len(frames)} matches={sum(decisions)} "
            f"decisions=sha:{hashlib.sha256(decisions).hexdigest()[:12]}",
        )
    return results


def overhead_parser(quick):
    """Full pac-parser pipeline; 'on' gathers the unified metrics."""
    from repro.apps.bro import Bro
    from repro.apps.bro.analyzers.pac import PacParsers

    trace = _http_trace(10 if quick else 40, seed=7)
    rounds = 2 if quick else 3
    pac = PacParsers()
    results = {}
    for mode in _MODES:
        def setup(mode=mode):
            return Bro(parsers="pac", pac_parsers=pac,
                       scripts_engine="hilti",
                       print_stream=io.StringIO(), **_telemetry(mode))

        def run(bro):
            bro.run(trace)
            return (
                "\n".join(bro.core.logs.lines("http")),
                bro.core.events_dispatched,
            )
        seconds, (http_log, events) = _best_of(run, rounds, setup=setup)
        results[mode] = (
            seconds,
            f"events={events} http_log=sha:"
            f"{hashlib.sha256(http_log.encode()).hexdigest()[:12]}",
        )
    return results


def overhead_script(quick):
    """Default analysis scripts; 'on' gathers the unified metrics."""
    from repro.apps.bro import Bro

    trace = _http_trace(10 if quick else 40, seed=13)
    rounds = 2 if quick else 3
    results = {}
    for mode in _MODES:
        def setup(mode=mode):
            return Bro(scripts_engine="hilti",
                       print_stream=io.StringIO(), **_telemetry(mode))

        def run(bro):
            bro.run(trace)
            return (
                "\n".join(bro.core.logs.lines("conn")),
                bro.core.events_dispatched,
            )
        seconds, (conn_log, events) = _best_of(run, rounds, setup=setup)
        results[mode] = (
            seconds,
            f"events={events} conn_log=sha:"
            f"{hashlib.sha256(conn_log.encode()).hexdigest()[:12]}",
        )
    return results


def overhead_pool(quick):
    """The cross-process worker telemetry plane: pool-backend lanes
    with 'on' collect per-worker registries, ship them back over the
    rings (periodic TELEM snapshots plus the final flush), and merge
    them in the parent — aggregate plus worker-labeled copies.  The
    kernel prices that whole path against the same pool run with
    telemetry disabled and with no telemetry handle at all."""
    from repro.apps.bpf.app import BpfLaneSpec
    from repro.host.parallel import ParallelPipeline
    from repro.host.pool import shutdown_shared_pools

    trace = _http_trace(40 if quick else 120)
    rounds = 2 if quick else 3
    results = {}
    try:
        # One untimed run first: the shared pool's worker spawn is a
        # one-time cost that would otherwise land entirely on whichever
        # mode happens to run first.
        warm = ParallelPipeline(BpfLaneSpec({
            "filter": "tcp and port 80", "engine": "compiled",
            "opt_level": None, "watchdog_budget": None,
            "metrics": False, "trace": False,
        }), workers=2, backend="pool")
        warm.run(trace)
        for mode in _MODES:
            spec = BpfLaneSpec({
                "filter": "tcp and port 80", "engine": "compiled",
                "opt_level": None, "watchdog_budget": None,
                "metrics": mode == "on", "trace": False,
            })

            def setup(spec=spec, mode=mode):
                return ParallelPipeline(spec, workers=2, backend="pool",
                                        **_telemetry(mode))

            def run(pipe):
                pipe.run(trace)
                return "\n".join(pipe.result_lines())

            seconds, lines = _best_of(run, rounds, setup=setup)
            results[mode] = (
                seconds,
                f"lines={len(lines.splitlines())} results=sha:"
                f"{hashlib.sha256(lines.encode()).hexdigest()[:12]}",
            )
    finally:
        shutdown_shared_pools()
    return results


OVERHEAD_KERNELS = {
    "fib": overhead_fib,
    "bpf": overhead_bpf,
    "parser": overhead_parser,
    "script": overhead_script,
    "pool": overhead_pool,
}


# ---------------------------------------------------------------------------
# Flow-parallel scaling mode (--parallel-scaling)
# ---------------------------------------------------------------------------

_SCALING_WORKERS = (1, 2, 4)
_SCALING_STREAMS = ("conn", "http", "dns", "files", "weird")


def _usable_cpus():
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _log_fingerprint(pipeline):
    """One hash over every log stream's deterministically sorted lines
    plus the flow-record ledger (docs/FLOWS.md) — so the identity gates
    cover the records.jsonl stream too."""
    digest = hashlib.sha256()
    for name in _SCALING_STREAMS:
        digest.update(name.encode())
        for line in sorted(pipeline.log_lines(name)):
            digest.update(line.encode())
            digest.update(b"\n")
    digest.update(b"flow_records")
    for line in pipeline.flow_record_lines():
        digest.update(line.encode())
        digest.update(b"\n")
    return "sha:" + digest.hexdigest()[:16]


def run_parallel_scaling(args):
    from repro.apps.bro import Bro, ParallelBro
    from repro.net.tracegen import (
        DnsTraceConfig,
        HttpTraceConfig,
        generate_mixed_trace,
    )

    trace = generate_mixed_trace(
        HttpTraceConfig(sessions=15 if args.quick else 60, seed=101),
        DnsTraceConfig(queries=60 if args.quick else 240, seed=101),
    )
    rounds = 2 if args.quick else 3
    report = {
        "schema": "bench-parallel/3",
        "quick": args.quick,
        "cpus": _usable_cpus(),
        "packets": len(trace),
        "pool": {},
    }
    print(f"[bench_regression] parallel-scaling: {len(trace)} packets on "
          f"{report['cpus']} usable cpu(s)", flush=True)

    def run_sequential():
        bro = Bro(print_stream=io.StringIO())
        bro.run(trace)
        return _log_fingerprint(bro), bro.stats["events"]

    seq_s, (seq_fp, seq_events) = _best_of(run_sequential, rounds)
    report["sequential"] = {
        "seconds": round(seq_s, 6),
        "events": seq_events,
        "fingerprint": seq_fp,
    }
    print(f"[bench_regression]   sequential={seq_s * 1e3:.2f}ms "
          f"events={seq_events}", flush=True)

    pool = report["pool"]
    for workers in _SCALING_WORKERS:
        def run_parallel(workers=workers):
            parallel = ParallelBro(workers=workers, backend="pool")
            parallel.run(trace)
            return _log_fingerprint(parallel), parallel.stats["events"]

        par_s, (par_fp, par_events) = _best_of(run_parallel, rounds)
        entry = {
            "seconds": round(par_s, 6),
            "speedup": round(seq_s / par_s, 3) if par_s else None,
            "identical": par_fp == seq_fp and par_events == seq_events,
            "fingerprint": par_fp,
        }
        pool[str(workers)] = entry
        print(f"[bench_regression]   pool workers={workers} "
              f"{par_s * 1e3:.2f}ms speedup={entry['speedup']}x "
              f"identical={entry['identical']}", flush=True)

    out_path = Path(args.output or str(REPO / "BENCH_parallel.json"))
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_regression] wrote {out_path}")

    # Byte-identity versus sequential is asserted unconditionally —
    # it is the differential oracle and holds at any core count.
    failures = [
        f"pool workers={workers}: merged logs diverge from sequential"
        for workers, entry in pool.items() if not entry["identical"]
    ]
    if args.check_parallel is not None:
        if report["cpus"] > 1:
            bound = seq_s * args.check_parallel
            one_worker = pool["1"]["seconds"]
            if one_worker > bound:
                failures.append(
                    f"pool workers=1 costs {one_worker:.3f}s, over "
                    f"{args.check_parallel}x the sequential {seq_s:.3f}s")
            best = max((entry["speedup"] or 0.0)
                       for workers, entry in pool.items()
                       if int(workers) >= 2)
            if best <= 1.0:
                failures.append(
                    f"pool backend never beats sequential at >=2 workers "
                    f"(best speedup {best}x) on {report['cpus']} cpus")
        else:
            # A 1-CPU box cannot express a >1x speedup: time-slicing N
            # workers over one core only adds switching cost, so the
            # speedup gate would fail unconditionally (the recorded
            # "cpus": 1 runs).  Identity above was still asserted.
            print("[bench_regression] SKIP speedup gate: only 1 usable "
                  "cpu — parallel runs time-slice a single core "
                  "(identity still asserted)", flush=True)
    if failures:
        for failure in failures:
            print(f"[bench_regression] FAIL {failure}", file=sys.stderr)
        return 1
    return 0


def _overhead_pct(seconds, baseline):
    return round((seconds - baseline) * 100.0 / baseline, 2) if baseline \
        else None


def run_telemetry_overhead(args):
    report = {
        "schema": "bench-observability/1",
        "quick": args.quick,
        "kernels": {},
    }
    kernels = args.kernels or ",".join(OVERHEAD_KERNELS)
    for name in kernels.split(","):
        name = name.strip()
        if name not in OVERHEAD_KERNELS:
            raise SystemExit(
                f"bench_regression: unknown kernel {name!r}")
        print(f"[bench_regression] telemetry-overhead {name} ...",
              flush=True)
        results = OVERHEAD_KERNELS[name](args.quick)
        base_s = results["baseline"][0]
        entry = {
            mode: {
                "seconds": round(seconds, 6),
                "fingerprint": fingerprint,
            }
            for mode, (seconds, fingerprint) in results.items()
        }
        entry["disabled_overhead_pct"] = _overhead_pct(
            results["off"][0], base_s)
        entry["enabled_overhead_pct"] = _overhead_pct(
            results["on"][0], base_s)
        # Telemetry must observe the run, never change it.
        entry["identical"] = len(
            {fingerprint for __, fingerprint in results.values()}
        ) == 1
        report["kernels"][name] = entry
        print(
            f"[bench_regression]   baseline={base_s * 1e3:.2f}ms "
            f"off={results['off'][0] * 1e3:.2f}ms "
            f"({entry['disabled_overhead_pct']:+.2f}%) "
            f"on={results['on'][0] * 1e3:.2f}ms "
            f"({entry['enabled_overhead_pct']:+.2f}%) "
            f"identical={entry['identical']}",
            flush=True,
        )

    out_path = Path(args.output or str(REPO / "BENCH_observability.json"))
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_regression] wrote {out_path}")

    failures = []
    for name, entry in report["kernels"].items():
        if not entry["identical"]:
            failures.append(f"{name}: telemetry changed the kernel output")
        if name == "pool":
            # The pool kernel's baseline and off modes run identical
            # guarded code, but the measurement crosses process
            # boundaries and worker scheduling jitter dwarfs the guard
            # cost, so the near-zero gate would flake.  Output identity
            # above still holds it to "observe, never change".
            if args.check_overhead is not None:
                print("[bench_regression] SKIP overhead gate for pool: "
                      "cross-process scheduling noise dominates the "
                      "baseline/off delta (identity still asserted)",
                      flush=True)
            continue
        if args.check_overhead is not None and \
                entry["disabled_overhead_pct"] > args.check_overhead:
            failures.append(
                f"{name}: disabled telemetry costs "
                f"{entry['disabled_overhead_pct']}% "
                f"(bound {args.check_overhead}%)"
            )
    if failures:
        for failure in failures:
            print(f"[bench_regression] FAIL {failure}", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="shrink workloads for CI smoke runs")
    ap.add_argument("--output", default=None,
                    help="where to write the JSON report (default "
                         "BENCH_ir_opt.json, or BENCH_observability.json "
                         "with --telemetry-overhead)")
    ap.add_argument("--check", default=None, metavar="KERNELS",
                    help="comma-separated kernels that must not regress "
                         "(exit 1 if any optimized level is slower "
                         "than -O0)")
    ap.add_argument("--kernels", default=None,
                    metavar="KERNELS",
                    help="which kernels to run (default: all for the "
                         "selected mode)")
    ap.add_argument("--telemetry-overhead", action="store_true",
                    help="measure telemetry cost (baseline/off/on) "
                         "instead of the per-level optimizer sweep")
    ap.add_argument("--check-overhead", type=float, default=None,
                    metavar="PCT",
                    help="with --telemetry-overhead, fail if disabled "
                         "telemetry costs more than PCT%% over baseline")
    ap.add_argument("--parallel-scaling", action="store_true",
                    help="measure the flow-parallel pipeline (pool "
                         "backend) at 1/2/4 workers against sequential")
    ap.add_argument("--check-parallel", type=float, default=None,
                    metavar="FACTOR",
                    help="with --parallel-scaling, assert fingerprint "
                         "identity and (on multi-core hosts only) fail "
                         "if the pool's 1-worker run costs more than "
                         "FACTOR x sequential or never beats sequential "
                         "at >=2 workers")
    args = ap.parse_args(argv)

    if args.parallel_scaling:
        return run_parallel_scaling(args)
    if args.telemetry_overhead:
        return run_telemetry_overhead(args)

    levels = _opt_levels()
    report = {
        "schema": "bench-ir-opt/2",
        "quick": args.quick,
        "levels": list(levels),
        "kernels": {},
    }
    for name in (args.kernels or ",".join(KERNELS)).split(","):
        name = name.strip()
        if name not in KERNELS:
            ap.error(f"unknown kernel {name!r}")
        print(f"[bench_regression] {name} ...", flush=True)
        results = KERNELS[name](args.quick)
        o0_s = results[0][0]
        entry = {
            f"O{level}": {
                "seconds": round(seconds, 6),
                "fingerprint": fingerprint,
            }
            for level, (seconds, fingerprint) in results.items()
        }
        # Speedups are relative to -O0; byte-identity spans every level.
        entry["speedups"] = {
            f"O{level}": (round(o0_s / results[level][0], 3)
                          if results[level][0] else None)
            for level in levels if level > 0
        }
        entry["identical"] = len(
            {fingerprint for __, fingerprint in results.values()}
        ) == 1
        report["kernels"][name] = entry
        timings = " ".join(
            f"O{level}={results[level][0] * 1e3:.2f}ms"
            for level in levels
        )
        speedups = " ".join(
            f"{key}={value}x"
            for key, value in entry["speedups"].items()
        )
        print(f"[bench_regression]   {timings} {speedups} "
              f"identical={entry['identical']}", flush=True)

    out_path = Path(args.output or str(REPO / "BENCH_ir_opt.json"))
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_regression] wrote {out_path}")

    failures = []
    for name, entry in report["kernels"].items():
        if not entry["identical"]:
            failures.append(
                f"{name}: outputs differ across optimization levels")
    if args.check:
        for name in args.check.split(","):
            name = name.strip()
            entry = report["kernels"].get(name)
            if entry is None:
                failures.append(f"{name}: kernel not run")
                continue
            for key, speedup in entry["speedups"].items():
                if speedup is not None and speedup < 1.0:
                    failures.append(
                        f"{name}: -{key} slower than -O0 "
                        f"(speedup {speedup}x)"
                    )
    if failures:
        for failure in failures:
            print(f"[bench_regression] FAIL {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
