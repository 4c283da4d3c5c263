#!/usr/bin/env python3
"""Benchmark-regression harness for the IR optimization pipeline.

Runs the paper's benchmark kernels — recursive Fibonacci (§6.5), the
BPF filter (§6.2), the BinPAC++ HTTP parser (Figure 9), and the Bro
scripts (Figure 10) — once per optimization level (``-O0``/``-O1``),
checks the outputs are byte-identical across every level, and writes a
machine-readable report to ``BENCH_ir_opt.json`` at the repository
root.

Usage::

    PYTHONPATH=src python benchmarks/bench_regression.py [--quick]
        [--output PATH] [--check fib,bpf] [--kernels fib,bpf]

``--quick`` shrinks the workloads for CI smoke runs; ``--check`` exits
non-zero if any optimized level is slower than -O0 on any named kernel
(the regression gate).  See docs/PERFORMANCE.md for the JSON schema.
The pool's speedup and the enabled-telemetry cost are measured by the
end-to-end harness (``benchmarks/e2e/run.py``), not here.
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="shrink workloads for CI smoke runs")
    ap.add_argument("--output", default=None,
                    help="where to write the JSON report (default "
                         "BENCH_ir_opt.json)")
    ap.add_argument("--check", default=None, metavar="KERNELS",
                    help="comma-separated kernels that must not regress "
                         "(exit 1 if any optimized level is slower "
                         "than -O0)")
    ap.add_argument("--kernels", default=None, metavar="KERNELS",
                    help="which kernels to run (default: all)")
    args = ap.parse_args(argv)

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
