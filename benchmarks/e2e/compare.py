#!/usr/bin/env python3
"""Compare two result files of run.py: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians with their
quartiles, B's change relative to A (the base), and a verdict:

- ``regressed``   B's median is worse than A's by more than the pair's bound;
- ``unresolved``  otherwise, when either side's quartile spread is wider
                  than the bound — the runs cannot tell;
- ``improved``    B is better by more than the bound, by more than A's own
                  quartile spread, and wins at least nine tenths of the
                  rounds paired by index;
- ``unchanged``   everything else.

Bounds come from ``bounds.json`` (written by ``run.py --calibrate``).
Exits 1 when any row regressed.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import END_TO_END  # noqa: E402

BETTER = {name: better for name, _, better in END_TO_END}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(a, b, better, bound):
    """*a* and *b* are the two sides' per-round values."""
    sign = 1.0 if better == "lower" else -1.0
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    if am == bm:
        return "unchanged", 0.0
    if am == 0:         # fail_frac: any failure is a regression
        return ("regressed" if sign * bm > 0 else "improved"), float("inf")
    change = (bm - am) / am
    worse = sign * change
    if worse > bound:
        return "regressed", change
    if max((a3 - a1) / am, (b3 - b1) / bm) > bound:
        return "unresolved", change
    wins = sum(sign * (x - y) > 0 for x, y in zip(a, b))
    ties = sum(x == y for x, y in zip(a, b))
    pairs = min(len(a), len(b)) - ties
    if (-worse > max(bound, (a3 - a1) / am)
            and pairs and wins >= 0.9 * pairs):
        return "improved", change
    return "unchanged", change


def compare(a, b, bounds):
    rows = []
    for workload, side_a in a["workloads"].items():
        side_b = b["workloads"].get(workload)
        if side_b is None:
            continue
        for metric, better in BETTER.items():
            values = [[r[metric] for r in side["rounds"] if metric in r]
                      for side in (side_a, side_b)]
            if not all(values):
                continue
            bound = bounds["pairs"].get(workload, {}).get(
                metric, bounds["default"][metric])
            name, change = verdict(values[0], values[1], better, bound)
            rows.append((workload, metric, quartiles(values[0]),
                         quartiles(values[1]), change, bound, name))
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as stream:
        a = json.load(stream)
    with open(argv[1]) as stream:
        b = json.load(stream)
    with open(os.path.join(HERE, "bounds.json")) as stream:
        bounds = json.load(stream)
    rows = compare(a, b, bounds)
    print(f"{'workload':15} {'metric':15} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B vs A':>9} {'bound':>6}  verdict")
    for workload, metric, qa, qb, change, bound, name in rows:
        def cell(q):
            return f"{q[1]:11.5g} [{q[0]:9.5g}, {q[2]:9.5g}]"
        print(f"{workload:15} {metric:15} {cell(qa):>34} {cell(qb):>34} "
              f"{change:+9.2%} {bound:6.0%}  {name}")
    for key in ("commit", "nproc", "python"):
        print(f"# {key}: A {a['host'].get(key)}  B {b['host'].get(key)}")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
