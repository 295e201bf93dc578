#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload, metric by metric.

    python3 benchmark/compare.py A.json B.json

A and B are files written by `benchmark/run.py --out FILE` (each holds any
number of runs; the same file may be appended to by many invocations).  For
every workload x metric present in both, it prints each side's median and
quartiles, the bound, and a verdict:

  ok          B's median is not worse than A's by more than the bound, and
              both sides' interquartile spread is within the bound
  regressed   B's median is worse than A's by more than the bound
  unresolved  a side's spread exceeds the bound, so a difference of the
              bound's size cannot be told from noise (unless every B run
              reads better than every A run, which is ok)
  info        the metric has no bound

Spreads and differences are shares of A's median, except for metrics whose
bound is absolute (loss and failure fractions).  The gated metrics of
BENCHMARK.json are listed first; exit status 1 when one of them is
regressed or unresolved.
"""

import json
import statistics
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import catalog  # noqa: E402


def load(path):
    groups = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        key = (run["workload"], run["trace"])
        for name, m in run["metrics"].items():
            groups.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(metric, values):
    q1, med, q3 = quartiles(values)
    if metric.absolute:
        return q3 - q1
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def verdict(metric, a, b):
    if metric.bound is None:
        return "info"
    if spread(metric, a) > metric.bound or spread(metric, b) > metric.bound:
        better = (min(b) > max(a)) if metric.better == "higher" else (max(b) < min(a))
        return "ok" if better else "unresolved"
    worse = metric.worse_by(statistics.median(a), statistics.median(b))
    return "regressed" if worse > metric.bound else "ok"


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    a_runs, b_runs = load(sys.argv[1]), load(sys.argv[2])
    metrics = catalog.all_metrics()
    gated = [m.name for m in catalog.end_to_end()]
    bad = 0
    header = (f"{'workload':<15} {'metric':<28} {'A median [q1, q3]':>34} "
              f"{'B median [q1, q3]':>34} {'B vs A':>8} {'bound':>7}  verdict")
    print(header)
    print("-" * len(header))
    for key in sorted(set(a_runs) & set(b_runs)):
        workload, trace = key
        label = workload + (" (trace)" if trace else "")
        names = sorted(set(a_runs[key]) & set(b_runs[key]),
                       key=lambda n: (n not in gated, n))
        for name in names:
            metric = metrics.get(name)
            if metric is None:
                continue
            a, b = a_runs[key][name], b_runs[key][name]
            v = verdict(metric, a, b)
            bad += name in gated and v in ("regressed", "unresolved")
            qa, qb = quartiles(a), quartiles(b)
            ma = statistics.median(a)
            change = ((statistics.median(b) - ma) / abs(ma) * 100) if ma else 0.0
            bound = ("-" if metric.bound is None else
                     f"{metric.bound:g}" if metric.absolute else f"{metric.bound * 100:g}%")
            print(f"{label:<15} {name:<28} "
                  f"{qa[1]:>12.5g} [{qa[0]:>8.4g}, {qa[2]:>8.4g}] "
                  f"{qb[1]:>12.5g} [{qb[0]:>8.4g}, {qb[2]:>8.4g}] "
                  f"{change:>+7.1f}% {bound:>7}  {v}  ({len(a)}/{len(b)} runs, {metric.unit})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
