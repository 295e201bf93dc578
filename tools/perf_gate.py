#!/usr/bin/env python3
"""Performance-regression gate over the tracked benchmark reports.

Every tracked BENCH_*.json, and every fresh run of the bench that wrote
it, uses one envelope (schema "forktail.bench.v1", written by
bench/common.hpp):

  {"schema", "benchmark", "shape", "info", "checks",
   "rows": [{"name", "info", "checks",
             "metrics": {m: {"value", "unit", "better", "bound"}}}]}

The bench computes its invariants itself, as named booleans in "checks",
and exits 1 when one is false.  This gate compares a candidate report with
the tracked baseline by four rules:

1. both use this schema and name the same benchmark;
2. every check in the candidate is true;
3. every row and metric of the baseline is present in the candidate, and,
   when the shapes match, so is every check of the baseline;
4. when the shapes match, no metric worsens -- in its "better" direction
   ("higher" or "lower") -- by more than its "bound": a fraction of the
   baseline value, or an absolute amount when the metric says
   "absolute": true.

"shape" holds what must be equal before numbers compare (the scale, and
e.g. the SIMD dispatch level of a replay run).  CI runners rarely match the
machine that produced a tracked file, so on a shape mismatch the metric
comparison is skipped with a note and only rules 1-3 apply.

Usage:
  python3 tools/perf_gate.py BASELINE.json CANDIDATE.json
"""

from __future__ import annotations

import argparse
import json
import sys

SCHEMA = "forktail.bench.v1"


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def gate(base: dict, cand: dict) -> list[str]:
    """Return the rule violations of `cand` against `base`, printing the
    metric comparisons as it goes."""
    for label, doc in (("baseline", base), ("candidate", cand)):
        if doc.get("schema") != SCHEMA:
            return [f"{label}: schema {doc.get('schema')!r}, want {SCHEMA!r}"]
    if base.get("benchmark") != cand.get("benchmark"):
        return [f"baseline benchmark {base.get('benchmark')!r} != "
                f"candidate benchmark {cand.get('benchmark')!r}"]

    errors = []
    cand_rows = {r["name"]: r for r in cand["rows"]}
    scopes = [("", cand["checks"])]
    scopes += [(f"{r['name']}: ", r["checks"]) for r in cand["rows"]]
    for scope, checks in scopes:
        errors += [f"{scope}check {name} is false"
                   for name, ok in checks.items() if ok is not True]

    same_shape = base["shape"] == cand["shape"]
    if not same_shape:
        print(f"SKIP metric comparison: shape differs "
              f"(baseline={base['shape']}, candidate={cand['shape']})")
    else:
        errors += [f"check {name} missing"
                   for name in base["checks"] if name not in cand["checks"]]

    for ref in base["rows"]:
        name = ref["name"]
        row = cand_rows.get(name)
        if row is None:
            errors.append(f"{name}: row missing")
            continue
        if same_shape:
            errors += [f"{name}: check {c} missing"
                       for c in ref["checks"] if c not in row["checks"]]
        for metric, b in ref["metrics"].items():
            c = row["metrics"].get(metric)
            if c is None:
                errors.append(f"{name}: metric {metric} missing")
                continue
            if not same_shape:
                continue
            bv, cv = b["value"], c["value"]
            worse = bv - cv if b["better"] == "higher" else cv - bv
            allowed = b["bound"] * (1.0 if b.get("absolute") else abs(bv))
            status = "FAIL" if worse > allowed else "ok  "
            print(f"{status} {name:36s} {metric:20s} {bv:.6g} -> {cv:.6g} "
                  f"{b['unit']} (worse by {worse:+.4g}, "
                  f"allowed {allowed:.4g})")
            if worse > allowed:
                errors.append(f"{name}: {metric} worsened beyond its bound")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    args = ap.parse_args()

    errors = gate(load(args.baseline), load(args.candidate))
    for e in errors:
        print(f"FAIL {e}")
    if errors:
        return 1
    print("OK   every check holds; no metric beyond its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
