#!/usr/bin/env python3
"""`forktail run --threads` changes wall-clock only, never a report.

Runs every scenario in an examples directory with `--scale smoke --predict
all` at --threads 1 and at --threads 3 and requires the two scenario reports
to be equal once the echoed `scenario.execution.max_parallelism` key (the
one field the flag sets) is dropped.  Exits 1 on the first difference.

    run_threads_invariant.py --cli build/tools/forktail \\
        --examples examples --scratch build/tests/threads_invariant
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

THREADS = (1, 3)


def report(cli, spec, threads, out):
    subprocess.run([cli, "run", str(spec), "--scale", "smoke", "--predict", "all",
                    "--threads", str(threads), "--out", str(out)],
                   check=True, stdout=subprocess.DEVNULL)
    doc = json.loads(out.read_text())
    execution = doc["scenario"]["execution"]
    if execution["max_parallelism"] != threads:
        sys.exit(f"{spec.name}: report echoes max_parallelism "
                 f"{execution['max_parallelism']}, ran --threads {threads}")
    del execution["max_parallelism"]
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cli", required=True)
    parser.add_argument("--examples", required=True, type=Path)
    parser.add_argument("--scratch", required=True, type=Path)
    args = parser.parse_args()
    args.scratch.mkdir(parents=True, exist_ok=True)

    specs = sorted(args.examples.glob("*.json"))
    if not specs:
        sys.exit(f"no scenarios in {args.examples}")
    for spec in specs:
        docs = [report(args.cli, spec, t, args.scratch / f"{spec.stem}.t{t}.json")
                for t in THREADS]
        if docs[0] != docs[1]:
            sys.exit(f"{spec.name}: the report differs between --threads "
                     f"{THREADS[0]} and --threads {THREADS[1]}")
        print(f"{spec.name}: identical at --threads {THREADS[0]} and {THREADS[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
