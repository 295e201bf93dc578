#!/usr/bin/env python3
"""End-to-end benchmark of `forktail serve` and `forktail run`.

Run from the root of a checkout:

    python3 benchmark/run.py --workload ingest-ladder --seed 1 --seconds 18 --trace 0
    python3 benchmark/run.py --seed 1 --out results.json     # all four workloads

Each invocation builds the tree in Release under .bench_build/ (the first
build takes a minute or two, later ones are incremental), runs the oracle
test, then runs each requested workload against real `forktail serve` and
`forktail run` processes, checks their outputs, prints every metric with
its unit and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the traced in-process replay instead and reports the per-layer metrics.
The exit status is 0 when every check passed, 1 when one failed, 2 when the
benchmark could not run at all.  See benchmark/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
import catalog  # noqa: E402

ROOT = catalog.ROOT
BENCH = ROOT / "benchmark"
BUILD = ROOT / ".bench_build"
WORK = BUILD / "run"
SERVE_SPEC = BENCH / "serve.json"
SCENARIOS = BENCH / "scenarios"

SERVE_WORKLOADS = ["ingest-ladder", "query-hetero", "ingest-hostile"]
WORKLOADS = SERVE_WORKLOADS + ["run-suite"]
# The run-suite scenarios (requests at 5x the examples', perfect_sampling
# at its example size) and those inside ForkTail's 20% p99 envelope.
SUITE = ["homogeneous", "heterogeneous", "subset_fixed_k", "subset_uniform_k",
         "consolidated", "pipeline", "faulty_homogeneous", "perfect_sampling"]
ENVELOPE = ["homogeneous", "heterogeneous", "subset_fixed_k", "subset_uniform_k",
            "consolidated", "pipeline", "perfect_sampling"]
COLD_STARTS = 5
SUITE_REPS = 4

TARGETS = ["forktail_cli", "ftbench_loadgen", "ftbench_trace", "ftbench_oracle_test"]
BIN = {
    "forktail": BUILD / "forktail" / "tools" / "forktail",
    "loadgen": BUILD / "ftbench_loadgen",
    "trace": BUILD / "ftbench_trace",
    "oracle": BUILD / "ftbench_oracle_test",
}

_children = []


class BenchError(Exception):
    """The benchmark cannot run here (no tree, build failure, ...)."""


def log(text=""):
    print(text, flush=True)


# ---------------------------------------------------------------- processes

def spawn(args, **kw):
    proc = subprocess.Popen([str(a) for a in args], **kw)
    _children.append(proc)
    return proc


def reap(proc, timeout):
    """Wait for `proc`; kill it if it outlives `timeout`. Returns rusage."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            _children.remove(proc)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            _children.remove(proc)
            raise BenchError(f"{Path(proc.args[0]).name} timed out after {timeout:.0f} s")
        time.sleep(0.001)


def stop_all():
    for proc in list(_children):
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        _children.remove(proc)


def run_checked(args, timeout, **kw):
    proc = spawn(args, **kw)
    reap(proc, timeout)
    if proc.returncode not in (0, 1):
        raise BenchError(f"{Path(str(args[0])).name} exited {proc.returncode}")
    return proc.returncode


# -------------------------------------------------------------------- build

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "serve").is_dir():
        raise BenchError(f"no forktail source tree at {ROOT}")
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / "build.log", "w") as out:
        def step(args, timeout):
            proc = spawn(args, stdout=out, stderr=subprocess.STDOUT)
            reap(proc, timeout)
            if proc.returncode != 0:
                raise BenchError(f"build failed; see {BUILD / 'build.log'}")
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            step(["cmake", "-S", BENCH, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
                  *generator], 300)
        step(["cmake", "--build", BUILD, "-j", jobs, "--target", *TARGETS], 880)


# ------------------------------------------------------------ query protocol

def _recv_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionError("connection closed")
        data += chunk
    return data


def call(port, request, timeout=5.0):
    """One framed JSON round trip; header and body in one write."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        body = json.dumps(request).encode()
        sock.sendall(struct.pack(">I", len(body)) + body)
        (length,) = struct.unpack(">I", _recv_exact(sock, 4))
        return json.loads(_recv_exact(sock, length))


class Daemon:
    """A `forktail serve` process on ephemeral ports; ready once it answers ping."""

    def __init__(self, tag):
        self.port_file = WORK / f"ports-{tag}"
        self.log_file = WORK / f"serve-{tag}.log"
        self.proc = None
        self.udp = self.tcp = 0

    def start(self, timeout=20.0):
        self.port_file.unlink(missing_ok=True)
        with open(self.log_file, "w") as out:
            self.proc = spawn([BIN["forktail"], "serve", SERVE_SPEC,
                               "--port-file", self.port_file],
                              stdout=out, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"forktail serve exited {self.proc.returncode}; "
                                 f"see {self.log_file}")
            try:
                self.udp, self.tcp = map(int, self.port_file.read_text().split())
                if call(self.tcp, {"op": "ping"}).get("ok"):
                    return
            except (OSError, ValueError):
                pass
            time.sleep(0.0005)
        raise BenchError("forktail serve did not come up")

    def stop(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            reap(self.proc, 30)
        self.port_file.unlink(missing_ok=True)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()


def cold_start_s():
    """Exec of `forktail serve` to its first ping reply."""
    daemon = Daemon("cold")
    start = time.perf_counter()
    daemon.start()
    elapsed = time.perf_counter() - start
    daemon.stop()
    return elapsed


# ---------------------------------------------------------------- utilities

class Result:
    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.metrics = {}   # name -> {"value", "unit", "count"}
        self.checks = []    # {"name", "ok", "detail"}; a failed one fails the run
        self.notes = []     # same shape; printed, never fail the run
        self.table = ""

    def metric(self, name, value, count=None):
        unit = catalog.all_metrics()[name].unit
        self.metrics[name] = {"value": value, "unit": unit, "count": count}

    def check(self, name, ok, detail):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def correct(self):
        return all(c["ok"] for c in self.checks)

    def record(self):
        return {"workload": self.workload, "seed": self.seed, "seconds": self.seconds,
                "trace": self.trace, "correct": self.correct,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": self.metrics, "checks": self.checks, "notes": self.notes}


def scenarios(names):
    """The benchmark's scenario files.  They keep their own seeds: the
    ForkTail envelope and bracket checks hold for these inputs, and the
    suite's run-to-run spread is then timing noise alone."""
    return [SCENARIOS / f"{name}.json" for name in names]


def forktail_run(spec, report):
    """One `forktail run` process: (exit code, wall s, cpu s, maxrss KiB)."""
    start = time.perf_counter()
    proc = spawn([BIN["forktail"], "run", spec, "--predict", "all", "--threads", "1",
                  "--out", report], stdout=subprocess.DEVNULL)
    usage = reap(proc, 170)
    wall = time.perf_counter() - start
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


# ------------------------------------------------------------------ serve

GENERIC = {
    # workload -> the metrics behind throughput_per_s, cpu_ns_per_unit and
    # latency_p50_ms.  The ingest workloads' latency is ingest lag (a
    # sample's due time to the first reply that counts it); query-hetero's
    # is the predict round trip.
    "ingest-ladder": ("sustained_samples_per_s", "cpu_ns_per_sample", "ingest_lag_p50_ms"),
    "query-hetero": ("queries_per_s", "cpu_ns_per_query", "predict_p50_us"),
    "ingest-hostile": ("ingested_samples_per_s", "cpu_ns_per_sample", "ingest_lag_p50_ms"),
}


def run_serve(workload, seed, seconds):
    res = Result(workload, seed, seconds, 0)
    setup = [cold_start_s() for _ in range(COLD_STARTS)]
    out = WORK / f"gen-{workload}.json"
    out.unlink(missing_ok=True)
    with Daemon("run") as daemon:
        run_checked([BIN["loadgen"], "--workload", workload, "--seed", seed,
                     "--seconds", seconds, "--udp-port", daemon.udp,
                     "--tcp-port", daemon.tcp, "--pid", daemon.proc.pid,
                     "--out", out], seconds + 120)
    gen = json.loads(out.read_text())
    m = gen["metrics"]
    res.attempted = int(gen.get("attempted", 0))
    res.failed = int(gen.get("failed", 0))
    res.checks += gen["checks"]
    res.metric("setup_s", statistics.median(setup), COLD_STARTS)
    if "peak_rss_mib" not in m:
        return res  # the generator stopped at its pre-flight check

    predict_n = int(m.get("predict_count", 0))
    lag_n = int(m.get("ingest_lag_count", 0))
    throughput, cpu, latency = GENERIC[workload]
    counts = {"predict_p50_us": predict_n, "predict_p99_us": predict_n,
              "ingest_lag_p50_ms": lag_n, "ingest_lag_p99_ms": lag_n,
              "queries_per_s": predict_n,
              "sustained_samples_per_s": len(gen.get("ladder", [])) or None}
    res.metric("throughput_per_s", m[throughput], counts.get(throughput))
    res.metric("cpu_ns_per_unit", m[cpu])
    res.metric("latency_p50_ms", m[latency] / (1e3 if latency.endswith("_us") else 1),
               counts[latency])
    res.metric("peak_rss_mib", m["peak_rss_mib"])
    for name, value in m.items():
        if name in catalog.all_metrics() and name not in res.metrics:
            res.metric(name, value, counts.get(name))
    if "ladder" in gen:
        steps = ", ".join(f"{s['rate'] / 1e6:.2f}M:{'pass' if s['pass'] else ('void' if s['void'] else 'miss')}"
                          for s in gen["ladder"])
        res.table = f"ladder ({gen['ladder_stop']}): {steps}\n"
    return res


# -------------------------------------------------------------- run-suite

def check_report(res, name, doc):
    """Bracket and envelope checks on one scenario report."""
    brackets = {row["p"]: row for row in doc["measured"] if row.get("certified")}
    for row in brackets.values():
        res.check(f"{name}.bracket", 0 < row["lower_ms"] <= row["upper_ms"],
                  f"certified p{row['p']:g} bracket [{row['lower_ms']:.4g}, {row['upper_ms']:.4g}]")
    outside = []
    for pred in doc["predictions"]:
        for cell in pred["values"]:
            bracket = brackets.get(cell["p"])
            if bracket is None:
                continue
            lo, hi = bracket["lower_ms"], bracket["upper_ms"]
            slack = 1e-9 * (abs(lo) + abs(hi))
            inside = lo - slack <= cell["predicted_ms"] <= hi + slack
            if inside != cell["in_bracket"]:
                res.check(f"{name}.in_bracket_flag", False,
                          f"{pred['predictor']} flag disagrees with its bracket")
            if not inside:
                outside.append(pred["predictor"])
    if name in ENVELOPE:
        ft = [c for p in doc["predictions"] if p["predictor"] == "forktail"
              for c in p["values"] if c["p"] == 99]
        err = abs(ft[0]["error_pct"]) if ft else float("inf")
        res.check(f"{name}.forktail_envelope", err <= 20.0,
                  f"ForkTail p99 error {err:.2f}% (limit 20%)")
    return outside


def run_suite(seed, seconds):
    res = Result("run-suite", seed, seconds, 0)
    specs = scenarios(SUITE)
    probe = scenarios(["setup"])[0]
    setup = []
    for _ in range(COLD_STARTS):
        code, wall, _, _ = forktail_run(probe, WORK / "setup-report.json")
        setup.append(wall)
        res.check("setup_run", code == 0, f"forktail run {probe.name} exited {code}")

    reports = WORK / "suite-reports"
    shutil.rmtree(reports, ignore_errors=True)
    reports.mkdir(parents=True)
    walls = {spec.stem: [] for spec in specs}  # per scenario, one per rep
    cpus = {spec.stem: [] for spec in specs}
    tasks, maxrss = {}, 0
    for rep in range(SUITE_REPS):
        for spec in specs:
            out = reports / f"{spec.stem}.{rep}.json"
            code, wall, cpu, rss = forktail_run(spec, out)
            res.attempted += 1
            if code != 0:
                res.failed += 1
                res.check(f"{spec.stem}.exit", False, f"forktail run exited {code}")
                continue
            walls[spec.stem].append(wall)
            cpus[spec.stem].append(cpu)
            maxrss = max(maxrss, rss)
            tasks[spec.stem] = json.loads(out.read_text())["simulation"]["total_tasks"]

    outside = []
    for spec in specs:
        texts = [(reports / f"{spec.stem}.{r}.json").read_bytes()
                 for r in range(SUITE_REPS) if (reports / f"{spec.stem}.{r}.json").exists()]
        res.check(f"{spec.stem}.deterministic",
                  len(texts) == SUITE_REPS and len(set(texts)) == 1,
                  f"{len(set(texts))} distinct report(s) over {SUITE_REPS} reps")
        if texts:
            outside += [f"{spec.stem}/{p}" for p in check_report(res, spec.stem, json.loads(texts[0]))]

    # Each scenario's median over reps, summed: a burst of noise slows one
    # invocation, and moves no median unless it hits most reps of a scenario.
    ran = [name for name in walls if walls[name]]
    suite_s = sum(statistics.median(walls[name]) for name in ran)
    suite_cpu = sum(statistics.median(cpus[name]) for name in ran)
    suite_tasks = sum(tasks[name] for name in ran)
    invocations = [w for name in ran for w in walls[name]]
    res.metric("setup_s", statistics.median(setup), COLD_STARTS)
    res.metric("throughput_per_s", suite_tasks / suite_s, SUITE_REPS)
    res.metric("cpu_ns_per_unit", suite_cpu * 1e9 / suite_tasks, SUITE_REPS)
    res.metric("latency_p50_ms", statistics.median(invocations) * 1e3, len(invocations))
    res.metric("peak_rss_mib", maxrss / 1024.0)
    res.metric("run_suite_s", suite_s, SUITE_REPS)
    res.metric("run.out_of_bracket", len(outside))
    if outside:
        res.table = "predictions outside their certified bracket: " + ", ".join(outside) + "\n"
    return res


# ------------------------------------------------------------------ trace

def run_traced(workload, seed, seconds, spans_out):
    res = Result(workload, seed, seconds, 1)
    # The serve workloads run one scenario, so every per-layer metric is
    # measured on every workload.
    names = SUITE if workload == "run-suite" else ["homogeneous"]
    specs = scenarios(names)

    cli_dir = WORK / "trace-cli"
    own_dir = WORK / "trace-inproc"
    for d in (cli_dir, own_dir):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    cli_wall = 0.0
    for spec in specs:
        code, wall, _, _ = forktail_run(spec, cli_dir / f"{spec.stem}.json")
        res.check(f"{spec.stem}.exit", code == 0, f"forktail run exited {code}")
        cli_wall += wall

    out = WORK / f"trace-{workload}.json"
    out.unlink(missing_ok=True)
    run_checked([BIN["trace"], "--serve-config", SERVE_SPEC, "--workload", workload,
                 "--seed", seed, "--scenarios", ",".join(str(s) for s in specs),
                 "--report-dir", own_dir, "--spans-out", spans_out, "--out", out], 170)
    doc = json.loads(out.read_text())
    res.attempted = int(doc["attempted"])
    res.failed = int(doc["failed"])
    res.checks += doc["checks"]
    res.notes += doc["notes"]
    res.table = doc["table"] + f"spans written to {spans_out}\n"
    for spec in specs:
        same = (cli_dir / f"{spec.stem}.json").read_bytes() == (own_dir / f"{spec.stem}.json").read_bytes()
        res.notes.append({"name": f"{spec.stem}.inproc_matches_cli", "ok": same,
                          "detail": "in-process report is byte-identical to forktail run --out"})
    m = doc["metrics"]
    m["run.process_overhead_ms"] = cli_wall * 1e3 - m["run.in_process_ms"]
    for name, value in m.items():
        if name in catalog.all_metrics():
            res.metric(name, value)
    return res


# ------------------------------------------------------------------- main

def print_result(res):
    log(f"== {res.workload} (seed {res.seed}, {res.seconds} s, trace {res.trace}): "
        f"{'correct' if res.correct else 'INCORRECT'}, "
        f"{res.attempted} attempted, {res.failed} failed")
    for name, m in res.metrics.items():
        count = f"  (n={m['count']})" if m["count"] is not None else ""
        log(f"   {name:<28} {m['value']:>16.6g} {m['unit']}{count}")
    for c in res.checks:
        if not c["ok"]:
            log(f"   CHECK FAILED {c['name']}: {c['detail']}")
    for c in res.notes:
        if not c["ok"]:
            log(f"   NOTE (the traced replica no longer mirrors the tree) {c['name']}: "
                f"{c['detail']}")
    if res.table:
        log("   " + res.table.rstrip("\n").replace("\n", "\n   "))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="measured seconds per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--spans-out", help="span CSV of a traced run "
                        "(default .bench_build/run/spans-<workload>.csv)")
    parser.add_argument("--out", help="append this run's records to a results JSON "
                        "file (read by benchmark/compare.py)")
    args = parser.parse_args()
    # Terminated from outside: unwind through `finally` so no daemon outlives us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))

    try:
        seconds = args.seconds or int(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
        if seconds < 5:
            raise BenchError("--seconds must be at least 5")
        build()
        WORK.mkdir(parents=True, exist_ok=True)
        proc = spawn([BIN["oracle"]], stdout=subprocess.PIPE, text=True)
        oracle_out = proc.communicate(timeout=60)[0]
        _children.remove(proc)
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        results = []
        for workload in workloads:
            if args.trace:
                spans = Path(args.spans_out) if args.spans_out else WORK / f"spans-{workload}.csv"
                res = run_traced(workload, args.seed, seconds, spans)
            elif workload == "run-suite":
                res = run_suite(args.seed, seconds)
            else:
                res = run_serve(workload, args.seed, seconds)
            res.check("oracle_test", proc.returncode == 0, oracle_out.strip().splitlines()[-1])
            print_result(res)
            results.append(res)
    except (BenchError, OSError, subprocess.SubprocessError, KeyError, ValueError) as err:
        stop_all()
        print(f"benchmark: {err}", file=sys.stderr)
        return 2
    finally:
        stop_all()

    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
        doc["runs"] += [r.record() for r in results]
        path.write_text(json.dumps(doc, indent=1) + "\n")

    wanted = catalog.per_layer() if args.trace else catalog.end_to_end()
    correct = all(r.correct for r in results)
    # A run that failed a check early (the pre-flight) lacks metrics: null.
    prefix = (lambda r: "") if len(results) == 1 else (lambda r: f"{r.workload}.")
    metrics = {prefix(r) + m.name: {"value": r.metrics.get(m.name, {}).get("value"), "unit": m.unit}
               for r in results for m in wanted}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r.attempted for r in results),
                      "failed": sum(r.failed for r in results),
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
