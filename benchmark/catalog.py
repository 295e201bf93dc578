"""Every metric the benchmark prints: name, unit, direction and bound.

The gated metrics (reported by every workload) and the per-layer metrics
are read from BENCHMARK.json at the root of the checkout, so their bounds
live in one place.  DETAIL holds the workload-specific metrics behind them;
run.py prints them and records them in --out files, and compare.py judges
them with the bounds given here.
"""

import functools
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Metric:
    def __init__(self, name, unit, better, bound=None, absolute=False):
        self.name = name
        self.unit = unit
        self.better = better      # "lower" or "higher"
        self.bound = bound        # allowed worsening; None = informational
        self.absolute = absolute  # bound is an absolute difference, not a share

    def worse_by(self, base, new):
        """How much worse `new` is than `base`, in the bound's terms."""
        diff = new - base if self.better == "lower" else base - new
        if self.absolute:
            return diff
        return diff / abs(base) if base else (0.0 if diff <= 0 else float("inf"))


@functools.cache
def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end():
    return [Metric(m["name"], m["unit"], m["better"], m["bound"])
            for m in _benchmark_json()["end_to_end"]]


def per_layer():
    return [Metric(m["name"], m["unit"], m["better"])
            for m in _benchmark_json()["per_layer"]]


DETAIL = [
    Metric("sustained_samples_per_s", "samples/s", "higher", 0.10),
    Metric("cpu_ns_per_sample", "ns", "lower", 0.10),
    Metric("cpu_ns_per_query", "ns", "lower", 0.10),
    Metric("ingest_loss_frac", "fraction", "lower", 0.001, absolute=True),
    Metric("ingest_lag_p50_ms", "ms", "lower", 0.25),
    Metric("ingest_lag_p99_ms", "ms", "lower", 0.25),
    Metric("predict_p50_us", "us", "lower", 0.15),
    Metric("predict_p99_us", "us", "lower", 0.25),
    Metric("queries_per_s", "1/s", "higher", 0.10),
    Metric("query_fail_frac", "fraction", "lower", 0.001, absolute=True),
    Metric("served_p99_err_pct", "%", "lower", 0.10),
    Metric("run_suite_s", "s", "lower", 0.10),
    Metric("ingested_samples_per_s", "samples/s", "higher"),
    Metric("served_p99_ms", "ms", "lower"),
    Metric("exact_p99_ms", "ms", "lower"),
    Metric("gen_late_p99_ms", "ms", "lower"),
    Metric("idle_rtt_p50_ms", "ms", "lower"),
    Metric("send_errors", "count", "lower"),
    Metric("udp.kernel_drops", "count", "lower"),
    Metric("ring.shed_batches", "count", "lower"),
    Metric("agents.evicted", "count", "lower"),
    Metric("clock_clamped", "count", "lower"),
    Metric("reader.busy_frac", "fraction", "lower"),
    Metric("worker.busy_frac", "fraction", "lower"),
    Metric("query.busy_frac", "fraction", "lower"),
    Metric("run.out_of_bracket", "count", "lower"),
    Metric("ingest.window_samples", "count", "lower"),
    Metric("query.plane_share_pct", "%", "higher"),
    Metric("run.layers_share_pct", "%", "higher"),
    Metric("run.in_process_ms", "ms", "lower"),
]


@functools.cache
def all_metrics():
    """name -> Metric over every metric the benchmark can print."""
    out = {m.name: m for m in DETAIL}
    for m in end_to_end() + per_layer():
        out[m.name] = m
    return out
