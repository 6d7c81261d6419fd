"""End-to-end benchmark of the paper-figure pipeline.

Regenerates scaled-down paper figures through the public API
(``repro.analysis.figures`` over a serial, uncached ``repro.exec.Runner``)
and measures host time, set-up time and peak memory per workload. One
client regenerates figures in a closed loop: the driver starts one child
process per sample, one at a time, cycling round-robin through the
workloads so slow phases of a shared host hit every workload alike.
Every sample starts from a fresh interpreter and empty modelled caches.

Usage (from the repository root)::

    python3 benchmarks/perf/run.py                      # all workloads, 7 rounds
    python3 benchmarks/perf/run.py --workload fig8-graph --seconds 28
    python3 benchmarks/perf/run.py --trace 1            # per-layer host time
    python3 benchmarks/perf/run.py --out a.json
    python3 benchmarks/perf/run.py compare a.json b.json
    python3 benchmarks/perf/run.py --update-expected    # rewrite expected.json

Every sample's figure rows and report digests are checked: against
``expected.json`` for ``--seed 0``, and for other seeds against the run's
first sample and the paper's qualitative invariants. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median, quantiles
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import layers

EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: name -> why it is in the benchmark
WORKLOADS: Dict[str, str] = {
    "fig8-spec": "initialization phase of all 26 SPEC models: allocation and "
                 "first stores load core/mem, 52 short experiments expose "
                 "per-experiment sim/exec cost",
    "fig8-graph": "read-heavy graph kernels over write-once arrays, dominated "
                  "by TLB and L1 hits in runtime/kernel/cpu, little "
                  "controller work",
    "fig12-sweep": "counter cache from thrashing to fitting: controller side "
                   "(core, mem, cache.counter, obs) dominates",
    "zeroing": "the write and shred side: temporal, non-temporal, DMA, "
               "RowClone and shred zeroing, the shred register, "
               "re-encryption under each policy",
}

#: (name, unit, bound): the share by which the median may worsen
END_TO_END: Tuple[Tuple[str, str, float], ...] = (
    ("wall_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.05),
)

#: report counters summed over every Runner-returned report
MODEL_COUNTERS = (
    "cpu.loads", "cpu.stores", "cache.l1.hits", "cache.l1.misses",
    "cache.l4.hits", "cache.l4.misses", "cache.counter.hits",
    "cache.counter.misses", "mem.ctrl.data_reads", "mem.ctrl.data_writes",
    "mem.ctrl.zero_fill_reads", "kernel.faults.minor",
    "kernel.zeroing.pages_zeroed",
)

#: the host probe's time on the reference host (a 2-vCPU VM running
#: CPython 3.11) in a quiet phase; wall_s and setup_s are reported in
#: seconds of that host
PROBE_REFERENCE_S = 0.06

CHILD_TIMEOUT_S = 150
KB = 1024
GRAPH_APPS = ("PAGERANK", "SIMPLE_COLORING", "KCORE")


# ---------------------------------------------------------------------------
# Child: one workload in a fresh interpreter
# ---------------------------------------------------------------------------

def seeded(seed: int) -> Tuple[float, Callable[[Sequence], list]]:
    """Input variation for ``seed``: a size factor within 1 % of 1 and a
    shuffle of each input list. Seed 0 is the canonical input."""
    if seed == 0:
        return 1.0, list
    rng = random.Random(seed)
    factor = 1.0 + 0.01 * (2.0 * rng.random() - 1.0)

    def order(items: Sequence) -> list:
        shuffled = list(items)
        rng.shuffle(shuffled)
        return shuffled
    return factor, order


def plan(name: str, seed: int) -> Callable[[], Tuple[Dict[str, dict], list]]:
    """Build the inputs of one workload; the returned callable runs it and
    gives ``(rows by key, Runner-returned reports)``."""
    from repro.analysis import figures
    from repro.config import bench_config
    from repro.exec import Runner
    from repro.workloads import SPEC_BENCHMARKS

    factor, order = seeded(seed)
    config = bench_config()
    runner = Runner(jobs=1, use_cache=False)
    reports: list = []

    def recording_run(experiments):
        # Looked up on the class at call time, so the tracer's wrapper runs.
        batch = Runner.run(runner, experiments)
        reports.extend(batch)
        return batch
    runner.run = recording_run

    def keyed(prefix: str, rows: List[dict], field: str) -> Dict[str, dict]:
        return {f"{prefix}:{row[field]}": row for row in rows}

    if name == "fig8-spec":
        names, scale = order(SPEC_BENCHMARKS), 0.05 * factor

        def work():
            results = figures.fig8_to_11_study(
                benchmarks=names, scale=scale, cores=2, config=config,
                runner=runner)
            return keyed("fig8", [r.row() for r in results], "workload")
    elif name == "fig8-graph":
        apps, nodes = order(GRAPH_APPS), round(1000 * factor)

        def work():
            results = figures.fig8_to_11_study(
                benchmarks=apps, powergraph_nodes=nodes, config=config,
                runner=runner)
            return keyed("fig8", [r.row() for r in results], "workload")
    elif name == "fig12-sweep":
        sizes, scale = order([2 * KB, 8 * KB, 64 * KB]), 0.3 * factor

        def work():
            return keyed("fig12", figures.fig12_counter_cache_sweep(
                sizes, benchmark="GEMS", scale=scale, config=config,
                runner=runner), "size_bytes")
    elif name == "zeroing":
        page = config.kernel.page_size
        memsets = order([round(size * factor / page) * page
                         for size in (256 * KB, 1024 * KB)])
        apps, nodes = order(GRAPH_APPS), round(300 * factor)
        pages, shreds = round(24 * factor), round(80 * factor)

        def work():
            rows = keyed("fig4", figures.fig4_memset(memsets, config=config),
                         "size_bytes")
            rows.update(keyed("fig5", figures.fig5_zeroing_writes(
                apps, num_nodes=nodes), "app"))
            rows.update(keyed("table2", figures.table2_mechanisms(
                pages=pages, config=config, runner=runner), "mechanism"))
            rows.update(keyed("ablation", figures.ablation_policies(
                shreds_per_page=shreds, config=config, runner=runner),
                "policy"))
            return rows
    else:
        raise ValueError(f"unknown workload {name!r}")
    return lambda: (work(), reports)


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def outputs(rows: Dict[str, dict], reports: list) -> Dict[str, str]:
    """Checked outputs: each figure row as canonical JSON, and the sha256
    of each report's ``to_dict()``."""
    checked = {key: canonical(row) for key, row in rows.items()}
    for report in reports:
        variant = "shredder" if report.shredder else "baseline"
        checked[f"report:{report.name}:{variant}"] = hashlib.sha256(
            canonical(report.to_dict()).encode()).hexdigest()
    return checked


def model_totals(reports: list) -> Dict[str, float]:
    return {name: sum(r.metrics[name]["value"] for r in reports
                      if name in r.metrics)
            for name in MODEL_COUNTERS}


def child(name: str, seed: int, traced: bool) -> None:
    """Protocol on stdout: ``ready`` once set up, then one JSON line."""
    protocol, sys.stdout = sys.stdout, sys.stderr
    sys.path.insert(0, str(layers.SRC))
    work = plan(name, seed)
    tracer = calibration = None
    if traced:
        boundaries = layers.resolve()
        calibration = layers.calibrate(boundaries)
        tracer = layers.LayerTracer(boundaries)
        tracer.install()
    print("ready", file=protocol, flush=True)
    start = time.perf_counter()
    if tracer is not None:
        tracer.start()
    rows, reports = work()
    if tracer is not None:
        tracer.stop()
    wall_s = time.perf_counter() - start
    payload = {"wall_s": wall_s, "outputs": outputs(rows, reports),
               "model": model_totals(reports)}
    if tracer is not None:
        tracer.uninstall()
        payload["layers"] = tracer.layer_times(*calibration)
    print(json.dumps(payload), file=protocol, flush=True)


# ---------------------------------------------------------------------------
# Parent: sampling, checking, reporting
# ---------------------------------------------------------------------------

class SetupError(RuntimeError):
    """A child failed before its ready line: the program cannot start."""


def run_child(name: str, seed: int, traced: bool) -> dict:
    """One sample: set-up time, peak RSS and the child's payload (absent
    when the workload raised)."""
    command = [sys.executable, str(Path(__file__).resolve()), "child", name,
               str(seed), "1" if traced else "0"]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        done = proc.stdout.readline()
        proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    if ready != "ready\n":
        raise SetupError(f"{name}: child exited {proc.returncode} before "
                         "it was ready")
    sample = {"setup_s": setup_s, "peak_rss_mb": usage.ru_maxrss / 1024}
    if proc.returncode == 0 and done:
        sample.update(json.loads(done))
    return sample


class _Sets:
    """A small set-associative LRU cache: the host probe's work."""

    def __init__(self, ways: int) -> None:
        self.ways, self.sets = ways, {}

    def access(self, block: int) -> None:
        lines = self.sets.setdefault(block & 63, [])
        tag = block >> 6
        if tag in lines:
            lines.remove(tag)
        elif len(lines) == self.ways:
            del lines[0]
        lines.append(tag)


def host_probe(accesses: int = 150_000) -> float:
    """Seconds the host takes for a fixed pure-Python cache-model loop."""
    cache, state = _Sets(8), 12345
    start = time.perf_counter()
    for _ in range(accesses):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        cache.access(state % 4096)
    return time.perf_counter() - start


def violations(checked: Dict[str, str]) -> List[str]:
    """Keys of rows that break the paper's qualitative results."""
    rows = {key: json.loads(value) for key, value in checked.items()
            if not key.startswith("report:")}
    bad = []
    for key, row in rows.items():
        kind = key.split(":", 1)[0]
        if kind == "fig8" and not (row["write_savings_pct"] >= 0
                                   and row["read_speedup"] >= 1.0
                                   and row["relative_ipc"] >= 1.0):
            bad.append(key)
        elif kind == "fig4" and not (row["first_memset_ns"]
                                     > row["second_memset_ns"]):
            bad.append(key)
        elif kind == "fig5" and not row["rel_nozero"] < 1.0:
            bad.append(key)
        elif key == "table2:shred" and not (row["no_memory_writes"]
                                            and row["no_cache_pollution"]):
            bad.append(key)
        elif key == "ablation:major-reset-minors" \
                and not row["reads_return_zero"]:
            bad.append(key)
    sweep = sorted((row["size_bytes"], row["miss_rate"], key)
                   for key, row in rows.items() if key.startswith("fig12:"))
    for (_, smaller, _), (_, larger, key) in zip(sweep, sweep[1:]):
        if larger > smaller * 1.05 + 1e-6:        # miss rate falls with size
            bad.append(key)
    if sweep and not sweep[0][1] > 3 * sweep[-1][1]:   # a knee exists
        bad.append(sweep[-1][2])
    return bad


def mismatches(checked: Dict[str, str],
               reference: Dict[str, str]) -> Dict[str, str]:
    """Key -> reason for every output that is missing, differs, is
    unexpected, or breaks an invariant."""
    bad = {}
    for key, value in reference.items():
        if key not in checked:
            bad[key] = "missing"
        elif checked[key] != value:
            bad[key] = "differs"
    for key in checked:
        if key not in reference:
            bad[key] = "unexpected"
    for key in violations(checked):
        bad.setdefault(key, "breaks an invariant of the paper")
    return bad


def iqr(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q3 - q1


class Measurement:
    """Samples of every workload in one invocation."""

    def __init__(self, names: Sequence[str], seed: int,
                 expected: Optional[Dict[str, Dict[str, str]]]) -> None:
        self.seed = seed
        self.expected = expected or {}
        self.reference: Dict[str, Dict[str, str]] = {
            name: self.expected[name] for name in names
            if seed == 0 and name in self.expected}
        self.workloads = {name: {
            "attempted": 0, "failed": 0,
            "samples": {"host_wall_s": [], "host_setup_s": [],
                        "peak_rss_mb": [], "traced_wall_s": [], "probe_s": []},
            "traced": [], "model": None} for name in names}
        self.first_error: Optional[str] = None

    def sample(self, name: str, traced: bool) -> None:
        entry = self.workloads[name]
        entry["samples"]["probe_s"].append(host_probe())
        result = run_child(name, self.seed, traced)
        entry["samples"]["probe_s"].append(host_probe())
        if "outputs" not in result:
            count = len(self.reference.get(name) or self.expected.get(name)
                        or [None])
            entry["attempted"] += count
            entry["failed"] += count
            self.note(f"{name}: the workload raised (see stderr); "
                      f"{count} outputs failed")
            return
        checked = result["outputs"]
        reference = self.reference.setdefault(name, checked)
        bad = mismatches(checked, reference)
        entry["attempted"] += len(set(reference) | set(checked))
        entry["failed"] += len(bad)
        for key, reason in bad.items():
            self.note(f"{name}: {key} {reason}")
            break
        entry["model"] = entry["model"] or result["model"]
        if traced:
            entry["samples"]["traced_wall_s"].append(result["wall_s"])
            entry["traced"].append(result["layers"])
        else:
            entry["samples"]["host_wall_s"].append(result["wall_s"])
            entry["samples"]["host_setup_s"].append(result["setup_s"])
            entry["samples"]["peak_rss_mb"].append(result["peak_rss_mb"])

    def note(self, message: str) -> None:
        if self.first_error is None:
            self.first_error = message
            print(f"error: {message}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return sum(w["attempted"] for w in self.workloads.values())

    @property
    def failed(self) -> int:
        return sum(w["failed"] for w in self.workloads.values())


def measure(names: Sequence[str], seed: int, *, repeat: int, seconds: float,
            trace: bool,
            expected: Optional[Dict[str, Dict[str, str]]]) -> Measurement:
    """Round-robin samples until ``repeat`` rounds are done and another
    round would overrun ``seconds``."""
    measurement = Measurement(names, seed, expected)
    deadline = time.monotonic() + seconds
    rounds, last_round = 0, 0.0
    while rounds < repeat or time.monotonic() + last_round <= deadline:
        started = time.monotonic()
        for name in names:
            measurement.sample(name, traced=False)
            if trace:
                measurement.sample(name, traced=True)
        last_round = time.monotonic() - started
        rounds += 1
    return measurement


def probe_quartile(entry: dict) -> float:
    """The host's speed during a run: the lower quartile of the probe
    times taken around its samples. A shared host's slow phases slow the
    probe and the workload alike, and its short bursts only ever add
    time, so the lower quartile follows both kinds of phase."""
    return quantiles(entry["samples"]["probe_s"], n=4)[0]


def end_to_end(entry: dict) -> Dict[str, List[float]]:
    """Samples of the end-to-end metrics of one workload, host times
    scaled to the reference host's speed."""
    samples = entry["samples"]
    scale = PROBE_REFERENCE_S / probe_quartile(entry)
    return {"wall_s": [t * scale for t in samples["host_wall_s"]],
            "setup_s": [t * scale for t in samples["host_setup_s"]],
            "peak_rss_mb": list(samples["peak_rss_mb"])}


def layer_summary(entry: dict) -> Dict[str, float]:
    """Per-layer metrics of one workload from its traced samples."""
    metrics: Dict[str, float] = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = median(
            [t[layer]["self_s"] for t in entry["traced"]])
        if layer != layers.ROOT:
            metrics[f"{layer}.calls"] = median(
                [t[layer]["calls"] for t in entry["traced"]])
    samples = entry["samples"]
    metrics["trace.overhead_frac"] = (median(samples["traced_wall_s"])
                                      / median(samples["host_wall_s"]) - 1.0)
    metrics.update(model_metrics(entry["model"]))
    return metrics


def model_metrics(totals: Dict[str, float]) -> Dict[str, float]:
    def rate(part: str, other: str) -> float:
        total = totals[part] + totals[other]
        return totals[part] / total if total else 0.0
    return {
        "model.cpu.loads": totals["cpu.loads"],
        "model.cpu.stores": totals["cpu.stores"],
        "model.cache.l1.hit_rate": rate("cache.l1.hits", "cache.l1.misses"),
        "model.cache.l4.miss_rate": rate("cache.l4.misses", "cache.l4.hits"),
        "model.cache.counter.miss_rate": rate("cache.counter.misses",
                                              "cache.counter.hits"),
        "model.mem.ctrl.data_reads": totals["mem.ctrl.data_reads"],
        "model.mem.ctrl.data_writes": totals["mem.ctrl.data_writes"],
        "model.mem.ctrl.zero_fill_reads": totals["mem.ctrl.zero_fill_reads"],
        "model.kernel.faults.minor": totals["kernel.faults.minor"],
        "model.kernel.zeroing.pages_zeroed":
            totals["kernel.zeroing.pages_zeroed"],
    }


def unit_of(metric: str) -> str:
    if metric.endswith("self_s"):
        return "s"
    return "fraction" if metric.endswith(("_rate", "_frac")) else "count"


def contract_metrics(measurement: Measurement, trace: bool) -> Dict[str, dict]:
    """The last line's metrics, over all workloads run: times and counts
    add up, set-up is the median sample, memory the largest median."""
    entries = list(measurement.workloads.values())
    if not trace:
        samples = [end_to_end(e) for e in entries]
        values = {
            "wall_s": sum(median(s["wall_s"]) for s in samples),
            "setup_s": median([t for s in samples for t in s["setup_s"]]),
            "peak_rss_mb": max(median(s["peak_rss_mb"]) for s in samples),
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in END_TO_END}
    summaries = [layer_summary(e) for e in entries]
    values = {key: sum(s[key] for s in summaries) for key in summaries[0]
              if not key.startswith(("model.", "trace."))}
    values["trace.overhead_frac"] = (
        sum(median(e["samples"]["traced_wall_s"]) for e in entries)
        / sum(median(e["samples"]["host_wall_s"]) for e in entries) - 1.0)
    values.update(model_metrics({name: sum(e["model"][name] for e in entries)
                                 for name in MODEL_COUNTERS}))
    return {key: {"value": value, "unit": unit_of(key)}
            for key, value in values.items()}


def describe(measurement: Measurement, trace: bool) -> List[str]:
    """Human-readable per-workload summary."""
    lines = []
    for name, entry in measurement.workloads.items():
        samples = entry["samples"]
        lines.append(f"{name}: {entry['failed']}/{entry['attempted']} "
                     "outputs failed")
        for metric, values in end_to_end(entry).items():
            lines.append(f"  {metric:<12} {median(values):10.4f} "
                         f"IQR {100 * iqr(values) / median(values):5.1f}% "
                         f"n={len(values)}")
        wall = median(samples["host_wall_s"])
        lines.append(f"  on this host: wall {wall:.4f} s, setup "
                     f"{median(samples['host_setup_s']):.4f} s, probe lower "
                     f"quartile {probe_quartile(entry):.4f} s")
        if trace:
            summary = layer_summary(entry)
            total = sum(summary[f"{layer}.self_s"] for layer in layers.LAYERS)
            for layer in layers.LAYERS:
                self_s = summary[f"{layer}.self_s"]
                calls = summary.get(f"{layer}.calls", 0)
                lines.append(f"  {layer:<14} {self_s:8.3f} s "
                             f"{100 * self_s / total:5.1f}% {calls:10.0f} calls")
            lines.append(f"  layers sum to {total:.3f} s = "
                         f"{total / wall:.3f} x untraced wall_s; tracing "
                         f"overhead {summary['trace.overhead_frac']:+.1%}")
    return lines


def as_set(measurement: Measurement, args) -> dict:
    workloads = {}
    for name, entry in measurement.workloads.items():
        record = {key: entry[key] for key in ("attempted", "failed",
                                              "samples", "model")}
        record["end_to_end"] = end_to_end(entry)
        if args.trace:
            record["layers"] = layer_summary(entry)
        workloads[name] = record
    return {"seed": args.seed, "trace": args.trace,
            "repeat": args.repeat, "seconds": args.seconds,
            "host": {"python": platform.python_version(),
                     "platform": platform.platform(),
                     "cpus": os.cpu_count()},
            "workloads": workloads}


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def verdict(a: Sequence[float], b: Sequence[float], bound: float) -> str:
    """``better``/``within``/``worse`` by the median change against the
    bound (lower is better), ``unresolved`` when either side's spread
    exceeds the bound and the samples overlap."""
    ma, mb = median(a), median(b)
    if max(iqr(a) / ma, iqr(b) / mb) > bound:
        if max(b) < min(a):
            return "better"
        if min(b) > max(a):
            return "worse"
        return "unresolved"
    change = (mb - ma) / ma
    if change > bound:
        return "worse"
    return "better" if change < -bound else "within"


def pooled(path: str) -> Dict[str, dict]:
    """Per workload: samples and output counts pooled over every set."""
    pool: Dict[str, dict] = {}
    for result_set in json.loads(Path(path).read_text())["sets"]:
        for name, record in result_set["workloads"].items():
            entry = pool.setdefault(name, {"attempted": 0, "failed": 0, **{
                metric: [] for metric, _, _ in END_TO_END}})
            entry["attempted"] += record["attempted"]
            entry["failed"] += record["failed"]
            for metric, _, _ in END_TO_END:
                entry[metric] += record["end_to_end"][metric]
    return pool


def compare(path_a: str, path_b: str) -> int:
    a, b = pooled(path_a), pooled(path_b)
    print(f"{'metric':<12} {'workload':<12} {'A median':>10} {'IQR':>6} "
          f"{'n':>3} {'B median':>10} {'IQR':>6} {'n':>3} {'change':>8}  "
          "verdict")
    worse = False
    for metric, _, bound in END_TO_END:
        for name in [n for n in a if n in b]:
            xa, xb = a[name][metric], b[name][metric]
            ma, mb = median(xa), median(xb)
            result = verdict(xa, xb, bound)
            worse |= result == "worse"
            print(f"{metric:<12} {name:<12} {ma:10.4f} "
                  f"{100 * iqr(xa) / ma:5.1f}% {len(xa):3d} {mb:10.4f} "
                  f"{100 * iqr(xb) / mb:5.1f}% {len(xb):3d} "
                  f"{100 * (mb - ma) / ma:+7.1f}%  {result}")
    for name in [n for n in a if n in b]:
        ea = a[name]["failed"] / max(1, a[name]["attempted"])
        eb = b[name]["failed"] / max(1, b[name]["attempted"])
        result = "worse" if eb > ea else "better" if eb < ea else "within"
        worse |= result == "worse"
        print(f"{'error_rate':<12} {name:<12} {ea:10.4f} {'':>6} "
              f"{a[name]['attempted']:3d} {eb:10.4f} {'':>6} "
              f"{b[name]['attempted']:3d} {'':>8}  {result}")
    return 1 if worse else 0


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Benchmark the paper-figure pipeline end to end "
                    "(compare: run.py compare A.json B.json)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is canonical and checked "
                             "against expected.json")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep sampling round-robin for this long")
    parser.add_argument("--repeat", type=int,
                        help="minimum rounds over the workloads (default 7, "
                             "or 1 with --seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run traced samples and report per-layer "
                             "metrics")
    parser.add_argument("--out", help="write the samples to this JSON file")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite expected.json from this run (seed 0)")
    args = parser.parse_args(argv)
    if args.update_expected and args.seed != 0:
        parser.error("--update-expected needs --seed 0")
    args.trace = bool(args.trace)
    if args.repeat is None:
        args.repeat = 1 if args.seconds else 7
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    return args


def main(argv: Sequence[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    if argv[:1] == ["child"]:
        child(argv[1], int(argv[2]), argv[3] == "1")
        return 0
    args = parse(argv)
    if not (layers.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {layers.SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    expected = None
    if not args.update_expected and EXPECTED.is_file():
        expected = json.loads(EXPECTED.read_text())["workloads"]
    try:
        measurement = measure(names, args.seed, repeat=args.repeat,
                              seconds=args.seconds, trace=args.trace,
                              expected=expected)
    except SetupError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    empty = [name for name, entry in measurement.workloads.items()
             if not entry["samples"]["host_wall_s"]
             or (args.trace and not entry["traced"])]
    if empty:
        print(f"error: no sample of {', '.join(empty)} completed",
              file=sys.stderr)
        return 1
    if args.update_expected and measurement.failed == 0:
        previous = json.loads(EXPECTED.read_text())["workloads"] \
            if EXPECTED.is_file() else {}
        previous.update(measurement.reference)
        EXPECTED.write_text(json.dumps(
            {"seed": 0, "workloads": previous}, indent=1, sort_keys=True)
            + "\n")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"sets": [as_set(measurement, args)]}, indent=1) + "\n")
    for line in describe(measurement, args.trace):
        print(line)
    print(json.dumps({
        "correct": measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": contract_metrics(measurement, args.trace),
    }))
    return 1 if measurement.failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
