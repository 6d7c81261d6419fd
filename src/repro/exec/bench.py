"""``repro bench``: the toolchain's performance trajectory harness.

Runs named scenarios — deterministic access streams driven through the
scalar, batch and vector engines over fresh systems — and records two
strictly separated kinds of output per scenario:

* **deterministic** facts: a canonical SHA-256 digest of the final
  :class:`~repro.sim.system.SystemReport` per engine (they must agree —
  the engine equivalence contract, re-checked on every bench run), plus
  each engine's :class:`~repro.sim.batch.EngineResult` totals.
  Identical on every host and every run — including hosts without
  numpy, where the ``vector`` engine resolves to its pure-Python
  kernel: the kernel backend never enters the deterministic section.
* **wall-clock** measurements: per-repeat run times, best/mean, and the
  batch/vector-over-scalar speedups, under ``timing``; per-phase
  :mod:`repro.obs` span records under ``spans``; host facts (including
  which vector kernel actually ran) under ``meta``. These vary run to
  run and are excluded from determinism comparisons.

Results land in ``BENCH_<scenario>.json`` in the output directory (the
current one by default; such files are scratch output, git-ignored at
the repo root). The committed baselines are the files under
``benchmarks/baselines/``. ``compare_results`` gates a fresh run
against one of them:
any deterministic divergence fails outright; wall-clock regressions
fail when an engine got more than ``threshold`` (fractional) slower.

``run_scenario(..., profile_dir=...)`` additionally runs each engine
once under :mod:`cProfile` and dumps per-engine ``.pstats`` files —
the profiled run is separate from the measured repeats so profiler
overhead never pollutes the recorded timings.

Wall-clock reads live here — the exec layer — deliberately: the
determinism pass (REPRO101) bans them from ``repro.sim`` and below.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..config import SystemConfig, bench_config, fast_config
from ..errors import ExperimentError
from ..obs.registry import MetricsRegistry
from ..obs.spans import SpanTracer
from ..sim import AccessBatch, OP_READ, OP_SHRED, OP_WRITE, System
from ..sim.kernels import resolve_kernel
from ..workloads import SPEC_BENCHMARKS, spec_access_batch

#: Bump when the BENCH_*.json layout changes incompatibly.
SCHEMA_VERSION = 2

#: Keys of the result document that carry wall-clock (non-deterministic)
#: data; everything else must be identical across runs and hosts.
WALL_CLOCK_KEYS = ("timing", "spans", "meta")


@dataclass(frozen=True)
class BenchScenario:
    """One named benchmark: a stream, a config, and engines to race.

    ``num_cores`` switches the ``synthetic`` source onto the hierarchy
    datapath (the batch gains a cores array); ``burst`` adds back-to-
    back block reuse there. Two structured sources exercise the bulk
    walk's extremes: ``llc-sweep`` shreds ``pages`` pages then reads
    every block of them sequentially ``sweeps`` times (``burst``
    repeats per block) — every block misses the LLC and zero-fills;
    ``pingpong`` makes cores 0/1 alternate stores to the same lines
    while cores 2/3 read them — the coherence slow path on every head.
    """

    name: str
    description: str
    config: str = "bench"              # "bench" (timing-only) | "fast"
    source: str = "synthetic"          # "llc-sweep" | "pingpong" | SPEC name
    accesses: int = 20000
    pages: int = 64
    read_fraction: float = 0.7
    locality: float = 0.85
    shred_fraction: float = 0.0
    epoch_length: int = 256
    seed: int = 1234
    scale: float = 1.0                 # SPEC source scaling
    shredder: bool = True
    num_cores: Optional[int] = None    # hierarchy datapath when set
    burst: int = 1                     # back-to-back reuse per block
    sweeps: int = 2                    # passes for the structured sources
    engines: Tuple[str, ...] = ("scalar", "batch", "vector")

    def make_config(self) -> SystemConfig:
        if self.config == "bench":
            return bench_config()
        if self.config == "fast":
            return fast_config()
        raise ExperimentError(f"scenario {self.name}: unknown config kind "
                              f"{self.config!r}")

    def build_batch(self, config: SystemConfig) -> AccessBatch:
        page_size = config.kernel.page_size
        block_size = config.block_size
        if self.source == "synthetic":
            return AccessBatch.synthetic(
                self.accesses, num_pages=self.pages,
                page_size=page_size, block_size=block_size,
                read_fraction=self.read_fraction,
                shred_fraction=self.shred_fraction,
                locality=self.locality, epoch_length=self.epoch_length,
                seed=self.seed, num_cores=self.num_cores, burst=self.burst)
        if self.source == "llc-sweep":
            trace = [(page * page_size, OP_SHRED)
                     for page in range(self.pages)]
            blocks = self.pages * (page_size // block_size)
            for _ in range(self.sweeps):
                for block in range(blocks):
                    trace.extend([(block * block_size, OP_READ)] * self.burst)
            return AccessBatch.from_trace(trace,
                                          epoch_length=self.epoch_length,
                                          cores=[0] * len(trace))
        if self.source == "pingpong":
            blocks_per_page = min(16, page_size // block_size)
            trace: List[Tuple[int, int]] = []
            cores: List[int] = []
            for _ in range(self.sweeps):
                for page in range(self.pages):
                    for block in range(blocks_per_page):
                        address = page * page_size + block * block_size
                        for core in (0, 1):
                            trace.append((address, OP_WRITE))
                            cores.append(core)
                        for core in (2, 3):
                            trace.append((address, OP_READ))
                            cores.append(core)
            return AccessBatch.from_trace(trace,
                                          epoch_length=self.epoch_length,
                                          cores=cores)
        if self.source in SPEC_BENCHMARKS:
            spec = SPEC_BENCHMARKS[self.source]
            if self.scale != 1.0:
                spec = spec.scaled(self.scale)
            return spec_access_batch(spec,
                                     page_size=page_size,
                                     block_size=block_size,
                                     epoch_length=self.epoch_length)
        raise ExperimentError(f"scenario {self.name}: source "
                              f"{self.source!r} is not 'synthetic', "
                              "'llc-sweep', 'pingpong' or a SPEC "
                              "benchmark name")

    def params(self) -> Dict[str, Any]:
        return {k: v for k, v in self.__dict__.items()
                if k not in ("name", "description", "engines")}


#: The named scenarios ``repro bench`` knows out of the box. Built in
#: one assignment (never mutated) so the catalog is safe to read from
#: any backend thread without locking.
SCENARIOS: Dict[str, BenchScenario] = {scenario.name: scenario for scenario in (
    BenchScenario(
        name="smoke",
        description="Small mixed stream; the CI gate scenario.",
        accesses=20000, pages=64, read_fraction=0.7, locality=0.85),
    BenchScenario(
        name="counter-hot",
        description="Hierarchy-through multicore stream with bursty "
                    "block reuse over a private-cache-sized footprint: "
                    "long L1-hit runs, the bulk walk's best case (the "
                    "few LLC misses stay counter-cache hits).",
        accesses=40000, pages=12, read_fraction=0.7, locality=0.95,
        epoch_length=512, num_cores=4, burst=6),
    BenchScenario(
        name="llc-thrash",
        description="Shred-then-sweep: sequential reads over 2x the L4 "
                    "capacity, every block re-read within its line; all "
                    "LLC misses zero-fill from shredded pages (Silent "
                    "Shredder's free reads).",
        source="llc-sweep", pages=256, burst=8, sweeps=2,
        epoch_length=4096, num_cores=1, accesses=0),
    BenchScenario(
        name="coherence-pingpong",
        description="Cores 0/1 alternate stores to the same lines while "
                    "cores 2/3 read them: ownership bounces on every "
                    "access, the bulk walk's coherence slow path.",
        source="pingpong", pages=8, sweeps=40, epoch_length=2048,
        num_cores=4, accesses=0),
    BenchScenario(
        name="counter-cold",
        description="Low-locality stream over 4x the counter-cache "
                    "reach: miss-dominated, minimal probe elision.",
        accesses=30000, pages=4096, read_fraction=0.7, locality=0.1),
    BenchScenario(
        name="write-burst",
        description="Write-back storm with periodic shreds (allocation "
                    "churn shape).",
        accesses=40000, pages=48, read_fraction=0.05, locality=0.95,
        shred_fraction=0.002),
    BenchScenario(
        name="spec-init",
        description="GCC init-phase accesses replayed through the "
                    "engines.",
        source="GCC", scale=0.5, accesses=0),
    BenchScenario(
        name="functional-crypto",
        description="Functional run with real payloads: grouped pad "
                    "generation on the read path.",
        config="fast", accesses=15000, pages=32, read_fraction=0.6,
        locality=0.9),
)}


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


def _report_digest(report_dict: Dict[str, Any]) -> str:
    payload = json.dumps(report_dict, sort_keys=True,
                         separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _run_once(scenario: BenchScenario, engine: str,
              batch: AccessBatch) -> Tuple[float, Any, Dict[str, Any]]:
    """One fresh-system run: returns (seconds, EngineResult, report dict)."""
    system = System(scenario.make_config(), shredder=scenario.shredder,
                    name=f"bench:{scenario.name}", engine=engine)
    runner = system.access_engine()
    start = time.perf_counter()
    result = runner.run(batch)
    elapsed = time.perf_counter() - start
    return elapsed, result, system.report().to_dict()


def run_scenario(name: str, *, warmup: int = 1, repeat: int = 3,
                 tracer: Optional[SpanTracer] = None,
                 profile_dir: Optional[Path] = None,
                 metrics: Optional[MetricsRegistry] = None) -> Dict[str, Any]:
    """Run one scenario and return its result document.

    ``profile_dir`` dumps one extra cProfile'd run per engine to
    ``<profile_dir>/<scenario>.<engine>.pstats`` (measured timings are
    never taken under the profiler). ``metrics`` receives the
    ``cache.bulk.*`` counters of the bulk hierarchy walk, published
    once per scenario — batch and vector produce identical counters
    under the equivalence contract, so the registry stays
    engine-agnostic.
    """
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ExperimentError(f"unknown bench scenario {name!r}; choose "
                              f"from {scenario_names()}")
    if repeat < 1:
        raise ExperimentError("repeat must be >= 1")
    tracer = tracer if tracer is not None else SpanTracer()

    with tracer.span(f"bench.{name}") as root:
        with tracer.span("build-batch"):
            batch = scenario.build_batch(scenario.make_config())
        root.attrs["accesses"] = len(batch)

        deterministic_engines: Dict[str, Any] = {}
        timing: Dict[str, Any] = {}
        digests: Dict[str, str] = {}
        profiles: Dict[str, str] = {}
        for engine in scenario.engines:
            with tracer.span(f"warmup.{engine}", {"runs": warmup}):
                for _ in range(warmup):
                    _run_once(scenario, engine, batch)
            runs: List[float] = []
            with tracer.span(f"measure.{engine}", {"runs": repeat}):
                for _ in range(repeat):
                    elapsed, result, report_dict = _run_once(
                        scenario, engine, batch)
                    runs.append(elapsed)
            digests[engine] = _report_digest(report_dict)
            deterministic_engines[engine] = result.as_dict()
            timing[engine] = {
                "runs_s": runs,
                "best_s": min(runs),
                "mean_s": sum(runs) / len(runs),
            }
            if profile_dir is not None:
                directory = Path(profile_dir)
                directory.mkdir(parents=True, exist_ok=True)
                stem = engine.replace(":", "-")
                path = directory / f"{scenario.name}.{stem}.pstats"
                profiler = cProfile.Profile()
                with tracer.span(f"profile.{engine}"):
                    profiler.enable()
                    _run_once(scenario, engine, batch)
                    profiler.disable()
                profiler.dump_stats(str(path))
                profiles[engine] = str(path)

    reports_identical = len(set(digests.values())) <= 1
    if "scalar" in timing and "batch" in timing:
        timing["speedup_batch_over_scalar"] = (
            timing["scalar"]["best_s"] / timing["batch"]["best_s"])
    if "scalar" in timing and "vector" in timing:
        timing["speedup_vector_over_scalar"] = (
            timing["scalar"]["best_s"] / timing["vector"]["best_s"])

    if metrics is not None:
        bulk = next((entry.get("bulk") for entry in
                     deterministic_engines.values() if entry.get("bulk")),
                    None)
        if bulk:
            for key in sorted(bulk):
                if bulk[key]:
                    metrics.counter(f"cache.bulk.{key}", unit="ops").inc(
                        bulk[key])

    meta = {
        "python": platform.python_version(),
        "platform": platform.system(),
        "warmup": warmup,
        "repeat": repeat,
        "generated_by": "repro bench",
    }
    if any(engine.startswith("vector") for engine in scenario.engines):
        # Which backend "vector" resolved to on THIS host — wall-clock
        # metadata only; the deterministic section must stay identical
        # with and without numpy.
        meta["vector_kernel"] = resolve_kernel("auto").name
    if profiles:
        meta["profiles"] = profiles

    return {
        "schema": SCHEMA_VERSION,
        "scenario": scenario.name,
        "description": scenario.description,
        "params": scenario.params(),
        "engines": list(scenario.engines),
        "deterministic": {
            "reports_identical": reports_identical,
            "report_digest": digests.get(scenario.engines[0]),
            "report_digests": digests,
            "engines": deterministic_engines,
        },
        "timing": timing,
        "spans": tracer.snapshot(),
        "meta": meta,
    }


def result_path(name: str, directory: Optional[Path] = None) -> Path:
    base = Path(directory) if directory is not None else Path.cwd()
    return base / f"BENCH_{name}.json"


def write_result(result: Dict[str, Any],
                 directory: Optional[Path] = None) -> Path:
    path = result_path(result["scenario"], directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def deterministic_view(result: Dict[str, Any]) -> Dict[str, Any]:
    """The document minus its wall-clock keys (what must reproduce)."""
    return {k: v for k, v in result.items() if k not in WALL_CLOCK_KEYS}


def compare_results(current: Dict[str, Any], baseline: Dict[str, Any], *,
                    threshold: float = 0.5) -> List[str]:
    """Gate ``current`` against ``baseline``; returns failure messages.

    Deterministic divergence (schema, scenario identity, report digests,
    engine totals) always fails. Wall-clock timings fail only when an
    engine ran more than ``threshold`` (fractional, e.g. ``0.5`` = 50 %)
    slower than the baseline's best time.
    """
    failures: List[str] = []
    for key in ("schema", "scenario"):
        if current.get(key) != baseline.get(key):
            failures.append(f"{key} mismatch: current {current.get(key)!r} "
                            f"vs baseline {baseline.get(key)!r}")
            return failures
    cur_det = deterministic_view(current)
    base_det = deterministic_view(baseline)
    if cur_det != base_det:
        diverged = sorted(k for k in set(cur_det) | set(base_det)
                          if cur_det.get(k) != base_det.get(k))
        failures.append("deterministic sections diverge in: "
                        + ", ".join(diverged))
    if not current.get("deterministic", {}).get("reports_identical", False):
        failures.append("engine reports are not identical in the current "
                        "run (equivalence contract broken)")
    base_timing = baseline.get("timing", {})
    cur_timing = current.get("timing", {})
    for engine, base_entry in base_timing.items():
        if not isinstance(base_entry, dict):
            continue
        cur_entry = cur_timing.get(engine)
        if not isinstance(cur_entry, dict):
            failures.append(f"engine {engine!r} timed in baseline but "
                            "missing from current run")
            continue
        allowed = base_entry["best_s"] * (1.0 + threshold)
        if cur_entry["best_s"] > allowed:
            failures.append(
                f"{engine} regressed: best {cur_entry['best_s']:.4f}s vs "
                f"baseline {base_entry['best_s']:.4f}s "
                f"(>{threshold:.0%} over)")
    return failures


def load_result(path: Path) -> Dict[str, Any]:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise ExperimentError(f"cannot load bench result {path}: {error}")
