"""Data-series builders for every figure and table in the evaluation.

All functions are deterministic given their arguments. The heavy
builders (:func:`run_pair`, :func:`fig8_to_11_study`,
:func:`fig12_counter_cache_sweep`, :func:`table2_mechanisms`,
:func:`ablation_policies`) describe their runs as
:class:`~repro.exec.Experiment` batches and delegate to the shared
:class:`~repro.exec.Runner`, so identical runs are served from the
persistent result cache and cold sweeps can fan out across worker
processes (``Runner(jobs=N)``). The two microbenchmark builders
(Figures 4/5) drive bespoke measurement loops and simulate afresh on
every call.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from ..config import KB, CacheConfig, SystemConfig, bench_config
from ..exec import (Experiment, Runner, experiment_pair, powergraph_experiment,
                    spec_experiment)
from ..sim import System, compare_runs
from ..sim.results import RunResult, arithmetic_mean, geometric_mean
from ..workloads import (SPEC_BENCHMARKS, memset_experiment,
                         multiprogrammed_tasks, powergraph_task)


# ---------------------------------------------------------------------------
# Shared pair-runner
# ---------------------------------------------------------------------------

def run_pair(experiment: Experiment, *,
             runner: Optional[Runner] = None) -> RunResult:
    """Run one workload on the baseline and Silent Shredder systems.

    Baseline: secure counter-mode controller, non-temporal kernel
    zeroing (the paper's baseline assumption in section 5). Shredder:
    the same machine with the shred command replacing zeroing. Both
    variants derive from the experiment's single base config.

    Pass an :class:`~repro.exec.Experiment` describing the workload;
    its baseline/shredder variants execute through ``runner`` (default:
    a serial, cached :class:`~repro.exec.Runner`).
    """
    if not isinstance(experiment, Experiment):
        raise TypeError(f"run_pair expects an Experiment, "
                        f"got {type(experiment).__name__}")
    baseline_exp, shredder_exp = experiment_pair(experiment)
    if runner is None:
        runner = Runner()
    baseline_report, shredder_report = runner.run([baseline_exp,
                                                   shredder_exp])
    return compare_runs(baseline_report, shredder_report,
                        experiment.name or experiment.workload)


# ---------------------------------------------------------------------------
# Figure 4: impact of kernel zeroing on memset time
# ---------------------------------------------------------------------------

def fig4_memset(sizes_bytes: Sequence[int], *,
                config: Optional[SystemConfig] = None) -> List[dict]:
    """First-vs-second memset timing across region sizes."""
    rows = []
    base_config = config if config is not None else bench_config()
    for size in sizes_bytes:
        system = System(base_config.with_zeroing("nontemporal"),
                        shredder=False, name="memset")
        timing = memset_experiment(system, size)
        rows.append({
            "size_bytes": size,
            "first_memset_ns": timing.first_ns,
            "second_memset_ns": timing.second_ns,
            "kernel_zeroing_ns": timing.kernel_zeroing_ns,
            "kernel_fraction": timing.kernel_fraction,
            "zeroing_fraction": timing.zeroing_fraction,
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 5: zeroing strategy vs main-memory writes (PowerGraph apps)
# ---------------------------------------------------------------------------

def fig5_zeroing_writes(apps: Sequence[str], *, num_nodes: int = 800,
                        config: Optional[SystemConfig] = None) -> List[dict]:
    """Relative write counts: temporal / non-temporal / no zeroing.

    The paper's Figure 5 normalises each app's write count to the
    temporal-zeroing ("Unmodified") case.
    """
    base_config = config if config is not None else replace(
        bench_config(),
        # Tighter shared caches: zeroed-ahead pages must not linger
        # in the LLC, mirroring the distance between clear_page and
        # first use on a real machine.
        l3=CacheConfig("L3", size_bytes=32 * KB, associativity=8,
                       latency_cycles=25, shared=True),
        l4=CacheConfig("L4", size_bytes=128 * KB, associativity=8,
                       latency_cycles=35, shared=True),
    )
    rows = []
    for app in apps:
        counts = {}
        # Measure the footprint first with zeroing disabled, then give
        # the zeroing runs a pre-zeroed pool of that many pages: real
        # kernels clear free pages ahead of use, so the clears are not
        # coalesced with the application's first stores in the caches.
        probe = System(base_config.with_zeroing("none"), shredder=False,
                       name=f"fig5-{app}-probe")
        probe.run([powergraph_task(app, num_nodes=num_nodes)])
        probe.machine.hierarchy.flush_all()
        counts["none"] = probe.machine.memory_write_count()
        footprint_pages = probe.kernel.stats.pages_allocated + 8

        for strategy in ("temporal", "nontemporal"):
            cfg = replace(base_config.with_zeroing(strategy),
                          kernel=replace(base_config.kernel,
                                         zeroing_strategy=strategy,
                                         prezero_pool_pages=footprint_pages))
            system = System(cfg, shredder=False,
                            name=f"fig5-{app}-{strategy}")
            system.run([powergraph_task(app, num_nodes=num_nodes)])
            system.machine.hierarchy.flush_all()
            counts[strategy] = system.machine.memory_write_count()
        unmodified = max(counts["temporal"], 1)
        rows.append({
            "app": app,
            "writes_temporal": counts["temporal"],
            "writes_nontemporal": counts["nontemporal"],
            "writes_nozero": counts["none"],
            "rel_unmodified": 1.0,
            "rel_nontemporal": counts["nontemporal"] / unmodified,
            "rel_nozero": counts["none"] / unmodified,
        })
    return rows


# ---------------------------------------------------------------------------
# Figures 8-11: the initialization-phase study over all benchmarks
# ---------------------------------------------------------------------------

def fig8_to_11_study(*, benchmarks: Optional[Sequence[str]] = None,
                     scale: float = 1.0, cores: int = 2,
                     powergraph_nodes: int = 5000,
                     config: Optional[SystemConfig] = None,
                     runner: Optional[Runner] = None) -> List[RunResult]:
    """Baseline-vs-shredder pairs for the SPEC + PowerGraph suite.

    One sweep feeds Figure 8 (write savings), Figure 9 (read-traffic
    savings), Figure 10 (read speedup) and Figure 11 (relative IPC).
    Every (benchmark, variant) run is an independent experiment, so the
    sweep parallelises across a ``Runner(jobs=N)`` and warm reruns are
    pure cache reads.
    """
    names = tuple(benchmarks) if benchmarks is not None \
        else tuple(SPEC_BENCHMARKS) + ("PAGERANK", "SIMPLE_COLORING", "KCORE")
    base_config = config if config is not None else bench_config()

    pairs = []
    for name in names:
        if name in SPEC_BENCHMARKS:
            experiment = spec_experiment(name, cores=cores, scale=scale,
                                         config=base_config)
        else:
            experiment = powergraph_experiment(name,
                                               num_nodes=powergraph_nodes,
                                               config=base_config)
        pairs.append(experiment_pair(experiment))

    if runner is None:
        runner = Runner()
    reports = runner.run([exp for pair in pairs for exp in pair])
    return [compare_runs(reports[2 * i], reports[2 * i + 1], name)
            for i, name in enumerate(names)]


def study_summary(results: List[RunResult]) -> dict:
    """The per-figure averages the paper quotes in its abstract."""
    return {
        "avg_write_savings_pct": 100 * arithmetic_mean(
            [r.write_savings for r in results]),
        "avg_read_savings_pct": 100 * arithmetic_mean(
            [r.read_savings for r in results]),
        "avg_read_speedup": arithmetic_mean([r.read_speedup for r in results]),
        "geo_read_speedup": geometric_mean([r.read_speedup for r in results]),
        "avg_ipc_improvement_pct": 100 * (arithmetic_mean(
            [r.relative_ipc for r in results]) - 1.0),
        "max_ipc_improvement_pct": 100 * (max(
            r.relative_ipc for r in results) - 1.0),
    }


# ---------------------------------------------------------------------------
# Figure 12: counter-cache size sensitivity
# ---------------------------------------------------------------------------

def fig12_counter_cache_sweep(sizes_bytes: Sequence[int], *,
                              benchmark: str = "GEMS", scale: float = 1.0,
                              config: Optional[SystemConfig] = None,
                              runner: Optional[Runner] = None) -> List[dict]:
    """Counter-cache miss rate as its capacity grows (knee at 4 MB in
    the paper; the knee lands where the cache covers the hot footprint,
    which scales with our shrunken system)."""
    base_config = config if config is not None else bench_config()
    experiments = [
        Experiment(workload="spec",
                   params={"benchmark": benchmark,
                           "cores": base_config.cpu.num_cores,
                           "scale": scale},
                   config=base_config.with_counter_cache_size(size)
                                     .with_zeroing("shred"),
                   shredder=True, name=f"fig12-{size}")
        for size in sizes_bytes
    ]
    if runner is None:
        runner = Runner()
    reports = runner.run(experiments)
    return [{
        "size_bytes": size,
        "miss_rate": report.counter_miss_rate,
        "hits": int(report.extra["counter_hits"]),
        "misses": int(report.extra["counter_misses"]),
    } for size, report in zip(sizes_bytes, reports)]


# ---------------------------------------------------------------------------
# Table 2: feature comparison of initialization mechanisms
# ---------------------------------------------------------------------------

def table2_mechanisms(*, pages: int = 24,
                      config: Optional[SystemConfig] = None,
                      runner: Optional[Runner] = None) -> List[dict]:
    """Measure each zeroing mechanism's costs on identical page batches.

    RowClone requires encryption disabled (DRAM-specific); the other
    mechanisms run on the encrypted NVM machine.
    """
    base_config = config if config is not None else bench_config()
    strategies = ("temporal", "nontemporal", "dma", "rowclone", "shred")
    experiments = []
    for strategy in strategies:
        cfg = base_config.with_zeroing(strategy)
        if strategy == "rowclone":
            cfg = replace(cfg, encryption=replace(cfg.encryption,
                                                  enabled=False))
        experiments.append(Experiment(workload="table2-zeroing",
                                      params={"pages": pages}, config=cfg,
                                      shredder=(strategy == "shred"),
                                      name=f"table2-{strategy}"))
    if runner is None:
        runner = Runner()
    reports = runner.run(experiments)

    rows = []
    for strategy, report in zip(strategies, reports):
        total_writes = int(report.extra["table2_total_writes"])
        pages_zeroed = report.pages_zeroed
        # Temporal zeroing defers its writes; the flush revealed them.
        # The app's own stores (one per page) are subtracted so every
        # column counts zeroing-attributable writes only.
        if strategy == "temporal":
            zeroing_writes = max(0, total_writes - pages)
        else:
            zeroing_writes = report.zeroing_memory_writes
        l1_pollution = int(report.extra["cache_blocks_polluted"])
        rows.append({
            "mechanism": strategy,
            "pages": pages_zeroed,
            "memory_writes": zeroing_writes,
            "immediate_writes": report.zeroing_memory_writes,
            "memory_reads": int(report.extra["zeroing_memory_reads"]),
            "cpu_busy_ns_per_page": (report.extra["zeroing_cpu_busy_ns"]
                                     / max(pages_zeroed, 1)),
            "latency_ns_per_page": (report.extra["zeroing_latency_ns"]
                                    / max(pages_zeroed, 1)),
            "cache_pollution_blocks": l1_pollution,
            "no_cache_pollution": l1_pollution == 0,
            "no_memory_writes": zeroing_writes == 0,
            "no_memory_bus_writes": strategy in ("shred", "rowclone"),
            "persistent": strategy not in ("temporal",),
        })
    return rows


# ---------------------------------------------------------------------------
# Section 4.2 ablation: the three shred policies
# ---------------------------------------------------------------------------

def ablation_policies(*, pages: int = 8, shreds_per_page: int = 80,
                      config: Optional[SystemConfig] = None,
                      runner: Optional[Runner] = None) -> List[dict]:
    """Repeatedly shred and rewrite pages under each IV-manipulation
    option, recording re-encryption frequency and zero-read support."""
    base_config = config if config is not None else bench_config()
    cfg = replace(base_config.with_zeroing("shred"), functional=False)
    policies = ("increment-minors", "increment-major", "major-reset-minors")
    experiments = [
        Experiment(workload="policy-ablation",
                   params={"pages": pages,
                           "shreds_per_page": shreds_per_page},
                   config=cfg, shredder=True, policy=policy_name,
                   name=f"ablate-{policy_name}")
        for policy_name in policies
    ]
    if runner is None:
        runner = Runner()
    reports = runner.run(experiments)
    return [{
        "policy": policy_name,
        "shreds": report.shreds,
        "reencryptions": int(report.extra["reencryptions"]),
        "reads_return_zero": report.extra["zero_reads"]
            == report.extra["probes"],
        "zero_read_fraction": report.extra["zero_read_fraction"],
    } for policy_name, report in zip(policies, reports)]
