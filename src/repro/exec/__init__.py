"""Execution engine: experiment specs, pluggable backends, result cache.

The public surface for running sweeps:

* :class:`Experiment` — a frozen, hashable description of one run
  (workload + parameters, :class:`~repro.config.SystemConfig`, shred
  policy, seed) with a stable cross-process content hash.
* :class:`Runner` / :func:`run_experiments` — batch orchestration:
  dedupe, cache consultation, progress. Execution itself goes through
  an :class:`ExecutionBackend`:
  :class:`SerialBackend` (in-process),
  :class:`ForkPoolBackend` (``multiprocessing`` fork pool), or
  :class:`ClusterBackend` (a client of the experiment cluster, whose
  dispatcher feeds registered ``python -m repro worker serve
  --register`` workers with fault-tolerant, fair-queued dispatch).
* :class:`ResultCache` — persistent content-addressed store keyed by
  experiment hash + code version salt, so warm reruns never touch the
  simulator; ``sweep(max_bytes=, max_age_days=)`` applies LRU bounds.
* :class:`ProgressEvent` — structured progress notifications
  (``completed``, ``total``, ``label``, ``source``).

Example::

    from repro.exec import run_experiments, spec_experiment, experiment_pair

    baseline, shredder = experiment_pair(spec_experiment("GCC", scale=0.5))
    reports = run_experiments([baseline, shredder], jobs=2)

    # ... or across machines, through a shared experiment cluster
    # (see docs/SERVICE.md), via a backend spec string:
    reports = Runner(backend="cluster://nvm-hub:7071?weight=2") \\
        .run([baseline, shredder])

Backends are described by :class:`BackendSpec` strings — ``"serial"``,
``"fork:8"``, ``"cluster://host:port"`` — parsed by
:meth:`ExecutionBackend.from_spec`; the long-lived cluster service
itself (dispatcher, fair queue, registered workers) lives in
:mod:`repro.exec.cluster`.
"""

from .backends import (ExecutionBackend, ForkPoolBackend, SerialBackend,
                       parse_address, resolve_backend)
from .bench import (SCENARIOS, BenchScenario, compare_results, load_result,
                    run_scenario, scenario_names, write_result)
from .cache import (CacheStats, ResultCache, SweepResult, code_version_salt,
                    default_cache, default_cache_dir)
from .cluster import (ClusterBackend, ClusterDispatcher, ClusterServer,
                      FairQueue, cluster_drain, cluster_shutdown,
                      cluster_status)
from .experiment import (Experiment, experiment_pair, powergraph_experiment,
                         spec_experiment)
from .runner import ProgressEvent, Runner, run_experiments
from .spec import BackendSpec
from .wire import FrameAuth
from .worker import (RegisteredWorker, registered_worker_pool,
                     run_registered_worker, spawn_registered_workers)
from .workloads import execute_experiment, register_workload, workload_kinds

__all__ = [
    "BackendSpec",
    "BenchScenario",
    "CacheStats",
    "ClusterBackend",
    "ClusterDispatcher",
    "ClusterServer",
    "SCENARIOS",
    "ExecutionBackend",
    "Experiment",
    "FairQueue",
    "ForkPoolBackend",
    "FrameAuth",
    "ProgressEvent",
    "RegisteredWorker",
    "ResultCache",
    "Runner",
    "SerialBackend",
    "SweepResult",
    "cluster_drain",
    "cluster_shutdown",
    "cluster_status",
    "code_version_salt",
    "compare_results",
    "default_cache",
    "default_cache_dir",
    "execute_experiment",
    "experiment_pair",
    "load_result",
    "parse_address",
    "powergraph_experiment",
    "register_workload",
    "registered_worker_pool",
    "resolve_backend",
    "run_experiments",
    "run_registered_worker",
    "run_scenario",
    "scenario_names",
    "spawn_registered_workers",
    "spec_experiment",
    "workload_kinds",
    "write_result",
]
