"""Execution engine: experiment specs, the batch runner, result cache.

The public surface for running sweeps:

* :class:`Experiment` — a frozen, hashable description of one run
  (workload + parameters, :class:`~repro.config.SystemConfig`, shred
  policy, seed) with a stable cross-process content hash.
* :class:`Runner` / :func:`run_experiments` — batch orchestration:
  dedupe, cache consultation, progress, and execution, in-process for
  ``jobs=1`` or on a local ``multiprocessing`` fork pool for
  ``jobs=N``. Reports are byte-identical either way.
* :class:`ResultCache` — persistent content-addressed store keyed by
  experiment hash + code version salt, so warm reruns never touch the
  simulator; ``sweep(max_bytes=, max_age_days=)`` applies LRU bounds.
* :class:`ProgressEvent` — structured progress notifications
  (``completed``, ``total``, ``label``, ``source``).

Example::

    from repro.exec import run_experiments, spec_experiment, experiment_pair

    baseline, shredder = experiment_pair(spec_experiment("GCC", scale=0.5))
    reports = run_experiments([baseline, shredder], jobs=2)
"""

from .cache import (CacheStats, ResultCache, SweepResult, code_version_salt,
                    default_cache, default_cache_dir)
from .experiment import (Experiment, experiment_pair, powergraph_experiment,
                         spec_experiment)
from .runner import ProgressEvent, Runner, run_experiments
from .workloads import execute_experiment, register_workload, workload_kinds

__all__ = [
    "CacheStats",
    "Experiment",
    "ProgressEvent",
    "ResultCache",
    "Runner",
    "SweepResult",
    "code_version_salt",
    "default_cache",
    "default_cache_dir",
    "execute_experiment",
    "experiment_pair",
    "powergraph_experiment",
    "register_workload",
    "run_experiments",
    "spec_experiment",
    "workload_kinds",
]
