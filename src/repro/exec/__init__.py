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
  :class:`~repro.exec.cluster.ClusterBackend` (a client of the
  experiment cluster, whose dispatcher feeds registered ``python -m
  repro worker serve --register`` workers from one fault-tolerant
  first-in, first-out queue).
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
    reports = Runner(backend="cluster://nvm-hub:7071?keyfile=cluster.key") \\
        .run([baseline, shredder])

Backends are described by :class:`BackendSpec` strings — ``"serial"``,
``"fork:8"``, ``"cluster://host:port"`` — parsed by
:meth:`ExecutionBackend.from_spec`. This package exports only what a
local run needs, so importing it never loads asyncio; import the
cluster service from :mod:`repro.exec.cluster`, registered workers
from :mod:`repro.exec.worker` and frame auth from
:mod:`repro.exec.wire`.
"""

from .backends import (ExecutionBackend, ForkPoolBackend, SerialBackend,
                       parse_address, resolve_backend)
from .cache import (CacheStats, ResultCache, SweepResult, code_version_salt,
                    default_cache, default_cache_dir)
from .experiment import (Experiment, experiment_pair, powergraph_experiment,
                         spec_experiment)
from .runner import ProgressEvent, Runner, run_experiments
from .spec import BackendSpec
from .workloads import execute_experiment, register_workload, workload_kinds

__all__ = [
    "BackendSpec",
    "CacheStats",
    "ExecutionBackend",
    "Experiment",
    "ForkPoolBackend",
    "ProgressEvent",
    "ResultCache",
    "Runner",
    "SerialBackend",
    "SweepResult",
    "code_version_salt",
    "default_cache",
    "default_cache_dir",
    "execute_experiment",
    "experiment_pair",
    "parse_address",
    "powergraph_experiment",
    "register_workload",
    "resolve_backend",
    "run_experiments",
    "spec_experiment",
    "workload_kinds",
]
