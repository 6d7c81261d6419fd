"""Workload executors: turn an :class:`Experiment` into a run.

Each executor is a plain function registered under the experiment's
``workload`` kind. It receives a freshly built
:class:`~repro.sim.system.System` and the experiment's parameter dict,
drives the simulation, and may return a dict of extra metrics that the
runner merges into the resulting report's ``extra`` map. Executors are
module-level functions (never closures) so experiments stay picklable
and runs behave identically in worker processes.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional

from ..core.policies import make_policy
from ..errors import ExperimentError
from ..sim import System
from ..sim.system import SystemReport
from ..workloads import multiprogrammed_tasks, powergraph_task
from .experiment import Experiment

#: executor(system, params) -> optional extra metrics for the report
ExecutorFn = Callable[[System, Dict[str, Any]], Optional[Dict[str, float]]]

_EXECUTORS: Dict[str, ExecutorFn] = {}
#: Registration can race another thread resolving executors (a caller
#: may register a custom kind while a batch runs on another thread),
#: so writes to the registry take this lock.
_EXECUTORS_LOCK = threading.Lock()


def register_workload(kind: str) -> Callable[[ExecutorFn], ExecutorFn]:
    """Register an executor for ``Experiment(workload=kind, ...)``."""
    def decorate(fn: ExecutorFn) -> ExecutorFn:
        with _EXECUTORS_LOCK:
            _EXECUTORS[kind] = fn
        return fn
    return decorate


def workload_kinds() -> List[str]:
    """The registered experiment workload kinds."""
    return sorted(_EXECUTORS)


def execute_experiment(experiment: Experiment) -> SystemReport:
    """Run one experiment to completion and return its report."""
    executor = _EXECUTORS.get(experiment.workload)
    if executor is None:
        raise ExperimentError(
            f"unknown workload kind {experiment.workload!r}; "
            f"choose from {workload_kinds()}")
    policy = make_policy(experiment.policy) if experiment.policy else None
    system = System(experiment.config, shredder=experiment.shredder,
                    policy=policy,
                    name=experiment.name or experiment.workload)
    extras = executor(system, experiment.param_dict) or {}
    report = system.report()
    report.extra.update(extras)
    return report


# ---------------------------------------------------------------------------
# The paper's workload kinds
# ---------------------------------------------------------------------------

@register_workload("spec")
def _run_spec(system: System, params: Dict[str, Any]) -> None:
    tasks = multiprogrammed_tasks(params["benchmark"],
                                  int(params.get("cores", 2)),
                                  scale=float(params.get("scale", 1.0)))
    system.run(tasks)
    system.machine.hierarchy.flush_all()


@register_workload("powergraph")
def _run_powergraph(system: System, params: Dict[str, Any]) -> None:
    task = powergraph_task(params["app"],
                           num_nodes=int(params.get("num_nodes", 5000)))
    system.run([task])
    system.machine.hierarchy.flush_all()


@register_workload("table2-zeroing")
def _run_table2_zeroing(system: System, params: Dict[str, Any]) -> Dict[str, float]:
    """First-touch a batch of pages so the configured zeroing mechanism
    clears each one; report its attributable costs (Table 2)."""
    pages = int(params.get("pages", 24))
    page_size = system.config.kernel.page_size
    ctx = system.new_context(0)
    base = ctx.malloc(pages * page_size)
    writes_before = system.machine.controller.stats.data_writes
    for page in range(pages):
        ctx.touch(base + page * page_size, write=True)
    zs = system.kernel.zeroing.stats
    # Temporal zeroing parks its zeros dirty in the caches; the flush
    # reveals the writes it merely deferred.
    system.machine.hierarchy.flush_all()
    total_writes = system.machine.controller.stats.data_writes - writes_before
    return {
        "table2_total_writes": float(total_writes),
        "zeroing_memory_reads": float(zs.memory_reads),
        "zeroing_cpu_busy_ns": float(zs.cpu_busy_ns),
        "zeroing_latency_ns": float(zs.latency_ns),
        "cache_blocks_polluted": float(zs.cache_blocks_polluted),
    }


@register_workload("policy-ablation")
def _run_policy_ablation(system: System, params: Dict[str, Any]) -> Dict[str, float]:
    """Repeatedly shred and rewrite pages under the experiment's shred
    policy, then probe whether reads come back zero (section 4.2)."""
    pages = int(params.get("pages", 8))
    shreds_per_page = int(params.get("shreds_per_page", 80))
    controller = system.machine.controller
    page_size = system.config.kernel.page_size
    for _ in range(shreds_per_page):
        for page in range(1, pages + 1):
            # Dirty one block then shred the page again (reuse).
            controller.store_block(page * page_size, None)
            system.machine.shred_register.write(page * page_size,
                                                kernel_mode=True)
    zero_reads = 0
    probes = 0
    for page in range(1, pages + 1):
        _, _, zero_filled = controller.fetch_block(page * page_size)
        probes += 1
        if zero_filled:
            zero_reads += 1
    return {
        "probes": float(probes),
        "zero_reads": float(zero_reads),
        "zero_read_fraction": zero_reads / probes,
    }
