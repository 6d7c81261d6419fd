"""Workloads: the paper's evaluation drivers.

* :mod:`repro.workloads.memsetbench` — the Figure 3/4 microbenchmark
  (two consecutive ``memset`` calls over 64 MB–1 GB regions).
* :mod:`repro.workloads.spec` — 26 parameterised models of the SPEC
  CPU2006 benchmarks, checkpointed at their initialization phase.
* :mod:`repro.workloads.graphs` — synthetic power-law graph generator.
* :mod:`repro.workloads.powergraph` — PageRank, greedy colouring and
  k-core over CSR graphs built in simulated memory (the PowerGraph
  applications), checkpointed at graph construction.
* :mod:`repro.workloads.mix` — multi-programmed SPEC mixes (one
  instance per core, as in section 5).
"""

from .memsetbench import memset_experiment, MemsetTiming
from .spec import SPEC_BENCHMARKS, SpecParams, spec_task
from .graphs import power_law_graph, Graph
from .powergraph import (POWERGRAPH_APPS, pagerank_task,
                         simple_coloring_task, kcore_task, powergraph_task)
from .mix import multiprogrammed_tasks
from .churn import ChurnParams, churn_task

__all__ = [
    "ChurnParams",
    "Graph",
    "MemsetTiming",
    "POWERGRAPH_APPS",
    "SPEC_BENCHMARKS",
    "SpecParams",
    "churn_task",
    "kcore_task",
    "memset_experiment",
    "multiprogrammed_tasks",
    "pagerank_task",
    "power_law_graph",
    "powergraph_task",
    "simple_coloring_task",
    "spec_task",
]
