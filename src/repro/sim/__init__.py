"""Full-system assembly: machine, system, and result records.

* :class:`~repro.sim.machine.Machine` — caches + secure controller (+
  shred register) glued together at the physical-address level.
* :class:`~repro.sim.system.System` — machine + kernel + cores +
  processes; the object workloads run against.
* :mod:`repro.sim.results` — serialisable run summaries used by the
  benchmark harness and the analysis layer.
"""

from .machine import Machine
from .system import System, SystemReport
from .results import RunResult, compare_runs

__all__ = [
    "Machine",
    "RunResult",
    "System",
    "SystemReport",
    "compare_runs",
]
