"""Analysis layer: figure builders and report tables.

Each ``figN_*`` function runs the simulations behind one figure or
table of the paper and returns plain data (lists of dict rows), which
the benchmark harness prints and EXPERIMENTS.md records; the heavy
builders delegate to the shared :class:`repro.exec.Runner`, so results
persist in the content-addressed cache and cold sweeps accept
``jobs=N`` for parallel execution. :func:`render_table` (defined in
:mod:`repro.obs.exporters`), :func:`rows_to_csv` and
:func:`rows_to_json` print those rows.

The static analyzer behind ``repro analyze`` is :mod:`repro.lint`.
"""

from ..obs.exporters import render_table
from .figures import (
    fig4_memset,
    fig5_zeroing_writes,
    fig8_to_11_study,
    fig12_counter_cache_sweep,
    table2_mechanisms,
    ablation_policies,
    run_pair,
)
from .report import rows_to_csv, rows_to_json

__all__ = [
    "ablation_policies",
    "fig12_counter_cache_sweep",
    "fig4_memset",
    "fig5_zeroing_writes",
    "fig8_to_11_study",
    "render_table",
    "rows_to_csv",
    "rows_to_json",
    "run_pair",
    "table2_mechanisms",
]
