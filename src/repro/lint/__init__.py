"""The ``repro`` static analyzer (``repro analyze`` / ``tools/analyze.py``).

A dependency-free AST analyzer: :class:`Analyzer` runs the registered
pass families (determinism, layering, shred-semantics, metrics
namespace, concurrency, format, lock-guard race inference, plus the
project-wide determinism-taint dataflow family) over the tree and reports ``REPRO###``-coded
violations, with an incremental per-file-digest result cache for warm
runs. Only the CLI and ``tools/`` import it, never a figure run. See
``docs/ANALYSIS.md`` for the architecture, rules and suppressions.
"""

from .engine import (AnalysisPass, AnalysisReport, Analyzer, ProjectPass,
                     SourceFile, Violation, module_name)
from .passes import builtin_passes, rule_catalog
from .reporters import (render_json, render_sarif, render_text,
                        report_from_json)

__all__ = [
    "AnalysisPass",
    "AnalysisReport",
    "Analyzer",
    "ProjectPass",
    "SourceFile",
    "Violation",
    "builtin_passes",
    "module_name",
    "render_json",
    "render_sarif",
    "render_text",
    "report_from_json",
    "rule_catalog",
]
