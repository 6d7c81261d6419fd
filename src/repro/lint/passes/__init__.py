"""The built-in pass families of the ``repro`` static analyzer.

One module per family; :func:`builtin_passes` returns fresh instances
of all of them in a stable order, and :func:`rule_catalog` flattens
their code tables (plus the engine's own suppression rules) for
``repro analyze --list-rules`` and the docs.
"""

from __future__ import annotations

from typing import Dict, List

from ..engine import (CODE_BAD_SUPPRESSION, CODE_UNUSED_SUPPRESSION,
                      AnalysisPass)
from .concurrency import ConcurrencyPass
from .determinism import DeterminismPass
from .format import FormatPass
from .layering import LayeringPass
from .metrics_ns import MetricsNamespacePass
from .races import LockGuardPass
from .shred import ShredSemanticsPass
from .taint import DeterminismTaintPass

#: Family order: cheap text checks first, then the per-file AST
#: families, then the project-wide dataflow families (which run last,
#: over the whole analyzed set at once).
PASS_CLASSES = (FormatPass, DeterminismPass, LayeringPass,
                ShredSemanticsPass, MetricsNamespacePass, ConcurrencyPass,
                LockGuardPass, DeterminismTaintPass)


def builtin_passes() -> List[AnalysisPass]:
    """Fresh instances of every built-in pass, in run order."""
    return [cls() for cls in PASS_CLASSES]


def rule_catalog() -> Dict[str, Dict[str, str]]:
    """code → {"pass": family, "summary": rule description}."""
    catalog: Dict[str, Dict[str, str]] = {
        CODE_BAD_SUPPRESSION: {
            "pass": "suppress",
            "summary": "malformed suppression comment (missing code or "
                       "justification)",
        },
        CODE_UNUSED_SUPPRESSION: {
            "pass": "suppress",
            "summary": "suppression comment whose code no longer fires "
                       "on that line (stale; delete it)",
        },
    }
    for cls in PASS_CLASSES:
        for code, summary in cls.codes.items():
            catalog[code] = {"pass": cls.name, "summary": summary}
    return dict(sorted(catalog.items()))


__all__ = [
    "ConcurrencyPass",
    "DeterminismPass",
    "DeterminismTaintPass",
    "FormatPass",
    "LayeringPass",
    "LockGuardPass",
    "MetricsNamespacePass",
    "PASS_CLASSES",
    "ShredSemanticsPass",
    "builtin_passes",
    "rule_catalog",
]
