"""The ``layering`` pass family: keep the import graph acyclic.

The package has a strict layer order — foundations (``errors``,
``config``, ``obs``) under device models (``mem``, ``cache``) under the
secure controllers (``core``) under the full system (``sim``) under the
execution and presentation layers (``exec``, ``analysis``, ``lint``,
``cli``). REPRO201 rejects any module-level import that reaches *up*
that order, which is what keeps the graph acyclic and the simulation
layers usable without dragging in the toolchain.

REPRO202 is stricter policy for the hot simulation substrate:
``core``/``mem``/``cache`` must not import ``exec``, ``obs``, or
``cli`` at runtime at all — telemetry reaches them by injection (a
``MetricsRegistry`` passed in), never by import. Type-only imports
under ``if TYPE_CHECKING:`` and imports local to a function body are
exempt; both are the established escape hatches in this codebase.

REPRO203 closes the second escape hatch's loophole: a function-local
import that resolves to a *strictly higher* layer still creates the
upward dependency REPRO201 exists to forbid — it just hides it from
the module-level graph (and from REPRO201). Deferring an import is for
breaking *cost* (import time, optional deps), not *direction*; an
upward function-local import must either be inverted (move the shared
piece down), injected (pass the object in), or carry an explicit
suppression with a justification.

:func:`render_import_graph` renders the package-level import graph —
module-level edges solid, function-local edges dashed, upward edges
red — as Graphviz DOT (``repro analyze --import-graph dot``).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from ..engine import AnalysisContext, AnalysisPass, SourceFile

#: Layer rank of each package (higher = closer to the user). A module
#: may import modules of strictly lower rank (or its own package).
LAYER_RANKS = {
    "repro.errors": 0,
    "repro.clock": 1,
    "repro.config": 1,
    "repro.obs": 1,
    "repro.crypto": 2,
    "repro.integrity": 2,
    "repro.serialization": 2,
    "repro.mem": 3,
    "repro.cache": 3,
    "repro.cpu": 3,
    "repro.runtime": 3,
    "repro.kernel": 4,
    "repro.core": 5,
    "repro.sim": 6,
    # Workload programs drive a System, so they sit above the machine.
    "repro.workloads": 7,
    "repro.exec": 8,
    "repro.analysis": 9,
    # The static analyzer: only the CLI and tools import it.
    "repro.lint": 9,
    "repro.cli": 10,
    "repro.__main__": 10,
    # The package root re-exports the public surface; it sits on top.
    "repro": 11,
}

#: Simulation substrate packages under the strict no-toolchain policy.
RESTRICTED = ("repro.core", "repro.mem", "repro.cache")

#: What the restricted packages must never import at runtime.
FORBIDDEN_FOR_RESTRICTED = ("repro.exec", "repro.obs", "repro.cli")


def _package_of(module: str) -> Optional[str]:
    """The ranked layer a dotted module belongs to (longest match)."""
    parts = module.split(".")
    for length in range(len(parts), 0, -1):
        candidate = ".".join(parts[:length])
        if candidate in LAYER_RANKS:
            return candidate
    return None


def _is_type_checking_guard(node: ast.stmt) -> bool:
    if not isinstance(node, ast.If):
        return False
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _module_level_imports(tree: ast.Module
                          ) -> Iterator[Tuple[ast.stmt, List[str], int]]:
    """Yield runtime module-level imports as (node, dotted names, level).

    Descends into plain ``if``/``try`` blocks (conditional imports still
    execute at import time) but skips ``if TYPE_CHECKING:`` bodies —
    those never run.
    """
    def walk(statements: List[ast.stmt]) -> Iterator[
            Tuple[ast.stmt, List[str], int]]:
        for statement in statements:
            if isinstance(statement, ast.Import):
                yield statement, [name.name for name in statement.names], 0
            elif isinstance(statement, ast.ImportFrom):
                yield statement, [statement.module or ""], statement.level
            elif isinstance(statement, ast.If):
                if _is_type_checking_guard(statement):
                    yield from walk(statement.orelse)
                else:
                    yield from walk(statement.body)
                    yield from walk(statement.orelse)
            elif isinstance(statement, ast.Try):
                yield from walk(statement.body)
                for handler in statement.handlers:
                    yield from walk(handler.body)
                yield from walk(statement.orelse)
                yield from walk(statement.finalbody)
    yield from walk(tree.body)


def _function_local_imports(tree: ast.Module) -> Iterator[
        Tuple[str, ast.stmt, List[str], int]]:
    """Yield imports inside function bodies as (qualname, node, names, level).

    Walks nested functions and methods; skips ``if TYPE_CHECKING:``
    bodies (they never execute, inside a function or out).
    """
    def walk(statements: List[ast.stmt], owner: str) -> Iterator[
            Tuple[str, ast.stmt, List[str], int]]:
        for statement in statements:
            if isinstance(statement, ast.Import):
                if owner:
                    yield (owner, statement,
                           [name.name for name in statement.names], 0)
            elif isinstance(statement, ast.ImportFrom):
                if owner:
                    yield (owner, statement, [statement.module or ""],
                           statement.level)
            elif isinstance(statement,
                            (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{owner}.{statement.name}" if owner \
                    else statement.name
                yield from walk(statement.body, inner)
            elif isinstance(statement, ast.ClassDef):
                yield from walk(statement.body, owner)
            elif isinstance(statement, ast.If):
                if _is_type_checking_guard(statement):
                    yield from walk(statement.orelse, owner)
                else:
                    yield from walk(statement.body, owner)
                    yield from walk(statement.orelse, owner)
            elif isinstance(statement, (ast.Try, ast.For, ast.AsyncFor,
                                        ast.While, ast.With,
                                        ast.AsyncWith)):
                for block in ast.iter_child_nodes(statement):
                    if isinstance(block, ast.stmt):
                        yield from walk([block], owner)
                    elif isinstance(block, ast.ExceptHandler):
                        yield from walk(block.body, owner)
    yield from walk(tree.body, "")


def resolve_relative(importer: str, is_package: bool, module: str,
                     level: int) -> str:
    """Absolute dotted target of a (possibly relative) import."""
    if level == 0:
        return module
    parts = importer.split(".")
    # Level 1 is "this package": drop the module segment unless the
    # importer *is* a package (__init__), then one more per extra dot.
    drop = (0 if is_package else 1) + (level - 1)
    base = parts[:len(parts) - drop] if drop else parts
    return ".".join(base + ([module] if module else []))


class LayeringPass(AnalysisPass):
    """Module-level imports must respect the layer order."""

    name = "layering"
    codes = {
        "REPRO201": "import from a higher layer (breaks the acyclic "
                    "import graph)",
        "REPRO202": "simulation substrate (core/mem/cache) imports the "
                    "toolchain (exec/obs/cli) at runtime",
        "REPRO203": "function-local import launders a dependency on a "
                    "higher layer",
    }
    scope = ("repro",)

    def check(self, source: SourceFile,
              context: AnalysisContext) -> Iterator[Tuple[int, str, str]]:
        assert source.tree is not None
        importer_package = _package_of(source.module)
        if importer_package is None:
            return
        importer_rank = LAYER_RANKS[importer_package]
        for node, names, level in _module_level_imports(source.tree):
            for name in names:
                target = resolve_relative(source.module, source.is_package,
                                          name, level)
                if not target.startswith("repro"):
                    continue
                target_package = _package_of(target)
                if target_package is None or \
                        target_package == importer_package:
                    continue
                if importer_package in RESTRICTED \
                        and target_package in FORBIDDEN_FOR_RESTRICTED:
                    yield (node.lineno, "REPRO202",
                           f"{importer_package} must not import "
                           f"{target_package} at runtime; inject the "
                           "dependency or guard with TYPE_CHECKING")
                elif LAYER_RANKS[target_package] > importer_rank:
                    yield (node.lineno, "REPRO201",
                           f"{importer_package} (layer {importer_rank}) "
                           f"imports {target_package} (layer "
                           f"{LAYER_RANKS[target_package]}); dependencies "
                           "must point down the stack")
        for owner, node, names, level in _function_local_imports(
                source.tree):
            for name in names:
                target = resolve_relative(source.module, source.is_package,
                                          name, level)
                if not target.startswith("repro"):
                    continue
                target_package = _package_of(target)
                if target_package is None or \
                        target_package == importer_package:
                    continue
                if LAYER_RANKS[target_package] > importer_rank:
                    yield (node.lineno, "REPRO203",
                           f"{owner}() imports {target_package} (layer "
                           f"{LAYER_RANKS[target_package]}) from inside "
                           f"{importer_package} (layer {importer_rank}); "
                           "deferring an import hides the upward edge but "
                           "still creates it — invert or inject the "
                           "dependency")


# ---------------------------------------------------------------------------
# Import-graph rendering (``repro analyze --import-graph dot``)
# ---------------------------------------------------------------------------

def collect_import_edges(sources) -> List[Tuple[str, str, str]]:
    """Package-level import edges across ``sources``.

    Returns sorted unique ``(importer_package, target_package, kind)``
    triples, ``kind`` being ``"module"`` (module-level import) or
    ``"local"`` (function-local). Self-edges and non-``repro`` targets
    are dropped.
    """
    edges = set()
    for source in sources:
        if source.tree is None:
            continue
        importer_package = _package_of(source.module)
        if importer_package is None:
            continue
        found = [("module", names, level) for _, names, level
                 in _module_level_imports(source.tree)]
        found += [("local", names, level) for _, _, names, level
                  in _function_local_imports(source.tree)]
        for kind, names, level in found:
            for name in names:
                target = resolve_relative(source.module, source.is_package,
                                          name, level)
                if not target.startswith("repro"):
                    continue
                target_package = _package_of(target)
                if target_package is None or \
                        target_package == importer_package:
                    continue
                edges.add((importer_package, target_package, kind))
    return sorted(edges)


def render_import_graph(sources, fmt: str = "dot") -> str:
    """Render the package import graph of ``sources`` as Graphviz DOT.

    Nodes are ranked packages (labelled with their layer); module-level
    edges are solid, function-local edges dashed, and any edge that
    points *up* the layer order — a REPRO201/REPRO203 candidate — is
    red and bold so violations jump out of the rendering.
    """
    if fmt != "dot":
        raise ValueError(f"unknown import-graph format {fmt!r}; "
                         "only 'dot' is supported")
    edges = collect_import_edges(sources)
    packages = sorted({p for edge in edges for p in edge[:2]},
                      key=lambda p: (LAYER_RANKS[p], p))
    out = ["digraph repro_imports {",
           "  rankdir=BT;",
           '  node [shape=box, fontname="monospace"];']
    for package in packages:
        out.append(f'  "{package}" [label="{package}\\n'
                   f'layer {LAYER_RANKS[package]}"];')
    for importer, target, kind in edges:
        attrs = []
        if kind == "local":
            attrs.append("style=dashed")
        if LAYER_RANKS[target] > LAYER_RANKS[importer]:
            attrs += ["color=red", "penwidth=2"]
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        out.append(f'  "{importer}" -> "{target}"{suffix};')
    out.append("}")
    return "\n".join(out) + "\n"
