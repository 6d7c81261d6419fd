"""The ``taint`` pass family: flow-aware determinism tracking.

``REPRO101``–``REPRO103`` (the ``determinism`` family) flag ambient
entropy *call sites* inside the simulation layers. That check is
deliberately scoped: ``time.time()`` in the CLI or the executor is
legitimate — wall-clock timing of a run is observability, not
simulation state. What is **never** legitimate is such a value flowing
into the content-addressed result payload: two byte-identical
experiments would then hash alike but carry different
``SystemReport``/``RunResult`` fields, silently poisoning the result
cache and every distributed-vs-serial equivalence check built on it.

This project pass tracks those values through dataflow instead of
pattern-matching call sites:

- **Sources** are the same ambient calls the determinism family knows
  (``time.time()``, unseeded ``random.*``, ``os.urandom``,
  ``uuid.uuid4``, ``datetime.now`` — alias-aware), in *any* module.
- **Propagation** is flow-aware inside a function (CFG + reaching
  definitions from :mod:`repro.lint.cfg`: a rebind kills the
  taint; a tainted def reaching a use carries it) and interprocedural
  across the project call graph: functions whose return value is
  tainted taint their call sites, ``self.x = tainted`` taints reads of
  that attribute in the same class, to a fixpoint.
- **Sinks** are constructions of the deterministic payload types —
  ``SystemReport``/``RunResult`` (``REPRO111``) and experiment
  configuration ``Experiment``/``ExperimentSpec`` (``REPRO112``) — via
  constructor arguments, attribute assignment on a bound instance, or
  ``instance.extra[...]`` item writes.

Wall-clock reads whose values stay in logs, metrics, or spans
never reach a sink and are not findings; that precision is the point
of the flow-aware rewrite.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..cfg import (DefSite, ReachingDefinitions, build_cfg, def_value,
                   shallow_defs)
from ..engine import AnalysisContext, ProjectPass, SourceFile
from ..project import FunctionInfo, ProjectModel, _instance_bindings
from .determinism import DeterminismPass, _collect_aliases

#: Constructor names whose payload must be deterministic (REPRO111).
_RESULT_SINKS = frozenset({"SystemReport", "RunResult", "RunReport"})

#: Experiment-configuration constructors (REPRO112): entropy here means
#: the run is not reconstructible from its spec.
_CONFIG_SINKS = frozenset({"Experiment", "ExperimentSpec"})


def _walk_skip_nested(root: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` minus nested function bodies (separate scopes)."""
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            stack.append(child)


def _own_expressions(statement: ast.AST) -> Iterator[ast.expr]:
    """A block statement's own expressions; bodies live in other blocks."""
    for field_name, value in ast.iter_fields(statement):
        if field_name in ("body", "orelse", "finalbody", "handlers"):
            continue
        if isinstance(value, ast.expr):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.expr):
                    yield item
                elif isinstance(item, ast.withitem):
                    yield item.context_expr


def _call_label(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}()"
    if isinstance(func, ast.Name):
        return f"{func.id}()"
    return "a call"


class _FunctionAnalysis:
    """CFG, reaching definitions, and instance bindings — built once."""

    def __init__(self, info: FunctionInfo, model: ProjectModel) -> None:
        self.info = info
        self.cfg = build_cfg(info.node)
        self.reaching = ReachingDefinitions(self.cfg)
        self.bindings = _instance_bindings(info, model.table)


class _TaintAnalyzer:
    """Interprocedural taint fixpoint over one :class:`ProjectModel`."""

    def __init__(self, model: ProjectModel) -> None:
        self.model = model
        self.det = DeterminismPass()
        self.aliases: Dict[str, Dict[str, str]] = {}
        for name, module_info in model.table.modules.items():
            tree = module_info.source.tree
            self.aliases[name] = _collect_aliases(tree) if tree else {}
        #: qualname → reason its return value is tainted.
        self.tainted_functions: Dict[str, str] = {}
        #: (module, class, attr) → reason the attribute is tainted.
        self.tainted_attrs: Dict[Tuple[str, str, str], str] = {}
        self._analyses: Dict[str, _FunctionAnalysis] = {}
        self._tainted: Dict[str, Dict[DefSite, str]] = {}
        self.changed = False

    def _analysis(self, qualname: str) -> _FunctionAnalysis:
        cached = self._analyses.get(qualname)
        if cached is None:
            cached = _FunctionAnalysis(self.model.table.functions[qualname],
                                       self.model)
            self._analyses[qualname] = cached
        return cached

    def run(self) -> None:
        for _ in range(10):
            self.changed = False
            for qualname in sorted(self.model.table.functions):
                self._effects(qualname)
            if not self.changed:
                break

    # -- per-function solve --------------------------------------------------

    def _solve_function(self, qualname: str) -> Dict[DefSite, str]:
        analysis = self._analysis(qualname)
        tainted: Dict[DefSite, str] = {}
        for _ in range(20):
            grew = False
            for block, index, statement in analysis.cfg.statements():
                for name in shallow_defs(statement):
                    site = (name, block.id, index)
                    if site in tainted:
                        continue
                    reason: Optional[str] = None
                    value = def_value(statement, name)
                    state: Optional[Dict[str, Set[DefSite]]] = None
                    if value is not None:
                        state = analysis.reaching.state_before(block.id,
                                                               index)
                        reason = self._expr_taint(value, state, tainted,
                                                  analysis)
                    if reason is None \
                            and isinstance(statement, ast.AugAssign):
                        # x += tainted-or-already-tainted-x
                        if state is None:
                            state = analysis.reaching.state_before(block.id,
                                                                   index)
                        reason = self._name_taint(name, state, tainted)
                    if reason is not None:
                        tainted[site] = reason
                        grew = True
            if not grew:
                break
        self._tainted[qualname] = tainted
        return tainted

    @staticmethod
    def _name_taint(name: str, state: Dict[str, Set[DefSite]],
                    tainted: Dict[DefSite, str]) -> Optional[str]:
        for site in state.get(name, ()):
            reason = tainted.get(site)
            if reason is not None:
                return reason
        return None

    def _expr_taint(self, expression: ast.expr,
                    state: Dict[str, Set[DefSite]],
                    tainted: Dict[DefSite, str],
                    analysis: _FunctionAnalysis) -> Optional[str]:
        info = analysis.info
        aliases = self.aliases.get(info.module, {})
        for node in _walk_skip_nested(expression):
            if isinstance(node, ast.Call):
                hit = self.det._check_call(node, aliases)
                if hit is not None:
                    return f"{_call_label(node)} at line {node.lineno}"
                resolved = self.model.callgraph.resolve_call(
                    node, info, analysis.bindings)
                if resolved is not None:
                    reason = self.tainted_functions.get(resolved.qualname)
                    if reason is not None:
                        return reason
            elif isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Load):
                reason = self._name_taint(node.id, state, tainted)
                if reason is not None:
                    return reason
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self" and info.class_name:
                key = (info.module, info.class_name, node.attr)
                reason = self.tainted_attrs.get(key)
                if reason is not None:
                    return reason
        return None

    # -- interprocedural effects ---------------------------------------------

    def _effects(self, qualname: str) -> None:
        analysis = self._analysis(qualname)
        tainted = self._solve_function(qualname)
        info = analysis.info
        for block, index, statement in analysis.cfg.statements():
            if isinstance(statement, ast.Return) \
                    and statement.value is not None:
                state = analysis.reaching.state_before(block.id, index)
                reason = self._expr_taint(statement.value, state, tainted,
                                          analysis)
                if reason is not None \
                        and qualname not in self.tainted_functions:
                    self.tainted_functions[qualname] = reason
                    self.changed = True
            elif isinstance(statement, ast.Assign) and info.class_name:
                for target in statement.targets:
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    key = (info.module, info.class_name, target.attr)
                    if key in self.tainted_attrs:
                        continue
                    state = analysis.reaching.state_before(block.id, index)
                    reason = self._expr_taint(statement.value, state,
                                              tainted, analysis)
                    if reason is not None:
                        self.tainted_attrs[key] = reason
                        self.changed = True

    # -- findings ------------------------------------------------------------

    def findings(self) -> Iterator[Tuple[str, int, str, str]]:
        """Yield ``(display, line, code, message)`` for every sink hit."""
        emitted: Set[Tuple[str, int, str, str]] = set()
        for qualname in sorted(self.model.table.functions):
            analysis = self._analysis(qualname)
            tainted = self._tainted.get(qualname)
            if tainted is None:
                tainted = self._solve_function(qualname)
            for finding in self._function_findings(analysis, tainted):
                if finding not in emitted:
                    emitted.add(finding)
                    yield finding

    def _function_findings(self, analysis: _FunctionAnalysis,
                           tainted: Dict[DefSite, str]
                           ) -> Iterator[Tuple[str, int, str, str]]:
        info = analysis.info
        display = info.source.display
        for block, index, statement in analysis.cfg.statements():
            state = analysis.reaching.state_before(block.id, index)
            for expression in _own_expressions(statement):
                for node in _walk_skip_nested(expression):
                    if not isinstance(node, ast.Call):
                        continue
                    sink = self._sink_class(node.func)
                    if sink is None:
                        continue
                    code = "REPRO112" if sink in _CONFIG_SINKS \
                        else "REPRO111"
                    for position, argument in enumerate(node.args):
                        reason = self._expr_taint(argument, state, tainted,
                                                  analysis)
                        if reason is not None:
                            yield (display, node.lineno, code,
                                   f"non-deterministic value ({reason}) "
                                   f"flows into {sink}() argument "
                                   f"{position + 1}; inject the value or "
                                   "keep it out of the deterministic "
                                   "payload")
                    for keyword in node.keywords:
                        reason = self._expr_taint(keyword.value, state,
                                                  tainted, analysis)
                        if reason is not None:
                            field = keyword.arg or "**kwargs"
                            yield (display, node.lineno, code,
                                   f"non-deterministic value ({reason}) "
                                   f"flows into {sink} field "
                                   f"{field!r}; inject the value or keep "
                                   "it out of the deterministic payload")
            if isinstance(statement, ast.Assign):
                for target in statement.targets:
                    hit = self._sink_target(target, state, analysis)
                    if hit is None:
                        continue
                    sink, field = hit
                    reason = self._expr_taint(statement.value, state,
                                              tainted, analysis)
                    if reason is not None:
                        code = "REPRO112" if sink in _CONFIG_SINKS \
                            else "REPRO111"
                        yield (display, statement.lineno, code,
                               f"non-deterministic value ({reason}) "
                               f"assigned to {sink} field {field!r}; "
                               "inject the value or keep it out of the "
                               "deterministic payload")

    @staticmethod
    def _sink_class(func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Name) \
                and func.id in _RESULT_SINKS | _CONFIG_SINKS:
            return func.id
        # Alternate constructors: SystemReport.from_dict(...)
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id in _RESULT_SINKS | _CONFIG_SINKS \
                and func.attr.startswith("from_"):
            return func.value.id
        return None

    def _sink_target(self, target: ast.expr,
                     state: Dict[str, Set[DefSite]],
                     analysis: _FunctionAnalysis
                     ) -> Optional[Tuple[str, str]]:
        """``(sink class, field)`` when the store hits a sink instance."""
        if isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name):
            sink = self._bound_sink(target.value.id, state, analysis)
            if sink is not None:
                return (sink, target.attr)
        if isinstance(target, ast.Subscript) \
                and isinstance(target.value, ast.Attribute) \
                and isinstance(target.value.value, ast.Name):
            sink = self._bound_sink(target.value.value.id, state, analysis)
            if sink is not None:
                return (sink, f"{target.value.attr}[...]")
        return None

    def _bound_sink(self, name: str, state: Dict[str, Set[DefSite]],
                    analysis: _FunctionAnalysis) -> Optional[str]:
        for _, block_id, index in state.get(name, ()):
            if block_id == ReachingDefinitions.PARAM_BLOCK:
                continue
            statement = analysis.cfg.blocks[block_id].statements[index]
            value = def_value(statement, name)
            if isinstance(value, ast.Call):
                sink = self._sink_class(value.func)
                if sink is not None:
                    return sink
        return None


class DeterminismTaintPass(ProjectPass):
    """Flow-aware entropy tracking into deterministic payloads."""

    name = "taint"
    codes = {
        "REPRO111": "non-deterministic value flows into a "
                    "SystemReport/RunResult field (poisons the "
                    "content-addressed result cache)",
        "REPRO112": "non-deterministic value flows into experiment "
                    "configuration (run not reconstructible from its "
                    "spec)",
    }
    scope = ("repro",)

    def check_project(self, sources: Sequence[SourceFile],
                      context: AnalysisContext
                      ) -> Iterator[Tuple[SourceFile, int, str, str]]:
        parsed = [source for source in sources if source.tree is not None]
        if not parsed:
            return
        model = ProjectModel.for_context(context, parsed)
        analyzer = _TaintAnalyzer(model)
        analyzer.run()
        by_display = {source.display: source for source in parsed}
        for display, line, code, message in analyzer.findings():
            yield (by_display[display], line, code, message)
