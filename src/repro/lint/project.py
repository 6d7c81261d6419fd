"""Project-wide symbol table and call graph for dataflow passes.

Per-file passes see one tree at a time; the dataflow families
(``REPRO11x`` taint, ``REPRO6xx`` wire schema) need to answer
*cross-file* questions — "which function does this call resolve to?",
"what string does this imported constant hold?". This module builds
that picture once per run:

- :class:`SymbolTable` indexes every module's functions (including
  methods and nested functions), classes, module-level constants, and
  import aliases, with relative imports resolved against the dotted
  module name.
- :class:`CallGraph` resolves ``Name``/``self.method``/
  ``module.func``/``instance.method`` call sites to fully-qualified
  function names and records caller → callee edges.
- :class:`ProjectModel` bundles both and memoises per
  :class:`~repro.lint.engine.AnalysisContext`, so every project
  pass in a run shares one build.

Resolution is deliberately conservative: anything dynamic
(``getattr``, inheritance, decorators that rebind) resolves to
``None`` and passes must treat it as unknown.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .engine import AnalysisContext, SourceFile


@dataclass
class FunctionInfo:
    """One function or method, addressable by fully-qualified name."""

    qualname: str
    module: str
    local_name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    source: SourceFile
    class_name: Optional[str] = None

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    def param_names(self) -> List[str]:
        args = self.node.args  # type: ignore[attr-defined]
        names = [a.arg for a in getattr(args, "posonlyargs", [])]
        names += [a.arg for a in args.args]
        if args.vararg:
            names.append(args.vararg.arg)
        names += [a.arg for a in args.kwonlyargs]
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names

    def positional_param(self, index: int) -> Optional[str]:
        """The parameter name bound by positional argument ``index``.

        For methods the implicit ``self``/``cls`` slot is skipped, so
        index 0 is the first *caller-visible* argument.
        """
        args = self.node.args  # type: ignore[attr-defined]
        positional = [a.arg for a in getattr(args, "posonlyargs", [])]
        positional += [a.arg for a in args.args]
        if self.is_method and positional:
            positional = positional[1:]
        if 0 <= index < len(positional):
            return positional[index]
        return None


@dataclass
class ModuleInfo:
    """Per-module symbol index."""

    name: str
    source: SourceFile
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, List[str]] = field(default_factory=dict)
    imports: Dict[str, str] = field(default_factory=dict)
    constants: Dict[str, Any] = field(default_factory=dict)


def _resolve_relative(module: str, is_package: bool,
                      node: ast.ImportFrom) -> Optional[str]:
    """Absolute dotted module targeted by a (possibly relative) import."""
    if node.level == 0:
        return node.module
    parts = module.split(".") if module else []
    if not is_package and parts:
        parts = parts[:-1]
    drop = node.level - 1
    if drop:
        if drop > len(parts):
            return node.module
        parts = parts[:len(parts) - drop]
    base = ".".join(parts)
    if node.module:
        return f"{base}.{node.module}" if base else node.module
    return base or None


class SymbolTable:
    """Symbols of every analyzed module, with import-aware resolution."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}

    @classmethod
    def build(cls, sources: Sequence[SourceFile]) -> "SymbolTable":
        table = cls()
        for source in sources:
            if source.tree is None:
                continue
            table._index_module(source)
        return table

    def _index_module(self, source: SourceFile) -> None:
        info = ModuleInfo(name=source.module, source=source)
        self.modules[source.module] = info
        for statement in source.tree.body:  # type: ignore[union-attr]
            self._index_statement(info, source, statement, prefix="",
                                  class_name=None)
        # Imports and constants anywhere at module level (incl. inside
        # try/except guards for optional deps).
        for node in ast.walk(source.tree):  # type: ignore[arg-type]
            if isinstance(node, ast.Import):
                for alias in node.names:
                    info.imports[alias.asname or alias.name.split(".")[0]] = \
                        alias.name
            elif isinstance(node, ast.ImportFrom):
                target = _resolve_relative(source.module, source.is_package,
                                           node)
                if target is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    info.imports[alias.asname or alias.name] = \
                        f"{target}.{alias.name}"
        for statement in source.tree.body:  # type: ignore[union-attr]
            if isinstance(statement, ast.Assign) \
                    and len(statement.targets) == 1 \
                    and isinstance(statement.targets[0], ast.Name) \
                    and isinstance(statement.value, ast.Constant):
                info.constants[statement.targets[0].id] = statement.value.value

    def _index_statement(self, info: ModuleInfo, source: SourceFile,
                         statement: ast.stmt, prefix: str,
                         class_name: Optional[str]) -> None:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local = f"{prefix}{statement.name}"
            function = FunctionInfo(
                qualname=f"{info.name}.{local}", module=info.name,
                local_name=local, node=statement, source=source,
                class_name=class_name)
            info.functions[local] = function
            self.functions[function.qualname] = function
            for inner in statement.body:
                # Nested defs are indexed so their bodies are analyzed,
                # but under a <locals>-style qualifier no call resolves
                # to (closures are invisible to the call graph).
                self._index_statement(info, source, inner,
                                      prefix=f"{local}.<locals>.",
                                      class_name=None)
        elif isinstance(statement, ast.ClassDef):
            if class_name is None and not prefix:
                methods: List[str] = []
                for inner in statement.body:
                    if isinstance(inner, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                        methods.append(inner.name)
                        self._index_statement(
                            info, source, inner,
                            prefix=f"{statement.name}.",
                            class_name=statement.name)
                info.classes[statement.name] = methods

    # -- resolution ----------------------------------------------------------

    def resolve_value(self, module: str, name: str,
                      _depth: int = 0) -> Optional[Any]:
        """The constant value ``name`` holds in ``module``, through
        one-hop-per-level import chains (``from .wire import MSG_RUN``)."""
        if _depth > 8:
            return None
        info = self.modules.get(module)
        if info is None:
            return None
        if name in info.constants:
            return info.constants[name]
        target = info.imports.get(name)
        if target:
            mod, _, symbol = target.rpartition(".")
            if symbol and mod in self.modules:
                return self.resolve_value(mod, symbol, _depth + 1)
        return None

    def resolve_function(self, module: str, name: str,
                         _depth: int = 0) -> Optional[FunctionInfo]:
        """Resolve a bare name in ``module`` to a known function."""
        if _depth > 8:
            return None
        info = self.modules.get(module)
        if info is None:
            return None
        if name in info.functions:
            return info.functions[name]
        target = info.imports.get(name)
        if target:
            mod, _, symbol = target.rpartition(".")
            if symbol and mod in self.modules:
                return self.resolve_function(mod, symbol, _depth + 1)
        return None

    def resolve_class(self, module: str, name: str) -> Optional[Tuple[str, str]]:
        """Resolve a bare name to ``(defining_module, class_name)``."""
        info = self.modules.get(module)
        if info is None:
            return None
        if name in info.classes:
            return (module, name)
        target = info.imports.get(name)
        if target:
            mod, _, symbol = target.rpartition(".")
            other = self.modules.get(mod)
            if other is not None and symbol in other.classes:
                return (mod, symbol)
        return None


class CallGraph:
    """caller qualname → set of resolved callee qualnames."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.edges: Dict[str, Set[str]] = {}

    @classmethod
    def build(cls, table: SymbolTable) -> "CallGraph":
        graph = cls(table)
        for qualname, info in table.functions.items():
            callees: Set[str] = set()
            instance_classes = _instance_bindings(info, table)
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    resolved = graph.resolve_call(node, info,
                                                  instance_classes)
                    if resolved is not None:
                        callees.add(resolved.qualname)
            graph.edges[qualname] = callees
        return graph

    def resolve_call(self, call: ast.Call, info: FunctionInfo,
                     instance_classes: Optional[Dict[str, Tuple[str, str]]]
                     = None) -> Optional[FunctionInfo]:
        """The :class:`FunctionInfo` a call site dispatches to, if known."""
        func = call.func
        table = self.table
        if isinstance(func, ast.Name):
            return table.resolve_function(info.module, func.id)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = func.value.id
            module_info = table.modules.get(info.module)
            if base == "self" and info.class_name and module_info:
                local = f"{info.class_name}.{func.attr}"
                if local in module_info.functions:
                    return module_info.functions[local]
                return None
            if module_info:
                target = module_info.imports.get(base)
                if target and target in table.modules:
                    other = table.modules[target]
                    if func.attr in other.functions:
                        return other.functions[func.attr]
            if instance_classes and base in instance_classes:
                mod, cls_name = instance_classes[base]
                other = table.modules.get(mod)
                if other is not None:
                    local = f"{cls_name}.{func.attr}"
                    if local in other.functions:
                        return other.functions[local]
        return None

    def callees(self, qualname: str) -> Set[str]:
        return self.edges.get(qualname, set())


def _instance_bindings(info: FunctionInfo, table: SymbolTable
                       ) -> Dict[str, Tuple[str, str]]:
    """Local ``var = ClassName(...)`` bindings inside one function.

    Lets the call graph resolve ``server._run(...)`` when ``server``
    was constructed from a class the table knows. Flow-insensitive:
    the last such binding wins, rebinding to a non-class drops it.
    """
    bindings: Dict[str, Tuple[str, str]] = {}
    for node in ast.walk(info.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            value = node.value
            if isinstance(value, ast.Call) and isinstance(value.func,
                                                          ast.Name):
                resolved = table.resolve_class(info.module, value.func.id)
                if resolved is not None:
                    bindings[name] = resolved
                    continue
            bindings.pop(name, None)
    return bindings


class ProjectModel:
    """Symbol table + call graph, built once per run over a file set."""

    def __init__(self, sources: Sequence[SourceFile]) -> None:
        self.sources = list(sources)
        self.table = SymbolTable.build(self.sources)
        self.callgraph = CallGraph.build(self.table)

    @classmethod
    def for_context(cls, context: AnalysisContext,
                    sources: Sequence[SourceFile]) -> "ProjectModel":
        key = "project.model:" + "\x00".join(s.display for s in sources)
        model = context.cache.get(key)
        if model is None:
            model = cls(sources)
            context.cache[key] = model
        return model
