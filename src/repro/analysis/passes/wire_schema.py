"""The ``wire`` pass family: frame-schema conformance across processes.

The cluster stack speaks length-prefixed JSON frames: a dict with a
``"type"`` discriminator drawn from the ``MSG_*`` vocabulary in
``repro.exec.wire``. The dispatcher, workers, cluster client, and the
CLI each construct some frame types and read others — across a process
boundary, so no test that runs in one process can see a field written
on one side and silently ignored (or never produced) on the other.
This project pass recovers both sides statically:

**Writers.** Every dict literal whose ``"type"`` key resolves (through
the project symbol table, so ``MSG_RUN`` imported from ``.wire``
counts) to a known message type is a construction site; its literal
keys are field writes. Frame *variables* are tracked flow-insensitively
through assignments, returns (``result_reply(...)`` → callers know the
callee's frame types via a call-graph fixpoint), and
``frame["field"] = ...`` augmentation, including ``TraceContext`` and
metrics-snapshot payload fields attached conditionally.

**Readers.** Variables born from the receive seams
(``recv_message``/``_read_frame``/``self._recv``, through ``await``
and ``asyncio.wait_for``) are frames of unknown type ``*``; an
``if kind == MSG_X:`` narrowing (where ``kind`` came from
``frame.get("type")``) pins the type inside the branch, and passing a
narrowed frame to another function narrows that callee's parameter.
``frame.get("f")``/``frame["f"]``/``"f" in frame`` are field reads.

Rules: a field read under a narrowed type that **no** construction
site writes is ``REPRO601`` (schema drift — the reader can only ever
see the default); a field written that **no** reader (typed or
wildcard) consumes is ``REPRO602`` (dead payload, or a reader lost in
a refactor); conflicting value shapes for the same ``(type, field)``
across construction sites is ``REPRO603``.

Whole-universe rules need the whole universe: when only *some* of the
real frame modules (:attr:`WireSchemaPass.required_modules`) are in
the analyzed set — e.g. CI's per-module smoke checks — ``REPRO601``/
``REPRO602`` are skipped (a missing reader elsewhere is not evidence).
A file set containing *none* of them (the test fixtures) is its own
self-contained universe and gets the full checks.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..engine import AnalysisContext, ProjectPass, SourceFile
from ..project import FunctionInfo, ProjectModel, _instance_bindings

#: Functions whose return value is a frame of unknown type.
_RECV_FUNCS = frozenset({"recv_message", "_read_frame", "_recv",
                         "decode_frame"})

#: (display, line, value kind) of one field write.
_WriteSite = Tuple[str, int, str]

#: (display, line) of one field read.
_ReadSite = Tuple[str, int]

_KIND_CONSTRUCTORS = {"str": "str", "int": "int", "float": "float",
                      "bool": "bool", "list": "list", "dict": "dict",
                      "sorted": "list", "tuple": "list"}


def _unwrap(expr: ast.expr) -> ast.expr:
    """Strip ``await`` and ``asyncio.wait_for(...)`` wrappers."""
    while True:
        if isinstance(expr, ast.Await):
            expr = expr.value
            continue
        if isinstance(expr, ast.Call) \
                and isinstance(expr.func, ast.Attribute) \
                and expr.func.attr == "wait_for" and expr.args:
            expr = expr.args[0]
            continue
        return expr


def value_kind(expr: ast.expr) -> str:
    """Coarse JSON shape of an expression: str/int/float/bool/list/
    dict/none, or ``unknown`` when static analysis cannot tell."""
    expr = _unwrap(expr)
    if isinstance(expr, ast.Constant):
        value = expr.value
        if value is None:
            return "none"
        if isinstance(value, bool):
            return "bool"
        if isinstance(value, str):
            return "str"
        if isinstance(value, int):
            return "int"
        if isinstance(value, float):
            return "float"
        return "unknown"
    if isinstance(expr, ast.JoinedStr):
        return "str"
    if isinstance(expr, (ast.List, ast.ListComp, ast.Tuple)):
        return "list"
    if isinstance(expr, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return _KIND_CONSTRUCTORS.get(expr.func.id, "unknown")
    return "unknown"


def _walk_skip_nested(root: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested function defs
    (they are indexed and analyzed as functions of their own)."""
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            stack.append(child)


class _WireAnalyzer:
    """One fixpoint run over the applicable sources."""

    def __init__(self, model: ProjectModel) -> None:
        self.model = model
        self.types: Set[str] = set()
        for module_info in model.table.modules.values():
            for name, value in module_info.constants.items():
                if name.startswith("MSG_") and isinstance(value, str):
                    self.types.add(value)
        self.returns_frames: Dict[str, Set[str]] = {}
        self.param_frames: Dict[Tuple[str, str], Set[str]] = {}
        self.writes: Dict[Tuple[str, str], List[_WriteSite]] = {}
        self.reads: Dict[Tuple[str, str], List[_ReadSite]] = {}
        self.constructed: Set[str] = set()
        self.changed = False

    def run(self) -> None:
        if not self.types:
            return
        for _ in range(10):
            self.changed = False
            self.writes = {}
            self.reads = {}
            self.constructed = set()
            for qualname in sorted(self.model.table.functions):
                self._analyze_function(self.model.table.functions[qualname])
            if not self.changed:
                break

    # -- per-function analysis ----------------------------------------------

    def _analyze_function(self, info: FunctionInfo) -> None:
        env: Dict[str, Set[str]] = {}
        for param in info.param_names():
            known = self.param_frames.get((info.qualname, param))
            if known:
                env[param] = set(known)
        kind_vars: Dict[str, str] = {}
        self._bindings = _instance_bindings(info, self.model.table)
        self._info = info
        for node in _walk_skip_nested(info.node):
            if isinstance(node, ast.Dict):
                frame_type = self._dict_frame_type(node)
                if frame_type is not None:
                    self._record_dict_writes(node, frame_type, info)
        self._walk_body(info.node.body, env, kind_vars)  # type: ignore

    def _resolve_type(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value if expr.value in self.types else None
        if isinstance(expr, ast.Name):
            value = self.model.table.resolve_value(self._info.module,
                                                   expr.id)
            if isinstance(value, str) and value in self.types:
                return value
        if isinstance(expr, ast.Attribute) and isinstance(expr.value,
                                                          ast.Name):
            module_info = self.model.table.modules.get(self._info.module)
            if module_info is not None:
                target = module_info.imports.get(expr.value.id)
                if target is not None:
                    value = self.model.table.resolve_value(target, expr.attr)
                    if isinstance(value, str) and value in self.types:
                        return value
        return None

    def _dict_frame_type(self, node: ast.Dict) -> Optional[str]:
        for key, value in zip(node.keys, node.values):
            if isinstance(key, ast.Constant) and key.value == "type":
                return self._resolve_type(value)
        return None

    def _record_dict_writes(self, node: ast.Dict, frame_type: str,
                            info: FunctionInfo) -> None:
        self.constructed.add(frame_type)
        for key, value in zip(node.keys, node.values):
            if not isinstance(key, ast.Constant) \
                    or not isinstance(key.value, str) \
                    or key.value == "type":
                continue
            site = (info.source.display, key.lineno, value_kind(value))
            self.writes.setdefault((frame_type, key.value), []).append(site)

    # -- statement walking ---------------------------------------------------

    def _walk_body(self, body: Sequence[ast.stmt], env: Dict[str, Set[str]],
                   kind_vars: Dict[str, str]) -> None:
        for statement in body:
            self._statement(statement, env, kind_vars)

    def _statement(self, statement: ast.stmt, env: Dict[str, Set[str]],
                   kind_vars: Dict[str, str]) -> None:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
            return
        if isinstance(statement, ast.If):
            self._scan_expressions([statement.test], env)
            narrowed = self._narrowing(statement.test, env, kind_vars)
            if narrowed is not None:
                var, types = narrowed
                saved = env.get(var)
                env[var] = types
                self._walk_body(statement.body, env, kind_vars)
                if saved is None:
                    env.pop(var, None)
                else:
                    env[var] = saved
            else:
                self._walk_body(statement.body, env, kind_vars)
            self._walk_body(statement.orelse, env, kind_vars)
            return
        if isinstance(statement, ast.Assign) \
                and len(statement.targets) == 1:
            target = statement.targets[0]
            self._scan_expressions([statement.value], env)
            if isinstance(target, ast.Name):
                self._assign_name(target.id, statement.value, env, kind_vars)
            elif isinstance(target, ast.Subscript):
                self._assign_subscript(target, statement.value, env)
        elif isinstance(statement, ast.AnnAssign) \
                and statement.value is not None:
            self._scan_expressions([statement.value], env)
            if isinstance(statement.target, ast.Name):
                self._assign_name(statement.target.id, statement.value,
                                  env, kind_vars)
            elif isinstance(statement.target, ast.Subscript):
                self._assign_subscript(statement.target, statement.value,
                                       env)
        elif isinstance(statement, ast.Return):
            if statement.value is not None:
                self._scan_expressions([statement.value], env)
                types = self._frame_types(statement.value, env)
                if types:
                    known = self.returns_frames.setdefault(
                        self._info.qualname, set())
                    if not types <= known:
                        known.update(types)
                        self.changed = True
        else:
            expressions = [value for _, value in ast.iter_fields(statement)
                           if isinstance(value, ast.expr)]
            for _, value in ast.iter_fields(statement):
                if isinstance(value, list):
                    expressions.extend(
                        item.context_expr for item in value
                        if isinstance(item, ast.withitem))
            self._scan_expressions(expressions, env)
            for attr in ("body", "orelse", "finalbody"):
                body = getattr(statement, attr, None)
                if body:
                    self._walk_body(body, env, kind_vars)
            for handler in getattr(statement, "handlers", []):
                self._walk_body(handler.body, env, kind_vars)

    def _assign_name(self, target: str, value: ast.expr,
                     env: Dict[str, Set[str]],
                     kind_vars: Dict[str, str]) -> None:
        unwrapped = _unwrap(value)
        type_source = self._type_read_of(unwrapped, env)
        if type_source is not None:
            kind_vars[target] = type_source
            env.pop(target, None)
            return
        types = self._frame_types(value, env)
        if types:
            env[target] = types
            kind_vars.pop(target, None)
        else:
            env.pop(target, None)
            kind_vars.pop(target, None)

    def _assign_subscript(self, target: ast.Subscript, value: ast.expr,
                          env: Dict[str, Set[str]]) -> None:
        if not isinstance(target.value, ast.Name) \
                or target.value.id not in env:
            return
        key = _subscript_key(target)
        if key is None or key == "type":
            return
        site = (self._info.source.display, target.lineno, value_kind(value))
        for frame_type in env[target.value.id]:
            if frame_type != "*":
                self.writes.setdefault((frame_type, key), []).append(site)

    def _type_read_of(self, expr: ast.expr,
                      env: Dict[str, Set[str]]) -> Optional[str]:
        """``fv`` when ``expr`` is ``fv.get("type")`` / ``fv["type"]``."""
        if isinstance(expr, ast.Call) \
                and isinstance(expr.func, ast.Attribute) \
                and expr.func.attr == "get" and expr.args \
                and isinstance(expr.func.value, ast.Name) \
                and expr.func.value.id in env \
                and isinstance(expr.args[0], ast.Constant) \
                and expr.args[0].value == "type":
            return expr.func.value.id
        if isinstance(expr, ast.Subscript) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id in env \
                and _subscript_key(expr) == "type":
            return expr.value.id
        return None

    def _frame_types(self, value: ast.expr,
                     env: Dict[str, Set[str]]) -> Optional[Set[str]]:
        value = _unwrap(value)
        if isinstance(value, ast.Dict):
            frame_type = self._dict_frame_type(value)
            return {frame_type} if frame_type is not None else None
        if isinstance(value, ast.Name) and value.id in env:
            return set(env[value.id])
        if isinstance(value, ast.IfExp):
            left = self._frame_types(value.body, env) or set()
            right = self._frame_types(value.orelse, env) or set()
            return (left | right) or None
        if isinstance(value, ast.Call):
            resolved = self.model.callgraph.resolve_call(
                value, self._info, self._bindings)
            if resolved is not None:
                known = self.returns_frames.get(resolved.qualname)
                if known:
                    return set(known)
                if resolved.local_name.split(".")[-1] in _RECV_FUNCS:
                    return {"*"}
                return None
            func = value.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if name in _RECV_FUNCS:
                return {"*"}
        return None

    def _narrowing(self, test: ast.expr, env: Dict[str, Set[str]],
                   kind_vars: Dict[str, str]
                   ) -> Optional[Tuple[str, Set[str]]]:
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return None
        left, right = test.left, test.comparators[0]
        operator = test.ops[0]
        if isinstance(operator, ast.Eq):
            for subject, other in ((left, right), (right, left)):
                var = self._narrow_subject(subject, env, kind_vars)
                if var is None:
                    continue
                frame_type = self._resolve_type(other)
                if frame_type is not None:
                    return (var, {frame_type})
        elif isinstance(operator, ast.In):
            var = self._narrow_subject(left, env, kind_vars)
            if var is not None and isinstance(right, (ast.Tuple, ast.List,
                                                      ast.Set)):
                types = {self._resolve_type(element)
                         for element in right.elts}
                types.discard(None)
                if types:
                    return (var, types)  # type: ignore[arg-type]
        return None

    def _narrow_subject(self, expr: ast.expr, env: Dict[str, Set[str]],
                        kind_vars: Dict[str, str]) -> Optional[str]:
        if isinstance(expr, ast.Name) and expr.id in kind_vars:
            return kind_vars[expr.id]
        return self._type_read_of(_unwrap(expr), env)

    def _scan_expressions(self, expressions: Sequence[ast.expr],
                          env: Dict[str, Set[str]]) -> None:
        for expression in expressions:
            if expression is None:
                continue
            for node in _walk_skip_nested(expression):
                self._scan_read(node, env)
                if isinstance(node, ast.Call):
                    self._propagate_call(node, env)

    def _scan_read(self, node: ast.AST, env: Dict[str, Set[str]]) -> None:
        key: Optional[str] = None
        var: Optional[str] = None
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get" and node.args \
                and isinstance(node.func.value, ast.Name) \
                and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            var, key = node.func.value.id, node.args[0].value
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.value, ast.Name) \
                and isinstance(getattr(node, "ctx", None), ast.Load):
            var, key = node.value.id, _subscript_key(node)
        elif isinstance(node, ast.Compare) and len(node.ops) == 1 \
                and isinstance(node.ops[0], (ast.In, ast.NotIn)) \
                and isinstance(node.left, ast.Constant) \
                and isinstance(node.left.value, str) \
                and isinstance(node.comparators[0], ast.Name):
            var, key = node.comparators[0].id, node.left.value
        if var is None or key is None or key == "type" or var not in env:
            return
        site = (self._info.source.display, node.lineno)
        for frame_type in env[var]:
            self.reads.setdefault((frame_type, key), []).append(site)

    def _propagate_call(self, call: ast.Call,
                        env: Dict[str, Set[str]]) -> None:
        frame_args = [
            (index, argument.id) for index, argument in enumerate(call.args)
            if isinstance(argument, ast.Name) and argument.id in env]
        frame_kwargs = [
            (keyword.arg, keyword.value.id) for keyword in call.keywords
            if keyword.arg is not None
            and isinstance(keyword.value, ast.Name)
            and keyword.value.id in env]
        if not frame_args and not frame_kwargs:
            return
        resolved = self.model.callgraph.resolve_call(call, self._info,
                                                     self._bindings)
        if resolved is None:
            return
        for index, name in frame_args:
            param = resolved.positional_param(index)
            if param is not None:
                self._grow_param(resolved.qualname, param, env[name])
        for param, name in frame_kwargs:
            if param in resolved.param_names():
                self._grow_param(resolved.qualname, param, env[name])

    def _grow_param(self, qualname: str, param: str,
                    types: Set[str]) -> None:
        known = self.param_frames.setdefault((qualname, param), set())
        if not types <= known:
            known.update(types)
            self.changed = True


def _subscript_key(node: ast.Subscript) -> Optional[str]:
    index = node.slice
    if isinstance(index, ast.Constant) and isinstance(index.value, str):
        return index.value
    # py3.8 compat shape (ast.Index) is gone in 3.9+, the repo floor.
    return None


class WireSchemaPass(ProjectPass):
    """Cross-process frame-schema conformance for the cluster protocol."""

    name = "wire"
    codes = {
        "REPRO601": "frame field read under a message type no "
                    "construction site writes (wire-schema drift)",
        "REPRO602": "frame field written but never read by any peer "
                    "(dead payload or lost reader)",
        "REPRO603": "frame field written with conflicting value shapes "
                    "across construction sites",
    }
    scope = ("repro.exec", "repro.cli")
    version = 2

    #: The real protocol universe. REPRO601/602 need *all* of these in
    #: the analyzed set (or none of them: a self-contained fixture).
    required_modules = frozenset({
        "repro.exec.wire", "repro.exec.worker", "repro.exec.cluster",
        "repro.cli",
    })

    def check_project(self, sources: Sequence[SourceFile],
                      context: AnalysisContext
                      ) -> Iterator[Tuple[SourceFile, int, str, str]]:
        parsed = [source for source in sources if source.tree is not None]
        if not parsed:
            return
        model = ProjectModel.for_context(context, parsed)
        analyzer = _WireAnalyzer(model)
        analyzer.run()
        by_display = {source.display: source for source in parsed}
        scanned = {source.module for source in parsed}
        present = self.required_modules & scanned
        complete = present == self.required_modules or not present

        for (frame_type, field), sites in sorted(analyzer.writes.items()):
            kinds: Dict[str, List[_WriteSite]] = {}
            for site in sites:
                kinds.setdefault(site[2], []).append(site)
            known = {kind for kind in kinds if kind not in ("unknown",
                                                            "none")}
            if len(known) >= 2:
                majority = max(sorted(known),
                               key=lambda kind: len(kinds[kind]))
                for kind in sorted(known - {majority}):
                    for display, line, _ in kinds[kind]:
                        yield (by_display[display], line, "REPRO603",
                               f"field {field!r} of {frame_type!r} frames "
                               f"is written as {kind} here but as "
                               f"{majority} at "
                               f"{len(kinds[majority])} other "
                               "construction site(s); peers cannot rely "
                               "on the shape")

        if not complete:
            return
        for (frame_type, field), read_sites in sorted(analyzer.reads.items()):
            if frame_type == "*" or frame_type not in analyzer.constructed:
                continue
            if (frame_type, field) in analyzer.writes:
                continue
            for display, line in sorted(set(read_sites)):
                yield (by_display[display], line, "REPRO601",
                       f"field {field!r} is read from {frame_type!r} "
                       "frames but no construction site ever writes it; "
                       "the reader only ever sees its default")
        for (frame_type, field), write_sites in sorted(
                analyzer.writes.items()):
            if (frame_type, field) in analyzer.reads \
                    or ("*", field) in analyzer.reads:
                continue
            display, line, _ = sorted(write_sites)[0]
            yield (by_display[display], line, "REPRO602",
                   f"field {field!r} of {frame_type!r} frames is written "
                   "here but no peer ever reads it; drop the field or "
                   "add (and exercise) the reader")
