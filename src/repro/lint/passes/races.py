"""The ``races`` pass family: lock-guard inference for shared state.

``REPRO501`` (the ``concurrency`` family) only asks that a module with
shared mutable globals *own* a lock. This family goes further: it
infers **which** lock guards **which** attribute or global from the
code's own majority behaviour, then flags the outliers. If
``self._items`` is written under ``with self._lock:`` at most sites, a
write without the lock is either a race or an undocumented invariant —
both deserve a finding (``REPRO511``). The inference is per-class for
``self.X`` attributes and per-module for globals guarded by
module-level locks.

The rule is a heuristic, not a proof: single-site or evenly-split
guarding is never flagged (there is no majority to learn from), and
``__init__`` writes are exempt (construction happens-before sharing).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..engine import AnalysisContext, AnalysisPass, SourceFile
from .concurrency import _MUTATOR_METHODS

#: Factories producing a lock (``threading.Lock()``, ``RLock()``, ...).
_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                             "BoundedSemaphore"})

#: Minimum guarded write sites before a lock/attribute pairing counts
#: as the learned invariant.
_MIN_GUARDED = 2

#: One recorded write: (line, frozenset of held lock names).
_Write = Tuple[int, frozenset]


def _constructs_lock(value: ast.expr) -> bool:
    """Whether the expression constructs a lock.

    Looks through conditional defaults (``lock or threading.Lock()``,
    ``x if c else Lock()``) by scanning the whole value expression.
    """
    for node in ast.walk(value):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name):
            if func.attr in _LOCK_FACTORIES:
                return True
        elif isinstance(func, ast.Name) and func.id in _LOCK_FACTORIES:
            return True
    return False


def _self_attr(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


class _GuardWalker:
    """Walk one function body tracking the set of held lock names.

    ``locks`` holds the lock names (``self.X`` attrs or module
    globals). Accesses inside nested function definitions are skipped
    — they execute later, under whatever locks their caller holds.
    """

    def __init__(self, locks: Set[str], is_module: bool) -> None:
        self.locks = locks
        self.is_module = is_module  # guard exprs are bare Names, not self.X
        self.writes: Dict[str, List[_Write]] = {}

    def _guard_name(self, expr: ast.expr) -> Optional[str]:
        if self.is_module:
            if isinstance(expr, ast.Name) and expr.id in self.locks:
                return expr.id
        else:
            attr = _self_attr(expr)
            if attr is not None and attr in self.locks:
                return attr
        return None

    def _record(self, name: str, line: int, held: frozenset) -> None:
        self.writes.setdefault(name, []).append((line, held))

    def _written_name(self, target: ast.expr) -> Optional[str]:
        """The guarded-state name a store-target writes, if any."""
        if self.is_module:
            if isinstance(target, ast.Name):
                return target.id
            if isinstance(target, ast.Subscript) \
                    and isinstance(target.value, ast.Name):
                return target.value.id
            return None
        attr = _self_attr(target)
        if attr is not None:
            return attr
        if isinstance(target, ast.Subscript):
            return _self_attr(target.value)
        return None

    def walk(self, body: List[ast.stmt], held: frozenset) -> None:
        for statement in body:
            self._statement(statement, held)

    def _statement(self, statement: ast.stmt, held: frozenset) -> None:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            acquired = {self._guard_name(item.context_expr)
                        for item in statement.items}
            acquired.discard(None)
            self._expressions(statement, held)
            self.walk(statement.body, held | frozenset(acquired))
            return
        self._expressions(statement, held)
        for child_body in self._bodies(statement):
            self.walk(child_body, held)

    @staticmethod
    def _bodies(statement: ast.stmt) -> Iterator[List[ast.stmt]]:
        for attr in ("body", "orelse", "finalbody"):
            body = getattr(statement, attr, None)
            if isinstance(body, list) \
                    and all(isinstance(item, ast.stmt) for item in body):
                yield body
        for handler in getattr(statement, "handlers", []):
            yield handler.body

    def _expressions(self, statement: ast.stmt, held: frozenset) -> None:
        """Record writes in the statement's *own* expressions (shallow)."""
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                name = self._written_name(target)
                if name is not None and name not in self.locks:
                    self._record(name, statement.lineno, held)
        elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
            name = self._written_name(statement.target)
            if name is not None and name not in self.locks:
                self._record(name, statement.lineno, held)
        elif isinstance(statement, ast.Delete):
            for target in statement.targets:
                name = self._written_name(target)
                if name is not None and name not in self.locks:
                    self._record(name, statement.lineno, held)
        # Mutator calls in the statement's own (shallow) expressions:
        # self.items.append(x), PENDING.pop(key), ... Bodies of compound
        # statements are handled by the recursive walk, which knows the
        # correct held set inside them.
        for expression in self._shallow_expressions(statement):
            for node in ast.walk(expression):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _MUTATOR_METHODS:
                    base = node.func.value
                    if self.is_module:
                        name = base.id if isinstance(base, ast.Name) else None
                    else:
                        name = _self_attr(base)
                    if name is not None and name not in self.locks:
                        self._record(name, node.lineno, held)

    @staticmethod
    def _shallow_expressions(statement: ast.stmt) -> Iterator[ast.expr]:
        """The statement's own expressions, excluding nested bodies."""
        for field_name, value in ast.iter_fields(statement):
            if isinstance(value, ast.expr):
                yield value
            elif isinstance(value, list) and field_name != "body" \
                    and field_name not in ("orelse", "finalbody", "handlers"):
                for item in value:
                    if isinstance(item, ast.expr):
                        yield item
                    elif isinstance(item, ast.withitem):
                        yield item.context_expr


def _majority_findings(writes: Dict[str, List[_Write]],
                       describe: str) -> Iterator[Tuple[int, str, str]]:
    for name in sorted(writes):
        sites = writes[name]
        if len(sites) < _MIN_GUARDED + 1:
            continue
        candidates: Set[str] = set()
        for _, held in sites:
            candidates.update(held)
        best_lock = None
        best_count = 0
        for lock in sorted(candidates):
            count = sum(1 for _, held in sites if lock in held)
            if count > best_count:
                best_lock, best_count = lock, count
        if best_lock is None or best_count < _MIN_GUARDED:
            continue
        unguarded = [(line, held) for line, held in sites
                     if best_lock not in held]
        if not unguarded or best_count <= len(unguarded):
            continue
        lock_ref = best_lock if describe == "global" else f"self.{best_lock}"
        state_ref = name if describe == "global" else f"self.{name}"
        for line, _ in unguarded:
            yield (line, "REPRO511",
                   f"{describe} {state_ref!r} is written under "
                   f"'with {lock_ref}:' at {best_count} of {len(sites)} "
                   f"write sites but not here; guard this write or "
                   "suppress with the invariant that makes it safe")


class LockGuardPass(AnalysisPass):
    """Infer lock/state pairings from majority behaviour; flag outliers."""

    name = "races"
    codes = {
        "REPRO511": "write to majority-lock-guarded shared state without "
                    "holding the inferred lock",
    }
    scope = ("repro.exec", "repro.obs")
    version = 1

    def check(self, source: SourceFile,
              context: AnalysisContext) -> Iterator[Tuple[int, str, str]]:
        assert source.tree is not None
        module_locks = self._module_locks(source.tree)
        for statement in source.tree.body:
            if isinstance(statement, ast.ClassDef):
                for finding in self._check_class(statement):
                    yield finding
        if module_locks:
            walker = _GuardWalker(module_locks, is_module=True)
            for statement in source.tree.body:
                if isinstance(statement, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                    walker.walk(statement.body, frozenset())
            for finding in _majority_findings(walker.writes, "global"):
                yield finding

    @staticmethod
    def _module_locks(tree: ast.Module) -> Set[str]:
        return {statement.targets[0].id for statement in tree.body
                if isinstance(statement, ast.Assign)
                and len(statement.targets) == 1
                and isinstance(statement.targets[0], ast.Name)
                and _constructs_lock(statement.value)}

    def _check_class(self, cls: ast.ClassDef
                     ) -> Iterator[Tuple[int, str, str]]:
        methods = [node for node in cls.body
                   if isinstance(node, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))]
        locks: Set[str] = set()
        for method in methods:
            for node in ast.walk(method):
                if isinstance(node, ast.Assign) \
                        and _constructs_lock(node.value):
                    for target in node.targets:
                        attr = _self_attr(target)
                        if attr is not None:
                            locks.add(attr)
        if not locks:
            return
        walker = _GuardWalker(locks, is_module=False)
        for method in methods:
            # __init__ writes happen before the instance is shared, so
            # they neither teach the inference nor count as outliers.
            if method.name == "__init__":
                continue
            walker.walk(method.body, frozenset())
        for finding in _majority_findings(walker.writes, "attribute"):
            yield finding
