"""The ``concurrency`` pass family: shared mutable state needs a plan.

The execution layer runs beside real threads: a fork pool's handler
threads run in the caller's process, span tracers keep one open-span
stack per thread, and a library caller may run batches from several
threads. Module-level mutable containers in ``repro.exec`` and
``repro.obs`` are therefore cross-thread shared state, and mutating
one without a lock (or making it thread-local) is a data race waiting
for a scheduler to expose it.

The check is deliberately structural, not a proof: a module-level
``list``/``dict``/``set`` binding that is mutated from inside a
function is flagged unless the module also creates a
``threading.Lock``/``RLock``/``local`` at module level — the presence
of a module-level lock is taken as evidence the author thought about
the race (reviewers still judge whether it is *held* in the right
places). Intentionally unguarded state carries a justified suppression
instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from ..engine import AnalysisContext, AnalysisPass, SourceFile

#: Constructors whose result is a shared mutable container.
_MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
    "Counter", "deque",
})

#: Method names that mutate a list/dict/set in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "appendleft", "popleft",
    "sort", "reverse",
})

#: Names that, bound at module level, mark the module as lock-aware.
_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                             "local"})


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in _MUTABLE_CONSTRUCTORS
        if isinstance(func, ast.Attribute):
            return func.attr in _MUTABLE_CONSTRUCTORS
    return False


def _is_lock_factory(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in _LOCK_FACTORIES
    if isinstance(func, ast.Attribute):
        return func.attr in _LOCK_FACTORIES
    return False


def _module_level_bindings(tree: ast.Module) -> Tuple[Set[str], bool]:
    """(mutable module-global names, module creates a lock at top level)."""
    mutable: Set[str] = set()
    has_lock = False
    for statement in tree.body:
        targets: List[ast.expr] = []
        value = None
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign) \
                and statement.value is not None:
            targets, value = [statement.target], statement.value
        if value is None:
            continue
        if _is_lock_factory(value):
            has_lock = True
            continue
        if not _is_mutable_literal(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id != "__all__":
                mutable.add(target.id)
    return mutable, has_lock


def _mutations(tree: ast.Module, names: Set[str]
               ) -> Iterator[Tuple[int, str]]:
    """Yield (line, name) for each in-function mutation of a global."""
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in names \
                    and node.func.attr in _MUTATOR_METHODS:
                yield node.lineno, node.func.value.id
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id in names:
                        yield node.lineno, target.value.id
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id in names:
                        yield node.lineno, target.value.id
            elif isinstance(node, ast.Global):
                for name in node.names:
                    if name in names:
                        yield node.lineno, name


class ConcurrencyPass(AnalysisPass):
    """Mutable module globals in threaded layers need a lock."""

    name = "concurrency"
    codes = {
        "REPRO501": "module-level mutable state mutated without a "
                    "module-level lock or thread-local",
    }
    scope = ("repro.exec", "repro.obs")

    def check(self, source: SourceFile,
              context: AnalysisContext) -> Iterator[Tuple[int, str, str]]:
        assert source.tree is not None
        mutable, has_lock = _module_level_bindings(source.tree)
        if not mutable or has_lock:
            return
        for line, name in _mutations(source.tree, mutable):
            yield (line, "REPRO501",
                   f"module global {name!r} is mutated here but the "
                   "module creates no threading.Lock/RLock/local; "
                   "threads in the exec and obs layers share this state")
