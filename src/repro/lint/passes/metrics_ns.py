"""The ``metrics`` pass family: registered names match the documented
namespace.

``docs/OBSERVABILITY.md`` declares the metric hierarchy (``mem.nvm.*``,
``cache.counter.*``, ``exec.task.*``, ...). Dashboards, the
Prometheus exporter, and the snapshot-merge invariant all key on those
prefixes, so a metric registered under an undocumented prefix is
invisible to every consumer that matters. This pass cross-checks every
*literal* instrument name passed to ``counter()``/``gauge()``/
``histogram()`` (and every literal ``metrics_prefix=`` argument)
against the prefixes parsed from the doc's namespace table.

Dynamic names used to be a silent blind spot: ``counter(name)`` where
``name`` was computed sailed past the literal check. ``REPRO402``
closes it in three steps. First, names the pass *can* resolve are
resolved and checked as if literal: a loop variable bound by
``for name in ("a.b", "a.c"):`` expands to its literal values, a local
``name = "a.b"`` assignment resolves directly, and an f-string with a
literal documented-prefix head (``f"exec.cache.{label}"``) inherits
the head's verdict. Only what remains — a name genuinely out of static
reach — is flagged as the advisory ``REPRO402``, asking for a literal,
a resolvable shape, or a suppression naming where the value is
validated. ``repro.obs.registry`` itself is exempt: it is the
re-registration plumbing every already-checked name flows through.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..engine import AnalysisContext, AnalysisPass, SourceFile

#: Registration methods whose first positional argument is a metric name.
_REGISTER_METHODS = frozenset({"counter", "gauge", "histogram"})

#: Keyword arguments that carry a namespace prefix for bound stats views.
_PREFIX_KEYWORDS = frozenset({"metrics_prefix"})

#: Fallback namespace when docs/OBSERVABILITY.md is absent (e.g. when a
#: test roots the analyzer inside a fixture tree). Mirrors the doc.
DEFAULT_PREFIXES = (
    "mem.nvm", "mem.channel", "mem.ctrl", "mem.device", "mem.dram",
    "cache.counter", "cache.l1", "cache.l2", "cache.l3", "cache.l4",
    "cache.hierarchy", "core.shredder", "kernel", "cpu", "exec.batch",
    "exec.task", "exec.cache", "obs.events",
)

_BACKTICK_RE = re.compile(r"`([^`]+)`")
_RANGE_RE = re.compile(r"^(?P<head>.*?l)(?P<lo>\d+)\.\.l?(?P<hi>\d+)$")


def _expand_prefix(token: str) -> List[str]:
    """``cache.l1..l4.*`` → ``[cache.l1, cache.l2, cache.l3, cache.l4]``."""
    token = token.strip()
    if token.endswith(".*"):
        token = token[:-2]
    token = token.rstrip(".*")
    if not token:
        return []
    match = _RANGE_RE.match(token)
    if match:
        head = match.group("head")
        low, high = int(match.group("lo")), int(match.group("hi"))
        return [f"{head[:-1]}l{i}" for i in range(low, high + 1)]
    return [token]


def load_documented_prefixes(root: Path) -> Tuple[str, ...]:
    """Parse the namespace table of ``docs/OBSERVABILITY.md``.

    Takes the first (Prefix) cell of every table row and expands its
    backticked, comma-separated entries. Falls back to
    :data:`DEFAULT_PREFIXES` when the doc is missing.
    """
    doc = root / "docs" / "OBSERVABILITY.md"
    if not doc.is_file():
        return DEFAULT_PREFIXES
    prefixes: List[str] = []
    for line in doc.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if not stripped.startswith("|"):
            continue
        cells = stripped.split("|")
        if len(cells) < 3:
            continue
        for span in _BACKTICK_RE.findall(cells[1]):
            for token in span.split(","):
                prefixes.extend(_expand_prefix(token))
    return tuple(prefixes) if prefixes else DEFAULT_PREFIXES


def _allowed(name: str, prefixes: Tuple[str, ...]) -> bool:
    return any(name == prefix or name.startswith(prefix + ".")
               for prefix in prefixes)


def _literal_bindings(tree: ast.Module) -> Dict[str, Set[str]]:
    """Flow-insensitive name → possible literal string values.

    Covers ``for name in ("a.b", "a.c"):`` (including tuple targets
    over tuple-of-tuple literals) and plain ``name = "a.b"``
    assignments. A name also bound to anything non-literal resolves to
    nothing (dropped), so partial knowledge never vouches for a value
    the pass cannot see.
    """
    bindings: Dict[str, Set[str]] = {}
    poisoned: Set[str] = set()

    def _bind(name: str, value: Optional[str]) -> None:
        if value is None:
            poisoned.add(name)
        else:
            bindings.setdefault(name, set()).add(value)

    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)) \
                and isinstance(node.iter, (ast.Tuple, ast.List)):
            if isinstance(node.target, ast.Name):
                for element in node.iter.elts:
                    _bind(node.target.id,
                          element.value
                          if isinstance(element, ast.Constant)
                          and isinstance(element.value, str) else None)
            elif isinstance(node.target, ast.Tuple) \
                    and all(isinstance(t, ast.Name)
                            for t in node.target.elts):
                names = [t.id for t in node.target.elts]
                for element in node.iter.elts:
                    row = element.elts \
                        if isinstance(element, (ast.Tuple, ast.List)) \
                        and len(element.elts) == len(names) else None
                    for position, name in enumerate(names):
                        cell = row[position] if row else None
                        _bind(name,
                              cell.value if isinstance(cell, ast.Constant)
                              and isinstance(cell.value, str) else None)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            _bind(node.targets[0].id,
                  node.value.value if isinstance(node.value, ast.Constant)
                  and isinstance(node.value.value, str) else None)
    for name in poisoned:
        bindings.pop(name, None)
    return bindings


def _fstring_head(node: ast.JoinedStr) -> Optional[str]:
    """The literal prefix of an f-string, up to its last dot."""
    if not node.values or not isinstance(node.values[0], ast.Constant) \
            or not isinstance(node.values[0].value, str):
        return None
    head, dot, _ = node.values[0].value.rpartition(".")
    return head if dot else None


class MetricsNamespacePass(AnalysisPass):
    """Literal metric registrations must sit in the documented tree."""

    name = "metrics"
    codes = {
        "REPRO401": "metric name outside the namespace documented in "
                    "docs/OBSERVABILITY.md",
        "REPRO402": "metric name not statically resolvable (advisory: "
                    "use a literal, a resolvable loop/assignment, or a "
                    "documented-prefix f-string head)",
    }
    scope = ("repro",)
    version = 3
    #: Editing the namespace table must invalidate cached results.
    inputs = ("docs/OBSERVABILITY.md",)

    #: The registry is the plumbing already-validated names flow
    #: through on re-registration; its pass-through calls are exempt.
    exempt_modules = frozenset({"repro.obs.registry"})

    def _prefixes(self, context: AnalysisContext) -> Tuple[str, ...]:
        cached = context.cache.get("metrics.prefixes")
        if cached is None:
            cached = load_documented_prefixes(context.root)
            context.cache["metrics.prefixes"] = cached
        return cached

    def check(self, source: SourceFile,
              context: AnalysisContext) -> Iterator[Tuple[int, str, str]]:
        assert source.tree is not None
        prefixes = self._prefixes(context)
        exempt = source.module in self.exempt_modules
        bindings = None if exempt else _literal_bindings(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _REGISTER_METHODS and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) \
                        and isinstance(first.value, str):
                    if "." in first.value \
                            and not _allowed(first.value, prefixes):
                        yield (node.lineno, "REPRO401",
                               f"metric {first.value!r} is not under any "
                               "documented prefix; extend the namespace "
                               "table in docs/OBSERVABILITY.md or rename")
                elif not exempt:
                    for finding in self._dynamic_name(first, bindings,
                                                      prefixes):
                        yield finding
            for keyword in node.keywords:
                if keyword.arg in _PREFIX_KEYWORDS \
                        and isinstance(keyword.value, ast.Constant) \
                        and isinstance(keyword.value.value, str) \
                        and not _allowed(keyword.value.value, prefixes):
                    yield (keyword.value.lineno, "REPRO401",
                           f"metrics prefix {keyword.value.value!r} is "
                           "not in the documented namespace table")

    @staticmethod
    def _dynamic_name(first: ast.expr,
                      bindings: Dict[str, Set[str]],
                      prefixes: Tuple[str, ...]
                      ) -> Iterator[Tuple[int, str, str]]:
        """Resolve a non-literal metric name, or flag it as REPRO402."""
        if isinstance(first, ast.Name) and first.id in bindings:
            for value in sorted(bindings[first.id]):
                if "." in value and not _allowed(value, prefixes):
                    yield (first.lineno, "REPRO401",
                           f"metric {value!r} (via {first.id!r}) is not "
                           "under any documented prefix; extend the "
                           "namespace table in docs/OBSERVABILITY.md "
                           "or rename")
            return
        if isinstance(first, ast.JoinedStr):
            head = _fstring_head(first)
            if head is not None and _allowed(head, prefixes):
                return
            # f"{prefix}.rest" where every possible value of `prefix`
            # is a resolvable literal: check each as the name's head.
            lead = first.values[0] if first.values else None
            if isinstance(lead, ast.FormattedValue) \
                    and isinstance(lead.value, ast.Name) \
                    and lead.value.id in bindings:
                for value in sorted(bindings[lead.value.id]):
                    if not _allowed(value, prefixes):
                        yield (first.lineno, "REPRO401",
                               f"metric prefix {value!r} (via "
                               f"{lead.value.id!r}) is not under any "
                               "documented prefix; extend the namespace "
                               "table in docs/OBSERVABILITY.md or rename")
                return
            yield (first.lineno, "REPRO402",
                   "f-string metric name without a documented-prefix "
                   "literal head; start the name with a documented "
                   "prefix or register a literal")
            return
        yield (first.lineno, "REPRO402",
               "metric name is not statically resolvable; use a "
               "literal, a loop over literal names, or suppress with "
               "a note on where the name is validated")
