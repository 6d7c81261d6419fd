"""The static-analysis engine: sources, suppressions, passes, runs.

The ``repro.exec``/``repro.obs`` stack rests on invariants no runtime
check can enforce cheaply — results must be deterministic so the
content-addressed cache stays sound, the import graph must stay
acyclic, and only the shred path may produce the reserved minor
counter value. This module turns those rules into a dependency-free
AST analyzer: each file is read and parsed **once** into a
:class:`SourceFile`, every registered :class:`AnalysisPass` walks that
shared tree, and violations come back as ``REPRO###``-coded records
that the reporters render as ``path:line: code message`` text (clickable
in editors and CI logs), JSON, or SARIF.

Two pass shapes exist. Per-file passes (:class:`AnalysisPass`) see one
:class:`SourceFile` at a time. Project passes (:class:`ProjectPass`)
see the whole analyzed file set at once and build on the dataflow
toolkit (symbol table and call graph in
:mod:`repro.lint.project`, CFG and reaching definitions in
:mod:`repro.lint.cfg`) — that is how the taint family reasons
across files.

Every run is cold: it parses every file, runs every pass, reports
every finding and writes no file.

Suppressions are line-level comments with a *required* justification::

    value = time.time()  # repro: suppress REPRO101 -- wall clock is the point here

A suppression without a justification (or without a valid code) is
itself a violation (``REPRO010``), and a suppression that matches no
finding is flagged as stale (``REPRO011``) so exemptions cannot
outlive the code they excused. A suppression on any physical line of a
multi-line statement also covers the statement's first line, where
AST-anchored findings land.

Entry points: ``repro analyze`` (CLI) and ``tools/analyze.py`` (CI).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple, Union)

#: Directories searched when ``Analyzer.run`` is given no paths.
DEFAULT_ROOTS = ("src", "tests", "benchmarks", "tools")

#: Path fragments excluded from default runs. The analysis fixtures are
#: intentionally-bad files; analyzing them would defeat their purpose.
DEFAULT_EXCLUDES = ("tests/fixtures/analysis",)

#: Rule code shape: three-digit codes in the REPRO namespace.
CODE_RE = re.compile(r"^REPRO\d{3}$")

#: The suppression comment grammar. Everything after ``suppress`` up to
#: ``--`` is a comma/space-separated code list; the justification after
#: ``--`` is mandatory.
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*suppress\b(?P<rest>.*)$")

#: Code of the engine-level "malformed suppression" rule.
CODE_BAD_SUPPRESSION = "REPRO010"

#: Code of the engine-level "stale suppression" rule: the comment
#: matched no finding in this run, so it no longer excuses anything.
CODE_UNUSED_SUPPRESSION = "REPRO011"

#: Code of the "file does not parse" rule (shared with the format pass
#: family, which documents it).
CODE_SYNTAX_ERROR = "REPRO001"


@dataclass(frozen=True)
class Violation:
    """One rule violation at one source line."""

    path: str
    line: int
    code: str
    message: str
    pass_name: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {"path": self.path, "line": self.line, "code": self.code,
                "message": self.message, "pass": self.pass_name}

    @property
    def sort_key(self) -> Tuple[str, int, str]:
        return (self.path, self.line, self.code)


@dataclass(frozen=True)
class SuppressionComment:
    """One parsed ``# repro: suppress`` comment.

    ``line`` is the physical line of the comment; ``lines`` is every
    line the suppression covers (the comment's line, plus the first
    line of the enclosing logical statement when the comment sits on a
    continuation line).
    """

    line: int
    codes: frozenset
    lines: Tuple[int, ...]
    justification: str


def module_name(path: Union[str, Path], root: Union[str, Path]) -> str:
    """The dotted module a file would import as, relative to ``root``.

    A ``src`` path component resets the package root (``src/repro/x.py``
    is module ``repro.x`` whichever directory the analyzer rooted at),
    and ``__init__`` maps to its package.
    """
    path = Path(path)
    try:
        rel = path.resolve().relative_to(Path(root).resolve())
    except ValueError:
        rel = path
    parts = list(rel.with_suffix("").parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _comments(text: str) -> Iterator[Tuple[int, str, Optional[int]]]:
    """(line, comment text, logical-statement start line) per comment.

    Tokenizing (rather than regexing lines) keeps suppression syntax
    inside string literals and docstrings from being parsed as live
    suppressions, and lets a comment on a *continuation* line know
    which line its logical statement started on. Unparsable files
    yield whatever tokenized cleanly.
    """
    statement_start: Optional[int] = None
    skip = (tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER)
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string, statement_start
            elif token.type == tokenize.NEWLINE:
                statement_start = None
            elif token.type in skip:
                continue
            elif statement_start is None:
                statement_start = token.start[0]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return


def parse_suppressions(text: str) -> Tuple[
        Dict[int, Set[str]], List[Tuple[int, str]],
        List[SuppressionComment]]:
    """Extract per-line suppressed codes, malformed-comment problems,
    and the parsed comment records (for stale-suppression tracking).

    Text without ``repro:`` cannot hold a suppression (see
    ``_SUPPRESS_RE``) and is not tokenized.
    """
    suppressed: Dict[int, Set[str]] = {}
    problems: List[Tuple[int, str]] = []
    comments: List[SuppressionComment] = []
    if "repro:" not in text:
        return suppressed, problems, comments
    for number, comment, statement_start in _comments(text):
        match = _SUPPRESS_RE.search(comment)
        if match is None:
            continue
        rest = match.group("rest").strip()
        codes_part, separator, justification = rest.partition("--")
        codes = {token for token in re.split(r"[,\s]+", codes_part.strip())
                 if token}
        bad = sorted(code for code in codes if not CODE_RE.match(code))
        if not codes:
            problems.append((number, "suppression names no rule codes"))
            continue
        if bad:
            problems.append(
                (number, f"suppression names unknown-looking codes {bad}; "
                         "use REPRO### codes"))
            continue
        if not separator or not justification.strip():
            problems.append(
                (number, "suppression lacks a justification; write "
                         "'# repro: suppress REPRO### -- why this is ok'"))
            continue
        covered = {number}
        if statement_start is not None:
            covered.add(statement_start)
        for line in covered:
            suppressed.setdefault(line, set()).update(codes)
        comments.append(SuppressionComment(
            line=number, codes=frozenset(codes),
            lines=tuple(sorted(covered)),
            justification=justification.strip()))
    return suppressed, problems, comments


class SourceFile:
    """One analyzed file: text, lines, module name, and a single AST."""

    def __init__(self, path: Union[str, Path],
                 root: Union[str, Path]) -> None:
        self.path = Path(path)
        self.root = Path(root)
        try:
            self.display = str(self.path.resolve().relative_to(
                self.root.resolve()))
        except ValueError:
            self.display = str(self.path)
        raw = self.path.read_bytes()
        text = raw.decode("utf-8")
        self.ends_with_newline = (not raw) or raw.endswith(b"\n")
        self.text = text
        self.lines = text.splitlines()
        self.module = module_name(self.path, self.root)
        self.is_package = self.path.name == "__init__.py"
        self.tree: Optional[ast.Module] = None
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(text, filename=str(self.path))
        except SyntaxError as error:
            self.syntax_error = error
        self.suppressions, self.suppression_problems, \
            self.suppression_comments = parse_suppressions(text)

    def is_suppressed(self, line: int, code: str) -> bool:
        return code in self.suppressions.get(line, ())


@dataclass
class AnalysisContext:
    """Run-wide state shared by every pass.

    ``root`` locates repo-level resources (e.g. the documented metric
    namespace in ``docs/OBSERVABILITY.md``); ``cache`` lets passes
    memoise expensive lookups across files (including the shared
    :class:`~repro.lint.project.ProjectModel`).
    """

    root: Path
    cache: Dict[str, Any] = field(default_factory=dict)


class AnalysisPass:
    """Base class: one family of related rules sharing a tree walk.

    Subclasses declare a ``name``, a ``codes`` catalog (code → one-line
    rule description), and a ``scope`` of dotted module prefixes the
    pass applies to (empty = every file). :meth:`check` yields
    ``(line, code, message)`` triples; the engine attaches path and
    pass name and applies suppressions.
    """

    name = "abstract"
    codes: Dict[str, str] = {}
    scope: Tuple[str, ...] = ()
    requires_ast = True
    project = False

    def applies_to(self, source: SourceFile) -> bool:
        if not self.scope:
            return True
        module = source.module
        return any(module == prefix or module.startswith(prefix + ".")
                   for prefix in self.scope)

    def check(self, source: SourceFile,
              context: AnalysisContext) -> Iterator[Tuple[int, str, str]]:
        raise NotImplementedError


class ProjectPass(AnalysisPass):
    """A pass that sees every in-scope file of the run at once.

    :meth:`check_project` receives the full applicable
    :class:`SourceFile` list and yields
    ``(source, line, code, message)`` — one extra element compared to
    per-file passes, because a project finding can land in any file.
    """

    project = True

    def check(self, source: SourceFile,
              context: AnalysisContext) -> Iterator[Tuple[int, str, str]]:
        raise NotImplementedError("project passes implement check_project")

    def check_project(self, sources: Sequence[SourceFile],
                      context: AnalysisContext
                      ) -> Iterator[Tuple[SourceFile, int, str, str]]:
        raise NotImplementedError


@dataclass
class AnalysisReport:
    """Outcome of one analyzer run."""

    root: str
    files_checked: int = 0
    violations: List[Violation] = field(default_factory=list)
    suppressed: int = 0

    @property
    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for violation in self.violations:
            tally[violation.code] = tally.get(violation.code, 0) + 1
        return dict(sorted(tally.items()))

    @property
    def ok(self) -> bool:
        return not self.violations


def _split_codes(value: Union[None, str, Iterable[str]]) -> Optional[Set[str]]:
    if value is None:
        return None
    if isinstance(value, str):
        value = re.split(r"[,\s]+", value.strip())
    codes = {token for token in value if token}
    return codes or None


class Analyzer:
    """Runs a set of passes over a file tree, one parse per file."""

    def __init__(self, root: Union[str, Path] = ".", *,
                 passes: Optional[Sequence[AnalysisPass]] = None,
                 select: Union[None, str, Iterable[str]] = None,
                 ignore: Union[None, str, Iterable[str]] = None,
                 exclude: Sequence[str] = DEFAULT_EXCLUDES) -> None:
        if passes is None:
            from .passes import builtin_passes
            passes = builtin_passes()
        self.root = Path(root)
        self.passes = list(passes)
        self.select = _split_codes(select)
        self.ignore = _split_codes(ignore) or set()
        self.exclude = tuple(exclude)

    # -- file discovery ------------------------------------------------------

    def _excluded(self, path: Path) -> bool:
        posix = path.as_posix()
        return any(fragment in posix for fragment in self.exclude)

    def python_files(self,
                     paths: Optional[Sequence[Union[str, Path]]] = None
                     ) -> Iterator[Path]:
        if paths is None:
            paths = [self.root / name for name in DEFAULT_ROOTS]
        for entry in paths:
            entry = Path(entry)
            if not entry.is_absolute() and not entry.exists():
                entry = self.root / entry
            if entry.is_file() and entry.suffix == ".py":
                # Explicitly named files bypass the excludes: exclusion
                # keeps intentionally-bad fixtures out of tree walks,
                # not out of a user's deliberate reach.
                yield entry
            elif entry.is_dir():
                for found in sorted(entry.rglob("*.py")):
                    if not self._excluded(found):
                        yield found

    def source_files(self,
                     paths: Optional[Sequence[Union[str, Path]]] = None
                     ) -> List[SourceFile]:
        """The parsed :class:`SourceFile` set a run analyzes: one per
        distinct display path, in discovery order."""
        sources: Dict[str, SourceFile] = {}
        for path in self.python_files(paths):
            source = SourceFile(path, self.root)
            sources.setdefault(source.display, source)
        return list(sources.values())

    # -- rule filtering ------------------------------------------------------

    def _wanted(self, code: str) -> bool:
        if code in self.ignore:
            return False
        return self.select is None or code in self.select

    # -- the run -------------------------------------------------------------

    def run(self, paths: Optional[Sequence[Union[str, Path]]] = None
            ) -> AnalysisReport:
        context = AnalysisContext(root=self.root)
        report = AnalysisReport(root=str(self.root))
        sources = self.source_files(paths)

        # Every emission goes through filtering + suppression, and
        # ``used`` tracks which suppression comments actually fired.
        used: Set[Tuple[str, int]] = set()

        def emit(source: SourceFile, line: int, code: str, message: str,
                 pass_name: str) -> None:
            if not self._wanted(code):
                return
            if source.is_suppressed(line, code):
                report.suppressed += 1
                for comment in source.suppression_comments:
                    if line in comment.lines and code in comment.codes:
                        used.add((source.display, comment.line))
                return
            report.violations.append(Violation(
                path=source.display, line=line, code=code,
                message=message, pass_name=pass_name))

        per_file = [p for p in self.passes if not p.project]
        project_passes = [p for p in self.passes if p.project]
        for source in sources:
            report.files_checked += 1
            for line, code, message, pass_name in \
                    self._per_file_emissions(source, per_file, context):
                emit(source, line, code, message, pass_name)
        for analysis_pass in project_passes:
            applicable = [
                source for source in sources
                if analysis_pass.applies_to(source)
                and (source.tree is not None
                     or not analysis_pass.requires_ast)]
            for source, line, code, message in \
                    analysis_pass.check_project(applicable, context):
                emit(source, line, code, message, analysis_pass.name)

        # Stale suppressions: only meaningful when every rule ran.
        if self.select is None:
            for source in sources:
                for comment in source.suppression_comments:
                    if (source.display, comment.line) in used:
                        continue
                    if CODE_UNUSED_SUPPRESSION in comment.codes:
                        continue
                    if comment.codes <= self.ignore:
                        continue
                    emit(source, comment.line, CODE_UNUSED_SUPPRESSION,
                         "suppression for "
                         f"{', '.join(sorted(comment.codes))} matched no "
                         "finding; remove the stale comment", "suppress")

        report.violations.sort(key=lambda violation: violation.sort_key)
        return report

    def _per_file_emissions(self, source: SourceFile,
                            passes: Sequence[AnalysisPass],
                            context: AnalysisContext
                            ) -> Iterator[Tuple[int, str, str, str]]:
        for line, message in source.suppression_problems:
            yield line, CODE_BAD_SUPPRESSION, message, "suppress"
        if source.syntax_error is not None:
            yield (source.syntax_error.lineno or 0, CODE_SYNTAX_ERROR,
                   f"syntax error: {source.syntax_error.msg}", "format")
        for analysis_pass in passes:
            if not analysis_pass.applies_to(source):
                continue
            if analysis_pass.requires_ast and source.tree is None:
                continue
            for line, code, message in analysis_pass.check(source, context):
                yield line, code, message, analysis_pass.name
