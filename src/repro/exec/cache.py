"""Persistent, content-addressed cache of experiment results.

Each entry is one JSON file named after the cache key — the SHA-256 of
the experiment's content hash combined with a *code version salt* — so
re-running an unchanged experiment against unchanged simulator code is
a file read, while any change to the experiment spec or to the
``repro`` sources silently invalidates every stale entry (the key
simply never matches again).

Layout, in priority order:

* an explicit ``directory`` argument,
* ``$REPRO_CACHE_DIR``,
* a repo-local ``.repro-cache/`` when the working directory looks like
  a checkout (has ``pyproject.toml`` or ``.git``),
* ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``).

Corrupted entries (truncated writes, malformed JSON, foreign files) are
treated as misses and deleted; they never crash a run. Writes are
atomic (tempfile + ``os.replace``) so parallel runners can share one
directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from ..sim.system import SystemReport
from .experiment import Experiment

_FORMAT = 1

_salt_cache: Optional[str] = None


def code_version_salt() -> str:
    """A digest of the installed ``repro`` sources (plus version).

    Any edit to the simulator's Python files changes the salt, so cached
    results can never outlive the code that produced them. Computed once
    per process.
    """
    global _salt_cache
    if _salt_cache is None:
        from .. import __version__  # repro: suppress REPRO203 -- salt needs the package version
        digest = hashlib.sha256(__version__.encode("utf-8"))
        package_root = Path(__file__).resolve().parent.parent
        try:
            sources = sorted(package_root.rglob("*.py"))
            for source in sources:
                digest.update(str(source.relative_to(package_root)).encode())
                digest.update(source.read_bytes())
        except OSError:
            pass    # unreadable tree: fall back to the version alone
        _salt_cache = digest.hexdigest()
    return _salt_cache


def default_cache_dir() -> Path:
    """Resolve the cache directory from the environment (see module doc)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    cwd = Path.cwd()
    if (cwd / "pyproject.toml").exists() or (cwd / ".git").exists():
        return cwd / ".repro-cache"
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


@dataclass
class SweepResult:
    """Outcome of one :meth:`ResultCache.sweep` pass."""

    examined: int = 0
    removed: int = 0
    kept: int = 0
    bytes_removed: int = 0
    bytes_kept: int = 0

    def describe(self) -> str:
        return (f"swept {self.removed} of {self.examined} entries "
                f"({self.bytes_removed} bytes freed, "
                f"{self.kept} entries / {self.bytes_kept} bytes kept)")


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache` instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt_entries: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits


class ResultCache:
    """Two-layer (memory + disk) content-addressed result store."""

    def __init__(self, directory: Optional[Union[str, Path]] = None, *,
                 salt: Optional[str] = None) -> None:
        self.directory = Path(directory) if directory is not None \
            else default_cache_dir()
        self.salt = salt if salt is not None else code_version_salt()
        self.stats = CacheStats()
        self._memory: Dict[str, SystemReport] = {}

    def bind_metrics(self, registry, *, prefix: str = "exec.cache") -> None:
        """Mirror this cache's :class:`CacheStats` into a
        :class:`~repro.obs.MetricsRegistry` under ``prefix``.

        Registered as a pull collector, so the counters are current at
        every ``registry.snapshot()`` without touching the lookup hot
        path. ``CacheStats`` stays the source of truth.
        """
        stats = self.stats

        def _collect(registry) -> None:
            for name, value in (
                    ("memory_hits", stats.memory_hits),
                    ("disk_hits", stats.disk_hits),
                    ("hits", stats.hits),
                    ("misses", stats.misses),
                    ("stores", stats.stores),
                    ("corrupt_entries", stats.corrupt_entries),
            ):
                registry.counter(
                    f"{prefix}.{name}",  # repro: suppress REPRO402 -- prefix is caller-checked
                    unit="ops").set_total(value)

        registry.register_collector(_collect)

    # -- keys ---------------------------------------------------------------------

    def key(self, experiment: Experiment) -> str:
        """Cache key: experiment content hash salted by the code version."""
        payload = f"{experiment.content_hash()}:{self.salt}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path(self, experiment: Experiment) -> Path:
        return self.directory / f"{self.key(experiment)}.json"

    # -- lookup / store -----------------------------------------------------------

    def get(self, experiment: Experiment) -> Optional[SystemReport]:
        """The cached report, or ``None`` on miss (or corrupt entry)."""
        key = self.key(experiment)
        if key in self._memory:
            self.stats.memory_hits += 1
            return self._memory[key]
        path = self.directory / f"{key}.json"
        try:
            document = json.loads(path.read_text())
            if document.get("format") != _FORMAT:
                raise ValueError(f"unsupported cache format "
                                 f"{document.get('format')!r}")
            report = SystemReport.from_dict(document["result"])
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Malformed entry: drop it and fall back to re-running.
            self.stats.corrupt_entries += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.disk_hits += 1
        self._memory[key] = report
        return report

    def put(self, experiment: Experiment, report: SystemReport) -> None:
        """Store a result in both layers (atomic on disk)."""
        key = self.key(experiment)
        self._memory[key] = report
        self.directory.mkdir(parents=True, exist_ok=True)
        document = {
            "format": _FORMAT,
            "salt": self.salt,
            "experiment": experiment.to_dict(),
            "result": report.to_dict(),
        }
        handle, temp_path = tempfile.mkstemp(dir=str(self.directory),
                                             suffix=".tmp")
        try:
            with os.fdopen(handle, "w") as stream:
                json.dump(document, stream, sort_keys=True)
            os.replace(temp_path, self.directory / f"{key}.json")
        except OSError:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    # -- invalidation -------------------------------------------------------------

    def invalidate(self, experiment: Optional[Experiment] = None) -> None:
        """Drop one experiment's entry, or every entry when ``None``."""
        if experiment is None:
            self.clear()
            return
        self._memory.pop(self.key(experiment), None)
        try:
            self.path(experiment).unlink()
        except OSError:
            pass

    def clear(self) -> None:
        """Remove every entry from both layers."""
        self.clear_memory()
        for path in self._entry_paths():
            try:
                path.unlink()
            except OSError:
                pass

    def clear_memory(self) -> None:
        """Drop the in-process layer only (disk entries survive)."""
        self._memory.clear()

    def sweep(self, *, max_bytes: Optional[int] = None,
              max_age_days: Optional[float] = None,
              now: Optional[float] = None) -> SweepResult:
        """LRU eviction: bound the on-disk store by size and/or age.

        Entries are ranked by file mtime (a disk hit is not a touch —
        mtime tracks *production* time, which for deterministic
        experiment results is the honest recency signal). Newest
        entries are kept while the running total stays within
        ``max_bytes`` and the entry is younger than ``max_age_days``;
        everything older/larger is deleted from both layers. With no
        bounds given the sweep only reports sizes.

        Returns a :class:`SweepResult`; racing deletions by concurrent
        runners are tolerated.
        """
        import time as _time
        reference = _time.time() if now is None else float(now)
        cutoff = None if max_age_days is None \
            else reference - float(max_age_days) * 86400.0
        entries = []
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue        # raced with another process: skip
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort(key=lambda entry: entry[0], reverse=True)

        result = SweepResult(examined=len(entries))
        kept_bytes = 0
        for mtime, size, path in entries:
            keep = True
            if cutoff is not None and mtime < cutoff:
                keep = False
            if max_bytes is not None and kept_bytes + size > max_bytes:
                keep = False
            if keep:
                kept_bytes += size
                result.kept += 1
                continue
            try:
                path.unlink()
            except OSError:
                continue        # already gone: someone else swept it
            self._memory.pop(path.stem, None)
            result.removed += 1
            result.bytes_removed += size
        result.bytes_kept = kept_bytes
        return result

    # -- introspection ------------------------------------------------------------

    def _entry_paths(self) -> Iterator[Path]:
        if not self.directory.is_dir():
            return iter(())
        return iter(sorted(self.directory.glob("*.json")))

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def __contains__(self, experiment: Experiment) -> bool:
        return (self.key(experiment) in self._memory
                or self.path(experiment).exists())


_default_cache: Optional[ResultCache] = None


def default_cache() -> ResultCache:
    """The process-wide shared cache (re-resolved if the target
    directory changes, e.g. when ``$REPRO_CACHE_DIR`` is updated)."""
    global _default_cache
    directory = default_cache_dir()
    if _default_cache is None or _default_cache.directory != directory:
        _default_cache = ResultCache(directory)
    return _default_cache
