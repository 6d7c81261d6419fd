"""BackendSpec: one parseable grammar for every execution backend.

Before this module, choosing a backend meant wiring a constructor by
hand in every entry point (``SerialBackend()``, ``ForkPoolBackend(8)``,
``ClusterBackend(...)``). :class:`BackendSpec` replaces that with a
small spec-string grammar shared by the library API
(:meth:`ExecutionBackend.from_spec <repro.exec.ExecutionBackend>`,
``Runner(backend="fork:8")``) and the CLI (``--backend``)::

    serial                          in-process reference execution
    fork                            fork pool, one job per CPU
    fork:8                          fork pool with 8 jobs
    cluster://host:7071             shared experiment cluster client
    cluster://host:7071?keyfile=cluster.key&frame_timeout=900

Options after ``?`` are URL-style ``key=value`` pairs; ``cluster://``
accepts ``keyfile`` (HMAC frame auth; see ``docs/SERVICE.md``) and
``frame_timeout`` (seconds to wait for each dispatcher frame), and any
other key raises a :class:`~repro.errors.BackendError` rather than
being ignored.

The retired ``dist://`` scheme (a fixed list of listening workers)
raises a :class:`~repro.errors.BackendError` that spells out its
cluster replacement.

The dataclass is frozen and hashable, so a spec can key a cache or sit
in an :class:`~repro.exec.Experiment`-style config without ceremony;
:meth:`BackendSpec.create` instantiates the actual backend.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl

from ..errors import BackendError

#: Spec kinds understood by :meth:`BackendSpec.parse`.
KINDS = ("serial", "fork", "cluster")

#: The options a ``cluster://`` spec accepts.
CLUSTER_OPTIONS = ("keyfile", "frame_timeout")


def _default_jobs() -> int:
    try:
        return multiprocessing.cpu_count()
    except NotImplementedError:     # pragma: no cover - exotic platforms
        return 2


@dataclass(frozen=True)
class BackendSpec:
    """A frozen, hashable description of an execution backend.

    ``options`` is a tuple of ``(key, value)`` string pairs (not a
    dict) to keep the dataclass hashable; use :meth:`option` to read
    one.
    """

    kind: str
    jobs: int = 1
    addresses: Tuple[str, ...] = ()
    options: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise BackendError(
                f"unknown backend kind {self.kind!r}; expected one of "
                f"{', '.join(KINDS)}")
        if self.jobs < 1:
            raise BackendError(f"jobs must be >= 1, got {self.jobs}")
        unknown = sorted({key for key, _ in self.options}
                         - set(CLUSTER_OPTIONS))
        if unknown:
            raise BackendError(
                f"unknown backend option(s) {', '.join(unknown)}; "
                f"cluster:// accepts only {', '.join(CLUSTER_OPTIONS)}")

    # -- parsing ------------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "BackendSpec":
        """Parse a spec string (see the module docstring for grammar)."""
        if not isinstance(text, str) or not text.strip():
            raise BackendError(f"empty backend spec: {text!r}")
        text = text.strip()
        scheme, separator, rest = text.partition("://")
        if separator:
            return cls._parse_url(scheme.lower(), rest, text)
        name, separator, argument = text.partition(":")
        name = name.lower()
        if name == "serial":
            if separator:
                raise BackendError(
                    f"'serial' takes no argument, got {text!r}")
            return cls(kind="serial")
        if name == "fork":
            if not separator or not argument:
                return cls(kind="fork", jobs=_default_jobs())
            try:
                jobs = int(argument)
            except ValueError:
                raise BackendError(
                    f"fork spec wants 'fork:<jobs>', got {text!r}")
            return cls(kind="fork", jobs=jobs)
        raise BackendError(
            f"cannot parse backend spec {text!r}; expected 'serial', "
            f"'fork[:N]' or 'cluster://host:port'")

    @classmethod
    def _parse_url(cls, scheme: str, rest: str, text: str) -> "BackendSpec":
        if scheme in ("dist", "distributed"):
            raise BackendError(
                f"{text!r}: the dist:// backend was retired in favour of "
                f"the experiment cluster: run 'repro cluster serve', start "
                f"each worker with 'repro worker serve --register "
                f"HOST:PORT', and use cluster://HOST:PORT "
                f"(see docs/SERVICE.md)")
        if scheme != "cluster":
            raise BackendError(
                f"unknown backend scheme {scheme!r} in {text!r}; "
                f"expected cluster://")
        hosts, _, query = rest.partition("?")
        addresses = tuple(part.strip() for part in hosts.split(",")
                          if part.strip())
        if not addresses:
            raise BackendError(f"backend spec {text!r} names no endpoint")
        if len(addresses) != 1:
            raise BackendError(
                f"cluster:// takes exactly one dispatcher endpoint, "
                f"got {len(addresses)} in {text!r}")
        host, separator, port = addresses[0].rpartition(":")
        if not separator or not host or not port.isdigit():
            raise BackendError(
                f"bad endpoint {addresses[0]!r} in backend spec {text!r}; "
                f"expected host:port")
        options = tuple(sorted(parse_qsl(query, keep_blank_values=True)))
        return cls(kind="cluster", addresses=addresses, options=options)

    @classmethod
    def coerce(cls, value: "SpecLike") -> "BackendSpec":
        """A :class:`BackendSpec` from a spec, string, or None (serial)."""
        if value is None:
            return cls(kind="serial")
        if isinstance(value, cls):
            return value
        return cls.parse(value)

    # -- accessors ----------------------------------------------------------------

    def option(self, key: str, default: Optional[str] = None,
               ) -> Optional[str]:
        for name, value in self.options:
            if name == key:
                return value
        return default

    def _float_option(self, key: str) -> Optional[float]:
        raw = self.option(key)
        if raw is None:
            return None
        try:
            return float(raw)
        except ValueError:
            raise BackendError(
                f"backend option {key}={raw!r} is not a number")

    def describe(self) -> str:
        """The canonical spec string this spec round-trips to."""
        if self.kind == "serial":
            return "serial"
        if self.kind == "fork":
            return f"fork:{self.jobs}"
        query = "&".join(f"{key}={value}" for key, value in self.options)
        suffix = f"?{query}" if query else ""
        return f"{self.kind}://{','.join(self.addresses)}{suffix}"

    # -- instantiation ------------------------------------------------------------

    def create(self) -> Any:
        """Instantiate the backend this spec describes."""
        # Same-package imports, deferred only to break the
        # spec <-> backends module cycle.
        from .backends import ForkPoolBackend, SerialBackend
        if self.kind == "serial":
            return SerialBackend()
        if self.kind == "fork":
            return ForkPoolBackend(self.jobs)
        from .cluster import ClusterBackend
        kwargs: Dict[str, Any] = {}
        keyfile = self.option("keyfile")
        if keyfile is not None:
            kwargs["keyfile"] = keyfile
        timeout = self._float_option("frame_timeout")
        if timeout is not None:
            kwargs["frame_timeout"] = timeout
        return ClusterBackend(self.addresses[0], **kwargs)


#: Anything :meth:`BackendSpec.coerce` accepts.
SpecLike = Optional[Any]
