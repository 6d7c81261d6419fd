"""Pluggable execution backends for the experiment runner.

A backend is the *how* of batch execution: given a sequence of
:class:`~repro.exec.Experiment`\\ s it produces one
:class:`~repro.sim.system.SystemReport` per experiment. Everything
else — deduplication, cache consultation, persistence, progress —
stays in :class:`~repro.exec.Runner`, so every backend gets those for
free and swapping backends cannot change *what* a batch means.

The contract (:class:`ExecutionBackend`) is a single generator method::

    submit(experiments, notify=None) -> iterator of (index, report)

yielding ``(index, SystemReport)`` pairs as results complete, in any
order (``index`` is the position within the submitted batch). Yielding
instead of returning lets the runner store results into the persistent
cache and emit progress the moment each one lands, even when a remote
worker finishes out of order. ``notify(label, source)`` is an optional
hook for non-completion events — currently only ``"retry"``, emitted
by :class:`~repro.exec.cluster.ClusterBackend` when the dispatcher
re-queues a task.

Every backend round-trips results through ``SystemReport.to_dict()``
— including the in-process :class:`SerialBackend` — so a batch
produces byte-identical reports whatever executes it.

Implementations:

* :class:`SerialBackend` — in-process, in-order; the reference
  semantics.
* :class:`ForkPoolBackend` — a ``multiprocessing`` fork pool
  (extracted from the original ``Runner`` internals); falls back to
  serial where ``fork`` is unavailable.
* :class:`~repro.exec.cluster.ClusterBackend` — the one
  remote-execution backend: a client of the experiment
  cluster dispatcher, which owns timeouts, retries and re-queueing.
"""

from __future__ import annotations

import abc
import multiprocessing
from typing import (Any, Callable, Dict, Iterator, Optional, Sequence, Tuple,
                    Union)

from ..errors import BackendError
from ..sim.system import SystemReport
from .experiment import Experiment
from .spec import BackendSpec
from .workloads import execute_experiment

#: non-completion event hook: (experiment label, event source)
NotifyFn = Callable[[str, str], None]

#: a network endpoint: ("host", port) or a "host:port" string
Address = Union[Tuple[str, int], str]


def _execute_to_dict(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: run one serialized experiment.

    Takes and returns plain dicts so the function behaves identically
    under every ``multiprocessing`` start method, over the wire, and
    in-process.
    """
    experiment = Experiment.from_dict(payload)
    return execute_experiment(experiment).to_dict()


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The fork start-method context, or ``None`` where unsupported."""
    try:
        if "fork" not in multiprocessing.get_all_start_methods():
            return None
        return multiprocessing.get_context("fork")
    except ValueError:      # pragma: no cover - platform specific
        return None


class ExecutionBackend(abc.ABC):
    """The strategy interface :class:`~repro.exec.Runner` executes through."""

    @abc.abstractmethod
    def submit(self, experiments: Sequence[Experiment], *,
               notify: Optional[NotifyFn] = None,
               ) -> Iterator[Tuple[int, SystemReport]]:
        """Execute a batch, yielding ``(index, report)`` as results land.

        ``index`` is the experiment's position in ``experiments``;
        pairs may arrive in any order but each index appears exactly
        once. Implementations must raise (not swallow) when a task
        cannot be completed, and must release their resources when the
        generator is closed early.
        """

    def describe(self) -> str:
        """A short human-readable label for logs and CLI output."""
        return type(self).__name__

    @classmethod
    def from_spec(cls, spec: Union["ExecutionBackend", BackendSpec, str],
                  ) -> "ExecutionBackend":
        """The backend a spec string / :class:`BackendSpec` describes.

        The one factory behind every entry point: ``"serial"``,
        ``"fork:8"``, ``"cluster://host:7071?keyfile=cluster.key"``
        (grammar in :mod:`repro.exec.spec`). An already-constructed
        backend passes through unchanged, so call sites can accept
        either form.
        """
        if isinstance(spec, ExecutionBackend):
            return spec
        return BackendSpec.coerce(spec).create()


class SerialBackend(ExecutionBackend):
    """In-process, in-order execution — the reference backend.

    Results still round-trip through ``to_dict`` so serial output is
    byte-identical to every other backend's.
    """

    def submit(self, experiments: Sequence[Experiment], *,
               notify: Optional[NotifyFn] = None,
               ) -> Iterator[Tuple[int, SystemReport]]:
        for index, experiment in enumerate(experiments):
            document = _execute_to_dict(experiment.to_dict())
            yield index, SystemReport.from_dict(document)

    def describe(self) -> str:
        return "serial"


class ForkPoolBackend(ExecutionBackend):
    """A ``multiprocessing`` fork pool of ``jobs`` worker processes.

    Where the platform lacks the ``fork`` start method (or the batch
    needs at most one worker) it degrades to serial in-process
    execution — same results either way.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise BackendError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)

    def submit(self, experiments: Sequence[Experiment], *,
               notify: Optional[NotifyFn] = None,
               ) -> Iterator[Tuple[int, SystemReport]]:
        payloads = [experiment.to_dict() for experiment in experiments]
        jobs = min(self.jobs, len(payloads))
        context = _fork_context() if jobs > 1 else None
        if context is None:
            # Serial fallback: one job, or no fork on this platform.
            for index, payload in enumerate(payloads):
                yield index, SystemReport.from_dict(_execute_to_dict(payload))
            return
        with context.Pool(processes=jobs) as pool:
            documents = pool.imap(_execute_to_dict, payloads)
            for index, document in enumerate(documents):
                yield index, SystemReport.from_dict(document)

    def describe(self) -> str:
        return f"fork-pool({self.jobs})"


def parse_address(value: Address) -> Tuple[str, int]:
    """Normalise ``"host:port"`` / ``("host", port)`` to a tuple."""
    if isinstance(value, str):
        host, separator, port_text = value.rpartition(":")
        if not separator or not host:
            raise BackendError(
                f"address must look like 'host:port', got {value!r}")
        try:
            return host, int(port_text)
        except ValueError:
            raise BackendError(f"bad port in address {value!r}")
    host, port = value
    return str(host), int(port)


def resolve_backend(jobs: int = 1,
                    backend: Optional[Union[ExecutionBackend, BackendSpec,
                                            str]] = None,
                    ) -> ExecutionBackend:
    """The backend a ``Runner(jobs=..., backend=...)`` call means.

    An explicit ``backend`` wins (and is incompatible with ``jobs >
    1`` — the two would contradict each other); it may be an
    :class:`ExecutionBackend` instance, a :class:`BackendSpec`, or a
    spec string like ``"fork:8"`` or ``"cluster://host:7071"``.
    Otherwise ``jobs`` picks serial or a fork pool, preserving the
    original ``Runner`` behaviour.
    """
    if backend is not None:
        if isinstance(backend, (str, BackendSpec)):
            backend = ExecutionBackend.from_spec(backend)
        if not isinstance(backend, ExecutionBackend):
            raise BackendError(
                f"backend must be an ExecutionBackend or spec string, "
                f"got {type(backend).__name__}")
        if jobs != 1:
            raise BackendError(
                "pass either jobs=N or backend=..., not both")
        return backend
    if jobs < 1:
        raise BackendError(f"jobs must be >= 1, got {jobs}")
    return SerialBackend() if jobs == 1 else ForkPoolBackend(jobs)
