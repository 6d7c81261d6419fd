"""The experiment runner: batch orchestration over pluggable backends.

A :class:`Runner` executes a batch of :class:`Experiment`\\ s: it
deduplicates the batch by content hash, serves whatever the persistent
cache already holds, hands the remainder to an
:class:`~repro.exec.backends.ExecutionBackend` (serial, fork pool, or
an experiment cluster), and stores fresh results back into the
cache. Cache consultation lives *here*, above the backend seam, so
every backend gets dedupe and persistence for free.

Results cross every execution boundary as ``SystemReport.to_dict()``
payloads — including the in-process serial path — so a batch produces
byte-identical reports whatever backend runs it.

Progress is reported through :class:`ProgressEvent` values carrying
``completed``, ``total``, ``label`` and a ``source`` telling where the
event came from (``"cache"`` hit, ``"worker"`` completion, or a
cluster ``"retry"``); a progress callback takes that one event.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Union

from ..errors import ExperimentError
from ..obs import DEFAULT_DURATION_BUCKETS_NS, MetricsRegistry, span
from ..sim.system import SystemReport
from .backends import ExecutionBackend, resolve_backend
from .cache import ResultCache, default_cache
from .experiment import Experiment

#: where a progress event originated
PROGRESS_SOURCES = ("cache", "worker", "retry")


@dataclass(frozen=True)
class ProgressEvent:
    """One progress notification from a :class:`Runner` batch.

    ``completed``/``total`` count *unique* experiments (duplicates in
    the submitted batch collapse to one). ``source`` is ``"cache"``
    when the result came from the persistent cache, ``"worker"`` when
    a backend finished executing it, and ``"retry"`` when the
    cluster dispatcher re-queued the task — retry events do not
    advance ``completed``.
    """

    completed: int
    total: int
    label: str
    source: str = "worker"

    def __post_init__(self) -> None:
        if self.source not in PROGRESS_SOURCES:
            raise ExperimentError(
                f"unknown progress source {self.source!r}; "
                f"expected one of {PROGRESS_SOURCES}")


#: progress callback: one ProgressEvent argument
ProgressEventFn = Callable[[ProgressEvent], None]


def _check_progress(progress: Optional[ProgressEventFn]) -> None:
    """Reject, before a batch burns simulation time, a callback that
    cannot take exactly one positional :class:`ProgressEvent`."""
    if progress is None:
        return
    try:
        inspect.signature(progress).bind(None)
    except ValueError:      # a builtin without a signature: fails on use
        return
    except TypeError as error:
        raise ExperimentError(
            f"progress callback must take one ProgressEvent argument; "
            f"{progress!r} cannot: {error}") from None


class Runner:
    """Executes experiment batches with caching over a pluggable backend.

    Parameters
    ----------
    jobs:
        Worker process count. ``1`` (the default) runs in-process;
        ``N > 1`` uses a local fork pool. Shorthand for the matching
        ``backend``.
    backend:
        An explicit :class:`~repro.exec.ExecutionBackend` instance, a
        :class:`~repro.exec.BackendSpec`, or a spec string such as
        ``"serial"``, ``"fork:8"`` or ``"cluster://host:7071"``
        (grammar in :mod:`repro.exec.spec`). Mutually exclusive with
        ``jobs > 1``.
    cache:
        The :class:`ResultCache` to consult/populate; defaults to the
        shared :func:`default_cache`. Ignored when ``use_cache`` is
        false.
    use_cache:
        When false, every experiment re-runs and nothing is persisted.
    progress:
        Optional callback receiving :class:`ProgressEvent` values.
        Completion events (``"cache"``/``"worker"``) fire once per
        unique experiment; ``"retry"`` events may fire any number of
        times. A callable that cannot take exactly one positional
        argument raises :class:`~repro.errors.ExperimentError` here.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` accumulating batch
        telemetry: process-local ``exec.batch.*`` / ``exec.cache.*`` /
        ``exec.task.*`` counters, plus every completed report's
        embedded simulation metrics merged in. Defaults to a private
        registry, exposed as ``runner.metrics``.
    """

    def __init__(self, jobs: int = 1, *,
                 backend: Optional[Union[ExecutionBackend, str]] = None,
                 cache: Optional[ResultCache] = None,
                 use_cache: bool = True,
                 progress: Optional[ProgressEventFn] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.backend = resolve_backend(jobs, backend)
        self.jobs = int(jobs)
        self.cache: Optional[ResultCache] = None
        if use_cache:
            self.cache = cache if cache is not None else default_cache()
        _check_progress(progress)
        self.progress = progress
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if self.cache is not None:
            self.cache.bind_metrics(self.metrics, prefix="exec.cache")
        self._m_runs = self.metrics.counter("exec.batch.runs", unit="ops")
        self._m_experiments = self.metrics.counter(
            "exec.batch.experiments", unit="ops")
        self._m_unique = self.metrics.counter("exec.batch.unique", unit="ops")
        self._m_completed = self.metrics.counter(
            "exec.task.completed", unit="ops")
        self._m_retries = self.metrics.counter("exec.task.retries", unit="ops")
        self._m_task_duration = self.metrics.histogram(
            "exec.task.duration_ns", unit="ns",
            buckets=DEFAULT_DURATION_BUCKETS_NS)

    # -- public API ---------------------------------------------------------------

    def run(self, experiments: Iterable[Experiment]) -> List[SystemReport]:
        """Execute a batch, returning one report per experiment, in order.

        Duplicate experiments (same content hash) execute once and share
        the resulting report object.
        """
        batch = list(experiments)
        for experiment in batch:
            if not isinstance(experiment, Experiment):
                raise ExperimentError(
                    f"Runner.run expects Experiment instances, "
                    f"got {type(experiment).__name__}")
        order = [experiment.content_hash() for experiment in batch]
        unique: Dict[str, Experiment] = {}
        for experiment, digest in zip(batch, order):
            unique.setdefault(digest, experiment)

        self._m_runs.inc()
        self._m_experiments.inc(len(batch))
        self._m_unique.inc(len(unique))
        self._total = len(unique)
        self._done = 0
        results: Dict[str, SystemReport] = {}
        with span("exec.batch", attrs={"experiments": len(batch),
                                       "unique": len(unique),
                                       "backend": self.backend.describe()}):
            pending: List[Experiment] = []
            for digest, experiment in unique.items():
                cached = self.cache.get(experiment) \
                    if self.cache is not None else None
                if cached is not None:
                    results[digest] = cached
                    self._complete(experiment, cached, source="cache")
                else:
                    pending.append(experiment)

            if pending:
                completions = self.backend.submit(pending,
                                                  notify=self._notify)
                last_arrival = time.perf_counter_ns()
                try:
                    for index, report in completions:
                        now = time.perf_counter_ns()
                        self._m_task_duration.observe(now - last_arrival)
                        last_arrival = now
                        experiment = pending[index]
                        results[experiment.content_hash()] = report
                        if self.cache is not None:
                            self.cache.put(experiment, report)
                        self._complete(experiment, report, source="worker")
                finally:
                    close = getattr(completions, "close", None)
                    if close is not None:
                        close()             # tear down workers promptly

        missing = self._total - len(results)
        if missing:     # pragma: no cover - backend contract violation
            raise ExperimentError(
                f"backend {self.backend.describe()} returned "
                f"{len(results)} of {self._total} results")
        return [results[digest] for digest in order]

    def run_one(self, experiment: Experiment) -> SystemReport:
        """Convenience wrapper for a single experiment."""
        return self.run([experiment])[0]

    # -- progress -----------------------------------------------------------------

    def _complete(self, experiment: Experiment, report: SystemReport, *,
                  source: str) -> None:
        self._done += 1
        self._m_completed.inc()
        # Fold the run's embedded simulation metrics into the batch
        # registry — once per unique experiment, whichever path
        # (cache or backend) produced the report.
        if report.metrics:
            self.metrics.merge_snapshot(report.metrics)
        if self.progress is not None:
            self.progress(ProgressEvent(
                completed=self._done, total=self._total,
                label=experiment.name or experiment.workload, source=source))

    def _notify(self, label: str, source: str) -> None:
        """Backend hook for non-completion events (retries)."""
        if source == "retry":
            self._m_retries.inc()
        if self.progress is not None:
            self.progress(ProgressEvent(
                completed=self._done, total=self._total,
                label=label, source=source))


def run_experiments(experiments: Iterable[Experiment], *, jobs: int = 1,
                    backend: Optional[Union[ExecutionBackend, str]] = None,
                    use_cache: bool = True,
                    cache: Optional[ResultCache] = None,
                    progress: Optional[ProgressEventFn] = None,
                    ) -> List[SystemReport]:
    """One-shot form of :meth:`Runner.run`."""
    runner = Runner(jobs=jobs, backend=backend, cache=cache,
                    use_cache=use_cache, progress=progress)
    return runner.run(experiments)
