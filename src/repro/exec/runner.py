"""The experiment runner: batch orchestration over serial or fork-pool
execution.

A :class:`Runner` executes a batch of :class:`Experiment`\\ s: it
deduplicates the batch by content hash, serves whatever the persistent
cache already holds, runs the remainder (in-process for ``jobs=1``, on
a local fork-context ``ProcessPoolExecutor`` for ``jobs=N``), and
stores fresh results back into the cache the moment each one lands.

Results cross every execution boundary as ``SystemReport.to_dict()``
payloads — including the in-process serial path — so a batch produces
byte-identical reports whatever ``jobs`` is.

Progress is reported through :class:`ProgressEvent` values carrying
``completed``, ``total``, ``label`` and a ``source`` telling where the
result came from (``"cache"`` hit or ``"worker"`` completion); a
progress callback takes that one event.
"""

from __future__ import annotations

import inspect
import multiprocessing
import time
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..errors import ExperimentError
from ..obs import DEFAULT_DURATION_BUCKETS_NS, MetricsRegistry, span
from ..sim.system import SystemReport
from .cache import ResultCache, default_cache
from .experiment import Experiment
from .workloads import execute_experiment

#: where a progress event originated
PROGRESS_SOURCES = ("cache", "worker")


def _execute_to_dict(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Pool entry point: run one serialized experiment.

    Takes and returns plain dicts so the function behaves identically
    in a forked worker and in-process.
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


def _execute(experiments: Sequence[Experiment], jobs: int,
             ) -> Iterator[Tuple[int, SystemReport]]:
    """Run a batch, yielding ``(index, report)`` as each result lands.

    ``index`` is the experiment's position in ``experiments``. One job,
    one experiment, or no ``fork`` start method runs the batch
    in-process, in order; otherwise a ``ProcessPoolExecutor`` of
    ``min(jobs, len)`` forked workers runs it, in order. A worker that
    dies mid-task raises :class:`~repro.errors.ExperimentError` instead
    of stalling the batch. Closing the generator early cancels the
    pending tasks and joins every worker.
    """
    jobs = min(jobs, len(experiments))
    context = _fork_context() if jobs > 1 else None
    if context is None:
        for index, experiment in enumerate(experiments):
            document = _execute_to_dict(experiment.to_dict())
            yield index, SystemReport.from_dict(document)
        return
    # Imported here so the serial path, which every benchmark sample
    # and default figure run takes, does not load the executor.
    from concurrent.futures.process import (BrokenProcessPool,
                                            ProcessPoolExecutor)
    payloads = [experiment.to_dict() for experiment in experiments]
    pool = ProcessPoolExecutor(max_workers=jobs, mp_context=context)
    try:
        documents = pool.map(_execute_to_dict, payloads)
        for index, document in enumerate(documents):
            yield index, SystemReport.from_dict(document)
    except BrokenProcessPool as error:
        raise ExperimentError(
            f"a worker process died before the batch finished: {error}"
        ) from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


@dataclass(frozen=True)
class ProgressEvent:
    """One progress notification from a :class:`Runner` batch.

    ``completed``/``total`` count *unique* experiments (duplicates in
    the submitted batch collapse to one). ``source`` is ``"cache"``
    when the result came from the persistent cache and ``"worker"``
    when the runner executed it.
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
    """Executes experiment batches with caching, serially or on a
    local fork pool.

    Parameters
    ----------
    jobs:
        Worker process count. ``1`` (the default) runs in-process;
        ``N > 1`` uses a local fork pool of up to ``N`` processes (in
        process where ``fork`` is unavailable). Below 1 raises
        :class:`~repro.errors.ExperimentError`.
    cache:
        The :class:`ResultCache` to consult/populate; defaults to the
        shared :func:`default_cache`. Ignored when ``use_cache`` is
        false.
    use_cache:
        When false, every experiment re-runs and nothing is persisted.
    progress:
        Optional callback receiving :class:`ProgressEvent` values, one
        per unique experiment. A callable that cannot take exactly one
        positional argument raises
        :class:`~repro.errors.ExperimentError` here.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` accumulating batch
        telemetry: process-local ``exec.batch.*`` / ``exec.cache.*`` /
        ``exec.task.*`` counters, plus every completed report's
        embedded simulation metrics merged in. Defaults to a private
        registry, exposed as ``runner.metrics``.
    """

    def __init__(self, jobs: int = 1, *,
                 cache: Optional[ResultCache] = None,
                 use_cache: bool = True,
                 progress: Optional[ProgressEventFn] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
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
                                       "jobs": self.jobs}):
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
                completions = _execute(pending, self.jobs)
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
                    completions.close()     # tear down workers promptly
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
        # (cache or execution) produced the report.
        if report.metrics:
            self.metrics.merge_snapshot(report.metrics)
        if self.progress is not None:
            self.progress(ProgressEvent(
                completed=self._done, total=self._total,
                label=experiment.name or experiment.workload, source=source))


def run_experiments(experiments: Iterable[Experiment], *, jobs: int = 1,
                    use_cache: bool = True,
                    cache: Optional[ResultCache] = None,
                    progress: Optional[ProgressEventFn] = None,
                    ) -> List[SystemReport]:
    """One-shot form of :meth:`Runner.run`."""
    runner = Runner(jobs=jobs, cache=cache, use_cache=use_cache,
                    progress=progress)
    return runner.run(experiments)
