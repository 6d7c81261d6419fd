"""Serial and fork-pool execution: the one generator behind
``Runner(jobs=N)``, its ``(index, report)`` contract and determinism."""

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import process
from pathlib import Path

import pytest

from repro.exec import Runner, experiment_pair, spec_experiment
from repro.exec import runner as runner_module
from repro.sim.system import SystemReport

SRC = Path(__file__).resolve().parent.parent / "src"


def small_batch():
    experiments = []
    for name in ("GCC", "H264"):
        experiments.extend(experiment_pair(
            spec_experiment(name, cores=1, scale=0.15)))
    return experiments


def canonical(reports):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in reports]


def run(batch, jobs):
    """``_execute``'s reports, placed by the index each one came with."""
    reports = [None] * len(batch)
    for index, report in runner_module._execute(batch, jobs):
        assert reports[index] is None
        reports[index] = report
    return reports


def no_fork():
    raise AssertionError("this batch must run in-process")


def needs_fork():
    if runner_module._fork_context() is None:
        pytest.skip("no fork start method on this platform")


class TestResolution:
    def test_jobs_one_means_serial(self, monkeypatch):
        assert Runner().jobs == 1
        monkeypatch.setattr(runner_module, "_fork_context", no_fork)
        assert len(run(small_batch()[:2], 1)) == 2

    def test_single_experiment_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(runner_module, "_fork_context", no_fork)
        assert len(run(small_batch()[:1], 4)) == 1

    def test_jobs_many_means_fork_pool(self, monkeypatch):
        """An executor of ``min(jobs, pending)`` forked workers."""
        needs_fork()
        sizes, methods = [], []

        class SpyExecutor(process.ProcessPoolExecutor):
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)
                methods.append(mp_context.get_start_method())
                super().__init__(max_workers=max_workers,
                                 mp_context=mp_context)

        monkeypatch.setattr(process, "ProcessPoolExecutor", SpyExecutor)
        assert Runner(jobs=4).jobs == 4
        assert len(run(small_batch()[:3], 4)) == 3
        assert sizes == [3] and methods == ["fork"]


class TestSubmitContract:
    """``_execute`` yields each ``(index, report)`` pair once, and the
    reports are byte-identical whatever ``jobs`` is."""

    def test_serial_yields_indexed_in_order(self):
        batch = small_batch()[:2]
        pairs = list(runner_module._execute(batch, 1))
        assert [index for index, _ in pairs] == [0, 1]
        assert all(isinstance(report, SystemReport) for _, report in pairs)
        assert pairs[0][1].name == "GCC-baseline"

    def test_fork_pool_matches_serial_byte_for_byte(self):
        batch = small_batch()
        assert canonical(run(batch, 4)) == canonical(run(batch, 1))

    def test_fork_pool_serial_fallback(self, monkeypatch):
        batch = small_batch()[:2]
        serial = canonical(run(batch, 1))
        monkeypatch.setattr(runner_module, "_fork_context", lambda: None)
        assert canonical(run(batch, 4)) == serial

    def test_empty_batch(self):
        assert list(runner_module._execute([], 4)) == []
        assert Runner(use_cache=False).run([]) == []

    def test_runner_caches_whatever_backend_ran(self, tmp_path):
        """Cache consultation lives above execution: a fork-pool run
        fills the cache that then serves a serial runner."""
        from repro.exec import ResultCache
        batch = small_batch()[:2]
        cache = ResultCache(tmp_path)
        Runner(jobs=2, cache=cache).run(batch)
        assert len(cache) == 2
        from repro.sim.system import System

        def boom(self, tasks):
            raise AssertionError("cache should have served this")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(System, "run", boom)
            again = Runner(cache=ResultCache(tmp_path)).run(batch)
        assert canonical(again) == canonical(
            Runner(cache=ResultCache(tmp_path)).run(batch))


#: A batch of two experiments whose executor kills its worker process
#: for one of them, run with ``jobs=2``; prints the error it raises.
CRASH_BATCH = """
import os
from repro.errors import ExperimentError
from repro.exec import Experiment, Runner
from repro.exec.workloads import register_workload

@register_workload("crash-probe")
def crash_probe(system, params):
    if params["die"]:
        os._exit(1)

batch = [Experiment(workload="crash-probe", params={"die": die})
         for die in (False, True)]
try:
    Runner(jobs=2, use_cache=False).run(batch)
except ExperimentError as error:
    print("ExperimentError:", error)
"""


class TestWorkerFailure:
    def test_dying_worker_raises_instead_of_hanging(self):
        needs_fork()
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([path] if path else [])))
        done = subprocess.run([sys.executable, "-c", CRASH_BATCH], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("ExperimentError: a worker process "
                                      "died"), done.stdout

    def test_raising_progress_callback_leaves_no_worker(self):
        needs_fork()

        class Stop(Exception):
            pass

        def progress(event):
            raise Stop(event.label)

        runner = Runner(jobs=2, use_cache=False, progress=progress)
        with pytest.raises(Stop):
            runner.run(small_batch())
        assert multiprocessing.active_children() == []
