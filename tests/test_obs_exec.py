"""Exec-layer telemetry: runner counters, the registered worker's task
executor (reply frames, worker-side caching, exec.worker.* counters),
and the cluster-equals-serial invariant."""

import json

import pytest

from repro.exec import Experiment, ResultCache, Runner, spec_experiment
from repro.exec.cluster import ClusterBackend, ClusterServer
from repro.exec.wire import MSG_ERROR, MSG_RESULT, MSG_RUN
from repro.exec.worker import _TaskExecutor, registered_worker_pool
from repro.obs import MetricsRegistry
from repro.sim.system import SystemReport


def tiny_experiment(name="GCC", scale=0.1):
    return spec_experiment(name, cores=1, scale=scale)


def sim_metric_items(snapshot):
    """Only the deterministic simulation metrics — exec.* are
    wall-clock and process-local, so excluded from comparisons."""
    return {name: entry for name, entry in snapshot.items()
            if not name.startswith("exec.")}


class TestRunnerMetrics:
    def test_batch_counters(self, tmp_path):
        runner = Runner(cache=ResultCache(tmp_path))
        experiment = tiny_experiment()
        runner.run([experiment, experiment])
        snapshot = runner.metrics.snapshot()
        assert snapshot["exec.batch.runs"]["value"] == 1
        assert snapshot["exec.batch.experiments"]["value"] == 2
        assert snapshot["exec.batch.unique"]["value"] == 1
        assert snapshot["exec.task.completed"]["value"] == 1
        assert snapshot["exec.cache.misses"]["value"] == 1

    def test_second_run_hits_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        Runner(cache=cache).run([tiny_experiment()])
        runner = Runner(cache=cache)
        runner.run([tiny_experiment()])
        snapshot = runner.metrics.snapshot()
        assert snapshot["exec.cache.hits"]["value"] == 1
        assert snapshot["exec.task.completed"]["value"] == 1

    def test_report_metrics_fold_into_runner_registry(self, tmp_path):
        runner = Runner(cache=ResultCache(tmp_path))
        reports = runner.run([tiny_experiment("GCC"),
                              tiny_experiment("H264")])
        snapshot = runner.metrics.snapshot()
        expected = sum(r.metrics["mem.ctrl.data_writes"]["value"]
                       for r in reports)
        assert snapshot["mem.ctrl.data_writes"]["value"] == expected

    def test_cached_reports_still_fold_metrics(self, tmp_path):
        cache = ResultCache(tmp_path)
        Runner(cache=cache).run([tiny_experiment()])
        runner = Runner(cache=cache)
        reports = runner.run([tiny_experiment()])
        snapshot = runner.metrics.snapshot()
        assert snapshot["mem.ctrl.data_writes"]["value"] \
            == reports[0].metrics["mem.ctrl.data_writes"]["value"]


def run_frame(experiment):
    return {"type": MSG_RUN, "experiment": experiment.to_dict()}


class TestWorkerWire:
    """The executor behind ``repro worker serve --register``: the frame
    it answers each ``run`` frame with, and its worker-local telemetry."""

    def test_result_frame_and_worker_counters(self):
        executor = _TaskExecutor()
        reply = executor.run(run_frame(tiny_experiment()))
        assert reply["type"] == MSG_RESULT
        metrics = executor.metrics.snapshot()
        assert metrics["exec.worker.tasks_served"]["value"] == 1
        assert metrics["exec.worker.task_duration_ns"]["count"] == 1
        # The report document itself is still a loadable SystemReport.
        report = SystemReport.from_dict(reply["result"])
        assert report.metrics     # sim metrics embedded in the report
        # The task's span rides the frame; the registry stays local.
        assert [span["name"] for span in reply["spans"]] \
            == ["exec.worker.task"]
        assert "metrics" not in reply

    def test_metrics_are_cumulative_across_tasks(self):
        executor = _TaskExecutor()
        executor.run(run_frame(tiny_experiment()))
        executor.run(run_frame(tiny_experiment()))
        snapshot = executor.metrics.snapshot()
        assert snapshot["exec.worker.tasks_served"]["value"] == 2

    def test_worker_side_cache(self, tmp_path):
        executor = _TaskExecutor(cache_dir=tmp_path)
        first = executor.run(run_frame(tiny_experiment()))
        second = executor.run(run_frame(tiny_experiment()))
        assert first["result"] == second["result"]
        assert [reply["spans"][0]["attrs"]["cache_hit"]
                for reply in (first, second)] == [False, True]
        metrics = executor.metrics.snapshot()
        assert metrics["exec.worker.cache.misses"]["value"] == 1
        assert metrics["exec.worker.cache.hits"]["value"] == 1

    def test_errors_counted_not_fatal(self):
        """A failing or malformed task becomes an error frame; the
        executor keeps serving."""
        executor = _TaskExecutor()
        for request in ({"type": MSG_RUN,
                         "experiment": Experiment("bogus").to_dict()},
                        {"type": MSG_RUN, "experiment": "junk"}):
            assert executor.run(request)["type"] == MSG_ERROR
        assert executor.run(run_frame(tiny_experiment()))["type"] \
            == MSG_RESULT
        snapshot = executor.metrics.snapshot()
        assert snapshot["exec.worker.errors"]["value"] == 2
        assert snapshot["exec.worker.tasks_served"]["value"] == 1


class TestDistributedMetrics:
    def test_merged_sim_totals_match_serial(self):
        """A cluster run's runner registry holds exactly the serial
        run's simulation totals, folded in from the shipped reports."""
        batch = [tiny_experiment("GCC"), tiny_experiment("H264")]

        serial = Runner(use_cache=False)
        serial.run([Experiment.from_dict(e.to_dict()) for e in batch])
        serial_snapshot = sim_metric_items(serial.metrics.snapshot())

        registry = MetricsRegistry()
        with ClusterServer() as server:
            with registered_worker_pool(2, server.endpoint):
                clustered = Runner(backend=ClusterBackend(server.address),
                                   use_cache=False, metrics=registry)
                clustered.run(batch)
        merged = registry.snapshot()

        assert sim_metric_items(merged) == serial_snapshot
        assert json.dumps(sim_metric_items(merged), sort_keys=True) \
            == json.dumps(serial_snapshot, sort_keys=True)
        assert merged["exec.task.completed"]["value"] == 2
