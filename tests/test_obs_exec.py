"""Exec-layer telemetry: runner counters, report metrics folded into
the runner's registry, and the parallel-equals-serial invariant."""

import json

from repro.exec import Experiment, ResultCache, Runner, spec_experiment
from repro.obs import MetricsRegistry


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


class TestDistributedMetrics:
    def test_merged_sim_totals_match_serial(self):
        """A fork-pool run's runner registry holds exactly the serial
        run's simulation totals, folded in from the shipped reports."""
        batch = [tiny_experiment("GCC"), tiny_experiment("H264")]

        serial = Runner(use_cache=False)
        serial.run([Experiment.from_dict(e.to_dict()) for e in batch])
        serial_snapshot = sim_metric_items(serial.metrics.snapshot())

        registry = MetricsRegistry()
        Runner(jobs=2, use_cache=False, metrics=registry).run(batch)
        merged = registry.snapshot()

        assert sim_metric_items(merged) == serial_snapshot
        assert json.dumps(sim_metric_items(merged), sort_keys=True) \
            == json.dumps(serial_snapshot, sort_keys=True)
        assert merged["exec.task.completed"]["value"] == 2
