"""The parallel runner: determinism, caching, fallback, figure plumbing."""

import json

import pytest

from repro.analysis.figures import fig8_to_11_study, run_pair
from repro.cli import main
from repro.errors import ExperimentError
from repro.exec import (Experiment, ProgressEvent, ResultCache, Runner,
                        experiment_pair, run_experiments, spec_experiment,
                        workload_kinds)
from repro.exec import backends as backends_module
from repro.exec.cache import default_cache
from repro.sim.system import System


def small_batch():
    experiments = []
    for name in ("GCC", "H264"):
        experiments.extend(experiment_pair(
            spec_experiment(name, cores=1, scale=0.15)))
    return experiments


def canonical(reports):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in reports]


class TestRunnerBasics:
    def test_order_preserved_and_reports_labelled(self, tmp_path):
        batch = small_batch()
        reports = Runner(cache=ResultCache(tmp_path)).run(batch)
        assert [r.shredder for r in reports] == [False, True, False, True]
        assert reports[0].name == "GCC-baseline"
        assert reports[3].name == "H264-shredder"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ExperimentError):
            Runner(jobs=0)
        with pytest.raises(ExperimentError):
            Runner(use_cache=False).run(["not an experiment"])

    def test_unknown_workload_kind(self):
        assert "spec" in workload_kinds()
        with pytest.raises(ExperimentError):
            Runner(use_cache=False).run([Experiment("no-such-kind")])

    def test_duplicates_execute_once(self, monkeypatch):
        calls = []
        original = backends_module._execute_to_dict

        def counting(payload):
            calls.append(payload["name"])
            return original(payload)

        monkeypatch.setattr(backends_module, "_execute_to_dict", counting)
        exp = spec_experiment("GCC", cores=1, scale=0.1)
        reports = Runner(use_cache=False).run([exp, exp, exp])
        assert len(calls) == 1
        assert reports[0] is reports[1] is reports[2]

    def test_progress_reported_for_runs_and_cache_hits(self, tmp_path):
        events = []
        cache = ResultCache(tmp_path)
        batch = small_batch()

        Runner(cache=cache, progress=events.append).run(batch)
        assert events[0] == ProgressEvent(1, 4, "GCC-baseline", "worker")
        assert events[-1] == ProgressEvent(4, 4, "H264-shredder", "worker")
        events.clear()
        Runner(cache=ResultCache(tmp_path), progress=events.append).run(batch)
        assert [event.completed for event in events] == [1, 2, 3, 4]
        assert {event.source for event in events} == {"cache"}

    def test_legacy_three_arg_progress_shim_warns(self):
        # The (done, total, label) shim is retired: that callback shape is
        # now rejected when the Runner is built, naming the one-event form.
        def progress(done, total, label):
            raise AssertionError("a rejected callback must never be called")

        with pytest.raises(ExperimentError, match="one ProgressEvent"):
            Runner(use_cache=False, progress=progress)

    def test_bad_progress_arity_rejected_eagerly(self):
        for progress in (lambda a, b: None, lambda: None):
            with pytest.raises(ExperimentError):
                Runner(use_cache=False, progress=progress)

    def test_progress_event_validates_source(self):
        with pytest.raises(ExperimentError):
            ProgressEvent(1, 2, "x", source="telepathy")


class TestDeterminism:
    def test_parallel_matches_serial_byte_for_byte(self):
        batch = small_batch()
        serial = run_experiments(batch, jobs=1, use_cache=False)
        parallel = run_experiments(batch, jobs=4, use_cache=False)
        assert canonical(serial) == canonical(parallel)

    def test_serial_fallback_without_fork(self, monkeypatch):
        monkeypatch.setattr(backends_module, "_fork_context", lambda: None)
        batch = small_batch()[:2]
        reports = run_experiments(batch, jobs=4, use_cache=False)
        assert canonical(reports) == \
            canonical(run_experiments(batch, jobs=1, use_cache=False))


class TestCachedExecution:
    def test_second_run_never_touches_the_simulator(self, tmp_path,
                                                    monkeypatch):
        batch = small_batch()
        warm = Runner(cache=ResultCache(tmp_path)).run(batch)

        def boom(self, tasks):
            raise AssertionError("System.run called on a warm cache")

        monkeypatch.setattr(System, "run", boom)
        cached = Runner(cache=ResultCache(tmp_path)).run(batch)
        assert canonical(cached) == canonical(warm)

    def test_no_cache_bypasses_existing_entries(self, tmp_path, monkeypatch):
        batch = small_batch()[:1]
        Runner(cache=ResultCache(tmp_path)).run(batch)

        def boom(self, tasks):
            raise AssertionError("no-cache run must re-execute")

        monkeypatch.setattr(System, "run", boom)
        with pytest.raises(AssertionError):
            Runner(use_cache=False).run(batch)


class TestFigureIntegration:
    def test_run_pair_experiment_form(self, tmp_path):
        exp = spec_experiment("GCC", cores=1, scale=0.15)
        result = run_pair(exp, runner=Runner(cache=ResultCache(tmp_path)))
        assert result.workload == "GCC"
        assert result.write_savings > 0
        assert result.baseline.memory_writes > result.shredder.memory_writes

    def test_run_pair_legacy_form_now_raises(self):
        # run_pair(name, make_tasks) is retired along with its tombstone
        # parameters: a workload name is not an Experiment, and the second
        # positional argument is no longer accepted at all.
        from repro.workloads import multiprogrammed_tasks
        with pytest.raises(TypeError, match="expects an Experiment"):
            run_pair("GCC")
        with pytest.raises(TypeError):
            run_pair(spec_experiment("GCC", cores=1, scale=0.15),
                     lambda: multiprogrammed_tasks("GCC", 1, scale=0.15))

    def test_run_pair_rejects_junk(self):
        with pytest.raises(TypeError):
            run_pair(42)

    def test_study_parallel_matches_serial(self, tmp_path):
        kwargs = dict(benchmarks=["GCC", "H264"], scale=0.15, cores=1)
        serial = fig8_to_11_study(
            runner=Runner(jobs=1, cache=ResultCache(tmp_path / "a")),
            **kwargs)
        parallel = fig8_to_11_study(
            runner=Runner(jobs=4, cache=ResultCache(tmp_path / "b")),
            **kwargs)
        assert [json.dumps(r.to_dict(), sort_keys=True) for r in serial] == \
            [json.dumps(r.to_dict(), sort_keys=True) for r in parallel]


class TestWarmCliFigure:
    """Acceptance: a warm ``repro figure fig8`` does zero System.run calls."""

    ARGS = ["figure", "fig8", "--scale", "0.15", "--cores", "1",
            "--benchmarks", "GCC,H264"]

    def test_warm_figure_fig8_is_pure_cache(self, capsys, monkeypatch):
        default_cache().clear_memory()
        assert main(self.ARGS) == 0           # populate the cache
        assert "write_savings_pct" in capsys.readouterr().out
        default_cache().clear_memory()        # drop the in-process layer

        def boom(self, tasks):
            raise AssertionError("warm figure invocation hit the simulator")

        monkeypatch.setattr(System, "run", boom)
        assert main(self.ARGS) == 0           # must be served from disk
        assert "write_savings_pct" in capsys.readouterr().out

    def test_cli_no_cache_flag_re_executes(self, capsys, monkeypatch):
        default_cache().clear_memory()
        assert main(self.ARGS) == 0
        capsys.readouterr()

        def boom(self, tasks):
            raise AssertionError("re-executed")

        monkeypatch.setattr(System, "run", boom)
        with pytest.raises(AssertionError):
            main(self.ARGS + ["--no-cache"])

    def test_cli_jobs_flag_matches_serial(self, capsys):
        default_cache().clear()
        assert main(self.ARGS + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        default_cache().clear()
        assert main(self.ARGS) == 0
        serial_out = capsys.readouterr().out
        assert parallel_out == serial_out
