"""The ExecutionBackend seam: protocol, resolution, determinism."""

import json

import pytest

from repro.errors import BackendError, ExperimentError
from repro.exec import (ExecutionBackend, ForkPoolBackend, Runner,
                        SerialBackend, experiment_pair, parse_address,
                        resolve_backend, run_experiments, spec_experiment)
from repro.exec import backends as backends_module
from repro.exec.cluster import ClusterBackend
from repro.sim.system import SystemReport


def small_batch():
    experiments = []
    for name in ("GCC", "H264"):
        experiments.extend(experiment_pair(
            spec_experiment(name, cores=1, scale=0.15)))
    return experiments


def canonical(reports):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in reports]


class TestResolution:
    def test_jobs_one_means_serial(self):
        assert isinstance(resolve_backend(1), SerialBackend)
        assert isinstance(Runner().backend, SerialBackend)

    def test_jobs_many_means_fork_pool(self):
        backend = resolve_backend(4)
        assert isinstance(backend, ForkPoolBackend)
        assert backend.jobs == 4

    def test_explicit_backend_wins(self):
        backend = SerialBackend()
        assert resolve_backend(1, backend) is backend
        assert Runner(backend=backend).backend is backend

    def test_jobs_and_backend_conflict(self):
        with pytest.raises(BackendError):
            resolve_backend(4, SerialBackend())
        with pytest.raises(ExperimentError):
            Runner(jobs=2, backend=SerialBackend())

    def test_rejects_non_backends(self):
        with pytest.raises(BackendError):
            resolve_backend(1, object())
        with pytest.raises(BackendError):
            resolve_backend(0)

    def test_describe_labels(self):
        assert SerialBackend().describe() == "serial"
        assert ForkPoolBackend(3).describe() == "fork-pool(3)"
        assert ClusterBackend(("box", 9001)).describe() == "cluster(box:9001)"


class TestAddressParsing:
    def test_string_and_tuple_forms(self):
        assert parse_address("host:7070") == ("host", 7070)
        assert parse_address(("host", 7070)) == ("host", 7070)

    def test_rejects_garbage(self):
        with pytest.raises(BackendError):
            parse_address("no-port")
        with pytest.raises(BackendError):
            parse_address("host:notanumber")
        with pytest.raises(BackendError):
            parse_address(":7070")


class TestSubmitContract:
    def test_serial_yields_indexed_in_order(self):
        batch = small_batch()[:2]
        pairs = list(SerialBackend().submit(batch))
        assert [index for index, _ in pairs] == [0, 1]
        assert all(isinstance(report, SystemReport) for _, report in pairs)
        assert pairs[0][1].name == "GCC-baseline"

    def test_fork_pool_matches_serial_byte_for_byte(self):
        batch = small_batch()
        serial = [r for _, r in SerialBackend().submit(batch)]
        pooled = [None] * len(batch)
        for index, report in ForkPoolBackend(4).submit(batch):
            pooled[index] = report
        assert canonical(serial) == canonical(pooled)

    def test_fork_pool_serial_fallback(self, monkeypatch):
        monkeypatch.setattr(backends_module, "_fork_context", lambda: None)
        batch = small_batch()[:2]
        fallback = [r for _, r in ForkPoolBackend(4).submit(batch)]
        assert canonical(fallback) == \
            canonical([r for _, r in SerialBackend().submit(batch)])

    def test_empty_batch(self):
        assert list(SerialBackend().submit([])) == []
        assert Runner(use_cache=False).run([]) == []

    def test_custom_backend_through_runner(self):
        """Any ExecutionBackend subclass slots into Runner unchanged."""
        log = []

        class TracingBackend(ExecutionBackend):
            def submit(self, experiments, *, notify=None):
                for index, report in SerialBackend().submit(experiments):
                    log.append(experiments[index].name)
                    yield index, report

        batch = small_batch()[:2]
        reports = Runner(backend=TracingBackend(), use_cache=False).run(batch)
        assert log == ["GCC-baseline", "GCC-shredder"]
        assert canonical(reports) == \
            canonical(run_experiments(batch, use_cache=False))

    def test_runner_caches_whatever_backend_ran(self, tmp_path):
        """Cache consultation lives above the backend seam."""
        from repro.exec import ResultCache
        batch = small_batch()[:2]
        cache = ResultCache(tmp_path)
        Runner(backend=ForkPoolBackend(2), cache=cache).run(batch)
        assert len(cache) == 2
        # Same cache now serves a serial-backend runner without a run.
        from repro.sim.system import System

        def boom(self, tasks):
            raise AssertionError("cache should have served this")

        import pytest as _pytest
        with _pytest.MonkeyPatch.context() as mp:
            mp.setattr(System, "run", boom)
            again = Runner(cache=ResultCache(tmp_path)).run(batch)
        assert canonical(again) == canonical(
            Runner(cache=ResultCache(tmp_path)).run(batch))
