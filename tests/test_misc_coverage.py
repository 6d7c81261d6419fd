"""Cross-cutting coverage: error hierarchy, package version, machine
helpers, catalogue smoke runs, result records, DEUCE in timing mode."""

from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro import errors
from repro.config import fast_config
from repro.core import DeuceShredderController
from repro.sim import System
from repro.sim.results import RunResult
from repro.workloads import SPEC_BENCHMARKS, spec_task
from repro.workloads.mix import heterogeneous_mix


class TestErrorHierarchy:
    @pytest.mark.parametrize("name", [
        "ConfigError", "AddressError", "AlignmentError", "OutOfMemoryError",
        "PageFaultError", "ProtectionError", "IntegrityError",
        "EnduranceExceededError", "CipherError", "CounterOverflowError",
        "SimulationError"])
    def test_all_derive_from_repro_error(self, name):
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ReproError)

    def test_alignment_is_address_error(self):
        assert issubclass(errors.AlignmentError, errors.AddressError)

    def test_public_api_exports(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name
        assert repro.__version__


class TestPackageVersion:
    def test_pyproject_takes_the_package_version(self):
        # __version__ also salts the result cache, so an installed
        # package must report the version it runs under.
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads(
            (Path(__file__).resolve().parent.parent / "pyproject.toml")
            .read_text(encoding="utf-8"))
        project = pyproject["project"]
        if "version" in project:
            assert project["version"] == repro.__version__
        else:
            assert "version" in project["dynamic"]
            dynamic = pyproject["tool"]["setuptools"]["dynamic"]
            assert dynamic["version"] == {"attr": "repro.__version__"}


class TestMachineHelpers:
    def test_write_read_bytes_cross_block(self, tiny_config):
        from repro.sim import Machine
        machine = Machine(tiny_config, shredder=True)
        payload = bytes(range(256))
        machine.write_bytes(0, 4096 + 40, payload)
        data, _ = machine.read_bytes(0, 4096 + 40, 256)
        assert data == payload

    def test_stat_helpers(self, tiny_config):
        from repro.sim import Machine
        machine = Machine(tiny_config, shredder=True)
        machine.store(0, 4096, merge=(0, b"\x01"))
        machine.hierarchy.flush_all()
        assert machine.memory_write_count() >= 1
        machine.load(0, 8192)
        assert machine.memory_read_count() + machine.zero_fill_count() >= 1


class TestCatalogueSmoke:
    def test_every_spec_model_runs(self, timing_config):
        """All 26 models execute end to end at tiny scale on both
        systems without error and with sane reports."""
        for name, params in SPEC_BENCHMARKS.items():
            system = System(timing_config.with_zeroing("shred"),
                            shredder=True, name=name)
            system.run_single(spec_task(params.scaled(0.03)))
            report = system.report()
            assert report.instructions > 0, name
            assert report.ipc > 0, name

    def test_heterogeneous_mix_runs(self, timing_config):
        system = System(timing_config.with_zeroing("shred"), shredder=True)
        system.run(heterogeneous_mix(["H264", "LBM"], scale=0.05))
        assert all(core.stats.instructions > 0 for core in system.cores[:2])


class TestRunResultRecord:
    def test_row_shape(self):
        result = RunResult(workload="X", write_savings=0.5,
                           read_savings=0.25, read_speedup=2.0,
                           relative_ipc=1.05)
        row = result.row()
        assert row["write_savings_pct"] == 50.0
        assert row["read_savings_pct"] == 25.0
        assert row["workload"] == "X"


class TestDeuceTimingMode:
    def test_degrades_gracefully_without_data(self):
        config = replace(fast_config(), functional=False)
        controller = DeuceShredderController(config)
        controller.store_block(0, None)
        data, _, _ = controller.fetch_block(0)
        assert data is None
        controller.shred_page(0)
        assert controller.fetch_block(0)[2]


class TestSystemDescribeIntegration:
    def test_quickstart_docstring_flow(self):
        """The README quickstart executes as documented."""
        from repro import bench_config, compare_runs, System
        from repro.workloads import multiprogrammed_tasks
        config = bench_config()
        baseline = System(config.with_zeroing("nontemporal"), shredder=False)
        baseline.run(multiprogrammed_tasks("GCC", 2, scale=0.1))
        baseline.machine.hierarchy.flush_all()
        shredder = System(config.with_zeroing("shred"), shredder=True)
        shredder.run(multiprogrammed_tasks("GCC", 2, scale=0.1))
        shredder.machine.hierarchy.flush_all()
        result = compare_runs(baseline.report(), shredder.report(), "GCC")
        assert set(result.row()) == {"workload", "write_savings_pct",
                                     "read_savings_pct", "read_speedup",
                                     "relative_ipc"}
