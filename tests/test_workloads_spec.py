"""SPEC workload models and mixes."""

import pytest

from repro.errors import SimulationError
from repro.sim import System
from repro.workloads import SPEC_BENCHMARKS, SpecParams, spec_task
from repro.workloads.mix import heterogeneous_mix, multiprogrammed_tasks


class TestCatalogue:
    def test_26_benchmarks(self):
        assert len(SPEC_BENCHMARKS) == 26

    def test_paper_names_present(self):
        for name in ("H264", "LBM", "LESLIE3D", "LIBQUANTUM", "MILC", "NAMD",
                     "OMNETPP", "PERL", "POVRAY", "SJENG", "SOPLEX", "SPHINIX",
                     "XALAN", "ZEUS", "ASTAR", "BZIP", "BWAVES", "MCF",
                     "CACTUS", "DEAL", "GAMESS", "GCC", "GEMS", "GO",
                     "GROMACS", "HMMER"):
            assert name in SPEC_BENCHMARKS

    def test_scaled_preserves_shape(self):
        params = SPEC_BENCHMARKS["GCC"].scaled(0.25)
        assert params.alloc_pages == SPEC_BENCHMARKS["GCC"].alloc_pages // 4
        assert params.init_writes_per_page == \
            SPEC_BENCHMARKS["GCC"].init_writes_per_page

    def test_scaled_has_floor(self):
        params = SPEC_BENCHMARKS["GCC"].scaled(0.0001)
        assert params.alloc_pages >= 4
        assert params.steady_ops >= 64


class TestExecution:
    def test_runs_to_completion(self, timing_config):
        system = System(timing_config.with_zeroing("shred"), shredder=True)
        system.run([spec_task(SPEC_BENCHMARKS["H264"].scaled(0.05))])
        report = system.report()
        assert report.instructions > 0
        assert report.pages_zeroed >= 4

    def test_deterministic(self, timing_config):
        def run():
            system = System(timing_config.with_zeroing("shred"), shredder=True)
            system.run([spec_task(SPEC_BENCHMARKS["GCC"].scaled(0.05))])
            return system.report()
        a, b = run(), run()
        assert a.instructions == b.instructions
        assert a.cycles == b.cycles
        assert a.memory_writes == b.memory_writes

    def test_write_heavy_writes_more(self, timing_config):
        def writes(name):
            system = System(timing_config.with_zeroing("nontemporal"),
                            shredder=False)
            system.run([spec_task(SPEC_BENCHMARKS[name].scaled(0.1))])
            system.machine.hierarchy.flush_all()
            return system.machine.memory_write_count() / \
                max(system.kernel.stats.pages_allocated, 1)
        assert writes("LBM") > writes("H264")


class TestMixes:
    def test_multiprogrammed_instances(self):
        tasks = multiprogrammed_tasks("GCC", 4, scale=0.1)
        assert len(tasks) == 4

    def test_unknown_benchmark(self):
        with pytest.raises(SimulationError):
            multiprogrammed_tasks("FAKE", 2)

    def test_heterogeneous_mix(self):
        tasks = heterogeneous_mix(["GCC", "LBM"], scale=0.1)
        assert len(tasks) == 2

    def test_mix_runs_on_system(self, timing_config):
        system = System(timing_config.with_zeroing("shred"), shredder=True)
        system.run(multiprogrammed_tasks("HMMER", 2, scale=0.05))
        report = system.report()
        assert all(core.stats.instructions > 0 for core in system.cores)
        assert report.ipc > 0


class TestChurnWorkload:
    def test_churn_recycles_pages(self, timing_config):
        from repro.sim import System
        from repro.workloads import ChurnParams, churn_task
        system = System(timing_config.with_zeroing("shred"), shredder=True)
        params = ChurnParams(workers=6, pages_per_worker=4,
                             requests_per_worker=10)
        system.run_single(churn_task(params))
        stats = system.kernel.stats
        assert stats.pages_allocated == 6 * 4
        assert stats.pages_recycled >= 4 * 4, \
            "munmap'd pages must be recycled by later workers"
        assert system.machine.controller.stats.shreds >= stats.pages_allocated

    def test_churn_deterministic(self, timing_config):
        from repro.sim import System
        from repro.workloads import ChurnParams, churn_task
        def run():
            system = System(timing_config.with_zeroing("shred"),
                            shredder=True)
            system.run_single(churn_task(ChurnParams(workers=4,
                                                     pages_per_worker=3,
                                                     requests_per_worker=8)))
            return system.report().cycles
        assert run() == run()

