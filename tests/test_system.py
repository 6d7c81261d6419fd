"""Full-system assembly, scheduling and reporting."""

import pytest

from repro.errors import SimulationError
from repro.sim import Machine, System, compare_runs
from repro.sim.results import arithmetic_mean, geometric_mean
from repro.workloads import memset_experiment


def trivial_task(instructions=1000):
    def task(ctx):
        base = ctx.malloc(4096)
        ctx.store_u64(base, 1)
        ctx.compute(instructions)
        yield
    return task


class TestMachine:
    def test_shredder_machine_has_register(self, tiny_config):
        machine = Machine(tiny_config, shredder=True)
        assert machine.shred_register is not None
        assert machine.has_shredder

    def test_baseline_machine_has_none(self, tiny_config):
        machine = Machine(tiny_config, shredder=False)
        assert machine.shred_register is None

    def test_read_write_bytes(self, tiny_config):
        machine = Machine(tiny_config, shredder=True)
        payload = bytes(range(150))
        machine.write_bytes(0, 4096 + 10, payload)
        data, cycles = machine.read_bytes(0, 4096 + 10, 150)
        assert data == payload
        assert cycles > 0


class TestSystemRun:
    def test_run_single(self, tiny_config):
        system = System(tiny_config.with_zeroing("shred"), shredder=True)
        system.run_single(trivial_task())
        assert system.cores[0].stats.instructions > 1000

    def test_run_parallel_tasks(self, tiny_config):
        system = System(tiny_config.with_zeroing("shred"), shredder=True)
        system.run([trivial_task(), trivial_task()])
        assert all(core.stats.instructions > 0 for core in system.cores[:2])

    def test_too_many_tasks(self, tiny_config):
        system = System(tiny_config, shredder=True)
        with pytest.raises(SimulationError):
            system.run([trivial_task()] * 99)

    def test_scheduler_interleaves_by_lag(self, tiny_config):
        """Both cores finish with comparable clocks (fair interleave)."""
        def chunky(ctx):
            base = ctx.malloc(64 * 4096)
            for i in range(64):
                ctx.touch(base + i * 4096, write=True)
                if i % 4 == 0:
                    yield
        system = System(tiny_config.with_zeroing("shred"), shredder=True)
        system.run([chunky, chunky])
        c0, c1 = (core.stats.cycles for core in system.cores[:2])
        assert abs(c0 - c1) / max(c0, c1) < 0.9

    def test_new_context_bad_core(self, tiny_config):
        system = System(tiny_config, shredder=True)
        with pytest.raises(SimulationError):
            system.new_context(99)

    def test_no_engine_parameter(self, tiny_config):
        # A system walks every access through the one cache hierarchy;
        # there is no access-engine selection.
        with pytest.raises(TypeError):
            System(tiny_config, engine="batch")


class TestReports:
    def test_report_fields(self, tiny_config):
        system = System(tiny_config.with_zeroing("shred"), shredder=True,
                        name="r")
        system.run_single(trivial_task())
        report = system.report()
        assert report.name == "r"
        assert report.shredder
        assert report.ipc > 0
        assert "l4_miss_rate" in report.extra
        assert isinstance(report.as_dict(), dict)

    def test_compare_runs_orientation(self, tiny_config):
        baseline = System(tiny_config.with_zeroing("nontemporal"),
                          shredder=False)
        baseline.run_single(trivial_task())
        shredder = System(tiny_config.with_zeroing("shred"), shredder=True)
        shredder.run_single(trivial_task())
        result = compare_runs(baseline.report(), shredder.report(), "t")
        assert result.workload == "t"
        assert result.write_savings >= 0
        with pytest.raises(SimulationError):
            compare_runs(shredder.report(), baseline.report())

    def test_means(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        assert geometric_mean([1.0, 4.0]) == 2.0
        assert arithmetic_mean([]) == 0.0
        with pytest.raises(SimulationError):
            geometric_mean([0.0])


class TestMemsetExperiment:
    def test_first_memset_slower(self, tiny_config):
        system = System(tiny_config.with_zeroing("nontemporal"),
                        shredder=False)
        timing = memset_experiment(system, 32 * 4096)
        assert timing.first_ns > timing.second_ns, \
            "first memset pays faults + kernel zeroing"
        assert timing.fault_ns > 0
        assert 0 < timing.kernel_fraction < 1

    def test_shredder_shrinks_fault_share(self, tiny_config):
        base = System(tiny_config.with_zeroing("nontemporal"), shredder=False)
        base_timing = memset_experiment(base, 32 * 4096)
        shred = System(tiny_config.with_zeroing("shred"), shredder=True)
        shred_timing = memset_experiment(shred, 32 * 4096)
        assert shred_timing.kernel_zeroing_ns < base_timing.kernel_zeroing_ns
        assert shred_timing.first_ns < base_timing.first_ns
