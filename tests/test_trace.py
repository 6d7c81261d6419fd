"""Trace recording, serialisation and cross-system replay."""

import io
from dataclasses import asdict

import pytest

from repro.errors import SimulationError
from repro.runtime import TraceEvent, TraceRecorder, load_trace, replay_trace
from repro.sim import System
from repro.workloads.graphs import power_law_graph
from repro.workloads.powergraph import pagerank_task
from repro.workloads.spec import SpecParams, spec_task


def record_sample(system):
    ctx = system.new_context(0)
    recorder = TraceRecorder(ctx)
    base = recorder.malloc(3 * 4096)
    recorder.store_u64(base, 111)
    recorder.store_u64(base + 4096, 222)
    recorder.compute(500)
    assert recorder.load_u64(base) == 111
    recorder.touch(base + 8192, write=True)
    recorder.memset(base + 4096, 4096)
    recorder.shred(base, 1)
    return recorder


class TestRecording:
    def test_events_captured_in_order(self, tiny_config):
        system = System(tiny_config.with_zeroing("shred"), shredder=True)
        recorder = record_sample(system)
        ops = [event.op for event in recorder.events]
        assert ops == ["malloc", "store", "store", "compute", "load",
                       "touch_w", "memset", "shred"]

    def test_passthrough_semantics(self, tiny_config):
        """Recording must not change what the workload observes."""
        system = System(tiny_config.with_zeroing("shred"), shredder=True)
        recorder = record_sample(system)
        # After the shred of page 0, its data reads back as zero.
        assert recorder.load_u64(recorder.events[0].address) == 0

    def test_proxy_exposes_context_attributes(self, tiny_config):
        system = System(tiny_config.with_zeroing("shred"), shredder=True)
        recorder = TraceRecorder(system.new_context(0))
        assert recorder.page_size == 4096
        assert recorder.core is system.cores[0]


class TestSerialisation:
    def test_dump_load_roundtrip(self, tiny_config):
        system = System(tiny_config.with_zeroing("shred"), shredder=True)
        recorder = record_sample(system)
        buffer = io.StringIO()
        count = recorder.dump(buffer)
        buffer.seek(0)
        events = load_trace(buffer)
        assert len(events) == count
        assert [e.op for e in events] == [e.op for e in recorder.events]
        assert events[1].value == 111

    def test_event_json(self):
        event = TraceEvent(op="store", address=0x1234, value=99)
        restored = TraceEvent.from_json(event.to_json())
        assert restored == event


class TestReplay:
    def test_replay_reproduces_metrics(self, timing_config):
        """Replaying a trace on an identical system yields identical
        memory-side behaviour."""
        def run(record):
            system = System(timing_config.with_zeroing("shred"),
                            shredder=True)
            ctx = system.new_context(0)
            if record:
                recorder = TraceRecorder(ctx)
                base = recorder.malloc(4 * 4096)
                for i in range(64):
                    recorder.touch(base + i * 256, write=(i % 2 == 0))
                recorder.compute(1000)
                return recorder.events, system.report()
            return system

        events, original_report = run(record=True)
        replay_system = System(timing_config.with_zeroing("shred"),
                               shredder=True)
        replay_trace(replay_system.new_context(0), events)
        replayed = replay_system.report()
        assert replayed.memory_writes == original_report.memory_writes
        assert replayed.memory_reads == original_report.memory_reads
        assert replayed.zero_fill_reads == original_report.zero_fill_reads

    def test_replay_onto_baseline_downgrades_shred(self, tiny_config):
        """A trace containing shreds still drives a baseline machine
        (shreds become memsets) — one trace, both systems."""
        source = System(tiny_config.with_zeroing("shred"), shredder=True)
        recorder = TraceRecorder(source.new_context(0))
        base = recorder.malloc(2 * 4096)
        recorder.store_u64(base, 7)
        recorder.shred(base, 2)

        target = System(tiny_config.with_zeroing("nontemporal"),
                        shredder=False)
        writes_before = target.machine.controller.stats.data_writes
        replay_trace(target.new_context(0), recorder.events)
        assert target.machine.controller.stats.data_writes > writes_before

    def test_unknown_op_rejected(self, tiny_config):
        system = System(tiny_config.with_zeroing("shred"), shredder=True)
        with pytest.raises(SimulationError):
            replay_trace(system.new_context(0),
                         [TraceEvent(op="teleport")])

    def test_unmapped_address_rejected(self, tiny_config):
        system = System(tiny_config.with_zeroing("shred"), shredder=True)
        with pytest.raises(SimulationError):
            replay_trace(system.new_context(0),
                         [TraceEvent(op="load", address=0x999999)])


class TestRecordingWorkloads:
    """Workload tasks run through a recorder as through a context, and
    replaying what it logged retires the same stream on a fresh system."""

    @staticmethod
    def record_and_replay(config, task):
        def fresh():
            return System(config.with_zeroing("shred"), shredder=True)
        source = fresh()
        recorder = TraceRecorder(source.new_context(0))
        for _ in task(recorder):
            pass
        target = fresh()
        replay_trace(target.new_context(0), recorder.events)
        assert (asdict(target.cores[0].stats)
                == asdict(source.cores[0].stats))
        assert target.report() == source.report()
        return recorder.events

    def test_spec_task(self, timing_config):
        params = SpecParams(name="tiny", alloc_pages=4,
                            init_writes_per_page=8, init_read_fraction=0.5,
                            untouched_read_fraction=0.25, steady_ops=64,
                            steady_write_ratio=0.3, compute_per_op=5)
        events = self.record_and_replay(timing_config, spec_task(params))
        ops = [event.op for event in events]
        assert ops.count("malloc") == 1
        assert {"touch_r", "touch_w", "compute"} <= set(ops)

    def test_simarray_task(self, timing_config):
        """A timing-mode SimArray touches through the recorder."""
        task = pagerank_task(power_law_graph(32, 3, seed=1), iterations=1)
        events = self.record_and_replay(timing_config, task)
        ops = {event.op for event in events}
        assert {"malloc", "touch_r", "touch_w", "compute"} <= ops
