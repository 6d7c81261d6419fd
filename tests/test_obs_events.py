"""The flight recorder: coalescing, the capacity bound, export, and
embedding in the system report."""

import io
import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (EVENT_KINDS, EventRecorder, filter_events,
                       format_event, write_events_jsonl)
from repro.sim import System


class TestEventRecorder:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ObservabilityError, match="unknown event kind"):
            EventRecorder().emit("meltdown", 0, 0)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ObservabilityError):
            EventRecorder(capacity=-1)

    def test_records_are_json_safe_and_ordered(self):
        recorder = EventRecorder()
        recorder.emit("shred", 3, 100)
        recorder.emit("zero_fill", 3, 150)
        recorder.emit("minor_overflow", 1, 200, block=7)
        snapshot = recorder.snapshot()
        assert [e["kind"] for e in snapshot] \
            == ["shred", "zero_fill", "minor_overflow"]
        assert snapshot[2]["block"] == 7
        assert "block" not in snapshot[0]
        json.dumps(snapshot)        # must not raise

    def test_coalescing_sums_counts_keeps_first_time(self):
        recorder = EventRecorder()
        recorder.emit("zero_fill", 5, 100)
        recorder.emit("zero_fill", 5, 200, count=3)
        assert recorder.snapshot() == [
            {"kind": "zero_fill", "page": 5, "time_ns": 100, "count": 4}]
        assert recorder.emitted == 4 and recorder.recorded == 1

    def test_block_breaks_coalescing(self):
        recorder = EventRecorder()
        recorder.emit("shredded_writeback", 5, 100, block=0)
        recorder.emit("shredded_writeback", 5, 110, block=1)
        assert recorder.recorded == 2

    def test_integral_float_time_serialises_as_int(self):
        recorder = EventRecorder()
        recorder.emit("shred", 0, 5.0)
        recorder.emit("shred", 1, 5.5)
        lines = [format_event(e) for e in recorder.snapshot()]
        assert '"time_ns":5' in lines[0]
        assert '"time_ns":5.5' in lines[1]

    def test_capacity_bound(self):
        recorder = EventRecorder(capacity=2)
        for page in range(5):
            recorder.emit("shred", page, page)
        assert recorder.recorded == 2
        assert recorder.dropped == 3
        assert recorder.emitted == 5

    def test_coalescing_into_a_dropped_tail(self):
        # The capacity bound must not change which emissions coalesce:
        # a repeat of a dropped record still folds into it instead of
        # counting as a new distinct record.
        recorder = EventRecorder(capacity=1)
        recorder.emit("shred", 0, 0)        # kept
        recorder.emit("shred", 1, 1)        # dropped: past capacity
        recorder.emit("shred", 1, 2)        # coalesces into the drop
        recorder.emit("shred", 2, 3)        # dropped
        assert [e["page"] for e in recorder.snapshot()] == [0]
        assert recorder.emitted == 4 and recorder.dropped == 2

    def test_clear(self):
        recorder = EventRecorder()
        recorder.emit("shred", 0, 0)
        recorder.clear()
        assert recorder.snapshot() == []
        assert (recorder.emitted, recorder.recorded, recorder.dropped) \
            == (0, 0, 0)

    def test_snapshot_is_a_copy(self):
        recorder = EventRecorder()
        recorder.emit("shred", 0, 0)
        recorder.snapshot()[0]["page"] = 99
        assert recorder.snapshot()[0]["page"] == 0


class TestExport:
    EVENTS = [{"kind": "shred", "page": 1, "time_ns": 10, "count": 1},
              {"kind": "zero_fill", "page": 2, "time_ns": 20, "count": 8}]

    def test_format_event_is_canonical(self):
        assert format_event(self.EVENTS[0]) \
            == '{"count":1,"kind":"shred","page":1,"time_ns":10}'

    def test_filter_none_passes_everything(self):
        assert list(filter_events(self.EVENTS, None)) == self.EVENTS

    def test_filter_matches_rendered_line(self):
        kept = list(filter_events(self.EVENTS, '"kind":"zero_fill"'))
        assert [e["page"] for e in kept] == [2]

    def test_write_events_jsonl_counts_lines(self):
        stream = io.StringIO()
        assert write_events_jsonl(self.EVENTS, stream) == 2
        lines = stream.getvalue().splitlines()
        assert [json.loads(line)["kind"] for line in lines] \
            == ["shred", "zero_fill"]


def shred_heavy_system(config, *, pages=4):
    """Store to every block of a few pages, shred them, then read them
    back: each shred and each zero-filled read lands in the event log."""
    system = System(config, shredder=True, name="events")
    ctx = system.new_context(0)
    size = pages * config.kernel.page_size
    base = ctx.malloc(size)
    for offset in range(0, size, config.block_size):
        ctx.store_u64(base + offset, offset + 1)
    ctx.shred(base, pages)
    for offset in range(0, size, config.block_size):
        ctx.load_u64(base + offset)
    return system


class TestReportEmbedding:
    def test_events_reach_the_report_and_round_trip(self, tiny_config):
        from repro.sim.system import SystemReport
        report = shred_heavy_system(tiny_config).report()
        kinds = {e["kind"] for e in report.events}
        assert "shred" in kinds and "zero_fill" in kinds
        for event in report.events:
            assert event["kind"] in EVENT_KINDS
        clone = SystemReport.from_dict(
            json.loads(json.dumps(report.to_dict())))
        assert clone.events == report.events
        assert clone.to_dict() == report.to_dict()

    def test_obs_counters_published(self, tiny_config):
        system = shred_heavy_system(tiny_config)
        snapshot = system.metrics.snapshot()
        events = system.events
        assert snapshot["obs.events.emitted"]["value"] == events.emitted > 0
        assert snapshot["obs.events.recorded"]["value"] == events.recorded
        assert snapshot["obs.events.dropped"]["value"] == events.dropped

    def test_reset_stats_discards_warmup_events(self, tiny_config):
        system = shred_heavy_system(tiny_config)
        assert system.events.recorded > 0
        system.reset_stats()
        assert system.report().events == []
