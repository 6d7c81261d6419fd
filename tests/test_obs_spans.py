"""Span tracing: nesting, durations, span identity, and the
trace-replay integration."""

import io
import os
import threading

from repro.obs import SpanTracer, default_tracer, span


def fake_clock(step=10):
    state = {"now": 0}

    def clock():
        state["now"] += step
        return state["now"]

    return clock


class TestSpanTracer:
    def test_nesting_records_parent_and_depth(self):
        tracer = SpanTracer(clock=fake_clock())
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        records = {r.name: r for r in tracer.records}
        assert records["a"].parent_index is None and records["a"].depth == 0
        assert records["b"].parent_index == records["a"].index
        assert records["c"].depth == 2
        assert records["d"].parent_index == records["a"].index

    def test_durations_from_injected_clock(self):
        tracer = SpanTracer(clock=fake_clock(step=10))
        with tracer.span("outer"):       # start=10
            with tracer.span("inner"):   # start=20, end=30
                pass
        inner, outer = None, None
        for record in tracer.records:
            if record.name == "inner":
                inner = record
            else:
                outer = record
        assert inner.duration_ns == 10
        assert outer.duration_ns == 30  # 40 - 10
        assert outer.duration_ns >= inner.duration_ns

    def test_attrs_settable_inside_span(self):
        tracer = SpanTracer(clock=fake_clock())
        with tracer.span("work", attrs={"planned": 5}) as record:
            record.attrs["actual"] = 7
        assert tracer.records[0].attrs == {"planned": 5, "actual": 7}

    def test_current_tracks_innermost(self):
        tracer = SpanTracer(clock=fake_clock())
        assert tracer.current() is None
        with tracer.span("a"):
            assert tracer.current().name == "a"
            with tracer.span("b"):
                assert tracer.current().name == "b"
            assert tracer.current().name == "a"
        assert tracer.current() is None

    def test_threads_get_independent_stacks(self):
        tracer = SpanTracer(clock=fake_clock())
        seen = {}

        def worker():
            with tracer.span("thread-root"):
                seen["depth"] = tracer.current().depth

        with tracer.span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["depth"] == 0       # not nested under main-root

    def test_clear(self):
        tracer = SpanTracer(clock=fake_clock())
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.records == []

    def test_spans_carry_trace_and_span_ids(self):
        """The dump keys ``trace_id``/``span_id``/``parent_span_id``/
        ``pid`` stay: one trace per tracer, a child names its parent."""
        tracer = SpanTracer(clock=fake_clock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.snapshot()
        assert outer["trace_id"] == inner["trace_id"] == tracer.trace_id
        assert outer["span_id"] != inner["span_id"]
        assert "parent_span_id" not in outer
        assert inner["parent_span_id"] == outer["span_id"]
        assert outer["pid"] == inner["pid"] == os.getpid()
        assert "process" not in outer


class TestModuleLevelSpan:
    def test_default_tracer_records(self):
        tracer = default_tracer()
        before = len(tracer.records)
        with span("test.module_span"):
            pass
        assert any(r.name == "test.module_span"
                   for r in tracer.records[before:])


class TestTraceReplaySpans:
    def test_replay_records_a_span_with_event_count(self, tiny_config):
        from repro.runtime.trace import TraceRecorder, load_trace, replay_trace
        from repro.sim import System

        source = System(tiny_config, shredder=True, name="rec")
        recorder = TraceRecorder(source.new_context(0))
        base = recorder.malloc(4096)
        recorder.store_u64(base, 42)
        recorder.load_u64(base)

        tracer = default_tracer()
        before = len(tracer.records)
        stream = io.StringIO()
        recorder.dump(stream)
        stream.seek(0)
        events = load_trace(stream)
        target = System(tiny_config, shredder=True, name="replay")
        count = replay_trace(target.new_context(0), events)
        new = [r for r in tracer.records[before:] if r.name == "trace.replay"]
        assert len(new) == 1
        assert new[0].attrs["events"] == count == 3
        dumps = [r for r in tracer.records[before:] if r.name == "trace.dump"]
        assert len(dumps) == 1 and dumps[0].attrs["events"] == 3
