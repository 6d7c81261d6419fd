"""``repro.obs`` — the unified telemetry layer.

Zero-dependency metrics and tracing threaded through the whole stack:

* :class:`MetricsRegistry` with typed instruments (:class:`Counter`,
  :class:`Gauge`, :class:`Histogram`) under hierarchical names
  (``mem.nvm.writes``, ``cache.counter.hits``, ``exec.task.*``).
  Every :class:`~repro.sim.System` owns one; its snapshot rides on the
  :class:`~repro.sim.system.SystemReport` so metrics cross the result
  cache and the fork pool for free.
* :func:`span` tracing for toolchain wall time (batch dispatch, trace
  replay), collected by a :class:`SpanTracer`.
* :class:`EventRecorder` — the flight recorder: a bounded,
  deterministic log of the sim core's security-relevant transitions
  (shreds, zero-fill elisions, counter overflows), embedded per-run in
  reports and surfaced by ``repro events``.
* Exporters: JSON-lines dumps (``--emit-metrics``), Prometheus text
  (``repro stats --format prom`` over a dump), chrome://tracing trace
  events, and the ``repro stats`` table.

See ``docs/OBSERVABILITY.md`` for the naming scheme and formats.
"""

from .events import (DEFAULT_EVENT_CAPACITY, EVENT_KINDS, EventRecorder,
                     filter_events, format_event, write_events_jsonl)
from .exporters import (DUMP_FORMAT, MetricsDump, metrics_rows, read_jsonl,
                        render_metrics_table, render_spans_table,
                        to_prometheus, to_trace_events, write_jsonl)
from .registry import (DEFAULT_DURATION_BUCKETS_NS,
                       DEFAULT_LATENCY_BUCKETS_NS, INF, Counter, Gauge,
                       Histogram, Instrument, MetricsRegistry, check_name,
                       merge_snapshots)
from .spans import SpanRecord, SpanTracer, default_tracer, span

__all__ = [
    "Counter",
    "DEFAULT_DURATION_BUCKETS_NS",
    "DEFAULT_EVENT_CAPACITY",
    "DEFAULT_LATENCY_BUCKETS_NS",
    "DUMP_FORMAT",
    "EVENT_KINDS",
    "EventRecorder",
    "Gauge",
    "Histogram",
    "INF",
    "Instrument",
    "MetricsDump",
    "MetricsRegistry",
    "SpanRecord",
    "SpanTracer",
    "check_name",
    "default_tracer",
    "filter_events",
    "format_event",
    "merge_snapshots",
    "metrics_rows",
    "read_jsonl",
    "render_metrics_table",
    "render_spans_table",
    "span",
    "to_prometheus",
    "to_trace_events",
    "write_events_jsonl",
    "write_jsonl",
]
