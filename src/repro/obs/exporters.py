"""Exporters: JSON-lines dumps, Prometheus text, human tables.

One dump format crosses every boundary — the JSON-lines *metrics dump*
written by ``--emit-metrics`` and read back by ``repro stats``:

* one ``{"record": "meta", ...}`` header line,
* one ``{"record": "metric", "name": ..., ...}`` line per instrument
  (the instrument's snapshot entry, flattened), and
* one ``{"record": "span", ...}`` line per recorded span.

The Prometheus exporter renders a snapshot in the text exposition
format (dots become underscores; histograms expose cumulative
``_bucket{le=...}`` series plus ``_sum``/``_count``), so a dump can be
dropped into any Prometheus-compatible scraper or pushgateway.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Any, Dict, List, Optional, Sequence

from ..errors import ObservabilityError
from .registry import INF

#: Version stamp on the first line of every JSON-lines dump.
DUMP_FORMAT = 1


def write_jsonl(snapshot: Dict[str, Dict[str, Any]], stream: IO[str], *,
                spans: Optional[List[Dict[str, Any]]] = None,
                meta: Optional[Dict[str, Any]] = None) -> int:
    """Write one metrics dump; returns the number of lines written."""
    lines = 0
    header = {"record": "meta", "format": DUMP_FORMAT}
    header.update(meta or {})
    stream.write(json.dumps(header, sort_keys=True) + "\n")
    lines += 1
    for name in sorted(snapshot):
        entry = dict(snapshot[name])
        entry.update({"record": "metric", "name": name})
        stream.write(json.dumps(entry, sort_keys=True) + "\n")
        lines += 1
    for record in spans or []:
        entry = dict(record)
        entry["record"] = "span"
        stream.write(json.dumps(entry, sort_keys=True) + "\n")
        lines += 1
    return lines


@dataclass
class MetricsDump:
    """A parsed JSON-lines dump: snapshot + spans + meta."""

    meta: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)


def read_jsonl(stream: IO[str]) -> MetricsDump:
    """Parse a dump written by :func:`write_jsonl`."""
    dump = MetricsDump()
    for line_number, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as error:
            raise ObservabilityError(
                f"metrics dump line {line_number} is not JSON: {error}")
        kind = record.get("record")
        if kind == "meta":
            dump.meta = {k: v for k, v in record.items() if k != "record"}
        elif kind == "metric":
            name = record.get("name")
            if not name:
                raise ObservabilityError(
                    f"metrics dump line {line_number}: metric without a name")
            dump.metrics[name] = {k: v for k, v in record.items()
                                  if k not in ("record", "name")}
        elif kind == "span":
            dump.spans.append({k: v for k, v in record.items()
                               if k != "record"})
        else:
            raise ObservabilityError(
                f"metrics dump line {line_number}: unknown record "
                f"kind {kind!r}")
    return dump


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_value(value: Any) -> str:
    if isinstance(value, float) and value == int(value) \
            and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def to_prometheus(snapshot: Dict[str, Dict[str, Any]]) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: List[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry.get("kind", "untyped")
        flat = _prom_name(name)
        lines.append(f"# TYPE {flat} {kind}")
        if kind == "histogram":
            for le, cumulative in entry.get("buckets", []):
                label = INF if le == INF else _prom_value(float(le))
                lines.append(f'{flat}_bucket{{le="{label}"}} '
                             f"{_prom_value(cumulative)}")
            lines.append(f"{flat}_sum {_prom_value(entry.get('sum', 0))}")
            lines.append(f"{flat}_count {_prom_value(entry.get('count', 0))}")
        else:
            lines.append(f"{flat} {_prom_value(entry.get('value', 0))}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Chrome trace-event export (chrome://tracing, Perfetto, speedscope)
# ---------------------------------------------------------------------------

def to_trace_events(spans: List[Dict[str, Any]], *,
                    pid: int = 0,
                    process_name: str = "repro") -> Dict[str, Any]:
    """Render span records in the Trace Event JSON format.

    Each span becomes one complete ("ph": "X") event with microsecond
    ``ts``/``dur`` (span records carry nanoseconds); the viewer nests
    events on a track from their time ranges, so the tracer's
    parent/depth structure reappears visually. Load the result in
    ``chrome://tracing`` or https://ui.perfetto.dev. Span attrs ride in
    ``args``, plus the record's index/parent_index (and, when traced
    across processes, trace_id/span_id/parent_span_id) so the exact
    tree is recoverable from the export.

    Records carrying a ``pid`` (stamped by :class:`SpanTracer`) land
    on their own process lane, named by the record's ``process`` role
    when present — a merged multi-process trace renders client,
    dispatcher, and each worker separately. Records without a ``pid``
    (pre-propagation dumps) fall back to the ``pid``/``process_name``
    arguments, preserving the legacy single-lane output.
    """
    lanes: List[int] = []               # first-seen order
    lane_names: Dict[int, Optional[str]] = {}
    for record in spans:
        lane = record.get("pid")
        lane = pid if lane is None else lane
        if lane not in lane_names:
            lanes.append(lane)
            lane_names[lane] = record.get("process")
    if not lanes:
        lanes.append(pid)
        lane_names[pid] = None
    events: List[Dict[str, Any]] = [{
        "ph": "M", "name": "process_name", "pid": lane, "tid": 0,
        "args": {"name": lane_names[lane] or process_name},
    } for lane in lanes]
    for record in spans:
        args = dict(record.get("attrs") or {})
        args["index"] = record.get("index")
        if record.get("parent_index") is not None:
            args["parent_index"] = record.get("parent_index")
        for key in ("trace_id", "span_id", "parent_span_id"):
            if record.get(key) is not None:
                args[key] = record[key]
        lane = record.get("pid")
        events.append({
            "name": record.get("name", "?"),
            "cat": "repro",
            "ph": "X",
            "ts": record.get("start_ns", 0) / 1000.0,
            "dur": record.get("duration_ns", 0) / 1000.0,
            "pid": pid if lane is None else lane,
            "tid": 0,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# Human table (the `repro stats` view)
# ---------------------------------------------------------------------------

def metrics_rows(snapshot: Dict[str, Dict[str, Any]], *,
                 prefix: str = "") -> List[Dict[str, Any]]:
    """Flatten a snapshot into table rows, optionally name-filtered."""
    rows = []
    for name in sorted(snapshot):
        if prefix and not name.startswith(prefix):
            continue
        entry = snapshot[name]
        kind = entry.get("kind", "?")
        if kind == "histogram":
            count = entry.get("count", 0)
            total = entry.get("sum", 0)
            mean = total / count if count else 0.0
            value = f"count={count} mean={mean:.1f}"
        else:
            value = entry.get("value", 0)
        rows.append({"metric": name, "kind": kind,
                     "value": value, "unit": entry.get("unit", "")})
    return rows


def _format(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def render_table(rows: List[Dict], columns: Sequence[str] = None,
                 title: str = "") -> str:
    """Render dict rows as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    header = [str(c) for c in columns]
    body = [[_format(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(header[i]), *(len(line[i]) for line in body))
              for i in range(len(columns))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for line in body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    return "\n".join(lines)


def render_metrics_table(snapshot: Dict[str, Dict[str, Any]], *,
                         prefix: str = "", title: str = "") -> str:
    return render_table(metrics_rows(snapshot, prefix=prefix),
                        columns=["metric", "kind", "value", "unit"],
                        title=title)


def render_spans_table(spans: List[Dict[str, Any]], *,
                       title: str = "") -> str:
    rows = [{
        "span": "  " * record.get("depth", 0) + record.get("name", "?"),
        "duration_ms": record.get("duration_ns", 0) / 1e6,
        "attrs": json.dumps(record.get("attrs", {}), sort_keys=True),
    } for record in spans]
    return render_table(rows, columns=["span", "duration_ms", "attrs"],
                        title=title)
