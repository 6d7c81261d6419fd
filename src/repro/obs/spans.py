"""Lightweight span tracing: named, nested, attributed durations.

A span brackets one logical operation (``fig12.run``, ``exec.batch``,
``trace.replay``); spans opened inside it nest, recording parent and
depth, so an exported trace reconstructs the call tree. Spans are
wall-clock (``time.perf_counter_ns``) — they time the *toolchain*, not
the simulated machine, complementing the simulated-time metrics in the
registry.

Usage::

    from repro.obs import span

    with span("fig12.run", attrs={"sizes": 6}) as record:
        ...
        record.attrs["rows"] = len(rows)   # attrs may be set late

Records accumulate in a :class:`SpanTracer` (module default, or pass
``tracer=``). Every tracer owns a ``trace_id`` and every span a
``span_id`` (its parent's is ``parent_span_id``), and each record
stamps the recording process's ``pid``, which the trace-event exporter
uses as the record's lane.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


def _new_trace_id() -> str:
    return uuid.uuid4().hex


def _new_span_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass
class SpanRecord:
    """One finished (or still-open) span."""

    name: str
    index: int                      # position in the tracer's record list
    parent_index: Optional[int]     # None for a root span
    depth: int                      # 0 for a root span
    start_ns: int
    duration_ns: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_span_id: Optional[str] = None
    pid: Optional[int] = None
    process: Optional[str] = None           # lane name, in older dumps

    def to_dict(self) -> Dict[str, Any]:
        doc = {"name": self.name, "index": self.index,
               "parent_index": self.parent_index, "depth": self.depth,
               "start_ns": self.start_ns, "duration_ns": self.duration_ns,
               "attrs": dict(self.attrs)}
        for key in ("trace_id", "span_id", "parent_span_id", "pid",
                    "process"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        return doc


class SpanTracer:
    """Collects spans; keeps a per-thread stack for nesting.

    ``trace_id`` identifies the whole trace (generated with the first
    span). The pid is stamped per span, so records survive forks with
    the right identity.
    """

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._records: List[SpanRecord] = []
        self._trace_id: Optional[str] = None

    # -- trace identity ------------------------------------------------------------

    @property
    def trace_id(self) -> str:
        with self._lock:
            if self._trace_id is None:
                self._trace_id = _new_trace_id()
            return self._trace_id

    # -- the per-thread open-span stack -------------------------------------------

    def _stack(self) -> List[SpanRecord]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[SpanRecord]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- span lifecycle ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str,
             attrs: Optional[Dict[str, Any]] = None) -> Iterator[SpanRecord]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            if self._trace_id is None:
                self._trace_id = _new_trace_id()
            record = SpanRecord(
                name=name, index=len(self._records),
                parent_index=None if parent is None else parent.index,
                depth=0 if parent is None else parent.depth + 1,
                start_ns=self._clock(), attrs=dict(attrs or {}),
                trace_id=self._trace_id, span_id=_new_span_id(),
                parent_span_id=None if parent is None else parent.span_id,
                pid=os.getpid())
            self._records.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record.duration_ns = self._clock() - record.start_ns
            stack.pop()

    # -- export --------------------------------------------------------------------

    @property
    def records(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._records)

    def snapshot(self) -> List[Dict[str, Any]]:
        return [record.to_dict() for record in self.records]

    def to_trace_events(self, *, pid: int = 0,
                        process_name: str = "repro") -> Dict[str, Any]:
        """The recorded spans as a ``chrome://tracing`` JSON document."""
        from .exporters import to_trace_events
        return to_trace_events(self.snapshot(), pid=pid,
                               process_name=process_name)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._trace_id = None


_default_tracer = SpanTracer()


def default_tracer() -> SpanTracer:
    """The process-wide tracer :func:`span` records into by default."""
    return _default_tracer


def span(name: str, attrs: Optional[Dict[str, Any]] = None, *,
         tracer: Optional[SpanTracer] = None):
    """Open a span on the given (default: process-wide) tracer."""
    return (tracer if tracer is not None else _default_tracer).span(
        name, attrs)
