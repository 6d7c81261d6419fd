"""Typed metric instruments and the registry that owns them.

The registry is the telemetry layer's source of truth: every component
that wants to expose a number registers an instrument under a
hierarchical dotted name (``mem.nvm.writes``, ``cache.counter.hits``,
``exec.task.duration_ns``) and mutates it as events happen. Three
instrument kinds cover the stack:

* :class:`Counter` — monotonically increasing totals (writes, hits,
  retries). Supports fractional amounts so energy/latency sums fit.
* :class:`Gauge` — a value that can move both ways (resident cache
  entries, live workers). Merges take the maximum, so merged gauges
  are order-independent high-water marks.
* :class:`Histogram` — fixed-bucket distributions (latency bins);
  cumulative bucket counts, Prometheus style.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain sorted dicts of
JSON scalars, so they cross process boundaries unchanged, and
:func:`merge_snapshots` combines them deterministically — the property
that lets a parallel sweep merge per-report registries into exactly
the totals a serial run would have produced.

Pull-style sources (plain stats fields, such as every simulator
statistic) attach through :meth:`MetricsRegistry.register_collector`;
collectors run at snapshot time, receive the registry, and publish via
:meth:`Counter.set_total` / :meth:`Gauge.set` /
:meth:`Histogram.set_counts`, keeping the registry current without
instrumenting every increment site. Because the registry is passed in,
a collector need not reference it, so no reference cycle keeps a
finished source alive.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from ..clock import DEFAULT_LATENCY_BUCKETS_NS
from ..errors import ObservabilityError

#: Hierarchical instrument names: lowercase dotted segments.
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")

#: The sentinel upper bound of a histogram's overflow bucket.
INF = "+Inf"

#: Wall-clock bins (ns) for toolchain-side histograms (task/batch
#: durations): 1 ms up to a minute.
DEFAULT_DURATION_BUCKETS_NS: Tuple[float, ...] = (
    1e6, 5e6, 1e7, 5e7, 1e8, 5e8, 1e9, 5e9, 1e10, 6e10)

Number = Union[int, float]


def check_name(name: str) -> str:
    """Validate a hierarchical instrument name, returning it."""
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ObservabilityError(
            f"bad instrument name {name!r}; use lowercase dotted segments "
            "like 'mem.nvm.writes'")
    return name


class Instrument:
    """Base: a named, typed measurement owned by one registry."""

    kind = "instrument"

    def __init__(self, name: str, *, unit: str = "",
                 description: str = "",
                 lock: Optional[threading.Lock] = None) -> None:
        self.name = check_name(name)
        self.unit = unit
        self.description = description
        self._lock = lock if lock is not None else threading.Lock()

    def describe(self) -> Dict[str, Any]:
        """The snapshot entry for this instrument (JSON scalars only)."""
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError


class Counter(Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, **kwargs: Any) -> None:
        super().__init__(name, **kwargs)
        self._value: Number = 0

    @property
    def value(self) -> Number:
        return self._value

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name} cannot decrease (inc by {amount})")
        with self._lock:
            self._value += amount

    def set_total(self, value: Number) -> None:
        """Collector hook: publish an externally tracked running total.

        Still monotonic — going backwards means the source was reset
        without resetting the registry, which would silently corrupt
        merged exports, so it raises instead.
        """
        with self._lock:
            if value < self._value:
                raise ObservabilityError(
                    f"counter {self.name} cannot go backwards "
                    f"({self._value} -> {value}); reset the registry when "
                    "resetting the underlying stats")
            self._value = value

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind, "unit": self.unit, "value": self._value}

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge(Instrument):
    """A value that can move both ways; merges as a high-water mark."""

    kind = "gauge"

    def __init__(self, name: str, **kwargs: Any) -> None:
        super().__init__(name, **kwargs)
        self._value: Number = 0

    @property
    def value(self) -> Number:
        return self._value

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: Number = 1) -> None:
        with self._lock:
            self._value -= amount

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind, "unit": self.unit, "value": self._value}

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Histogram(Instrument):
    """Fixed-bucket distribution with cumulative counts.

    ``buckets`` are the finite upper bounds, strictly increasing; an
    implicit ``+Inf`` overflow bucket is always appended, so ``count``
    equals the last cumulative bucket count.
    """

    kind = "histogram"

    def __init__(self, name: str, *,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_NS,
                 **kwargs: Any) -> None:
        super().__init__(name, **kwargs)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"histogram {name} buckets must be non-empty and strictly "
                f"increasing, got {buckets!r}")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)   # + overflow
        self._count = 0
        self._sum: Number = 0

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> Number:
        return self._sum

    def observe(self, value: Number) -> None:
        # The first bound >= value; past the last bound, the overflow.
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value

    def set_counts(self, counts: Sequence[int], total: Number) -> None:
        """Collector hook: publish a distribution bucketed elsewhere.

        ``counts`` holds the non-cumulative count of each bound's bucket
        with the overflow bucket last, as ``bisect_left`` over ``bounds``
        places values; ``total`` is the sum of the observed values.
        """
        if len(counts) != len(self._counts):
            raise ObservabilityError(
                f"histogram {self.name} has {len(self._counts)} buckets, "
                f"got {len(counts)} counts")
        with self._lock:
            self._counts = list(counts)
            self._count = sum(self._counts)
            self._sum = total

    def describe(self) -> Dict[str, Any]:
        cumulative = []
        running = 0
        for bound, count in zip(self.bounds, self._counts):
            running += count
            cumulative.append([bound, running])
        cumulative.append([INF, running + self._counts[-1]])
        return {"kind": self.kind, "unit": self.unit, "count": self._count,
                "sum": self._sum, "buckets": cumulative}

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0


#: A pull-style metrics source, run at snapshot time with the registry
#: to publish into.
CollectorFn = Callable[["MetricsRegistry"], None]


class MetricsRegistry:
    """Owns a namespace of instruments; snapshot/merge/reset as a unit."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Instrument] = {}
        self._collectors: List[CollectorFn] = []

    # -- registration -------------------------------------------------------------

    def _get_or_create(self, cls, name: str, **kwargs: Any) -> Instrument:
        check_name(name)
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ObservabilityError(
                        f"instrument {name!r} already registered as "
                        f"{existing.kind}, requested {cls.kind}")
                return existing
            instrument = cls(name, lock=self._lock, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, *, unit: str = "",
                description: str = "") -> Counter:
        return self._get_or_create(Counter, name, unit=unit,
                                   description=description)

    def gauge(self, name: str, *, unit: str = "",
              description: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, unit=unit,
                                   description=description)

    def histogram(self, name: str, *,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_NS,
                  unit: str = "", description: str = "") -> Histogram:
        return self._get_or_create(Histogram, name, buckets=buckets,
                                   unit=unit, description=description)

    def register_collector(self, collector: CollectorFn) -> None:
        """Attach a pull-style source, run (in order) by :meth:`snapshot`
        as ``collector(registry)``. The registry holds it strongly, so
        it keeps publishing for as long as the registry lives."""
        self._collectors.append(collector)

    # -- access -------------------------------------------------------------------

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def __iter__(self) -> Iterator[Instrument]:
        return iter([self._instruments[name]
                     for name in sorted(self._instruments)])

    def __len__(self) -> int:
        return len(self._instruments)

    # -- snapshot / merge / reset -------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A deterministic (name-sorted) plain-dict copy of every
        instrument, after running registered collectors."""
        for collector in self._collectors:
            collector(self)
        return {name: self._instruments[name].describe()
                for name in sorted(self._instruments)}

    def merge_snapshot(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        """Fold a snapshot (e.g. a report's) into this registry's
        instruments: counters and histograms add, gauges take the max."""
        for name in sorted(snapshot or {}):
            entry = snapshot[name]
            kind = entry.get("kind")
            if kind == Counter.kind:
                self.counter(name, unit=entry.get("unit", "")).inc(
                    entry.get("value", 0))
            elif kind == Gauge.kind:
                gauge = self.gauge(name, unit=entry.get("unit", ""))
                gauge.set(max(gauge.value, entry.get("value", 0)))
            elif kind == Histogram.kind:
                self._merge_histogram(name, entry)
            else:
                raise ObservabilityError(
                    f"cannot merge unknown instrument kind {kind!r} "
                    f"for {name!r}")

    def _merge_histogram(self, name: str, entry: Dict[str, Any]) -> None:
        buckets = entry.get("buckets") or []
        bounds = tuple(float(le) for le, _ in buckets if le != INF)
        histogram = self.histogram(
            name, buckets=bounds or DEFAULT_LATENCY_BUCKETS_NS,
            unit=entry.get("unit", ""))
        if histogram.bounds != bounds:
            raise ObservabilityError(
                f"histogram {name!r} bucket mismatch: registry has "
                f"{histogram.bounds}, snapshot has {bounds}")
        with self._lock:
            previous = 0
            for index, (_le, cumulative) in enumerate(buckets):
                histogram._counts[index] += cumulative - previous
                previous = cumulative
            histogram._count += entry.get("count", 0)
            histogram._sum += entry.get("sum", 0)

    def reset(self) -> None:
        """Zero every instrument (the registry keeps its registrations)."""
        for instrument in self._instruments.values():
            instrument.reset()


def merge_snapshots(*snapshots: Dict[str, Dict[str, Any]],
                    ) -> Dict[str, Dict[str, Any]]:
    """Pure-dict merge of any number of snapshots (see
    :meth:`MetricsRegistry.merge_snapshot` for the per-kind rules).
    Order-independent for counters/histograms/gauges, so serial and
    parallel sweeps merge to identical totals."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry.snapshot()
