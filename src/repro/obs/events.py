"""The flight recorder: a bounded, deterministic sim event log.

The registry's counters say *how many* security-relevant transitions a
run took; this module records *which* ones, in order — the structured
event log production controllers keep next to their aggregate
telemetry. Five kinds cover Silent Shredder's state machine:

``shred``
    A shred command retired against a page (``ShredRegister`` write).
``zero_fill``
    A read served all-zero without touching the NVM device — the
    paper's Figure 7 step 3b elision.
``minor_overflow``
    A write found its per-block minor counter saturated and forced a
    page re-encryption.
``iv_regen``
    A page's IVs were regenerated under a bumped major counter
    (re-encryption), whether a shred policy or an overflow caused it.
``shredded_writeback``
    A dirty line landed on a block still carrying the reserved
    shredded minor value — the first write that "un-shreds" it.

Every event is a JSON-safe dict ``{"kind", "page", "time_ns",
"count"}`` plus an optional ``"block"``. Events are **deterministic
simulation state**: the recorder is driven only by simulated accesses
and simulated time, never the wall clock, so the log embeds in
:class:`~repro.sim.system.SystemReport` and stays byte-identical
across hosts and ``jobs`` counts.

Two mechanisms keep the log bounded without breaking that identity:

* **Coalescing** — an emission that matches the tail record's
  ``(kind, page, block)`` folds into it (``count`` accumulates, the
  first ``time_ns`` wins).
* **Sampling and capacity** — after coalescing, every
  ``sample_every``-th distinct record is kept, up to ``capacity``
  records; the rest only bump ``dropped``. Both are pure functions of
  the emission stream, so identical streams produce identical logs.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from ..errors import ObservabilityError

#: The documented event kinds, in no particular order.
EVENT_KINDS = ("shred", "zero_fill", "minor_overflow", "iv_regen",
               "shredded_writeback")

#: Default record bound; a shred-heavy benchmark run stays well inside.
DEFAULT_EVENT_CAPACITY = 4096

_KIND_SET = frozenset(EVENT_KINDS)

Number = Union[int, float]


def _json_time(value: Number) -> Number:
    """Normalise a sim timestamp so int and integral float serialise
    identically (``5`` vs ``5.0`` would break byte-identity)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


class EventRecorder:
    """Collects sim events; bounded, sampled, and coalescing.

    Single-writer by design — the simulator core is single-threaded
    per :class:`~repro.sim.System`, and the hot path must stay cheap —
    so there is no lock; readers (``snapshot``) run between accesses.
    """

    def __init__(self, *, capacity: int = DEFAULT_EVENT_CAPACITY,
                 sample_every: int = 1) -> None:
        if capacity < 0:
            raise ObservabilityError(
                f"event recorder capacity must be >= 0, got {capacity}")
        if sample_every < 1:
            raise ObservabilityError(
                f"event recorder sample_every must be >= 1, "
                f"got {sample_every}")
        self.capacity = int(capacity)
        self.sample_every = int(sample_every)
        self._records: List[Dict[str, Any]] = []
        self._tail: Optional[Dict[str, Any]] = None
        self._seq = 0           # distinct (post-coalescing) records seen
        self._emitted = 0       # total event count, including coalesced
        self._dropped = 0       # distinct records lost to sampling/capacity

    # -- emission -----------------------------------------------------------------

    def emit(self, kind: str, page: int, time_ns: Number, *,
             block: Optional[int] = None, count: int = 1) -> None:
        """Record ``count`` occurrences of one transition.

        Coalesces into the tail record when ``(kind, page, block)``
        match — even when that record was itself dropped, so sampling
        cannot change which emissions coalesce.
        """
        if kind not in _KIND_SET:
            raise ObservabilityError(
                f"unknown event kind {kind!r}; expected one of "
                f"{EVENT_KINDS}")
        tail = self._tail
        if tail is not None and tail["kind"] == kind \
                and tail["page"] == page and tail.get("block") == block:
            tail["count"] += count
            self._emitted += count
            return
        record: Dict[str, Any] = {"kind": kind, "page": int(page),
                                  "time_ns": _json_time(time_ns),
                                  "count": int(count)}
        if block is not None:
            record["block"] = int(block)
        self._seq += 1
        self._emitted += count
        if (self._seq - 1) % self.sample_every == 0 \
                and len(self._records) < self.capacity:
            self._records.append(record)
        else:
            self._dropped += 1
        self._tail = record

    # -- introspection ------------------------------------------------------------

    @property
    def emitted(self) -> int:
        """Total events emitted (coalesced occurrences included)."""
        return self._emitted

    @property
    def recorded(self) -> int:
        """Records currently held."""
        return len(self._records)

    @property
    def dropped(self) -> int:
        """Distinct records lost to sampling or the capacity bound."""
        return self._dropped

    def snapshot(self) -> List[Dict[str, Any]]:
        """A JSON-safe copy of the retained records, in sim order."""
        return [dict(record) for record in self._records]

    def clear(self) -> None:
        self._records.clear()
        self._tail = None
        self._seq = 0
        self._emitted = 0
        self._dropped = 0


# ---------------------------------------------------------------------------
# Export and filtering (the `repro events` surface)
# ---------------------------------------------------------------------------

def format_event(event: Dict[str, Any]) -> str:
    """One event as a canonical (sorted, compact) JSON line."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def filter_events(events: Iterable[Dict[str, Any]],
                  match: Optional[str] = None) -> Iterator[Dict[str, Any]]:
    """Yield events whose canonical JSON line contains ``match``.

    ``match=None`` (or empty) passes everything through, so callers
    can pipe the same code path for filtered and unfiltered dumps.
    """
    for event in events:
        if not match or match in format_event(event):
            yield event


def write_events_jsonl(events: Iterable[Dict[str, Any]], stream,
                       match: Optional[str] = None) -> int:
    """Write events as JSON-lines; returns the number of lines."""
    lines = 0
    for event in filter_events(events, match):
        stream.write(format_event(event) + "\n")
        lines += 1
    return lines
