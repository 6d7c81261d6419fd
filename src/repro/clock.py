"""Simulated-time plumbing: :class:`SimClock` and the ``at=`` contract.

Historically every datapath method on the controllers took the current
simulated time as a positional ``now_ns: float = 0.0`` argument, and
each caller threaded it by hand. The parameter is now called ``at``
and may be omitted — each controller carries a :class:`SimClock` whose
``now_ns`` is used when no explicit time is given, so engines advance
one shared clock instead of threading floats through every frame.
Positional call sites (``fetch_block(addr, t)``) bind to ``at``
unchanged.

The deprecated keyword spelling ``now_ns=`` went through its
DeprecationWarning cycle and is now **removed**: passing it raises
``TypeError`` with a migration pointer (the keyword is still accepted
syntactically on the public datapath methods so the error can explain
itself rather than surface as an inscrutable "unexpected keyword
argument").

The clock holds *simulated* nanoseconds — it is advanced explicitly by
engines, never read from the host (analyzer rule REPRO101 forbids wall
clocks in simulation layers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Default latency bins (ns) of simulator-side histograms: powers of two
#: from an L1-ish hit to well past an NVM page re-encryption. The
#: controller buckets ``mem.ctrl.read_latency_ns`` by these (it may not
#: import :mod:`repro.obs`, which re-exports them).
DEFAULT_LATENCY_BUCKETS_NS: Tuple[float, ...] = (
    25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0, 12800.0)


@dataclass
class SimClock:
    """A monotonic simulated-time source shared by one machine.

    ``now_ns`` only moves forward: :meth:`advance` adds a delta and
    :meth:`advance_to` ratchets to a later absolute time (out-of-order
    completions never rewind it).
    """

    now_ns: float = 0.0

    def advance(self, delta_ns: float) -> float:
        """Move time forward by ``delta_ns``; returns the new time."""
        if delta_ns < 0:
            raise ValueError(f"clock cannot move backwards ({delta_ns} ns)")
        self.now_ns += delta_ns
        return self.now_ns

    def advance_to(self, at_ns: float) -> float:
        """Ratchet to ``at_ns`` if it is later than now; returns now."""
        if at_ns > self.now_ns:
            self.now_ns = at_ns
        return self.now_ns

    def reset(self) -> None:
        self.now_ns = 0.0


def resolve_time(clock: Optional[SimClock], at: Optional[float],
                 now_ns: Optional[float]) -> float:
    """Pick the effective simulated time for one datapath call.

    Precedence: an explicit ``at``, then the carried clock, then 0.0 —
    the last two make the historical default (``now_ns=0.0``) the
    fallback, so callers that never pass a time see identical
    behaviour. The removed ``now_ns=`` keyword raises ``TypeError``.
    """
    if now_ns is not None:
        raise TypeError(
            "the now_ns= keyword was removed; pass the time positionally "
            "as 'at' (fetch_block(addr, t)) or let the controller's "
            "SimClock supply it")
    if at is not None:
        return at
    if clock is not None:
        return clock.now_ns
    return 0.0
