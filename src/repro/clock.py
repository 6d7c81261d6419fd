"""Simulated time: the ``now_ns`` contract and the latency histogram bins.

There is no ambient clock. Every datapath method (the controllers'
``fetch_block``/``store_block``/``get_counters``/``flush_counters``,
``MemoryController.read_block``/``write_block``, ``shred_page``, the
cache hierarchy, ``Machine.load``/``store``) takes the simulated time of
its transaction as one explicit ``now_ns: float = 0.0`` argument, and
the caller (a core's clock, the kernel, a zeroing engine) passes it on.
Times are simulated nanoseconds, never read from the host (analyzer
rule REPRO101 forbids wall clocks in simulation layers).
"""

from __future__ import annotations

from typing import Tuple

#: Default latency bins (ns) of simulator-side histograms: powers of two
#: from an L1-ish hit to well past an NVM page re-encryption. The
#: controller buckets ``mem.ctrl.read_latency_ns`` by these (it may not
#: import :mod:`repro.obs`, which re-exports them).
DEFAULT_LATENCY_BUCKETS_NS: Tuple[float, ...] = (
    25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0, 12800.0)
