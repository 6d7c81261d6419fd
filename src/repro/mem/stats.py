"""Counters collected by memory devices and controllers.

:class:`MemoryStats` keeps plain fields, incremented in place on every
block transaction; no simulator component holds a metrics registry.
The owning :class:`~repro.sim.System`'s collector publishes the NVM
device's fields as ``mem.nvm.*`` and the channel controller's as
``mem.channel.*`` when its registry is snapshotted.
"""

from __future__ import annotations

from typing import Dict

#: The summed fields of a MemoryStats.
_FIELDS = ("reads", "writes", "bytes_read", "bytes_written", "bits_written",
          "read_energy_pj", "write_energy_pj", "total_read_latency_ns",
          "total_write_latency_ns")


class MemoryStats:
    """Access counters for one device or controller.

    ``reads``/``writes`` count block transactions; ``bits_written`` counts
    actual cell programs after Data-Comparison-Write / Flip-N-Write, which
    is what endurance and write energy scale with. Every field starts at
    integer 0, so an idle device publishes ``0``, not ``0.0``.
    """

    def __init__(self) -> None:
        self.reset()

    # -- recording ----------------------------------------------------------------

    def record_read(self, nbytes: int, latency_ns: float, energy_pj: float) -> None:
        self.reads += 1
        self.bytes_read += nbytes
        self.total_read_latency_ns += latency_ns
        self.read_energy_pj += energy_pj

    def record_write(self, nbytes: int, bits_flipped: int, latency_ns: float,
                     energy_pj: float) -> None:
        self.writes += 1
        self.bytes_written += nbytes
        self.bits_written += bits_flipped
        self.total_write_latency_ns += latency_ns
        self.write_energy_pj += energy_pj

    # -- derived values -------------------------------------------------------------

    @property
    def total_energy_pj(self) -> float:
        return self.read_energy_pj + self.write_energy_pj

    @property
    def avg_read_latency_ns(self) -> float:
        return self.total_read_latency_ns / self.reads if self.reads else 0.0

    @property
    def avg_write_latency_ns(self) -> float:
        return self.total_write_latency_ns / self.writes if self.writes else 0.0

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict copy, convenient for result tables."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "bits_written": self.bits_written,
            "read_energy_pj": self.read_energy_pj,
            "write_energy_pj": self.write_energy_pj,
            "avg_read_latency_ns": self.avg_read_latency_ns,
            "avg_write_latency_ns": self.avg_write_latency_ns,
        }

    # -- aggregation --------------------------------------------------------------

    def merge(self, other: "MemoryStats") -> None:
        """Fold another instance's totals into this one (multi-channel /
        multi-device aggregation; adds, never replaces)."""
        for name in _FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def reset(self) -> None:
        """Zero every field in place."""
        self.reads = self.writes = 0
        self.bytes_read = self.bytes_written = self.bits_written = 0
        self.read_energy_pj = self.write_energy_pj = 0
        self.total_read_latency_ns = self.total_write_latency_ns = 0
