"""Simulated typed arrays with shadow values.

A :class:`SimArray` owns a region of simulated virtual memory; element
accesses generate translated, cache-timed memory traffic. Values are
mirrored in fast Python shadow storage so algorithms compute correct
results even when the machine runs in timing-only mode; in functional
mode the real bytes flow through the encrypted memory as well, and
:meth:`verify` cross-checks the two.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..errors import SimulationError
from .context import ExecutionContext


class SimArray:
    """A fixed-length array of unsigned 64-bit integers in sim memory."""

    ELEMENT_SIZE = 8

    def __init__(self, ctx: ExecutionContext, length: int,
                 name: str = "array") -> None:
        if length <= 0:
            raise SimulationError(f"array {name!r} needs positive length")
        self.ctx = ctx
        self.length = length
        self.name = name
        self.base = ctx.malloc(length * self.ELEMENT_SIZE)
        self._shadow: List[int] = [0] * length

    def _out_of_range(self, index: int) -> IndexError:
        return IndexError(f"{self.name}[{index}] out of range "
                          f"(length {self.length})")

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise self._out_of_range(index)
        ctx = self.ctx
        address = self.base + index * self.ELEMENT_SIZE
        if ctx.functional:
            return ctx.load_u64(address)
        ctx.touch(address, False)
        return self._shadow[index]

    def __setitem__(self, index: int, value: int) -> None:
        if not 0 <= index < self.length:
            raise self._out_of_range(index)
        ctx = self.ctx
        address = self.base + index * self.ELEMENT_SIZE
        self._shadow[index] = value & (1 << 64) - 1
        if ctx.functional:
            ctx.store_u64(address, value)
        else:
            ctx.touch(address, True)

    def fill(self, value: int) -> None:
        """Sequential full-array initialisation (a write-once pass)."""
        for index in range(self.length):
            self[index] = value

    def load_from(self, values: Iterable[int]) -> None:
        """Bulk-populate from an iterable (graph construction pattern)."""
        for index, value in enumerate(values):
            if index >= self.length:
                raise SimulationError(f"{self.name}: too many values")
            self[index] = value

    def shadow(self) -> List[int]:
        """The fast shadow copy (read-only use)."""
        return self._shadow

    def verify(self, sample_stride: int = 1) -> None:
        """Functional mode: assert shadow and simulated memory agree."""
        if not self.ctx.functional:
            raise SimulationError("verify() requires functional mode")
        for index in range(0, self.length, max(1, sample_stride)):
            stored = self.ctx.load_u64(self.base + index * self.ELEMENT_SIZE)
            if stored != self._shadow[index]:
                raise SimulationError(
                    f"{self.name}[{index}]: memory has {stored}, "
                    f"shadow has {self._shadow[index]}")
