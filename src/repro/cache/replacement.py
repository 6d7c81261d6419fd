"""Replacement policies for set-associative caches.

Each policy manages victim selection within one cache (all sets). The
interface is deliberately tiny — touch on every access, choose a victim
among the valid ways of a set — so policies stay interchangeable.

A cache binds its policy to its geometry (:meth:`ReplacementPolicy.bind`)
before first use. The stamp-ordered policies (LRU, FIFO) then keep a
flat ``array('q')`` of stamps indexed ``set * assoc + way``: a stamp of
``0`` means "never touched", and ties break on the lowest way index
(matching ``min`` over ways in ascending order).
"""

from __future__ import annotations

import abc
import random
from array import array
from typing import List

from ..errors import ConfigError


class ReplacementPolicy(abc.ABC):
    """Victim selection strategy for one cache."""

    name = "abstract"

    def bind(self, num_sets: int, associativity: int) -> None:
        """Attach the policy to a cache geometry (default: no state,
        nothing to do)."""

    @abc.abstractmethod
    def touch(self, set_index: int, way: int) -> None:
        """Record a hit or fill of ``way`` in ``set_index``."""

    @abc.abstractmethod
    def victim(self, set_index: int, ways: List[int]) -> int:
        """Choose which of the candidate ``ways`` to evict."""

    def forget(self, set_index: int, way: int) -> None:
        """A line was invalidated; drop its bookkeeping (optional)."""


class _StampPolicy(ReplacementPolicy):
    """Shared machinery for stamp-ordered policies (LRU, FIFO)."""

    def __init__(self) -> None:
        self._clock = 0
        self._assoc = 0
        self.stamps = array("q")

    def bind(self, num_sets: int, associativity: int) -> None:
        self._assoc = associativity
        self.stamps = array("q", bytes(8 * num_sets * associativity))

    def victim(self, set_index: int, ways: List[int]) -> int:
        base = set_index * self._assoc
        stamps = self.stamps
        best = ways[0]
        best_stamp = stamps[base + best]
        for way in ways[1:]:
            stamp = stamps[base + way]
            if stamp < best_stamp:
                best, best_stamp = way, stamp
        return best

    def forget(self, set_index: int, way: int) -> None:
        self.stamps[set_index * self._assoc + way] = 0


class LRUPolicy(_StampPolicy):
    """Least-recently-used: victim is the way with the oldest touch."""

    name = "lru"

    def touch(self, set_index: int, way: int) -> None:
        self._clock += 1
        self.stamps[set_index * self._assoc + way] = self._clock


class FIFOPolicy(_StampPolicy):
    """First-in-first-out: victim is the way filled earliest."""

    name = "fifo"

    def touch(self, set_index: int, way: int) -> None:
        # Only the fill establishes order; hits do not refresh it.
        index = set_index * self._assoc + way
        if self.stamps[index]:
            return
        self._clock += 1
        self.stamps[index] = self._clock


class RandomPolicy(ReplacementPolicy):
    """Uniformly random victim (seeded for reproducibility)."""

    name = "random"

    def __init__(self, seed: int = 0xC0FFEE) -> None:
        self._rng = random.Random(seed)

    def touch(self, set_index: int, way: int) -> None:
        pass

    def victim(self, set_index: int, ways: List[int]) -> int:
        return self._rng.choice(ways)


def make_replacement(name: str) -> ReplacementPolicy:
    """Instantiate a replacement policy by config name."""
    if name == "lru":
        return LRUPolicy()
    if name == "fifo":
        return FIFOPolicy()
    if name == "random":
        return RandomPolicy()
    raise ConfigError(f"unknown replacement policy {name!r}")
