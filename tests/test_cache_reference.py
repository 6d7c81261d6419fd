"""``SetAssociativeCache`` against a transcription of its predecessor.

The cache keeps one layout: per set, an insertion-ordered dict from
resident block number to payload, least recently used first, plus one
set of dirty block numbers. The design it replaced kept per-set lists
of :class:`CacheLine` objects, an ``_index`` dict of ``(set, way)``
tuples, a per-set fill count and a separate LRU policy object with its
own stamp array; :class:`ReferenceCache` and :class:`LRUPolicy` below
transcribe it.

Hypothesis drives both through random sequences of ``lookup``,
``contains``, ``fill`` (with payload and dirty bit), ``mark_dirty``,
``invalidate`` and ``flush_all`` on 1-4 sets of 1, 2, 4 or 8 ways, over
an address range three times the capacity. After every operation the
return values, all six stats fields, the resident addresses, the
length, each set's recency order (for the reference: its resident tags
sorted by LRU stamp), the dirty blocks and every payload must match.
Mutants of ``fill`` and ``lookup`` (the victim is the set's most recent
key, a refill or a hit that does not refresh recency, an eviction that
forgets the dirty bit) must fail the suite.
"""

from __future__ import annotations

import inspect
import textwrap
from array import array
from dataclasses import astuple, dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.cache import SetAssociativeCache
from repro.cache import cache as cache_module
from repro.cache.cache import CacheStats, Eviction
from repro.config import CacheConfig

BLOCK = 64


# -- the reference: the cache before the slot-indexed layout --------------------

@dataclass
class CacheLine:
    """One resident line: tag plus dirty bit and optional payload."""

    tag: int
    dirty: bool = False
    payload: Any = None


class LRUPolicy:
    """Least-recently-used: victim is the way with the oldest touch.

    A flat ``array('q')`` of stamps indexed ``set * assoc + way``: a
    stamp of ``0`` means "never touched", and ties break on the lowest
    way index.
    """

    def __init__(self) -> None:
        self._clock = 0
        self._assoc = 0
        self.stamps = array("q")

    def bind(self, num_sets: int, associativity: int) -> None:
        self._assoc = associativity
        self.stamps = array("q", bytes(8 * num_sets * associativity))

    def touch(self, set_index: int, way: int) -> None:
        self._clock += 1
        self.stamps[set_index * self._assoc + way] = self._clock

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


class ReferenceCache:
    """Per-set ways of :class:`CacheLine` (``None`` when empty), the
    ``_index`` of ``(set, way)`` slots and the ``_set_fill`` counts."""

    def __init__(self, config: CacheConfig) -> None:
        self.block_size = config.block_size
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self.policy = LRUPolicy()
        self.policy.bind(self.num_sets, self.associativity)
        self.stats = CacheStats()
        self._sets: List[List[Optional[CacheLine]]] = [
            [None] * self.associativity for _ in range(self.num_sets)
        ]
        self._set_fill = array("i", bytes(4 * self.num_sets))
        self._all_ways = list(range(self.associativity))
        self._index: Dict[int, Tuple[int, int]] = {}

    def _block_number(self, address: int) -> int:
        return address // self.block_size

    def _address_of(self, block_number: int) -> int:
        return block_number * self.block_size

    def contains(self, address: int) -> bool:
        return self._block_number(address) in self._index

    def lookup(self, address: int) -> Optional[CacheLine]:
        block = self._block_number(address)
        location = self._index.get(block)
        if location is None:
            self.stats.misses += 1
            return None
        set_index, way = location
        line = self._sets[set_index][way]
        self.stats.hits += 1
        self.policy.touch(set_index, way)
        return line

    def peek(self, address: int) -> Optional[CacheLine]:
        location = self._index.get(self._block_number(address))
        if location is None:
            return None
        return self._sets[location[0]][location[1]]

    def fill(self, address: int, payload: Any = None, *,
             dirty: bool = False) -> Optional[Eviction]:
        block = self._block_number(address)
        existing = self._index.get(block)
        if existing is not None:
            set_index, way = existing
            line = self._sets[set_index][way]
            line.payload = payload
            line.dirty = line.dirty or dirty
            self.policy.touch(set_index, way)
            return None

        set_index = block % self.num_sets
        ways = self._sets[set_index]

        eviction = None
        if self._set_fill[set_index] == self.associativity:
            victim_way = self.policy.victim(set_index, self._all_ways)
            victim = ways[victim_way]
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.dirty_evictions += 1
            eviction = Eviction(address=victim.tag * self.block_size,
                                dirty=victim.dirty, payload=victim.payload)
            del self._index[victim.tag]
            self.policy.forget(set_index, victim_way)
            victim.tag = block
            victim.dirty = dirty
            victim.payload = payload
        else:
            victim_way = ways.index(None)
            ways[victim_way] = CacheLine(tag=block, dirty=dirty,
                                         payload=payload)
            self._set_fill[set_index] += 1

        self._index[block] = (set_index, victim_way)
        self.policy.touch(set_index, victim_way)
        self.stats.fills += 1
        return eviction

    def mark_dirty(self, address: int) -> None:
        line = self.peek(address)
        if line is not None:
            line.dirty = True

    def invalidate(self, address: int) -> Optional[Eviction]:
        block = self._block_number(address)
        location = self._index.pop(block, None)
        if location is None:
            return None
        set_index, way = location
        line = self._sets[set_index][way]
        self._sets[set_index][way] = None
        self._set_fill[set_index] -= 1
        self.policy.forget(set_index, way)
        self.stats.invalidations += 1
        return Eviction(address=self._address_of(block), dirty=line.dirty,
                        payload=line.payload)

    def resident_addresses(self) -> List[int]:
        return sorted(self._address_of(block) for block in self._index)

    def flush_all(self) -> List[Eviction]:
        dirty = []
        for address in self.resident_addresses():
            evicted = self.invalidate(address)
            if evicted is not None and evicted.dirty:
                dirty.append(evicted)
        return dirty

    def __len__(self) -> int:
        return len(self._index)


# -- observing both ----------------------------------------------------------------

AnyCache = Union[SetAssociativeCache, ReferenceCache]


def recency_order(cache: AnyCache) -> List[List[int]]:
    """Each set's resident block numbers, least recently used first: the
    set's key order, or the reference's tags sorted by LRU stamp."""
    if isinstance(cache, SetAssociativeCache):
        return [list(ways) for ways in cache.sets]
    stamps, assoc = cache.policy.stamps, cache.associativity
    order = []
    for set_index, ways in enumerate(cache._sets):
        resident = [(stamps[set_index * assoc + way], line.tag)
                    for way, line in enumerate(ways) if line is not None]
        order.append([tag for _, tag in sorted(resident)])
    return order


def dirty_blocks(cache: AnyCache) -> List[int]:
    if isinstance(cache, SetAssociativeCache):
        return sorted(cache.dirty)
    return sorted(block for block, (set_index, way) in cache._index.items()
                  if cache._sets[set_index][way].dirty)


def payloads(cache: AnyCache) -> Dict[int, Any]:
    """Resident block number -> payload."""
    if isinstance(cache, SetAssociativeCache):
        return {block: payload for ways in cache.sets
                for block, payload in ways.items()}
    return {block: cache._sets[set_index][way].payload
            for block, (set_index, way) in cache._index.items()}


def render(cache: AnyCache) -> tuple:
    """Everything observable about one cache of either design."""
    return (astuple(cache.stats), recency_order(cache), dirty_blocks(cache),
            payloads(cache))


def eviction_state(eviction: Optional[Eviction]) -> Optional[tuple]:
    if eviction is None:
        return None
    return (eviction.address, eviction.dirty, eviction.payload)


def apply(cache: AnyCache, op: tuple):
    kind, args = op[0], op[1:]
    if kind == "fill":
        address, payload, dirty = args
        return eviction_state(cache.fill(address, payload, dirty=dirty))
    if kind == "lookup":
        hit = cache.lookup(*args)
        return hit if isinstance(cache, SetAssociativeCache) else \
            hit is not None
    if kind == "invalidate":
        return eviction_state(cache.invalidate(*args))
    if kind == "flush_all":
        return [eviction_state(e) for e in cache.flush_all()]
    return getattr(cache, kind)(*args)          # contains, mark_dirty


def observe(cache: AnyCache) -> tuple:
    return render(cache), cache.resident_addresses(), len(cache)


def check_against_reference(num_sets: int, associativity: int,
                            ops: List[tuple]) -> None:
    config = CacheConfig("T", size_bytes=BLOCK * num_sets * associativity,
                         associativity=associativity)
    cache, ref = SetAssociativeCache(config), ReferenceCache(config)
    assert observe(cache) == observe(ref)
    for step, op in enumerate(ops):
        got, want = apply(cache, op), apply(ref, op)
        assert got == want, (step, op)
        assert observe(cache) == observe(ref), (step, op)


#: the operation mix, one entry per share: fills drive eviction and
#: lookups the recency order, and a flush empties every set, so it is
#: rare (``st.one_of`` would give each distinct branch an equal share)
OP_MIX = (["fill"] * 7 + ["lookup"] * 4
          + ["contains", "mark_dirty", "invalidate", "flush_all"])


@st.composite
def cases(draw):
    num_sets = draw(st.integers(min_value=1, max_value=4))
    associativity = draw(st.sampled_from([1, 2, 4, 8]))
    # An address is a set, one of the blocks that map to it, and a byte
    # in the block, so that addresses collide in sets and sets overflow.
    address = st.builds(
        lambda set_index, k, byte: (set_index + k * num_sets) * BLOCK + byte,
        st.integers(0, num_sets - 1), st.integers(0, 3 * associativity - 1),
        st.integers(0, BLOCK - 1))

    def op(kind: str):
        if kind == "fill":
            return st.tuples(st.just(kind), address,
                             st.one_of(st.none(), st.integers(0, 3)),
                             st.booleans())
        if kind == "flush_all":
            return st.just((kind,))
        return st.tuples(st.just(kind), address)

    ops = draw(st.lists(st.sampled_from(OP_MIX).flatmap(op),
                        min_size=16, max_size=80))
    return num_sets, associativity, ops


SUITE = settings(max_examples=300, deadline=None)


@SUITE
@given(case=cases())
def test_matches_reference(case):
    check_against_reference(*case)


@pytest.mark.parametrize("associativity", [1, 2, 4, 8])
def test_fills_past_capacity_in_every_geometry(associativity):
    """Deterministic cover of the steady state: fills, hits and
    invalidations over a working set twice the capacity."""
    ops = []
    for block in range(2 * 3 * associativity):
        ops += [("fill", block * BLOCK, block % 3, block % 2 == 0),
                ("lookup", (block // 2) * BLOCK)]
        if block % 5 == 0:
            ops.append(("invalidate", (block - 1) * BLOCK))
    ops.append(("flush_all",))
    check_against_reference(3, associativity, ops)


# -- mutants of fill() and lookup() must fail the suite ----------------------------

#: name -> (method, fragment of its source, the mutation)
MUTANTS = {
    "victim-is-the-most-recent-key": (
        "fill", "victim = next(iter(ways))", "victim = next(reversed(ways))"),
    "refill-keeps-old-recency": (
        "fill", "if ways.pop(block, _ABSENT) is not _ABSENT:",
        "if block in ways:"),
    "hit-keeps-old-recency": (
        "lookup", "payload = ways.pop(block, _ABSENT)",
        "payload = ways.get(block, _ABSENT)"),
    "eviction-forgets-dirty-bit": (
        "fill", "victim_dirty = victim in self.dirty", "victim_dirty = False"),
}


def mutated(method: str, fragment: str, mutation: str):
    """``SetAssociativeCache.<method>`` recompiled with the first
    ``fragment`` of its source replaced by ``mutation``."""
    source = textwrap.dedent(inspect.getsource(
        getattr(SetAssociativeCache, method)))
    assert fragment in source, f"mutation site {fragment!r} not in {method}()"
    namespace: Dict[str, Any] = {}
    exec(source.replace(fragment, mutation, 1), dict(vars(cache_module)),
         namespace)
    return namespace[method]


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_suite_catches_mutant(mutant, monkeypatch):
    """The property test, run as is except that it stops at the first
    counterexample (no shrinking) and records none."""
    method, fragment, mutation = MUTANTS[mutant]
    monkeypatch.setattr(SetAssociativeCache, method,
                        mutated(method, fragment, mutation))
    search = settings(SUITE, phases=[Phase.generate], database=None)(
        given(case=cases())(test_matches_reference.hypothesis.inner_test))
    with pytest.raises(AssertionError):
        search()
