"""``CacheHierarchy``'s one-pass walk against a transcription of the
chained walk it replaced, run on the transcribed cache and directory.

:class:`ReferenceHierarchy` below transcribes the hierarchy before the
one-pass rewrite: ``access`` through ``lookup`` and ``_install_private``,
``_handle_l4_eviction`` over ``sharers_of``, ``invalidate_page`` over
every block of the page, and ``flush_all`` invalidating line by line.
Its caches are ``test_cache_reference.ReferenceCache`` (ways, LRU
stamps and ``CacheLine`` objects) and its directory is
``test_directory_reference.ReferenceDirectory`` (``DirectoryEntry``
objects), so no class of the code under test takes part. It keeps the
records the old walk passed around, which the code under test no
longer builds: :class:`MemoryFetch` from the miss handler and
:class:`HierarchyAccess` from ``access``. Two fixes are applied to it:
an L2 hit reports its L1 victim to the directory when neither private
level still holds it, and ``flush_all`` clears the directory's entries
but keeps its statistics.

Hypothesis drives both hierarchies, on 1-4 cores, in timing and
functional mode and with small L1-L4 geometries so evictions and
back-invalidations are frequent, through random loads, stores (full
block and ``merge``), ``invalidate_page`` with and without write-back,
and ``flush_all``. After every operation the return values (the walk's
``(latency_cycles, data)`` against the reference record's fields), the
sequence of ``miss_handler``/``writeback_handler`` calls and
``state_signature`` (per cache: stats, each set's recency order,
dirty blocks and payloads; the hierarchy's counters; the directory's
stats, and every tracked block's sharers and per-core MESI state) must
match, and the residency invariants must hold. Mutants of the walk must
fail the suite.
"""

from __future__ import annotations

import inspect
import textwrap
from dataclasses import astuple, dataclass, replace
from typing import Any, Dict, List, Optional

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.cache import CacheHierarchy, PageInvalidation
from repro.cache import hierarchy as hierarchy_module
from repro.config import CacheConfig, CPUConfig, fast_config
from repro.errors import AddressError, ReproError

from tests.test_cache_reference import ReferenceCache
from tests.test_context_fast_path import state_signature
from tests.test_directory_reference import ReferenceDirectory

BLOCK = 64
PAGE = 4 * BLOCK           # invalidate_page granule in these tests
BLOCKS = 24                # address range, in blocks (6 pages)


# -- the reference: the chained walk before the one-pass rewrite -----------------

@dataclass
class MemoryFetch:
    """What the memory side used to return for an LLC miss."""

    data: Optional[bytes]
    latency_ns: float
    zero_filled: bool = False


@dataclass
class HierarchyAccess:
    """What ``access`` used to return."""

    address: int
    is_write: bool
    latency_cycles: int
    hit_level: str
    data: Optional[bytes] = None
    writebacks: int = 0


def reference_cache_flush(cache: ReferenceCache) -> list:
    """``SetAssociativeCache.flush_all`` before the wholesale clear."""
    dirty = []
    for address in cache.resident_addresses():
        evicted = cache.invalidate(address)
        if evicted.dirty:
            dirty.append(evicted)
    return dirty


class ReferenceHierarchy:
    def __init__(self, config, miss_handler, writeback_handler) -> None:
        self.config = config
        self.block_size = config.block_size
        self.num_cores = config.cpu.num_cores
        self.miss_handler = miss_handler
        self.writeback_handler = writeback_handler
        self.l1 = [ReferenceCache(config.l1) for _ in range(self.num_cores)]
        self.l2 = [ReferenceCache(config.l2) for _ in range(self.num_cores)]
        self.l3 = ReferenceCache(config.l3)
        self.l4 = ReferenceCache(config.l4)
        self.directory = ReferenceDirectory(self.num_cores)
        self._zero_block = bytes(self.block_size)
        self.functional = config.functional
        self.zero_fills = 0
        self.memory_fetches = 0
        self.writebacks = 0

    def _align(self, address: int) -> int:
        return address - (address % self.block_size)

    def _private_contains(self, core: int, address: int) -> bool:
        return self.l1[core].contains(address) or self.l2[core].contains(address)

    def _handle_l4_eviction(self, eviction, now_ns: float) -> int:
        address = eviction.address
        self.l3.invalidate(address)
        for core in self.directory.sharers_of(address):
            self.l1[core].invalidate(address)
            self.l2[core].invalidate(address)
        self.directory.invalidate_block(address)
        if eviction.dirty:
            self.writeback_handler(address, eviction.payload, now_ns)
            self.writebacks += 1
            return 1
        return 0

    def _install_private(self, core: int, address: int) -> None:
        for cache in (self.l1[core], self.l2[core]):
            evicted = cache.fill(address)
            if (evicted is not None
                    and not self._private_contains(core, evicted.address)):
                self.directory.evicted(core=core,
                                       block_address=evicted.address)

    def access(self, core, address, is_write, data=None, now_ns=0.0,
               merge=None):
        if core < 0 or core >= self.num_cores:
            raise AddressError(f"no such core {core}")
        address = self._align(address)
        latency = self.config.l1.latency_cycles
        writeback_count = 0
        if is_write:
            for other in self.directory.write(address, core):
                self.l1[other].invalidate(address)
                self.l2[other].invalidate(address)

        hit_level = None
        if self.l1[core].lookup(address) is not None:
            hit_level = "L1"
        else:
            latency += self.config.l2.latency_cycles
            if self.l2[core].lookup(address) is not None:
                hit_level = "L2"
                # The stale-sharer fix: report the L1 victim.
                evicted = self.l1[core].fill(address)
                if (evicted is not None
                        and not self._private_contains(core, evicted.address)):
                    self.directory.evicted(core=core,
                                           block_address=evicted.address)
            else:
                if not is_write:
                    self.directory.read(address, core)
                latency += self.config.l3.latency_cycles
                if self.l3.lookup(address) is not None:
                    hit_level = "L3"
                    self._install_private(core, address)
                else:
                    latency += self.config.l4.latency_cycles
                    if self.l4.lookup(address) is not None:
                        hit_level = "L4"
                        self.l3.fill(address)
                        self._install_private(core, address)
                    else:
                        fetch = self.miss_handler(address, now_ns)
                        latency += self.config.cpu.ns_to_cycles(fetch.latency_ns)
                        hit_level = "ZERO" if fetch.zero_filled else "MEM"
                        if fetch.zero_filled:
                            self.zero_fills += 1
                        else:
                            self.memory_fetches += 1
                        payload = fetch.data if self.functional else None
                        if payload is None and self.functional:
                            payload = self._zero_block
                        evicted = self.l4.fill(address, payload)
                        if evicted is not None:
                            writeback_count += self._handle_l4_eviction(
                                evicted, now_ns)
                        self.l3.fill(address)
                        self._install_private(core, address)

        if is_write and not self._private_contains(core, address):
            self._install_private(core, address)

        result_data = None
        line = self.l4.peek(address)
        if line is None:
            raise AddressError(f"block {address:#x} missing from L4 after fill")
        if is_write:
            if self.functional:
                if merge is not None:
                    offset, value = merge
                    if offset < 0 or offset + len(value) > self.block_size:
                        raise AddressError("merge write exceeds block bounds")
                    base = line.payload
                    if base is None:
                        base = self._zero_block
                    line.payload = (base[:offset] + bytes(value)
                                    + base[offset + len(value):])
                elif data is not None and len(data) == self.block_size:
                    line.payload = bytes(data)
                else:
                    raise AddressError("functional store needs a full block "
                                       "payload or a merge fragment")
            line.dirty = True
        else:
            result_data = line.payload if self.functional else None
        return HierarchyAccess(address=address, is_write=is_write,
                               latency_cycles=latency, hit_level=hit_level,
                               data=result_data, writebacks=writeback_count)

    def invalidate_page(self, page_address, page_size, *, writeback,
                        now_ns=0.0):
        result = PageInvalidation()
        for offset in range(0, page_size, self.block_size):
            address = page_address + offset
            for core in self.directory.invalidate_block(address):
                self.l1[core].invalidate(address)
                self.l2[core].invalidate(address)
                result.private_invalidations += 1
            self.l3.invalidate(address)
            evicted = self.l4.invalidate(address)
            if evicted is not None:
                result.blocks_invalidated += 1
                if evicted.dirty and writeback:
                    self.writeback_handler(address, evicted.payload, now_ns)
                    self.writebacks += 1
                    result.blocks_written_back += 1
        return result

    def flush_all(self, now_ns=0.0):
        flushed = 0
        for core in range(self.num_cores):
            reference_cache_flush(self.l1[core])
            reference_cache_flush(self.l2[core])
        reference_cache_flush(self.l3)
        for eviction in reference_cache_flush(self.l4):
            self.writeback_handler(eviction.address, eviction.payload, now_ns)
            self.writebacks += 1
            flushed += 1
        # The statistics-lifetime fix: entries go, statistics stay.
        self.directory._entries.clear()
        return flushed


# -- the memory below, recording every call -------------------------------------------

class RecordingMemory:
    """Deterministic miss and write-back handlers that log each call.

    Every third page reads as zero-filled (a shredded page); the fetch
    latency varies with the address so cycle rounding is exercised.
    ``miss_handler`` returns the reference's :class:`MemoryFetch`;
    ``plain_miss_handler`` returns the same fields as the tuple the
    walk under test takes.
    """

    def __init__(self) -> None:
        self.calls: List[tuple] = []

    def miss_handler(self, address: int, now_ns: float) -> MemoryFetch:
        self.calls.append(("miss", address, now_ns))
        if address // PAGE % 3 == 2:
            return MemoryFetch(bytes(BLOCK), 2.5, zero_filled=True)
        return MemoryFetch(bytes([address // BLOCK % 251]) * BLOCK,
                           60.0 + address % 7 * 1.3)

    def plain_miss_handler(self, address: int, now_ns: float) -> tuple:
        return astuple(self.miss_handler(address, now_ns))

    def writeback_handler(self, address: int, data, now_ns: float) -> None:
        self.calls.append(("writeback", address, data, now_ns))


def make_config(cores: int, functional: bool, geometry: tuple):
    l1_sets, l2_sets, l3_sets, l4_sets = geometry

    def level(name, sets, latency):
        return CacheConfig(name, size_bytes=sets * 2 * BLOCK, associativity=2,
                           latency_cycles=latency, shared=name in ("L3", "L4"))
    return replace(fast_config(functional=functional),
                   cpu=CPUConfig(num_cores=cores),
                   l1=level("L1", l1_sets, 2), l2=level("L2", l2_sets, 8),
                   l3=level("L3", l3_sets, 25), l4=level("L4", l4_sets, 35))


def describe(result: Any) -> Any:
    if isinstance(result, HierarchyAccess):
        return result.latency_cycles, result.data
    if isinstance(result, PageInvalidation):
        return type(result).__name__, astuple(result)
    return result


def apply(hierarchy: CacheHierarchy, op: tuple) -> Any:
    kind = op[0]
    if kind == "load":
        _, core, block, now = op
        return hierarchy.access(core, block * BLOCK + 3, False, now_ns=now)
    if kind == "store":
        _, core, block, now, value, offset = op
        if not hierarchy.functional:
            return hierarchy.access(core, block * BLOCK, True, now_ns=now)
        if offset is None:
            return hierarchy.access(core, block * BLOCK, True,
                                    bytes([value]) * BLOCK, now)
        return hierarchy.access(core, block * BLOCK, True, now_ns=now,
                                merge=(offset, bytes([value]) * 8))
    if kind == "invalidate_page":
        _, page, writeback, now = op
        return hierarchy.invalidate_page(page * PAGE, PAGE,
                                         writeback=writeback, now_ns=now)
    assert kind == "flush_all"
    return hierarchy.flush_all(op[1])


def check_against_reference(cores: int, functional: bool, geometry: tuple,
                            ops: List[tuple]) -> None:
    config = make_config(cores, functional, geometry)
    memories = RecordingMemory(), RecordingMemory()
    walk = CacheHierarchy(config, memories[0].plain_miss_handler,
                          memories[0].writeback_handler)
    ref = ReferenceHierarchy(config, memories[1].miss_handler,
                             memories[1].writeback_handler)
    for step, op in enumerate(ops):
        got, want = describe(apply(walk, op)), describe(apply(ref, op))
        assert got == want, (step, op)
        assert memories[0].calls == memories[1].calls, (step, op)
        assert state_signature(walk) == state_signature(ref), (step, op)
        try:
            walk.check_inclusion()
        except ReproError as error:
            raise AssertionError((step, op, str(error))) from error


@st.composite
def cases(draw):
    cores = draw(st.integers(min_value=1, max_value=4))
    functional = draw(st.booleans())
    # Sets per level, each level two ways: L4 at least as large as L3,
    # L3 as L2, so inclusion pressure comes from every level.
    l1_sets = draw(st.sampled_from([1, 2]))
    l2_sets = draw(st.sampled_from([1, 2, 4]))
    l3_sets = draw(st.sampled_from([s for s in (2, 4) if s >= l2_sets]))
    l4_sets = draw(st.sampled_from([s for s in (2, 4, 8) if s >= l3_sets]))
    core = st.integers(min_value=0, max_value=cores - 1)
    block = st.integers(min_value=0, max_value=BLOCKS - 1)
    now = st.sampled_from([0.0, 10.0, 123.5])
    op = st.one_of(
        st.tuples(st.just("load"), core, block, now),
        st.tuples(st.just("load"), core, block, now),
        st.tuples(st.just("store"), core, block, now,
                  st.integers(min_value=1, max_value=255),
                  st.one_of(st.none(), st.sampled_from([0, 8, 56]))),
        st.tuples(st.just("invalidate_page"),
                  st.integers(min_value=0, max_value=BLOCKS * BLOCK // PAGE),
                  st.booleans(), now),
        st.tuples(st.just("flush_all"), now),
    )
    ops = draw(st.lists(op, min_size=20, max_size=80))
    # Most flushes empty the caches; keep them rare.
    ops = [o for i, o in enumerate(ops) if o[0] != "flush_all" or i % 4 == 0]
    return cores, functional, (l1_sets, l2_sets, l3_sets, l4_sets), ops


SUITE = settings(max_examples=300, deadline=None)


@SUITE
@given(case=cases())
def test_matches_reference(case):
    check_against_reference(*case)


@pytest.mark.parametrize("functional", [False, True])
def test_sharing_and_eviction_storm(functional):
    """Deterministic cover: four cores share, write and evict a working
    set three times L4's size, with page drops and a final flush."""
    ops = []
    for i in range(240):
        core, block = i % 4, (i * 7) % BLOCKS
        if i % 3 == 0:
            ops.append(("store", core, block, float(i), i % 255 + 1,
                        None if i % 2 else 8))
        else:
            ops.append(("load", core, block, float(i)))
        if i % 17 == 0:
            ops.append(("invalidate_page", block * BLOCK // PAGE, i % 2 == 0,
                        float(i)))
    ops.append(("flush_all", 1.0))
    check_against_reference(4, functional, (1, 2, 2, 4), ops)


# -- mutants of the walk must fail the suite -------------------------------------------

#: name -> (method, fragment of its source, the mutation)
MUTANTS = {
    "l4-hit-skips-l3-fill": (
        "access", "l4.stats.hits += 1", "l4.stats.hits += 1; l3_ways = {}"),
    "l3-fill-never-evicts": (
        "access", "if len(l3_ways) == l3.associativity:", "if False:"),
    "l1-victim-left-in-directory": (
        "access", "if victim not in l2.sets[victim % l2.num_sets]:",
        "if False:"),
    "l2-victim-left-in-directory": (
        "access", "if victim not in l1.sets[victim % l1.num_sets]:",
        "if False:"),
    "l4-victim-stays-in-l3": (
        "_handle_l4_eviction", "ways = l3.sets[block % l3.num_sets]",
        "ways = {}"),
    "invalidate-skips-on-l3-residency": (
        "invalidate_page", "resident = self.l4", "resident = self.l3"),
    "flush-keeps-the-directory": (
        "flush_all", "self.directory.entries.clear()", "pass"),
    "flush-resets-directory-stats": (
        "flush_all", "self.directory.entries.clear()",
        "self.directory = CoherenceDirectory(self.num_cores)"),
    "l4-victim-drops-its-dirty-bit": (
        "_handle_l4_eviction", "if eviction.dirty:", "if False:"),
}


def mutated(method: str, fragment: str, mutation: str):
    """``CacheHierarchy.<method>`` recompiled with the first
    ``fragment`` of its source replaced by ``mutation``."""
    source = textwrap.dedent(inspect.getsource(getattr(CacheHierarchy,
                                                       method)))
    assert fragment in source, f"mutation site {fragment!r} not in {method}()"
    namespace: Dict[str, Any] = {}
    exec(source.replace(fragment, mutation, 1), dict(vars(hierarchy_module)),
         namespace)
    return namespace[method]


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_suite_catches_mutant(mutant, monkeypatch):
    """The property test, run as is except that it stops at the first
    counterexample (no shrinking) and records none."""
    method, fragment, mutation = MUTANTS[mutant]
    monkeypatch.setattr(CacheHierarchy, method,
                        mutated(method, fragment, mutation))
    search = settings(SUITE, phases=[Phase.generate], database=None)(
        given(case=cases())(test_matches_reference.hypothesis.inner_test))
    with pytest.raises(AssertionError):
        search()
