"""``ExecutionContext.touch`` fast path vs the reference walk.

``touch`` serves two common cases without the full reference chain:

* with no TLB, a present, permission-compatible page-table entry is
  resolved in the context (``PageTable.resolve``) instead of through
  ``Kernel.translate``;
* a pure L1 hit is applied in place by ``CacheHierarchy.try_l1_hit``
  instead of ``CacheHierarchy.access``.

Both shortcuts must be step-identical to the reference chain. These
tests drive random interleavings of touches, 8-byte loads and stores,
shreds, ``munmap`` and re-touch on two cores and two processes (one of
them running on both cores, so stores contend for M ownership, and
reads share the Zero Page before COW writes) through two identical
systems: one through the context's methods, one through the pre-fast-
path bodies transcribed below. Reports, event logs, per-cache stats,
each set's recency order, dirty blocks and payloads, the directory,
core timing and TLBs must all match, and shredded blocks must miss L1 and read back as zeros
(DESIGN.md §5 invariants 1-2).
"""

from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheHierarchy
from repro.errors import SimulationError
from repro.kernel import PageTable
from repro.runtime.context import ExecutionContext
from repro.sim import System

from tests.test_cache_reference import render as render_cache
from tests.test_directory_reference import render as render_directory
from tests.test_directory_reference import tracked_blocks

PAGE = 4096
BLOCK = 64
PAGES = 3
BLOCKS = 2          # blocks used per page (keeps L1 hits and sharing common)
TLB_ENTRIES = 4


def state_signature(hierarchy) -> list:
    """Everything observable about a hierarchy's state and stats (the
    cache and directory classes of either design): per cache, its stats,
    each set's recency order, its dirty blocks and payloads; the
    hierarchy's counters; the directory's stats, and each tracked
    block's sharers and every core's MESI state."""
    out = [render_cache(cache) for cache in
           [*hierarchy.l1, *hierarchy.l2, hierarchy.l3, hierarchy.l4]]
    out.append((hierarchy.zero_fills, hierarchy.memory_fetches,
                hierarchy.writebacks))
    directory = hierarchy.directory
    out.append(render_directory(directory, tracked_blocks(directory),
                                hierarchy.num_cores))
    return out


# -- the reference: the context's bodies before the fast path ------------------

def reference_translate(ctx, vaddr, write):
    if ctx.tlb is not None:
        vpn = vaddr // ctx.page_size
        ppn = ctx.tlb.lookup(vpn, write=write)
        if ppn is not None:
            return ppn * ctx.page_size + vaddr % ctx.page_size
        ctx.core.stall(ctx._tlb_penalty)
    result = ctx.kernel.translate(ctx.pid, vaddr, write=write,
                                  core=ctx.core_id, now_ns=ctx.core.now_ns)
    if result.fault_ns:
        ctx.core.stall(result.fault_ns / ctx._cycle_ns, fault=True)
    if ctx.tlb is not None:
        ctx.tlb.insert(vaddr // ctx.page_size,
                       result.physical // ctx.page_size,
                       writable=result.writable, huge=result.huge)
    return result.physical


def reference_touch(ctx, vaddr, write):
    physical = reference_translate(ctx, vaddr, write)
    if write:
        merge = (0, ctx._zero_block) if ctx.functional else None
        access = ctx.machine.store(ctx.core_id, physical,
                                   now_ns=ctx.core.now_ns, merge=merge)
        ctx.core.store(access.latency_cycles)
    else:
        access = ctx.machine.load(ctx.core_id, physical, ctx.core.now_ns)
        ctx.core.load(access.latency_cycles)


def reference_load_u64(ctx, vaddr):
    physical = reference_translate(ctx, vaddr, False)
    access = ctx.machine.load(ctx.core_id, physical, ctx.core.now_ns)
    ctx.core.load(access.latency_cycles)
    if not ctx.functional or access.data is None:
        return 0
    offset = physical % ctx.block_size
    return int.from_bytes(access.data[offset:offset + 8], "little")


def reference_store_u64(ctx, vaddr, value):
    physical = reference_translate(ctx, vaddr, True)
    merge = None
    if ctx.functional:
        merge = (physical % ctx.block_size, value.to_bytes(8, "little"))
    access = ctx.machine.store(ctx.core_id, physical,
                               now_ns=ctx.core.now_ns, merge=merge)
    ctx.core.store(access.latency_cycles)


class FastOps:
    touch = staticmethod(lambda ctx, vaddr, write: ctx.touch(vaddr,
                                                             write=write))
    load_u64 = staticmethod(lambda ctx, vaddr: ctx.load_u64(vaddr))
    store_u64 = staticmethod(lambda ctx, vaddr, value:
                             ctx.store_u64(vaddr, value))


class ReferenceOps:
    touch = staticmethod(reference_touch)
    load_u64 = staticmethod(reference_load_u64)
    store_u64 = staticmethod(reference_store_u64)


# -- harness ----------------------------------------------------------------------

def make_config(factory, *, tlb_entries, functional, zeroing="shred"):
    config = factory().with_zeroing(zeroing)
    return replace(config, functional=functional,
                   cpu=replace(config.cpu, tlb_entries=tlb_entries))


class World:
    """One system with process A on cores 0 and 1 and process B on
    core 1; each process owns one ``PAGES``-page region."""

    def __init__(self, config, ops):
        self.ops = ops
        self.system = System(config, shredder=True)
        a = self.system.new_context(0)
        b = self.system.new_context(1)
        a_on_1 = ExecutionContext(self.system, a.pid, 1)
        self.contexts = [a, b, a_on_1]
        self.regions = {ctx.pid: self.system.kernel.mmap(ctx.pid, PAGES * PAGE)
                        for ctx in (a, b)}

    def vaddr(self, ctx, page, block):
        return self.regions[ctx.pid].start + page * PAGE + block * BLOCK

    def apply(self, op):
        kind, index = op[0], op[1]
        ctx = self.contexts[index]
        if kind == "touch":
            _, _, page, block, write, repeat = op
            for _ in range(repeat):
                self.ops.touch(ctx, self.vaddr(ctx, page, block), write)
            return None
        if kind == "load":
            return self.ops.load_u64(ctx, self.vaddr(ctx, op[2], op[3]))
        if kind == "store":
            self.ops.store_u64(ctx, self.vaddr(ctx, op[2], op[3]), op[4])
            return None
        if kind == "shred":
            ctx.shred(self.vaddr(ctx, op[2], 0), 1)
            return None
        assert kind == "munmap"
        kernel = self.system.kernel
        kernel.munmap(ctx.pid, self.regions[ctx.pid])
        self.regions[ctx.pid] = kernel.mmap(ctx.pid, PAGES * PAGE)
        return None

    def signature(self):
        system = self.system
        hierarchy = system.machine.hierarchy
        cores = [(asdict(core.stats), tuple(core._store_buffer))
                 for core in system.cores]
        tlbs = [None if ctx.tlb is None else
                (asdict(ctx.tlb.stats), tuple(ctx.tlb._entries.items()))
                for ctx in self.contexts]
        tables = {pid: tuple((vpn, asdict(entry)) for vpn, entry
                             in process.page_table.mapped_vpns())
                  for pid, process in system.kernel.processes.items()}
        return {
            "report": system.report().to_dict(),
            "events": system.events.snapshot(),
            "hierarchy": state_signature(hierarchy),
            "cores": cores,
            "tlbs": tlbs,
            "kernel": asdict(system.kernel.stats),
            "tables": tables,
        }


def check_shredded_page(world, ctx, page):
    """After a shred: no cache holds the frame, so the next access to
    any of its blocks misses L1 (the probe declines, side-effect free)."""
    entry = world.system.kernel.processes[ctx.pid].page_table.lookup(
        world.vaddr(ctx, page, 0) // PAGE)
    if entry is None or entry.zero_page:
        return
    hierarchy = world.system.machine.hierarchy
    for offset in range(0, PAGE, BLOCK):
        address = entry.ppn * PAGE + offset
        assert not hierarchy.l4.contains(address)
        for core in range(hierarchy.num_cores):
            assert not hierarchy.l1[core].contains(address)
            assert hierarchy.try_l1_hit(core, address, False) == -1


def run_pair(config, ops_list):
    """Run one op list through a fast and a reference world; return
    both worlds and the per-op (result, core clocks) traces."""
    fast, ref = World(config, FastOps), World(config, ReferenceOps)
    functional = config.functional
    expected = {}           # (pid, page, block) -> last u64 stored
    traces = ([], [])
    for op in ops_list:
        pid = fast.contexts[op[1]].pid
        for world, trace in ((fast, traces[0]), (ref, traces[1])):
            value = world.apply(op)
            trace.append((value, tuple(core.stats.cycles
                                       for core in world.system.cores)))
        kind = op[0]
        if kind == "shred":
            check_shredded_page(fast, fast.contexts[op[1]], op[2])
            for key in [k for k in expected if k[:2] == (pid, op[2])]:
                del expected[key]
        elif kind == "munmap":
            for key in [k for k in expected if k[0] == pid]:
                del expected[key]
        elif kind == "touch" and op[4]:
            expected.pop((pid, op[2], op[3]), None)   # zero-block store
        elif kind == "store":
            expected[(pid, op[2], op[3])] = op[4]
        elif kind == "load" and functional:
            assert traces[0][-1][0] == expected.get((pid, op[2], op[3]), 0)
    return fast, ref, traces


def assert_equivalent(config, ops_list):
    fast, ref, (fast_trace, ref_trace) = run_pair(config, ops_list)
    assert fast_trace == ref_trace
    fast_sig, ref_sig = fast.signature(), ref.signature()
    for key in ref_sig:
        assert fast_sig[key] == ref_sig[key], key
    fast.system.verify_invariants()
    return fast


CTX = st.integers(min_value=0, max_value=2)
PAGE_ST = st.integers(min_value=0, max_value=PAGES - 1)
BLOCK_ST = st.integers(min_value=0, max_value=BLOCKS - 1)
TOUCH = st.tuples(st.just("touch"), CTX, PAGE_ST, BLOCK_ST, st.booleans(),
                  st.integers(min_value=1, max_value=4))   # back-to-back reps
OPS = st.lists(st.one_of(
    TOUCH, TOUCH,           # listed twice: touches are half of all ops
    st.tuples(st.just("load"), CTX, PAGE_ST, BLOCK_ST),
    st.tuples(st.just("store"), CTX, PAGE_ST, BLOCK_ST,
              st.integers(min_value=1, max_value=2**64 - 1)),
    st.tuples(st.just("shred"), CTX, PAGE_ST),
    st.tuples(st.just("munmap"), CTX),
), min_size=20, max_size=80)


@pytest.mark.parametrize("functional", [False, True],
                         ids=["timing", "functional"])
@pytest.mark.parametrize("tlb_entries", [0, TLB_ENTRIES],
                         ids=["no-tlb", "tlb"])
class TestTouchFastPathEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(ops_list=OPS,
           zeroing=st.sampled_from(["shred", "temporal", "nontemporal"]))
    def test_random_interleavings_match_reference(
            self, tiny_config_factory, tlb_entries, functional, ops_list,
            zeroing):
        config = make_config(tiny_config_factory, tlb_entries=tlb_entries,
                             functional=functional, zeroing=zeroing)
        assert_equivalent(config, ops_list)

    def test_zero_page_sharing_then_cow(self, tiny_config_factory,
                                        tlb_entries, functional):
        """Both processes read the shared Zero Page on both cores, then
        each COW-writes it away and re-reads its private copy."""
        config = make_config(tiny_config_factory, tlb_entries=tlb_entries,
                             functional=functional)
        ops_list = []
        for ctx in (0, 1, 2):
            ops_list.append(("touch", ctx, 0, 0, False, 3))
        for ctx in (0, 1, 2, 0):
            ops_list += [("touch", ctx, 0, 0, True, 2),
                         ("touch", ctx, 0, 0, False, 2),
                         ("load", ctx, 0, 0)]
        # A value stored, then overwritten by a zero-block touch-store.
        ops_list += [("store", 2, 0, 1, 99), ("touch", 2, 0, 1, True, 1),
                     ("load", 0, 0, 1)]
        assert_equivalent(config, ops_list)

    def test_cow_on_one_core_reaches_the_other(self, tiny_config_factory,
                                               tlb_entries, functional):
        """Process A reads its page on core 0 (the Zero Page, cached in
        that context's TLB), then writes it on core 1: the COW fault
        must shoot down core 0's stale entry, or core 0 keeps reading
        the Zero Page instead of the stored value."""
        config = make_config(tiny_config_factory, tlb_entries=tlb_entries,
                             functional=functional)
        ops_list = [("touch", 0, 0, 0, False, 3),
                    ("store", 2, 0, 0, 1),
                    ("load", 0, 0, 0),
                    ("touch", 0, 0, 0, False, 2)]
        assert_equivalent(config, ops_list)

    def test_shred_then_retouch_reads_zero(self, tiny_config_factory,
                                           tlb_entries, functional):
        config = make_config(tiny_config_factory, tlb_entries=tlb_entries,
                             functional=functional)
        ops_list = [("store", 0, 1, 2, 0xDEADBEEF),
                    ("touch", 0, 1, 2, False, 3),
                    ("touch", 2, 1, 2, True, 2),
                    ("shred", 0, 1),
                    ("load", 2, 1, 2),
                    ("touch", 0, 1, 2, False, 2),
                    ("munmap", 1),
                    ("touch", 1, 1, 2, True, 2),
                    ("load", 1, 1, 2)]
        assert_equivalent(config, ops_list)


# -- the shortcuts are taken, and a broken shortcut is caught ------------------------

def mutant_without_owner_check(self, core, address, is_write):
    """``try_l1_hit`` minus the directory-owner check for stores."""
    block = address // self.block_size
    l1, l4 = self.l1[core], self.l4
    ways = l1.sets[block % l1.num_sets]
    if block not in ways or block not in l4.sets[block % l4.num_sets]:
        return -1
    if is_write:
        if self.functional:
            return -1
        l4.dirty.add(block)
    del ways[block]
    ways[block] = None
    l1.stats.hits += 1
    return l1.latency_cycles


def mutant_ignoring_permissions(self, vaddr, write):
    """``PageTable.resolve`` that serves writes to read-only entries."""
    return self._entries.get(vaddr // self.page_size)


#: core 0 writes, core 1 reads (core 0 keeps its L1 copy as a sharer),
#: core 0 writes again: only a real ownership upgrade invalidates core 1.
PING_PONG = [("touch", 0, 0, 0, True, 1),
             ("touch", 2, 0, 0, False, 1),
             ("touch", 0, 0, 0, True, 1),
             ("touch", 2, 0, 0, False, 1)]

#: a read maps the Zero Page read-only; the store must COW-fault, or
#: process B's untouched page (also the Zero Page) reads A's value.
READ_THEN_WRITE = [("touch", 0, 1, 0, False, 1),
                   ("store", 0, 1, 0, 0x5A5A),
                   ("load", 1, 2, 0)]


def diverges(config, ops_list):
    fast, ref, traces = run_pair(config, ops_list)
    return traces[0] != traces[1] or fast.signature() != ref.signature()


class TestFastPathIsExercised:
    def test_hits_skip_kernel_and_hierarchy_walk(self, tiny_config_factory,
                                                 monkeypatch):
        config = make_config(tiny_config_factory, tlb_entries=0,
                             functional=False)
        world = World(config, FastOps)
        calls = {"translate": 0, "access": 0}
        kernel = world.system.kernel
        hierarchy = world.system.machine.hierarchy
        real_translate, real_access = kernel.translate, hierarchy.access

        def counting_translate(*args, **kwargs):
            calls["translate"] += 1
            return real_translate(*args, **kwargs)

        def counting_access(*args, **kwargs):
            calls["access"] += 1
            return real_access(*args, **kwargs)

        monkeypatch.setattr(kernel, "translate", counting_translate)
        monkeypatch.setattr(hierarchy, "access", counting_access)
        world.apply(("touch", 0, 0, 0, True, 5))
        world.apply(("touch", 0, 0, 0, False, 5))
        # One COW fault, one reference walk; the other nine are hits.
        assert calls == {"translate": 1, "access": 1}
        assert hierarchy.l1[0].stats.hits == 9

    @pytest.mark.parametrize("tlb_entries", [0, TLB_ENTRIES])
    def test_suite_catches_a_missing_owner_check(self, tiny_config_factory,
                                                 monkeypatch, tlb_entries):
        config = make_config(tiny_config_factory, tlb_entries=tlb_entries,
                             functional=False)
        assert not diverges(config, PING_PONG)
        monkeypatch.setattr(CacheHierarchy, "try_l1_hit",
                            mutant_without_owner_check)
        assert diverges(config, PING_PONG)

    def test_suite_catches_a_permission_blind_table(self, tiny_config_factory,
                                                    monkeypatch):
        """``Kernel.translate`` shares the helper, so this mutant breaks
        both worlds alike; the zero-read model check catches it."""
        config = make_config(tiny_config_factory, tlb_entries=0,
                             functional=True)
        run_pair(config, READ_THEN_WRITE)
        monkeypatch.setattr(PageTable, "resolve", mutant_ignoring_permissions)
        with pytest.raises(AssertionError):
            run_pair(config, READ_THEN_WRITE)


class TestProbeDeclinesWithoutSideEffects:
    @pytest.mark.parametrize("functional", [False, True])
    def test_declines(self, tiny_config_factory, functional):
        config = make_config(tiny_config_factory, tlb_entries=0,
                             functional=functional)
        system = System(config, shredder=True)
        ctx = system.new_context(0)
        base = system.kernel.mmap(ctx.pid, 2 * PAGE).start
        ctx.touch(base, write=False)              # Zero Page, E at core 0
        ctx.touch(base + PAGE, write=True)        # private, M at core 0
        zero_block = system.kernel.zero_page_ppn * PAGE
        private = ctx._translate(base + PAGE, write=False)
        cases = [(1, private, False),             # not in core 1's L1
                 (1, private, True),
                 (0, private + PAGE, False),      # not resident at all
                 (-1, private, False),            # no such core
                 (2, private, False),
                 (0, zero_block, True)]           # E, not M: needs upgrade
        if functional:
            cases.append((0, private, True))      # payload merge needed
        hierarchy = system.machine.hierarchy
        before = state_signature(hierarchy)
        for core, address, write in cases:
            assert hierarchy.try_l1_hit(core, address, write) == -1
        assert state_signature(hierarchy) == before


# -- a dead process stays dead ------------------------------------------------------

@pytest.mark.parametrize("tlb_entries", [0, TLB_ENTRIES])
class TestExitedProcess:
    def test_accesses_after_exit_raise(self, tiny_config_factory,
                                       tlb_entries):
        config = make_config(tiny_config_factory, tlb_entries=tlb_entries,
                             functional=True)
        system = System(config, shredder=True)
        ctx = system.new_context(0)
        base = ctx.malloc(PAGE)
        ctx.store_u64(base, 7)
        assert ctx.load_u64(base) == 7
        system.kernel.exit_process(ctx.pid)
        with pytest.raises(SimulationError):
            ctx.touch(base, write=False)
        with pytest.raises(SimulationError):
            ctx.touch(base, write=True)
        with pytest.raises(SimulationError):
            ctx.load_u64(base)
        with pytest.raises(SimulationError):
            ctx.store_u64(base, 8)

    def test_exit_empties_the_page_table(self, tiny_config_factory,
                                         tlb_entries):
        config = make_config(tiny_config_factory, tlb_entries=tlb_entries,
                             functional=False)
        system = System(config, shredder=True)
        ctx = system.new_context(0)
        base = ctx.malloc(2 * PAGE)
        ctx.touch(base, write=True)
        ctx.touch(base + PAGE, write=False)
        table = system.kernel.processes[ctx.pid].page_table
        assert system.kernel.exit_process(ctx.pid) == 1
        assert len(table) == 0
        assert ctx.tlb is None or len(ctx.tlb) == 0


class TestPageTableResolve:
    def test_hits_and_misses(self):
        table = PageTable(PAGE)
        table.map(2, 7, writable=True)
        table.map(3, 0, writable=False, zero_page=True)
        assert table.resolve(2 * PAGE + 5, True).ppn == 7
        assert table.resolve(3 * PAGE, False).ppn == 0
        assert table.resolve(3 * PAGE, True) is None      # COW fault
        assert table.resolve(4 * PAGE, False) is None     # not mapped
        assert table.resolve(-PAGE, False) is None        # kernel rejects
