"""``ExecutionContext.touch`` fast path vs the reference walk.

``touch`` serves two common cases in place, without the reference chain:

* with no TLB, a present, permission-compatible entry of the process's
  page-table dict translates the address instead of
  ``Kernel.translate``;
* a pure L1 hit is applied to the L1 and L4 set dicts (and, for a
  store, the L4 dirty set) instead of ``CacheHierarchy.access``, and
  the load retires into ``core.stats`` instead of ``Core.load``.

Both shortcuts must be step-identical to the reference chain. These
tests drive random interleavings of touches, 8-byte loads and stores,
shreds, ``munmap``, re-touch and ``System.reset_stats`` on two cores and
two processes (one of them running on both cores, so stores contend for
M ownership, and reads share the Zero Page before COW writes) through
two identical systems: one through the context's methods, one through
the pre-fast-path bodies transcribed below. Reports, event logs,
per-cache stats, each set's recency order, dirty blocks and payloads,
the directory, core timing and TLBs must all match, and shredded blocks
must miss L1 and read back as zeros (DESIGN.md §5 invariants 1-2).
Mutants of ``touch`` must fail the suite.
"""

import inspect
import textwrap
from dataclasses import asdict, replace
from typing import Any, Dict

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.cache.coherence import owned_entry
from repro.errors import SimulationError
from repro.kernel import PageTable
from repro.runtime import context as context_module
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
        latency, _ = ctx.machine.store(ctx.core_id, physical,
                                       now_ns=ctx.core.now_ns, merge=merge)
        ctx.core.store(latency)
    else:
        latency, _ = ctx.machine.load(ctx.core_id, physical, ctx.core.now_ns)
        ctx.core.load(latency)


def reference_load_u64(ctx, vaddr):
    physical = reference_translate(ctx, vaddr, False)
    latency, data = ctx.machine.load(ctx.core_id, physical, ctx.core.now_ns)
    ctx.core.load(latency)
    if not ctx.functional or data is None:
        return 0
    offset = physical % ctx.block_size
    return int.from_bytes(data[offset:offset + 8], "little")


def reference_store_u64(ctx, vaddr, value):
    physical = reference_translate(ctx, vaddr, True)
    merge = None
    if ctx.functional:
        merge = (physical % ctx.block_size, value.to_bytes(8, "little"))
    latency, _ = ctx.machine.store(ctx.core_id, physical,
                                   now_ns=ctx.core.now_ns, merge=merge)
    ctx.core.store(latency)


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
        if kind == "reset":
            self.system.reset_stats()
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
    any of its blocks misses L1 and takes the walk."""
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
            assert not hierarchy.l2[core].contains(address)


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
TOUCH_ARGS = (CTX, PAGE_ST, BLOCK_ST, st.booleans(),
              st.integers(min_value=1, max_value=4))      # back-to-back reps
#: the op mix, one entry per share (``st.one_of`` would give each
#: distinct branch an equal share): touches lead, and the ops that drop
#: cached state or statistics (shred, munmap, reset) are rare, so that
#: sharing patterns live long enough to matter
OP_MIX = (["touch"] * 6 + ["load"] * 2 + ["store"] * 2
          + ["shred", "munmap", "reset"])
OP_ARGS = {"touch": TOUCH_ARGS, "load": (CTX, PAGE_ST, BLOCK_ST),
           "store": (CTX, PAGE_ST, BLOCK_ST,
                     st.integers(min_value=1, max_value=2**64 - 1)),
           "shred": (CTX, PAGE_ST), "munmap": (CTX,), "reset": (CTX,)}
OPS = st.lists(st.sampled_from(OP_MIX).flatmap(
    lambda kind: st.tuples(st.just(kind), *OP_ARGS[kind])),
    min_size=20, max_size=80)
ZEROING = st.sampled_from(["shred", "temporal", "nontemporal"])

SUITE = settings(max_examples=40, deadline=None)


@pytest.mark.parametrize("functional", [False, True],
                         ids=["timing", "functional"])
@pytest.mark.parametrize("tlb_entries", [0, TLB_ENTRIES],
                         ids=["no-tlb", "tlb"])
class TestTouchFastPathEquivalence:
    @SUITE
    @given(ops_list=OPS, zeroing=ZEROING)
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

#: name -> (fragment of ``ExecutionContext.touch``'s source, the mutation)
MUTANTS = {
    # A store hit that skips the "only sharer, in M" check.
    "store-hit-skips-owner-check": ("== self._owned", "!= -1"),
    # The page-table probe serves writes to read-only (Zero Page) entries.
    "probe-ignores-permissions": ("(entry.writable or not write)", "True"),
    # The load retires into the CoreStats the context first saw, which
    # System.reset_stats replaces.
    "stale-core-stats": (
        "stats = self.core.stats",
        "stats = self.__dict__.setdefault('_stats', self.core.stats)"),
}


def mutated_touch(fragment: str, mutation: str):
    """``ExecutionContext.touch`` recompiled with the first ``fragment``
    of its source replaced by ``mutation``."""
    source = textwrap.dedent(inspect.getsource(ExecutionContext.touch))
    assert fragment in source, f"mutation site {fragment!r} not in touch()"
    namespace: Dict[str, Any] = {}
    exec(source.replace(fragment, mutation, 1), dict(vars(context_module)),
         namespace)
    return namespace["touch"]


def mutant_ignoring_permissions(self, vaddr, write):
    """``PageTable.resolve`` that serves writes to read-only entries."""
    return self.entries.get(vaddr // self.page_size)


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

#: a read maps the Zero Page read-only and caches it in L1; a touch
#: store must COW-fault instead of hitting the Zero Page's block.
TOUCH_READ_THEN_WRITE = [("touch", 0, 1, 0, False, 2),
                         ("touch", 0, 1, 0, True, 2)]

#: a load hit after a stats reset must count in the new statistics.
TOUCH_RESET_TOUCH = [("touch", 0, 0, 0, False, 2), ("reset", 0),
                     ("touch", 0, 0, 0, False, 2)]

#: mutant -> an op list on which it diverges from the reference (the
#: owner-check mutant's is PING_PONG, below)
WITNESSES = {
    "probe-ignores-permissions": TOUCH_READ_THEN_WRITE,
    "stale-core-stats": TOUCH_RESET_TOUCH,
}


def diverges(config, ops_list):
    fast, ref, traces = run_pair(config, ops_list)
    return traces[0] != traces[1] or fast.signature() != ref.signature()


class TestFastPathIsExercised:
    def test_hits_skip_kernel_and_hierarchy_walk(self, tiny_config_factory,
                                                 monkeypatch):
        config = make_config(tiny_config_factory, tlb_entries=0,
                             functional=False)
        world = World(config, FastOps)
        calls = {"translate": 0, "access": 0, "resolve": 0, "load": 0,
                 "store": 0}
        kernel = world.system.kernel
        hierarchy = world.system.machine.hierarchy
        core = world.system.cores[0]
        table = kernel.page_table(world.contexts[0].pid)
        real = {"translate": kernel.translate, "access": hierarchy.access,
                "resolve": table.resolve, "load": core.load,
                "store": core.store}

        def counting(name):
            def call(*args, **kwargs):
                calls[name] += 1
                return real[name](*args, **kwargs)
            return call

        monkeypatch.setattr(kernel, "translate", counting("translate"))
        monkeypatch.setattr(hierarchy, "access", counting("access"))
        monkeypatch.setattr(table, "resolve", counting("resolve"))
        monkeypatch.setattr(core, "load", counting("load"))
        monkeypatch.setattr(core, "store", counting("store"))
        world.apply(("touch", 0, 0, 0, True, 5))
        world.apply(("touch", 0, 0, 0, False, 5))
        # One COW fault (whose translation probes the table in
        # _translate and in Kernel.translate), one reference walk; the
        # other nine are hits. Loads retire in place, stores through the
        # core's store buffer.
        assert calls == {"translate": 1, "access": 1, "resolve": 2,
                         "load": 0, "store": 5}
        assert hierarchy.l1[0].stats.hits == 9
        assert core.stats.loads == 5 and core.stats.stores == 5

    @pytest.mark.parametrize("tlb_entries", [0, TLB_ENTRIES])
    def test_suite_catches_a_missing_owner_check(self, tiny_config_factory,
                                                 monkeypatch, tlb_entries):
        config = make_config(tiny_config_factory, tlb_entries=tlb_entries,
                             functional=False)
        assert not diverges(config, PING_PONG)
        monkeypatch.setattr(ExecutionContext, "touch", mutated_touch(
            *MUTANTS["store-hit-skips-owner-check"]))
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

    @pytest.mark.parametrize("mutant", sorted(WITNESSES))
    def test_witness_catches_mutant(self, tiny_config_factory, monkeypatch,
                                    mutant):
        config = make_config(tiny_config_factory, tlb_entries=0,
                             functional=False)
        assert not diverges(config, WITNESSES[mutant])
        monkeypatch.setattr(ExecutionContext, "touch",
                            mutated_touch(*MUTANTS[mutant]))
        assert diverges(config, WITNESSES[mutant])

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_suite_catches_mutant(self, tiny_config_factory, monkeypatch,
                                  mutant):
        """The timing-mode, no-TLB property test, except that it stops
        at the first counterexample (no shrinking), records none, and
        may draw up to 500 examples: a store-ownership ping-pong can take
        a few dozen to come up."""
        monkeypatch.setattr(ExecutionContext, "touch",
                            mutated_touch(*MUTANTS[mutant]))

        @settings(SUITE, max_examples=500, phases=[Phase.generate],
                  database=None)
        @given(ops_list=OPS, zeroing=ZEROING)
        def search(ops_list, zeroing):
            assert_equivalent(make_config(tiny_config_factory, tlb_entries=0,
                                          functional=False, zeroing=zeroing),
                              ops_list)

        with pytest.raises(AssertionError):
            search()


class TestProbeDeclinesWithoutSideEffects:
    """Each access the in-place hit must refuse (the reason read through
    ``contains`` and the directory) takes exactly one reference walk."""

    @staticmethod
    def prepared(config):
        system = System(config, shredder=True)
        ctx = system.new_context(0)
        on_1 = ExecutionContext(system, ctx.pid, 1)
        base = system.kernel.mmap(ctx.pid, 2 * PAGE).start
        vaddrs = {"M": base + BLOCK, "E": base + 2 * BLOCK,
                  "S": base + PAGE + 3 * BLOCK, "absent": base + 4 * BLOCK}
        ctx.touch(vaddrs["M"], True)          # private, M at core 0
        ctx.touch(vaddrs["E"], False)         # private, E at core 0
        ctx.touch(vaddrs["S"], True)
        on_1.touch(vaddrs["S"], False)        # shared by cores 0 and 1
        return system, ctx, on_1, vaddrs

    @pytest.mark.parametrize("functional", [False, True])
    def test_declines(self, tiny_config_factory, functional, monkeypatch):
        config = make_config(tiny_config_factory, tlb_entries=0,
                             functional=functional)
        cases = [(1, "M", False),             # not in core 1's L1
                 (1, "M", True),
                 (0, "absent", False),        # not resident at all
                 (0, "E", True),              # E, not M: needs upgrade
                 (0, "S", True)]              # S, not M: invalidates core 1
        if functional:
            cases.append((0, "M", True))      # payload merge needed
        for core, name, write in cases:
            system, ctx, on_1, vaddrs = self.prepared(config)
            context = (ctx, on_1)[core]
            hierarchy = system.machine.hierarchy
            physical = ctx._translate(vaddrs[name], write=False)
            address = physical - physical % BLOCK
            entry = hierarchy.directory.entries.get(address)
            resident = (hierarchy.l1[core].contains(address)
                        and hierarchy.l4.contains(address))
            assert not resident or write and (
                functional or entry != owned_entry(core)), (core, name)
            walks = []
            real_access = hierarchy.access
            monkeypatch.setattr(hierarchy, "access", lambda *args: walks.append(
                args[:3]) or real_access(*args))
            context.touch(vaddrs[name], write)
            assert walks == [(core, physical, write)], (core, name, write)
            system.verify_invariants()

    def test_hits_when_nothing_declines(self, tiny_config_factory,
                                        monkeypatch):
        """The control: in timing mode the M block's store, and every
        resident block's load on core 0, is served in place."""
        config = make_config(tiny_config_factory, tlb_entries=0,
                             functional=False)
        system, ctx, _, vaddrs = self.prepared(config)
        hierarchy = system.machine.hierarchy
        monkeypatch.setattr(hierarchy, "access", None)
        ctx.touch(vaddrs["M"], True)
        for name in ("M", "E", "S"):
            ctx.touch(vaddrs[name], False)
        assert hierarchy.l1[0].stats.hits == 4


# -- a context outlives a statistics reset ------------------------------------------

@pytest.mark.parametrize("tlb_entries", [0, TLB_ENTRIES])
def test_context_survives_stats_reset(tiny_config_factory, tlb_entries):
    """``System.reset_stats`` replaces every stats object; a context made
    before it must count its next hit, load and compute in the new ones,
    while time keeps flowing."""
    config = make_config(tiny_config_factory, tlb_entries=tlb_entries,
                         functional=False)
    system = System(config, shredder=True)
    ctx = system.new_context(0)
    base = ctx.malloc(PAGE)
    ctx.touch(base, False)                    # a fault and a walk
    core, l1 = system.cores[0], system.machine.hierarchy.l1[0]
    before = core.stats.cycles
    system.reset_stats()
    ctx.touch(base, False)                    # an L1 hit, served in place
    ctx.compute(3)
    assert core.stats.loads == 1
    assert l1.stats.hits == 1 and l1.stats.misses == 0
    assert core.stats.instructions == 4
    assert core.stats.cycles > before


def test_context_needs_a_core_of_the_system(tiny_config_factory):
    """The in-place hit reads the context's own core's L1: a core id
    outside the system is refused when the context is made."""
    system = System(make_config(tiny_config_factory, tlb_entries=0,
                                functional=False), shredder=True)
    pid = system.new_context(0).pid
    for core_id in (-1, len(system.cores)):
        with pytest.raises(SimulationError, match="no core"):
            ExecutionContext(system, pid, core_id)


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
