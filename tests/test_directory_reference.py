"""``CoherenceDirectory``'s int entries against a transcription of the
``DirectoryEntry`` directory they replaced.

The directory keeps one int per block: the sharer bitmask shifted left
by two, OR'd with the state (0 = S, 1 = E, 2 = M). The design it
replaced kept a :class:`DirectoryEntry` per block, a set of sharers, an
owner core id and a :class:`MESIState`; :class:`ReferenceDirectory`
below transcribes it.

Hypothesis drives both through random ``read``, ``write``, ``evicted``
and ``invalidate_block`` calls on 1-4 cores over a few blocks. After
every operation the return values (lists, in the same order), all four
``CoherenceStats`` fields and ``state_of``/``sharers_of`` for every
(block, core) must match, and both directories must pass their own
``check_invariants``. Mutants of the int directory must fail the suite.
"""

from __future__ import annotations

import inspect
import textwrap
from dataclasses import astuple, dataclass, field
from typing import Any, Dict, List, Set

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.cache import CoherenceDirectory, MESIState
from repro.cache import coherence as coherence_module
from repro.cache.coherence import CoherenceStats
from repro.errors import SimulationError

BLOCK = 64
BLOCKS = 4


# -- the reference: the directory before the int entries ---------------------------

@dataclass
class DirectoryEntry:
    """Who caches one block, and how."""

    sharers: Set[int] = field(default_factory=set)
    owner: int = -1                      # core id with M/E, -1 when shared/none
    state: MESIState = MESIState.INVALID


class ReferenceDirectory:
    """Directory-based MESI over one :class:`DirectoryEntry` per block."""

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores
        self._entries: Dict[int, DirectoryEntry] = {}
        self.stats = CoherenceStats()

    def _entry(self, block_address: int) -> DirectoryEntry:
        entry = self._entries.get(block_address)
        if entry is None:
            entry = DirectoryEntry()
            self._entries[block_address] = entry
        return entry

    def state_of(self, block_address: int, core: int) -> MESIState:
        entry = self._entries.get(block_address)
        if entry is None or core not in entry.sharers:
            return MESIState.INVALID
        if entry.owner == core:
            return entry.state
        return MESIState.SHARED

    def sharers_of(self, block_address: int) -> Set[int]:
        entry = self._entries.get(block_address)
        return set(entry.sharers) if entry else set()

    def read(self, block_address: int, core: int) -> List[int]:
        entry = self._entry(block_address)
        downgraded: List[int] = []
        if core in entry.sharers and (entry.owner == core or
                                      entry.state is MESIState.SHARED):
            return downgraded
        if entry.owner >= 0 and entry.owner != core:
            downgraded.append(entry.owner)
            if entry.state is MESIState.MODIFIED:
                self.stats.writebacks_forced += 1
            self.stats.read_misses_served_by_owner += 1
            entry.owner = -1
            entry.state = MESIState.SHARED
        entry.sharers.add(core)
        if len(entry.sharers) == 1:
            entry.owner = core
            entry.state = MESIState.EXCLUSIVE
        else:
            entry.owner = -1
            entry.state = MESIState.SHARED
        return downgraded

    def write(self, block_address: int, core: int) -> List[int]:
        entry = self._entry(block_address)
        invalidate = [c for c in entry.sharers if c != core]
        if invalidate:
            self.stats.invalidations_sent += len(invalidate)
        if entry.owner != core and entry.owner >= 0:
            self.stats.ownership_transfers += 1
        entry.sharers = {core}
        entry.owner = core
        entry.state = MESIState.MODIFIED
        return invalidate

    def evicted(self, block_address: int, core: int) -> None:
        entry = self._entries.get(block_address)
        if entry is None:
            return
        entry.sharers.discard(core)
        if entry.owner == core:
            entry.owner = -1
            entry.state = MESIState.SHARED if entry.sharers else MESIState.INVALID
        if not entry.sharers:
            del self._entries[block_address]

    def invalidate_block(self, block_address: int) -> List[int]:
        entry = self._entries.pop(block_address, None)
        if entry is None:
            return []
        self.stats.invalidations_sent += len(entry.sharers)
        return sorted(entry.sharers)

    def check_invariants(self) -> None:
        for address, entry in self._entries.items():
            if entry.state in (MESIState.MODIFIED, MESIState.EXCLUSIVE):
                if entry.owner < 0 or len(entry.sharers) != 1:
                    raise SimulationError(
                        f"block {address:#x}: {entry.state.value} state with "
                        f"sharers={sorted(entry.sharers)} owner={entry.owner}")
            if entry.state is MESIState.SHARED and entry.owner >= 0:
                raise SimulationError(
                    f"block {address:#x}: SHARED but owner={entry.owner}")
            if not entry.sharers:
                raise SimulationError(f"block {address:#x}: empty entry retained")


# -- observing both --------------------------------------------------------------------

def tracked_blocks(directory) -> Set[int]:
    """The block addresses a directory (either design) has entries for."""
    if isinstance(directory, CoherenceDirectory):
        return set(directory.entries)
    return set(directory._entries)


def render(directory, blocks, num_cores: int) -> tuple:
    """A directory as its public queries see it: the stats, then for each
    block its sharers and every core's MESI state."""
    return (astuple(directory.stats),
            tuple((block, tuple(sorted(directory.sharers_of(block))),
                   tuple(directory.state_of(block, core).name
                         for core in range(num_cores)))
                  for block in sorted(blocks)))


def check_against_reference(num_cores: int, ops: List[tuple]) -> None:
    directory, ref = CoherenceDirectory(num_cores), ReferenceDirectory(num_cores)
    universe = [block * BLOCK for block in range(BLOCKS)]
    for step, (kind, block, core) in enumerate(ops):
        args = (block * BLOCK,) if kind == "invalidate_block" else \
            (block * BLOCK, core)
        got = getattr(directory, kind)(*args)
        want = getattr(ref, kind)(*args)
        assert got == want, (step, kind, block, core)
        assert tracked_blocks(directory) == tracked_blocks(ref), step
        assert render(directory, universe, num_cores) == \
            render(ref, universe, num_cores), (step, kind, block, core)
        try:
            directory.check_invariants()
        except SimulationError as error:
            raise AssertionError((step, str(error))) from error
        ref.check_invariants()


@st.composite
def cases(draw):
    num_cores = draw(st.integers(min_value=1, max_value=4))
    op = st.tuples(
        st.sampled_from(["read", "read", "write", "evicted", "evicted",
                         "invalidate_block"]),
        st.integers(min_value=0, max_value=BLOCKS - 1),
        st.integers(min_value=0, max_value=num_cores - 1))
    return num_cores, draw(st.lists(op, min_size=10, max_size=60))


SUITE = settings(max_examples=300, deadline=None)


@SUITE
@given(case=cases())
def test_matches_reference(case):
    check_against_reference(*case)


def test_every_transition_on_four_cores():
    """Deterministic cover: each core reads, writes and evicts one block
    in turn, so every state meets every operation."""
    ops = []
    for i in range(48):
        core = i % 4
        ops += [("read", 0, core), ("write", 0, (core + 1) % 4),
                ("read", 0, (core + 2) % 4), ("evicted", 0, core),
                ("read", 1, core), ("evicted", 1, (core + 3) % 4)]
        if i % 5 == 0:
            ops.append(("invalidate_block", i % 2, core))
    check_against_reference(4, ops)


# -- the int encoding's invariants --------------------------------------------------

class TestCheckInvariants:
    @pytest.mark.parametrize("entry", [
        0,                       # no sharers
        0b11 << 2 | 1,           # E with two sharers
        0b101 << 2 | 2,          # M with two sharers
        0b1 << 2 | 3,            # no such state
    ])
    def test_corrupt_entry_detected(self, entry):
        directory = CoherenceDirectory(4)
        directory.entries[0x40] = entry
        with pytest.raises(SimulationError):
            directory.check_invariants()


# -- mutants of the int directory must fail the suite -------------------------------

#: name -> (method, fragment of its source, the mutation)
MUTANTS = {
    "write-forgets-ownership-transfers": (
        "write", "self.stats.ownership_transfers += 1", "pass"),
    "evicting-owner-keeps-entry": (
        "evicted", "del self.entries[block_address]", "pass"),
    "read-of-modified-forgets-forced-writeback": (
        "read", "self.stats.writebacks_forced += 1", "pass"),
}


def mutated(method: str, fragment: str, mutation: str):
    """``CoherenceDirectory.<method>`` recompiled with the first
    ``fragment`` of its source replaced by ``mutation``."""
    source = textwrap.dedent(inspect.getsource(
        getattr(CoherenceDirectory, method)))
    assert fragment in source, f"mutation site {fragment!r} not in {method}()"
    namespace: Dict[str, Any] = {}
    exec(source.replace(fragment, mutation, 1), dict(vars(coherence_module)),
         namespace)
    return namespace[method]


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_suite_catches_mutant(mutant, monkeypatch):
    """The property test, run as is except that it stops at the first
    counterexample (no shrinking) and records none."""
    method, fragment, mutation = MUTANTS[mutant]
    monkeypatch.setattr(CoherenceDirectory, method,
                        mutated(method, fragment, mutation))
    search = settings(SUITE, phases=[Phase.generate], database=None)(
        given(case=cases())(test_matches_reference.hypothesis.inner_test))
    with pytest.raises(AssertionError):
        search()
