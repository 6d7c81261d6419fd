"""The secure controllers' one-pass datapath against a transcription of
the call chain it replaced.

Each memory transaction used to walk ``fetch_block``/``store_block`` ->
``get_counters`` -> ``CounterCache.lookup`` -> ``CounterFetch``, then
``MemoryController.read_block``/``write_block`` -> the device's
``read_block``/``write_block`` -> ``check_block_address`` ->
``MemoryStats.record_*`` -> ``ChannelModel.request`` ->
``channel_for``, and ``_counters_updated`` -> ``mark_dirty``. The
classes below transcribe that chain; a controller becomes the
reference by swapping its own, its device's, its memory controller's
and its channel model's classes for them, so both sides share every
piece of state-holding construction (the wear leveller and its
move hook included), and by replacing its counter cache with
:class:`ReferenceCounterCache`, which runs on the way-and-stamp
``test_cache_reference.ReferenceCache``.

The reference also keeps the result records the chain returned,
which the code under test no longer builds: :class:`RawAccess` (with
its ``finish_ns``) from the memory controller and :class:`AccessResult`
from ``fetch_block``/``store_block``, and it transcribes
``_reencrypt_page`` as it was, timing the page's transactions by
``finish_ns`` where the code under test uses start + latency.

Hypothesis drives a reference and a current controller, baseline and
Silent Shredder, in timing and functional mode, through random
fetches, stores, shreds, counter probes, raw memory transactions,
same-time write bursts and counter flushes. Configurations cover
write-back and write-through counter caches, counter caches small
enough to evict dirty entries, minor-counter overflow, Start-Gap and
an attached bus snooper. After every operation the returned plain
values must equal the reference records' fields (``(data,
latency_ns, zero_filled)`` for a fetch, ``latency_ns`` for a store,
``(data, latency_ns)``/``latency_ns`` for a raw read/write), as must
the ``CounterFetch`` fields, the
``SecureMemoryStats`` (latency buckets included), the device's and the
memory controller's ``MemoryStats``, the channel's queue state, the
NVM cells, wear map and flip bits, the counter cache's entries, stats,
each set's recency order and dirty blocks, the Merkle root, the event log, the snooper's records
and the Start-Gap registers must match. Mutants of the datapath must
fail the suite.
"""

from __future__ import annotations

import inspect
import sys
import textwrap
from dataclasses import astuple, dataclass, replace
from typing import Any, Dict, Optional

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.cache.counter_cache import CounterEviction
from repro.config import (KB, CacheConfig, CounterCacheConfig, NVMConfig,
                          fast_config)
from repro.core import SecureMemoryController, SilentShredderController
from repro.core.iv import MINOR_SHREDDED, CounterBlock
from repro.core.secure_memory import CounterFetch
from repro.core.shredder import ShredOutcome
from repro.errors import AddressError
from repro.mem import (BusSnooper, ChannelModel, MemoryController,
                       MemoryDevice, NVMDevice)
from repro.mem.nvm import FNW_WORD_BITS
from repro.obs.events import EventRecorder

from tests.test_cache_reference import ReferenceCache
from tests.test_cache_reference import render as render_cache

BLOCK = 64
PAGE = 4 * KB
PAGES = 6
OFFSETS = 4                 # blocks used per page: counters get reused


# -- the reference: the chain before the one-pass rewrite --------------------------

@dataclass
class RawAccess:
    """What the memory controller's transactions used to return."""

    data: Optional[bytes]
    latency_ns: float
    finish_ns: float


@dataclass
class AccessResult:
    """What the secure controller's transactions used to return."""

    data: Optional[bytes]
    latency_ns: float
    zero_filled: bool = False
    counter_hit: bool = True
    reencrypted: bool = False


class ReferenceChannel(ChannelModel):
    def request(self, address, now_ns, service_ns, *, is_read=True):
        channel = self.channel_for(address)
        cap_ns = self.max_queue_slots * self.transfer_ns
        queue_delay = min(max(0.0, self._free_at_ns[channel] - now_ns), cap_ns)
        start = now_ns + queue_delay
        if queue_delay > 0:
            self.queued_requests += 1
            self.total_queue_delay_ns += queue_delay
        self._free_at_ns[channel] = min(
            max(self._free_at_ns[channel], start) + self.transfer_ns,
            now_ns + cap_ns)
        self.busy_ns += self.transfer_ns
        self.total_requests += 1
        return start + self.transfer_ns + service_ns


class ReferenceNVMDevice(NVMDevice):
    def read_block(self, address):
        self.check_block_address(address)
        self.stats.record_read(self.block_size, self.read_latency_ns,
                               self.read_energy_pj)
        if not self.functional:
            return self._zero_line
        return self._lines.get(address, self._zero_line)

    def write_block(self, address, data):
        self.check_block_address(address)
        bits = self._store(address, data)
        self.stats.record_write(self.block_size, bits, self.write_latency_ns,
                                self.write_energy_pj)
        return bits

    def _store(self, address, data):
        wear = self.wear.get(address, 0) + 1
        self.wear[address] = wear
        if wear == self.endurance_writes + 1:
            self.worn_out_lines += 1
        if not self.functional or data is None:
            total_bits = self.block_size * 8
            if self.write_scheme == "naive":
                return total_bits
            estimated = total_bits // 2
            if self.write_scheme == "fnw":
                estimated = min(estimated, (total_bits // 2)
                                + self.block_size * 8 // FNW_WORD_BITS)
            return estimated
        old = self._lines.get(address, self._zero_line)
        bits = self._count_programmed_bits(address, old, data)
        MemoryDevice._store(self, address, data)
        return bits


class ReferenceMemoryController(MemoryController):
    def _physical_address(self, address):
        if self.wear_leveler is None:
            return address
        logical_line = address // self.block_size
        return self.wear_leveler.translate(logical_line) * self.block_size

    def read_block(self, address, now_ns=0.0):
        now = now_ns
        physical = self._physical_address(address)
        data = self.device.read_block(physical)
        for snooper in self.snoopers:
            snooper.observe("read", address, data)
        finish = self.channels.request(address, now,
                                       self.device.read_latency_ns,
                                       is_read=True)
        latency = finish - now
        self.stats.record_read(self.block_size, latency,
                               self.device.read_energy_pj)
        return RawAccess(data=data, latency_ns=latency, finish_ns=finish)

    def write_block(self, address, data=None, now_ns=0.0):
        now = now_ns
        physical = self._physical_address(address)
        for snooper in self.snoopers:
            snooper.observe("write", address, data)
        bits = self.device.write_block(physical, data)
        if self.wear_leveler is not None:
            self.wear_leveler.record_write(address // self.block_size)
        finish = self.channels.request(address, now,
                                       self.device.write_latency_ns,
                                       is_read=False)
        latency = finish - now
        self.stats.record_write(self.block_size, bits, latency,
                                self.device.write_energy_pj)
        return RawAccess(data=None, latency_ns=latency, finish_ns=finish)


class ReferenceDatapath:
    """The secure controller's transactions before the one-pass rewrite."""

    def _persist_counters(self, page_id, counters, now_ns):
        packed = counters.pack() if self.functional else None
        access = self.mem.write_block(self._counter_address(page_id), packed,
                                      now_ns)
        if self.merkle is not None and packed is not None:
            self.merkle.update(page_id, packed)
        self.stats.counter_writebacks += 1
        return access.latency_ns + self._merkle_latency_ns

    def _load_counters(self, page_id, now_ns):
        access = self.mem.read_block(self._counter_address(page_id), now_ns)
        self.stats.counter_fetches += 1
        latency = access.latency_ns + self._merkle_latency_ns
        if not self.functional:
            return CounterFetch(CounterBlock.fresh(self.blocks_per_page,
                                                   self.minor_bits),
                                latency, hit=False)
        raw = access.data
        if self.merkle is not None:
            self.merkle.verify(page_id, raw)
        if raw == bytes(self.block_size):
            return CounterFetch(CounterBlock.fresh(self.blocks_per_page,
                                                   self.minor_bits),
                                latency, hit=False)
        return CounterFetch(CounterBlock.unpack(raw, self.blocks_per_page,
                                                self.minor_bits),
                            latency, hit=False)

    def get_counters(self, page_id, now_ns=0.0):
        now = now_ns
        if page_id < 0 or page_id >= self.num_pages:
            raise AddressError(f"page id {page_id} out of range")
        cached = self.counter_cache.lookup(page_id)
        if cached is not None:
            self.stats.counter_hits += 1
            return CounterFetch(cached, self._counter_latency_ns, hit=True)
        self.stats.counter_misses += 1
        load = self._load_counters(page_id, now)
        evicted = self.counter_cache.fill(page_id, load.counters)
        if evicted is not None and evicted.dirty:
            self._persist_counters(evicted.page_id, evicted.block, now)
        return CounterFetch(load.counters,
                            self._counter_latency_ns + load.latency_ns,
                            hit=False)

    def _counters_updated(self, page_id, counters, now_ns):
        if self.counter_cache.write_through:
            return self._persist_counters(page_id, counters, now_ns)
        self.counter_cache.mark_dirty(page_id)
        return 0.0

    def fetch_block(self, address, now_ns=0.0):
        now = now_ns
        self._check_data_address(address)
        page_id = self.page_of(address)
        offset = self.offset_of(address)
        fetch = self.get_counters(page_id, now)
        counters, counter_latency, hit = \
            fetch.counters, fetch.latency_ns, fetch.hit
        if self.zero_semantics and counters.is_shredded(offset):
            latency = counter_latency
            if self.events is not None:
                self.events.emit("zero_fill", page_id, now)
            self.stats.zero_fill_reads += 1
            self.stats.record_read(latency)
            return AccessResult(data=self._zero_block if self.functional
                                else None,
                                latency_ns=latency, zero_filled=True,
                                counter_hit=hit)
        access = self.mem.read_block(address, now + counter_latency)
        self.stats.data_reads += 1
        plaintext = None
        if self.functional:
            if self.encrypted:
                iv = self._iv(page_id, offset, counters)
                plaintext = self.engine.decrypt(access.data, iv)
            else:
                plaintext = access.data
        latency = (counter_latency
                   + max(access.latency_ns, self._pad_latency_ns)
                   + self._xor_latency_ns)
        self.stats.record_read(latency)
        return AccessResult(data=plaintext, latency_ns=latency,
                            counter_hit=hit)

    def store_block(self, address, data=None, now_ns=0.0):
        now = now_ns
        self._check_data_address(address)
        if self.functional and (data is None or len(data) != self.block_size):
            raise AddressError("functional store requires a full data block")
        page_id = self.page_of(address)
        offset = self.offset_of(address)
        fetch = self.get_counters(page_id, now)
        counters, counter_latency, hit = \
            fetch.counters, fetch.latency_ns, fetch.hit
        reencrypted = False
        if self.events is not None and self.zero_semantics \
                and counters.is_shredded(offset):
            self.events.emit("shredded_writeback", page_id, now,
                             block=offset)
        if counters.bump_minor(offset):
            if self.events is not None:
                self.events.emit("minor_overflow", page_id, now,
                                 block=offset)
            latency = self._reencrypt_page(page_id, counters,
                                           {offset: data}, now)
            self.stats.reencryptions += 1
            return AccessResult(data=None,
                                latency_ns=counter_latency + latency,
                                counter_hit=hit, reencrypted=True)
        ciphertext = None
        if self.functional:
            if self.encrypted:
                iv = self._iv(page_id, offset, counters)
                ciphertext = self.engine.encrypt(data, iv)
            else:
                ciphertext = data
        pad_ns = self._pad_latency_ns + self._xor_latency_ns
        access = self.mem.write_block(address, ciphertext,
                                      now + counter_latency + pad_ns)
        self.stats.data_writes += 1
        counter_update_ns = self._counters_updated(page_id, counters, now)
        latency = counter_latency + pad_ns + access.latency_ns + counter_update_ns
        return AccessResult(data=None, latency_ns=latency, counter_hit=hit,
                            reencrypted=reencrypted)

    def _reencrypt_page(self, page_id, counters, replacements, now_ns):
        if self.events is not None:
            self.events.emit("iv_regen", page_id, now_ns)
        plaintexts = {}
        last_finish = now_ns
        for offset in range(self.blocks_per_page):
            if offset in replacements:
                plaintexts[offset] = replacements[offset]
                continue
            if self.zero_semantics and counters.is_shredded(offset):
                continue
            address = page_id * self.page_size + offset * self.block_size
            access = self.mem.read_block(address, now_ns)
            self.stats.data_reads += 1
            last_finish = max(last_finish, access.finish_ns)
            if self.functional:
                if self.encrypted:
                    iv = self._iv(page_id, offset, counters)
                    plaintexts[offset] = self.engine.decrypt(access.data, iv)
                else:
                    plaintexts[offset] = access.data
            else:
                plaintexts[offset] = None
        counters.major += 1
        for offset in range(self.blocks_per_page):
            if self.zero_semantics and counters.minors[offset] == MINOR_SHREDDED \
                    and offset not in plaintexts:
                continue
            counters.minors[offset] = 1
        write_start = last_finish
        for offset, plaintext in plaintexts.items():
            address = page_id * self.page_size + offset * self.block_size
            ciphertext = None
            if self.functional:
                if self.encrypted:
                    iv = self._iv(page_id, offset, counters)
                    ciphertext = self.engine.encrypt(plaintext, iv)
                else:
                    ciphertext = plaintext
            access = self.mem.write_block(address, ciphertext, write_start)
            self.stats.data_writes += 1
            last_finish = max(last_finish, access.finish_ns)
        self._counters_updated(page_id, counters, now_ns)
        return last_finish - now_ns

    def shred_page(self, page_id, now_ns=0.0):
        if page_id < 0 or page_id >= self.num_pages:
            raise AddressError(f"page id {page_id} out of range")
        fetch = self.get_counters(page_id, now_ns)
        counters, counter_latency = fetch.counters, fetch.latency_ns
        effect = self.policy.apply(counters)
        update_latency = self._counters_updated(page_id, counters, now_ns)
        self.stats.shreds += 1
        if self.events is not None:
            self.events.emit("shred", page_id, now_ns)
        if effect.reencrypted:
            if self.events is not None:
                self.events.emit("iv_regen", page_id, now_ns)
            self.stats.reencryptions += 1
        return ShredOutcome(page_id=page_id,
                            latency_ns=counter_latency + update_latency,
                            counter_reencrypted=effect.reencrypted)


class ReferenceCounterCache:
    """The counter cache before the one-pass rewrite, on the transcribed
    way-and-stamp cache: every probe goes through ``lookup``/``peek``."""

    def __init__(self, config: CounterCacheConfig) -> None:
        self.config = config
        self.latency_cycles = config.latency_cycles
        self.write_through = config.write_policy == "writethrough"
        self.lines = ReferenceCache(CacheConfig(
            name="CounterCache", size_bytes=config.size_bytes,
            associativity=config.associativity,
            block_size=config.block_size,
            latency_cycles=config.latency_cycles))
        self._block_size = config.block_size

    def _address(self, page_id):
        return page_id * self._block_size

    @property
    def stats(self):
        return self.lines.stats

    def lookup(self, page_id):
        line = self.lines.lookup(self._address(page_id))
        return None if line is None else line.payload

    def peek(self, page_id):
        line = self.lines.peek(self._address(page_id))
        return None if line is None else line.payload

    def fill(self, page_id, block, *, dirty=False):
        evicted = self.lines.fill(self._address(page_id), block, dirty=dirty)
        if evicted is None:
            return None
        return CounterEviction(page_id=evicted.address // self._block_size,
                               block=evicted.payload, dirty=evicted.dirty)

    def mark_dirty(self, page_id):
        self.lines.mark_dirty(self._address(page_id))

    def entries(self):
        for address in self.lines.resident_addresses():
            line = self.lines.peek(address)
            yield address // self._block_size, line.payload, line.dirty

    def dirty_entries(self):
        return [(page_id, block)
                for page_id, block, dirty in self.entries() if dirty]

    def flush(self):
        flushed = []
        for address in self.lines.resident_addresses():
            line = self.lines.peek(address)
            if line.dirty:
                line.dirty = False
                flushed.append(CounterEviction(
                    page_id=address // self._block_size, block=line.payload,
                    dirty=True))
        return flushed

    def __len__(self):
        return len(self.lines)


class ReferenceSecure(ReferenceDatapath, SecureMemoryController):
    pass


class ReferenceShredder(ReferenceDatapath, SilentShredderController):
    pass


# -- building and observing a pair ------------------------------------------------------

def make_config(*, functional, write_policy, counter_entries, minor_bits,
                start_gap):
    base = fast_config(functional=functional)
    return replace(
        base,
        nvm=NVMConfig(capacity_bytes=PAGES * PAGE, start_gap=start_gap,
                      start_gap_interval=3, start_gap_region_lines=16),
        counter_cache=CounterCacheConfig(
            size_bytes=counter_entries * BLOCK,
            associativity=min(2, counter_entries), write_policy=write_policy),
        encryption=replace(base.encryption, minor_counter_bits=minor_bits))


def build(config, *, shredder: bool, snooper: bool, reference: bool):
    cls = SilentShredderController if shredder else SecureMemoryController
    controller = cls(config, events=EventRecorder())
    if reference:
        controller.__class__ = ReferenceShredder if shredder else ReferenceSecure
        controller.device.__class__ = ReferenceNVMDevice
        controller.mem.__class__ = ReferenceMemoryController
        controller.mem.channels.__class__ = ReferenceChannel
        controller.counter_cache = ReferenceCounterCache(config.counter_cache)
    if snooper:
        controller.mem.snoopers.append(BusSnooper())
    return controller


def observe(controller) -> tuple:
    device, mem = controller.device, controller.mem
    leveler = mem.wear_leveler
    return (
        astuple(controller.stats),
        vars(device.stats), vars(mem.stats), vars(mem.channels),
        dict(device._lines), dict(device.wear), device.worn_out_lines,
        dict(device._flip_state),
        [(page, counters.major, tuple(counters.minors), dirty)
         for page, counters, dirty in controller.counter_cache.entries()],
        render_cache(controller.counter_cache.lines),
        None if controller.merkle is None else
        (controller.merkle.root, controller.merkle.updates,
         controller.merkle.verifications),
        controller.events.snapshot(),
        [(snooper.records, snooper.dropped) for snooper in mem.snoopers],
        None if leveler is None else sorted(
            (region, level.start, level.gap, level.writes_since_move)
            for region, level in leveler._levelers.items()),
    )


def plain(kind: str, result: Any) -> Any:
    """A reference record in the shape the code under test returns."""
    if kind == "fetch":
        return result.data, result.latency_ns, result.zero_filled
    if kind in ("store", "raw_write"):
        return result.latency_ns
    if kind == "burst":
        return [access.latency_ns for access in result]
    if kind == "raw_read":
        return result.data, result.latency_ns
    return result


def describe(result: Any) -> Any:
    if isinstance(result, CounterFetch):
        counters = result.counters
        return ("CounterFetch", counters.major, tuple(counters.minors),
                result.latency_ns, result.hit)
    if isinstance(result, ShredOutcome):
        return "ShredOutcome", astuple(result)
    return result


def payload(controller, value: int) -> Optional[bytes]:
    return bytes([value]) * BLOCK if controller.functional else None


def apply(controller, op: tuple) -> Any:
    kind = op[0]
    if kind == "fetch":
        _, page, offset, at = op
        return controller.fetch_block(page * PAGE + offset * BLOCK, at)
    if kind == "store":
        _, page, offset, value, at = op
        return controller.store_block(page * PAGE + offset * BLOCK,
                                      payload(controller, value), at)
    if kind == "burst":
        # Many same-time write-backs to one channel fill its queue.
        _, page, count, at = op
        return [controller.store_block(
            page * PAGE + (2 * i % OFFSETS) * BLOCK,
            payload(controller, i % 255 + 1), at) for i in range(count)]
    if kind == "shred":
        _, page, at = op
        if not isinstance(controller, SilentShredderController):
            return None
        return controller.shred_page(page, at)
    if kind == "counters":
        _, page, at = op
        return controller.get_counters(page, at)
    if kind == "raw_read":
        _, page, offset, at = op
        return controller.mem.read_block(page * PAGE + offset * BLOCK, at)
    if kind == "raw_write":
        _, page, offset, value, at = op
        return controller.mem.write_block(page * PAGE + offset * BLOCK,
                                          payload(controller, value), at)
    assert kind == "flush_counters"
    return controller.flush_counters()


def check_against_reference(setup: Dict[str, Any], ops) -> None:
    config = make_config(**setup["config"])
    current = build(config, shredder=setup["shredder"],
                    snooper=setup["snooper"], reference=False)
    ref = build(config, shredder=setup["shredder"],
                snooper=setup["snooper"], reference=True)
    for step, op in enumerate(ops):
        got = describe(apply(current, op))
        want = describe(plain(op[0], apply(ref, op)))
        assert got == want, (step, op)
        assert observe(current) == observe(ref), (step, op)


@st.composite
def setups(draw):
    functional = draw(st.booleans())
    return {
        "shredder": draw(st.booleans()),
        "snooper": draw(st.booleans()),
        "config": {
            "functional": functional,
            "write_policy": draw(st.sampled_from(["writeback",
                                                  "writethrough"])),
            # 1-2 entries evict (dirty) counter blocks constantly.
            "counter_entries": draw(st.sampled_from([1, 2, 16])),
            # Functional counter blocks pack to 64 B only with 7-bit
            # minors; timing mode overflows 2-bit minors every 3 writes.
            "minor_bits": 7 if functional else draw(st.sampled_from([2, 7])),
            "start_gap": draw(st.booleans()),
        },
    }


PAGE_ST = st.integers(min_value=0, max_value=PAGES - 1)
OFFSET_ST = st.integers(min_value=0, max_value=OFFSETS - 1)
AT = st.sampled_from([0.0, 40.0, 500.0, 2000.0])
VALUE = st.integers(min_value=0, max_value=255)
OPS = st.lists(st.one_of(
    st.tuples(st.just("fetch"), PAGE_ST, OFFSET_ST, AT),
    st.tuples(st.just("fetch"), PAGE_ST, OFFSET_ST, AT),
    st.tuples(st.just("store"), PAGE_ST, OFFSET_ST, VALUE, AT),
    st.tuples(st.just("store"), PAGE_ST, OFFSET_ST, VALUE, AT),
    st.tuples(st.just("burst"), PAGE_ST,
              st.integers(min_value=1, max_value=80), AT),
    st.tuples(st.just("shred"), PAGE_ST, AT),
    st.tuples(st.just("counters"), PAGE_ST, AT),
    st.tuples(st.just("raw_read"), PAGE_ST, OFFSET_ST, AT),
    st.tuples(st.just("raw_write"), PAGE_ST, OFFSET_ST, VALUE, AT),
    st.tuples(st.just("flush_counters")),
), min_size=10, max_size=40)

SUITE = settings(max_examples=150, deadline=None)


@SUITE
@given(setup=setups(), ops=OPS)
def test_matches_reference(setup, ops):
    check_against_reference(setup, ops)


@pytest.mark.parametrize("shredder", [False, True],
                         ids=["baseline", "shredder"])
@pytest.mark.parametrize("functional", [False, True],
                         ids=["timing", "functional"])
def test_overflow_eviction_and_queue_cap(shredder, functional):
    """Deterministic cover: a 7-bit minor overflows (page re-encryption),
    a one-entry write-back counter cache evicts dirty blocks, Start-Gap
    moves lines, and a late-timed burst queues past the channel cap."""
    setup = {"shredder": shredder, "snooper": True,
             "config": {"functional": functional, "write_policy": "writeback",
                        "counter_entries": 1, "minor_bits": 7,
                        "start_gap": True}}
    ops = [("store", 0, 1, i % 255, float(i)) for i in range(130)]
    ops += [("fetch", 1, 0, 10.0), ("store", 1, 2, 7, 10.0),
            ("shred", 0, 20.0), ("fetch", 0, 1, 30.0),
            ("burst", 2, 80, 3000.0), ("raw_write", 3, 0, 9, 0.0),
            ("raw_read", 3, 0, 0.0), ("counters", 0, 5.0),
            ("flush_counters",)]
    check_against_reference(setup, ops)


# -- mutants of the datapath must fail the suite ---------------------------------------

#: name -> (class, method, fragment of its source, the mutation)
MUTANTS = {
    "store-forgets-mark-dirty": (
        SecureMemoryController, "_counters_updated",
        "lines.dirty.add(page_id)", "pass"),
    "counter-hit-keeps-old-recency": (
        SecureMemoryController, "_probe_counters",
        "counters = ways.pop(page_id, None)",
        "counters = ways.get(page_id)"),
    "channel-drops-queue-cap": (
        ChannelModel, "request", "queue_delay = cap_ns", "pass"),
    "device-write-skips-bit-count": (
        MemoryDevice, "write_block", "stats.bits_written += bits", "pass"),
    "reencrypt-times-writes-from-now": (
        SecureMemoryController, "_reencrypt_page",
        "last_finish = max(last_finish, write_start + latency)",
        "last_finish = max(last_finish, now_ns + latency)"),
}


def mutated(cls: type, method: str, fragment: str, mutation: str):
    """``cls.<method>`` recompiled with the first ``fragment`` of its
    source replaced by ``mutation``."""
    source = textwrap.dedent(inspect.getsource(getattr(cls, method)))
    assert fragment in source, f"mutation site {fragment!r} not in {method}()"
    namespace: Dict[str, Any] = {}
    exec(source.replace(fragment, mutation, 1),
         dict(vars(sys.modules[cls.__module__])), namespace)
    return namespace[method]


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_suite_catches_mutant(mutant, monkeypatch):
    """The property test, run as is except that it stops at the first
    counterexample (no shrinking) and records none."""
    cls, method, fragment, mutation = MUTANTS[mutant]
    monkeypatch.setattr(cls, method, mutated(cls, method, fragment, mutation))
    search = settings(SUITE, phases=[Phase.generate], database=None)(
        given(setup=setups(), ops=OPS)(
            test_matches_reference.hypothesis.inner_test))
    with pytest.raises(AssertionError):
        search()
