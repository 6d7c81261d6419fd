"""Baseline secure NVMM controller: counter-mode encrypted main memory.

Implements the state-of-the-art substrate of section 2.2 (the design
Silent Shredder extends): processor-side counter-mode encryption with
per-page major / per-block minor counters, an on-chip counter cache,
and Merkle-tree integrity over the counters.

Address map: the data region occupies ``[0, capacity)``; the counter
region sits above it, one 64 B counter block per 4 KB data page. Both
regions live in the same NVM device and share the channel model, so
counter fetches compete with data traffic for bandwidth exactly as the
paper assumes.

Datapath per LLC miss (Figure 2): look up the page's counters (counter
cache, else NVM + Merkle verify), build the IV, generate the one-time
pad while the data line is fetched (latencies overlap; only the XOR is
serialised), and return plaintext. Per write-back: advance the block's
minor counter (overflow triggers page re-encryption), generate the new
pad, write ciphertext.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..clock import DEFAULT_LATENCY_BUCKETS_NS
from ..config import SystemConfig
from ..crypto import CounterModeEngine, make_cipher
from ..errors import AddressError
from ..integrity import MerkleTree
from ..mem import MemoryController, NVMDevice
from ..cache.counter_cache import CounterCache, CounterEviction
from .iv import CounterBlock, IVLayout, MINOR_SHREDDED

if TYPE_CHECKING:
    # Type-only: the controller takes an injected flight recorder and
    # must not import the telemetry layer at runtime (REPRO202).
    from ..obs import EventRecorder

#: Cycles charged for a Merkle path verification / update on a counter
#: block fetched from (written to) NVM. Matches the "about 2% overhead"
#: the paper cites for Bonsai Merkle Trees.
MERKLE_CYCLES = 30


@dataclass
class SecureMemoryStats:
    """Event counters for a secure controller."""

    data_reads: int = 0               # NVM data-line fetches
    data_writes: int = 0              # NVM data-line write-backs
    zero_fill_reads: int = 0          # shredded reads served without NVM
    counter_hits: int = 0
    counter_misses: int = 0
    counter_fetches: int = 0          # counter blocks read from NVM
    counter_writebacks: int = 0       # counter blocks written to NVM
    reencryptions: int = 0            # whole-page re-encryptions
    shreds: int = 0                   # shred commands executed
    # Integer 0 until the first read, like an empty histogram's sum.
    total_read_latency_ns: float = 0
    read_requests: int = 0
    #: Reads per DEFAULT_LATENCY_BUCKETS_NS bucket, overflow last: the
    #: ``mem.ctrl.read_latency_ns`` histogram, published by pull.
    read_latency_buckets: List[int] = field(
        default_factory=lambda: [0] * (len(DEFAULT_LATENCY_BUCKETS_NS) + 1))

    def record_read(self, latency_ns: float) -> None:
        """Account one served read of ``latency_ns``."""
        self.read_requests += 1
        self.total_read_latency_ns += latency_ns
        self.read_latency_buckets[
            bisect_left(DEFAULT_LATENCY_BUCKETS_NS, latency_ns)] += 1

    @property
    def avg_read_latency_ns(self) -> float:
        return self.total_read_latency_ns / self.read_requests if self.read_requests else 0.0

    @property
    def counter_miss_rate(self) -> float:
        total = self.counter_hits + self.counter_misses
        return self.counter_misses / total if total else 0.0


@dataclass
class CounterFetch:
    """Outcome of one counter-cache probe (:meth:`get_counters`), read
    through its named fields."""

    counters: CounterBlock
    latency_ns: float
    hit: bool = True


class SecureMemoryController:
    """Counter-mode encrypted NVM main memory (the paper's baseline)."""

    #: Whether minor counter 0 means "shredded, reads return zeros".
    zero_semantics = False

    def __init__(self, config: SystemConfig, *,
                 device: Optional[NVMDevice] = None,
                 events: Optional[EventRecorder] = None) -> None:
        self.config = config
        # The flight recorder (injected, never imported): security-
        # relevant transitions land here in sim order.
        self.events = events
        self.block_size = config.block_size
        self.page_size = config.kernel.page_size
        self.blocks_per_page = config.blocks_per_page
        self.data_capacity = config.nvm.capacity_bytes
        self.num_pages = config.num_pages
        self._counter_base = self.data_capacity

        logical_total = self.data_capacity + self.num_pages * self.block_size
        wear_leveler = None
        if config.nvm.start_gap:
            from ..mem import RegionedStartGap
            wear_leveler = RegionedStartGap(
                logical_total // self.block_size,
                lines_per_region=config.nvm.start_gap_region_lines,
                gap_move_interval=config.nvm.start_gap_interval)
        if device is None:
            physical_total = logical_total
            if wear_leveler is not None:
                physical_total = (wear_leveler.num_physical_slots
                                  * self.block_size)
            from dataclasses import replace as _replace
            device = NVMDevice(_replace(config.nvm,
                                        capacity_bytes=physical_total),
                               block_size=self.block_size,
                               functional=config.functional)
        self.device = device
        if wear_leveler is not None and config.functional:
            def _move(src_line: int, dst_line: int,
                      _device=device, _bs=self.block_size) -> None:
                _device.poke(dst_line * _bs, _device.peek(src_line * _bs))
            wear_leveler.move_hook = _move
        self.mem = MemoryController.for_nvm(device, config.nvm,
                                            wear_leveler=wear_leveler)

        self.minor_bits = config.encryption.minor_counter_bits
        self.encrypted = config.encryption.enabled
        cipher = make_cipher(config.encryption.cipher, config.encryption.key)
        self.engine = CounterModeEngine(cipher, self.block_size)
        self.iv_layout = IVLayout(minor_bits=8)
        self.counter_cache = CounterCache(config.counter_cache)
        self.merkle: Optional[MerkleTree] = (
            MerkleTree(self.num_pages)
            if config.encryption.integrity and self.encrypted else None)
        self.stats = SecureMemoryStats()

        cycle_ns = config.cpu.cycle_ns
        self._counter_latency_ns = config.counter_cache.latency_cycles * cycle_ns
        self._pad_latency_ns = (config.encryption.pad_latency_cycles * cycle_ns
                                if self.encrypted else 0.0)
        self._xor_latency_ns = (config.encryption.xor_latency_cycles * cycle_ns
                                if self.encrypted else 0.0)
        self._merkle_latency_ns = MERKLE_CYCLES * cycle_ns
        self.functional = config.functional
        self._zero_block = bytes(self.block_size)

    # -- address helpers ---------------------------------------------------

    def page_of(self, address: int) -> int:
        return address // self.page_size

    def offset_of(self, address: int) -> int:
        return (address % self.page_size) // self.block_size

    def _check_data_address(self, address: int) -> None:
        if address < 0 or address + self.block_size > self.data_capacity:
            raise AddressError(f"data address {address:#x} out of range")
        if address % self.block_size:
            raise AddressError(f"data address {address:#x} not block aligned")

    def _counter_address(self, page_id: int) -> int:
        return self._counter_base + page_id * self.block_size

    def _iv(self, page_id: int, offset: int, counters: CounterBlock) -> bytes:
        return self.iv_layout.build(page_id, offset, counters.major,
                                    counters.minors[offset])

    # -- counter management ----------------------------------------------------

    def _persist_counters(self, page_id: int, counters: CounterBlock,
                          now_ns: float) -> float:
        """Write a counter block to the NVM counter region (+ Merkle update)."""
        packed = counters.pack() if self.functional else None
        latency = self.mem.write_block(self._counter_address(page_id), packed,
                                       now_ns)
        if self.merkle is not None and packed is not None:
            self.merkle.update(page_id, packed)
        self.stats.counter_writebacks += 1
        return latency + self._merkle_latency_ns

    def _probe_counters(self, page_id: int,
                        now_ns: float) -> Tuple[CounterBlock, float, bool]:
        """The one counter probe behind fetch, store and shred.

        Returns ``(counters, latency_ns, hit)``. A hit re-inserts the
        entry as the most recent of its counter-cache set; a miss loads
        the counter block from NVM (verifying it against the Merkle
        tree), fills the cache and persists a dirty victim.
        """
        lines = self.counter_cache.lines
        ways = lines.sets[page_id % lines.num_sets]
        counters = ways.pop(page_id, None)    # a resident entry is never None
        if counters is not None:
            ways[page_id] = counters
            lines.stats.hits += 1
            self.stats.counter_hits += 1
            return counters, self._counter_latency_ns, True
        if page_id < 0 or page_id >= self.num_pages:
            raise AddressError(f"page id {page_id} out of range")
        lines.stats.misses += 1
        self.stats.counter_misses += 1
        raw, fetch_latency = self.mem.read_block(
            self._counter_address(page_id), now_ns)
        self.stats.counter_fetches += 1
        if self.functional and self.merkle is not None:
            self.merkle.verify(page_id, raw)
        if self.functional and raw != self._zero_block:
            counters = CounterBlock.unpack(raw, self.blocks_per_page,
                                           self.minor_bits)
        else:
            # Counter region never written for this page: fresh counters.
            counters = CounterBlock.fresh(self.blocks_per_page,
                                          self.minor_bits)
        evicted = self.counter_cache.fill(page_id, counters)
        if evicted is not None and evicted.dirty:
            self._persist_counters(evicted.page_id, evicted.block, now_ns)
        return (counters, self._counter_latency_ns
                + (fetch_latency + self._merkle_latency_ns), False)

    def get_counters(self, page_id: int,
                     now_ns: float = 0.0) -> CounterFetch:
        """Probe the counter cache for a page's :class:`CounterFetch`.

        Serves from the counter cache when possible; otherwise loads from
        NVM at ``now_ns``, fills the cache and handles any dirty eviction.
        """
        if page_id < 0 or page_id >= self.num_pages:
            raise AddressError(f"page id {page_id} out of range")
        return CounterFetch(*self._probe_counters(page_id, now_ns))

    def _counters_updated(self, page_id: int, counters: CounterBlock,
                          now_ns: float) -> float:
        """The one counter-update rule: write through to NVM, or mark the
        page's resident entry dirty."""
        if self.counter_cache.write_through:
            return self._persist_counters(page_id, counters, now_ns)
        lines = self.counter_cache.lines
        if page_id in lines.sets[page_id % lines.num_sets]:
            lines.dirty.add(page_id)
        return 0.0

    # -- data path -----------------------------------------------------------------

    def fetch_block(self, address: int, now_ns: float = 0.0,
                    ) -> Tuple[Optional[bytes], float, bool]:
        """Serve an LLC miss at ``now_ns``: decrypt (or zero-fill) one data
        block. Returns ``(data, latency_ns, zero_filled)``; ``data`` is
        ``None`` in timing mode."""
        block_size = self.block_size
        if (address < 0 or address + block_size > self.data_capacity
                or address % block_size):
            self._check_data_address(address)
        page_id = address // self.page_size
        offset = address % self.page_size // block_size
        counters, counter_latency, _ = self._probe_counters(page_id, now_ns)
        stats = self.stats

        if self.zero_semantics and counters.minors[offset] == MINOR_SHREDDED:
            # Figure 7, step 3b: the minor counter is zero, so no NVM
            # access happens; a zero-filled block goes straight up.
            if self.events is not None:
                self.events.emit("zero_fill", page_id, now_ns)
            stats.zero_fill_reads += 1
            latency = counter_latency
            data = self._zero_block if self.functional else None
            zero_filled = True
        else:
            data, read_latency = self.mem.read_block(
                address, now_ns + counter_latency)
            stats.data_reads += 1
            if not self.functional:
                data = None
            elif self.encrypted:
                data = self.engine.decrypt(
                    data, self._iv(page_id, offset, counters))
            # Pad generation overlaps the NVM fetch; only the larger of
            # the two plus the XOR is on the critical path (section 2.2).
            latency = (counter_latency
                       + max(read_latency, self._pad_latency_ns)
                       + self._xor_latency_ns)
            zero_filled = False
        stats.record_read(latency)
        return data, latency, zero_filled

    def store_block(self, address: int, data: Optional[bytes] = None,
                    now_ns: float = 0.0) -> float:
        """Write back one data block at ``now_ns``: bump minor, encrypt,
        write NVM. Returns the latency in ns."""
        block_size = self.block_size
        if (address < 0 or address + block_size > self.data_capacity
                or address % block_size):
            self._check_data_address(address)
        if self.functional and (data is None or len(data) != block_size):
            raise AddressError("functional store requires a full data block")
        page_id = address // self.page_size
        offset = address % self.page_size // block_size
        counters, counter_latency, _ = self._probe_counters(page_id, now_ns)

        if self.events is not None and self.zero_semantics \
                and counters.minors[offset] == MINOR_SHREDDED:
            # First write into a shredded block: it stops reading as
            # zero from here on (the bump below takes the minor 0 -> 1).
            self.events.emit("shredded_writeback", page_id, now_ns,
                             block=offset)
        if counters.bump_minor(offset):
            if self.events is not None:
                self.events.emit("minor_overflow", page_id, now_ns,
                                 block=offset)
            latency = self._reencrypt_page(page_id, counters,
                                           {offset: data}, now_ns)
            self.stats.reencryptions += 1
            return counter_latency + latency

        ciphertext = None
        if self.functional:
            ciphertext = data
            if self.encrypted:
                ciphertext = self.engine.encrypt(
                    data, self._iv(page_id, offset, counters))
        pad_ns = self._pad_latency_ns + self._xor_latency_ns
        write_latency = self.mem.write_block(address, ciphertext,
                                             now_ns + counter_latency + pad_ns)
        self.stats.data_writes += 1
        counter_update_ns = self._counters_updated(page_id, counters, now_ns)
        return counter_latency + pad_ns + write_latency + counter_update_ns

    def _reencrypt_page(self, page_id: int, counters: CounterBlock,
                        replacements: Dict[int, Optional[bytes]],
                        now_ns: float) -> float:
        """Re-encrypt one whole page after a minor-counter overflow.

        Reads every (non-shredded) block, decrypts with the old IVs,
        advances the major counter, resets minors, re-encrypts and writes
        everything back — the expensive operation the paper works to make
        rarer. ``replacements`` carries the plaintext of the block whose
        write-back triggered the overflow.
        """
        if self.events is not None:
            self.events.emit("iv_regen", page_id, now_ns)
        plaintexts: Dict[int, Optional[bytes]] = {}
        last_finish = now_ns
        for offset in range(self.blocks_per_page):
            if offset in replacements:
                plaintexts[offset] = replacements[offset]
                continue
            if self.zero_semantics and counters.is_shredded(offset):
                # Shredded blocks hold no data; they stay shredded.
                continue
            address = page_id * self.page_size + offset * self.block_size
            data, latency = self.mem.read_block(address, now_ns)
            self.stats.data_reads += 1
            last_finish = max(last_finish, now_ns + latency)
            if not self.functional:
                data = None
            elif self.encrypted:
                data = self.engine.decrypt(
                    data, self._iv(page_id, offset, counters))
            plaintexts[offset] = data

        # Advance the page generation; minors reset to 1 (never to the
        # reserved 0 — section 4.2), shredded blocks keep their 0.
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
            latency = self.mem.write_block(address, ciphertext, write_start)
            self.stats.data_writes += 1
            last_finish = max(last_finish, write_start + latency)

        self._counters_updated(page_id, counters, now_ns)
        return last_finish - now_ns

    # -- persistence ------------------------------------------------------------------

    def flush_counters(self, now_ns: float = 0.0) -> int:
        """Battery-backed flush: persist every dirty counter block at
        ``now_ns``."""
        flushed = self.counter_cache.flush()
        for eviction in flushed:
            self._persist_counters(eviction.page_id, eviction.block, now_ns)
        return len(flushed)

    def power_cycle(self) -> None:
        """Orderly power-fail then reboot: the battery-backed counter
        cache flushes its dirty entries, volatile caches are lost, the
        NVM keeps everything."""
        self.power_fail(battery=True)

    def power_fail(self, *, battery: bool) -> int:
        """Sudden power loss.

        ``battery=True`` models the paper's battery-backed write-back
        counter cache (or a write-through cache, which never holds the
        only copy): dirty counter blocks reach NVM before the lights go
        out. ``battery=False`` models the failure the paper warns about
        in section 7.1 — losing counter updates desynchronises the IVs
        from the data and, worse, can silently un-shred pages.

        Returns the number of dirty counter blocks that were LOST
        (always 0 with a battery).
        """
        lost = 0
        if battery:
            self.flush_counters()
        else:
            lost = len(self.counter_cache.dirty_entries())
        self.device.power_cycle()
        self.counter_cache = CounterCache(self.config.counter_cache)
        return lost
