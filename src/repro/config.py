"""System configuration (Table 1 of the paper) and derived constants.

The defaults reproduce the baseline system of the paper:

* 8-core x86-64 processor at 2 GHz,
* 4-level cache hierarchy (L1 64 KB / L2 512 KB private; L3 8 MB / L4 64 MB
  shared), 64 B blocks, 8-way, LRU, MESI coherence,
* 16 GB NVM main memory over 2 channels of 12.8 GB/s,
* 75 ns read latency, 150 ns write latency,
* a 4 MB, 8-way, 10-cycle counter (IV) cache,
* 4 KB pages, 64-bit major counters and 7-bit minor counters.

Everything is an explicit dataclass so experiments can sweep parameters
(e.g. the Figure 12 counter-cache size sweep) without touching code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from .errors import ConfigError

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def _require_geometry(name: str, size_bytes: int, associativity: int,
                      block_size: int) -> None:
    """Reject a cache geometry that does not give at least one whole set."""
    _require(is_power_of_two(block_size),
             f"{name}: block size must be a power of two")
    _require(associativity >= 1, f"{name}: associativity must be >= 1")
    _require(size_bytes % (block_size * associativity) == 0,
             f"{name}: size must be a multiple of block_size*associativity")
    _require(size_bytes >= block_size * associativity,
             f"{name}: needs at least one set")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one set-associative cache level."""

    name: str
    size_bytes: int
    associativity: int = 8
    block_size: int = 64
    latency_cycles: int = 2
    replacement: str = "lru"
    shared: bool = False

    def __post_init__(self) -> None:
        _require_geometry(self.name, self.size_bytes, self.associativity,
                          self.block_size)
        _require(self.replacement == "lru",
                 f"{self.name}: replacement must be 'lru', the paper's "
                 f"policy (got {self.replacement!r})")
        _require(self.latency_cycles >= 0, f"{self.name}: latency must be non-negative")

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_size

    @property
    def num_sets(self) -> int:
        return self.num_blocks // self.associativity


@dataclass(frozen=True)
class NVMConfig:
    """Timing, energy and endurance model of the NVM device (PCM-like)."""

    capacity_bytes: int = 16 * GB
    read_latency_ns: float = 75.0
    write_latency_ns: float = 150.0
    # Representative PCM energy numbers (pJ per 64B line access); used for
    # relative power comparisons, not absolute watts.
    read_energy_pj: float = 2000.0
    write_energy_pj: float = 16000.0
    # Endurance: writes per line before failure; PCM is 1e7..1e8 (paper S1).
    endurance_writes: int = 10_000_000
    num_channels: int = 2
    channel_bandwidth_gbps: float = 12.8   # GB/s per channel
    # Start-Gap wear levelling (Qureshi et al. [30]); one spare line is
    # added to the device and the gap advances every `start_gap_interval`
    # writes.
    start_gap: bool = False
    start_gap_interval: int = 100
    start_gap_region_lines: int = 256

    def __post_init__(self) -> None:
        _require(self.capacity_bytes > 0, "NVM capacity must be positive")
        _require(self.num_channels >= 1, "need at least one memory channel")
        _require(self.read_latency_ns > 0 and self.write_latency_ns > 0,
                 "NVM latencies must be positive")


@dataclass(frozen=True)
class DRAMConfig:
    """DRAM device used for the comparison points in Table 2 / Fig. 4."""

    capacity_bytes: int = 16 * GB
    read_latency_ns: float = 50.0
    write_latency_ns: float = 50.0
    read_energy_pj: float = 1300.0
    write_energy_pj: float = 1300.0
    refresh_power_mw: float = 150.0
    num_channels: int = 2
    channel_bandwidth_gbps: float = 12.8


@dataclass(frozen=True)
class EncryptionConfig:
    """Counter-mode encryption parameters (section 2.2 of the paper)."""

    enabled: bool = True            # False models a plain (DRAM-style) system
    cipher: str = "xorshift"        # "aes" for real AES-128, "xorshift" fast
    key: bytes = b"silent-shredder!"  # 16-byte AES-128 key
    major_counter_bits: int = 64
    minor_counter_bits: int = 7
    # Latency of generating a one-time pad (AES over the IV). Overlapped
    # with the NVM fetch in counter mode; only the XOR hits the critical
    # path, but pad latency matters when the data arrives faster (shredded
    # reads never need a pad at all).
    pad_latency_cycles: int = 40
    xor_latency_cycles: int = 1
    integrity: bool = True          # Bonsai Merkle Tree over counters

    def __post_init__(self) -> None:
        _require(len(self.key) == 16, "AES-128 requires a 16-byte key")
        _require(self.minor_counter_bits >= 2, "minor counters need >= 2 bits")
        _require(self.major_counter_bits in (32, 64), "major counter is 32 or 64 bits")

    @property
    def minor_counter_max(self) -> int:
        """Largest representable minor counter value (e.g. 127 for 7 bits)."""
        return (1 << self.minor_counter_bits) - 1


@dataclass(frozen=True)
class CounterCacheConfig:
    """The on-chip IV/counter cache (4 MB, 8-way, 10 cycles in Table 1)."""

    size_bytes: int = 4 * MB
    associativity: int = 8
    block_size: int = 64
    latency_cycles: int = 10
    write_policy: str = "writeback"   # "writeback" (battery-backed) | "writethrough"

    def __post_init__(self) -> None:
        _require(self.write_policy in ("writeback", "writethrough"),
                 "counter cache write policy must be writeback or writethrough")
        _require_geometry("counter cache", self.size_bytes,
                          self.associativity, self.block_size)


@dataclass(frozen=True)
class CPUConfig:
    """Processor model parameters."""

    num_cores: int = 8
    clock_ghz: float = 2.0
    base_cpi: float = 1.0
    store_buffer_entries: int = 8
    # TLB model (0 entries disables it; the calibrated figure benchmarks
    # run without it, the huge-page study enables it).
    tlb_entries: int = 0
    tlb_miss_penalty_cycles: int = 50

    def __post_init__(self) -> None:
        _require(self.num_cores >= 1, "need at least one core")
        _require(self.clock_ghz > 0, "clock must be positive")

    @property
    def cycle_ns(self) -> float:
        """Duration of one core clock cycle in nanoseconds."""
        return 1.0 / self.clock_ghz

    def ns_to_cycles(self, ns: float) -> int:
        """Convert a nanosecond duration to (rounded-up) core cycles."""
        cycles = ns * self.clock_ghz
        return int(cycles) if float(int(cycles)) == cycles else int(cycles) + 1


@dataclass(frozen=True)
class KernelConfig:
    """Kernel model parameters (Linux-like behaviour from sections 2.3/5)."""

    page_size: int = 4 * KB
    zeroing_strategy: str = "nontemporal"  # temporal | nontemporal | dma | rowclone | shred
    # Cycles of kernel bookkeeping per page fault, excluding the zeroing
    # itself (fault entry/exit, vma lookup, pte install).
    fault_overhead_cycles: int = 700
    # Cycles per cache block for the CPU store loop (movq/movntq issue cost).
    store_issue_cycles: int = 1
    zero_page_cow: bool = True     # Linux zero-page + copy-on-write behaviour
    prezero_pool_pages: int = 0    # FreeBSD-style pool of pre-zeroed pages
    huge_page_size: int = 2 * 1024 * KB   # 2 MB huge pages (section 5)

    def __post_init__(self) -> None:
        _require(is_power_of_two(self.page_size), "page size must be a power of two")
        _require(self.zeroing_strategy in ZEROING_STRATEGIES,
                 f"unknown zeroing strategy {self.zeroing_strategy!r}")
        _require(self.huge_page_size % self.page_size == 0,
                 "huge page size must be a multiple of the base page size")


ZEROING_STRATEGIES = ("temporal", "nontemporal", "dma", "rowclone", "shred", "none")


@dataclass(frozen=True)
class SystemConfig:
    """Complete system configuration: the reproduction of Table 1."""

    cpu: CPUConfig = field(default_factory=CPUConfig)
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L1", size_bytes=64 * KB, associativity=8, latency_cycles=2))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L2", size_bytes=512 * KB, associativity=8, latency_cycles=8))
    l3: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L3", size_bytes=8 * MB, associativity=8, latency_cycles=25, shared=True))
    l4: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L4", size_bytes=64 * MB, associativity=8, latency_cycles=35, shared=True))
    nvm: NVMConfig = field(default_factory=NVMConfig)
    encryption: EncryptionConfig = field(default_factory=EncryptionConfig)
    counter_cache: CounterCacheConfig = field(default_factory=CounterCacheConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    coherence: str = "mesi"
    # Functional mode stores and encrypts real bytes; timing mode tracks
    # only metadata and is much faster for large sweeps.
    functional: bool = True

    def __post_init__(self) -> None:
        block_sizes = {self.l1.block_size, self.l2.block_size,
                       self.l3.block_size, self.l4.block_size}
        _require(len(block_sizes) == 1, "all cache levels must share one block size")
        _require(self.kernel.page_size % self.block_size == 0,
                 "page size must be a multiple of the block size")

    @property
    def block_size(self) -> int:
        return self.l1.block_size

    @property
    def blocks_per_page(self) -> int:
        return self.kernel.page_size // self.block_size

    @property
    def num_pages(self) -> int:
        return self.nvm.capacity_bytes // self.kernel.page_size

    @property
    def nvm_read_cycles(self) -> int:
        return self.cpu.ns_to_cycles(self.nvm.read_latency_ns)

    @property
    def nvm_write_cycles(self) -> int:
        return self.cpu.ns_to_cycles(self.nvm.write_latency_ns)

    def cache_levels(self) -> List[CacheConfig]:
        """Cache configs ordered from closest to the core outward."""
        return [self.l1, self.l2, self.l3, self.l4]

    def with_counter_cache_size(self, size_bytes: int) -> "SystemConfig":
        """A copy of this config with a different counter-cache capacity.

        Used by the Figure 12 sensitivity sweep.
        """
        return replace(self, counter_cache=replace(self.counter_cache,
                                                   size_bytes=size_bytes))

    def with_zeroing(self, strategy: str) -> "SystemConfig":
        """A copy of this config with a different kernel zeroing strategy."""
        return replace(self, kernel=replace(self.kernel, zeroing_strategy=strategy))

    def describe(self) -> str:
        """Render the configuration as a Table-1-style text block."""
        rows = [
            ("CPU", f"{self.cpu.num_cores} cores x86-64-like, "
                    f"{self.cpu.clock_ghz:g} GHz clock"),
            ("L1 Cache", _cache_row(self.l1)),
            ("L2 Cache", _cache_row(self.l2)),
            ("L3 Cache", _cache_row(self.l3)),
            ("L4 Cache", _cache_row(self.l4)),
            ("Coherency Protocol", self.coherence.upper()),
            ("Capacity", f"{self.nvm.capacity_bytes // GB} GB"),
            ("# Channels", f"{self.nvm.num_channels} channels"),
            ("Channel bandwidth", f"{self.nvm.channel_bandwidth_gbps:g} GB/s"),
            ("Read Latency", f"{self.nvm.read_latency_ns:g} ns"),
            ("Write Latency", f"{self.nvm.write_latency_ns:g} ns"),
            ("Counter Cache", f"{self.counter_cache.latency_cycles} cycles, "
                              f"{self.counter_cache.size_bytes // MB} MB size, "
                              f"{self.counter_cache.associativity}-way, "
                              f"{self.counter_cache.block_size} B block size"),
            ("Page size", f"{self.kernel.page_size // KB} KB"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


def _cache_row(cache: CacheConfig) -> str:
    if cache.size_bytes >= MB:
        size = f"{cache.size_bytes // MB} MB"
    else:
        size = f"{cache.size_bytes // KB} KB"
    return (f"{cache.latency_cycles} cycles, {size} size, "
            f"{cache.associativity}-way, {cache.replacement.upper()}, "
            f"{cache.block_size} B block size")


#: NVM technology presets (section 2.1 names PCM, STT-RAM and Memristor
#: as the DRAM-replacement candidates). Latencies/energies are
#: representative literature values; endurance per section 1.
NVM_TECHNOLOGIES: Dict[str, NVMConfig] = {
    # Phase-Change Memory: the paper's primary target (Table 1 values).
    "pcm": NVMConfig(read_latency_ns=75.0, write_latency_ns=150.0,
                     read_energy_pj=2000.0, write_energy_pj=16000.0,
                     endurance_writes=10_000_000),
    # Spin-Transfer Torque MRAM: fast, near-DRAM, high endurance.
    "stt-ram": NVMConfig(read_latency_ns=30.0, write_latency_ns=50.0,
                         read_energy_pj=1500.0, write_energy_pj=5000.0,
                         endurance_writes=1_000_000_000_000),
    # Memristor/ReRAM-class: dense but slow, costly writes.
    "memristor": NVMConfig(read_latency_ns=100.0, write_latency_ns=300.0,
                           read_energy_pj=2500.0, write_energy_pj=25000.0,
                           endurance_writes=100_000_000),
}


def config_digest(config: SystemConfig) -> str:
    """Stable content hash of a configuration.

    The digest is a SHA-256 over the canonical JSON form of the config
    (the same representation :mod:`repro.serialization` persists), so it
    is identical across processes and interpreter runs — unlike
    ``hash()``, which is salted per process. The experiment result cache
    keys on it.
    """
    import hashlib
    import json

    from .serialization import config_to_dict  # repro: suppress REPRO203 -- digest wrapper
    payload = json.dumps(config_to_dict(config), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def default_config(**overrides: object) -> SystemConfig:
    """The paper's Table 1 configuration, optionally with field overrides."""
    return replace(SystemConfig(), **overrides) if overrides else SystemConfig()


def fast_config(**overrides: object) -> SystemConfig:
    """A scaled-down configuration for tests and quick benchmark runs.

    Shrinks caches and memory so simulations finish in seconds while
    preserving every structural ratio that matters (4 cache levels, 64 B
    blocks, 4 KB pages, 64 minors + 1 major per counter block).
    """
    base = SystemConfig(
        cpu=CPUConfig(num_cores=2),
        l1=CacheConfig("L1", size_bytes=16 * KB, associativity=4, latency_cycles=2),
        l2=CacheConfig("L2", size_bytes=64 * KB, associativity=4, latency_cycles=8),
        l3=CacheConfig("L3", size_bytes=256 * KB, associativity=8,
                       latency_cycles=25, shared=True),
        l4=CacheConfig("L4", size_bytes=1 * MB, associativity=8,
                       latency_cycles=35, shared=True),
        nvm=NVMConfig(capacity_bytes=64 * MB),
        counter_cache=CounterCacheConfig(size_bytes=64 * KB),
    )
    return replace(base, **overrides) if overrides else base


def bench_config(**overrides: object) -> SystemConfig:
    """Configuration for the benchmark harness.

    Like :func:`fast_config` (scaled caches and memory so workloads
    create realistic eviction pressure at tractable sizes) but with
    more cores for multi-programmed runs, tighter shared caches (so
    the scaled benchmark footprints generate eviction traffic the way
    SPEC footprints exceed an 64 MB L4), and timing-only memory — the
    benchmarks measure transaction counts and latencies, not payload
    bytes.
    """
    base = replace(
        fast_config(),
        cpu=CPUConfig(num_cores=4),
        l3=CacheConfig("L3", size_bytes=128 * KB, associativity=8,
                       latency_cycles=25, shared=True),
        l4=CacheConfig("L4", size_bytes=512 * KB, associativity=8,
                       latency_cycles=35, shared=True),
        functional=False,
    )
    return replace(base, **overrides) if overrides else base
