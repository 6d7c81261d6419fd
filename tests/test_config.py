"""Configuration dataclasses and derived values (Table 1)."""

from dataclasses import replace

import pytest

from repro.config import (CacheConfig, CounterCacheConfig, CPUConfig,
                          EncryptionConfig, KernelConfig, NVMConfig,
                          SystemConfig, bench_config, default_config,
                          fast_config, is_power_of_two, KB, MB, GB)
from repro.errors import ConfigError


class TestDefaults:
    def test_table1_values(self):
        config = default_config()
        assert config.cpu.num_cores == 8
        assert config.cpu.clock_ghz == 2.0
        assert config.l1.size_bytes == 64 * KB
        assert config.l2.size_bytes == 512 * KB
        assert config.l3.size_bytes == 8 * MB
        assert config.l4.size_bytes == 64 * MB
        assert config.nvm.capacity_bytes == 16 * GB
        assert config.nvm.num_channels == 2
        assert config.nvm.read_latency_ns == 75.0
        assert config.nvm.write_latency_ns == 150.0
        assert config.counter_cache.size_bytes == 4 * MB
        assert config.counter_cache.latency_cycles == 10
        assert config.kernel.page_size == 4 * KB
        assert config.coherence == "mesi"

    def test_derived_values(self):
        config = default_config()
        assert config.block_size == 64
        assert config.blocks_per_page == 64
        assert config.nvm_read_cycles == 150      # 75 ns at 2 GHz
        assert config.nvm_write_cycles == 300

    def test_describe_renders_table(self):
        text = default_config().describe()
        assert "8 cores" in text
        assert "12.8 GB/s" in text
        assert "Counter Cache" in text

    def test_cache_levels_ordered(self):
        names = [c.name for c in default_config().cache_levels()]
        assert names == ["L1", "L2", "L3", "L4"]


class TestDerivedConfigs:
    def test_fast_config_is_functional(self):
        assert fast_config().functional

    def test_bench_config_is_timing(self):
        assert not bench_config().functional
        assert bench_config().cpu.num_cores == 4

    def test_with_counter_cache_size(self):
        config = default_config().with_counter_cache_size(64 * KB)
        assert config.counter_cache.size_bytes == 64 * KB
        assert config.counter_cache.latency_cycles == 10   # rest unchanged

    def test_with_zeroing(self):
        config = default_config().with_zeroing("shred")
        assert config.kernel.zeroing_strategy == "shred"


class TestValidation:
    def test_bad_cache_geometry(self):
        with pytest.raises(ConfigError):
            CacheConfig("X", size_bytes=1000, associativity=8)

    def test_bad_block_size(self):
        with pytest.raises(ConfigError):
            CacheConfig("X", size_bytes=4096, block_size=48)

    def test_bad_zeroing_strategy(self):
        with pytest.raises(ConfigError):
            KernelConfig(zeroing_strategy="bleach")

    def test_bad_page_size(self):
        with pytest.raises(ConfigError):
            KernelConfig(page_size=3000)

    def test_bad_key_length(self):
        with pytest.raises(ConfigError):
            EncryptionConfig(key=b"short")

    def test_bad_counter_write_policy(self):
        with pytest.raises(ConfigError):
            CounterCacheConfig(write_policy="writearound")

    @pytest.mark.parametrize("associativity", [0, -8])
    def test_cache_associativity_below_one(self, associativity):
        with pytest.raises(ConfigError, match="associativity"):
            CacheConfig("X", size_bytes=1024, associativity=associativity)

    @pytest.mark.parametrize("size_bytes", [0, -4096])
    def test_cache_without_a_set(self, size_bytes):
        with pytest.raises(ConfigError, match="at least one set"):
            CacheConfig("X", size_bytes=size_bytes)

    @pytest.mark.parametrize("replacement", ["plru", "fifo", "random"])
    def test_cache_replacement_is_lru_only(self, replacement):
        with pytest.raises(ConfigError, match="replacement"):
            CacheConfig("X", size_bytes=4096, replacement=replacement)

    @pytest.mark.parametrize("associativity", [0, -8])
    def test_counter_cache_associativity_below_one(self, associativity):
        with pytest.raises(ConfigError, match="associativity"):
            CounterCacheConfig(associativity=associativity)

    @pytest.mark.parametrize("size_bytes", [0, -4096])
    def test_counter_cache_without_a_set(self, size_bytes):
        with pytest.raises(ConfigError, match="at least one set"):
            CounterCacheConfig(size_bytes=size_bytes)

    def test_counter_cache_block_size(self):
        with pytest.raises(ConfigError, match="power of two"):
            CounterCacheConfig(size_bytes=48 * 8 * 16, block_size=48)

    def test_one_set_is_enough(self):
        assert CacheConfig("X", size_bytes=64, associativity=1).num_sets == 1
        assert CounterCacheConfig(size_bytes=512).size_bytes == 512

    def test_mismatched_block_sizes(self):
        with pytest.raises(ConfigError):
            SystemConfig(l1=CacheConfig("L1", size_bytes=64 * KB,
                                        block_size=128))

    def test_bad_cpu(self):
        with pytest.raises(ConfigError):
            CPUConfig(num_cores=0)

    def test_bad_nvm(self):
        with pytest.raises(ConfigError):
            NVMConfig(num_channels=0)


class TestHelpers:
    def test_is_power_of_two(self):
        assert is_power_of_two(1) and is_power_of_two(4096)
        assert not is_power_of_two(0)
        assert not is_power_of_two(48)

    def test_ns_to_cycles_rounds_up(self):
        cpu = CPUConfig(clock_ghz=2.0)
        assert cpu.ns_to_cycles(75.0) == 150
        assert cpu.ns_to_cycles(75.3) == 151

    def test_minor_counter_max(self):
        assert EncryptionConfig().minor_counter_max == 127
