"""Execution contexts and simulated arrays."""

import pytest

from repro.errors import SimulationError
from repro.runtime import SimArray
from repro.sim import System


@pytest.fixture
def system(tiny_config):
    return System(tiny_config.with_zeroing("shred"), shredder=True)


@pytest.fixture
def ctx(system):
    return system.new_context(0)


class TestScalarAccess:
    def test_store_load_u64(self, ctx):
        base = ctx.malloc(4096)
        ctx.store_u64(base, 0x1122334455667788)
        assert ctx.load_u64(base) == 0x1122334455667788

    def test_fresh_memory_reads_zero(self, ctx):
        base = ctx.malloc(4096)
        assert ctx.load_u64(base) == 0
        assert ctx.load_u64(base + 512) == 0

    def test_multiple_values_per_block(self, ctx):
        base = ctx.malloc(4096)
        for i in range(8):
            ctx.store_u64(base + 8 * i, i * 1000)
        for i in range(8):
            assert ctx.load_u64(base + 8 * i) == i * 1000

    def test_accesses_advance_core_time(self, ctx):
        before = ctx.core.stats.cycles
        base = ctx.malloc(4096)
        ctx.store_u64(base, 1)
        ctx.load_u64(base)
        assert ctx.core.stats.cycles > before
        assert ctx.core.stats.loads == 1
        assert ctx.core.stats.stores == 1


class TestBytesAccess:
    def test_write_read_bytes_spanning_blocks(self, ctx):
        base = ctx.malloc(4096)
        payload = bytes(range(200))
        ctx.write_bytes(base + 30, payload)
        assert ctx.read_bytes(base + 30, 200) == payload

    def test_read_fresh_is_zero(self, ctx):
        base = ctx.malloc(4096)
        assert ctx.read_bytes(base, 100) == bytes(100)


class TestMemset:
    def test_memset_zeroes(self, ctx):
        base = ctx.malloc(8192)
        ctx.write_bytes(base, b"\xff" * 64)
        ctx.memset(base, 8192, nontemporal=False)
        assert ctx.read_bytes(base, 64) == bytes(64)

    def test_memset_nontemporal_zeroes(self, ctx, system):
        base = ctx.malloc(8192)
        ctx.memset(base, 8192, nontemporal=True)
        system.machine.hierarchy.flush_all()
        assert ctx.read_bytes(base, 64) == bytes(64)

    def test_memset_bad_size(self, ctx):
        base = ctx.malloc(4096)
        with pytest.raises(SimulationError):
            ctx.memset(base, 0)

    @pytest.mark.parametrize("nontemporal", [False, True],
                             ids=["temporal", "nontemporal"])
    @pytest.mark.parametrize("offset, size", [(8, 16), (0, 16), (8, 64)],
                             ids=["both", "size", "start"])
    def test_unaligned_region_raises_and_zeroes_nothing(
            self, ctx, system, nontemporal, offset, size):
        """Both store paths write whole blocks: a region that does not
        start and end on block boundaries is refused before any byte
        outside it (or in it) is touched."""
        assert ctx.functional
        base = ctx.malloc(4096)
        ctx.write_bytes(base, bytes(range(1, 129)))
        with pytest.raises(SimulationError, match="not aligned"):
            ctx.memset(base + offset, size, nontemporal=nontemporal)
        system.machine.hierarchy.flush_all()
        assert ctx.read_bytes(base, 128) == bytes(range(1, 129))

    @pytest.mark.parametrize("nontemporal", [False, True],
                             ids=["temporal", "nontemporal"])
    def test_aligned_region_zeroes_exactly_its_blocks(self, ctx, system,
                                                      nontemporal):
        base = ctx.malloc(4096)
        ctx.write_bytes(base, bytes(range(1, 193)))
        ctx.memset(base + 64, 64, nontemporal=nontemporal)
        system.machine.hierarchy.flush_all()
        assert ctx.read_bytes(base, 192) == (bytes(range(1, 65)) + bytes(64)
                                             + bytes(range(129, 193)))

    def test_auto_selects_nontemporal_for_big_regions(self, ctx, system):
        """Regions larger than the LLC bypass the caches, like glibc."""
        size = system.config.l4.size_bytes * 2
        base = ctx.malloc(size)
        writes_before = system.machine.controller.stats.data_writes
        ctx.memset(base, size)
        assert system.machine.controller.stats.data_writes > writes_before


class TestShredSyscallPath:
    def test_ctx_shred_reads_zero(self, ctx):
        base = ctx.malloc(2 * 4096)
        ctx.store_u64(base, 777)
        ctx.store_u64(base + 4096, 888)
        ctx.shred(base, 2)
        assert ctx.load_u64(base) == 0
        assert ctx.load_u64(base + 4096) == 0


class TestSimArray:
    def test_set_get(self, ctx):
        array = SimArray(ctx, 100, name="t")
        array[5] = 42
        assert array[5] == 42
        assert len(array) == 100

    def test_bounds(self, ctx):
        array = SimArray(ctx, 10)
        with pytest.raises(IndexError):
            array[10]
        with pytest.raises(IndexError):
            array[-1] = 0

    def test_fill_and_shadow(self, ctx):
        array = SimArray(ctx, 20)
        array.fill(7)
        assert array.shadow() == [7] * 20

    def test_load_from(self, ctx):
        array = SimArray(ctx, 5)
        array.load_from([1, 2, 3, 4, 5])
        assert [array[i] for i in range(5)] == [1, 2, 3, 4, 5]

    def test_load_from_overflow(self, ctx):
        array = SimArray(ctx, 2)
        with pytest.raises(SimulationError):
            array.load_from([1, 2, 3])

    def test_verify_functional_consistency(self, ctx):
        array = SimArray(ctx, 50)
        for i in range(50):
            array[i] = i * i
        array.verify()                # memory and shadow agree

    def test_value_masking(self, ctx):
        array = SimArray(ctx, 2)
        array[0] = 1 << 70            # wraps to 64 bits
        assert array[0] == (1 << 70) & ((1 << 64) - 1)

    def test_zero_length_rejected(self, ctx):
        with pytest.raises(SimulationError):
            SimArray(ctx, 0)

    def test_timing_mode_uses_shadow(self, timing_config):
        system = System(timing_config.with_zeroing("shred"), shredder=True)
        ctx = system.new_context(0)
        array = SimArray(ctx, 10)
        array[3] = 99
        assert array[3] == 99         # shadow serves the value
