"""IV layout and counter-block semantics (section 4.2 mechanics)."""

import pytest

from repro.core.iv import (CounterBlock, IVLayout, MINOR_AFTER_REENCRYPTION,
                           MINOR_SHREDDED)
from repro.errors import AddressError, CounterOverflowError


class TestIVLayout:
    def test_roundtrip(self):
        layout = IVLayout()
        iv = layout.build(page_id=12345, offset=63, major=2 ** 40, minor=127)
        assert layout.parse(iv) == (12345, 63, 2 ** 40, 127)

    def test_padding_byte_zero(self):
        iv = IVLayout().build(1, 2, 3, 4)
        assert iv[-1] == 0
        assert len(iv) == 16

    def test_distinct_fields_distinct_ivs(self):
        layout = IVLayout()
        base = layout.build(1, 1, 1, 1)
        assert layout.build(2, 1, 1, 1) != base
        assert layout.build(1, 2, 1, 1) != base
        assert layout.build(1, 1, 2, 1) != base
        assert layout.build(1, 1, 1, 2) != base

    def test_page_id_range(self):
        with pytest.raises(AddressError):
            IVLayout().build(1 << 40, 0, 0, 0)

    def test_offset_range(self):
        with pytest.raises(AddressError):
            IVLayout().build(0, 256, 0, 0)

    def test_major_overflow(self):
        with pytest.raises(CounterOverflowError):
            IVLayout().build(0, 0, 1 << 64, 0)

    def test_minor_overflow(self):
        with pytest.raises(CounterOverflowError):
            IVLayout().build(0, 0, 0, 256)

    def test_fields_too_wide_rejected(self):
        with pytest.raises(AddressError):
            IVLayout(page_id_bits=64, major_bits=64, offset_bits=8,
                     minor_bits=8)


class TestCounterBlock:
    def test_fresh_minors_are_one(self):
        block = CounterBlock.fresh(64)
        assert block.major == 0
        assert all(m == MINOR_AFTER_REENCRYPTION for m in block.minors)
        assert not block.all_shredded()

    def test_shred_semantics(self):
        block = CounterBlock.fresh(64)
        old_major = block.major
        block.shred()
        assert block.major == old_major + 1
        assert block.all_shredded()
        assert all(block.is_shredded(i) for i in range(64))

    def test_bump_minor_normal(self):
        block = CounterBlock.fresh(4)
        assert block.bump_minor(2) is False
        assert block.minors[2] == 2

    def test_bump_minor_from_shredded(self):
        block = CounterBlock.fresh(4)
        block.shred()
        assert block.bump_minor(1) is False
        assert block.minors[1] == 1          # 0 -> 1: leaves shredded state
        assert not block.is_shredded(1)
        assert block.is_shredded(0)          # others untouched

    def test_bump_minor_overflow_detected(self):
        block = CounterBlock(major=0, minors=[127, 1], minor_bits=7)
        assert block.bump_minor(0) is True
        assert block.minors[0] == 127        # unchanged until re-encryption

    def test_reencrypt_resets_to_one_not_zero(self):
        block = CounterBlock(major=5, minors=[127, 3, 64], minor_bits=7)
        block.reencrypt()
        assert block.major == 6
        assert block.minors == [1, 1, 1]
        assert MINOR_SHREDDED not in block.minors

    def test_pack_is_64_bytes(self):
        block = CounterBlock.fresh(64)
        assert len(block.pack()) == 64

    def test_pack_unpack_roundtrip(self):
        block = CounterBlock(major=0xDEADBEEF,
                             minors=[(i * 13) % 128 for i in range(64)],
                             minor_bits=7)
        packed = block.pack()
        restored = CounterBlock.unpack(packed, 64, 7)
        assert restored.major == block.major
        assert restored.minors == block.minors

    def test_pack_unpack_shredded(self):
        block = CounterBlock.fresh(64)
        block.shred()
        restored = CounterBlock.unpack(block.pack(), 64, 7)
        assert restored.all_shredded()
        assert restored.major == block.major

    def test_copy_is_independent(self):
        block = CounterBlock.fresh(8)
        clone = block.copy()
        clone.shred()
        assert not block.all_shredded()

    def test_invalid_minor_rejected(self):
        # The message names the first out-of-range value.
        for minors, first_bad in (([200], 200), ([1, 200, -1, 300], 200),
                                  ([5, -3, 128], -3), ([127, 0, 128], 128)):
            with pytest.raises(CounterOverflowError) as error:
                CounterBlock(major=0, minors=minors, minor_bits=7)
            assert str(error.value) \
                == f"minor counter {first_bad} exceeds 7 bits"

    def test_empty_minors_rejected(self):
        with pytest.raises(AddressError):
            CounterBlock(major=0, minors=[])

    def test_minor_max(self):
        assert CounterBlock.fresh(4, minor_bits=7).minor_max == 127
        assert CounterBlock.fresh(4, minor_bits=8).minor_max == 255
