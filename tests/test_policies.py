"""The three IV-manipulation shred policies of section 4.2."""

import pytest

from repro.core import (IncrementMajorPolicy, IncrementMinorsPolicy,
                        MajorResetMinorsPolicy, SilentShredderController,
                        make_policy)
from repro.core.iv import CounterBlock
from repro.errors import ConfigError


class TestIncrementMinors:
    def test_minors_advance(self):
        block = CounterBlock.fresh(8)
        effect = IncrementMinorsPolicy().apply(block)
        assert not effect.reencrypted
        assert all(m == 2 for m in block.minors)
        assert block.major == 0

    def test_overflow_forces_generation_bump(self):
        block = CounterBlock(major=3, minors=[127, 5], minor_bits=7)
        effect = IncrementMinorsPolicy().apply(block)
        assert effect.reencrypted
        assert block.major == 4
        assert block.minors == [1, 1]

    def test_high_reencryption_pressure(self):
        """127 shreds exhaust 7-bit minors once; 3-bit minors much faster
        — the drawback the paper calls out for option one."""
        block = CounterBlock(major=0, minors=[1] * 4, minor_bits=3)
        policy = IncrementMinorsPolicy()
        reencryptions = sum(policy.apply(block).reencrypted
                            for _ in range(20))
        assert reencryptions >= 2

    def test_not_zero_read_compatible(self):
        assert IncrementMinorsPolicy.reads_return_zero is False


class TestIncrementMajor:
    def test_major_only(self):
        block = CounterBlock.fresh(8)
        before = list(block.minors)
        IncrementMajorPolicy().apply(block)
        assert block.major == 1
        assert block.minors == before

    def test_never_reencrypts(self):
        block = CounterBlock.fresh(8)
        policy = IncrementMajorPolicy()
        assert not any(policy.apply(block).reencrypted for _ in range(1000))
        assert block.major == 1000

    def test_not_zero_read_compatible(self):
        assert IncrementMajorPolicy.reads_return_zero is False


class TestMajorResetMinors:
    def test_shred_state(self):
        block = CounterBlock.fresh(8)
        MajorResetMinorsPolicy().apply(block)
        assert block.major == 1
        assert block.all_shredded()

    def test_zero_read_compatible(self):
        assert MajorResetMinorsPolicy.reads_return_zero is True


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("increment-minors", IncrementMinorsPolicy),
        ("increment-major", IncrementMajorPolicy),
        ("major-reset-minors", MajorResetMinorsPolicy),
    ])
    def test_make_policy(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_unknown(self):
        with pytest.raises(ConfigError):
            make_policy("rot-counters")


class TestSoftwareCompatibility:
    """The libc-rtld scenario: freshly 'zeroed' pages must read as zero.
    Only option three satisfies it (section 4.2)."""

    def _shred_and_read(self, tiny_config, policy_name):
        controller = SilentShredderController(tiny_config,
                                              policy=make_policy(policy_name))
        controller.store_block(0, b"\x5a" * 64)
        controller.shred_page(0)
        return controller.fetch_block(0)

    def test_option3_reads_zero(self, tiny_config):
        data, _, zero_filled = self._shred_and_read(tiny_config,
                                                    "major-reset-minors")
        assert zero_filled and data == bytes(64)

    @pytest.mark.parametrize("policy_name", ["increment-minors",
                                             "increment-major"])
    def test_options_1_2_read_garbage(self, tiny_config, policy_name):
        data, _, zero_filled = self._shred_and_read(tiny_config, policy_name)
        assert not zero_filled
        assert data != b"\x5a" * 64          # unintelligible, not old data
        assert data != bytes(64)             # ...and not zeros: incompatible

    @pytest.mark.parametrize("policy_name", ["increment-minors",
                                             "increment-major",
                                             "major-reset-minors"])
    def test_all_policies_destroy_old_data(self, tiny_config, policy_name):
        data, _, _ = self._shred_and_read(tiny_config, policy_name)
        assert data != b"\x5a" * 64
