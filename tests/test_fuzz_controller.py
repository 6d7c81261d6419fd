"""Model-based fuzzing of the secure controllers.

A reference model (plain dict of plaintext blocks with shred-aware
semantics) is driven in lockstep with the real controller through
random sequences of stores, fetches, shreds, counter flushes and power
cycles. Any divergence — wrong data, a resurrected secret, a missing
zero-fill — fails the run. Runs against both the plain Silent Shredder
controller and the DEUCE composition.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DeuceShredderController, SilentShredderController

PAGES = 3
BLOCKS_PER_PAGE = 64
BLOCK = 64


class ReferenceModel:
    """What the memory system should look like to software."""

    def __init__(self):
        self.blocks = {}               # address -> plaintext

    def store(self, address, data):
        self.blocks[address] = data

    def shred(self, page):
        base = page * 4096
        for offset in range(0, 4096, BLOCK):
            self.blocks[base + offset] = bytes(BLOCK)

    def fetch(self, address):
        return self.blocks.get(address, None)


def op_strategy():
    addresses = st.integers(0, PAGES * BLOCKS_PER_PAGE - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("store"), addresses, st.integers(0, 255)),
            st.tuples(st.just("fetch"), addresses, st.just(0)),
            st.tuples(st.just("shred"), st.integers(0, PAGES - 1), st.just(0)),
            st.tuples(st.just("flush"), st.just(0), st.just(0)),
            st.tuples(st.just("power"), st.just(0), st.just(0)),
        ),
        min_size=1, max_size=120)


def run_sequence(controller, operations):
    model = ReferenceModel()
    for kind, argument, value in operations:
        if kind == "store":
            address = argument * BLOCK
            payload = bytes([(value + i) % 256 for i in range(BLOCK)])
            controller.store_block(address, payload)
            model.store(address, payload)
        elif kind == "fetch":
            address = argument * BLOCK
            observed = controller.fetch_block(address)[0]
            expected = model.fetch(address)
            if expected is not None:
                assert observed == expected, \
                    f"divergence at {address:#x} after {kind}"
        elif kind == "shred":
            controller.shred_page(argument)
            model.shred(argument)
        elif kind == "flush":
            controller.flush_counters()
        elif kind == "power":
            controller.power_cycle()
    # Final sweep: every block the model knows about must agree.
    for address, expected in model.blocks.items():
        observed = controller.fetch_block(address)[0]
        assert observed == expected, f"final divergence at {address:#x}"


@given(op_strategy())
@settings(max_examples=25, deadline=None)
def test_fuzz_silent_shredder(tiny_config_factory, operations):
    run_sequence(SilentShredderController(tiny_config_factory()), operations)


@given(op_strategy())
@settings(max_examples=15, deadline=None)
def test_fuzz_deuce(tiny_config_factory, operations):
    run_sequence(DeuceShredderController(tiny_config_factory(),
                                         epoch_interval=4), operations)


def test_long_seeded_fuzz(tiny_config_factory):
    """One long deterministic run beyond hypothesis' budget."""
    rng = random.Random(1337)
    operations = []
    for _ in range(600):
        roll = rng.random()
        if roll < 0.4:
            operations.append(("store",
                               rng.randrange(PAGES * BLOCKS_PER_PAGE),
                               rng.randrange(256)))
        elif roll < 0.75:
            operations.append(("fetch",
                               rng.randrange(PAGES * BLOCKS_PER_PAGE), 0))
        elif roll < 0.9:
            operations.append(("shred", rng.randrange(PAGES), 0))
        elif roll < 0.96:
            operations.append(("flush", 0, 0))
        else:
            operations.append(("power", 0, 0))
    run_sequence(SilentShredderController(tiny_config_factory()), operations)
