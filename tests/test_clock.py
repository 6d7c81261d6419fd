"""The ``now_ns`` time contract and CounterFetch results."""

from repro.core.secure_memory import CounterFetch, SecureMemoryController


def issue_times(controller, kind="read"):
    """Spy on the NVM datapath: the times at which ``kind`` ("read" or
    "write") transactions reach the memory controller."""
    times = []
    original = getattr(controller.mem, f"{kind}_block")

    def spy(address, *args):
        times.append(args[-1])          # the secure controller passes it
        return original(address, *args)

    setattr(controller.mem, f"{kind}_block", spy)
    return times


class TestTimeContract:
    def test_nvm_read_issued_at_now_ns(self, tiny_config):
        controller = SecureMemoryController(tiny_config)
        page = controller.page_size
        times = issue_times(controller)
        controller.fetch_block(0, 100.0)
        controller.fetch_block(page, now_ns=200.0)
        controller.fetch_block(2 * page)            # time left out
        # Each first touch reads its counter block at the transaction's
        # time, then the data block once the counters are known.
        assert times[0::2] == [100.0, 200.0, 0.0]
        assert all(data > counters
                   for counters, data in zip(times[0::2], times[1::2]))

    def test_flush_counters_persists_at_now_ns(self, tiny_config):
        controller = SecureMemoryController(tiny_config)
        controller.store_block(0, bytes(64), 10.0)
        controller.store_block(controller.page_size, bytes(64), 20.0)
        times = issue_times(controller, "write")
        assert controller.flush_counters(300.0) == 2
        assert times == [300.0, 300.0]
        controller.store_block(0, bytes(64), 30.0)
        times.clear()
        assert controller.flush_counters() == 1     # time left out
        assert times == [0.0]


class TestCounterFetch:
    def test_named_fields(self, tiny_config):
        controller = SecureMemoryController(tiny_config)
        fetch = controller.get_counters(3)
        assert isinstance(fetch, CounterFetch)
        assert fetch.counters is not None
        assert fetch.latency_ns > 0
        assert fetch.hit is False      # first touch misses
