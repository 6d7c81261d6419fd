"""Memory-channel bandwidth and queueing model.

The paper's system has 2 channels of 12.8 GB/s. Each channel is a
shared bus modelled as a busy-time server: one 64 B block transaction
occupies the bus for ``block_size / bandwidth`` (5 ns at 12.8 GB/s),
and the device's cell access latency (75 ns reads / 150 ns writes) is
*pipelined* behind the bus — NVM DIMMs have many banks, so throughput
is bus-limited while each transaction still observes its full device
latency. A request's completion time is therefore::

    finish = max(now, channel_free) + transfer + device_latency

and the channel frees after the transfer slot, not after the cell
access. Blocks stripe across channels by block index.
"""

from __future__ import annotations

from typing import List

from ..errors import ConfigError


class ChannelModel:
    """Per-channel bus busy-time accounting in nanoseconds."""

    def __init__(self, num_channels: int, bandwidth_gbps: float,
                 block_size: int = 64) -> None:
        if num_channels < 1:
            raise ConfigError("need at least one channel")
        if bandwidth_gbps <= 0:
            raise ConfigError("channel bandwidth must be positive")
        self.num_channels = num_channels
        self.bandwidth_gbps = bandwidth_gbps
        self.block_size = block_size
        # GB/s == bytes/ns, so transfer time in ns is bytes / (GB/s).
        self.transfer_ns = block_size / bandwidth_gbps
        # Controllers have finite transaction queues; a request never
        # waits longer than a full queue's worth of bus slots. This also
        # bounds the artificial skew between per-core clocks in the
        # transaction-level model.
        self.max_queue_slots = 64
        self._free_at_ns: List[float] = [0.0] * num_channels
        self.busy_ns = 0.0
        self.queued_requests = 0
        self.total_requests = 0
        self.total_queue_delay_ns = 0.0

    def channel_for(self, address: int) -> int:
        """Stripe blocks round-robin across channels by block index."""
        return (address // self.block_size) % self.num_channels

    def request(self, address: int, now_ns: float, service_ns: float, *,
                is_read: bool = True) -> float:
        """Schedule one block transaction; returns its completion time.

        ``service_ns`` is the device access latency, overlapped across
        banks; only the bus transfer slot serialises with other traffic
        on the channel.
        """
        channel = address // self.block_size % self.num_channels
        free_at = self._free_at_ns
        cap_ns = self.max_queue_slots * self.transfer_ns
        queue_delay = free_at[channel] - now_ns
        if queue_delay > cap_ns:
            queue_delay = cap_ns
        if queue_delay > 0:
            self.queued_requests += 1
            self.total_queue_delay_ns += queue_delay
        else:
            queue_delay = 0.0
        start = now_ns + queue_delay
        # Back-pressure: the queue never holds more than max_queue_slots
        # of backlog relative to the most recent requester's clock.
        free = free_at[channel]
        if start > free:
            free = start
        free += self.transfer_ns
        limit = now_ns + cap_ns
        free_at[channel] = free if free <= limit else limit
        self.busy_ns += self.transfer_ns
        self.total_requests += 1
        return start + self.transfer_ns + service_ns

    def utilization(self, elapsed_ns: float) -> float:
        """Aggregate channel (bus) utilization over an elapsed window."""
        if elapsed_ns <= 0:
            return 0.0
        return self.busy_ns / (elapsed_ns * self.num_channels)

    def reset(self) -> None:
        self._free_at_ns = [0.0] * self.num_channels
        self.busy_ns = 0.0
        self.queued_requests = 0
        self.total_requests = 0
        self.total_queue_delay_ns = 0.0
