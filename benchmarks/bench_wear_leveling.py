"""Wear-levelling study: Start-Gap under the secure controller.

The paper cites Start-Gap (Qureshi et al. [30]) as the standard answer
to NVM endurance. This benchmark drives a hot-spot write pattern —
the worst case for raw PCM — through the Silent Shredder controller
with and without regioned Start-Gap, and reports worst-line wear and
the projected lifetime ratio. Shredding and wear levelling compose:
the shredder removes the zeroing writes, Start-Gap spreads the rest.
"""

from dataclasses import replace

from repro.analysis import render_table
from repro.config import fast_config
from repro.core import SilentShredderController

HOT_LINES = 4
WRITES_PER_LINE = 300


def run_case(start_gap: bool) -> dict:
    config = fast_config()
    config = replace(config, nvm=replace(config.nvm, start_gap=start_gap,
                                         start_gap_interval=2,
                                         start_gap_region_lines=16))
    controller = SilentShredderController(config)
    for i in range(WRITES_PER_LINE):
        for line in range(HOT_LINES):
            controller.store_block(line * 64, bytes([i % 256]) * 64)
    # Functional check: the hot lines still hold the last value.
    for line in range(HOT_LINES):
        expected = bytes([(WRITES_PER_LINE - 1) % 256]) * 64
        data, _, _ = controller.fetch_block(line * 64)
        assert data == expected

    device = controller.device
    return {
        "config": "start-gap" if start_gap else "no-levelling",
        "total_line_writes": device.total_line_writes(),
        "max_line_wear": device.max_wear(),
        "distinct_lines_worn": len(device.wear),
        "lifetime_x": round(device.endurance_writes
                            / max(device.max_wear(), 1) / 1e6, 2),
    }


def test_wear_leveling(benchmark, emit):
    rows = benchmark.pedantic(lambda: [run_case(False), run_case(True)],
                              rounds=1, iterations=1)
    emit("wear_leveling", render_table(
        rows, title="Start-Gap under Silent Shredder — hot-spot write "
                    "pattern (lifetime in millions of workload repeats)"))

    plain, levelled = rows
    assert levelled["max_line_wear"] < 0.6 * plain["max_line_wear"]
    assert levelled["distinct_lines_worn"] > plain["distinct_lines_worn"]
    assert levelled["lifetime_x"] > plain["lifetime_x"]
    # Levelling moves data but performs the same logical writes.
    assert levelled["total_line_writes"] >= plain["total_line_writes"]
