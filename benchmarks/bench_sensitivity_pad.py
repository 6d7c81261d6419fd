"""Pad/cipher latency sensitivity (section 2.2's overlap argument).

Counter mode hides the cipher latency behind the NVM fetch: as long as
pad generation is faster than the memory access, making the cipher
slower costs nothing on reads. Direct encryption pays the cipher
serially, so its read latency grows one-for-one. This sweep quantifies
the argument — and shows the shredded-read fast path does not care at
all (no pad is ever generated).
"""

from dataclasses import replace

from repro.analysis import render_table
from repro.config import fast_config
from repro.core import (DirectEncryptionController, SecureMemoryController,
                        SilentShredderController)

PAD_CYCLES = [10, 40, 80, 160]
BLOCKS = 64


def read_latency(kind: str, pad_cycles: int) -> float:
    config = replace(fast_config(),
                     encryption=replace(fast_config().encryption,
                                        cipher="null",
                                        pad_latency_cycles=pad_cycles))
    if kind == "direct":
        controller = DirectEncryptionController(config)
    elif kind == "ctr":
        controller = SecureMemoryController(config)
    else:
        controller = SilentShredderController(config)
    for i in range(BLOCKS):
        controller.store_block(i * 64, bytes([i + 1]) * 64, i * 500.0)
    if kind == "shredded":
        for page in range(BLOCKS * 64 // 4096 + 1):
            controller.shred_page(page)
    total = 0.0
    for i in range(BLOCKS):
        _, latency_ns, _ = controller.fetch_block(i * 64, i * 500.0)
        total += latency_ns
    return total / BLOCKS


def test_pad_latency_sensitivity(benchmark, emit):
    def sweep():
        rows = []
        for pad in PAD_CYCLES:
            rows.append({
                "pad_cycles": pad,
                "direct_read_ns": round(read_latency("direct", pad), 1),
                "ctr_read_ns": round(read_latency("ctr", pad), 1),
                "shredded_read_ns": round(read_latency("shredded", pad), 1),
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit("sensitivity_pad", render_table(
        rows, title="Cipher-latency sweep — read latency by design "
                    "(counter mode overlaps; direct serialises)"))

    first, last = rows[0], rows[-1]
    # Direct encryption: latency grows with the cipher.
    assert last["direct_read_ns"] > first["direct_read_ns"] + 50
    # Counter mode: flat while pad generation fits under the fetch.
    assert abs(rows[1]["ctr_read_ns"] - rows[0]["ctr_read_ns"]) < 10
    # Shredded reads never generate a pad: completely flat and lowest.
    assert first["shredded_read_ns"] == last["shredded_read_ns"]
    for row in rows:
        assert row["shredded_read_ns"] < row["ctr_read_ns"]
        assert row["ctr_read_ns"] <= row["direct_read_ns"] + 1
