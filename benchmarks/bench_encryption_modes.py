"""Encryption-mode comparison (section 2.2).

Measures the three memory-encryption designs the paper discusses on
one stream of stores and (cold) loads:

* **direct (ECB)** — cipher latency serialises with every fetch; no
  IVs, so no shredding support and equality leaks;
* **counter mode** — pad generation overlaps the fetch; only the XOR
  serialises; IVs enable Silent Shredder;
* **counter mode + Silent Shredder** — shredded reads skip NVM and
  pads entirely.
"""

from dataclasses import replace

from repro.analysis import render_table
from repro.config import fast_config
from repro.core import (DirectEncryptionController, SecureMemoryController,
                        SilentShredderController)

BLOCKS = 192


def run_mode(kind: str) -> dict:
    config = replace(fast_config(),
                     encryption=replace(fast_config().encryption,
                                        cipher="null"))
    if kind == "direct":
        controller = DirectEncryptionController(config)
    elif kind == "ctr":
        controller = SecureMemoryController(config)
    else:
        controller = SilentShredderController(config)

    # Populate, then read everything back cold (counters stay warm,
    # data does not linger anywhere — there are no caches here).
    for i in range(BLOCKS):
        controller.store_block(i * 64, bytes([i % 251 + 1]) * 64,
                               i * 500.0)
    if kind == "ctr+shredder":
        # Half the pages get recycled: shredded, then read (zero-fill).
        pages = BLOCKS * 64 // 4096 + 1
        for page in range(0, pages, 2):
            controller.shred_page(page)
    read_ns = 0.0
    for i in range(BLOCKS):
        # Space the requests out so queueing does not mask the
        # per-access latency difference between the designs.
        _, latency_ns, _ = controller.fetch_block(i * 64, i * 500.0)
        read_ns += latency_ns
    return {
        "mode": kind,
        "avg_read_ns": round(read_ns / BLOCKS, 1),
        "zero_fill_reads": controller.stats.zero_fill_reads,
        "shredding_support": kind == "ctr+shredder",
    }


def test_encryption_modes(benchmark, emit):
    rows = benchmark.pedantic(
        lambda: [run_mode(kind) for kind in ("direct", "ctr", "ctr+shredder")],
        rounds=1, iterations=1)
    emit("encryption_modes", render_table(
        rows, title="Memory-encryption designs — average read latency"))

    direct, ctr, shredded = rows
    # Counter mode beats direct encryption (overlap vs serialise).
    assert ctr["avg_read_ns"] < direct["avg_read_ns"]
    # Shredding cuts further (zero-fill reads skip NVM).
    assert shredded["avg_read_ns"] < ctr["avg_read_ns"]
    assert shredded["zero_fill_reads"] > 0
    assert direct["zero_fill_reads"] == 0
