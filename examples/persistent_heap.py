#!/usr/bin/env python3
"""Persistent memory on encrypted NVM (section 2.1) + secure deletion.

Demonstrates the storage/main-memory fusion NVM enables: a persistent
heap whose regions survive power loss, built on the secure Silent
Shredder machine —

1. create a named persistent region and store records in it,
2. ``commit()`` (flush caches, persist the directory, flush the
   battery-backed counter cache),
3. pull the plug, reboot, ``attach()`` the heap, read the data back,
4. securely delete a region: ONE shred command per page instead of
   overwriting 4 KB of ciphertext — and verify the ciphertext is
   physically still there yet unreadable.

Run:  python examples/persistent_heap.py
"""

from dataclasses import replace

from repro import fast_config
from repro.kernel import Kernel, PersistentHeap
from repro.sim import Machine

RECORDS = [b"user=amro;balance=1200 ", b"user=yan;balance=3400  ",
           b"user=stuart;balance=56 "]


def main() -> None:
    config = fast_config().with_zeroing("shred")
    config = replace(config, encryption=replace(config.encryption,
                                                cipher="aes"))
    machine = Machine(config, shredder=True)
    kernel = Kernel(machine)

    print("=== boot #1: create and populate a persistent region ===")
    heap = PersistentHeap(machine, kernel)
    ledger = heap.create_region("ledger", num_pages=2)
    for index, record in enumerate(RECORDS):
        heap.write(ledger, index * 64, record)
    print(f"  wrote {len(RECORDS)} records into region 'ledger' "
          f"({ledger.size_bytes} B at pages {ledger.pages})")
    heap.commit()
    print("  committed: caches flushed, directory persisted, counters "
          "flushed")

    print("\n=== power loss ===")
    machine.controller.power_cycle()
    print("  NVM kept its (encrypted) contents; all volatile state gone")

    print("\n=== boot #2: attach and recover ===")
    kernel2 = Kernel(machine)
    heap2 = PersistentHeap.attach(machine, kernel2, heap.directory_ppn)
    recovered = heap2.regions["ledger"]
    for index, expected in enumerate(RECORDS):
        data = heap2.read(recovered, index * 64, len(expected))
        status = "OK" if data == expected else "CORRUPT"
        print(f"  record {index}: {data.decode().strip():30s} [{status}]")
        assert data == expected

    print("\n=== secure deletion via shredding ===")
    page = recovered.pages[0]
    ciphertext_before = machine.controller.device.peek(page * 4096)
    shreds_before = machine.controller.stats.shreds
    writes_before = machine.controller.stats.data_writes
    heap2.destroy_region("ledger")
    print(f"  destroy_region: {machine.controller.stats.shreds - shreds_before}"
          f" shred commands, "
          f"{machine.controller.stats.data_writes - writes_before} data writes")
    assert machine.controller.device.peek(page * 4096) == ciphertext_before
    data, _, zero_filled = machine.controller.fetch_block(page * 4096)
    print(f"  stale ciphertext still in cells; controller reads "
          f"zero-fill: {zero_filled}")
    assert data == bytes(64)
    print("\nPersistent data survived the crash; deleted data is gone "
          "at zero write cost.")


if __name__ == "__main__":
    main()
