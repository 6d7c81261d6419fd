#!/usr/bin/env python3
"""A crash-safe key-value store on encrypted NVM.

Pulls the library's pieces together the way an application would:

* fixed-size records live in a persistent region (section 2.1's
  storage/memory fusion); ``commit()`` makes the table durable;
* a power cut in the middle of operation loses nothing that was
  committed — the counter cache's battery flush plus NVM remanence
  recover the encrypted records on reboot;
* ``DROP TABLE`` is a handful of shred commands: the table becomes
  unreadable instantly, with zero data writes, while its ciphertext
  physically remains until the pages are reused.

Run:  python examples/kv_store.py
"""

from dataclasses import replace

from repro import fast_config
from repro.kernel import Kernel, PersistentHeap
from repro.sim import Machine

RECORD = 64                      # one cache block per record
KEY_BYTES = 16


class KVStore:
    """Open-addressed fixed-record store inside a persistent region."""

    def __init__(self, heap: PersistentHeap, name: str, pages: int = 4,
                 create: bool = True) -> None:
        self.heap = heap
        self.name = name
        if create:
            self.region = heap.create_region(name, pages)
        else:
            self.region = heap.regions[name]
        self.slots = self.region.size_bytes // RECORD

    def _slot_of(self, key: bytes) -> int:
        return int.from_bytes(key[:8].ljust(8, b"\0"), "little") % self.slots

    def put(self, key: bytes, value: bytes) -> None:
        assert len(key) <= KEY_BYTES and len(value) <= RECORD - KEY_BYTES - 1
        slot = self._slot_of(key)
        for probe in range(self.slots):
            index = (slot + probe) % self.slots
            record = self.heap.read(self.region, index * RECORD, RECORD)
            stored_key = record[1:1 + KEY_BYTES].rstrip(b"\0")
            if record[0] == 0 or stored_key == key:
                payload = (b"\x01" + key.ljust(KEY_BYTES, b"\0")
                           + value.ljust(RECORD - KEY_BYTES - 1, b"\0"))
                self.heap.write(self.region, index * RECORD, payload)
                return
        raise RuntimeError("store full")

    def get(self, key: bytes) -> bytes:
        slot = self._slot_of(key)
        for probe in range(self.slots):
            index = (slot + probe) % self.slots
            record = self.heap.read(self.region, index * RECORD, RECORD)
            if record[0] == 0:
                break
            if record[1:1 + KEY_BYTES].rstrip(b"\0") == key:
                return record[1 + KEY_BYTES:].rstrip(b"\0")
        raise KeyError(key.decode())


def main() -> None:
    config = replace(fast_config().with_zeroing("shred"),
                     encryption=replace(fast_config().encryption,
                                        cipher="aes"))
    machine = Machine(config, shredder=True)
    kernel = Kernel(machine)
    heap = PersistentHeap(machine, kernel)

    print("=== populate and commit ===")
    store = KVStore(heap, "users")
    entries = {b"alice": b"balance=120", b"bob": b"balance=45",
               b"carol": b"balance=990", b"dave": b"balance=7"}
    for key, value in entries.items():
        store.put(key, value)
    heap.commit()
    print(f"  {len(entries)} records committed to region 'users'")

    print("\n=== crash and recover ===")
    directory = heap.directory_ppn
    machine.controller.power_cycle()
    kernel2 = Kernel(machine)
    heap2 = PersistentHeap.attach(machine, kernel2, directory)
    recovered = KVStore(heap2, "users", create=False)
    for key, value in entries.items():
        got = recovered.get(key)
        assert got == value, (key, got, value)
        print(f"  {key.decode():6s} -> {got.decode():14s} [recovered]")

    print("\n=== DROP TABLE via shredding ===")
    pages = list(recovered.region.pages)
    writes_before = machine.controller.stats.data_writes
    heap2.destroy_region("users")
    print(f"  dropped in {machine.controller.stats.shreds} total shreds, "
          f"{machine.controller.stats.data_writes - writes_before} data writes")
    for page in pages:
        _, _, zero_filled = machine.controller.fetch_block(page * 4096)
        assert zero_filled
    print("  every record now reads as zeros; ciphertext cells untouched")
    print("\nKV store: durable across crashes, erasable for free.")


if __name__ == "__main__":
    main()
