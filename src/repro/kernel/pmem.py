"""Persistent-memory regions (section 2.1).

NVM main memory "may allow future systems to fuse storage and main
memory": applications can make persistent allocations whose page
mapping information the OS keeps durable, so a region can be remapped
across machine reboots (Mnemosyne/Moraru-style building blocks).

:class:`PersistentHeap` implements the kernel half of that contract on
top of this repository's machine model:

* a **directory page** in NVM records the name and physical pages of
  every persistent region (packed binary, rewritten on ``commit``),
* ``commit()`` flushes the cache hierarchy (region contents), persists
  the directory, and flushes the battery-backed counter cache — the
  three durability points the paper's §4.3/§7.1 discussion requires,
* after a power cycle, :meth:`PersistentHeap.attach` re-reads the
  directory, claims the regions' physical pages out of the allocator's
  free list, and hands back readable regions.

The interplay with shredding is the interesting part: *volatile* pages
recycle through shred-on-reuse as usual, while persistent pages are
deliberately exempt until :meth:`destroy_region` shreds them (secure
deletion of persistent data — one shred command instead of a 4 KB
overwrite).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import AddressError, SimulationError

#: Directory layout: magic + u16 region count, then per region a
#: 16-byte name, u16 page count, and u32 physical page numbers.
_MAGIC = b"SSPMDIR1"
_NAME_BYTES = 16


@dataclass
class PersistentRegion:
    """A named, durable allocation."""

    name: str
    pages: List[int]

    @property
    def size_bytes(self) -> int:
        return len(self.pages) * 4096


class PersistentHeap:
    """Named persistent regions with a durable NVM directory."""

    def __init__(self, machine, kernel, *, directory_ppn: Optional[int] = None,
                 _attached: Optional[Dict[str, PersistentRegion]] = None) -> None:
        self.machine = machine
        self.kernel = kernel
        self.page_size = machine.config.kernel.page_size
        self.block_size = machine.block_size
        if directory_ppn is None:
            directory_ppn = kernel.allocator.allocate()
        self.directory_ppn = directory_ppn
        self.regions: Dict[str, PersistentRegion] = _attached or {}

    # -- region lifecycle ---------------------------------------------------

    def create_region(self, name: str, num_pages: int) -> PersistentRegion:
        """Allocate a new zeroed persistent region."""
        if len(name.encode()) > _NAME_BYTES:
            raise AddressError(f"region name {name!r} exceeds "
                               f"{_NAME_BYTES} bytes")
        if name in self.regions:
            raise SimulationError(f"region {name!r} already exists")
        pages = [self.kernel.allocator.allocate() for _ in range(num_pages)]
        for page in pages:
            self.kernel.zeroing.zero_page(page)
        region = PersistentRegion(name=name, pages=pages)
        self.regions[name] = region
        return region

    def destroy_region(self, name: str) -> None:
        """Secure deletion: shred the pages, then recycle them."""
        region = self.regions.pop(name, None)
        if region is None:
            raise SimulationError(f"no region {name!r}")
        for page in region.pages:
            if self.machine.shred_register is not None:
                self.machine.shred_register.write(page * self.page_size,
                                                  kernel_mode=True)
            self.kernel.allocator.free(page)

    # -- data access -----------------------------------------------------------

    def _physical(self, region: PersistentRegion, offset: int) -> int:
        if offset < 0 or offset >= region.size_bytes:
            raise AddressError(f"offset {offset} outside region "
                               f"{region.name!r}")
        page_index, within = divmod(offset, self.page_size)
        return region.pages[page_index] * self.page_size + within

    def write(self, region: PersistentRegion, offset: int,
              payload: bytes) -> None:
        """Store bytes into a region (through the cache hierarchy)."""
        position = 0
        while position < len(payload):
            physical = self._physical(region, offset + position)
            take = min(self.page_size - (offset + position) % self.page_size,
                       len(payload) - position)
            self.machine.write_bytes(0, physical,
                                     payload[position:position + take])
            position += take

    def read(self, region: PersistentRegion, offset: int,
             length: int) -> bytes:
        """Load bytes from a region."""
        out = bytearray()
        position = 0
        while position < length:
            physical = self._physical(region, offset + position)
            take = min(self.page_size - (offset + position) % self.page_size,
                       length - position)
            chunk, _ = self.machine.read_bytes(0, physical, take)
            out.extend(chunk)
            position += take
        return bytes(out)

    # -- durability ---------------------------------------------------------------

    def _pack_directory(self) -> bytes:
        parts = [_MAGIC, struct.pack("<H", len(self.regions))]
        for region in self.regions.values():
            parts.append(region.name.encode().ljust(_NAME_BYTES, b"\x00"))
            parts.append(struct.pack("<H", len(region.pages)))
            parts.extend(struct.pack("<I", page) for page in region.pages)
        blob = b"".join(parts)
        if len(blob) > self.page_size:
            raise SimulationError("persistent directory exceeds one page")
        return blob.ljust(self.page_size, b"\x00")

    def commit(self) -> None:
        """Make all regions durable: flush caches, persist the
        directory, flush the counter cache."""
        self.machine.hierarchy.flush_all()
        blob = self._pack_directory()
        base = self.directory_ppn * self.page_size
        for offset in range(0, self.page_size, self.block_size):
            self.machine.controller.store_block(
                base + offset,
                blob[offset:offset + self.block_size]
                if self.machine.functional else None)
        self.machine.controller.flush_counters()

    @classmethod
    def attach(cls, machine, kernel, directory_ppn: int) -> "PersistentHeap":
        """Reboot path: parse the directory and reclaim region pages."""
        page_size = machine.config.kernel.page_size
        block_size = machine.block_size
        base = directory_ppn * page_size
        blob = bytearray()
        for offset in range(0, page_size, block_size):
            data, _, _ = machine.controller.fetch_block(base + offset)
            blob.extend(data if data is not None else bytes(block_size))
        if bytes(blob[:len(_MAGIC)]) != _MAGIC:
            raise SimulationError("no persistent directory found "
                                  "(uncommitted or corrupted)")
        (count,) = struct.unpack_from("<H", blob, len(_MAGIC))
        cursor = len(_MAGIC) + 2
        regions: Dict[str, PersistentRegion] = {}
        for _ in range(count):
            name = bytes(blob[cursor:cursor + _NAME_BYTES]).rstrip(b"\x00").decode()
            cursor += _NAME_BYTES
            (num_pages,) = struct.unpack_from("<H", blob, cursor)
            cursor += 2
            pages = []
            for _ in range(num_pages):
                (page,) = struct.unpack_from("<I", blob, cursor)
                cursor += 4
                pages.append(page)
            regions[name] = PersistentRegion(name=name, pages=pages)
        # Keep the regions' frames and the directory out of circulation.
        kernel.allocator.claim(directory_ppn)
        for region in regions.values():
            for page in region.pages:
                kernel.allocator.claim(page)
        return cls(machine, kernel, directory_ppn=directory_ppn,
                   _attached=regions)
