#!/usr/bin/env python3
"""Virtual-machine isolation at zero shredding cost (sections 1, 7.2).

Reproduces the Figure 1 scenario: a hypervisor grants host pages to
VMs (shredding them to prevent inter-VM leaks), guest kernels shred
again before mapping pages into guest processes, and memory
ballooning moves pages between VMs under pressure — every movement
another shred. On the baseline each of those shreds writes a full
page of zeros to NVM; with Silent Shredder none of them writes a
byte.

Run:  python examples/vm_isolation.py
"""

from repro import fast_config, System
from repro.analysis import render_table
from repro.kernel import Hypervisor


def run_datacenter(shredder: bool) -> dict:
    """A consolidation scenario: 2 VMs, guest processes, ballooning."""
    strategy = "shred" if shredder else "nontemporal"
    system = System(fast_config().with_zeroing(strategy), shredder=shredder)
    hypervisor = Hypervisor(system.machine)

    # Two tenants boot with private page pools.
    vm_a = hypervisor.create_vm(initial_pages=48)
    vm_b = hypervisor.create_vm(initial_pages=16)

    # Tenant A runs a process that touches its memory.
    process = vm_a.kernel.create_process()
    region = vm_a.kernel.mmap(process.pid, 32 * 4096)
    for page in range(32):
        paddr = vm_a.kernel.translate(process.pid,
                                      region.start + page * 4096,
                                      write=True).physical
        system.machine.store(0, paddr, merge=(0, b"tenant-A-private"))
    system.machine.hierarchy.flush_all()

    # Pressure: tenant B needs memory; A's process exits; the balloon
    # reclaims A's free pages and re-grants them to B (shredded again).
    vm_a.kernel.exit_process(process.pid)
    hypervisor.balloon(vm_a.vm_id, vm_b.vm_id, 24)

    # Tenant B touches its ballooned pages and must see only zeros.
    guest = vm_b.kernel.create_process()
    region_b = vm_b.kernel.mmap(guest.pid, 16 * 4096)
    leaked = 0
    for page in range(16):
        paddr = vm_b.kernel.translate(guest.pid,
                                      region_b.start + page * 4096,
                                      write=False).physical
        _, data = system.machine.load(1, paddr)
        if data and b"tenant-A" in data:
            leaked += 1

    controller = system.machine.controller
    return {
        "system": "silent-shredder" if shredder else "baseline",
        "shred_operations": (hypervisor.zeroing.stats.pages_zeroed
                             + vm_a.kernel.zeroing.stats.pages_zeroed
                             + vm_b.kernel.zeroing.stats.pages_zeroed),
        "nvm_data_writes": controller.stats.data_writes,
        "zeroing_nvm_writes": hypervisor.zeroing.stats.memory_writes,
        "leaked_pages": leaked,
        "balloon_moves": hypervisor.stats.balloon_operations,
    }


def main() -> None:
    rows = [run_datacenter(shredder=False), run_datacenter(shredder=True)]
    print(render_table(rows, title="VM isolation & ballooning — baseline "
                                   "vs Silent Shredder"))
    base, shredder = rows
    assert base["leaked_pages"] == 0 and shredder["leaked_pages"] == 0
    print()
    print(f"Both systems isolate tenants (0 leaked pages), but the "
          f"baseline paid {base['zeroing_nvm_writes']} NVM writes for "
          f"shredding while Silent Shredder paid "
          f"{shredder['zeroing_nvm_writes']}.")


if __name__ == "__main__":
    main()
