#!/usr/bin/env python3
"""The attack model of section 4.1, played out with real AES-128.

An attacker with physical access to the NVM DIMM:

1. scans the powered-off module for a victim's secret (data
   remanence) — finds only counter-mode ciphertext;
2. inspects a page after the OS shredded it — the stale ciphertext is
   physically present (Silent Shredder wrote nothing!) yet the
   controller returns zeros, and force-decrypting under the new IV
   yields uncorrelated garbage;
3. tampers with the encryption counters — the Bonsai-style Merkle
   tree detects it on the next fetch;
4. tries to issue a shred command from user space — privilege check.

Run:  python examples/attack_demo.py
"""

from dataclasses import replace

from repro import fast_config, IntegrityError, ProtectionError, System

SECRET = b"PATIENT-RECORD-#7734-DIAGNOSIS!!" * 2   # one 64 B block


def main() -> None:
    config = fast_config().with_zeroing("shred")
    config = replace(config, encryption=replace(config.encryption,
                                                cipher="aes"))
    system = System(config, shredder=True)
    machine = system.machine
    controller = machine.controller

    # A victim process writes a secret and the system persists it.
    ctx = system.new_context(0)
    base = ctx.malloc(4096)
    ctx.write_bytes(base, SECRET)
    machine.hierarchy.flush_all()
    physical = system.kernel.translate(ctx.pid, base, write=False).physical
    block = physical - physical % 64
    page = physical // 4096

    print("=== 1. Data-remanence scan (stolen DIMM) ===")
    controller.device.power_cycle()     # NVM keeps its contents
    raw = controller.device.peek(block)
    print(f"  cells hold : {raw[:24].hex()}...")
    print(f"  secret was : {SECRET[:24].hex()}...")
    assert SECRET[:8] not in raw
    print("  -> only AES-CTR ciphertext visible; no plaintext remanence\n")

    print("=== 2. Read-after-shred ===")
    ciphertext_before = controller.device.peek(block)
    system.kernel.exit_process(ctx.pid)   # page returns to the pool
    machine.shred_register.write(page * 4096, kernel_mode=True)
    assert controller.device.peek(block) == ciphertext_before
    print("  shred wrote 0 data blocks; stale ciphertext still in cells")
    data, _, zero_filled = controller.fetch_block(block)
    print(f"  controller returns zero-fill: {zero_filled}, "
          f"data == zeros: {data == bytes(64)}")
    counters = controller.counter_cache.peek(page)
    new_iv = controller.iv_layout.build(page, 0, counters.major, 1)
    garbage = controller.engine.decrypt(ciphertext_before, new_iv)
    print(f"  force-decrypt under post-shred IV: {garbage[:16].hex()}...")
    assert garbage != SECRET and SECRET[:8] not in garbage
    print("  -> old data unintelligible under any reachable IV\n")

    print("=== 3. Counter tampering / replay ===")
    controller.flush_counters()
    controller.counter_cache.invalidate(page)
    counter_address = controller._counter_address(page)
    tampered = bytearray(controller.device.peek(counter_address))
    tampered[0] ^= 0x80                   # roll the major counter back
    controller.device.poke(counter_address, bytes(tampered))
    try:
        controller.fetch_block(block)
        raise AssertionError("tampering went undetected!")
    except IntegrityError as error:
        print(f"  Merkle tree raised: {error}\n")

    print("=== 4. User-space shred attempt ===")
    try:
        machine.shred_register.write(page * 4096, kernel_mode=False)
        raise AssertionError("privilege check missing!")
    except ProtectionError as error:
        print(f"  exception raised: {error}")
    print("\nAll four attacks defeated.")


if __name__ == "__main__":
    main()
