"""Memory-trace recording and replay.

Record a workload's operation stream once, then replay it onto any
machine configuration — the standard methodology for comparing memory
systems on identical access streams (and a cheap way for downstream
users to drive this simulator from their own traces).

The recorder wraps an :class:`~repro.runtime.ExecutionContext` and
logs every operation; the replayer re-executes the log against a fresh
context, remapping recorded allocation bases onto the new process's
addresses. Traces serialise to JSON-lines for storage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterable, List, Tuple

from ..errors import SimulationError
from ..obs import span
from .context import ExecutionContext


@dataclass
class TraceEvent:
    """One recorded operation."""

    op: str                      # malloc | load | store | touch_r | touch_w
    #                            # | memset | shred | compute
    address: int = 0             # virtual address (or size for malloc)
    value: int = 0               # stored value / op size / instruction count

    def to_json(self) -> str:
        return json.dumps({"op": self.op, "a": self.address, "v": self.value})

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        raw = json.loads(line)
        return cls(op=raw["op"], address=raw["a"], value=raw["v"])


class TraceRecorder:
    """An ExecutionContext proxy that logs everything it forwards."""

    def __init__(self, ctx: ExecutionContext) -> None:
        self.ctx = ctx
        self.events: List[TraceEvent] = []

    # -- recorded operations ------------------------------------------------

    def malloc(self, nbytes: int) -> int:
        base = self.ctx.malloc(nbytes)
        self.events.append(TraceEvent(op="malloc", address=base,
                                      value=nbytes))
        return base

    def load_u64(self, vaddr: int) -> int:
        self.events.append(TraceEvent(op="load", address=vaddr))
        return self.ctx.load_u64(vaddr)

    def store_u64(self, vaddr: int, value: int) -> None:
        self.events.append(TraceEvent(op="store", address=vaddr, value=value))
        self.ctx.store_u64(vaddr, value)

    def touch(self, vaddr: int, write: bool) -> None:
        self.events.append(TraceEvent(op="touch_w" if write else "touch_r",
                                      address=vaddr))
        self.ctx.touch(vaddr, write)

    def memset(self, vaddr: int, size: int, **kwargs) -> None:
        self.events.append(TraceEvent(op="memset", address=vaddr, value=size))
        self.ctx.memset(vaddr, size, **kwargs)

    def shred(self, vaddr: int, num_pages: int) -> None:
        self.events.append(TraceEvent(op="shred", address=vaddr,
                                      value=num_pages))
        self.ctx.shred(vaddr, num_pages)

    def compute(self, instructions: int) -> None:
        self.events.append(TraceEvent(op="compute", value=instructions))
        self.ctx.compute(instructions)

    # -- passthrough attributes ------------------------------------------------

    def __getattr__(self, name):
        return getattr(self.ctx, name)

    # -- persistence --------------------------------------------------------------

    def dump(self, stream: IO[str]) -> int:
        with span("trace.dump", attrs={"events": len(self.events)}):
            for event in self.events:
                stream.write(event.to_json() + "\n")
        return len(self.events)


def load_trace(stream: IO[str]) -> List[TraceEvent]:
    return [TraceEvent.from_json(line) for line in stream if line.strip()]


def replay_trace(ctx: ExecutionContext,
                 events: Iterable[TraceEvent]) -> int:
    """Re-execute a trace on a fresh context.

    Allocation bases are remapped in recording order, so the trace is
    portable across systems whose allocators place regions differently.
    Shred events are downgraded to memset on machines without a shred
    register (so one trace drives both baseline and shredder systems).
    """
    base_map: List[Tuple[int, int, int]] = []   # (old_base, old_end, new_base)

    def remap(address: int) -> int:
        for old_base, old_end, new_base in base_map:
            if old_base <= address < old_end:
                return new_base + (address - old_base)
        raise SimulationError(f"trace address {address:#x} outside any "
                              "recorded allocation")

    count = 0
    with span("trace.replay") as record:
        for event in events:
            count += 1
            if event.op == "malloc":
                new_base = ctx.malloc(event.value)
                old_base = event.address
                base_map.append((old_base, old_base + event.value, new_base))
            elif event.op == "load":
                ctx.load_u64(remap(event.address))
            elif event.op == "store":
                ctx.store_u64(remap(event.address), event.value)
            elif event.op == "touch_r":
                ctx.touch(remap(event.address), write=False)
            elif event.op == "touch_w":
                ctx.touch(remap(event.address), write=True)
            elif event.op == "memset":
                ctx.memset(remap(event.address), event.value)
            elif event.op == "shred":
                address = remap(event.address)
                if ctx.machine.shred_register is not None:
                    ctx.shred(address, event.value)
                else:
                    ctx.memset(address, event.value * ctx.page_size)
            elif event.op == "compute":
                ctx.compute(event.value)
            else:
                raise SimulationError(f"unknown trace op {event.op!r}")
        record.attrs["events"] = count
    return count
