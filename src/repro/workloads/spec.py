"""Parameterised models of the 26 SPEC CPU2006 workloads.

The paper checkpoints each benchmark at the start of its initialization
phase and simulates ~500 M instructions per core. What differentiates
the per-benchmark bars of Figures 8-11 during that window is:

* how many pages the process first-touches (each one costs a kernel
  page zeroing in the baseline — eliminated by Silent Shredder),
* how much of each freshly allocated page the application itself
  writes and rewrites (those writes reach NVM either way and dilute
  the savings),
* how much it *reads* of freshly allocated memory it never wrote
  (those reads hit shredded blocks and are served as zero-fill), and
* how memory-bound the instruction stream is (which scales the IPC
  effect of the memory-side savings).

Each benchmark below is a point in that four-dimensional space, chosen
to land its bar in the band the paper reports (e.g. H264/DealII/Hmmer
write almost nothing themselves during init -> ~90 % write savings;
lbm/milc rewrite their grids -> low savings; bwaves is the most
memory-bound -> the largest IPC gain). Absolute footprints are scaled
to the ``bench_config`` cache sizes; ``scale`` shrinks them further for
tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List

from ..runtime import ExecutionContext
from .powergraph import _yielding


@dataclass(frozen=True)
class SpecParams:
    """Initialization-phase model of one benchmark."""

    name: str
    alloc_pages: int              # pages first-touched during init
    init_writes_per_page: int     # app block-stores per page (>=1; >64 rewrites)
    init_read_fraction: float     # blocks of each page the app reads back
    untouched_read_fraction: float  # reads to blocks it never wrote (zeros)
    steady_ops: int               # accesses after the allocation burst
    steady_write_ratio: float     # stores among steady accesses
    compute_per_op: int           # ALU instructions between memory ops
    seed: int = 1234

    def scaled(self, scale: float) -> "SpecParams":
        """Shrink the workload while keeping its shape."""
        return SpecParams(
            name=self.name,
            alloc_pages=max(4, int(self.alloc_pages * scale)),
            init_writes_per_page=self.init_writes_per_page,
            init_read_fraction=self.init_read_fraction,
            untouched_read_fraction=self.untouched_read_fraction,
            steady_ops=max(64, int(self.steady_ops * scale)),
            steady_write_ratio=self.steady_write_ratio,
            compute_per_op=self.compute_per_op,
            seed=self.seed,
        )


def spec_task(params: SpecParams):
    """Build the generator task for one SPEC model instance."""

    def task(ctx: ExecutionContext) -> Iterator[None]:
        rng = random.Random(params.seed + ctx.core_id * 7919)
        page_size = ctx.page_size
        block_size = ctx.block_size
        blocks_per_page = page_size // block_size
        base = ctx.malloc(params.alloc_pages * page_size)

        written_blocks: List[int] = []
        counter = [0]

        # ---- initialization phase: first-touch and populate pages ----
        for page in range(params.alloc_pages):
            page_base = base + page * page_size
            writes = params.init_writes_per_page
            # Sequential first pass over the page prefix; rewrites wrap
            # around the same prefix (write-heavy kernels revisit data).
            distinct = min(writes, blocks_per_page)
            for i in range(writes):
                addr = page_base + (i % distinct) * block_size
                ctx.touch(addr, write=True)
                ctx.compute(params.compute_per_op)
                if i < distinct:
                    written_blocks.append(addr)
                if _yielding(counter):
                    yield

            # Read-back: mostly of what was written, partly of pristine
            # blocks further into the page (zero-filled under shredding).
            reads = int(params.init_read_fraction * blocks_per_page)
            for i in range(reads):
                if rng.random() < params.untouched_read_fraction:
                    block = rng.randrange(distinct, blocks_per_page) \
                        if distinct < blocks_per_page else rng.randrange(blocks_per_page)
                else:
                    block = rng.randrange(distinct)
                ctx.touch(page_base + block * block_size, write=False)
                ctx.compute(params.compute_per_op)
                if _yielding(counter):
                    yield

        # ---- steady phase: locality-driven access to populated data ----
        if written_blocks:
            for i in range(params.steady_ops):
                addr = written_blocks[rng.randrange(len(written_blocks))]
                is_write = rng.random() < params.steady_write_ratio
                ctx.touch(addr, write=is_write)
                ctx.compute(params.compute_per_op)
                if _yielding(counter):
                    yield
        yield

    return task


def _p(name: str, pages: int, wpp: int, readf: float, untouched: float,
       steady: int, wr: float, cpi: int, seed: int) -> SpecParams:
    return SpecParams(name=name, alloc_pages=pages, init_writes_per_page=wpp,
                      init_read_fraction=readf, untouched_read_fraction=untouched,
                      steady_ops=steady, steady_write_ratio=wr,
                      compute_per_op=cpi, seed=seed)


#: The 26 SPEC CPU2006 workloads of the paper's Figure 8, modelled at
#: initialization. Grouped by the write-savings band their bar sits in.
SPEC_BENCHMARKS: Dict[str, SpecParams] = {
    # --- very high savings: init dominated by kernel zeroing -------------
    "H264":      _p("H264", 96, 4, 0.3, 0.5, 4000, 0.10, 360, 11),
    "DEAL":      _p("DEAL", 112, 4, 0.4, 0.5, 3500, 0.08, 320, 12),
    "HMMER":     _p("HMMER", 96, 5, 0.3, 0.4, 4000, 0.10, 340, 13),
    "GAMESS":    _p("GAMESS", 80, 6, 0.3, 0.4, 4500, 0.10, 400, 14),
    "POVRAY":    _p("POVRAY", 72, 6, 0.4, 0.5, 4000, 0.12, 380, 15),
    "NAMD":      _p("NAMD", 88, 8, 0.4, 0.4, 4000, 0.12, 340, 16),
    "SJENG":     _p("SJENG", 96, 8, 0.3, 0.4, 4500, 0.15, 300, 17),
    "GO":        _p("GO", 96, 8, 0.4, 0.4, 4500, 0.15, 300, 18),
    "GROMACS":   _p("GROMACS", 80, 10, 0.4, 0.4, 4000, 0.12, 340, 19),
    "PERL":      _p("PERL", 96, 10, 0.5, 0.4, 4000, 0.15, 280, 20),
    # --- medium savings: app writes a fair share of its pages ------------
    "GCC":       _p("GCC", 128, 48, 0.5, 0.3, 9000, 0.30, 180, 21),
    "XALAN":     _p("XALAN", 128, 56, 0.5, 0.3, 9000, 0.30, 160, 22),
    "ASTAR":     _p("ASTAR", 96, 56, 0.5, 0.3, 9000, 0.25, 180, 23),
    "BZIP":      _p("BZIP", 112, 64, 0.4, 0.3, 10000, 0.35, 160, 24),
    "OMNETPP":   _p("OMNETPP", 112, 60, 0.6, 0.3, 10000, 0.30, 150, 25),
    "SPHINIX":   _p("SPHINIX", 96, 56, 0.6, 0.3, 9000, 0.25, 180, 26),
    "ZEUS":      _p("ZEUS", 144, 72, 0.5, 0.3, 10000, 0.35, 130, 27),
    "LESLIE3D":  _p("LESLIE3D", 144, 80, 0.5, 0.3, 10000, 0.35, 130, 28),
    "CACTUS":    _p("CACTUS", 128, 64, 0.5, 0.3, 9000, 0.30, 150, 29),
    "GEMS":      _p("GEMS", 160, 80, 0.6, 0.3, 11000, 0.35, 130, 30),
    "BWAVES":    _p("BWAVES", 192, 36, 0.8, 0.5, 11000, 0.25, 40, 31),
    # --- low savings: write-intensive kernels rewrite their data ---------
    "MCF":       _p("MCF", 160, 128, 0.6, 0.2, 12000, 0.45, 70, 32),
    "SOPLEX":    _p("SOPLEX", 144, 144, 0.5, 0.2, 12000, 0.45, 90, 33),
    "LIBQUANTUM": _p("LIBQUANTUM", 160, 176, 0.5, 0.2, 13000, 0.50, 70, 34),
    "MILC":      _p("MILC", 176, 208, 0.5, 0.2, 13000, 0.55, 60, 35),
    "LBM":       _p("LBM", 192, 240, 0.4, 0.2, 13000, 0.60, 50, 36),
}
