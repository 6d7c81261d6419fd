"""PowerGraph-style graph analytics over simulated memory.

The three applications of the paper's evaluation — PageRank, simple
(greedy) colouring and k-core decomposition — run for real over a CSR
graph whose arrays live in simulated virtual memory. The measured
window matches the paper's checkpoint: the **graph construction
phase** (allocating and writing the CSR arrays: a write-once pass over
freshly allocated pages, where kernel shredding dominates baseline
writes) plus the first sweeps of the algorithm.

Ranks are kept in fixed-point (Q32.32) because the simulated arrays
hold 64-bit integers.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List

from ..errors import SimulationError
from ..runtime import ExecutionContext, SimArray
from .graphs import Graph, power_law_graph

FIXED_ONE = 1 << 32           # Q32.32 fixed-point 1.0
#: accesses between two yields of a task to the scheduler
YIELD_EVERY = 256


def _build_csr(ctx: ExecutionContext, graph: Graph):
    """Graph construction: allocate and populate the CSR arrays."""
    offsets = SimArray(ctx, graph.num_nodes + 1, name="offsets")
    edges = SimArray(ctx, max(1, graph.num_edges), name="edges")
    offsets.load_from(graph.offsets)
    edges.load_from(graph.edges)
    return offsets, edges


def _yielding(counter: List[int]) -> bool:
    """Count one access; true every ``YIELD_EVERY``-th, when the task
    yields to the scheduler."""
    counter[0] += 1
    if counter[0] >= YIELD_EVERY:
        counter[0] = 0
        return True
    return False


def pagerank_task(graph: Graph, iterations: int = 3, damping: float = 0.85):
    """PageRank with the construction phase included in the window."""

    damping_fx = int(damping * FIXED_ONE)
    base_fx = FIXED_ONE - damping_fx

    def task(ctx: ExecutionContext) -> Iterator[None]:
        counter = [0]
        graph_offsets = graph.offsets
        offsets, edges = _build_csr(ctx, graph)
        yield
        ranks = SimArray(ctx, graph.num_nodes, name="ranks")
        next_ranks = SimArray(ctx, graph.num_nodes, name="next_ranks")
        for node in range(graph.num_nodes):
            ranks[node] = FIXED_ONE
            if _yielding(counter):
                yield
        for _ in range(iterations):
            for node in range(graph.num_nodes):
                start = offsets[node]
                end = offsets[node + 1]
                acc = 0
                for position in range(start, end):
                    neighbor = edges[position]
                    degree = (graph_offsets[neighbor + 1]
                              - graph_offsets[neighbor])
                    contribution = ranks[neighbor] // max(degree, 1)
                    acc += contribution
                    ctx.compute(30)
                    if _yielding(counter):
                        yield
                next_ranks[node] = base_fx + (damping_fx * acc >> 32)
                ctx.compute(40)
            ranks, next_ranks = next_ranks, ranks
        task.result = [ranks.shadow()[i] / FIXED_ONE
                       for i in range(graph.num_nodes)]
        yield

    return task


def simple_coloring_task(graph: Graph):
    """Greedy colouring: each node takes the smallest colour absent
    among its already-coloured neighbours."""

    def task(ctx: ExecutionContext) -> Iterator[None]:
        counter = [0]
        offsets, edges = _build_csr(ctx, graph)
        yield
        colors = SimArray(ctx, graph.num_nodes, name="colors")
        NO_COLOR = (1 << 64) - 1
        for node in range(graph.num_nodes):
            colors[node] = NO_COLOR
            if _yielding(counter):
                yield
        for node in range(graph.num_nodes):
            start = offsets[node]
            end = offsets[node + 1]
            taken = set()
            for position in range(start, end):
                neighbor = edges[position]
                neighbor_color = colors[neighbor]
                if neighbor_color != NO_COLOR:
                    taken.add(neighbor_color)
                ctx.compute(35)
                if _yielding(counter):
                    yield
            color = 0
            while color in taken:
                color += 1
            colors[node] = color
            ctx.compute(80 + 3 * len(taken))
        shadow = colors.shadow()
        for node in range(graph.num_nodes):
            for neighbor in graph.neighbors(node):
                if neighbor != node and shadow[node] == shadow[neighbor]:
                    raise SimulationError("colouring invariant violated")
        task.result = list(shadow)
        yield

    return task


def kcore_task(graph: Graph, k: int = 7):
    """k-core decomposition by iterative peeling of low-degree nodes."""

    def task(ctx: ExecutionContext) -> Iterator[None]:
        counter = [0]
        offsets, edges = _build_csr(ctx, graph)
        yield
        degrees = SimArray(ctx, graph.num_nodes, name="degrees")
        alive = SimArray(ctx, graph.num_nodes, name="alive")
        for node in range(graph.num_nodes):
            degrees[node] = graph.degree(node)
            alive[node] = 1
            if _yielding(counter):
                yield
        changed = True
        while changed:
            changed = False
            for node in range(graph.num_nodes):
                if alive[node] and degrees[node] < k:
                    alive[node] = 0
                    changed = True
                    start = offsets[node]
                    end = offsets[node + 1]
                    for position in range(start, end):
                        neighbor = edges[position]
                        if alive[neighbor]:
                            degrees[neighbor] = degrees[neighbor] - 1
                        ctx.compute(25)
                        if _yielding(counter):
                            yield
                ctx.compute(10)
        task.result = [node for node in range(graph.num_nodes)
                       if alive.shadow()[node]]
        yield

    return task


#: Application registry keyed by the names used in Figures 5 and 8-11.
POWERGRAPH_APPS: Dict[str, Callable] = {
    "PAGERANK": pagerank_task,
    "SIMPLE_COLORING": simple_coloring_task,
    "KCORE": kcore_task,
}


def powergraph_task(app: str, num_nodes: int = 2500, edges_per_node: int = 5,
                    seed: int = 42):
    """Convenience: build a power-law graph and the named application."""
    if app not in POWERGRAPH_APPS:
        raise SimulationError(f"unknown PowerGraph app {app!r}; "
                              f"choose from {sorted(POWERGRAPH_APPS)}")
    graph = power_law_graph(num_nodes, edges_per_node, seed)
    return POWERGRAPH_APPS[app](graph)
