"""Synthetic power-law graph generator.

The paper's PowerGraph runs use the Netflix and Twitter datasets; both
have heavy-tailed degree distributions. A Barabási–Albert-style
preferential-attachment process reproduces that skew, which is the
property that shapes the memory access stream of graph analytics
(a few hub vertices touched constantly, a long tail touched once).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from ..errors import SimulationError

#: how many generated graphs :func:`power_law_graph` keeps per process
GRAPH_MEMO_SIZE = 8


@dataclass(frozen=True)
class Graph:
    """Immutable CSR-style graph: offsets + flattened adjacency.

    Frozen, with tuple fields: :func:`power_law_graph` hands the same
    instance to every caller that asks for the same graph.
    """

    num_nodes: int
    offsets: Tuple[int, ...]      # length num_nodes + 1
    edges: Tuple[int, ...]        # length offsets[-1]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, node: int) -> Tuple[int, ...]:
        return self.edges[self.offsets[node]:self.offsets[node + 1]]

    def degree(self, node: int) -> int:
        return self.offsets[node + 1] - self.offsets[node]

    def check(self) -> None:
        """Validate CSR invariants (used by property tests)."""
        if len(self.offsets) != self.num_nodes + 1:
            raise SimulationError("offsets length mismatch")
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.edges):
            raise SimulationError("offset endpoints invalid")
        for i in range(self.num_nodes):
            if self.offsets[i] > self.offsets[i + 1]:
                raise SimulationError("offsets not monotone")
        for target in self.edges:
            if target < 0 or target >= self.num_nodes:
                raise SimulationError("edge target out of range")


def power_law_graph(num_nodes: int, edges_per_node: int = 4,
                    seed: int = 42) -> Graph:
    """Barabási–Albert preferential attachment, undirected, as CSR.

    Every new node attaches to ``edges_per_node`` existing nodes with
    probability proportional to current degree, yielding the power-law
    degree skew of social/rating graphs.

    The graph is a function of the three arguments, so a process builds
    each one once: the last :data:`GRAPH_MEMO_SIZE` graphs are kept and
    shared (a :class:`Graph` cannot be changed).
    """
    return _memo_power_law_graph(num_nodes, edges_per_node, seed)


@lru_cache(maxsize=GRAPH_MEMO_SIZE)
def _memo_power_law_graph(num_nodes: int, edges_per_node: int,
                          seed: int) -> Graph:
    if num_nodes < 2:
        raise SimulationError("graph needs at least two nodes")
    edges_per_node = max(1, min(edges_per_node, num_nodes - 1))
    rng = random.Random(seed)

    adjacency: List[List[int]] = [[] for _ in range(num_nodes)]
    # Repeated-endpoints list implements preferential attachment in O(1).
    endpoint_pool: List[int] = [0]
    adjacency[0] = []
    for node in range(1, num_nodes):
        attach = min(edges_per_node, node)
        chosen = set()
        while len(chosen) < attach:
            candidate = endpoint_pool[rng.randrange(len(endpoint_pool))] \
                if rng.random() < 0.8 else rng.randrange(node)
            if candidate != node:
                chosen.add(candidate)
        for target in chosen:
            adjacency[node].append(target)
            adjacency[target].append(node)
            endpoint_pool.append(target)
        endpoint_pool.append(node)

    offsets = [0]
    edges: List[int] = []
    for node in range(num_nodes):
        edges.extend(sorted(adjacency[node]))
        offsets.append(len(edges))
    graph = Graph(num_nodes=num_nodes, offsets=tuple(offsets),
                  edges=tuple(edges))
    graph.check()
    return graph
