"""Graph generator and the PowerGraph application algorithms."""

from dataclasses import FrozenInstanceError

import pytest

from repro.errors import SimulationError
from repro.sim import System
from repro.workloads import (Graph, kcore_task, pagerank_task, power_law_graph,
                             powergraph_task, simple_coloring_task)
from repro.workloads.graphs import GRAPH_MEMO_SIZE


class TestPowerLawGraph:
    def test_csr_invariants(self):
        graph = power_law_graph(200, 4, seed=1)
        graph.check()

    def test_deterministic_by_seed(self):
        a = power_law_graph(100, 3, seed=9)
        b = power_law_graph(100, 3, seed=9)
        assert a.edges == b.edges and a.offsets == b.offsets

    def test_different_seeds_differ(self):
        a = power_law_graph(100, 3, seed=1)
        b = power_law_graph(100, 3, seed=2)
        assert a.edges != b.edges

    def test_degree_skew(self):
        """Preferential attachment must create hub nodes."""
        graph = power_law_graph(500, 3, seed=7)
        degrees = sorted((graph.degree(n) for n in range(500)), reverse=True)
        mean = sum(degrees) / len(degrees)
        assert degrees[0] > 4 * mean, "expected heavy-tailed degrees"

    def test_undirected_symmetry(self):
        graph = power_law_graph(100, 3, seed=3)
        for node in range(100):
            for neighbor in graph.neighbors(node):
                assert node in graph.neighbors(neighbor)

    def test_too_small(self):
        with pytest.raises(SimulationError):
            power_law_graph(1)

    def test_graph_check_rejects_corruption(self):
        graph = power_law_graph(10, 2, seed=1)
        bad = Graph(num_nodes=10, offsets=graph.offsets,
                    edges=(99,) * len(graph.edges))
        with pytest.raises(SimulationError):
            bad.check()


class TestGraphReuse:
    """A process builds each graph once and shares the frozen instance."""

    def test_equal_arguments_return_the_same_instance(self):
        graph = power_law_graph(80, 3, seed=4)
        assert power_law_graph(80, 3, 4) is graph
        assert power_law_graph(num_nodes=80, edges_per_node=3,
                               seed=4) is graph
        assert power_law_graph(80, 3, seed=5) is not graph

    def test_fields_are_tuples(self):
        graph = power_law_graph(80, 3, seed=4)
        assert isinstance(graph.offsets, tuple)
        assert isinstance(graph.edges, tuple)
        assert isinstance(graph.neighbors(0), tuple)

    def test_fields_cannot_be_assigned(self):
        graph = power_law_graph(80, 3, seed=4)
        for name, value in (("num_nodes", 1), ("offsets", (0,)),
                            ("edges", ())):
            with pytest.raises(FrozenInstanceError):
                setattr(graph, name, value)

    def test_memo_is_bounded(self):
        """Only the last GRAPH_MEMO_SIZE graphs are kept: one asked for
        again after that many others is built anew (and equal)."""
        first = power_law_graph(30, 2, seed=1000)
        for seed in range(1001, 1001 + GRAPH_MEMO_SIZE):
            power_law_graph(30, 2, seed=seed)
        again = power_law_graph(30, 2, seed=1000)
        assert again is not first
        assert again == first


@pytest.fixture
def small_graph():
    return power_law_graph(60, 3, seed=5)


def run_app(tiny_config, task):
    system = System(tiny_config.with_zeroing("shred"), shredder=True)
    system.run([task])
    return system


class TestPageRank:
    def test_ranks_computed_and_positive(self, tiny_config, small_graph):
        task = pagerank_task(small_graph, iterations=2)
        run_app(tiny_config, task)
        ranks = task.result
        assert len(ranks) == small_graph.num_nodes
        assert all(rank > 0 for rank in ranks)

    def test_hub_ranks_higher(self, tiny_config, small_graph):
        task = pagerank_task(small_graph, iterations=3)
        run_app(tiny_config, task)
        ranks = task.result
        hub = max(range(small_graph.num_nodes), key=small_graph.degree)
        leaf = min(range(small_graph.num_nodes), key=small_graph.degree)
        assert ranks[hub] > ranks[leaf]


class TestColoring:
    def test_proper_coloring(self, tiny_config, small_graph):
        task = simple_coloring_task(small_graph)
        run_app(tiny_config, task)      # raises internally if invalid
        colors = task.result
        for node in range(small_graph.num_nodes):
            for neighbor in small_graph.neighbors(node):
                if neighbor != node:
                    assert colors[node] != colors[neighbor]

    def test_color_count_bounded(self, tiny_config, small_graph):
        task = simple_coloring_task(small_graph)
        run_app(tiny_config, task)
        max_degree = max(small_graph.degree(n)
                         for n in range(small_graph.num_nodes))
        assert max(task.result) <= max_degree


class TestKCore:
    def test_kcore_members_have_min_degree(self, tiny_config, small_graph):
        task = kcore_task(small_graph, k=4)
        run_app(tiny_config, task)
        core = set(task.result)
        for node in core:
            internal = sum(1 for n in small_graph.neighbors(node) if n in core)
            assert internal >= 4

    def test_kcore_maximal(self, tiny_config, small_graph):
        """No excluded node could rejoin: its degree into the core is < k."""
        task = kcore_task(small_graph, k=4)
        run_app(tiny_config, task)
        core = set(task.result)
        for node in range(small_graph.num_nodes):
            if node not in core:
                internal = sum(1 for n in small_graph.neighbors(node)
                               if n in core)
                assert internal < 4


class TestFactory:
    def test_powergraph_task_names(self):
        for app in ("PAGERANK", "SIMPLE_COLORING", "KCORE"):
            assert powergraph_task(app, num_nodes=50) is not None

    def test_unknown_app(self):
        with pytest.raises(SimulationError):
            powergraph_task("BFS", num_nodes=50)
