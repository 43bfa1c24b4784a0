"""Unit tests for the Hopcroft-Karp matching, cross-checked against networkx."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core.matching import hopcroft_karp, is_perfect_matching


def _networkx_matching_size(adjacency) -> int:
    graph = nx.Graph()
    left = [("L", u) for u in adjacency]
    graph.add_nodes_from(left, bipartite=0)
    for u, neighbours in adjacency.items():
        for v in neighbours:
            graph.add_node(("R", v), bipartite=1)
            graph.add_edge(("L", u), ("R", v))
    matching = nx.bipartite.maximum_matching(graph, top_nodes=left)
    return sum(1 for node in matching if node[0] == "L")


class TestSmallGraphs:
    def test_perfect_matching_on_complete_graph(self):
        adjacency = {0: [0, 1, 2], 1: [0, 1, 2], 2: [0, 1, 2]}
        matching = hopcroft_karp(adjacency)
        assert is_perfect_matching(adjacency, matching)

    def test_unique_perfect_matching(self):
        adjacency = {0: [0], 1: [0, 1], 2: [1, 2]}
        matching = hopcroft_karp(adjacency)
        assert matching == {0: 0, 1: 1, 2: 2}

    def test_no_edges(self):
        assert hopcroft_karp({0: [], 1: []}) == {}

    def test_partial_matching_when_right_side_too_small(self):
        adjacency = {0: ["r"], 1: ["r"], 2: ["r"]}
        matching = hopcroft_karp(adjacency)
        assert len(matching) == 1
        assert not is_perfect_matching(adjacency, matching)

    def test_right_vertices_never_reused(self):
        adjacency = {0: ["a", "b"], 1: ["a"], 2: ["b"]}
        matching = hopcroft_karp(adjacency)
        assert len(set(matching.values())) == len(matching)

    def test_string_labels(self):
        adjacency = {"alpha": ["x", "y"], "beta": ["y"]}
        matching = hopcroft_karp(adjacency)
        assert is_perfect_matching(adjacency, matching)

    def test_is_perfect_matching_rejects_foreign_edges(self):
        adjacency = {0: ["a"], 1: ["b"]}
        assert not is_perfect_matching(adjacency, {0: "b", 1: "a"})


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(10))
    def test_matching_size_matches_networkx(self, seed):
        rng = np.random.default_rng(seed)
        num_left = int(rng.integers(1, 9))
        num_right = int(rng.integers(1, 9))
        density = rng.uniform(0.1, 0.8)
        adjacency = {
            u: [v for v in range(num_right) if rng.random() < density] for u in range(num_left)
        }
        ours = hopcroft_karp(adjacency)
        # Our implementation must return a valid matching of maximum size.
        assert len(set(ours.values())) == len(ours)
        for u, v in ours.items():
            assert v in adjacency[u]
        assert len(ours) == _networkx_matching_size(adjacency)
