"""Bipartite maximum matching (Hopcroft–Karp).

The preemptive-schedule reconstruction of Section 4.4 repeatedly extracts a
perfect matching from the support of a non-negative matrix whose row and
column sums are all equal (a generalised Birkhoff–von Neumann decomposition,
following Lawler & Labetoulle and Gonzalez & Sahni).  This module provides
the matching primitive.

The implementation is a from-scratch Hopcroft–Karp: BFS builds layered
distances from free left vertices, DFS finds a maximal set of vertex-disjoint
shortest augmenting paths, and the two phases repeat until no augmenting path
exists.  Complexity ``O(E sqrt(V))``.

``networkx`` is deliberately *not* used here (it serves as an independent
oracle in the tests).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, Mapping, Optional, Set

__all__ = ["hopcroft_karp", "is_perfect_matching"]

_INFINITY = float("inf")


def hopcroft_karp(adjacency: Mapping[Hashable, Iterable[Hashable]]) -> Dict[Hashable, Hashable]:
    """Compute a maximum matching of a bipartite graph.

    Parameters
    ----------
    adjacency:
        Mapping from each *left* vertex to the iterable of *right* vertices it
        is connected to.  Left and right vertex labels live in separate
        namespaces (a label may appear on both sides without creating an
        edge between its two occurrences).

    Returns
    -------
    dict
        Mapping from matched left vertices to their right partner.  Unmatched
        left vertices are absent from the dictionary.
    """
    # Normalise adjacency to lists for repeatable iteration order.
    graph: Dict[Hashable, list] = {u: list(neighbours) for u, neighbours in adjacency.items()}

    match_left: Dict[Hashable, Optional[Hashable]] = {u: None for u in graph}
    match_right: Dict[Hashable, Optional[Hashable]] = {}
    for neighbours in graph.values():
        for v in neighbours:
            match_right.setdefault(v, None)

    distance: Dict[Hashable, float] = {}

    def bfs() -> bool:
        """Layered BFS from free left vertices; returns True when an augmenting path exists."""
        queue = deque()
        for u in graph:
            if match_left[u] is None:
                distance[u] = 0.0
                queue.append(u)
            else:
                distance[u] = _INFINITY
        found_free_right = False
        while queue:
            u = queue.popleft()
            for v in graph[u]:
                partner = match_right[v]
                if partner is None:
                    found_free_right = True
                elif distance[partner] == _INFINITY:
                    distance[partner] = distance[u] + 1.0
                    queue.append(partner)
        return found_free_right

    def dfs(u: Hashable) -> bool:
        """Try to extend an augmenting path from left vertex ``u``."""
        for v in graph[u]:
            partner = match_right[v]
            if partner is None or (distance[partner] == distance[u] + 1.0 and dfs(partner)):
                match_left[u] = v
                match_right[v] = u
                return True
        distance[u] = _INFINITY
        return False

    while bfs():
        for u in graph:
            if match_left[u] is None:
                dfs(u)

    return {u: v for u, v in match_left.items() if v is not None}


def is_perfect_matching(
    adjacency: Mapping[Hashable, Iterable[Hashable]], matching: Mapping[Hashable, Hashable]
) -> bool:
    """Return ``True`` when ``matching`` saturates every left vertex of ``adjacency``.

    Also checks that the matching only uses edges present in the graph and
    never reuses a right vertex.
    """
    used_right: Set[Hashable] = set()
    for u in adjacency:
        v = matching.get(u)
        if v is None:
            return False
        if v in used_right:
            return False
        if v not in set(adjacency[u]):
            return False
        used_right.add(v)
    return True
