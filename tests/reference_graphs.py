"""Reference oracles for ``autkit.graphs``: the pairwise versions of the
symmetry check and of the subset-graph construction, kept independent of
the set-bit ones so that differential tests can catch a bug in either.

Both visit every pair of vertices, so keep their inputs small."""

from __future__ import annotations

from typing import Optional

from autkit import Graph, subsets


def asymmetric_pair(adj: tuple[int, ...]) -> Optional[tuple[int, int]]:
    """The first pair (u, v), u < v, in row-major order whose two
    adjacency bits differ, or None if the adjacency is symmetric."""
    n = len(adj)
    for u in range(n):
        for v in range(u + 1, n):
            if ((adj[u] >> v) & 1) != ((adj[v] >> u) & 1):
                return u, v
    return None


def subset_graph(n: int, k: int, wanted_intersection: int) -> Graph:
    """k-subsets of {1..n}, adjacent iff they share exactly
    ``wanted_intersection`` members, by intersecting every pair."""
    verts = subsets(n, k)
    sets = [frozenset(s.members) for s in verts]
    edges = [
        (i, j)
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
        if len(sets[i] & sets[j]) == wanted_intersection
    ]
    return Graph.from_edges(len(verts), edges, labels=[s.label() for s in verts])
