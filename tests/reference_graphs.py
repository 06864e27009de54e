"""Reference oracles for ``autkit.graphs``: the pairwise versions of the
symmetry check, the neighbour lists and the subset-graph construction,
girth with each edge deleted in turn, the bit-at-a-time graph6 decoder,
and DOT text built whole from a list of every pair's edge, kept
independent of the set-bit, string-slicing and line-at-a-time ones so
that differential tests can catch a bug in either.  Also the graphs of
seeded Latin squares, which ``autkit`` does not build.

All visit every pair of vertices, so keep their inputs small."""

from __future__ import annotations

import itertools
import math
import random
from typing import Mapping, Optional

from autkit import Graph, Graph6Error


def asymmetric_pair(adj: tuple[int, ...]) -> Optional[tuple[int, int]]:
    """The first pair (u, v), u < v, in row-major order whose two
    adjacency bits differ, or None if the adjacency is symmetric."""
    n = len(adj)
    for u in range(n):
        for v in range(u + 1, n):
            if ((adj[u] >> v) & 1) != ((adj[v] >> u) & 1):
                return u, v
    return None


def neighbors(adj: tuple[int, ...], v: int) -> tuple[int, ...]:
    """The vertices whose bit is set in row v, testing every vertex."""
    return tuple(u for u in range(len(adj)) if (adj[v] >> u) & 1)


def girth(g: Graph) -> Optional[int]:
    """Length of a shortest cycle, or None: for each edge {u, v}, one
    more than the u-v distance in the graph with that edge deleted."""
    best = None
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if (g.adj[u] >> v) & 1]
    for u, v in edges:
        adj = list(g.adj)
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        seen = {u}
        frontier = {u}
        steps = 0
        while frontier and v not in seen:
            frontier = {y for x in frontier for y in range(g.n) if (adj[x] >> y) & 1} - seen
            seen |= frontier
            steps += 1
        if v in seen and (best is None or steps + 1 < best):
            best = steps + 1
    return best


def subset_graph(n: int, k: int, wanted_intersection: int) -> Graph:
    """k-subsets of {1..n}, adjacent iff they share exactly
    ``wanted_intersection`` members, by intersecting every pair."""
    verts = list(itertools.combinations(range(1, n + 1), k))
    sets = [frozenset(s) for s in verts]
    edges = [
        (i, j)
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
        if len(sets[i] & sets[j]) == wanted_intersection
    ]
    return Graph.from_edges(len(verts), edges, labels=["{%s}" % ",".join(str(m) for m in s) for s in verts])


def graph6_decode(text: str) -> Graph:
    """Decode short-form graph6; raises Graph6Error on malformed input."""
    s = text.strip()
    if not s:
        raise Graph6Error("empty graph6 text")
    if s.startswith(">>graph6<<"):
        raise Graph6Error("the optional '>>graph6<<' header is not supported; remove it")
    lines = len(s.splitlines())
    if lines > 1:
        raise Graph6Error(f"expected one graph6 line, got {lines}; give one graph per input")
    first = ord(s[0])
    if first == 126:
        raise Graph6Error("long-form graph6 (n > 62) is not supported")
    if not 63 <= first <= 125:
        raise Graph6Error(f"invalid vertex-count character {s[0]!r}")
    n = first - 63
    nbits = n * (n - 1) // 2
    body = s[1:]
    if len(body) != math.ceil(nbits / 6):
        raise Graph6Error(f"expected {math.ceil(nbits / 6)} data characters, got {len(body)}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"out-of-range character {ch!r}")
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits")
    adj = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            pos += 1
    return Graph(n, tuple(adj))


def to_dot(g: Graph, layout: Optional[Mapping[int, tuple[float, float]]] = None) -> str:
    """Undirected DOT: a line per vertex with its escaped label and its
    position to four decimals, then a line per edge in row-major order,
    found by testing every pair."""
    lines = ["graph {"]
    for v in range(g.n):
        attrs = []
        if g.labels is not None:
            escaped = "".join("\\" + c if c in '"\\' else c for c in g.labels[v])
            attrs.append(f'label="{escaped}"')
        if layout is not None:
            # rounded first, and with 0.0 added, so that -0.0 prints as 0
            x, y = (f"{round(c, 4) + 0.0:.4f}" for c in layout[v])
            attrs.append(f'pos="{x},{y}!"')
        lines.append(f"  {v} [{', '.join(attrs)}];" if attrs else f"  {v};")
    lines += [f"  {u} -- {v};" for u in range(g.n) for v in range(u + 1, g.n) if (g.adj[u] >> v) & 1]
    lines.append("}")
    return "\n".join(lines) + "\n"


def latin_square(m: int, seed: int) -> list[list[int]]:
    """An order-m Latin square on the symbols 0..m-1, filled cell by cell
    in row-major order by backtracking; each cell tries the symbols in an
    order shuffled by ``random.Random(seed)``."""
    rng = random.Random(seed)
    square = [[-1] * m for _ in range(m)]

    def fill(k: int) -> bool:
        if k == m * m:
            return True
        r, c = divmod(k, m)
        symbols = list(range(m))
        rng.shuffle(symbols)
        for s in symbols:
            if s not in square[r][:c] and all(square[i][c] != s for i in range(r)):
                square[r][c] = s
                if fill(k + 1):
                    return True
        square[r][c] = -1
        return False

    assert fill(0)
    return square


def latin_square_graph(square: list[list[int]]) -> Graph:
    """The graph on the cells of a Latin square, cell (r, c) being vertex
    r * m + c, in which two cells are adjacent when they share a row, a
    column or a symbol."""
    m = len(square)
    cells = [(r, c, square[r][c]) for r in range(m) for c in range(m)]
    edges = [
        (i, j)
        for i in range(m * m)
        for j in range(i + 1, m * m)
        if any(a == b for a, b in zip(cells[i], cells[j]))
    ]
    return Graph.from_edges(m * m, edges)
