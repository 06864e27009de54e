"""Undirected simple graphs with bitset adjacency, subset-model constructors,
classical invariants, and graph6/DOT I/O."""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .perms import Permutation

__all__ = [
    "Graph",
    "Graph6Error",
    "subsets",
    "johnson_general",
    "kneser",
    "petersen_subsets",
    "petersen_classic",
    "edge_count",
    "is_regular",
    "girth",
    "diameter",
    "is_connected",
    "permute_graph",
    "is_automorphism",
    "graph6_encode",
    "graph6_decode",
    "to_dot",
    "petersen_layout",
]


class Graph6Error(ValueError):
    """Malformed graph6 text."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; ``adj[v]`` is the neighbour bitset of v."""

    n: int
    adj: tuple[int, ...]
    labels: Optional[tuple[str, ...]] = None
    #: each row's set bits in increasing order, kept by the constructor's walk
    _neighbors: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        adj = tuple(self.adj)
        object.__setattr__(self, "adj", adj)
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        # one walk over each row's set bits; an asymmetric pair has one bit
        # set, so it is recorded once, and the least is the first pair in
        # row-major order.  Rows share one int per vertex past the small-int
        # cache, so a dense graph's lists cost a pointer per neighbour.
        vertices = list(range(self.n))
        rows = []
        asymmetric = []
        for u, bits in enumerate(adj):
            if bits < 0:
                raise ValueError(f"adjacency of vertex {u} is negative")
            if bits >> self.n:
                raise ValueError(f"adjacency of vertex {u} mentions vertices >= {self.n}")
            mask = 1 << u
            if bits & mask:
                raise ValueError(f"loop at vertex {u}")
            row = []
            while bits:
                low = bits & -bits
                v = vertices[low.bit_length() - 1]
                row.append(v)
                if not adj[v] & mask:
                    asymmetric.append((min(u, v), max(u, v)))
                bits ^= low
            rows.append(tuple(row))
        if asymmetric:
            raise ValueError("adjacency not symmetric at ({}, {})".format(*min(asymmetric)))
        object.__setattr__(self, "_neighbors", tuple(rows))
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise ValueError("label count does not match vertex count")
            if len(set(self.labels)) != self.n:
                raise ValueError("labels must be pairwise distinct")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Optional[Sequence[str]] = None,
    ) -> Graph:
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj), tuple(labels) if labels is not None else None)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._neighbors[v]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.neighbors(u) if u < v]


def edge_count(g: Graph) -> int:
    return sum(bits.bit_count() for bits in g.adj) // 2


def is_regular(g: Graph) -> Optional[int]:
    """The common vertex degree, or None if degrees differ (or n = 0)."""
    degrees = {bits.bit_count() for bits in g.adj}
    if len(degrees) == 1:
        return degrees.pop()
    return None


def _bfs_distances(g: Graph, start: int, avoid: Optional[int] = None) -> dict[int, int]:
    """Distances from start, never stepping from start to ``avoid``."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
            if y not in dist and (x != start or y != avoid):
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def girth(g: Graph) -> Optional[int]:
    """Length of a shortest cycle, or None for acyclic graphs.

    Exact by construction: the shortest cycle through an edge {u, v} is
    that edge plus a shortest u-v path avoiding it.  A search from u can
    use the edge only as the step from u to v: a step from v into u finds
    u already visited.
    """
    paths = (_bfs_distances(g, u, avoid=v).get(v) for u, v in g.edges())
    return min((d + 1 for d in paths if d is not None), default=None)


def diameter(g: Graph) -> Optional[int]:
    """Maximum eccentricity, or None if the graph is disconnected or empty."""
    if g.n == 0:
        return None
    worst = 0
    for s in range(g.n):
        dist = _bfs_distances(g, s)
        if len(dist) < g.n:
            return None
        worst = max(worst, max(dist.values()))
    return worst


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return len(_bfs_distances(g, 0)) == g.n


def _relabeled_adj(g: Graph, sigma: Permutation) -> tuple[int, ...]:
    """Adjacency of g relabelled by sigma: row sigma(u) holds the images
    of u's neighbours."""
    if sigma.degree != g.n:
        raise ValueError(f"degree mismatch: permutation {sigma.degree} vs graph {g.n}")
    images = sigma.images
    image_bits = [1 << t for t in images]
    adj = [0] * g.n
    for t, neighbors in zip(images, g._neighbors):
        row = 0
        for v in neighbors:
            row |= image_bits[v]
        adj[t] = row
    return tuple(adj)


def permute_graph(g: Graph, sigma: Permutation) -> Graph:
    """Relabel g by sigma: {u, v} is an edge iff {sigma(u), sigma(v)} is."""
    adj = _relabeled_adj(g, sigma)
    labels = None
    if g.labels is not None:
        relocated = [""] * g.n
        for target, label in zip(sigma.images, g.labels):
            relocated[target] = label
        labels = tuple(relocated)
    return Graph(g.n, adj, labels)


def is_automorphism(g: Graph, sigma: Permutation) -> bool:
    return _relabeled_adj(g, sigma) == g.adj


def subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of {1..n} in lexicographic order, each the tuple of
    its members in increasing order; index = vertex id."""
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if n < 1:
        raise ValueError("ground set size must be positive")
    return list(itertools.combinations(range(1, n + 1), k))


def _subset_graph(n: int, k: int, wanted_intersection: int) -> Graph:
    """k-subsets of {1..n}, adjacent iff they share exactly
    ``wanted_intersection`` members.  Each subset's neighbours are listed
    directly: keep that many of its members and add the rest from its
    complement, looked up by bitmask."""
    verts = subsets(n, k)
    bits = [1 << m for m in range(n + 1)]
    masks = [sum(bits[m] for m in s) for s in verts]
    index = {mask: v for v, mask in enumerate(masks)}
    adj = []
    for s, mask in zip(verts, masks):
        row = 0
        # a subset that keeps all k members is the vertex itself
        if wanted_intersection < k:
            rest = [bit for bit in bits[1:] if not mask & bit]
            added = [sum(c) for c in itertools.combinations(rest, k - wanted_intersection)]
            for kept in itertools.combinations([bits[m] for m in s], wanted_intersection):
                kept_mask = sum(kept)
                for extra in added:
                    row |= 1 << index[kept_mask | extra]
        adj.append(row)
    return Graph(len(verts), tuple(adj), tuple("{" + ",".join(map(str, s)) + "}" for s in verts))


def johnson_general(n: int, k: int, t: int) -> Graph:
    """k-subsets of {1..n}, adjacent iff the intersection has size exactly t."""
    if not 0 <= t < k <= n:
        raise ValueError(f"need 0 <= t < k <= n, got n={n}, k={k}, t={t}")
    return _subset_graph(n, k, t)


def kneser(n: int, k: int) -> Graph:
    """k-subsets of {1..n}, adjacent iff disjoint (edgeless when 2k > n)."""
    return _subset_graph(n, k, 0)


def petersen_subsets() -> Graph:
    """The Petersen graph on the 3-subsets of {1..5}, adjacent iff the
    subsets share exactly one element."""
    return johnson_general(5, 3, 1)


def petersen_classic() -> Graph:
    """The Petersen graph in the standard pentagon-plus-pentagram drawing:
    outer cycle 0..4, inner step-2 cycle on 5..9, spokes i -- i+5."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


#: the six data bits of each graph6 character, most significant first,
#: and the character of each six bits
_GRAPH6_BITS = {chr(63 + val): f"{val:06b}" for val in range(64)}
_GRAPH6_CHARS = {bits: ch for ch, bits in _GRAPH6_BITS.items()}
#: the short form's largest vertex count, and the refusal of a larger one
_GRAPH6_MAX_VERTICES = 62
_GRAPH6_TOO_LARGE = f"graph6 short form supports at most {_GRAPH6_MAX_VERTICES} vertices"


def graph6_encode(g: Graph) -> str:
    """Standard graph6 (short form, n <= 62), in the decoder's layout:
    column j is the low j bits of row j, reversed to read (0, j) first."""
    if g.n > _GRAPH6_MAX_VERTICES:
        raise ValueError(_GRAPH6_TOO_LARGE)
    bits = "".join([f"{g.adj[j] & ((1 << j) - 1):0{j}b}"[::-1] for j in range(1, g.n)])
    bits += "0" * (-len(bits) % 6)
    return chr(g.n + 63) + "".join([_GRAPH6_CHARS[bits[i:i + 6]] for i in range(0, len(bits), 6)])


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
        raise Graph6Error(f"long-form graph6 (n > {_GRAPH6_MAX_VERTICES}) is not supported")
    if not 63 <= first <= 63 + _GRAPH6_MAX_VERTICES:
        raise Graph6Error(f"invalid vertex-count character {s[0]!r}")
    n = first - 63
    nbits = n * (n - 1) // 2
    body = s[1:]
    if len(body) != math.ceil(nbits / 6):
        raise Graph6Error(f"expected {math.ceil(nbits / 6)} data characters, got {len(body)}")
    try:
        bits = "".join([_GRAPH6_BITS[ch] for ch in body])
    except KeyError as exc:
        raise Graph6Error(f"out-of-range character {exc.args[0]!r}") from None
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits")
    # column j lists bits (0, j) .. (j - 1, j); reversed, it reads as row j
    # of the lower triangle, whose set bits are mirrored into earlier rows
    adj = [0] * n
    pos = 0
    for j in range(1, n):
        column = adj[j] = int(bits[pos:pos + j][::-1], 2)
        pos += j
        bit = 1 << j
        while column:
            low = column & -column
            adj[low.bit_length() - 1] |= bit
            column ^= low
    return Graph(n, tuple(adj))


def petersen_layout() -> dict[int, tuple[float, float]]:
    """Pentagon-plus-pentagram coordinates: vertices 0..4 on an outer
    pentagon of radius 2, vertices 5..9 on an inner ring of radius 1,
    vertex 0 at angle 90 degrees, proceeding counterclockwise."""
    layout = {}
    for k in range(5):
        theta = math.radians(90 + 72 * k)
        layout[k] = (2 * math.cos(theta), 2 * math.sin(theta))
        layout[5 + k] = (math.cos(theta), math.sin(theta))
    return layout


def _fmt_coord(x: float) -> str:
    return f"{round(x, 4) + 0.0:.4f}"


def _dot_lines(g: Graph, layout: Optional[Mapping[int, tuple[float, float]]] = None) -> Iterator[str]:
    """The lines of ``to_dot``'s text, each with its newline, made one at a
    time, so that a large graph can be written without its whole text."""
    yield "graph {\n"
    for v in range(g.n):
        attrs = []
        if g.labels is not None:
            label = g.labels[v].replace("\\", "\\\\").replace('"', '\\"')
            attrs.append(f'label="{label}"')
        if layout is not None:
            x, y = layout[v]
            attrs.append(f'pos="{_fmt_coord(x)},{_fmt_coord(y)}!"')
        if attrs:
            yield f"  {v} [{', '.join(attrs)}];\n"
        else:
            yield f"  {v};\n"
    # the order of g.edges(), without its list
    for u in range(g.n):
        for v in g.neighbors(u):
            if u < v:
                yield f"  {u} -- {v};\n"
    yield "}\n"


def to_dot(g: Graph, layout: Optional[Mapping[int, tuple[float, float]]] = None) -> str:
    """Render as undirected DOT; positions are pinned via ``pos="x,y!"``
    when a layout is given."""
    return "".join(_dot_lines(g, layout))
