"""Reference oracles for partition refinement and the leaf certificate in
``autkit.search``: the plain versions, kept independent of the fast ones
so that differential tests can catch a bug in either.

``_refine_cells`` rescans every splitter from the first cell after each
split; ``_cert_bytes`` packs the certificate one bit at a time.  Both are
slow, so keep their inputs small.  ``are_isomorphic`` compares two full
canonical forms, where the fast one searches the second graph only for
the first graph's canonical leaf.  ``path_trace`` replays the split
traces of the refinements on one leaf's path with ``_refine_cells``,
where the fast search keeps them as it goes."""

from __future__ import annotations

from typing import Optional

from autkit import Graph, Permutation, canonical_form, edge_count, permute_graph


def _refine_cells(
    g: Graph,
    cells: list[tuple[int, ...]],
    trace: Optional[list[tuple[int, int]]] = None,
) -> list[tuple[int, ...]]:
    """Fixpoint of splitting every cell by neighbour counts into every
    splitter cell.  After a split the fragments keep the relative vertex
    order and are emitted with the larger neighbour count first; any fixed
    rule would do, this one is the deterministic contract.  With ``trace``
    given, each fragment's (neighbour count, end position in the vertex
    order) is appended to it in the order the fragments are made."""
    changed = True
    while changed:
        changed = False
        for splitter in cells:
            smask = 0
            for v in splitter:
                smask |= 1 << v
            new_cells: list[tuple[int, ...]] = []
            split_here = False
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                counts = {v: (g.adj[v] & smask).bit_count() for v in cell}
                distinct = sorted(set(counts.values()), reverse=True)
                if len(distinct) == 1:
                    new_cells.append(cell)
                    continue
                for key in distinct:
                    new_cells.append(tuple(v for v in cell if counts[v] == key))
                    if trace is not None:
                        trace.append((key, sum(map(len, new_cells))))
                split_here = True
            if split_here:
                cells = new_cells
                changed = True
                break
    return cells


def _cert_bytes(g: Graph, order: list[int]) -> bytes:
    """Upper-triangle adjacency bits of the graph relabelled so that
    ``order[i]`` lands at position i, packed row-major, MSB first, zero
    padded to whole bytes."""
    out = bytearray()
    acc = 0
    nbits = 0
    for i in range(g.n):
        row = g.adj[order[i]]
        for j in range(i + 1, g.n):
            acc = (acc << 1) | ((row >> order[j]) & 1)
            nbits += 1
            if nbits == 8:
                out.append(acc)
                acc = 0
                nbits = 0
    if nbits:
        out.append(acc << (8 - nbits))
    return bytes(out)


def are_isomorphic(g1: Graph, g2: Graph) -> Optional[Permutation]:
    """The isomorphism g1 -> g2 that maps g1's canonical labelling onto
    g2's, or None when the canonical certificates differ."""
    if g1.n != g2.n or edge_count(g1) != edge_count(g2):
        return None
    c1 = canonical_form(g1)
    c2 = canonical_form(g2)
    if c1.certificate != c2.certificate:
        return None
    sigma = c1.relabeling * c2.relabeling.inverse()
    assert permute_graph(g1, sigma).adj == g2.adj
    return sigma


def path_trace(g: Graph, order: list[int]) -> list[list[tuple[int, int]]]:
    """Split trace, depth by depth, of the search's path to the leaf whose
    discrete partition is the vertex order ``order``, replayed from the
    root.  A vertex individualized at a cell's start stays there, so the
    path takes ``order[t]`` at each target cell start t.  Each depth
    refines from a partition with every cell a splitter, where the search
    marks only the singleton cell individualization makes; the other
    cells split nothing by the time they would be checked, so the traces
    agree."""
    cells = [tuple(range(g.n))]
    trace: list[list[tuple[int, int]]] = []
    while True:
        trace.append([])
        cells = _refine_cells(g, cells, trace[-1])
        sizes = [len(cell) for cell in cells if len(cell) > 1]
        if not sizes:
            break
        k = next(k for k, cell in enumerate(cells) if len(cell) == min(sizes))
        v = order[sum(map(len, cells[:k]))]
        cells[k:k + 1] = [(v,), tuple(u for u in cells[k] if u != v)]
    assert [v for (v,) in cells] == order, "order is not a leaf of the search tree"
    return trace
