"""Automorphism groups, canonical forms, and isomorphism testing for small
graphs via equitable partition refinement with individualization
backtracking, plus an exhaustive brute-force oracle."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .graphs import Graph, _bfs_distances, edge_count, permute_graph
from .perms import CapacityError, Permutation, _trusted

__all__ = [
    "CanonicalForm",
    "refine",
    "automorphisms",
    "canonical_form",
    "are_isomorphic",
    "brute_force_automorphisms",
]

#: hard cap for the exhaustive automorphism scan: a scan over the 10! vertex
#: maps that abandons a partial map as soon as it breaks adjacency
BRUTE_FORCE_MAX_VERTICES = 10

#: a split trace: the (neighbour count, end) of each fragment one refinement makes
_Trace = list[tuple[int, int]]
#: a leaf of the search: its vertex order, certificate, and the trace of each depth
_Leaf = tuple[list[int], bytes, tuple[_Trace, ...]]


def _refine(
    adj: Sequence[int],
    masks: list[int],
    end: list[int],
    dirty: list[bool],
    multi: int,
    i: int,
    cells: int,
    trace: _Trace,
    expect: Optional[_Trace] = None,
) -> tuple[int, int]:
    """Refine a partition in place to the fixpoint of splitting every
    cell by neighbour counts into every splitter cell.

    The partition is held as cell bitmasks: ``masks[s]`` is the vertex
    set of the cell that starts at position s, ``end[s]`` is the end of
    that cell, ``dirty[s]`` says that the cell may still split something,
    and bit s of ``multi`` is set when the cell has two or more vertices.
    ``masks`` and ``end`` hold stale values, never read, where no cell
    starts.  A cell keeps its start when it splits, so cell order is
    position order.  Within a cell the vertices are taken in ascending
    order.  That is the order the contract below keeps when every cell
    starts ascending, as each fragment keeps its cell's order, and every
    partition of the search has ascending cells: its root is range(n),
    and a child puts v alone, then the rest of the target cell in order.

    The first dirty splitter, in cell order, that splits some cell splits
    every cell at once; the fragments keep the relative vertex order and
    are laid out with the larger neighbour count first.  Any fixed rule
    would do, this one is the deterministic contract.  It gives the result
    of rescanning every splitter from the first cell after each split
    (``tests/reference_search.py``) because a clean cell splits nothing
    by the time the scan reaches it.

    Call a cell settled when every cell is uniform towards it.  It stays
    settled, since the partition only gets finer and a subset of a
    uniform cell stays uniform.  A checked splitter is settled once its
    fragments are made, each being uniform towards it, and the caller
    leaves clean only settled cells.  When a dirty cell splits, every
    fragment starts dirty.  When a clean cell splits, every fragment but
    the last in position starts dirty, and the last stays clean.  So a
    clean cell X is settled, or was cut from a settled cell A through a
    chain of such last fragments.  Every cell before the scan is settled,
    by induction: the scan resumes at or before the first fragment of a
    split, and passes a cell only once it is checked or clean when
    reached.  Once the scan reaches X, each cell is uniform towards A and
    towards the part of A before X, hence towards their difference X, so
    X splits nothing and is settled.  The fragment kept clean is the
    last in position, not the largest as in Hopcroft's rule, so the
    splitters come in the same order and the trace does not change.
    nauty skips these splitters too (McKay and Piperno, "Practical graph
    isomorphism, II", 2014).

    A splitter's neighbour counts are held in bit planes: a vertex's
    count has bit k set when the vertex is in ``planes[k]``.  A singleton
    splitter {v} gives the one plane ``adj[v]``; a larger one adds its
    vertices' rows with a ripple carry, so a splitter of s vertices in a
    graph of maximum degree d needs min(s, d).bit_length() planes.  Only
    the cells with a bit in ``multi`` that meet the splitter's neighbours
    are checked, in position order: a singleton cannot split, and in a
    cell that no neighbour meets every count is 0.  A cell is uniform
    when each plane meets none or all of it.  Otherwise it splits plane
    by plane from the top, the part in the plane first, which lays the
    fragments out by descending count.  After a split the scan resumes
    at the earliest fragment or at the next cell, whichever comes first;
    every cell before that point is clean.

    The caller passes as ``i`` a position at or before the first dirty
    cell, and as ``cells`` the number of cells.  A discrete partition
    splits no further, so the scan stops once there are n cells.  On
    return no cell is dirty, and the number of cells and ``multi`` are
    returned.

    The (neighbour count, end) of every fragment is appended to
    ``trace`` in the order the fragments are made.  Nothing in that order
    depends on the vertex labels, so the refinement is label-equivariant,
    trace included: relabelling the graph and the partition's cells alike
    leaves the trace unchanged.  With ``expect`` given, the trace must
    come out equal to it: at the first fragment that breaks it, every
    dirty flag is cleared and 0 cells returned, as when ``expect`` has
    entries left over at the end."""
    n = len(masks)
    while i < n and cells < n:
        e = end[i]
        if not dirty[i]:
            i = e
            continue
        dirty[i] = False
        splitter = masks[i]
        if e - i == 1:
            touched = adj[splitter.bit_length() - 1]
            planes = [touched]
        else:
            planes = []
            touched = 0
            while splitter:
                low = splitter & -splitter
                splitter ^= low
                row = adj[low.bit_length() - 1]
                touched |= row
                for k, plane in enumerate(planes):
                    planes[k] = plane ^ row
                    row &= plane
                    if not row:
                        break
                else:
                    if row:
                        planes.append(row)
        top = len(planes) - 1
        resume = e
        candidates = multi
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            c = low.bit_length() - 1
            cell = masks[c]
            if not cell & touched:
                continue
            for plane in planes:
                hit = cell & plane
                if hit and hit != cell:
                    break
            else:
                continue
            parts = [(cell, 0)]
            for k in range(top, -1, -1):
                plane, bit = planes[k], 1 << k
                split = []
                for part, key in parts:
                    hit = part & plane
                    if hit:
                        split.append((hit, key | bit))
                    if hit != part:
                        split.append((part ^ hit, key))
                parts = split
            if c < resume:
                resume = c
            cells += len(parts) - 1
            ce = end[c]
            was = dirty[c]
            multi ^= low
            for part, key in parts:
                fe = c + part.bit_count()
                if expect is not None and (len(trace) == len(expect) or expect[len(trace)] != (key, fe)):
                    dirty[:] = [False] * n
                    return 0, multi
                trace.append((key, fe))
                masks[c] = part
                end[c] = fe
                dirty[c] = fe < ce or was
                if fe - c > 1:
                    multi |= 1 << c
                c = fe
        i = resume
    # a scan that stops at a discrete partition leaves flags set at or past i
    dirty[i:] = [False] * (n - i)
    return (cells if expect is None or len(trace) == len(expect) else 0), multi


def _members(mask: int) -> Iterator[int]:
    """The members of the set ``mask`` of vertices or positions, in
    ascending order."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def refine(g: Graph, cells: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Coarsest equitable refinement of the ordered ``cells`` with respect
    to ``g``: afterwards all vertices of a cell have equally many
    neighbours in every cell.  The cells must be nonempty and partition
    range(g.n).  Idempotent, never coarsens, deterministic cell order;
    each cell lists its vertices in the order the input gave them."""
    try:
        # an exact int, as in Permutation: 0.0 == 0 would pass the range check
        cells = [tuple(map(operator.index, cell)) for cell in cells]
        bad = not all(cells) or sorted(v for cell in cells for v in cell) != list(range(g.n))
    except TypeError:
        bad = True
    if bad:
        raise ValueError(f"cells are not a partition of range({g.n}) into nonempty cells")
    n = g.n
    masks, end, dirty, rank = [0] * n, [0] * n, [False] * n, [0] * n
    multi = start = 0
    for cell in cells:
        for pos, v in enumerate(cell, start):
            masks[start] |= 1 << v
            rank[v] = pos
        end[start] = start + len(cell)
        dirty[start] = True
        multi |= (len(cell) > 1) << start
        start = end[start]
    _refine(g.adj, masks, end, dirty, multi, 0, len(cells), [])
    out = []
    start = 0
    while start < n:
        # each output cell lies in one input cell; keep that cell's order
        out.append(tuple(sorted(_members(masks[start]), key=rank.__getitem__)))
        start = end[start]
    return tuple(out)


def _cert_bytes(nbrs: list[tuple[int, ...]], order: list[int]) -> bytes:
    """Upper-triangle adjacency bits of the graph with neighbour lists
    ``nbrs`` relabelled so that ``order[i]`` lands at position i, packed
    row-major, MSB first, zero padded to whole bytes.

    A vertex's relabelled row has bit n-1-j set when the vertex is
    adjacent to ``order[j]``.  The bits of row i right of the diagonal
    are then the low n-1-i bits of the row of ``order[i]``, already in
    certificate order, so one shift-or per row appends them: O(n + m)
    steps per leaf instead of O(n^2)."""
    n = len(order)
    rows = [0] * n
    for i, v in enumerate(order):
        bit = 1 << (n - 1 - i)
        for u in nbrs[v]:
            rows[u] |= bit
    acc = 0
    for i, v in enumerate(order):
        width = n - 1 - i
        acc = (acc << width) | (rows[v] & ((1 << width) - 1))
    nbits = n * (n - 1) // 2
    pad = -nbits % 8
    return (acc << pad).to_bytes((nbits + pad) // 8, "big")


def _mapping(source: Sequence[int], target: Sequence[int]) -> Permutation:
    """The permutation that maps each ``source[i]`` to ``target[i]``."""
    images = [0] * len(source)
    for v, w in zip(source, target):
        images[v] = w
    return Permutation(images)


@dataclass(frozen=True)
class CanonicalForm:
    """A relabelling to canonical positions plus the resulting certificate."""

    relabeling: Permutation
    certificate: bytes

    def text(self) -> str:
        """Stable printed form: ``n=<n>:`` plus lowercase hex of the bits."""
        return f"n={self.relabeling.degree}:{self.certificate.hex()}"


class _IRSearch:
    """Depth-first traversal of the individualization-refinement tree
    with orbit pruning and first-path backjumping.

    The first leaf serves as the reference labelling: any later leaf
    with the same certificate yields an automorphism, and the
    lexicographically smallest certificate over the leaves is the
    canonical form.  At each node, a child is skipped when it lies in
    the orbit of an already searched sibling under the automorphisms
    found so far that fix every individualized vertex on the path to
    the node.  Such a child's subtree is an automorphic image of a
    subtree searched earlier, so it holds the same certificates and its
    automorphisms are products of ones already found.

    Backjumping (McKay 1981): a later leaf with the first leaf's
    certificate is the image of the first leaf under its automorphism
    gamma, new or not, so its path is gamma's image of the first path.
    If the two paths part below the node at depth d, gamma fixes the
    first d individualized vertices, and the rest of the depth d + 1
    subtree holding the leaf is gamma's image of the first path's depth
    d + 1 subtree, searched in full before it.  The search unwinds
    straight to the depth-d node, which marks that child searched and
    goes on with its next sibling.  Every leaf skipped either way has the
    certificate of a leaf met before it, and the canonical leaf changes
    only on a strictly smaller certificate; an automorphism a skipped
    leaf would give is a product of ones already found.  So the
    canonical form, the leaf that first reaches it, and the generators
    found are those of the full traversal.  On Hoffman-Singleton
    (n = 50, |Aut| = 252,000) backjumping cuts the leaves visited from
    5,172 to 26, on Paley(61) from 33 to 4.  Without a target there is
    no invariant pruning.

    Every candidate automorphism is new, so all become generators and
    the search keeps no group.  A candidate's leaf parts from the first
    path at depth d, under a child v of the first-path node there.  The
    generators found so far parted at depth d or deeper, so they fix the
    first d path vertices, and the searched children of that node are a
    union of their orbits.  Had the candidate, which maps the first
    path's child to v, been in their group, v would have been skipped.
    No generator comes from v's subtree before that leaf, since any match
    there jumps straight back to depth d.

    The generators are thus a strong generating set relative to the
    first path as base (McKay, "Practical graph isomorphism", Congr.
    Numer. 30, 1981; nauty's ``grpsize``): |Aut| is the product over the
    first-path nodes of the orbit of the path's next vertex under the
    generators that fix the path's vertices above it.  Only the identity
    fixes every vertex of the path, since individualizing them refines to
    a discrete partition.  These orbits can be taken after the search,
    from all the generators.  One found after the depth-d node's loop
    ends comes from a leaf whose path parts from the first path at some
    depth p < d, and maps that path's depth-p vertex onto the first
    path's, so it moves the first path's depth-p vertex: the generators
    that fix the first d path vertices are still those the loop ended
    with.  ``canonical_form`` and ``are_isomorphic`` take no orbit.

    Each leaf is kept as its vertex order, and ``first`` and ``best`` also
    keep the split traces of the refinements on their paths, one list per
    depth.
    With a ``target``, such a trace and certificate of a leaf of another
    graph, the search looks only for leaves with that certificate.  A
    child is dropped at the first split of its refinement that the trace
    of its depth lacks, and is not marked searched.  The first leaf with
    the target certificate becomes ``best``.  The search ends at its
    second such leaf, or as soon as it holds both one and a generator.
    When the graphs are isomorphic and the target is the other graph's
    canonical leaf, ``best`` is this graph's canonical leaf:

    - ``_refine`` is label-equivariant.  A leaf with the target
      certificate gives an isomorphism from the other graph that maps
      the target's path onto the leaf's path, so that leaf has the
      target's trace at every depth, and no leaf under a dropped child
      has the certificate.
    - Orbit pruning and backjumping skip only automorphic images of
      leaves that come earlier in unpruned depth-first order.  Those
      leaves were met before the first match or lie under dropped
      children, so none has the target certificate, and the leaf found
      is the first in that order that has it.  The canonical search is
      the same code without a target, so it walks the same tree in the
      same order, and its canonical leaf is the first leaf in that order
      with the least certificate, which is the target's.

    That argument uses of the target only its traces and certificate, not
    that it is canonical: a graph holds a leaf with the traces and
    certificate of any leaf of another graph exactly when the two graphs
    are isomorphic.  The search is a walk, ``walk``, that pauses once,
    after its first leaf, and ``run()`` drives it to its end from wherever
    it stands.  ``are_isomorphic`` pauses g1's search at its first leaf F,
    takes F as target for a scan of g2, and resumes g1's search only when
    the scan shows that g1 has automorphisms.  When g1 and g2 are
    isomorphic, the scan meets a second match or a generator exactly when
    g1 is not rigid:

    1. Each isomorphism phi from g1 to g2 maps F's path onto a path of g2
       with F's traces at every depth, which ends in a leaf with F's
       certificate and vertex order phi(F).  Conversely, each such leaf
       gives one.  Distinct isomorphisms give distinct leaves, so g2
       holds as many leaves with F's traces and certificate as g1 has
       automorphisms.
    2. Until a generator is found, the scan drops only children whose
       trace leaves F's: it makes no orbit prune and no backjump.  Without
       a generator it therefore meets every such leaf, and one match
       means one automorphism of g1, the identity.
    3. A generator of g2 proves that Aut(g2), which is isomorphic to
       Aut(g1), is not trivial.

    A rigid graph has exactly one isomorphism onto an isomorphic graph,
    so when g1 is rigid the mapping from F onto the scan's match is the
    mapping from canonical leaf to canonical leaf.

    ``run()`` returns the search, whose attributes are its record:
    ``gens``, for ``automorphisms`` and the scan's verdict; the first
    leaf ``first``, for ``are_isomorphic`` (it is F), and its path
    ``first_prefix``, along which
    ``automorphisms`` takes the orbits; ``best``, for ``canonical_form``
    and ``are_isomorphic``; ``matches``, the leaves with the target
    certificate, for the scan's verdict; and ``leaves``, every leaf
    visited, for the tests.
    """

    def __init__(self, g: Graph, target: Optional[tuple[Sequence[_Trace], bytes]] = None) -> None:
        if g.n < 1:
            raise ValueError("graph must have at least one vertex")
        self.adj = g.adj
        self.nbrs = [g.neighbors(v) for v in range(g.n)]
        self.target_trace, self.target_cert = target if target is not None else (None, None)
        self.matches = self.leaves = 0
        self.gens: list[Permutation] = []
        self.first: Optional[_Leaf] = None
        self.first_prefix: tuple[int, ...] = ()
        self.best: Optional[_Leaf] = None
        self.walk = self._walk()

    def run(self) -> _IRSearch:
        for _ in self.walk:
            pass
        return self

    def _walk(self) -> Iterator[None]:
        """The search, with a frame for each node on the current path on
        one stack; it pauses once, after the first leaf.

        A frame holds a node's equitable partition, as ``_refine``'s cell
        masks and ends, and its number of cells; the ``multi`` its
        children start from; its prefix of individualized vertices, their
        split traces, its target cell (the leftmost of least size among
        the cells in the node's ``multi``), its untried children in
        ascending order, and its searched children closed under the
        orbits.  A node with n cells is a leaf, whose vertex order is the
        one vertex of each cell in position order.  A child individualizes
        a vertex v of the target cell: v alone at the cell's start, then
        the rest of the cell, one cell more than the node has.  It copies
        the node's two lists and sets the masks of the two cells; in its
        ``multi`` the target cell's bit is cleared, and the rest's is set
        when it keeps two or more vertices.  Only {v} starts dirty.  Every
        other cell c is a cell of the node, settled in ``_refine``'s
        sense: every child cell lies inside a cell of the node, whose
        vertices all have equally many neighbours in c.  The rest is the
        last fragment of the target cell, which was settled, so it stays
        clean as ``_refine`` keeps such a fragment.

        A leaf gives the depth of the node to resume at, and the stack
        unwinds to it; -1 empties the stack and ends the search.  A frame
        whose children are all tried is popped.  Either way, the node left
        on top marks its child on the path searched."""
        adj, target_trace = self.adj, self.target_trace
        n = len(adj)
        # one list of dirty flags serves every refinement: each ends clean
        masks, end, dirty = [0] * n, [0] * n, [False] * n
        masks[0], end[0], dirty[0] = (1 << n) - 1, n, True
        prefix: tuple[int, ...] = ()
        traces: tuple[_Trace, ...] = ([],)
        expect = target_trace[0] if target_trace else None
        cells, multi = _refine(adj, masks, end, dirty, int(n > 1), 0, 1, traces[0], expect)
        if not cells:
            return
        stack = []
        while True:
            if cells == n:
                jump = self._leaf([mask.bit_length() - 1 for mask in masks], prefix, traces)
                if self.leaves == 1:
                    yield
                del stack[jump + 1:]
                # the path whose child the node on top marks searched
                path = prefix
            else:
                target, size = 0, n + 1
                for c in _members(multi):
                    if end[c] - c < size:
                        target, size = c, end[c] - c
                multi ^= (1 << target) | ((size > 2) << (target + 1))
                stack.append((masks, end, cells, multi, prefix, traces, target, _members(masks[target]), set()))
                path = None
            # descend to the next untried child that refines, popping
            # every frame whose children are all tried
            while stack:
                masks, end, cells, multi, prefix, traces, target, children, covered = stack[-1]
                if path is not None:
                    covered.add(path[len(prefix)])
                    self._close_orbits(covered, prefix)
                expect = target_trace[len(prefix) + 1] if target_trace else None
                stop = end[target]
                for v in children:
                    if v in covered:
                        continue
                    child_masks, child_end = masks[:], end[:]
                    child_masks[target] = 1 << v
                    child_masks[target + 1] = masks[target] ^ 1 << v
                    child_end[target] = target + 1
                    child_end[target + 1] = stop
                    dirty[target] = True
                    trace: _Trace = []
                    child_cells, child_multi = _refine(
                        adj, child_masks, child_end, dirty, multi, target, cells + 1, trace, expect
                    )
                    if child_cells:
                        break
                else:
                    path = stack.pop()[4]
                    continue
                break
            else:
                return
            masks, end, cells, multi = child_masks, child_end, child_cells, child_multi
            prefix, traces = prefix + (v,), traces + (trace,)

    def _close_orbits(self, points: set[int], prefix: tuple[int, ...]) -> set[int]:
        """Grow ``points`` in place to its orbit under the generators
        found so far that fix every vertex of ``prefix``; return it."""
        stab = [
            gen.images for gen in self.gens
            if all(gen.images[u] == u for u in prefix)
        ]
        if not stab:
            return points
        stack = list(points)
        while stack:
            x = stack.pop()
            for images in stab:
                y = images[x]
                if y not in points:
                    points.add(y)
                    stack.append(y)
        return points

    def _leaf(self, order: list[int], prefix: tuple[int, ...], traces: tuple[_Trace, ...]) -> int:
        """Record the leaf, whose discrete partition is the vertex order
        ``order``; return the depth of the node to resume at, -1 to end
        the search."""
        self.leaves += 1
        jump = len(prefix)
        cert = _cert_bytes(self.nbrs, order)
        if cert == self.target_cert:
            self.matches += 1
            if self.best is None:
                self.best = (order, cert, traces)
        elif self.first is None:
            self.first = (order, cert, traces)
            self.first_prefix = prefix
        elif cert == self.first[1]:
            self.gens.append(_mapping(order, self.first[0]))
            # the new generator maps the first path onto this leaf's path:
            # resume at the node where the two paths part
            jump = 0
            while prefix[jump] == self.first_prefix[jump]:
                jump += 1
        if self.matches and (self.matches == 2 or self.gens):
            return -1
        if self.target_cert is None and (self.best is None or cert < self.best[1]):
            self.best = (order, cert, traces)
        return jump


def automorphisms(g: Graph) -> tuple[tuple[Permutation, ...], int]:
    """A generating set for Aut(g), deterministically ordered and
    ``(identity,)`` for a rigid graph, and |Aut(g)|: the product over the
    first path's depths d of the orbit of its depth-d vertex under the
    generators that fix the vertices above it (see ``_IRSearch``)."""
    search = _IRSearch(g).run()
    path = search.first_prefix
    order = math.prod(len(search._close_orbits({v}, path[:d])) for d, v in enumerate(path))
    return tuple(search.gens) or (Permutation.identity(g.n),), order


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form of g: the lexicographically smallest upper-triangle
    adjacency bitstring over all leaves of the refinement tree, with a
    relabelling that realizes it."""
    best = _IRSearch(g).run().best
    assert best is not None
    order, cert, _ = best
    return CanonicalForm(_mapping(order, range(g.n)), cert)


def are_isomorphic(g1: Graph, g2: Graph) -> Optional[Permutation]:
    """An explicit isomorphism g1 -> g2 (verified before returning), or
    None when the graphs are not isomorphic.

    g1's canonical search pauses at its first leaf F for one scan of g2,
    which counts the leaves with F's traces and certificate up to two
    (see ``_IRSearch``).

    - No such leaf: the graphs are not isomorphic, and g1's search ends
      at F.
    - One, and no generator of g2: g1 is rigid.  A rigid graph has
      exactly one isomorphism onto g2, so the mapping from F onto that
      leaf is the one from g1's canonical leaf onto g2's.  g1's search
      ends at F here too.
    - Otherwise g1 has automorphisms.  g1's canonical search goes on from
      F, and a search of g2 for g1's canonical leaf follows; the leaf
      found is the one ``canonical_form(g2)`` returns, so the mapping
      takes g1's canonical vertex order onto g2's."""
    if g1.n < 1 or g2.n < 1:
        raise ValueError("graph must have at least one vertex")
    if g1.n != g2.n or edge_count(g1) != edge_count(g2):
        return None
    search = _IRSearch(g1)
    next(search.walk)
    order, cert, traces = search.first
    scan = _IRSearch(g2, (traces, cert)).run()
    leaf = scan.best
    if leaf is None:
        return None
    if scan.matches > 1 or scan.gens:
        order, cert, traces = search.run().best
        leaf = _IRSearch(g2, (traces, cert)).run().best
        assert leaf is not None
    sigma = _mapping(order, leaf[0])
    if permute_graph(g1, sigma).adj != g2.adj:
        raise RuntimeError("certificate collision without an isomorphism; this is a bug")
    return sigma


def brute_force_automorphisms(g: Graph) -> list[Permutation]:
    """Every automorphism of g, in lexicographic order of image arrays.

    A scan over the g.n! vertex maps that abandons a partial map as soon
    as it breaks adjacency, which cannot lose solutions, so it never lists
    the candidates one by one.  Guarded at 10 vertices (10! maps).

    Vertices are placed in breadth-first order, each component from its
    least vertex, so that every vertex but a component's first has an
    earlier neighbour and a partial map breaks adjacency as early as it
    can.  A component's first vertex draws its image from all vertices;
    every other vertex draws from the neighbours of the image of its
    first earlier neighbour.  An automorphism maps a vertex next to that
    image, so no automorphism is lost, and every other vertex would fail
    the adjacency test anyway.  The scan finds the same automorphisms as
    one in index order that tries all n vertices, in another order, and
    returns them sorted.
    """
    if g.n > BRUTE_FORCE_MAX_VERTICES:
        raise CapacityError(f"brute force is capped at {BRUTE_FORCE_MAX_VERTICES} vertices")
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    n = g.n
    adj = g.adj
    nbrs = [g.neighbors(v) for v in range(n)]
    # a distance dict lists the vertices in the order a search reaches them
    order: list[int] = []
    rank = [n] * n
    for root in range(n):
        if rank[root] == n:
            for v in _bfs_distances(g, root):
                rank[v] = len(order)
                order.append(v)
    earlier = [tuple(u for u in nbrs[v] if rank[u] < rank[v]) for v in order]
    images = [0] * n
    found: list[tuple[int, ...]] = []

    def place(i: int, used: int) -> None:
        # used is the bitmask of the images of order[:i]; t extends the map
        # iff it is unused and its neighbours in used are the images of the
        # earlier neighbours of order[i]
        if i == n:
            found.append(tuple(images))
            return
        back = earlier[i]
        want = 0
        for u in back:
            want |= 1 << images[u]
        for t in nbrs[images[back[0]]] if back else range(n):
            if not (used >> t) & 1 and adj[t] & used == want:
                images[order[i]] = t
                place(i + 1, used | 1 << t)

    place(0, 0)
    # each leaf maps n vertices to n distinct ones: a bijection
    return list(map(_trusted, sorted(found)))
