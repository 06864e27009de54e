"""Reference oracle for the pruned search in ``autkit.search``: the same
individualization-refinement traversal with no pruning at all, so every
leaf is visited.  Refinement and the leaf certificate come from the plain
versions in ``reference_search``, not from the fast ones under test.  Its
cost grows with |Aut|, so keep its inputs small."""

from autkit import Permutation, schreier_sims
from reference_search import _cert_bytes, _refine_cells


def unpruned_search(g):
    """``(generators, relabeling, certificate)`` from a full traversal.

    The reference labelling is the first leaf; a later leaf with its
    certificate gives an automorphism, kept when the group found so far
    does not already contain it.  The canonical leaf is the first one
    that reaches the smallest certificate.
    """
    gens = []
    group = None
    first = None
    best = None

    def leaf(cells):
        nonlocal group, first, best
        order = [cell[0] for cell in cells]
        cert = _cert_bytes(g, order)
        images = [0] * g.n
        for pos, v in enumerate(order):
            images[v] = pos
        lab = Permutation(images)
        if first is None:
            first = (lab, cert)
        elif cert == first[1]:
            sigma = lab * first[0].inverse()
            if not sigma.is_identity() and (group is None or not group.contains(sigma)):
                gens.append(sigma)
                group = schreier_sims(gens)
        if best is None or cert < best[1]:
            best = (lab, cert)

    def node(cells):
        # leftmost cell of minimum size among the non-singletons
        target = None
        for idx, cell in enumerate(cells):
            if len(cell) > 1 and (target is None or len(cell) < len(cells[target])):
                target = idx
        if target is None:
            leaf(cells)
            return
        for v in cells[target]:
            rest = tuple(u for u in cells[target] if u != v)
            node(_refine_cells(g, cells[:target] + [(v,), rest] + cells[target + 1:]))

    node(_refine_cells(g, [tuple(range(g.n))]))
    return tuple(gens), best[0], best[1]
