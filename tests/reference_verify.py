"""Reference oracles for the S5 checks in ``autkit.verify``: the plain
versions, which enumerate the group themselves and multiply
``Permutation`` objects pair by pair, kept independent of the fast
image-table helpers so that differential tests can catch a bug in either.

A pair whose images differ in degree raises ``ValueError`` here (from
``Permutation.__mul__``); the fast path reports it as a failing pair.

``induced_action``, ``_composer`` and ``_homomorphism_pairs`` are tuple
versions of the bitmask and byte-table ones in ``autkit.verify``: the
induced action sorts each image subset, and the pair scan composes with
``itemgetter``.  They hold any degree."""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Optional

from autkit import Permutation, closure, subsets
from autkit.verify import S5_ORDER, Action, s5_generators

_SUBSETS = tuple(subsets(5, 3))
_SUBSET_INDEX = {members: idx for idx, members in enumerate(_SUBSETS)}


def induced_action(g: Permutation) -> Permutation:
    """Push a permutation of {1..5} to the 10 vertices: the vertex for a
    3-subset A goes to the vertex for {g(a) : a in A}."""
    if g.degree != 5:
        raise ValueError(f"expected a degree-5 permutation, got degree {g.degree}")
    images = [0] * len(_SUBSETS)
    for idx, members in enumerate(_SUBSETS):
        image = tuple(sorted(g(m - 1) + 1 for m in members))
        images[idx] = _SUBSET_INDEX[image]
    return Permutation(images)


def _composer(images: tuple[int, ...]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The map q -> p * q on image tuples, for the permutation p with these
    images (left-to-right: apply p, then q), as one C-level call."""
    pick = itemgetter(*images)
    if len(images) == 1:
        # itemgetter with a single index returns the item, not a 1-tuple
        return lambda q: (pick(q),)
    return pick


def _homomorphism_pairs(elements: list[Permutation], images: list[Permutation]) -> tuple[bool, int]:
    """Check phi(g * h) == phi(g) * phi(h) over every ordered pair of
    ``elements``, where ``images[i]`` is phi(elements[i]).

    Pairs run with g in the outer loop and h in the inner one, both in
    the order of ``elements``.  The scan stops at the first failing pair
    and returns ``(False, k)``, k being that pair's 1-based position in
    this order; otherwise it returns ``(True, len(elements) ** 2)``.  A
    pair whose two images differ in degree fails.  ``elements`` is a
    whole group, so every product is one of them.
    """
    table = [(g.images, img.images) for g, img in zip(elements, images)]
    phi = dict(table)
    n = len(table)
    # An image of another degree than phi(elements[0]) fails its pair in
    # the first row, so the scan ends there; earlier first-row pairs, all
    # of one degree, may still fail first.
    degree = len(table[0][1])
    cut = next((j for j, (_, img) in enumerate(table) if len(img) != degree), None)
    rows, columns = (table, table) if cut is None else (table[:1], table[:cut])
    for i, (g, phi_g) in enumerate(rows):
        g_times, phi_g_times = _composer(g), _composer(phi_g)
        for j, (h, phi_h) in enumerate(columns):
            if phi[g_times(h)] != phi_g_times(phi_h):
                return False, i * n + j + 1
    if cut is not None:
        return False, cut + 1
    return True, n * n


def check_homomorphism(
    generators: Optional[Iterable[Permutation]] = None,
    action: Action = induced_action,
) -> tuple[bool, int]:
    """Check action(g * h) == action(g) * action(h) for every pair of the
    full generated group (14,400 pairs for S5), of at most 256 elements."""
    gens = list(generators) if generators is not None else list(s5_generators())
    elements = closure(gens, cap=256)
    acted = {g: action(g) for g in elements}
    pairs = 0
    for g in elements:
        for h in elements:
            pairs += 1
            gh = g * h
            lhs = acted.get(gh)
            if lhs is None:
                lhs = action(gh)
            if lhs != acted[g] * acted[h]:
                return False, pairs
    return True, pairs


def check_kernel_trivial(action: Action = induced_action) -> bool:
    """True iff the identity of S5 is the only element acting trivially,
    checked exhaustively over all 120 elements."""
    ident10 = Permutation.identity(10)
    for g in closure(list(s5_generators()), cap=S5_ORDER):
        if action(g) == ident10 and not g.is_identity():
            return False
    return True
