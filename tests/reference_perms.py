"""Reference oracles for ``schreier_sims``, ``orbit`` and ``closure`` in
``autkit.perms``: a from-scratch Schreier-Sims that multiplies validated
``Permutation`` objects, re-filters the strong generators of every level
on every pass and inverts a transversal element once per Schreier
generator and per sift step, and a breadth-first closure that multiplies
and hashes ``Permutation`` objects.  They share no code with the
image-tuple implementations, so differential tests of the groups they
build (order and membership, not base or transversals, and for closure
the elements in order) can catch a bug in either."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from autkit import CapacityError, Permutation


@dataclass(frozen=True)
class BSGS:
    """The reference's result: a base, strong generators and explicit
    transversals, with order and membership by sifting."""

    degree: int
    base: Sequence[int]
    strong_generators: Sequence[Permutation]
    transversals: Sequence[dict[int, Permutation]]

    def order(self) -> int:
        return math.prod(len(t) for t in self.transversals)

    def contains(self, p: Permutation) -> bool:
        h = p
        for b, trans in zip(self.base, self.transversals):
            x = h(b)
            if x == b:
                continue
            if x not in trans:
                return False
            h = h * trans[x].inverse()
        return h.is_identity()


def _validated(generators: Iterable[Permutation]) -> tuple[list[Permutation], int]:
    gens = list(generators)
    if not gens:
        raise ValueError("generator list must be nonempty")
    n = gens[0].degree
    for g in gens:
        if g.degree != n:
            raise ValueError("generators have inconsistent degrees")
    return gens, n


def orbit(generators: Iterable[Permutation], point: int) -> tuple[set[int], dict[int, Permutation]]:
    """Orbit of ``point`` under the generated group, with a transversal.

    Returns ``(orbit, transversal)`` where ``transversal[x]`` is a word in
    the generators mapping ``point`` to ``x``.  Breadth-first and
    deterministic for a fixed generator order.
    """
    gens, n = _validated(generators)
    if not 0 <= point < n:
        raise ValueError(f"point {point} outside 0..{n - 1}")
    transversal = {point: Permutation.identity(n)}
    queue = [point]
    for x in queue:
        for g in gens:
            y = g(x)
            if y not in transversal:
                transversal[y] = transversal[x] * g
                queue.append(y)
    return set(transversal), transversal


def schreier_sims(generators: Iterable[Permutation]) -> BSGS:
    """Deterministic Schreier-Sims: build a BSGS for the generated group.

    Base points are chosen greedily per level as the smallest point moved
    by some generator at that level.  Pass ``[Permutation.identity(n)]``
    for the trivial group; an empty generator list is an error.
    """
    gens, n = _validated(generators)
    strong: list[Permutation] = []
    for g in gens:
        if not g.is_identity() and g not in strong:
            strong.append(g)
    if not strong:
        return BSGS(n, (), (), ())

    base: list[int] = []
    transversals: list[dict[int, Permutation]] = []

    def level_gens(i: int) -> list[Permutation]:
        return [s for s in strong if all(s(b) == b for b in base[:i])]

    def extend_base(i: int) -> None:
        # smallest point moved by some generator that still fixes base[:i]
        pool = level_gens(i)
        point = min(x for g in pool for x in range(n) if g(x) != x)
        base.append(point)
        transversals.append({})

    while True:
        pool = level_gens(len(base))
        if not pool:
            break
        extend_base(len(base))

    def sift_from(p: Permutation, start: int) -> tuple[Permutation, int]:
        h = p
        for i in range(start, len(base)):
            x = h(base[i])
            if x == base[i]:
                continue
            if x not in transversals[i]:
                return h, i
            h = h * transversals[i][x].inverse()
        return h, len(base)

    i = len(base) - 1
    while i >= 0:
        gens_i = level_gens(i)
        _, transversals[i] = orbit(gens_i, base[i])
        restart = None
        for x in sorted(transversals[i]):
            tx = transversals[i][x]
            for s in gens_i:
                schreier = tx * s * transversals[i][s(x)].inverse()
                if schreier.is_identity():
                    continue
                residue, j = sift_from(schreier, i + 1)
                if residue.is_identity():
                    continue
                strong.append(residue)
                if j == len(base):
                    extend_base(j)
                restart = j
                break
            if restart is not None:
                break
        if restart is not None:
            i = restart
        else:
            i -= 1

    return BSGS(n, base, strong, transversals)


def closure(generators: Iterable[Permutation], cap: int) -> list[Permutation]:
    """Every element of the generated group, by breadth-first products of
    ``Permutation`` objects: word length first, then lexicographic images
    within a layer.  Raises ``CapacityError`` once more than ``cap``
    elements are found."""
    gens, n = _validated(generators)
    if cap < 1:
        raise ValueError("cap must be positive")
    ident = Permutation.identity(n)
    seen = {ident}
    elements = [ident]
    frontier = [ident]
    while frontier:
        layer: list[Permutation] = []
        for w in frontier:
            for g in gens:
                h = w * g
                if h not in seen:
                    seen.add(h)
                    layer.append(h)
                    if len(seen) > cap:
                        raise CapacityError(f"group exceeds cap of {cap} elements")
        layer.sort(key=lambda p: p.images)
        elements.extend(layer)
        frontier = layer
    return elements
