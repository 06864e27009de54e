"""Permutations of {0..n-1} and machinery for small permutation groups.

Composition is left-to-right everywhere: ``(p * q)(x) == q(p(x))``.
Points are 0-based internally; cycle notation at the text boundary is
1-based, e.g. ``"(1 2 3)(4 5)"``, with ``"()"`` denoting the identity.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Iterable, Sequence

__all__ = [
    "Permutation",
    "BSGS",
    "CapacityError",
    "orbit",
    "schreier_sims",
    "closure",
]


class CapacityError(RuntimeError):
    """An enumeration grew past its explicit size cap."""


_CYCLE_RE = re.compile(r"\(\s*((?:\d+\s*)*)\)")


class Permutation:
    """An immutable bijection of {0..n-1}, stored as the tuple of images."""

    __slots__ = ("_images",)

    def __init__(self, images: Iterable[int]) -> None:
        imgs = tuple(images)
        try:
            # operator.index admits int, bool and numpy integers and returns an
            # exact int; a float such as 1.0 would pass the sorted() check below
            imgs = tuple(map(operator.index, imgs))
        except TypeError:
            bad = next((x for x in imgs if not hasattr(type(x), "__index__")), imgs)
            raise ValueError(f"image {bad!r} is not an integer") from None
        if not imgs:
            raise ValueError("permutation degree must be at least 1")
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"images are not a bijection of 0..{len(imgs) - 1}: {imgs!r}")
        self._images = imgs

    @classmethod
    def identity(cls, n: int) -> Permutation:
        if n < 1:
            raise ValueError("permutation degree must be at least 1")
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> Permutation:
        """Product of disjoint cycles over the 1-based points 1..n.

        Points omitted from every cycle are fixed; an empty cycle list is
        the identity.
        """
        if n < 1:
            raise ValueError("permutation degree must be at least 1")
        images = list(range(n))
        seen: set[int] = set()
        for cycle in cycles:
            cycle = list(cycle)
            for point in cycle:
                if not 1 <= point <= n:
                    raise ValueError(f"cycle point {point!r} outside 1..{n}")
                if point in seen:
                    raise ValueError(f"point {point} repeated across cycles")
                seen.add(point)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b - 1
        return cls(images)

    @classmethod
    def from_cycle_string(cls, n: int, text: str) -> Permutation:
        """Parse 1-based cycle notation such as ``"(1 2 3)(4 5)"``."""
        stripped = text.strip()
        if not stripped:
            raise ValueError("empty cycle notation")
        if _CYCLE_RE.sub("", stripped).strip():
            raise ValueError(f"malformed cycle notation: {text!r}")
        cycles = []
        for group in _CYCLE_RE.findall(stripped):
            points = [int(tok) for tok in group.split()]
            if points:
                cycles.append(points)
        return cls.from_cycles(n, cycles)

    @property
    def images(self) -> tuple[int, ...]:
        return self._images

    @property
    def degree(self) -> int:
        return len(self._images)

    def __call__(self, x: int) -> int:
        return self._images[x]

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self._images))

    def __mul__(self, other: Permutation) -> Permutation:
        # left-to-right: apply self first, then other
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        b = other._images
        return _trusted(tuple([b[i] for i in self._images]))

    def inverse(self) -> Permutation:
        return _trusted(_invert(self._images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial 0-based cycles, each starting at its smallest point,
        ordered by smallest point."""
        out = []
        seen: set[int] = set()
        for start in range(len(self._images)):
            if start in seen or self._images[start] == start:
                continue
            cycle = [start]
            x = self._images[start]
            while x != start:
                cycle.append(x)
                seen.add(x)
                x = self._images[x]
            out.append(tuple(cycle))
        return out

    def cycle_string(self) -> str:
        """1-based cycle notation; the identity prints as ``"()"``."""
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(x + 1) for x in cycle) + ")" for cycle in cycles)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __repr__(self) -> str:
        return f"Permutation({list(self._images)})"

    def __str__(self) -> str:
        return self.cycle_string()


def _trusted(images: tuple[int, ...]) -> Permutation:
    """Wrap images already known to be a bijection of int, skipping the
    checks of ``Permutation.__init__``; only for results computed from
    validated permutations."""
    p = object.__new__(Permutation)
    p._images = images
    return p


def _invert(images: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(images)
    for i, v in enumerate(images):
        inv[v] = i
    return tuple(inv)


def _validated(generators: Iterable[Permutation]) -> tuple[list[Permutation], int]:
    gens = list(generators)
    if not gens:
        raise ValueError("generator list must be nonempty")
    n = gens[0].degree
    for g in gens:
        if g.degree != n:
            raise ValueError("generators have inconsistent degrees")
    return gens, n


def _orbit_words(gens: Sequence[tuple[int, ...]], point: int, n: int) -> dict[int, tuple[int, ...]]:
    """Breadth-first orbit of ``point`` as image tuples: ``words[x]`` is the
    product of generators, in discovery order, carrying ``point`` to ``x``."""
    words = {point: tuple(range(n))}
    queue = [point]
    for x in queue:
        w = words[x]
        for g in gens:
            y = g[x]
            if y not in words:
                words[y] = tuple([g[k] for k in w])
                queue.append(y)
    return words


def orbit(generators: Iterable[Permutation], point: int) -> tuple[set[int], dict[int, Permutation]]:
    """Orbit of ``point`` under the generated group, with a transversal.

    Returns ``(orbit, transversal)`` where ``transversal[x]`` is a word in
    the generators mapping ``point`` to ``x``.  Breadth-first and
    deterministic for a fixed generator order.
    """
    gens, n = _validated(generators)
    if not 0 <= point < n:
        raise ValueError(f"point {point} outside 0..{n - 1}")
    words = _orbit_words([g.images for g in gens], point, n)
    transversal = {x: _trusted(w) for x, w in words.items()}
    return set(transversal), transversal


class BSGS:
    """Base and strong generating set with explicit transversals.

    ``transversals[i]`` maps each point of the i-th fundamental orbit to
    a coset representative carrying ``base[i]`` to that point.  The group
    order is the product of the fundamental orbit sizes.
    """

    __slots__ = ("degree", "base", "strong_generators", "transversals")

    def __init__(
        self,
        degree: int,
        base: Sequence[int],
        strong_generators: Sequence[Permutation],
        transversals: Sequence[dict[int, Permutation]],
    ) -> None:
        self.degree = degree
        self.base = tuple(base)
        self.strong_generators = tuple(strong_generators)
        self.transversals = tuple(transversals)

    def order(self) -> int:
        return math.prod(len(t) for t in self.transversals)

    def sift(self, p: Permutation) -> Permutation:
        """Reduce ``p`` through the transversals; identity iff ``p`` is a member."""
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} vs {self.degree}")
        h = p
        for b, trans in zip(self.base, self.transversals):
            x = h(b)
            if x == b:
                continue
            if x not in trans:
                return h
            h = h * trans[x].inverse()
        return h

    def contains(self, p: Permutation) -> bool:
        return self.sift(p).is_identity()

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    def __repr__(self) -> str:
        return f"BSGS(degree={self.degree}, base={list(self.base)}, order={self.order()})"


def schreier_sims(generators: Iterable[Permutation]) -> BSGS:
    """Deterministic Schreier-Sims: build a BSGS for the generated group.

    Base points are chosen greedily per level as the smallest point moved
    by some generator at that level.  Pass ``[Permutation.identity(n)]``
    for the trivial group; an empty generator list is an error.

    Works on image tuples throughout: each transversal element is inverted
    once, right after its orbit is built, and ``Permutation`` objects are
    made only for the returned ``BSGS``.
    """
    gens, n = _validated(generators)
    ident = tuple(range(n))
    strong: list[tuple[int, ...]] = []
    for g in gens:
        if g.images != ident and g.images not in strong:
            strong.append(g.images)
    if not strong:
        return BSGS(n, (), (), ())

    base: list[int] = []
    transversals: list[dict[int, tuple[int, ...]]] = []
    inverses: list[dict[int, tuple[int, ...]]] = []

    def level_gens(i: int) -> list[tuple[int, ...]]:
        return [s for s in strong if all(s[b] == b for b in base[:i])]

    def extend_base(i: int) -> None:
        # smallest point moved by some generator that still fixes base[:i]
        pool = level_gens(i)
        point = min(x for g in pool for x in range(n) if g[x] != x)
        base.append(point)
        transversals.append({})
        inverses.append({})

    while True:
        pool = level_gens(len(base))
        if not pool:
            break
        extend_base(len(base))

    def sift_from(h: tuple[int, ...], start: int) -> tuple[tuple[int, ...], int]:
        for i in range(start, len(base)):
            x = h[base[i]]
            if x == base[i]:
                continue
            if x not in transversals[i]:
                return h, i
            u = inverses[i][x]
            h = tuple([u[k] for k in h])
        return h, len(base)

    i = len(base) - 1
    while i >= 0:
        gens_i = level_gens(i)
        trans = transversals[i] = _orbit_words(gens_i, base[i], n)
        inv = inverses[i] = {x: _invert(t) for x, t in trans.items()}
        restart = None
        for x in sorted(trans):
            tx = trans[x]
            for s in gens_i:
                # t_x * s * t_{s(x)}^-1, applied left to right
                u = inv[s[x]]
                schreier = tuple([u[s[k]] for k in tx])
                if schreier == ident:
                    continue
                residue, j = sift_from(schreier, i + 1)
                if residue == ident:
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

    return BSGS(
        n,
        base,
        [_trusted(s) for s in strong],
        [{x: _trusted(t) for x, t in trans.items()} for trans in transversals],
    )


def closure(generators: Iterable[Permutation], cap: int) -> list[Permutation]:
    """Every element of the generated group, by breadth-first multiplication.

    Order is deterministic: word length first, then lexicographic images
    within a layer.  Raises :class:`CapacityError` if the group has more
    than ``cap`` elements; this is the brute-force oracle the BSGS engine
    is tested against, so it deliberately stays naive.
    """
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
