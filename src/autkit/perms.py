"""Permutations of {0..n-1} and machinery for small permutation groups.

Composition is left-to-right everywhere: ``(p * q)(x) == q(p(x))``.
Points are 0-based internally; cycle notation at the text boundary is
1-based, e.g. ``"(1 2 3)(4 5)"``, with ``"()"`` denoting the identity.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Iterable, Optional, Sequence

__all__ = [
    "Permutation",
    "BSGS",
    "CapacityError",
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
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> Permutation:
        """Product of disjoint cycles over the 1-based points 1..n.

        Points omitted from every cycle are fixed; an empty cycle list is
        the identity.
        """
        images = list(range(n))
        seen: set[int] = set()
        for cycle in cycles:
            try:
                # exact ints, as in __init__: a float or str point would
                # escape below as a TypeError
                cycle = list(map(operator.index, cycle))
            except TypeError:
                raise ValueError(f"cycle {cycle!r} is not a sequence of integer points") from None
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
        return cls.from_cycles(n, [list(map(int, group.split())) for group in _CYCLE_RE.findall(stripped)])

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


class BSGS:
    """Base and strong generating set, built by :func:`schreier_sims`
    (incremental Schreier-Sims: Seress, *Permutation Group Algorithms*,
    2003, ch. 4; Butler, LNCS 559, 1991).

    Level i has the base point ``base[i]``, the strong generators that fix
    ``base[:i]``, and for each point x of its fundamental orbit a word in
    them carrying ``base[i]`` to x, with the word's inverse.  The group
    order is the product of the fundamental orbit sizes.

    Every part only grows: generators are appended, orbits gain points,
    and a transversal word once set is never rewritten.

    A level whose orbit is still a single point costs nothing until a
    generator moves its point; when a residue fixes every base point, a
    new level starts at the smallest point the residue moves.
    """

    __slots__ = ("degree", "_identity", "_base", "_gens", "_words", "_inverses")

    def __init__(self, degree: int) -> None:
        if degree < 1:
            raise ValueError("permutation degree must be at least 1")
        self.degree = degree
        self._identity = tuple(range(degree))
        self._base: list[int] = []
        self._gens: list[list[tuple[int, ...]]] = []
        self._words: list[dict[int, tuple[int, ...]]] = []
        self._inverses: list[dict[int, tuple[int, ...]]] = []

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(self._base)

    @property
    def strong_generators(self) -> tuple[Permutation, ...]:
        """In the order they were added; all of them are level 0's."""
        return tuple(map(_trusted, self._gens[0])) if self._gens else ()

    @property
    def transversals(self) -> tuple[dict[int, Permutation], ...]:
        """``transversals[i][x]`` carries ``base[i]`` to x."""
        return tuple({x: _trusted(w) for x, w in words.items()} for words in self._words)

    def order(self) -> int:
        return math.prod(len(words) for words in self._words)

    def contains(self, p: Permutation) -> bool:
        """Whether ``p`` sifts through the transversals to the identity."""
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} vs {self.degree}")
        return self._sift(p.images, 0)[0] == self._identity

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    def __repr__(self) -> str:
        return f"BSGS(degree={self.degree}, base={list(self.base)}, order={self.order()})"

    def _extend(self, images: tuple[int, ...]) -> None:
        """Add the permutation with these images to the group; a member
        changes nothing.  Otherwise its sifted residue becomes a strong
        generator, and the Schreier condition is restored on the levels
        the residue lies in, from the deepest one up."""
        h, level = self._sift(images, 0)
        if h == self._identity:
            return
        self._add_generator(h, level)
        while level >= 0:
            found = self._schreier_residue(level)
            if found is None:
                level -= 1
            else:
                h, level = found
                self._add_generator(h, level)

    def _add_level(self, point: int) -> None:
        self._base.append(point)
        self._gens.append([])
        self._words.append({point: self._identity})
        self._inverses.append({point: self._identity})

    def _sift(self, h: tuple[int, ...], start: int) -> tuple[tuple[int, ...], int]:
        """Sift ``h`` from level ``start``; return the residue and the level
        it stopped at, ``len(base)`` when it passed every level."""
        base, inverses = self._base, self._inverses
        for i in range(start, len(base)):
            x = h[base[i]]
            if x != base[i]:
                u = inverses[i].get(x)
                if u is None:
                    return h, i
                h = tuple([u[k] for k in h])
        return h, len(base)

    def _add_generator(self, h: tuple[int, ...], level: int) -> None:
        """Append ``h``, which fixes ``base[:level]``, to levels 0..level
        and close their orbits under it; a level past the base starts at
        the smallest point ``h`` moves."""
        if level == len(self._base):
            self._add_level(next(x for x, y in enumerate(h) if x != y))
        for i in range(level + 1):
            gens, words, inverses = self._gens[i], self._words[i], self._inverses[i]
            gens.append(h)
            # old points need only the new generator, new points need all
            points = list(words)
            old = len(points)
            for k, x in enumerate(points):
                w = words[x]
                for s in (gens if k >= old else (h,)):
                    y = s[x]
                    if y not in words:
                        words[y] = word = tuple([s[c] for c in w])
                        inverses[y] = _invert(word)
                        points.append(y)

    def _schreier_residue(self, i: int) -> Optional[tuple[tuple[int, ...], int]]:
        """Sift every Schreier generator of level i; return the first residue
        other than the identity, with the level it stopped at, or None when
        all of them are members."""
        b, inverses, ident = self._base[i], self._inverses[i], self._identity
        for x, w in self._words[i].items():
            for s in self._gens[i]:
                if x == b and s[b] == b:
                    continue  # the Schreier generator is s, a deeper level's generator
                # t_x * s * t_{s(x)}^-1, applied left to right
                u = inverses[s[x]]
                schreier = tuple([u[s[c]] for c in w])
                if schreier != ident:
                    residue, level = self._sift(schreier, i + 1)
                    if residue != ident:
                        return residue, level
        return None


def schreier_sims(generators: Iterable[Permutation]) -> BSGS:
    """A BSGS for the generated group: a greedy base chosen up front, each
    point the smallest one moved by a generator that fixes the points
    before it, then extended by each generator in turn.  A base chosen
    from all the generators keeps the strong generating set small: on the
    39 generators the search finds for the edgeless graph with 40
    vertices, extending by each from an empty base would take 77 strong
    generators and twice the time.  Pass ``[Permutation.identity(n)]``
    for the trivial group; an empty generator list is an error."""
    gens, n = _validated(generators)
    group = BSGS(n)
    pool = [g.images for g in gens if not g.is_identity()]
    while pool:
        point = min(next(x for x, y in enumerate(g) if x != y) for g in pool)
        group._add_level(point)
        pool = [g for g in pool if g[point] == point]
    for g in gens:
        group._extend(g.images)
    return group


def closure(generators: Iterable[Permutation], cap: int) -> list[Permutation]:
    """Every element of the generated group, by breadth-first multiplication.

    Order is deterministic: word length first, then lexicographic images
    within a layer.  Raises :class:`CapacityError` if the group has more
    than ``cap`` elements.  It is the brute-force oracle the BSGS engine
    is tested against, so it deliberately stays naive; ``verify_petersen``
    also uses it to enumerate S5 and the image of phi.  The search runs on
    image tuples, w * g being ``g``'s images read at ``w``'s, and wraps
    each element in a ``Permutation`` only on return.
    """
    gens, n = _validated(generators)
    if cap < 1:
        raise ValueError("cap must be positive")
    images = [g.images for g in gens]
    ident = tuple(range(n))
    seen = {ident}
    elements = [ident]
    frontier = [ident]
    while frontier:
        layer: list[tuple[int, ...]] = []
        for w in frontier:
            for b in images:
                h = tuple(map(b.__getitem__, w))
                if h not in seen:
                    seen.add(h)
                    layer.append(h)
                    if len(seen) > cap:
                        raise CapacityError(f"group exceeds cap of {cap} elements")
        layer.sort()
        elements.extend(layer)
        frontier = layer
    return list(map(_trusted, elements))
