"""End-to-end certification that the Petersen graph's automorphism group is
the symmetric group on 5 elements.

The pipeline builds the subset model of the graph, pushes S5 into the
vertex permutations via the induced action on 3-subsets, checks that this
map is an injective homomorphism landing in the automorphism group, and
independently computes |Aut| by search (and optionally by exhaustive
scan).  An injective homomorphism between finite groups of equal order is
an isomorphism, so matching counts close the argument.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, Optional, TypeVar

from .graphs import (
    Graph,
    diameter,
    edge_count,
    girth,
    is_automorphism,
    is_regular,
    petersen_subsets,
    subsets,
)
from .perms import CapacityError, Permutation, _trusted, closure, schreier_sims
from .search import automorphisms, brute_force_automorphisms

__all__ = [
    "VerificationReport",
    "s5_generators",
    "induced_action",
    "check_homomorphism",
    "check_kernel_trivial",
    "verify_petersen",
]

S5_ORDER = 120

#: the 0-based members of each 3-subset of {1..5}, in vertex order, and
#: the vertex of each 3-subset by its bitmask over those members
_MEMBERS = tuple(tuple(m - 1 for m in s) for s in subsets(5, 3))
_VERTEX_OF_MASK = {sum(1 << m for m in members): v for v, members in enumerate(_MEMBERS)}

#: ``bytes.translate`` tables have one entry per byte value, so the byte
#: encoding of a permutation holds points 0..255 only
BYTE_POINTS = 256
_IDENTITY_TABLE = bytes(range(BYTE_POINTS))

Action = Callable[[Permutation], Permutation]
T = TypeVar("T")


def s5_generators() -> tuple[Permutation, Permutation]:
    """The standard generating pair of S5: (1 2) and (1 2 3 4 5)."""
    return (
        Permutation.from_cycles(5, [[1, 2]]),
        Permutation.from_cycles(5, [[1, 2, 3, 4, 5]]),
    )


def induced_action(g: Permutation) -> Permutation:
    """Push a permutation of {1..5} to the 10 vertices: the vertex for a
    3-subset A goes to the vertex for {g(a) : a in A}."""
    if g.degree != 5:
        raise ValueError(f"expected a degree-5 permutation, got degree {g.degree}")
    bit = [1 << x for x in g.images]
    # distinct 3-subsets go to distinct 3-subsets under the bijection g
    return _trusted(tuple([_VERTEX_OF_MASK[bit[a] | bit[b] | bit[c]] for a, b, c in _MEMBERS]))


def _phi_table(gens: list[Permutation], action: Action) -> tuple[list[Permutation], list[Permutation]]:
    """Every element of the group ``gens`` generate, in ``closure`` order,
    and its image under ``action``.  A group past ``BYTE_POINTS``
    elements raises ``CapacityError``: ``_cayley_rows`` holds an
    element's index in a byte."""
    elements = closure(gens, cap=BYTE_POINTS)
    return elements, [action(g) for g in elements]


def _phi_in_aut(graph: Graph, images: list[Permutation]) -> bool:
    """True iff every image is an automorphism of ``graph``."""
    return all(img.degree == graph.n and is_automorphism(graph, img) for img in images)


def _cayley_rows(g_bytes: list[bytes]) -> list[bytes]:
    """The multiplication table of a group given as byte strings:
    ``rows[k][j]`` is the index of ``g_k * g_j``, g_i being the
    permutation with the images ``g_bytes[i]``.

    Only the rows of a generating set are composed and looked up, the
    set picked greedily: each new generator is the first element whose
    row is not known yet.  Every other row is a known one read through a
    generator's row, as (s * x) * g == s * (x * g): with y the index of
    g_s * g_x, ``rows[y][j]`` is ``rows[s][rows[x][j]]``, one
    ``bytes.translate``.  The group must be whole, so that every product
    is one of its elements, and have at most 256 elements, so that an
    index fits in a byte.  S5 in ``closure`` order takes two rows of
    lookups.
    """
    n = len(g_bytes)
    index = {g: k for k, g in enumerate(g_bytes)}
    tables = [g + _IDENTITY_TABLE[len(g):] for g in g_bytes]
    # b"" marks a row not known yet; the identity's reads j at j
    rows = [b""] * n
    rows[index[_IDENTITY_TABLE[:len(g_bytes[0])]]] = bytes(range(n))
    generators = []
    for new in range(n):
        if rows[new]:
            continue
        rows[new] = row = bytes([index[g_bytes[new].translate(t)] for t in tables])
        generators.append((row, row + _IDENTITY_TABLE[n:]))
        known = [x for x in range(n) if rows[x]]
        for x in known:
            for s, s_table in generators:
                y = s[x]
                if not rows[y]:
                    rows[y] = rows[x].translate(s_table)
                    known.append(y)
    return rows


def _homomorphism_pairs(elements: list[Permutation], images: list[Permutation]) -> tuple[bool, int]:
    """Check phi(g * h) == phi(g) * phi(h) over every ordered pair of
    ``elements``, where ``images[i]`` is phi(elements[i]); the result is
    ``check_homomorphism``'s.  ``elements`` is a whole group in
    ``closure`` order, identity first, so every product is one of them
    and ``_cayley_rows`` gives the index of each g * h.

    Permutations are held as byte strings, so a degree past
    ``BYTE_POINTS`` raises ``CapacityError`` before any pair is compared.
    Row 0 is checked pair by pair first.  With g_0 the identity, a row 0
    that fails fails first at the first image of another degree than
    phi(g_0), if not before, as the pair-by-pair reference does.  A row 0
    that holds proves every image of phi(g_0)'s degree d, since g_0 * h
    runs over the whole group as h does.

    Then all pairs are checked together at one point x at a time, as two
    byte strings of one byte per pair, in pair order.  The joined rows
    hold the index of g * h at g's index * n + h's index, n being the
    group's order; read through x's point column (phi(elements[k])[x] for
    every k, as a ``bytes.translate`` table) they give phi(g * h)[x] for
    every pair.  With p * q applying p first, (phi(g) * phi(h))[x] is
    phi(h)[phi(g)[x]], so the point columns named by x's point column,
    joined, give the other side.  That is d translates and d joins of n
    columns; the first failing pair is the least mismatch position over
    the points.
    """
    degree = max(p.degree for p in (*elements, *images))
    if degree > BYTE_POINTS:
        raise CapacityError(
            f"byte-table composition has a {BYTE_POINTS}-point limit; got a permutation of degree {degree}"
        )
    rows = _cayley_rows([bytes(g.images) for g in elements])
    phi_bytes = [bytes(img.images) for img in images]
    n = len(elements)
    first = phi_bytes[0]
    for j, phi_h in enumerate(phi_bytes):
        if phi_bytes[rows[0][j]] != first.translate(phi_h + _IDENTITY_TABLE[len(phi_h):]):
            return False, j + 1
    d = len(first)
    all_phi = b"".join(phi_bytes)
    points = [all_phi[x::d] for x in range(d)]
    table = b"".join(rows)
    failures = []
    for point in points:
        lhs = table.translate(point + _IDENTITY_TABLE[n:])
        rhs = b"".join(map(points.__getitem__, point))
        if lhs != rhs:
            # the XOR's highest set bit lies in the first differing byte, so
            # its length in bytes counts that byte and every byte after it
            diff = int.from_bytes(lhs, "big") ^ int.from_bytes(rhs, "big")
            failures.append(n * n - (diff.bit_length() + 7) // 8 + 1)
    return (False, min(failures)) if failures else (True, n * n)


def _kernel_trivial(elements: list[Permutation], images: list[Permutation]) -> bool:
    """True iff no element but the identity has the degree-10 identity as
    its image (``images[i]`` is phi(elements[i]))."""
    ident10 = tuple(range(10))
    return all(g.is_identity() for g, img in zip(elements, images) if img.images == ident10)


def check_homomorphism(
    generators: Optional[Iterable[Permutation]] = None,
    action: Action = induced_action,
) -> tuple[bool, int]:
    """Check action(g * h) == action(g) * action(h) for every pair of the
    group the generators generate (14,400 pairs for S5).

    Pairs run with g outer and h inner, in ``closure`` order, and every
    pair is checked, none inferred.  The result is ``(True, pairs
    checked)``, or ``(False, k)`` for the first failing pair, k being its
    1-based position in this order.  A pair whose images differ in degree
    fails.  A group of more than 256 elements, or an element or image of
    degree past 256, raises ``CapacityError`` before any pair is compared.
    """
    gens = list(generators) if generators is not None else list(s5_generators())
    return _homomorphism_pairs(*_phi_table(gens, action))


def check_kernel_trivial(action: Action = induced_action) -> bool:
    """True iff the identity of S5 is the only element acting trivially,
    checked exhaustively over all 120 elements."""
    return _kernel_trivial(*_phi_table(list(s5_generators()), action))


@dataclass
class VerificationReport:
    """Machine form of the verification run; serializes with exactly these
    keys (timings hold wall-clock seconds per phase; ``build_graph``
    covers the graph and phi's table, every element of S5 with its image,
    which the later phases read)."""

    graph_stats: dict
    phi_generator_images: dict[str, str]
    homomorphism_checked: int
    kernel_trivial: bool
    image_order: int
    aut_order_search: int
    aut_order_brute: Optional[int]
    verdict: str
    timings: dict[str, float]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def _timed(
    timings: dict[str, float], key: str, check: Callable[[], T], faults: tuple = (), fallback: Any = None
) -> T:
    """``check()``, its wall time recorded under ``key``; one of ``faults`` gives ``fallback`` instead."""
    t0 = time.perf_counter()
    try:
        return check()
    except faults:
        return fallback
    finally:
        timings[key] = time.perf_counter() - t0


def verify_petersen(
    run_brute: bool = False,
    graph: Optional[Graph] = None,
    action: Action = induced_action,
) -> VerificationReport:
    """Run the whole certification pipeline and report the verdict.

    ``graph`` and ``action`` may be overridden to probe mutations.  A
    fault a probe causes gives its check's fallback, a value the verdict
    fails (``(False, 0)`` pairs, or 0 for an order), never an exception.
    """
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    g = graph if graph is not None else petersen_subsets()
    stats = {
        "n": g.n,
        "edges": edge_count(g),
        "regular_degree": is_regular(g),
        "girth": girth(g),
        "diameter": diameter(g),
    }
    s, t = s5_generators()
    elements, images = _phi_table([s, t], action)
    phi = dict(zip(elements, images))
    timings["build_graph"] = time.perf_counter() - t0

    # given the homomorphism, which the verdict needs, all 120 images are products
    # of these two of one degree (row 0's pass), so Aut holds all iff it holds both
    all_automorphisms = _timed(timings, "phi_automorphisms", lambda: _phi_in_aut(g, [phi[s], phi[t]]))
    phi_images = {x.cycle_string(): phi[x].cycle_string() for x in (s, t)}
    # a permutation past the byte tables' 256 points; no pair compared
    hom_ok, pairs = _timed(
        timings, "homomorphism", lambda: _homomorphism_pairs(elements, images), (CapacityError,), (False, 0)
    )
    kernel_ok = _timed(timings, "kernel", lambda: _kernel_trivial(elements, images))
    # corrupted actions can generate something huge (CapacityError) or mix
    # image degrees (ValueError)
    image_order = _timed(
        timings, "image_order", lambda: len(closure([phi[s], phi[t]], cap=1000)), (CapacityError, ValueError), 0
    )
    # the search and the scan need a vertex; the scan has a vertex cap
    aut_order_search = _timed(
        timings, "aut_search", lambda: schreier_sims(automorphisms(g)[0]).order() if g.n else 0
    )
    aut_order_brute: Optional[int] = None
    if run_brute:
        aut_order_brute = _timed(
            timings, "brute_force", lambda: len(brute_force_automorphisms(g)) if g.n else 0, (CapacityError,), 0
        )

    verified = (
        all_automorphisms
        and hom_ok
        and kernel_ok
        and image_order == S5_ORDER
        and aut_order_search == S5_ORDER
        and (aut_order_brute is None or aut_order_brute == S5_ORDER)
    )

    return VerificationReport(
        graph_stats=stats,
        phi_generator_images=phi_images,
        homomorphism_checked=pairs,
        kernel_trivial=kernel_ok,
        image_order=image_order,
        aut_order_search=aut_order_search,
        aut_order_brute=aut_order_brute,
        verdict="VERIFIED" if verified else "FALSIFIED",
        timings=timings,
    )
