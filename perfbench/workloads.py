"""Inputs and independent output checks for the autkit benchmark.

Nothing here imports autkit.  Graphs are built from edge lists, written as
graph6 by this module's own encoder, and every output is checked against
adjacency with this module's own code, so a bug in autkit cannot make a
wrong answer look right.

Three workloads stress different parts of the search (McKay & Piperno,
*Practical Graph Isomorphism II*, 2014: pruning helps symmetric graphs and
does nothing for rigid ones):

* ``petersen-certify``: the paper's headline certification, dominated by
  the 14,400-pair homomorphism check and permutation products.
* ``symmetric-aut-canon``: ``aut`` then ``canon`` on relabelled copies of
  five highly symmetric graphs, where the search tree is as wide as
  |Aut| (120 to 5,040 leaves).  K(7,3), J(7,3,1) and edgeless graphs with
  n >= 8 are left out on purpose: one op takes 6 s to hours while the
  search is unpruned.
* ``rigid-cubic-iso``: ``iso`` on random cubic graphs with 36 vertices,
  which are almost surely rigid, so refinement does all the work and
  pruning has nothing to skip.
"""

from __future__ import annotations

import json
import random
import re
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Optional

#: (exit code, stdout, stderr) of one ``autkit.cli.main`` call
CallResult = tuple[object, str, str]
#: returns None when the outputs are right, else what is wrong
Check = Callable[[list[CallResult], Optional[str]], Optional[str]]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on 0..n-1; edges are (u, v) with u < v."""

    n: int
    edges: frozenset[tuple[int, int]]

    def neighbours(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            out[u].append(v)
            out[v].append(u)
        return out


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: ``autkit.cli.main`` calls run back to
    back, then ``check`` on their results (and on the report file, if the
    op writes one)."""

    calls: tuple[tuple[str, ...], ...]
    check: Check
    report: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    """Ops are run in order, round robin.  A run stops only after a whole
    ``cycle``, so every input kind gets an equal share of the ops.  The
    traced run cycles over the first ``trace_ops`` ops only, so its work
    counts are the same however many cycles fit in the time."""

    ops: list[Op]
    cycle: int
    trace_ops: int


# ---------------------------------------------------------------- graphs


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def subset_graph(n: int, k: int, meet: int) -> Graph:
    """k-subsets of {1..n} in lexicographic order, adjacent iff they share
    exactly ``meet`` elements: K(n, k) is meet 0, J(n, k, t) is meet t."""
    sets = [frozenset(c) for c in combinations(range(1, n + 1), k)]
    edges = frozenset(
        (i, j)
        for i in range(len(sets))
        for j in range(i + 1, len(sets))
        if len(sets[i] & sets[j]) == meet
    )
    return Graph(len(sets), edges)


def petersen_classic() -> Graph:
    """Outer 5-cycle, inner pentagram, five spokes."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, frozenset(_edge(u, v) for u, v in outer + inner + spokes))


def relabel(g: Graph, images: list[int]) -> Graph:
    """The copy of g in which vertex v is called ``images[v]``."""
    return Graph(g.n, frozenset(_edge(images[u], images[v]) for u, v in g.edges))


def random_permutation(rng: random.Random, n: int) -> list[int]:
    images = list(range(n))
    rng.shuffle(images)
    return images


def random_cubic(rng: random.Random, n: int) -> Graph:
    """Uniform random simple 3-regular graph on n vertices (pairing model,
    rejecting pairings with loops or multiple edges)."""
    if n % 2 or n < 4:
        raise ValueError("a cubic graph needs an even n >= 4")
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = list(zip(points[::2], points[1::2]))
        edges = frozenset(_edge(u, v) for u, v in pairs)
        if len(edges) == len(pairs) and all(u != v for u, v in pairs):
            return Graph(n, edges)


def distance_invariant(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Sorted per-vertex BFS distance histograms.  Relabelling cannot change
    it, so two graphs whose invariants differ are not isomorphic."""
    nbrs = g.neighbours()
    hists = []
    for s in range(g.n):
        dist = [-1] * g.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in nbrs[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        hist = [0] * (max(dist) + 2)
        for d in dist:
            hist[d] += 1  # unreachable vertices land in the last slot
        hists.append(tuple(hist))
    return tuple(sorted(hists))


def graph6(g: Graph) -> str:
    """Short-form graph6: n + 63, then the upper triangle column by column,
    six bits per character, MSB first."""
    if not 0 <= g.n <= 62:
        raise ValueError("graph6 short form holds at most 62 vertices")
    bits = [int((i, j) in g.edges) for j in range(1, g.n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k:k + 6]:
            value = (value << 1) | b
        chars.append(chr(value + 63))
    return "".join(chars)


# ---------------------------------------------------------------- checks

_CYCLES_RE = re.compile(r"\(\)|(?:\(\d+(?: \d+)+\))+")


def parse_cycles(n: int, text: str) -> tuple[int, ...]:
    """0-based image tuple of 1-based cycle notation such as ``(1 2 3)(4 5)``;
    ``()`` is the identity.  Raises ValueError on anything else."""
    if not _CYCLES_RE.fullmatch(text):
        raise ValueError(f"not cycle notation: {text!r}")
    images = list(range(n))
    seen: set[int] = set()
    for cycle in re.findall(r"\(([\d ]+)\)", text):
        points = [int(tok) - 1 for tok in cycle.split()]
        for p in points:
            if not 0 <= p < n or p in seen:
                raise ValueError(f"bad or repeated point {p + 1} in {text!r}")
            seen.add(p)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return tuple(images)


def parse_mapping(n: int, text: str) -> tuple[int, ...]:
    """0-based images of an ``iso`` mapping line ``1->a 2->b ... n->z``."""
    tokens = text.split()
    if len(tokens) != n:
        raise ValueError(f"expected {n} mapping entries, got {len(tokens)}")
    images = []
    for v, token in enumerate(tokens):
        src, sep, dst = token.partition("->")
        if not sep or src != str(v + 1) or not dst.isdigit():
            raise ValueError(f"bad mapping entry {token!r}")
        images.append(int(dst) - 1)
    if sorted(images) != list(range(n)):
        raise ValueError("mapping is not a bijection")
    return tuple(images)


def maps_onto(a: Graph, b: Graph, images: tuple[int, ...]) -> bool:
    """True iff the bijection ``images`` carries a's edges exactly onto b's."""
    return (
        sorted(images) == list(range(a.n))
        and len(a.edges) == len(b.edges)
        and all(_edge(images[u], images[v]) in b.edges for u, v in a.edges)
    )


def group_order(gens: list[tuple[int, ...]], cap: int) -> int:
    """Size of the generated group by breadth-first closure, stopping once
    it exceeds ``cap``."""
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    frontier = [ident]
    while frontier and len(seen) <= cap:
        layer = []
        for p in frontier:
            for g in gens:
                q = tuple(g[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    layer.append(q)
        frontier = layer
    return len(seen)


def percentile(samples: list[float], pct: int) -> float:
    """Nearest-rank ``pct``-th percentile.  Refuses unless at least ten
    samples lie beyond it, so p90 needs 100 samples and p50 needs 20."""
    n = len(samples)
    rank = -(-pct * n // 100)
    if n - rank < 10:
        raise ValueError(f"p{pct} needs ten samples beyond it; {n} samples give {n - rank}")
    return sorted(samples)[rank - 1]


def _exit_error(results: list[CallResult], expected: list[int]) -> Optional[str]:
    codes = [rc for rc, _, _ in results]
    if codes != expected:
        stderr = " | ".join(err.strip() for _, _, err in results if err.strip())
        return f"exit codes {codes}, expected {expected}" + (f": {stderr}" if stderr else "")
    return None


# ---------------------------------------------------------------- workloads

#: ``verify-petersen --brute`` stdout at the commit that defined the benchmark
PETERSEN_STDOUT = """\
graph: n=10 edges=15 regular_degree=3 girth=5 diameter=2
phi[(1 2)] = (4 7)(5 8)(6 9)
phi[(1 2 3 4 5)] = (1 7 10 6 3)(2 8 4 9 5)
homomorphism pairs checked: 14400
kernel trivial: yes
image order 120
search order 120
brute order 120
VERIFIED
"""

_PETERSEN_REPORT = {
    "verdict": "VERIFIED",
    "homomorphism_checked": 14400,
    "kernel_trivial": True,
    "image_order": 120,
    "aut_order_search": 120,
    "aut_order_brute": 120,
}


def _check_petersen(results: list[CallResult], report: Optional[str]) -> Optional[str]:
    err = _exit_error(results, [0])
    if err:
        return err
    if results[0][1] != PETERSEN_STDOUT:
        return "verify-petersen stdout differs from the pinned text"
    try:
        data = json.loads(report or "")
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    for key, want in _PETERSEN_REPORT.items():
        if data.get(key) != want:
            return f"report {key} = {data.get(key)!r}, expected {want!r}"
    return None


def petersen_certify(seed: int, workdir: Path) -> Workload:
    # The certification has no graph input; the seed changes nothing.
    report = str(workdir / "report.json")
    op = Op((("verify-petersen", "--brute", "--json", report),), _check_petersen, report)
    return Workload([op], cycle=1, trace_ops=1)


#: (name, graph, |Aut|, pinned canonical certificate)
SYMMETRIC_GRAPHS = (
    ("petersen-subsets", subset_graph(5, 3, 1), 120, "n=10:e0180c0d4a60"),
    ("petersen-classic", petersen_classic(), 120, "n=10:e0180c0d4a60"),
    ("kneser-6-2", subset_graph(6, 2, 0), 720, "n=15:fc021e001f33033e19e2a54b4600"),
    ("johnson-6-2-1", subset_graph(6, 2, 1), 720, "n=15:ff03670e4d3e0e6caa5d52fdaf80"),
    ("edgeless-7", Graph(7, frozenset()), 5040, "n=7:000000"),
)
SYMMETRIC_RELABELLINGS = 8


def _aut_canon_check(g: Graph, order: int, cert: str) -> Check:
    def check(results: list[CallResult], report: Optional[str]) -> Optional[str]:
        err = _exit_error(results, [0, 0])
        if err:
            return err
        lines = results[0][1].splitlines()
        if not lines or lines[-1] != f"order {order}":
            return f"aut did not end with 'order {order}'"
        try:
            gens = [parse_cycles(g.n, line) for line in lines[:-1]]
        except ValueError as exc:
            return f"aut: {exc}"
        if not gens:
            return "aut printed no generators"
        for gen, line in zip(gens, lines):
            if not maps_onto(g, g, gen):
                return f"aut generator {line} is not an automorphism"
        if group_order(gens, order) != order:
            return f"aut generators do not generate a group of order {order}"
        if results[1][1] != cert + "\n":
            return f"canon printed {results[1][1].strip()!r}, expected {cert!r}"
        return None

    return check


def symmetric_aut_canon(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"symmetric-aut-canon/{seed}")
    ops = []
    for r in range(SYMMETRIC_RELABELLINGS):
        for name, base, order, cert in SYMMETRIC_GRAPHS:
            g = relabel(base, random_permutation(rng, base.n))
            path = workdir / f"{name}-{r}.g6"
            path.write_text(graph6(g) + "\n", encoding="ascii")
            ops.append(Op((("aut", str(path)), ("canon", str(path))), _aut_canon_check(g, order, cert)))
    return Workload(ops, cycle=len(SYMMETRIC_GRAPHS), trace_ops=len(SYMMETRIC_GRAPHS))


CUBIC_VERTICES = 36
CUBIC_PAIRS = 64  # of each kind; about one pass per run, so no pair repeats much


def _iso_check(a: Graph, b: Graph) -> Check:
    def check(results: list[CallResult], report: Optional[str]) -> Optional[str]:
        err = _exit_error(results, [0])
        if err:
            return err
        try:
            images = parse_mapping(a.n, results[0][1].strip())
        except ValueError as exc:
            return f"iso: {exc}"
        if not maps_onto(a, b, images):
            return "iso mapping does not carry edges onto edges"
        return None

    return check


def _non_iso_check(results: list[CallResult], report: Optional[str]) -> Optional[str]:
    err = _exit_error(results, [1])
    if err:
        return err
    if results[0][1] != "non-isomorphic\n":
        return f"iso printed {results[0][1].strip()!r} for a non-isomorphic pair"
    return None


def cubic_pairs(seed: int) -> list[tuple[Graph, Graph, bool]]:
    """Alternating (A, relabelled A, True) and (C, D, False) with D drawn
    until ``distance_invariant`` proves it non-isomorphic to C."""
    rng = random.Random(f"rigid-cubic-iso/{seed}")
    pairs = []
    for _ in range(CUBIC_PAIRS):
        a = random_cubic(rng, CUBIC_VERTICES)
        pairs.append((a, relabel(a, random_permutation(rng, a.n)), True))
        c = random_cubic(rng, CUBIC_VERTICES)
        inv = distance_invariant(c)
        d = random_cubic(rng, CUBIC_VERTICES)
        while distance_invariant(d) == inv:
            d = random_cubic(rng, CUBIC_VERTICES)
        pairs.append((c, d, False))
    return pairs


def rigid_cubic_iso(seed: int, workdir: Path) -> Workload:
    ops = []
    for i, (a, b, iso) in enumerate(cubic_pairs(seed)):
        paths = []
        for side, g in (("a", a), ("b", b)):
            path = workdir / f"cubic-{i}{side}.g6"
            path.write_text(graph6(g) + "\n", encoding="ascii")
            paths.append(str(path))
        ops.append(Op((("iso", *paths),), _iso_check(a, b) if iso else _non_iso_check))
    return Workload(ops, cycle=2, trace_ops=8)


_REFERENCE_GRAPH = random_cubic(random.Random(0), CUBIC_VERTICES)
_S5_GENERATORS = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]


def reference_work() -> None:
    """Fixed pure-Python work in the program's style: BFS over lists and
    a deque, tuple products, set lookups.  It never changes, so its time
    measures how fast the machine runs Python at that moment."""
    for _ in range(5):
        distance_invariant(_REFERENCE_GRAPH)
    group_order(_S5_GENERATORS, 120)


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "petersen-certify": petersen_certify,
    "symmetric-aut-canon": symmetric_aut_canon,
    "rigid-cubic-iso": rigid_cubic_iso,
}
