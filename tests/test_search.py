import itertools
import json
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autkit import (
    CapacityError,
    Graph,
    Permutation,
    are_isomorphic,
    automorphisms,
    brute_force_automorphisms,
    canonical_form,
    closure,
    edge_count,
    graph6_decode,
    graph6_encode,
    is_automorphism,
    is_connected,
    johnson_general,
    kneser,
    permute_graph,
    petersen_classic,
    petersen_subsets,
    refine,
    schreier_sims,
)

import autkit.search as search
import reference_perms
import reference_search
from conftest import all_masks, graph_from_mask, random_cubic, random_graph, run_cli
from reference_graphs import latin_square, latin_square_graph
from test_cfi import BASES as CFI_BASES, cfi, expected_order as expected_cfi_order
from unpruned_search import unpruned_search

PETERSEN_CERT = "n=10:e0180c0d4a60"

#: the exact leaf counts of named searches, kept next to the benchmark's medians
COUNTS = json.loads(Path(__file__).resolve().parent.parent.joinpath("BENCH_counts.json").read_text("utf-8"))


def shuffled(g, rng):
    images = list(range(g.n))
    rng.shuffle(images)
    return permute_graph(g, Permutation(images))


def upper_bits(g, relabeling):
    # re-derive the certificate bitstring independently of the search code
    h = permute_graph(g, relabeling)
    bits = []
    for i in range(h.n):
        for j in range(i + 1, h.n):
            bits.append((h.adj[i] >> j) & 1)
    out = bytearray()
    for start in range(0, len(bits), 8):
        chunk = bits[start:start + 8]
        chunk += [0] * (8 - len(chunk))
        out.append(int("".join(map(str, chunk)), 2))
    return bytes(out)


# ----------------------------------------------------------- partitions


def test_partition_validation(petersen):
    # an empty cell, a repeated vertex, one out of range, a cell or cells
    # that are not iterable
    for cells in (
        (tuple(range(10)), ()),
        ((0,), (), tuple(range(1, 10))),
        (tuple(range(10)), (9,)),
        (tuple(range(9)), (-1,)),
        (tuple(range(9)), 9),
        10,
    ):
        with pytest.raises(ValueError, match=r"^cells are not a partition of range\(10\) into nonempty cells$"):
            refine(petersen, cells)


def test_partition_rejects_non_integer_vertices(petersen):
    # 0.0 == 0 and would pass the other checks; '9' would fail in sorted()
    for cell in ((0.0, *range(1, 10)), (*range(9), "9")):
        with pytest.raises(ValueError, match="are not a partition"):
            refine(petersen, (cell,))


# ----------------------------------------------------------- refinement


def test_refine_regular_graph_does_not_split(petersen):
    assert refine(petersen, [range(10)]) == (tuple(range(10)),)


def test_refine_path3_splits_by_degree():
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    # middle vertex has the larger neighbour count, so its fragment leads
    assert refine(path3, [range(3)]) == ((1,), (0, 2))


def test_refine_discrete_is_fixed():
    g = Graph.from_edges(3, [(0, 1)])
    p = ((0,), (1,), (2,))
    assert refine(g, p) == p


def test_refine_rejects_partitions_of_wrong_set(petersen):
    with pytest.raises(ValueError):
        refine(petersen, [range(9)])


def equitable(g, p):
    masks = [0] * len(p)
    for idx, cell in enumerate(p):
        for v in cell:
            masks[idx] |= 1 << v
    for cell in p:
        for mask in masks:
            counts = {(g.adj[v] & mask).bit_count() for v in cell}
            if len(counts) != 1:
                return False
    return True


def random_partition(rng, n):
    vertices = list(range(n))
    rng.shuffle(vertices)
    cells = []
    while vertices:
        take = rng.randint(1, len(vertices))
        cells.append(tuple(vertices[:take]))
        vertices = vertices[take:]
    return tuple(cells)


def test_refine_is_equitable_idempotent_never_coarsens():
    rng = random.Random(30)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 9))
        start = random_partition(rng, g.n)
        p = refine(g, start)
        assert equitable(g, p)
        assert refine(g, p) == p
        assert len(p) >= len(start)
        # every output cell sits inside one input cell
        for cell in p:
            assert any(set(cell) <= set(orig) for orig in start)


def test_refine_cells_matches_reference_random():
    rng = random.Random(37)
    for _ in range(5000):
        n = rng.randint(1, 16)
        g = random_graph(rng, n, rng.choice((0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)))
        p = random_partition(rng, n)
        assert list(refine(g, p)) == reference_search._refine_cells(g, list(p))


@settings(max_examples=300)
@given(data=st.data())
def test_refine_cells_matches_reference_property(data):
    n = data.draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, [e for e in pairs if data.draw(st.booleans())])
    order = data.draw(st.permutations(range(n)))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1))) if n > 1 else set())
    bounds = [0, *cuts, n]
    cells = [tuple(order[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert list(refine(g, cells)) == reference_search._refine_cells(g, cells)


# a seeded random cubic graph on 36 vertices (pairing model); it is rigid,
# and individualizing any one vertex refines all the way to a leaf
CUBIC_36 = graph6_decode(
    "c??AI???C@?IGG??A??C?@C??C?OP?OC?_??????_?????C@?AA_???P???_?A_A??WA??OCO?@??G????a?O?C_??OS??A??A?CC??A?G"
)


def mask_state(n, cells):
    """``masks``, ``end``, ``dirty`` and ``multi`` of ``_refine`` for the
    ordered cells of a partition of range(n), with every cell dirty."""
    masks, end, dirty = [0] * n, [0] * n, [False] * n
    multi = start = 0
    for cell in cells:
        masks[start] = sum(1 << v for v in cell)
        end[start] = start + len(cell)
        dirty[start] = True
        multi |= (len(cell) > 1) << start
        start += len(cell)
    return masks, end, dirty, multi


def mask_cells(masks, end):
    """The cells of a mask partition, in order, each in ascending order."""
    cells = []
    i = 0
    while i < len(masks):
        cells.append(tuple(search._members(masks[i])))
        i = end[i]
    return cells


def test_refine_matches_reference_on_random_partitions():
    # _refine itself, from the two kinds of start it gets: an ordered
    # partition with every cell dirty, as refine() passes it, and an
    # equitable one with a vertex individualized and only {v} dirty, as
    # the search passes a child; the trace, the returned cell count and
    # multi-vertex cells and the flags left must match as well as the
    # cells.  A mask holds no vertex order, so each cell is sorted, the
    # order every cell of the search keeps.
    rng = random.Random(41)
    for k in range(4000):
        n = rng.randint(1, 16)
        if k % 4 == 3 and n % 2 == 0 and n >= 4:
            g = random_cubic(rng, n)
        else:
            g = random_graph(rng, n, rng.choice((0.1, 0.25, 0.5, 0.75, 0.9)))
        cells = [tuple(sorted(cell)) for cell in random_partition(rng, n)]
        start = None
        if k % 2:
            cells = list(refine(g, cells))
            wide = [t for t, cell in enumerate(cells) if len(cell) > 1]
            if wide:
                t = rng.choice(wide)
                v = rng.choice(cells[t])
                cells[t:t + 1] = [(v,), tuple(u for u in cells[t] if u != v)]
                start = sum(map(len, cells[:t]))
        masks, end, dirty, multi = mask_state(n, cells)
        i = 0
        if start is not None:
            dirty[:] = [False] * n
            dirty[start] = True
            i = start
        trace = []
        count, multi = search._refine(g.adj, masks, end, dirty, multi, i, len(cells), trace)
        want_trace = []
        want = reference_search._refine_cells(g, cells, want_trace)
        assert mask_cells(masks, end) == want
        assert trace == want_trace
        assert (count, multi) == (len(want), mask_state(n, want)[3])
        assert not any(dirty)


@pytest.mark.parametrize(
    "g",
    [
        kneser(6, 2), johnson_general(6, 2, 1), kneser(7, 3), CUBIC_36, cfi(CFI_BASES["K4"][0]),
        Graph(12, (0,) * 12), latin_square_graph(latin_square(5, 1)),
    ],
    ids=["K(6,2)", "J(6,2,1)", "K(7,3)", "cubic-36", "CFI(K4)", "edgeless-12", "latin-5-1"],
)
def test_refine_cells_matches_reference_on_search_partitions(g, monkeypatch):
    # The search refines a child from the one cell individualization
    # makes, {v}; the reference rescans every splitter of the same cells.
    calls = []
    fast = search._refine

    def recording(adj, masks, end, dirty, multi, i, cells, trace, expect=None):
        before = mask_cells(masks, end)
        count, out_multi = fast(adj, masks, end, dirty, multi, i, cells, trace, expect)
        calls.append((before, multi, cells, mask_cells(masks, end), trace[:], count, out_multi, any(dirty)))
        return count, out_multi

    monkeypatch.setattr(search, "_refine", recording)
    canonical_form(g)
    assert len(calls) > 1
    for before, multi, cells, out, trace, count, out_multi, left_dirty in calls:
        want_trace = []
        assert out == reference_search._refine_cells(g, before, want_trace)
        assert trace == want_trace
        assert (cells, count) == (len(before), len(out))
        assert (multi, out_multi) == (mask_state(g.n, before)[3], mask_state(g.n, out)[3])
        assert not left_dirty


# --------------------------------------------------------- leaf certificate


def test_cert_bytes_matches_reference():
    rng = random.Random(38)
    padded = set()
    for n in range(1, 41):
        padded.add(n * (n - 1) // 2 % 8 != 0)
        for p in (0.0, 0.1, 0.5, 1.0):
            g = random_graph(rng, n, p)
            for _ in range(3):
                order = list(range(n))
                rng.shuffle(order)
                nbrs = [g.neighbors(v) for v in range(n)]
                assert search._cert_bytes(nbrs, order) == reference_search._cert_bytes(g, order)
    # both whole-byte bit counts (n = 1, 16, 17, 32, 33) and padded ones
    assert padded == {False, True}


# --------------------------------------------------------- automorphisms


def test_automorphism_group_petersen_has_order_120(petersen):
    gens = automorphisms(petersen)[0]
    assert all(is_automorphism(petersen, g) for g in gens)
    assert schreier_sims(gens).order() == 120


def test_automorphism_group_cycle5_is_dihedral():
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert schreier_sims(automorphisms(c5)[0]).order() == 10


def test_automorphism_group_edge():
    p2 = Graph.from_edges(2, [(0, 1)])
    assert schreier_sims(automorphisms(p2)[0]).order() == 2


def test_automorphism_group_rigid_graph_yields_identity():
    # smallest rigid tree: the 7-vertex "spider" with legs 1, 2, 3
    g = Graph.from_edges(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
    gens = automorphisms(g)[0]
    assert gens == (Permutation.identity(7),)


def test_automorphism_group_is_deterministic(petersen):
    assert automorphisms(petersen)[0] == automorphisms(petersen)[0]


def test_automorphism_group_soundness_random():
    rng = random.Random(31)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 8))
        for gen in automorphisms(g)[0]:
            assert is_automorphism(g, gen)


def test_completeness_vs_brute_force_exhaustive_n4():
    for n in range(1, 5):
        for mask in all_masks(n):
            g = graph_from_mask(n, mask)
            have = set(closure(list(automorphisms(g)[0]), cap=math.factorial(n)))
            want = set(brute_force_automorphisms(g))
            assert have == want


def test_completeness_vs_brute_force_random_corpus():
    rng = random.Random(32)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 7))
        have = set(closure(list(automorphisms(g)[0]), cap=math.factorial(g.n)))
        want = set(brute_force_automorphisms(g))
        assert have == want


def test_completeness_vs_brute_force_petersen(petersen):
    have = set(closure(list(automorphisms(petersen)[0]), cap=1000))
    assert have == set(brute_force_automorphisms(petersen))


# ------------------------------------------------------- canonical form


def test_canonical_form_invariance_under_relabeling(petersen):
    rng = random.Random(33)
    base = canonical_form(petersen).certificate
    for _ in range(50):
        assert canonical_form(shuffled(petersen, rng)).certificate == base


def test_canonical_form_of_all_three_constructions_agree():
    certs = {
        canonical_form(g).certificate
        for g in (petersen_subsets(), petersen_classic(), kneser(5, 2), johnson_general(5, 3, 1))
    }
    assert len(certs) == 1


def test_canonical_form_distinguishes_nonisomorphic():
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    p5 = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
    assert canonical_form(c5).certificate != canonical_form(p5).certificate


def test_canonical_form_relabeling_realizes_certificate(petersen):
    rng = random.Random(34)
    for g in (petersen, shuffled(petersen, rng), random_graph(rng, 7)):
        cf = canonical_form(g)
        assert upper_bits(g, cf.relabeling) == cf.certificate


def test_certificate_text_is_stable(petersen):
    assert canonical_form(petersen).text() == PETERSEN_CERT
    assert canonical_form(Graph(1, (0,))).text() == "n=1:"


# ----------------------------------------------------------- isomorphism


def test_are_isomorphic_subsets_vs_classic(petersen):
    sigma = are_isomorphic(petersen, petersen_classic())
    assert sigma is not None
    assert permute_graph(petersen, sigma).adj == petersen_classic().adj


def test_are_isomorphic_self_gives_automorphism(petersen):
    sigma = are_isomorphic(petersen, petersen)
    assert sigma is not None
    assert is_automorphism(petersen, sigma)


def test_are_isomorphic_distinguishes_edge_counts(petersen):
    assert are_isomorphic(petersen, johnson_general(5, 3, 2)) is None


def test_are_isomorphic_random_relabelings():
    rng = random.Random(35)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8))
        h = shuffled(g, rng)
        sigma = are_isomorphic(g, h)
        assert sigma is not None
        assert permute_graph(g, sigma).adj == h.adj


def iso_corpus(family):
    """Pairs of graphs for the differential test of ``are_isomorphic``,
    seeded by the family name: relabelled copies, and independent draws
    with as many vertices and edges, so that the search decides them."""
    rng = random.Random(f"iso/{family}")
    if family == "random":
        pairs = []
        for _ in range(200):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, rng.choice((0.25, 0.5, 0.75)))
            edges = rng.sample(list(itertools.combinations(range(n), 2)), edge_count(g))
            pairs += [(g, shuffled(g, rng)), (g, Graph.from_edges(n, edges))]
        return pairs
    if family == "small-cubic":
        # the scan of a copy of a small cubic graph now and then meets a
        # generator before a second match
        pairs = []
        for _ in range(150):
            g = random_cubic(rng, rng.choice((10, 12)))
            pairs += [(g, shuffled(g, rng)), (g, random_cubic(rng, g.n))]
        return pairs
    if family.startswith("cubic-"):
        n = int(family[len("cubic-"):])
        pairs = []
        for _ in range(8):
            g = random_cubic(rng, n)
            pairs += [(g, shuffled(g, rng)), (g, random_cubic(rng, n))]
        return pairs
    if family.startswith("CFI("):
        h = CFI_BASES[family[len("CFI("):-1]][0]
        g, twisted = cfi(h), cfi(h, twisted=True)
        return [(g, shuffled(g, rng)), (g, twisted), (g, shuffled(twisted, rng))]
    if family == "petersen":
        # both cubic on 10 vertices with 15 edges, so the search decides
        g = petersen_subsets()
        return [(g, shuffled(g, rng)), (g, prism(5)), (g, shuffled(prism(5), rng))]
    g = {"K(7,3)": kneser(7, 3), "J(7,3,1)": johnson_general(7, 3, 1), "edgeless-12": Graph(12, (0,) * 12)}[family]
    pairs = [(g, shuffled(g, rng)) for _ in range(4)]
    if edge_count(g):
        pairs.append((g, shuffled(switch_two_edges(g, rng), rng)))
    return pairs


@pytest.mark.parametrize(
    "family",
    ["random", "small-cubic", "cubic-20", "cubic-36", "cubic-50", "petersen", "K(7,3)", "J(7,3,1)",
     "edgeless-12", "CFI(K4)", "CFI(Q3)", "CFI(petersen)"],
)
def test_are_isomorphic_matches_two_canonical_forms(family):
    # The mapping, not only the verdict: the search of the second graph
    # must find the leaf its own canonical form returns, which a graph
    # with automorphisms shows and a rigid one cannot.
    isomorphic = 0
    for g, h in iso_corpus(family):
        want = reference_search.are_isomorphic(g, h)
        assert are_isomorphic(g, h) == want
        isomorphic += want is not None
    assert isomorphic > 0


def recorded_searches(monkeypatch):
    """A list that collects the record of every search made from now on,
    in the order the searches are made."""
    records = []
    init = search._IRSearch.__init__

    def recording(self, *args):
        init(self, *args)
        records.append(self)

    monkeypatch.setattr(search._IRSearch, "__init__", recording)
    return records


#: the pairs of the counts file's iso_leaves, built on demand
COUNTED_PAIRS = {
    "petersen subsets vs classic": lambda: (petersen_subsets(), petersen_classic()),
    # a cubic graph with automorphisms and a relabelled copy, as in CI
    "small-cubic": lambda: (graph6_decode("IWSA_yEh?"), graph6_decode("IJgSGHH_o")),
    "CFI(petersen) plain vs twisted": lambda: (
        cfi(CFI_BASES["petersen"][0]), cfi(CFI_BASES["petersen"][0], twisted=True)
    ),
    "cubic-36 golden": lambda: tuple(map(graph6_decode, ISO_GOLDEN_CUBIC)),
    # rigid, not isomorphic, with equal n and m
    "cubic-36 vs cubic-36-b": lambda: (CUBIC_36, GOLDEN_CANON["cubic-36-b"][0]),
}


def iso_leaves(records, name):
    """``are_isomorphic``'s result on the counts file's pair ``name``, and
    the leaves visited by each search it made, in the order it made them."""
    records.clear()
    result = are_isomorphic(*COUNTED_PAIRS[name]())
    return result, [s.leaves for s in records]


def test_target_search_leaf_counts(monkeypatch):
    # the first graph has automorphisms: each search of the second graph
    # ends at its second match, or at a match and a generator (small-cubic's
    # scan); the scan of the twisted CFI graph meets no match
    records = recorded_searches(monkeypatch)
    for name, isomorphic in (
        ("petersen subsets vs classic", True),
        ("small-cubic", True),
        ("CFI(petersen) plain vs twisted", False),
    ):
        result, leaves = iso_leaves(records, name)
        assert (result is not None, leaves) == (isomorphic, COUNTS["iso_leaves"][name]), name


def scan(g, h):
    """g's first leaf, the record of the scan of h for it that
    ``are_isomorphic`` runs while g's search is paused there, and the
    record of g's search resumed after the scan."""
    result = search._IRSearch(g)
    next(result.walk)
    order, cert, traces = result.first
    s = search._IRSearch(h, (traces, cert)).run()
    return (order, cert, traces), s, result.run()


def assert_scan_finds_rigidity(g, has_automorphism, rng):
    # the scan of a relabelled copy calls g rigid exactly when it is, and
    # a search that goes on after the scan finds what a fresh one finds
    (order, cert, traces), s, result = scan(g, shuffled(g, rng))
    full = search._IRSearch(g).run()
    assert (result.gens, result.best) == (full.gens, full.best)
    assert (order, cert, traces) == full.first
    assert list(traces) == reference_search.path_trace(g, order)
    assert s.best is not None
    assert (s.matches > 1 or bool(s.gens)) == has_automorphism


def test_scan_finds_an_automorphism_exactly_when_there_is_one_random():
    rng = random.Random(18)
    found = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 10), rng.choice((0.2, 0.35, 0.5)))
        has_automorphism = len(brute_force_automorphisms(g)) > 1
        assert_scan_finds_rigidity(g, has_automorphism, rng)
        found += has_automorphism
    assert 0 < found < 300


@pytest.mark.parametrize(
    "family",
    ["random", "small-cubic", "cubic-20", "cubic-36", "cubic-50", "petersen", "K(7,3)", "J(7,3,1)",
     "edgeless-12", "CFI(K4)", "CFI(Q3)", "CFI(petersen)"],
)
def test_scan_finds_an_automorphism_exactly_when_there_is_one(family):
    # the iso corpus, CFI plain and twisted included
    rng = random.Random(family)
    for pair in iso_corpus(family):
        for g in pair:
            assert_scan_finds_rigidity(g, automorphisms(g)[0] != (Permutation.identity(g.n),), rng)


def test_small_cubic_scans_end_at_a_generator():
    # only a scan that ends at a generator after one match shows that the
    # generator decides: there the mapping from the first leaf onto that
    # match is often not the one from two canonical forms
    ends = misses = 0
    for g, h in iso_corpus("small-cubic"):
        (order, _, _), s, _ = scan(g, h)
        if s.matches == 1 and s.gens:
            ends += 1
            misses += search._mapping(order, s.best[0]) != reference_search.are_isomorphic(g, h)
    assert ends >= 5 and misses >= 3


def test_iso_leaf_counts_on_rigid_pairs(monkeypatch):
    # a rigid first graph's search ends at its first leaf, after the scan
    # of the second graph, which meets only the leaf it returns, and no
    # leaf on a non-isomorphic pair; the canonical search met 36 leaves here
    records = recorded_searches(monkeypatch)
    for name, isomorphic in (("cubic-36 golden", True), ("cubic-36 vs cubic-36-b", False)):
        result, leaves = iso_leaves(records, name)
        assert (result is not None, leaves) == (isomorphic, COUNTS["iso_leaves"][name]), name


def switch_two_edges(g, rng):
    """g with edges {a, b} and {c, d} replaced by the non-edges {a, d} and
    {c, b}: every degree is kept, so a regular graph stays regular, which
    no move of one edge allows."""
    edges = g.edges()
    while True:
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) == 4 and not g.adj[a] >> d & 1 and not g.adj[c] >> b & 1:
            kept = set(edges) - {(a, b), (min(c, d), max(c, d))}
            return Graph.from_edges(g.n, sorted(kept | {(min(a, d), max(a, d)), (min(c, b), max(c, b))}))


def move_one_edge(g, rng):
    """g with one edge {a, b} moved to a non-edge {a, c}, where c has one
    neighbour fewer than b, so the degree sequence is kept; None when g
    has no such move."""
    moves = [
        (a, b, c)
        for a in range(g.n) for b in g.neighbors(a) for c in range(g.n)
        if c not in (a, b) and not g.adj[a] >> c & 1 and g.degree(c) == g.degree(b) - 1
    ]
    if not moves:
        return None
    a, b, c = rng.choice(moves)
    edges = set(g.edges()) - {(min(a, b), max(a, b))} | {(min(a, c), max(a, c))}
    return Graph.from_edges(g.n, sorted(edges))


def test_are_isomorphic_matches_two_canonical_forms_rigid_non_regular():
    # rigid graphs whose root refinement already splits; every cubic
    # corpus is regular, so there the root partition is the unit one
    rng = random.Random("iso/rigid-non-regular")
    verdicts = {True: 0, False: 0}
    graphs = 0
    while graphs < 60:
        g = random_graph(rng, rng.randint(9, 14), rng.choice((0.3, 0.5, 0.7)))
        moved = move_one_edge(g, rng)
        if moved is None or unpruned_search(g)[0] or len(refine(g, [range(g.n)])) == 1:
            continue
        graphs += 1
        for h in (shuffled(g, rng), shuffled(moved, rng)):
            assert sorted(map(h.degree, range(h.n))) == sorted(map(g.degree, range(g.n)))
            want = reference_search.are_isomorphic(g, h)
            assert are_isomorphic(g, h) == want
            verdicts[want is not None] += 1
    assert verdicts[True] >= 60 and verdicts[False] > 0


def refine_individualized(g, v, trace=None, expect=None):
    """Refine g's partition [{v}, the rest] to equitable; return what
    ``_refine`` returns, the number of cells or 0, and the dirty flags it
    leaves."""
    rest = [u for u in range(g.n) if u != v]
    cells = [(v,), rest] if rest else [(v,)]
    masks, end, dirty, multi = mask_state(g.n, cells)
    trace = [] if trace is None else trace
    done = search._refine(g.adj, masks, end, dirty, multi, 0, len(cells), trace, expect)[0]
    return done, dirty


def individualized_trace(g, v):
    trace = []
    assert refine_individualized(g, v, trace)[0]
    return trace


@settings(max_examples=200)
@given(data=st.data())
def test_split_trace_is_label_invariant(data):
    # the trace of the target search must not depend on vertex labels, or
    # an isomorphic graph's leaf could be cut; touched cells taken in set
    # order instead of position order would differ once cell starts pass 8
    n = data.draw(st.integers(1, 24))
    g = random_graph(data.draw(st.randoms(use_true_random=False)), n, data.draw(st.sampled_from((0.1, 0.2, 0.5))))
    v = data.draw(st.integers(0, n - 1))
    relabel = Permutation(data.draw(st.permutations(range(n))))
    trace = individualized_trace(g, v)
    assert individualized_trace(permute_graph(g, relabel), relabel(v)) == trace
    assert refine_individualized(permute_graph(g, relabel), relabel(v), expect=trace)[0]


@pytest.mark.parametrize(
    "name",
    ["K(7,3)", "J(7,3,1)", "edgeless-12", "cubic-36", "CFI(Q3)"],
)
def test_kept_trace_matches_replay(name):
    # the target search follows the trace the canonical search keeps for
    # its best leaf, so it must be that leaf's own path trace
    g = {
        "K(7,3)": kneser(7, 3),
        "J(7,3,1)": johnson_general(7, 3, 1),
        "edgeless-12": Graph(12, (0,) * 12),
        "cubic-36": CUBIC_36,
        "CFI(Q3)": cfi(CFI_BASES["Q3"][0]),
    }[name]
    for h in (g, shuffled(g, random.Random(name))):
        order, cert, traces = search._IRSearch(h).run().best
        assert cert == canonical_form(h).certificate
        assert list(traces) == reference_search.path_trace(h, order)


def test_refine_stops_where_the_expected_trace_differs():
    trace = individualized_trace(CUBIC_36, 0)
    assert len(trace) > 2
    count, end = trace[1]
    for expect in (trace[:1] + [(count + 1, end)] + trace[2:], trace + [(1, 1)], []):
        done, dirty = refine_individualized(CUBIC_36, 0, expect=expect)
        assert not done
        assert not any(dirty)


# ------------------------------------------------------------ brute force


def test_brute_force_triangle():
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    autos = brute_force_automorphisms(triangle)
    assert len(autos) == 6


def test_brute_force_single_vertex():
    assert brute_force_automorphisms(Graph(1, (0,))) == [Permutation.identity(1)]


def test_brute_force_lexicographic_order(petersen):
    autos = brute_force_automorphisms(petersen)
    assert len(autos) == 120
    assert [a.images for a in autos] == sorted(a.images for a in autos)


def oracle_automorphisms(g):
    # every vertex map, in lexicographic order of image arrays, kept when it
    # preserves adjacency
    return [
        q
        for im in itertools.permutations(range(g.n))
        if is_automorphism(g, q := Permutation(im))
    ]


def test_brute_force_matches_permutation_oracle():
    graphs = [graph_from_mask(n, mask) for n in range(1, 6) for mask in all_masks(n)]
    rng = random.Random(2024)
    graphs += [random_graph(rng, 6) for _ in range(60)]
    graphs += [random_graph(rng, 7) for _ in range(15)]
    assert len(graphs) == 1174
    for g in graphs:
        assert brute_force_automorphisms(g) == oracle_automorphisms(g), g.adj


def complement(g):
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~row & ~(1 << v) for v, row in enumerate(g.adj)))


def test_brute_force_matches_search_group_past_n7(petersen):
    # n = 8-10 is past the permutation oracle's reach, so the scan is checked
    # against the closure of the search's generators, which it does not share
    rng = random.Random(2028)
    sparse = [random_graph(rng, 9, 0.3) for _ in range(4)]
    # a disconnected draw: the first vertex of each component draws its
    # image from all n
    assert any(not is_connected(g) for g in sparse)
    graphs = [petersen, petersen_classic(), complement(petersen)]
    graphs += [random_graph(rng, 10) for _ in range(6)]
    graphs += sparse + [Graph(8, (0,) * 8)]
    for g in graphs:
        group = closure(automorphisms(g)[0], math.factorial(g.n))
        assert brute_force_automorphisms(g) == sorted(group, key=lambda q: q.images), g.adj


def test_brute_force_capacity_guard():
    with pytest.raises(CapacityError):
        brute_force_automorphisms(Graph(11, (0,) * 11))


# --------------------------------------------------------------- pruning


def assert_matches_unpruned(g):
    gens, cf = automorphisms(g)[0], canonical_form(g)
    want_gens, want_lab, want_cert = unpruned_search(g)
    want_gens = want_gens or (Permutation.identity(g.n),)
    assert cf.certificate == want_cert
    assert cf.relabeling == want_lab
    cap = math.factorial(g.n)
    assert set(closure(list(gens), cap)) == set(closure(list(want_gens), cap))
    # a skipped subtree holds only automorphisms already generated, so
    # even the generator list (the text `autkit aut` prints) is unchanged
    assert gens == want_gens


def test_pruned_search_matches_unpruned_exhaustive_up_to_5():
    for n in range(1, 6):
        for mask in all_masks(n):
            assert_matches_unpruned(graph_from_mask(n, mask))


def test_pruned_search_matches_unpruned_random_6_to_8():
    rng = random.Random(36)
    for _ in range(150):
        g = random_graph(rng, rng.randint(6, 8), rng.choice((0.25, 0.5, 0.75)))
        assert_matches_unpruned(g)


def test_pruned_search_matches_unpruned_rigid_cubic():
    # rigid graphs whose trees have depth 1: every child of the root is a
    # leaf and nothing is pruned, so refinement does all the work
    for g in (CUBIC_36, random_cubic(random.Random(1), 30), random_cubic(random.Random(2), 48)):
        assert automorphisms(g)[0] == (Permutation.identity(g.n),)
        assert_matches_unpruned(g)


def hoffman_singleton():
    """Robertson's construction: pentagons P_h (vertex 5h + j) and
    pentagrams Q_i (vertex 25 + 5i + j), with j of P_h joined to
    hi + j (mod 5) of Q_i.  50 vertices, 7-regular, |Aut| = 252,000."""
    edges = []
    for h in range(5):
        for j in range(5):
            edges.append((5 * h + j, 5 * h + (j + 1) % 5))
            edges.append((25 + 5 * h + j, 25 + 5 * h + (j + 2) % 5))
            for i in range(5):
                edges.append((5 * h + j, 25 + 5 * i + (h * i + j) % 5))
    return Graph.from_edges(50, edges)


def paley(q):
    """Paley graph on the integers mod a prime q = 1 (mod 4): u ~ v when
    u - v is a nonzero square.  |Aut| = q(q - 1)/2."""
    squares = {x * x % q for x in range(1, q)}
    return Graph.from_edges(q, [(u, v) for u in range(q) for v in range(u + 1, q) if (v - u) % q in squares])


def circulant(n, jumps):
    return Graph.from_edges(n, [(i, (i + j) % n) for i in range(n) for j in jumps])


def prism(k):
    """The cycle C_k times an edge: rim i, spoke to k + i."""
    rims = [(i, (i + 1) % k) for i in range(k)]
    return Graph.from_edges(2 * k, rims + [(k + u, k + v) for u, v in rims] + [(i, k + i) for i in range(k)])


def generalized_petersen(n, k):
    """Outer cycle 0..n-1, spokes i ~ n + i, inner star n + i ~ n + (i + k) % n."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
    return Graph.from_edges(2 * n, edges + [(n + i, n + (i + k) % n) for i in range(n)])


def test_pruned_search_matches_unpruned_symmetric():
    cube = Graph.from_edges(8, [(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)])
    two_k4 = Graph.from_edges(8, [(u, v) for u in range(8) for v in range(u + 1, 8) if u // 4 == v // 4])
    c8 = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
    for g in (cube, two_k4, c8, Graph(6, (0,) * 6), petersen_subsets()):
        assert_matches_unpruned(g)
    # wider trees, where a leaf can leave the first path well above its parent
    assert_matches_unpruned(generalized_petersen(8, 3))  # Moebius-Kantor, |Aut| = 96
    for k in range(3, 9):
        assert_matches_unpruned(prism(k))
    for n, jumps in [
        (9, (1, 2)), (10, (1, 3)), (11, (1, 2)), (12, (1, 4)), (12, (1, 5)), (13, (1, 5)),
        (13, (1, 3, 4)), (14, (1, 4)), (15, (1, 4)), (16, (1, 2)), (16, (1, 7)),
    ]:
        assert_matches_unpruned(circulant(n, jumps))


#: the graphs of the counts file's search_leaves, built on demand
COUNTED_GRAPHS = {
    "hoffman-singleton": hoffman_singleton,
    "paley-61": lambda: paley(61),
    "petersen": petersen_subsets,
    "K(7,3)": lambda: kneser(7, 3),
    "J(7,3,1)": lambda: johnson_general(7, 3, 1),
    "cubic-36": lambda: CUBIC_36,
    "CFI(petersen)": lambda: cfi(CFI_BASES["petersen"][0]),
    "CFI(petersen) twisted": lambda: cfi(CFI_BASES["petersen"][0], twisted=True),
    "edgeless-62": lambda: Graph(62, (0,) * 62),
    "K62": lambda: Graph(62, tuple(((1 << 62) - 1) ^ (1 << v) for v in range(62))),
    **{
        f"latin-{m}-{seed}": lambda m=m, seed=seed: latin_square_graph(latin_square(m, seed))
        for m in (6, 7) for seed in (1, 2, 3)
    },
}


@pytest.mark.parametrize(
    "name",
    [
        "hoffman-singleton", "paley-61", "petersen", "K(7,3)", "J(7,3,1)",
        "cubic-36", "CFI(petersen)", "CFI(petersen) twisted",
    ],
)
def test_backjump_leaf_counts(name):
    assert search._IRSearch(COUNTED_GRAPHS[name]()).run().leaves == COUNTS["search_leaves"][name]


#: the graphs of the counts file's brute_partial_maps
BRUTE_COUNTED_GRAPHS = {"petersen_subsets": petersen_subsets, "petersen_classic": petersen_classic}


def brute_partial_maps(g):
    """The partial maps that ``brute_force_automorphisms(g)`` visits, as
    the calls of its inner ``place``, counted by a profile hook."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "place" and frame.f_code.co_filename == search.__file__:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        brute_force_automorphisms(g)
    finally:
        sys.setprofile(previous)
    return calls


def test_counts_file_matches_a_fresh_run(monkeypatch):
    # every count in the file, recomputed: a change to the pruning, to when
    # a search ends or to the scan's vertex order shows as the entries that
    # moved, (file, fresh); a scan in index order returns the same list, so
    # only its count shows it
    records = recorded_searches(monkeypatch)
    fresh = {name: search._IRSearch(g()).run().leaves for name, g in COUNTED_GRAPHS.items()}
    fresh.update((name, iso_leaves(records, name)[1]) for name in COUNTED_PAIRS)
    fresh.update((name, brute_partial_maps(g())) for name, g in BRUTE_COUNTED_GRAPHS.items())
    pinned = {**COUNTS["search_leaves"], **COUNTS["iso_leaves"], **COUNTS["brute_partial_maps"]}
    assert sorted(fresh) == sorted(pinned)
    assert {name: (pinned[name], fresh[name]) for name in pinned if fresh[name] != pinned[name]} == {}


def assert_every_generator_is_new(g):
    gens = automorphisms(g)[0]
    if gens == (Permutation.identity(g.n),):
        return  # a rigid graph's placeholder generator
    for k, gen in enumerate(gens):
        assert not gen.is_identity()
        if k:
            assert not reference_perms.schreier_sims(gens[:k]).contains(gen), (k, gen)


EVERY_GENERATOR_IS_NEW = {
    "petersen": petersen_subsets(),
    "K(7,3)": kneser(7, 3),
    "J(7,3,1)": johnson_general(7, 3, 1),
    "hoffman-singleton": hoffman_singleton(),
    "paley-61": paley(61),
    "edgeless-12": Graph(12, (0,) * 12),
    **{f"CFI({name})": cfi(h) for name, (h, _) in CFI_BASES.items()},
    **{f"CFI({name}) twisted": cfi(h, twisted=True) for name, (h, _) in CFI_BASES.items()},
}


@pytest.mark.parametrize("name", sorted(EVERY_GENERATOR_IS_NEW))
def test_every_generator_is_new(name):
    # With first-path backjumping no candidate automorphism lies in the
    # group of the ones found before it, so the search keeps them all
    # without a membership test; see the _IRSearch docstring.
    assert_every_generator_is_new(EVERY_GENERATOR_IS_NEW[name])


def small_circulants():
    """Every circulant with n = 3..16 and one or two jumps."""
    for n in range(3, 17):
        for jumps in itertools.chain.from_iterable(
            itertools.combinations(range(1, n // 2 + 1), r) for r in (1, 2)
        ):
            yield circulant(n, jumps)


def test_every_generator_is_new_circulant_and_random():
    for g in small_circulants():
        assert_every_generator_is_new(g)
    rng = random.Random(9)
    for _ in range(300):
        assert_every_generator_is_new(random_graph(rng, rng.randint(2, 12), rng.choice((0.2, 0.5, 0.8))))


def search_order(g):
    """|Aut(g)| as ``autkit aut`` prints it, checked against a BSGS of the
    search's own generators."""
    gens, order = automorphisms(g)
    assert order == reference_perms.schreier_sims(gens).order(), gens
    return order


def test_search_order_matches_schreier_sims_random():
    rng = random.Random(17)
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 11), rng.choice((0.2, 0.5, 0.8)))
        assert search_order(g) == search_order(shuffled(g, rng))


def test_search_order_matches_schreier_sims_circulant():
    for g in small_circulants():
        search_order(g)


@pytest.mark.parametrize("name", sorted(EVERY_GENERATOR_IS_NEW))
def test_search_order_matches_schreier_sims(name):
    order = search_order(EVERY_GENERATOR_IS_NEW[name])
    if name.startswith("CFI("):
        # |Aut(CFI(H))| from H alone, the same for the twisted copy
        assert order == expected_cfi_order(name[4:name.index(")")])


@pytest.mark.parametrize("g", [Graph(1, (0,)), CUBIC_36], ids=["one-vertex", "cubic-36"])
def test_search_order_of_a_rigid_graph_is_1(g):
    assert search_order(g) == 1


@pytest.mark.parametrize(
    "g, order",
    [
        (Graph(12, (0,) * 12), math.factorial(12)),
        (kneser(7, 3), math.factorial(7)),
        (johnson_general(7, 3, 1), math.factorial(8)),
    ],
    ids=["edgeless-12", "K(7,3)", "J(7,3,1)"],
)
def test_search_finishes_on_large_groups(g, order):
    # before orbit pruning these took from seconds (K(7,3)) to hours (edgeless-12)
    gens = automorphisms(g)[0]
    assert all(is_automorphism(g, gen) for gen in gens)
    assert schreier_sims(gens).order() == order
    cf = canonical_form(g)
    assert upper_bits(g, cf.relabeling) == cf.certificate


@pytest.mark.parametrize("seed, order", [(1, 24), (2, 16), (3, 8)])
def test_latin_square_graph_orders(seed, order):
    # the counts file's Latin-square graphs: strongly regular, so nothing
    # splits at the root, and their squares really are Latin
    square = latin_square(6, seed)
    assert all(sorted(row) == list(range(6)) for row in square)
    assert all(sorted(column) == list(range(6)) for column in zip(*square))
    g = latin_square_graph(square)
    assert refine(g, [range(g.n)]) == (tuple(range(g.n)),)
    gens, got = automorphisms(g)
    assert all(is_automorphism(g, gen) for gen in gens)
    assert got == schreier_sims(gens).order() == order


SYMMETRIC = {"petersen": petersen_subsets(), "K(6,2)": kneser(6, 2), "J(6,2,1)": johnson_general(6, 2, 1)}


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(SYMMETRIC)), data=st.data())
def test_canonical_form_invariant_under_random_relabeling(name, data):
    g = SYMMETRIC[name]
    h = permute_graph(g, Permutation(data.draw(st.permutations(range(g.n)))))
    cf = canonical_form(h)
    assert cf.certificate == canonical_form(g).certificate
    assert upper_bits(h, cf.relabeling) == cf.certificate


# ------------------------------------------------------- golden outputs
# Pinned from the search before the refinement and certificate speedups.
# These graphs are too large for the unpruned oracle, so the strings are
# their only guard: any change here changes `autkit canon` and `iso` output.

GOLDEN_CANON = {
    "K(6,2)": (kneser(6, 2), "n=15:fc021e001f33033e19e2a54b4600"),
    "J(6,2,1)": (johnson_general(6, 2, 1), "n=15:ff03670e4d3e0e6caa5d52fdaf80"),
    "K(7,3)": (
        kneser(7, 3),
        "n=35:f00000000700000000e0000000380000001c000000124000009200000920000804800201200100900104040208200822"
        "004108041200830000c000a000c0180140180c0503000000000000",
    ),
    "J(7,3,1)": (
        johnson_general(7, 3, 1),
        "n=35:ffffc0000db69da60b6d5b550db66d9906e6b9865aaeaa56c5f16911ec7852b6ad24e739a23c70f4b552db3632e3233c"
        "a955ab1d2d04b3c4aae9337ff007ba5bb6771b95d5da1e5dbe1bc0",
    ),
    "cubic-36-a": (
        CUBIC_36,
        "n=36:e0000000050000000140000000300000001400000060000000600000018000000c000000c00000100030000000100000"
        "200004800c00000100002000180044000c02000240000040080201090652a0",
    ),
    "cubic-36-b": (
        graph6_decode(
            "cOGO????OP??A??_I??Aa??@??g?K?G???_??O?G@GOOO???c?_G??O???C???????O?Q????OGC?@A?O??_?C??C??AOC????GPA??AC?"
        ),
        "n=36:e000000005000000014000000030000000120000003000000022000001100000110000022000400080000040100040100"
        "080020004100002000100002080006020218004000800080050008810380c",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CANON))
def test_canonical_form_golden(name):
    g, text = GOLDEN_CANON[name]
    assert canonical_form(g).text() == text


# Pinned from the search before first-path backjumping; the wide groups
# make these the largest trees in the suite, too large for the oracle.
GOLDEN_BIG = {
    "hoffman-singleton": (
        hoffman_singleton(),
        "(3 32)(4 35)(6 28)(7 8)(9 39)(10 18)(11 16)(12 20)(13 44)(14 22)(15 48)(17 49)(19 43)(21 29)"
        "(23 38)(24 25)(27 47)(30 50)(33 34)(37 42)(40 45)(41 46)\n"
        "(3 27)(4 30)(6 16)(7 48)(8 9)(10 34)(11 21)(12 43)(13 19)(14 18)(15 39)(17 38)(20 44)(22 33)"
        "(23 24)(25 49)(28 29)(32 37)(35 40)(36 41)(42 47)(45 50)\n"
        "(3 47)(4 50)(6 29)(7 19)(8 43)(9 10)(11 16)(12 34)(13 25)(14 38)(15 17)(18 39)(20 33)(21 28)"
        "(22 23)(24 44)(27 32)(30 35)(31 36)(37 42)(40 45)(48 49)\n"
        "(3 42)(4 45)(6 10)(7 49)(8 17)(9 38)(11 33)(12 20)(13 19)(14 29)(15 24)(16 34)(18 28)(21 22)"
        "(23 39)(25 48)(26 31)(27 47)(30 50)(32 37)(35 40)(43 44)\n"
        "(3 27)(4 29)(5 26)(6 50)(7 48)(8 15)(9 39)(10 18)(11 40)(12 38)(13 25)(14 34)(16 45)(17 43)"
        "(19 49)(20 23)(21 35)(22 33)(24 44)(28 30)(32 47)(37 42)\n"
        "(2 5)(3 4)(6 21)(7 25)(8 24)(9 23)(10 22)(11 16)(12 20)(13 19)(14 18)(15 17)(27 30)(28 29)"
        "(32 35)(33 34)(37 40)(38 39)(42 45)(43 44)(47 50)(48 49)\n"
        "(1 2)(3 5)(6 22)(7 21)(8 25)(9 24)(10 23)(11 17)(12 16)(13 20)(14 19)(15 18)(26 27)(28 30)"
        "(31 32)(33 35)(36 37)(38 40)(41 42)(43 45)(46 47)(48 50)\n"
        "order 252000\n",
        "n=50:fe000000000001f800000000000fc00000000000fc00000000001f800000000007e00000000003f00000000003f"
        "04104104100208041041020240110802208110042022100a00880a040804104104020104104024040408404091001042"
        "808088801080410410008208220404080848100812102100420020440108080212021002810208120008080440402018"
        "0421008008040088202000000",
    ),
    "paley-61": (
        paley(61),
        "(2 42 35 53 59 61 21 28 10 4)(3 22 8 44 56 60 41 55 19 7)(5 43 15 26 50 58 20 48 37 13)"
        "(6 23 49 17 47 57 40 14 46 16)(9 24 29 51 38 54 39 34 12 25)(11 45 36 33 32 52 18 27 30 31)\n"
        "(2 47 43 42 57 15 35 40 26 53 14 50 59 46 58 61 16 20 21 6 48 28 23 37 10 49 13 4 17 5)"
        "(3 32 24 22 52 29 8 18 51 44 27 38 56 30 54 60 31 39 41 11 34 55 45 12 19 36 25 7 33 9)\n"
        "(1 2)(3 61)(4 60)(5 59)(6 58)(7 57)(8 56)(9 55)(10 54)(11 53)(12 52)(13 51)(14 50)(15 49)(16 48)"
        "(17 47)(18 46)(19 45)(20 44)(21 43)(22 42)(23 41)(24 40)(25 39)(26 38)(27 37)(28 36)(29 35)"
        "(30 34)(31 33)\n"
        "order 1830\n",
        "n=61:fffffffc0000000fffc0007fff0001ac8eac144d639e2e26e90c31ca6e9d2618eed41475758c49aa8ebea40e291"
        "d624df54868a4d76a826dc2d6158ec1fb09a5c54b7903e4729f416264f618b7503c86cdcb1e439ec133c53b06e19be43"
        "66ee4edcc852dbb1af6624612d4197765323d1ac88b3f25d1138fad21da5071bbb30186d279dcdc28d43eeca0f53af11"
        "e9ac39362e4d8f29a385d7691b69da4517dd15c4e965a3715d2f87444d9377478223d239f25aee33a2d4eda478f5ae60"
        "c7adad41fba4d7a47b1b25ed155944f7961d46e548be2445e2d15f8d7a9cae69a1d95f871314380",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BIG))
def test_aut_and_canon_golden_on_big_groups(name):
    g, aut_text, canon_text = GOLDEN_BIG[name]
    g6 = graph6_encode(g) + "\n"
    aut = run_cli(["aut"], g6)
    assert (aut.returncode, aut.stdout) == (0, aut_text)
    canon = run_cli(["canon"], g6)
    assert (canon.returncode, canon.stdout) == (0, canon_text + "\n")


def test_aut_golden_edgeless_40():
    # Pinned from the search before the BSGS became incremental, where 39
    # Schreier-Sims rebuilds took about 1 s of the 1.3 s run.
    proc = run_cli(["aut"], graph6_encode(Graph(40, (0,) * 40)) + "\n")
    expected = "".join(f"({k} {k + 1})\n" for k in range(39, 0, -1)) + f"order {math.factorial(40)}\n"
    assert (proc.returncode, proc.stdout) == (0, expected)


# a cubic graph on 36 vertices and a random relabelling of it
ISO_GOLDEN_CUBIC = (
    "c__??O?????AOO?O?A?G?C???@?@?@???_?@??@OC?_?aO?K?@??AC????U?D@?????a??D_???OO?O@????AGG??@@???SO??A?I????G",
    "cA??G???KGAC??K??C????A???GA????I???G?CO?@??G?_??S??_?_CO?????PO???@oCQ???O?a??O@?@A???g?A@_??AA?C??GAO???",
)


def test_iso_mapping_golden(tmp_path):
    a = tmp_path / "a.g6"
    b = tmp_path / "b.g6"
    a.write_text(ISO_GOLDEN_CUBIC[0] + "\n")
    b.write_text(ISO_GOLDEN_CUBIC[1] + "\n")
    proc = run_cli(["iso", str(a), str(b)])
    assert proc.returncode == 0
    assert proc.stdout == (
        "1->19 2->26 3->1 4->6 5->8 6->14 7->34 8->24 9->32 10->16 11->36 12->22 13->29 14->18 15->31 16->4 "
        "17->30 18->17 19->15 20->21 21->33 22->28 23->12 24->25 25->11 26->2 27->23 28->5 29->9 30->20 "
        "31->10 32->27 33->13 34->3 35->35 36->7\n"
    )


def test_iso_mapping_golden_with_automorphisms(tmp_path):
    # Pinned from the search that canonicalized both graphs.  K(7,3) has
    # 5,040 automorphisms, hence as many mappings: only the leaf the
    # second graph's canonical form returns gives this one.
    g = kneser(7, 3)
    images = list(range(g.n))
    random.Random(0).shuffle(images)
    a = tmp_path / "a.g6"
    b = tmp_path / "b.g6"
    a.write_text(graph6_encode(g) + "\n")
    b.write_text(graph6_encode(permute_graph(g, Permutation(images))) + "\n")
    proc = run_cli(["iso", str(a), str(b)])
    assert proc.returncode == 0
    assert proc.stdout == (
        "1->1 2->30 3->5 4->9 5->7 6->21 7->28 8->8 9->11 10->19 11->20 12->29 13->4 14->12 15->34 16->33 "
        "17->18 18->6 19->23 20->17 21->26 22->27 23->10 24->3 25->13 26->24 27->14 28->15 29->22 30->35 "
        "31->2 32->16 33->25 34->31 35->32\n"
    )
