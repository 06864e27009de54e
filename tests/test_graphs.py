import dataclasses
import itertools
import math
import random
import re

import pytest

from autkit import (
    Graph,
    Permutation,
    diameter,
    edge_count,
    girth,
    is_automorphism,
    is_connected,
    is_regular,
    johnson_general,
    kneser,
    permute_graph,
    petersen_classic,
    petersen_layout,
    petersen_subsets,
    subsets,
    to_dot,
)
from autkit.verify import induced_action

import reference_graphs
from conftest import random_graph


def expected_subset_edges(n, k, t):
    # independent pair enumeration straight from the adjacency rule
    verts = list(itertools.combinations(range(1, n + 1), k))
    return {
        (i, j)
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
        if len(set(verts[i]) & set(verts[j])) == t
    }


def reference_edges(g):
    return {(u, v) for u in range(g.n) for v in reference_graphs.neighbors(g.adj, u) if u < v}


# -------------------------------------------------------------- subsets


def test_subsets_5_3():
    subs = subsets(5, 3)
    assert len(subs) == 10
    assert subs[0] == (1, 2, 3)
    assert subs[-1] == (3, 4, 5)


def test_subsets_single():
    assert subsets(3, 3) == [(1, 2, 3)]
    # kneser(n, 0) has one vertex, the empty subset, labelled {}
    assert kneser(3, 0).labels == ("{}",)


def test_subsets_4_2():
    subs = subsets(4, 2)
    assert len(subs) == 6
    assert subs[0] == (1, 2)
    assert subs[5] == (3, 4)


def test_subsets_bad_parameters():
    with pytest.raises(ValueError):
        subsets(3, 4)
    with pytest.raises(ValueError):
        subsets(3, -1)


def test_kneser_bad_parameters():
    # the message comes from subsets, which kneser calls first
    for n, k in [(3, 4), (3, -1), (0, -1)]:
        with pytest.raises(ValueError) as err:
            kneser(n, k)
        assert str(err.value) == f"need 0 <= k <= n, got k={k}, n={n}"


# --------------------------------------------------------- constructors


def test_johnson_5_3_1_matches_pair_enumeration():
    g = johnson_general(5, 3, 1)
    assert g.n == 10
    assert edge_count(g) == 15
    assert is_regular(g) == 3
    assert set(g.edges()) == expected_subset_edges(5, 3, 1)


def test_johnson_5_3_2_matches_pair_enumeration():
    g = johnson_general(5, 3, 2)
    assert edge_count(g) == 30
    assert is_regular(g) == 6
    assert set(g.edges()) == expected_subset_edges(5, 3, 2)


def test_johnson_5_3_0_is_edgeless():
    # two 3-subsets of a 5-set always intersect
    assert edge_count(johnson_general(5, 3, 0)) == 0


def test_johnson_bad_parameters():
    with pytest.raises(ValueError):
        johnson_general(5, 3, 3)
    with pytest.raises(ValueError):
        johnson_general(5, 6, 1)
    with pytest.raises(ValueError):
        johnson_general(5, 3, -1)


def test_kneser_5_2():
    g = kneser(5, 2)
    assert g.n == 10
    assert edge_count(g) == 15
    assert is_regular(g) == 3
    assert set(g.edges()) == expected_subset_edges(5, 2, 0)


def test_kneser_2_1():
    g = kneser(2, 1)
    assert g.n == 2
    assert g.edges() == [(0, 1)]


def test_kneser_edgeless_when_subsets_cannot_be_disjoint():
    assert edge_count(kneser(3, 2)) == 0


def test_petersen_subsets_vertex0():
    g = petersen_subsets()
    assert g.labels[0] == "{1,2,3}"
    assert g.neighbors(0) == (5, 8, 9)
    # {1,2,3} and {1,2,4} share two elements
    assert not g.adj[0] >> 1 & 1


def test_petersen_subsets_profile(petersen):
    assert petersen.n == 10
    assert edge_count(petersen) == 15
    assert is_regular(petersen) == 3
    assert girth(petersen) == 5
    assert diameter(petersen) == 2
    assert is_connected(petersen)


def test_petersen_subsets_not_bipartite(petersen):
    # odd girth rules out any 2-coloring
    assert girth(petersen) % 2 == 1


def test_petersen_classic_edge_families():
    g = petersen_classic()
    outer = {(i, (i + 1) % 5) for i in range(5)}
    inner = {(5, 7), (7, 9), (6, 9), (6, 8), (5, 8)}
    spokes = {(i, i + 5) for i in range(5)}
    expected = {tuple(sorted(e)) for e in outer | inner | spokes}
    assert set(g.edges()) == expected
    assert edge_count(g) == 15
    assert is_regular(g) == 3
    assert girth(g) == 5


# ----------------------------------------------------------- invariants


def test_edge_count_and_regularity_degenerate_cases():
    edgeless = Graph(4, (0, 0, 0, 0))
    assert edge_count(edgeless) == 0
    assert is_regular(edgeless) == 0
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert [path3.degree(v) for v in range(3)] == [1, 2, 1]
    assert is_regular(path3) is None
    assert is_regular(Graph(0, ())) is None


def test_girth_and_diameter_examples():
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert girth(c5) == 5
    assert diameter(c5) == 2
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert girth(path4) is None
    assert diameter(path4) == 3
    two_parts = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert diameter(two_parts) is None
    assert not is_connected(two_parts)


def test_girth_matches_edge_deletion_reference():
    rng = random.Random(29)
    girths = set()
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 14), rng.random())
        girths.add(girth(g))
        assert girth(g) == reference_graphs.girth(g), g
    assert {None, 3, 4} <= girths


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b10))  # loops
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b01), labels=("a",))
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b01), labels=("a", "a"))
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])


@pytest.mark.parametrize(
    "n, adj, message",
    [
        (-1, (), "vertex count must be nonnegative"),
        (2, (0,), "adjacency length does not match vertex count"),
        (2, (0b100, 0), "adjacency of vertex 0 mentions vertices >= 2"),
        (3, (0b110, 0, 0), "adjacency not symmetric at (0, 1)"),
        # -1 >> 2 is -1: a negative row must not read as one past the range
        (2, (-1, 0), "adjacency of vertex 0 is negative"),
        (3, (0, -2, 0), "adjacency of vertex 1 is negative"),
    ],
)
def test_graph_validation_messages(n, adj, message):
    with pytest.raises(ValueError) as err:
        Graph(n, adj)
    assert str(err.value) == message


def test_symmetry_check_matches_pairwise_reference():
    # one or two flipped bits off the diagonal; two flips of one pair
    # restore symmetry, and two in different pairs must report the first
    # in row-major order
    rng = random.Random(23)
    outcomes = set()
    for case in range(400):
        n = rng.randint(2, 40)
        adj = list(random_graph(rng, n, rng.random()).adj)
        for _ in range(1 + case % 2):
            u, v = rng.sample(range(n), 2)
            if case % 10 == 1:
                adj[v] ^= 1 << u  # the mirror bit of the last flip
            adj[u] ^= 1 << v
        pair = reference_graphs.asymmetric_pair(tuple(adj))
        if pair is None:
            assert Graph(n, adj).adj == tuple(adj)
        else:
            with pytest.raises(ValueError) as err:
                Graph(n, adj)
            assert str(err.value) == "adjacency not symmetric at ({}, {})".format(*pair)
        outcomes.add(pair is None)
    assert outcomes == {True, False}


def test_neighbors_match_pairwise_reference():
    rng = random.Random(31)
    for n in range(63):
        for density in (0.0, rng.random(), 1.0):
            g = random_graph(rng, n, density)
            expected = [reference_graphs.neighbors(g.adj, v) for v in range(n)]
            assert [g.neighbors(v) for v in range(n)] == expected


def test_stored_neighbors_leave_equality_hash_and_repr_alone():
    g = Graph(2, (2, 1))
    assert repr(g) == "Graph(n=2, adj=(2, 1), labels=None)"
    assert hash(g) == hash((2, (2, 1), None))
    assert [f.name for f in dataclasses.fields(Graph) if f.compare] == ["n", "adj", "labels"]
    assert g == Graph(2, [2, 1])
    assert g != Graph(2, (2, 1), ("a", "b"))


def test_subset_graphs_match_pairwise_reference():
    # labels and adjacency of every family with at most 500 vertices on a
    # ground set of at most 11 (C(11, 5) = 462); each ground size past that
    # adds about 2 s
    for n in range(1, 12):
        for k in range(n + 1):
            if math.comb(n, k) > 500:
                continue
            assert kneser(n, k) == reference_graphs.subset_graph(n, k, 0), (n, k)
            for t in range(1, k):
                assert johnson_general(n, k, t) == reference_graphs.subset_graph(n, k, t), (n, k, t)


def test_constructors_produce_valid_adjacency():
    # symmetry and loop-freeness are enforced by the Graph constructor,
    # so surviving construction is the check
    for g in (petersen_subsets(), petersen_classic(), kneser(5, 2), johnson_general(5, 3, 2)):
        assert len(g.adj) == g.n


# -------------------------------------------------------- permutations


def test_permute_graph_identity(petersen):
    assert permute_graph(petersen, Permutation.identity(10)) == petersen


def test_permute_graph_inverse_round_trip(petersen):
    rng = random.Random(11)
    for _ in range(20):
        images = list(range(10))
        rng.shuffle(images)
        sigma = Permutation(images)
        assert permute_graph(permute_graph(petersen, sigma), sigma.inverse()) == petersen


def test_permute_graph_preserves_edge_count():
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(1, 12)
        g = random_graph(rng, n)
        images = list(range(n))
        rng.shuffle(images)
        assert edge_count(permute_graph(g, Permutation(images))) == edge_count(g)


def test_permute_graph_moves_labels(petersen):
    sigma = induced_action(Permutation.from_cycles(5, [[1, 2, 3, 4, 5]]))
    h = permute_graph(petersen, sigma)
    # vertex 0 = {1,2,3} lands at sigma(0); its label travels with it
    assert h.labels[sigma(0)] == "{1,2,3}"


def test_permute_graph_degree_mismatch(petersen):
    with pytest.raises(ValueError):
        permute_graph(petersen, Permutation.identity(9))


def test_is_automorphism_equivalent_to_adjacency_equality():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 9)
        g = random_graph(rng, n)
        images = list(range(n))
        rng.shuffle(images)
        sigma = Permutation(images)
        assert is_automorphism(g, sigma) == (permute_graph(g, sigma).adj == g.adj)


def test_relabeling_matches_edge_set_oracle():
    # the oracle reads each graph's edges off the pairwise reference, never
    # the neighbour lists that permute_graph and is_automorphism relabel
    rng = random.Random(14)
    automorphisms = 0
    for case in range(300):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, p=rng.choice([0.1, 0.5, 0.9]))
        if case % 2:
            g = Graph(g.n, g.adj, tuple(f"v{v}" for v in range(n)))
        images = list(range(n))
        rng.shuffle(images)
        sigma = Permutation(images)
        edges = reference_edges(g)
        moved = {(min(sigma(u), sigma(v)), max(sigma(u), sigma(v))) for u, v in edges}
        h = permute_graph(g, sigma)
        assert reference_edges(h) == moved
        if g.labels is not None:
            assert all(h.labels[sigma(v)] == g.labels[v] for v in range(n))
        assert is_automorphism(g, sigma) == (moved == edges)
        automorphisms += moved == edges
    # both answers occur, so neither side of the equivalence is vacuous
    assert 30 < automorphisms < 270


def test_is_automorphism_examples(petersen):
    assert is_automorphism(petersen, Permutation.identity(10))
    assert is_automorphism(petersen, induced_action(Permutation.from_cycles(5, [[1, 2]])))
    swap01 = Permutation.from_cycles(10, [[1, 2]])
    assert not is_automorphism(petersen, swap01)
    with pytest.raises(ValueError):
        is_automorphism(petersen, Permutation.identity(3))


# ---------------------------------------------------------------- DOT


def test_to_dot_petersen_with_layout(petersen):
    dot = to_dot(petersen, petersen_layout())
    lines = dot.splitlines()
    assert lines[0] == "graph {"
    assert lines[-1] == "}"
    node_lines = [ln for ln in lines if "[" in ln]
    edge_lines = [ln for ln in lines if "--" in ln]
    assert len(node_lines) == 10
    assert len(edge_lines) == 15
    assert all('pos="' in ln and ln.endswith('!"];') for ln in node_lines)
    assert lines[1] == '  0 [label="{1,2,3}", pos="0.0000,2.0000!"];'


def test_to_dot_without_layout(petersen):
    dot = to_dot(petersen)
    assert "pos=" not in dot
    assert 'label="{3,4,5}"' in dot


def test_to_dot_single_vertex():
    dot = to_dot(Graph(1, (0,)))
    assert dot == "graph {\n  0;\n}\n"


def test_to_dot_matches_reference(petersen):
    # the text joined from the lines made one at a time, against DOT built
    # whole from every pair: labels, the Petersen layout and random graphs
    rng = random.Random("dot")
    graphs = [petersen, petersen_classic(), Graph(0, ()), Graph(1, (0,))]
    graphs += [random_graph(rng, rng.randint(2, 30), rng.random()) for _ in range(20)]
    for g in graphs:
        assert to_dot(g) == reference_graphs.to_dot(g)
    assert to_dot(petersen, petersen_layout()) == reference_graphs.to_dot(petersen, petersen_layout())
    labels = ['a"b', "c\\", 'd\\"e', "{1,2}"]
    g = Graph.from_edges(4, [(0, 1), (2, 3)], labels=labels)
    assert to_dot(g) == reference_graphs.to_dot(g)


def test_to_dot_escapes_labels():
    labels = ['a"b', "c\\", 'd\\"e', "{1,2}"]
    dot = to_dot(Graph.from_edges(4, [(0, 1), (2, 3)], labels=labels))
    # a DOT quoted string: any character but a quote or backslash, or a
    # backslash and the character it escapes
    read = re.findall(r'^  \d+ \[label="((?:[^"\\]|\\.)*)"\];$', dot, re.MULTILINE)
    assert [re.sub(r"\\(.)", r"\1", text) for text in read] == labels
