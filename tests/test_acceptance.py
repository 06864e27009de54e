"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines.
"""

import itertools
import json
import math
import random
import time
from collections import defaultdict

from autkit import (
    Graph,
    Permutation,
    canonical_form,
    closure,
    diameter,
    edge_count,
    girth,
    graph6_decode,
    graph6_encode,
    is_connected,
    is_regular,
    johnson_general,
    kneser,
    permute_graph,
    petersen_classic,
    petersen_subsets,
    schreier_sims,
)
from autkit.verify import induced_action, verify_petersen

from conftest import all_masks, graph_from_mask, random_graph, run_cli


def test_criterion_1_theorem_reproduction(tmp_path):
    report_path = tmp_path / "report.json"
    start = time.perf_counter()
    proc = run_cli(["verify-petersen", "--json", str(report_path)])
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    data = json.loads(report_path.read_text())
    assert data["image_order"] == 120
    assert data["aut_order_search"] == 120
    assert data["kernel_trivial"] is True
    assert data["homomorphism_checked"] == 14400
    assert data["verdict"] == "VERIFIED"
    assert elapsed < 5.0
    print(
        f"ACCEPTANCE 1 PASS: verify-petersen VERIFIED, image_order=120, "
        f"aut_order_search=120, 14400 pairs, {elapsed:.2f}s"
    )


def test_criterion_2_exhaustive_oracle(tmp_path):
    report_path = tmp_path / "report.json"
    start = time.perf_counter()
    proc = run_cli(["verify-petersen", "--brute", "--json", str(report_path)])
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    data = json.loads(report_path.read_text())
    assert data["aut_order_brute"] == 120
    assert data["aut_order_search"] == 120
    assert data["image_order"] == 120
    assert data["verdict"] == "VERIFIED"
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 2 PASS: exhaustive scan over 10! = {math.factorial(10):,} "
        f"candidate permutations found exactly 120 automorphisms, {elapsed:.2f}s"
    )


def test_criterion_3_graph_invariants():
    g = petersen_subsets()
    assert g.n == 10
    assert edge_count(g) == 15
    assert is_regular(g) == 3
    assert girth(g) == 5
    assert diameter(g) == 2
    assert is_connected(g)
    print("ACCEPTANCE 3 PASS: n=10, 15 edges, 3-regular, girth 5, diameter 2, connected")


def test_criterion_4_triple_construction_agreement(tmp_path):
    graphs = {
        "johnson": johnson_general(5, 3, 1),
        "kneser": kneser(5, 2),
        "classic": petersen_classic(),
    }
    certs = {name: canonical_form(g).text() for name, g in graphs.items()}
    assert len(set(certs.values())) == 1
    paths = {}
    for name, g in graphs.items():
        path = tmp_path / f"{name}.g6"
        path.write_text(graph6_encode(g) + "\n")
        paths[name] = path
    for a, b in itertools.combinations(graphs, 2):
        proc = run_cli(["iso", str(paths[a]), str(paths[b])])
        assert proc.returncode == 0
        images = [0] * 10
        for pair in proc.stdout.split():
            src, dst = pair.split("->")
            images[int(src) - 1] = int(dst) - 1
        sigma = Permutation(images)
        assert permute_graph(graphs[a], sigma).adj == graphs[b].adj
    print(
        "ACCEPTANCE 4 PASS: johnson(5,3,1), kneser(5,2), petersen_classic share "
        f"certificate {certs['classic']} with verified pairwise mappings"
    )


def test_criterion_5_group_engine_oracle_suite():
    battery = {
        "S3": (3, [[[1, 2]], [[1, 2, 3]]], 6),
        "A4": (4, [[[1, 2, 3]], [[2, 3, 4]]], 12),
        "S4": (4, [[[1, 2]], [[1, 2, 3, 4]]], 24),
        "D5": (5, [[[1, 2, 3, 4, 5]], [[2, 5], [3, 4]]], 10),
        "C5": (5, [[[1, 2, 3, 4, 5]]], 5),
        "S5": (5, [[[1, 2]], [[1, 2, 3, 4, 5]]], 120),
    }
    for name, (n, cycle_sets, expected) in battery.items():
        gens = [Permutation.from_cycles(n, cycles) for cycles in cycle_sets]
        elements = closure(gens, 200)
        group = schreier_sims(gens)
        assert len(elements) == expected, name
        assert group.order() == expected, name
        members = set(elements)
        for p in elements:
            assert group.contains(p), name
        non_members = [
            P for im in itertools.permutations(range(n)) if (P := Permutation(im)) not in members
        ]
        for p in non_members[:100]:
            assert not group.contains(p), name
    print("ACCEPTANCE 5 PASS: BSGS orders S3=6 A4=12 S4=24 D5=10 C5=5 S5=120, sifting agrees with closure")


def exhaustive_min_certificate(n, mask, perms):
    # independent oracle: minimize the packed upper-triangle bits over all
    # n! relabelings, with no partition refinement involved
    adj = graph_from_mask(n, mask).adj
    best = None
    for p in perms:
        value = 0
        for i in range(n):
            row = adj[p[i]]
            for j in range(i + 1, n):
                value = (value << 1) | ((row >> p[j]) & 1)
        if best is None or value < best:
            best = value
    return best


def test_criterion_6_canonical_form_property_suite():
    g = petersen_subsets()
    base = canonical_form(g).certificate
    rng = random.Random(60)
    for _ in range(200):
        images = list(range(10))
        rng.shuffle(images)
        assert canonical_form(permute_graph(g, Permutation(images))).certificate == base

    class_counts = {}
    for n in range(1, 6):
        perms = list(itertools.permutations(range(n)))
        by_certificate = defaultdict(set)
        by_oracle = defaultdict(set)
        for mask in all_masks(n):
            by_certificate[canonical_form(graph_from_mask(n, mask)).certificate].add(mask)
            by_oracle[exhaustive_min_certificate(n, mask, perms)].add(mask)
        certificate_classes = {frozenset(s) for s in by_certificate.values()}
        oracle_classes = {frozenset(s) for s in by_oracle.values()}
        assert certificate_classes == oracle_classes, f"n={n}"
        class_counts[n] = len(certificate_classes)
    assert class_counts == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
    print(
        "ACCEPTANCE 6 PASS: certificate invariant under 200 relabelings; "
        f"certificate classes match brute-force classes exhaustively, counts {class_counts}"
    )


def test_criterion_7_mutation_sensitivity():
    g = petersen_subsets()
    rng = random.Random(70)
    edges = g.edges()
    non_edges = [(u, v) for u in range(10) for v in range(u + 1, 10) if not g.adj[u] >> v & 1]

    def delete(edge):
        adj = list(g.adj)
        adj[edge[0]] &= ~(1 << edge[1])
        adj[edge[1]] &= ~(1 << edge[0])
        return Graph(10, tuple(adj), g.labels)

    def add(edge):
        adj = list(g.adj)
        adj[edge[0]] |= 1 << edge[1]
        adj[edge[1]] |= 1 << edge[0]
        return Graph(10, tuple(adj), g.labels)

    for edge in rng.sample(edges, 5):
        assert verify_petersen(graph=delete(edge)).verdict == "FALSIFIED"
    for edge in rng.sample(non_edges, 5):
        assert verify_petersen(graph=add(edge)).verdict == "FALSIFIED"

    for _ in range(5):
        target = rng.choice([0, 1])
        a, b = rng.sample(range(10), 2)

        def corrupted(p, target=target, a=a, b=b):
            from autkit.verify import s5_generators

            image = induced_action(p)
            if p == s5_generators()[target]:
                images = list(image.images)
                images[a], images[b] = images[b], images[a]
                return Permutation(images)
            return image

        assert verify_petersen(action=corrupted).verdict == "FALSIFIED"
    print("ACCEPTANCE 7 PASS: 5 edge deletions, 5 edge additions, 5 corrupted generator images all FALSIFIED")


def test_criterion_8_format_fidelity():
    for n in range(1, 6):
        for mask in all_masks(n):
            g = graph_from_mask(n, mask)
            assert graph6_decode(graph6_encode(g)) == g
    rng = random.Random(80)
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 20))
        assert graph6_decode(graph6_encode(g)) == g
    decoded = graph6_decode("A_")
    assert decoded.n == 2
    assert decoded.edges() == [(0, 1)]
    print('ACCEPTANCE 8 PASS: graph6 round-trips exhaustively (n<=5) and on 500 random graphs; "A_" is the single edge')
