"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import random

import pytest

import workloads as w


def format_cycles(images: tuple[int, ...]) -> str:
    """1-based cycle notation, each cycle from its smallest point, cycles by
    smallest point; the identity is ``()``."""
    seen: set[int] = set()
    cycles = []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cycle = [start]
        seen.add(start)
        x = images[start]
        while x != start:
            cycle.append(x)
            seen.add(x)
            x = images[x]
        cycles.append("(" + " ".join(str(p + 1) for p in cycle) + ")")
    return "".join(cycles) or "()"


@pytest.mark.parametrize("seed", range(5))
def test_random_cubic_is_deterministic_simple_and_3_regular(seed):
    g = w.random_cubic(random.Random(seed), w.CUBIC_VERTICES)
    assert g == w.random_cubic(random.Random(seed), w.CUBIC_VERTICES)
    assert all(0 <= u < v < g.n for u, v in g.edges)  # no loops, no duplicates
    assert len(g.edges) == 3 * g.n // 2
    assert all(len(nbrs) == 3 for nbrs in g.neighbours())


def test_cubic_pairs_are_deterministic_per_seed():
    assert w.cubic_pairs(3) == w.cubic_pairs(3)
    assert w.cubic_pairs(3) != w.cubic_pairs(4)


@pytest.mark.parametrize("seed", range(3))
def test_invariant_separates_non_iso_pairs_and_ignores_relabelling(seed):
    pairs = w.cubic_pairs(seed)
    assert [iso for _, _, iso in pairs] == [True, False] * w.CUBIC_PAIRS
    for a, b, iso in pairs:
        assert len(a.edges) == len(b.edges)
        assert (w.distance_invariant(a) == w.distance_invariant(b)) == iso


@pytest.mark.parametrize("text", ["()", "(1 2)", "(1 2 3)(4 5)", "(1 7 10 6 3)(2 8 4 9 5)"])
def test_cycle_parser_round_trips_text(text):
    assert format_cycles(w.parse_cycles(10, text)) == text


def test_cycle_parser_round_trips_random_permutations():
    rng = random.Random(0)
    for n in (1, 2, 7, 15):
        for _ in range(50):
            images = tuple(w.random_permutation(rng, n))
            assert w.parse_cycles(n, format_cycles(images)) == images


@pytest.mark.parametrize("text", ["", "(1)", "(1 2", "(1 1)", "(1 2)(2 3)", "(1 11)", "order 120", "(1 2) (3 4)"])
def test_cycle_parser_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        w.parse_cycles(10, text)


def test_percentile_refuses_p90_below_100_samples():
    with pytest.raises(ValueError):
        w.percentile(list(range(99)), 90)
    assert w.percentile(list(range(100)), 90) == 89
    assert w.percentile(list(range(100, 0, -1)), 50) == 50
    with pytest.raises(ValueError):
        w.percentile(list(range(19)), 50)


def test_symmetric_graphs_have_the_expected_shape():
    shapes = {(g.n, len(g.edges)) for _, g, _, _ in w.SYMMETRIC_GRAPHS}
    assert shapes == {(10, 15), (15, 45), (15, 60), (7, 0)}
    for _, g, _, _ in w.SYMMETRIC_GRAPHS:
        assert len({len(nbrs) for nbrs in g.neighbours()}) == 1  # regular


def test_maps_onto_and_mapping_parser():
    g = w.petersen_classic()
    images = [2, 0, 1, 3, 4, 5, 6, 7, 8, 9]
    h = w.relabel(g, images)
    assert w.maps_onto(g, h, tuple(images))
    line = " ".join(f"{v + 1}->{images[v] + 1}" for v in range(10))
    assert w.parse_mapping(10, line) == tuple(images)
    assert not w.maps_onto(g, g, tuple(images))
    with pytest.raises(ValueError):
        w.parse_mapping(10, line.replace("1->3", "1->2"))


def test_group_order_of_s5_on_five_points():
    assert w.group_order([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], 200) == 120


def test_graph6_matches_known_encodings():
    assert w.graph6(w.Graph(7, frozenset())) == "F????"
    assert w.graph6(w.subset_graph(3, 1, 0)) == "Bw"  # the triangle K3
    assert w.graph6(w.petersen_classic()) == "IheA@GUAo"


def test_checks_accept_right_outputs_and_reject_wrong_ones():
    ok = lambda out: (0, out, "")  # noqa: E731
    triangle_free = w.Graph(3, frozenset())
    check = w._aut_canon_check(triangle_free, 6, "n=3:00")
    assert check([ok("(1 2)\n(1 2 3)\norder 6\n"), ok("n=3:00\n")], None) is None
    assert check([ok("(1 2)\n(1 2 3)\norder 6\n"), ok("n=3:01\n")], None)
    assert check([ok("(1 2)\norder 6\n"), ok("n=3:00\n")], None)  # generates only 2
    assert check([ok("(1 2)\n(1 2 3)\norder 6\n"), (2, "", "error: x")], None)

    g = w.petersen_classic()
    rotation = "(1 2 3 4 5)(6 7 8 9 10)"
    petersen = w._aut_canon_check(g, 120, "n=10:e0180c0d4a60")
    assert "generate" in petersen([ok(f"{rotation}\norder 120\n"), ok("n=10:e0180c0d4a60\n")], None)
    assert "not an automorphism" in petersen([ok("(1 2)\norder 120\n"), ok("")], None)

    h = w.relabel(g, [5, 1, 2, 3, 4, 0, 6, 7, 8, 9])
    assert h != g
    iso = w._iso_check(g, h)
    assert iso([ok("1->6 2->2 3->3 4->4 5->5 6->1 7->7 8->8 9->9 10->10\n")], None) is None
    assert iso([ok("1->1 2->2 3->3 4->4 5->5 6->6 7->7 8->8 9->9 10->10\n")], None)
    assert w._non_iso_check([(1, "non-isomorphic\n", "")], None) is None
    assert w._non_iso_check([ok("1->1\n")], None)


def test_petersen_check_pins_stdout_and_report():
    report = '{"verdict": "VERIFIED", "homomorphism_checked": 14400, "kernel_trivial": true, ' \
        '"image_order": 120, "aut_order_search": 120, "aut_order_brute": 120}'
    good = [(0, w.PETERSEN_STDOUT, "")]
    assert w._check_petersen(good, report) is None
    assert w._check_petersen([(0, w.PETERSEN_STDOUT + "\n", "")], report)
    assert w._check_petersen(good, report.replace("14400", "14399"))
    assert w._check_petersen([(1, w.PETERSEN_STDOUT, "")], report)
