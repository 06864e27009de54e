import json
import random
import time

import pytest

import autkit.verify
import reference_perms
import reference_verify
from autkit import (
    CapacityError,
    Graph,
    Permutation,
    closure,
    is_automorphism,
    kneser,
    permute_graph,
    petersen_classic,
    petersen_subsets,
)
from autkit.verify import (
    _cayley_rows,
    _homomorphism_pairs,
    _phi_table,
    check_homomorphism,
    check_kernel_trivial,
    induced_action,
    s5_generators,
    verify_petersen,
)

REPORT_KEYS = [
    "graph_stats",
    "phi_generator_images",
    "homomorphism_checked",
    "kernel_trivial",
    "image_order",
    "aut_order_search",
    "aut_order_brute",
    "verdict",
    "timings",
]

#: the report's timing keys without --brute, which adds "brute_force" last
PHASES = ["build_graph", "phi_automorphisms", "homomorphism", "kernel", "image_order", "aut_search"]

PHI_IMAGES = {
    "(1 2)": "(4 7)(5 8)(6 9)",
    "(1 2 3 4 5)": "(1 7 10 6 3)(2 8 4 9 5)",
}


def s5_elements():
    return closure(list(s5_generators()), cap=120)


def corrupt_transposition_image(p):
    # swap two images in the picture of (1 2), leave everything else alone
    img = induced_action(p)
    if p == Permutation.from_cycles(5, [[1, 2]]):
        images = list(img.images)
        images[0], images[1] = images[1], images[0]
        return Permutation(images)
    return img


# -------------------------------------------------------- induced action


def test_induced_action_of_identity():
    assert induced_action(Permutation.identity(5)) == Permutation.identity(10)


def test_induced_action_of_five_cycle_moves_vertex0_to_6():
    five_cycle = Permutation.from_cycles(5, [[1, 2, 3, 4, 5]])
    # {1,2,3} maps pointwise to {2,3,4}, which is vertex 6
    assert induced_action(five_cycle)(0) == 6


def test_induced_action_of_transposition():
    phi = induced_action(Permutation.from_cycles(5, [[1, 2]]))
    assert phi(3) == 6  # {1,3,4} -> {2,3,4}
    assert phi(0) == 0  # {1,2,3} is setwise fixed


def test_induced_action_rejects_wrong_degree():
    with pytest.raises(ValueError):
        induced_action(Permutation.identity(4))


def test_induced_action_matches_reference_on_s5():
    for g in s5_elements():
        image = induced_action(g)
        assert isinstance(image, Permutation)
        assert image == reference_verify.induced_action(g)


@pytest.mark.parametrize("degree", [1, 4, 6])
def test_induced_action_degree_message_matches_reference(degree):
    with pytest.raises(ValueError) as fast:
        induced_action(Permutation.identity(degree))
    with pytest.raises(ValueError) as reference:
        reference_verify.induced_action(Permutation.identity(degree))
    assert str(fast.value) == str(reference.value) == f"expected a degree-5 permutation, got degree {degree}"


def test_phi_generator_images_frozen():
    s, t = s5_generators()
    assert induced_action(s).cycle_string() == PHI_IMAGES["(1 2)"]
    assert induced_action(t).cycle_string() == PHI_IMAGES["(1 2 3 4 5)"]


# ---------------------------------------------------------- phi properties


def test_phi_lands_in_automorphism_group(petersen):
    for g in s5_elements():
        assert is_automorphism(petersen, induced_action(g))


def test_phi_respects_inverses():
    for g in s5_elements():
        assert induced_action(g.inverse()) == induced_action(g).inverse()


def test_phi_image_is_vertex_and_edge_transitive(petersen):
    gens = [induced_action(g) for g in s5_generators()]
    vertices, _ = reference_perms.orbit(gens, 0)
    assert len(vertices) == 10
    start = frozenset({0, 5})
    assert petersen.adj[0] >> 5 & 1
    seen = {start}
    queue = [start]
    for e in queue:
        for g in gens:
            image = frozenset(g(v) for v in e)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    assert len(seen) == 15


# ------------------------------------------------------------- checks


def test_homomorphism_all_pairs():
    assert check_homomorphism() == (True, 14400)


def test_homomorphism_trivial_generators():
    ok, pairs = check_homomorphism(generators=[Permutation.identity(5)])
    assert ok
    assert pairs == 1


def test_homomorphism_rejects_corrupted_action():
    ok, _ = check_homomorphism(action=corrupt_transposition_image)
    assert not ok


def test_homomorphism_degree_one_images():
    # itemgetter over one index returns an item, not a 1-tuple
    trivial = lambda p: Permutation.identity(1)  # noqa: E731
    assert check_homomorphism(action=trivial) == (True, 14400)
    assert check_homomorphism(generators=[Permutation.identity(1)], action=lambda p: p) == (True, 1)


def truncated_transposition_image(p):
    # phi((1 2)) fixes vertex 10, so dropping it leaves a degree-9 permutation
    img = induced_action(p)
    if p == Permutation.from_cycles(5, [[1, 2]]):
        return Permutation(img.images[:9])
    return img


def test_homomorphism_mixed_degree_images_fail():
    # (1 2) is the second element of the enumeration, so the first pair
    # pairing a degree-10 image with the degree-9 one is (identity, (1 2))
    assert check_homomorphism(action=truncated_transposition_image) == (False, 2)
    degree_one = lambda p: Permutation.identity(1) if p.images == (1, 0, 2, 3, 4) else p  # noqa: E731
    assert check_homomorphism(action=degree_one) == (False, 2)


def test_homomorphism_mixed_degrees_report_an_earlier_failure():
    # phi(identity) is not the identity, so pair 1 fails before any pair
    # of mixed degree is reached
    shift = Permutation.from_cycles(10, [[1, 2]])

    def shifted(p):
        img = induced_action(p) * shift
        # both factors fix vertex 10 for p = (1 2)
        return Permutation(img.images[:9]) if p.images == (1, 0, 2, 3, 4) else img

    assert check_homomorphism(action=shifted) == (False, 1)


def test_verify_petersen_mixed_degree_images_falsified():
    report = verify_petersen(action=truncated_transposition_image)
    assert report.verdict == "FALSIFIED"
    assert report.homomorphism_checked == 2
    assert report.image_order == 0
    assert report.phi_generator_images["(1 2)"] == PHI_IMAGES["(1 2)"]


def test_kernel_trivial():
    assert check_kernel_trivial()


def test_kernel_of_trivial_action_is_everything():
    assert not check_kernel_trivial(action=lambda g: Permutation.identity(10))


def test_kernel_is_measured_against_the_degree_10_identity():
    # phi(identity) is not the identity here, so no element acts trivially
    for image in (Permutation.from_cycles(10, [[1, 2]]), Permutation.identity(9)):
        constant = lambda g, image=image: image  # noqa: E731
        assert check_kernel_trivial(action=constant)
        assert reference_verify.check_kernel_trivial(action=constant)


# ------------------------------------------ differential against the oracle


def assert_matches_reference(generators, action):
    """Same ``(ok, pairs)`` as the Permutation-product oracle; where the
    oracle meets a pair of mixed degree and raises, the fast path must
    report a failure instead.  Returns the fast path's result."""
    result = check_homomorphism(generators, action)
    try:
        expected = reference_verify.check_homomorphism(generators, action)
    except ValueError:
        assert result[0] is False
    else:
        assert result == expected
    return result


def test_checks_match_reference_true_and_corrupted_actions():
    for action in (induced_action, corrupt_transposition_image):
        assert_matches_reference(None, action)
        assert check_kernel_trivial(action) == reference_verify.check_kernel_trivial(action)
    assert check_homomorphism(action=corrupt_transposition_image) == (False, 123)


def seeded_corruptions(rng, count):
    """``count`` actions, each the induced action with one element's image
    replaced: two of its points swapped, another image of the group, the
    degree-10 identity, or an identity of another degree."""
    group = s5_elements()
    true_images = [induced_action(g) for g in group]
    for case in range(count):
        kind = ("swap", "replace", "replace", "kernel", "degree")[case % 5]
        idx = rng.randrange(len(group))
        target, img = group[idx], true_images[idx]
        if kind == "swap":
            images = list(img.images)
            a, b = rng.sample(range(10), 2)
            images[a], images[b] = images[b], images[a]
            replacement = Permutation(images)
        elif kind == "replace":
            # another element of the image group: phi still lands in Aut
            replacement = rng.choice([h for h in true_images if h != img])
        elif kind == "kernel":
            replacement = Permutation.identity(10)
        else:
            replacement = Permutation.identity(rng.choice([1, 9, 11]))
        corrupted = {target: replacement}

        def action(p, corrupted=corrupted):
            return corrupted.get(p) or induced_action(p)

        yield action


def test_checks_match_reference_seeded_corruptions():
    rng = random.Random(4)
    group = s5_elements()
    failed = passed = 0
    for action in seeded_corruptions(rng, 200):
        generators = None if rng.random() < 0.25 else rng.sample(group, rng.randint(1, 3))
        ok, _ = assert_matches_reference(generators, action)
        assert check_kernel_trivial(action) == reference_verify.check_kernel_trivial(action)
        failed += not ok
        passed += ok
    # both outcomes occur, so the comparison is not vacuous either way
    assert failed > 50 and passed > 20


def test_homomorphism_pairs_match_tuple_reference_seeded_corruptions():
    # the byte-table scan against the itemgetter scan, which holds every
    # degree: the same (ok, position) on every corruption
    rng = random.Random(12)
    group = s5_elements()
    true_images = [induced_action(g) for g in group]
    positions = set()
    for case in range(240):
        kind = ("swap", "replace", "kernel", "degree", "swap", "constant")[case % 6]
        idx = rng.randrange(len(group))
        target, img = group[idx], true_images[idx]
        if kind == "swap":
            images = list(img.images)
            a, b = rng.sample(range(10), 2)
            images[a], images[b] = images[b], images[a]
            replacement = Permutation(images)
        elif kind == "replace":
            replacement = rng.choice([h for h in true_images if h != img])
        elif kind == "kernel":
            replacement = Permutation.identity(10)
        elif kind == "degree":
            replacement = Permutation.identity(rng.choice([1, 9, 11]))
        else:
            # every image of degree 1 but one of another degree
            replacement = Permutation.identity(rng.choice([1, 2]))
        corrupted = {target: replacement}
        base = (lambda p: Permutation.identity(1)) if kind == "constant" else induced_action

        def action(p, corrupted=corrupted, base=base):
            return corrupted.get(p) or base(p)

        generators = list(s5_generators()) if rng.random() < 0.25 else rng.sample(group, rng.randint(1, 3))
        elements, images = _phi_table(generators, action)
        result = _homomorphism_pairs(elements, images)
        assert result == reference_verify._homomorphism_pairs(elements, images), (case, kind)
        positions.add(result)
    # failures land in many rows and columns, past the first row too, and
    # some actions pass, so the comparison pins the position arithmetic
    failures = {k for ok, k in positions if not ok}
    assert len(failures) > 40
    assert any(k > 120 and k % 120 not in (0, 1) for k in failures)
    assert any(ok for ok, _ in positions)


def greedy_picks(group):
    """The indices whose rows ``_cayley_rows`` composes: each is the
    first element outside the subgroup the earlier picks generate."""
    picks = []
    reached = {group[0]}
    while len(reached) < len(group):
        picks.append(next(k for k, g in enumerate(group) if g not in reached))
        reached = set(closure([group[k] for k in picks], cap=len(group)))
    return picks


def cayley_cases():
    """S5, its induced-action image, and seeded subgroups in closure order:
    the trivial group, cyclic groups, the Klein four-group, a group of
    three commuting transpositions, and groups from random elements of S5."""
    rng = random.Random("cayley columns")
    s5 = s5_elements()
    generator_sets = [
        list(s5_generators()),
        [induced_action(g) for g in s5_generators()],
        [Permutation.identity(5)],
        [Permutation.identity(1)],
        [Permutation.from_cycles(5, [[1, 2, 3, 4, 5]])],
        [Permutation.from_cycles(5, [[1, 2, 3], [4, 5]])],
        [Permutation.from_cycles(5, [[1, 2]]), Permutation.from_cycles(5, [[3, 4]])],
        [Permutation.from_cycles(6, [[a, a + 1]]) for a in (1, 3, 5)],
    ]
    generator_sets += [rng.sample(s5, rng.randint(1, 3)) for _ in range(20)]
    return [closure(gens, cap=120) for gens in generator_sets]


def test_cayley_rows_match_direct_products():
    # every row against the products it stands for, index[g_k * g_j]
    picks = []
    for group in cayley_cases():
        index = {g: k for k, g in enumerate(group)}
        rows = _cayley_rows([bytes(g.images) for g in group])
        assert all(type(row) is bytes for row in rows)
        assert [list(row) for row in rows] == [[index[g * h] for h in group] for g in group]
        picks.append(greedy_picks(group))
    # S5 in closure order is generated by (1 2) and (1 2 3 4 5), its first
    # two elements past the identity: two rows of lookups
    assert picks[0] == picks[1] == [1, 2]
    # the trivial group needs no row, a cyclic one a single row, and the
    # greedy pick needs two or three rows for some of the others
    assert {len(p) for p in picks} == {0, 1, 2, 3}


def pairs_failing(elements, images):
    """Every failing pair (row k, column j) of a table whose images have one
    degree, by Permutation products."""
    index = {g: k for k, g in enumerate(elements)}
    return [
        (k, j)
        for k, g in enumerate(elements)
        for j, h in enumerate(elements)
        if images[index[g * h]] != images[k] * images[j]
    ]


@pytest.mark.parametrize("corrupted", [103, 119])
def test_failing_position_is_the_least_over_columns(corrupted):
    # one corrupted image phi(x) fails the pair (g, h) with g * h = x in
    # every column h but the identity's, so the column of (1 2) fails
    # first in a late row while row 1 fails first in a late column: the
    # position reported is the least over all columns, not the first
    # failing column's
    elements, images = _phi_table(list(s5_generators()), induced_action)
    images[corrupted] = images[corrupted] * Permutation.from_cycles(10, [[1, 2]])
    n = len(elements)
    failing = pairs_failing(elements, images)
    row, column = min(failing)
    first_column, first_column_row = min((j, k) for k, j in failing)
    assert row == 1 and column > n // 2
    assert first_column == 1 and first_column_row > n // 2
    assert _homomorphism_pairs(elements, images) == (False, row * n + column + 1)
    assert reference_verify._homomorphism_pairs(elements, images) == (False, row * n + column + 1)


@pytest.mark.parametrize("corrupted", [2, 103])
def test_failing_position_is_the_least_over_points(corrupted):
    # one image followed by the transposition of points 0 and 1: the first
    # failing pair differs at later points only, while point 0 first fails
    # at a later pair, so the position reported is the least over all
    # points, not the first failing point's
    elements, images = _phi_table(list(s5_generators()), induced_action)
    images[corrupted] = images[corrupted] * Permutation.from_cycles(10, [[1, 2]])
    n = len(elements)
    index = {g: k for k, g in enumerate(elements)}
    points = {}
    for k, g in enumerate(elements):
        for j, h in enumerate(elements):
            lhs, rhs = images[index[g * h]].images, (images[k] * images[j]).images
            points[k * n + j + 1] = [x for x in range(10) if lhs[x] != rhs[x]]
    first = min(k for k, xs in points.items() if xs)
    first_point = min(x for xs in points.values() for x in xs)
    assert first_point not in points[first]
    assert _homomorphism_pairs(elements, images) == (False, first)
    assert reference_verify._homomorphism_pairs(elements, images) == (False, first)


def mutated_image(rng, kind, img):
    """``img`` changed by one seeded mutation of the given kind."""
    images = list(img.images)
    if kind == "swap":
        a, b = rng.sample(range(len(images)), 2)
        images[a], images[b] = images[b], images[a]
        return Permutation(images)
    if kind == "truncate":
        # the relative order of the first k points, a permutation of degree k
        kept = images[:rng.randint(1, len(images) - 1)]
        return Permutation([sorted(kept).index(x) for x in kept])
    if kind == "extend":
        return Permutation(images + list(range(len(images), len(images) + rng.randint(1, 4))))
    if kind == "degree 1":
        return Permutation.identity(1)
    s = rng.randrange(1, len(images))
    return Permutation(images[s:] + images[:s])


def test_homomorphism_pairs_match_tuple_reference_on_mutated_tables():
    # the byte-table scan against the itemgetter scan on phi tables with
    # one to three images mutated, the identity's among them at times:
    # images of another degree must fail at the reference's position
    rng = random.Random("mutated phi tables")
    group = s5_elements()
    kinds = ("swap", "truncate", "extend", "degree 1", "shift")
    outcomes = set()
    for case in range(300):
        generators = list(s5_generators()) if case % 3 == 0 else rng.sample(group, rng.randint(1, 3))
        elements, images = _phi_table(generators, induced_action)
        kind = kinds[case % len(kinds)]
        chosen = set(rng.sample(range(len(elements)), min(len(elements), rng.randint(1, 3))))
        if rng.random() < 0.2:
            chosen.add(0)
        for i in sorted(chosen):
            images[i] = mutated_image(rng, kind, images[i])
        result = _homomorphism_pairs(elements, images)
        assert result == reference_verify._homomorphism_pairs(elements, images), (case, kind)
        outcomes.add((kind, result))
    assert {kind for kind, (ok, _) in outcomes if not ok} == set(kinds)
    assert len({k for _, (ok, k) in outcomes if not ok}) > 40


def padded_action(degree):
    """The induced action with the points past 10 fixed, up to ``degree``."""
    return lambda p: Permutation(induced_action(p).images + tuple(range(10, degree)))


def test_homomorphism_holds_up_to_256_points():
    assert check_homomorphism(action=padded_action(256)) == (True, 14400)
    assert check_homomorphism(generators=[Permutation.identity(256)], action=lambda p: p) == (True, 1)


def test_homomorphism_past_256_points_raises_capacity_error():
    with pytest.raises(CapacityError, match="256-point limit"):
        check_homomorphism(action=padded_action(257))
    with pytest.raises(CapacityError, match="256-point limit"):
        check_homomorphism(generators=[Permutation.identity(257)], action=lambda p: Permutation.identity(1))


def test_homomorphism_holds_on_a_group_of_240_elements():
    # S5 x C2 on 7 points: a Cayley row holds an element's index in a
    # byte, so a group of up to 256 elements is checked in full
    swap = Permutation.from_cycles(7, [[6, 7]])
    gens = [Permutation(g.images + (5, 6)) for g in s5_generators()] + [swap]

    def corrupted(p):
        return Permutation.from_cycles(7, [[1, 2], [6, 7]]) if p == swap else p

    assert assert_matches_reference(gens, lambda p: p) == (True, 57600)
    assert assert_matches_reference(gens, corrupted)[0] is False


def test_homomorphism_past_256_elements_raises_capacity_error():
    s6 = [Permutation.from_cycles(6, [[1, 2]]), Permutation.from_cycles(6, [[1, 2, 3, 4, 5, 6]])]
    with pytest.raises(CapacityError, match="^group exceeds cap of 256 elements$"):
        check_homomorphism(s6, lambda p: p)


def test_verify_petersen_images_past_256_points_falsified(monkeypatch):
    report = verify_petersen(action=padded_action(257))
    assert report.verdict == "FALSIFIED"
    assert report.homomorphism_checked == 0
    assert report.image_order == 120
    assert "homomorphism" in report.timings
    # with the Aut check passed, the refused homomorphism check alone
    # decides the verdict
    monkeypatch.setattr(autkit.verify, "_phi_in_aut", lambda graph, images: True)
    assert verify_petersen(action=padded_action(257)).verdict == "FALSIFIED"
    assert verify_petersen(action=padded_action(256)).verdict == "VERIFIED"


def test_verify_petersen_enumerates_s5_once(monkeypatch):
    closure_degrees = []
    real_closure = autkit.verify.closure

    def counting_closure(gens, cap):
        closure_degrees.append(gens[0].degree)
        return real_closure(gens, cap)

    actions = []

    def counting_action(p):
        actions.append(p)
        return induced_action(p)

    monkeypatch.setattr(autkit.verify, "closure", counting_closure)
    report = verify_petersen(run_brute=True, action=counting_action)
    assert report.verdict == "VERIFIED"
    assert report.homomorphism_checked == 14400
    # S5 is enumerated once, for phi's table, and its image once
    assert closure_degrees == [5, 10]
    assert len(actions) == 120
    assert len(set(actions)) == 120


# ------------------------------------------------------------- pipeline


def test_verify_petersen_report_contents():
    report = verify_petersen()
    assert report.verdict == "VERIFIED"
    assert report.graph_stats == {
        "n": 10,
        "edges": 15,
        "regular_degree": 3,
        "girth": 5,
        "diameter": 2,
    }
    assert report.phi_generator_images == PHI_IMAGES
    assert report.homomorphism_checked == 14400
    assert report.kernel_trivial is True
    assert report.image_order == 120
    assert report.aut_order_search == 120
    assert report.aut_order_brute is None


def test_verify_petersen_with_brute():
    report = verify_petersen(run_brute=True)
    assert report.verdict == "VERIFIED"
    assert report.aut_order_brute == 120
    assert "brute_force" in report.timings


def test_verify_petersen_brute_on_a_graph_past_the_scan_cap():
    # brute force is capped at 10 vertices; a larger probe graph is a
    # failing check, not an exception
    report = verify_petersen(run_brute=True, graph=kneser(6, 2))
    assert report.aut_order_brute == 0
    assert report.verdict == "FALSIFIED"
    assert "brute_force" in report.timings


def test_verify_petersen_on_an_empty_probe_graph():
    # the search and the scan need a vertex; an empty probe graph is a
    # failing check, not an exception
    for run_brute, brute_order in ((False, None), (True, 0)):
        report = verify_petersen(run_brute=run_brute, graph=Graph(0, ()))
        assert report.aut_order_search == 0
        assert report.aut_order_brute == brute_order
        assert report.verdict == "FALSIFIED"


def test_report_json_shape():
    report = verify_petersen()
    data = json.loads(report.to_json())
    assert list(data) == REPORT_KEYS
    # the phases in the order they run, which is the order of the keys
    assert list(data["timings"]) == PHASES
    assert list(json.loads(verify_petersen(run_brute=True).to_json())["timings"]) == [*PHASES, "brute_force"]
    # everything except the wall-clock values is part of the stable surface
    data["timings"] = {}
    assert data == {
        "graph_stats": {"n": 10, "edges": 15, "regular_degree": 3, "girth": 5, "diameter": 2},
        "phi_generator_images": PHI_IMAGES,
        "homomorphism_checked": 14400,
        "kernel_trivial": True,
        "image_order": 120,
        "aut_order_search": 120,
        "aut_order_brute": None,
        "verdict": "VERIFIED",
        "timings": {},
    }


def test_phi_automorphisms_times_the_aut_check_alone(monkeypatch):
    # phi's table is read by every later phase, so its time is the build's;
    # the phase named for the Aut check times that check alone
    real_phi_table = autkit.verify._phi_table

    def slow_phi_table(gens, action):
        time.sleep(0.05)
        return real_phi_table(gens, action)

    monkeypatch.setattr(autkit.verify, "_phi_table", slow_phi_table)
    timings = verify_petersen().timings
    assert timings["build_graph"] >= 0.05 > timings["phi_automorphisms"]


def delete_edge(g, u, v):
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return Graph(g.n, tuple(adj), g.labels)


def add_edge(g, u, v):
    adj = list(g.adj)
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    return Graph(g.n, tuple(adj), g.labels)


def test_verdict_falsified_for_deleted_edge(petersen):
    u, v = petersen.edges()[0]
    assert verify_petersen(graph=delete_edge(petersen, u, v)).verdict == "FALSIFIED"


def test_verdict_falsified_for_added_edge(petersen):
    rng = random.Random(40)
    non_edges = [
        (u, v) for u in range(10) for v in range(u + 1, 10) if not petersen.adj[u] >> v & 1
    ]
    u, v = rng.choice(non_edges)
    assert verify_petersen(graph=add_edge(petersen, u, v)).verdict == "FALSIFIED"


def test_verdict_falsified_for_corrupted_generator_image():
    assert verify_petersen(action=corrupt_transposition_image).verdict == "FALSIFIED"


def test_verdict_falsified_when_phi_alone_leaves_aut():
    # the classic drawing is Petersen under other labels: every order and
    # the homomorphism hold, but φ's images are not its automorphisms
    report = verify_petersen(run_brute=True, graph=petersen_classic())
    assert (report.homomorphism_checked, report.kernel_trivial) == (14400, True)
    assert (report.image_order, report.aut_order_search, report.aut_order_brute) == (120, 120, 120)
    assert report.verdict == "FALSIFIED"


#: relabellings of the subset model, each with whether phi((1 2)) and
#: phi((1 2 3 4 5)) are automorphisms of the relabelled graph
ONE_GENERATOR_IN_AUT = {
    "(1 2) only": ([6, 7, 0, 8, 9, 1, 2, 3, 4, 5], (True, False)),
    "(1 2 3 4 5) only": ([0, 8, 3, 4, 5, 6, 9, 7, 2, 1], (False, True)),
}


@pytest.mark.parametrize("sigma, in_aut", ONE_GENERATOR_IN_AUT.values(), ids=ONE_GENERATOR_IN_AUT)
def test_verdict_falsified_when_one_generator_image_leaves_aut(sigma, in_aut):
    # every order and the homomorphism hold, and one generator's image is an
    # automorphism: a verdict that checked the other one alone would pass
    g = permute_graph(petersen_subsets(), Permutation(sigma))
    assert tuple(is_automorphism(g, induced_action(x)) for x in s5_generators()) == in_aut
    report = verify_petersen(run_brute=True, graph=g)
    assert (report.homomorphism_checked, report.kernel_trivial) == (14400, True)
    assert (report.image_order, report.aut_order_search, report.aut_order_brute) == (120, 120, 120)
    assert report.verdict == "FALSIFIED"


def test_verdict_matches_the_rule_that_checks_all_120_images(petersen):
    # the report checks phi in Aut on the two generators' images; the verdict
    # recomputed here with every image checked must agree on each probe
    probes = [(petersen, action) for action in seeded_corruptions(random.Random("all images"), 200)]
    relabelled = [permute_graph(petersen, Permutation(sigma)) for sigma, _ in ONE_GENERATOR_IN_AUT.values()]
    probes += [(g, induced_action) for g in (petersen, petersen_classic(), delete_edge(petersen, 0, 5), *relabelled)]
    outcomes = []
    for g, action in probes:
        report = verify_petersen(graph=g, action=action)
        in_aut = all(img.degree == g.n and is_automorphism(g, img) for img in map(action, s5_elements()))
        hom_ok = check_homomorphism(action=action)[0]
        verified = in_aut and hom_ok and report.kernel_trivial and report.image_order == report.aut_order_search == 120
        assert report.verdict == ("VERIFIED" if verified else "FALSIFIED")
        outcomes.append((in_aut, hom_ok))
    # every image in Aut with the homomorphism broken, and the reverse,
    # occur, so neither term decides the comparison alone
    assert outcomes.count((True, False)) > 20
    assert outcomes.count((False, True)) >= 3
    assert (True, True) in outcomes


def test_verdict_falsified_when_the_search_order_alone_is_wrong():
    # every vertex map is an automorphism of the edgeless graph, so φ lands
    # in Aut, and only |Aut| = 10! is not 120
    report = verify_petersen(graph=Graph(10, (0,) * 10))
    assert (report.homomorphism_checked, report.kernel_trivial, report.image_order) == (14400, True, 120)
    assert report.aut_order_search == 3628800
    assert report.verdict == "FALSIFIED"
