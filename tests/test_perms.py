import itertools
import math
import random

import pytest

from autkit import (
    BSGS,
    CapacityError,
    Graph,
    Permutation,
    automorphisms,
    closure,
    johnson_general,
    kneser,
    petersen_subsets,
    schreier_sims,
)
from autkit.verify import induced_action, s5_generators

import reference_perms

P = Permutation


def compose_oracle(p, q):
    # left-to-right pointwise definition, independent of __mul__
    return P(q(p(x)) for x in range(p.degree))


def random_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return P(images)


# ---------------------------------------------------------------- basics


def test_identity_images():
    assert P.identity(3).images == (0, 1, 2)
    assert P.identity(1).images == (0,)


def test_identity_degree_zero_rejected():
    for n in (0, -2):
        with pytest.raises(ValueError) as err:
            P.identity(n)
        assert str(err.value) == "permutation degree must be at least 1"
    with pytest.raises(ValueError):
        P(())


def test_non_bijection_rejected():
    with pytest.raises(ValueError):
        P((0, 0, 1))
    with pytest.raises(ValueError):
        P((1, 2, 3))


class Index:
    """An integer-like object that is not an int, as numpy integers are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("images", [[1.0, 0.0], [0, 1.5], [0, "1"], [None], [0, 1, 2.0]])
def test_non_integer_images_rejected(images):
    # 1.0 == 1 passes a sorted() bijection check, but cycle_string() then
    # indexes a tuple with a float
    with pytest.raises(ValueError, match="is not an integer"):
        P(images)


def test_integer_like_images_are_stored_as_int():
    for images, expected in (([True, False], (1, 0)), ([Index(1), Index(2), Index(0)], (1, 2, 0))):
        p = P(images)
        assert p.images == expected
        assert all(type(x) is int for x in p.images)
    assert P([True, False]).cycle_string() == "(1 2)"
    assert P([Index(1), Index(0)]) == P.from_cycles(2, [[1, 2]])


def test_numpy_integer_images_are_stored_as_int():
    np = pytest.importorskip("numpy")
    p = P(np.array([2, 0, 1], dtype=np.int64))
    assert p.images == (2, 0, 1)
    assert all(type(x) is int for x in p.images)
    assert p.cycle_string() == "(1 3 2)"
    assert hash(p) == hash(P([2, 0, 1]))
    with pytest.raises(ValueError, match="is not an integer"):
        P(np.array([1.0, 0.0]))


def test_compose_with_identity():
    rng = random.Random(1)
    for _ in range(20):
        p = random_perm(rng, 5)
        assert P.identity(5) * p == p
        assert p * P.identity(5) == p


def test_compose_left_to_right():
    # (0 1) then (1 2): 0 -> 1 -> 2, 1 -> 0 -> 0, 2 -> 2 -> 1
    p = P.from_cycles(3, [[1, 2]])
    q = P.from_cycles(3, [[2, 3]])
    r = p * q
    assert r == compose_oracle(p, q)
    assert r.images == (2, 0, 1)


def test_compose_degree_mismatch():
    # products skip the bijection check but keep the degree check
    for a, b in ((3, 4), (4, 3), (1, 2), (12, 9)):
        with pytest.raises(ValueError, match="degree mismatch"):
            P.identity(a) * P.identity(b)


def test_inverse_examples():
    assert P.identity(5).inverse() == P.identity(5)
    # solve r[p[x]] = x pointwise for p = [1, 2, 0]
    assert P((1, 2, 0)).inverse() == P((2, 0, 1))


def test_inverse_law_random():
    rng = random.Random(2)
    for _ in range(100):
        p = random_perm(rng, rng.randint(1, 12))
        ident = P.identity(p.degree)
        assert p * p.inverse() == ident
        assert p.inverse() * p == ident


def test_group_axioms_random_triples():
    rng = random.Random(3)
    for _ in range(1000):
        n = rng.randint(1, 12)
        a, b, c = (random_perm(rng, n) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_trusted_products_and_inverses_equal_validated_ones():
    # __mul__ and inverse skip the bijection check; their results must be
    # indistinguishable from the validated Permutation of the same images
    rng = random.Random(6)
    for _ in range(1000):
        n = rng.randint(1, 12)
        p, q = random_perm(rng, n), random_perm(rng, n)
        for result, images in (
            (p * q, [q(p(x)) for x in range(n)]),
            (p.inverse(), sorted(range(n), key=p)),
        ):
            validated = P(images)
            assert type(result) is P
            assert result == validated and validated == result
            assert hash(result) == hash(validated)
            assert result.images == validated.images
            assert all(type(x) is int for x in result.images)
        assert (p * q).inverse() == q.inverse() * p.inverse()


# ---------------------------------------------------------------- cycles


def test_from_cycles_examples():
    assert P.from_cycles(5, [[1, 2]]).images == (1, 0, 2, 3, 4)
    assert P.from_cycles(5, [[1, 2, 3, 4, 5]]).images == (1, 2, 3, 4, 0)
    assert P.from_cycles(5, []) == P.identity(5)


def test_from_cycles_rejects_bad_points():
    with pytest.raises(ValueError):
        P.from_cycles(5, [[1, 6]])
    with pytest.raises(ValueError):
        P.from_cycles(5, [[0, 1]])
    with pytest.raises(ValueError):
        P.from_cycles(5, [[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        P.from_cycles(5, [[1, 2, 1]])


def test_cycle_string_format():
    assert P.identity(4).cycle_string() == "()"
    assert P.from_cycles(5, [[1, 2, 3], [4, 5]]).cycle_string() == "(1 2 3)(4 5)"
    # cycles start at their smallest point and are ordered by it
    assert P.from_cycles(5, [[5, 4], [3, 2, 1]]).cycle_string() == "(1 3 2)(4 5)"


def test_cycle_string_round_trip():
    rng = random.Random(4)
    for _ in range(200):
        p = random_perm(rng, rng.randint(1, 12))
        assert P.from_cycle_string(p.degree, p.cycle_string()) == p


def test_parse_cycle_string_errors():
    with pytest.raises(ValueError):
        P.from_cycle_string(5, "")
    with pytest.raises(ValueError):
        P.from_cycle_string(5, "(1 2")
    with pytest.raises(ValueError):
        P.from_cycle_string(5, "(1 2) junk")
    with pytest.raises(ValueError):
        P.from_cycle_string(3, "(1 4)")


# ------------------------------------------------------- schreier-sims

BATTERY = {
    "S3": (3, [[[1, 2]], [[1, 2, 3]]], 6),
    "A4": (4, [[[1, 2, 3]], [[2, 3, 4]]], 12),
    "S4": (4, [[[1, 2]], [[1, 2, 3, 4]]], 24),
    "D5": (5, [[[1, 2, 3, 4, 5]], [[2, 5], [3, 4]]], 10),
    "C5": (5, [[[1, 2, 3, 4, 5]]], 5),
    "S5": (5, [[[1, 2]], [[1, 2, 3, 4, 5]]], 120),
}


def battery_generators(name):
    n, cycle_sets, _ = BATTERY[name]
    return n, [P.from_cycles(n, cycles) for cycles in cycle_sets]


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_bsgs_order_matches_closure(name):
    n, gens = battery_generators(name)
    expected = BATTERY[name][2]
    elements = closure(gens, 200)
    assert len(elements) == expected
    assert schreier_sims(gens).order() == expected


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_membership_agrees_with_closure(name):
    n, gens = battery_generators(name)
    group = schreier_sims(gens)
    members = set(closure(gens, 200))
    for p in members:
        assert group.contains(p)
    non_members = [P(im) for im in itertools.permutations(range(n)) if P(im) not in members]
    for p in non_members[:100]:
        assert not group.contains(p)


def random_generator_set(rng, n):
    """1-4 generators of degree n mixing random permutations, the identity,
    transpositions, permutations moving only a few points, and repeats."""
    gens = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(5)
        if kind == 0:
            gens.append(P.identity(n))
        elif kind == 1 and n >= 2:
            a, b = rng.sample(range(1, n + 1), 2)
            gens.append(P.from_cycles(n, [[a, b]]))
        elif kind == 2:
            support = rng.sample(range(n), rng.randint(1, n))
            images = list(range(n))
            shuffled = support[:]
            rng.shuffle(shuffled)
            for src, dst in zip(support, shuffled):
                images[src] = dst
            gens.append(P(images))
        elif kind == 3 and gens:
            gens.append(rng.choice(gens))
        else:
            gens.append(random_perm(rng, n))
    return gens


def random_word(rng, gens, length):
    word = P.identity(gens[0].degree)
    for _ in range(length):
        g = rng.choice(gens)
        word = word * (g if rng.random() < 0.5 else g.inverse())
    return word


def assert_bsgs_invariants(group):
    base, strong, transversals = group.base, group.strong_generators, group.transversals
    assert len(set(base)) == len(base) == len(transversals)
    for i, (b, trans) in enumerate(zip(base, transversals)):
        # level i's strong generators are exactly those fixing base[:i],
        # and its fundamental orbit is the orbit of base[i] under them
        level = [s for s in strong if all(s(c) == c for c in base[:i])]
        assert set(trans) == (reference_perms.orbit(level, b)[0] if level else {b})
        for x, word in trans.items():
            assert word(b) == x
            assert all(word(c) == c for c in base[:i])
    for s in strong:
        assert any(s(b) != b for b in base)
    assert group.order() == math.prod(len(t) for t in transversals)


def assert_same_group(group, gens, rng):
    """``group`` is a valid BSGS of the group the reference Schreier-Sims
    builds from ``gens``: the same order and the same membership answers,
    not the same base or transversals."""
    ref = reference_perms.schreier_sims(gens)
    n = gens[0].degree
    assert group.degree == n
    assert group.order() == ref.order()
    assert all(group.contains(g) for g in gens)
    transposition = P.from_cycles(n, [rng.sample(range(1, n + 1), 2)]) if n > 1 else P.identity(1)
    for _ in range(10):
        word = random_word(rng, gens, rng.randint(0, 12))
        assert group.contains(word)
        for p in (random_perm(rng, n), word * transposition):
            assert group.contains(p) == ref.contains(p)
    assert_bsgs_invariants(group)


def test_schreier_sims_matches_reference_random():
    rng = random.Random(9)
    orders = set()
    for _ in range(500):
        n = rng.randint(1, 12)
        gens = random_generator_set(rng, n)
        group = schreier_sims(gens)
        assert_same_group(group, gens, rng)
        orders.add(group.order())
    # the sets reach trivial, small and large groups alike
    assert 1 in orders and 2 in orders and max(orders) >= math.factorial(10)


def test_extend_by_a_member_changes_nothing():
    # gens + gens has the same greedy base, and its second half extends the
    # group by members only
    rng = random.Random(10)
    sets = [battery_generators(name)[1] for name in sorted(BATTERY)]
    sets += [random_generator_set(rng, rng.randint(1, 12)) for _ in range(300)]
    for gens in sets:
        once, twice = schreier_sims(gens), schreier_sims(gens + gens)
        assert twice.base == once.base
        assert twice.strong_generators == once.strong_generators
        assert twice.transversals == once.transversals


def test_schreier_sims_opens_a_level_past_the_greedy_base():
    # both generators move point 0, so the greedy base is (0,); the residue
    # of (1 2) after sifting fixes 0 and opens a level at 1
    group = schreier_sims([P.from_cycles(3, [[1, 2, 3]]), P.from_cycles(3, [[1, 2]])])
    assert group.base == (0, 1)
    assert [len(t) for t in group.transversals] == [3, 2]
    assert group.order() == 6


def test_bsgs_rejects_bad_degree():
    with pytest.raises(ValueError):
        BSGS(0)
    with pytest.raises(ValueError, match="degree mismatch"):
        schreier_sims([P.identity(4)]).contains(P.identity(5))


@pytest.mark.parametrize(
    "g",
    [petersen_subsets(), kneser(6, 2), johnson_general(6, 2, 1), Graph(7, (0,) * 7), kneser(7, 3)],
    ids=["petersen", "K(6,2)", "J(6,2,1)", "edgeless-7", "K(7,3)"],
)
def test_schreier_sims_matches_reference_on_search_generators(g):
    rng = random.Random(12)
    gens = list(automorphisms(g)[0])
    for k in range(1, len(gens) + 1):
        assert_same_group(schreier_sims(gens[:k]), gens[:k], rng)
    assert schreier_sims(gens).order() == {10: 120, 15: 720, 7: 5040, 35: 5040}[g.n]


def test_schreier_sims_single_cycle():
    assert schreier_sims([P.from_cycles(5, [[1, 2, 3, 4, 5]])]).order() == 5


def test_schreier_sims_trivial_group():
    group = schreier_sims([P.identity(4)])
    assert group.order() == 1
    assert group.contains(P.identity(4))
    assert not group.contains(P.from_cycles(4, [[1, 2]]))


def test_schreier_sims_empty_generators_rejected():
    with pytest.raises(ValueError):
        schreier_sims([])


def test_bsgs_structure_invariants():
    _, gens = battery_generators("S5")
    group = schreier_sims(gens)
    # every strong generator moves some base point
    for s in group.strong_generators:
        assert any(s(b) != b for b in group.base)
    # transversal at level i maps base[i] to each orbit point
    for b, trans in zip(group.base, group.transversals):
        for x, rep in trans.items():
            assert rep(b) == x
    assert group.order() == math.prod(len(t) for t in group.transversals)


def test_contains_identity_always():
    for name in BATTERY:
        n, gens = battery_generators(name)
        assert schreier_sims(gens).contains(P.identity(n))


def test_contains_rejects_known_non_member():
    group = schreier_sims([P.from_cycles(5, [[1, 2, 3, 4, 5]])])
    assert not group.contains(P.from_cycles(5, [[1, 2]]))


def test_contains_degree_mismatch():
    group = schreier_sims([P.from_cycles(5, [[1, 2]])])
    with pytest.raises(ValueError):
        group.contains(P.identity(4))


# ------------------------------------------------------------- closure


def test_closure_transposition():
    elements = closure([P.from_cycles(5, [[1, 2]])], 10)
    assert len(elements) == 2


def test_closure_is_deterministic_bfs_then_lex():
    elements = closure([P.from_cycles(3, [[1, 2, 3]])], 10)
    assert [p.images for p in elements] == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    again = closure([P.from_cycles(3, [[1, 2, 3]])], 10)
    assert elements == again
    # with two generators the products come out as (1 2 3), (1 2) at word
    # length 1 and as (1 3 2), (2 3), (1 3) at length 2; each layer is
    # listed by its sorted images
    elements = closure([P.from_cycles(3, [[1, 2, 3]]), P.from_cycles(3, [[1, 2]])], 10)
    assert [p.images for p in elements] == [(0, 1, 2), (1, 0, 2), (1, 2, 0), (0, 2, 1), (2, 0, 1), (2, 1, 0)]


def test_closure_cap_exceeded():
    _, gens = battery_generators("S5")
    with pytest.raises(CapacityError):
        closure(gens, 100)


def test_closure_cap_exact_is_fine():
    _, gens = battery_generators("S5")
    assert len(closure(gens, 120)) == 120


def test_closure_empty_generators_rejected():
    with pytest.raises(ValueError):
        closure([], 10)


def test_closure_of_induced_action_generators():
    gens = [induced_action(g) for g in s5_generators()]
    assert len(closure(gens, 1000)) == 120


def closure_cases():
    """The S5 generators, their induced-action images, and 20 seeded
    generator sets in S6 and S7, each generator moving a random subset of
    the points, so that the groups range from small to the whole of S7."""
    rng = random.Random("closure cases")
    cases = [list(s5_generators()), [induced_action(g) for g in s5_generators()]]
    for case in range(20):
        n = 6 + case % 2
        gens = []
        for _ in range(rng.randint(1, 3)):
            moved = rng.sample(range(n), rng.randint(2, n))
            images = list(range(n))
            for x, y in zip(moved, rng.sample(moved, len(moved))):
                images[x] = y
            gens.append(P(images))
        cases.append(gens)
    return cases


def test_closure_matches_permutation_product_reference():
    # the image-tuple search against the Permutation-product one, element
    # by element and in order, and the same CapacityError one element short
    orders = set()
    for gens in closure_cases():
        expected = reference_perms.closure(gens, 5040)
        elements = closure(gens, 5040)
        assert all(type(p) is P for p in elements)
        assert [p.images for p in elements] == [p.images for p in expected]
        order = len(expected)
        assert [p.images for p in closure(gens, order)] == [p.images for p in expected]
        for enumerate_group in (closure, reference_perms.closure):
            with pytest.raises(CapacityError, match=f"^group exceeds cap of {order - 1} elements$"):
                enumerate_group(gens, order - 1)
        orders.add(order)
    # small groups, S7 and sizes between, so the order is pinned at several
    # layer widths
    assert len(orders) > 6 and max(orders) == 5040
