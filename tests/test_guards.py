"""Guards and small public behaviours that no other test reaches, each
pinned to its message or result."""

import pytest

from autkit import (
    Graph,
    Permutation,
    are_isomorphic,
    automorphisms,
    brute_force_automorphisms,
    canonical_form,
    closure,
    diameter,
    is_connected,
    kneser,
    petersen_subsets,
    refine,
    schreier_sims,
    subsets,
)

EMPTY = Graph(0, ())
SWAP = Permutation.from_cycles(3, [[1, 2]])
C3 = schreier_sims([Permutation.from_cycles(3, [[1, 2, 3]])])
NO_VERTEX = (ValueError, "graph must have at least one vertex")
NO_GROUND = (ValueError, "ground set size must be positive")

CASES = {
    "automorphisms-empty": (lambda: automorphisms(EMPTY), NO_VERTEX),
    "canonical_form-empty": (lambda: canonical_form(EMPTY), NO_VERTEX),
    "are_isomorphic-empty": (lambda: are_isomorphic(EMPTY, EMPTY), NO_VERTEX),
    "brute_force-empty": (lambda: brute_force_automorphisms(EMPTY), NO_VERTEX),
    "partition-negative-vertex": (
        lambda: refine(Graph(2, (0, 0)), ((0, -1),)),
        (ValueError, "cells are not a partition of range(2) into nonempty cells"),
    ),
    "subsets-ground-0": (lambda: subsets(0, 0), NO_GROUND),
    "kneser-ground-0": (lambda: kneser(0, 0), NO_GROUND),
    "closure-cap-0": (lambda: closure([SWAP], cap=0), (ValueError, "cap must be positive")),
    "diameter-empty": (lambda: diameter(EMPTY), None),
    "is_connected-empty": (lambda: is_connected(EMPTY), True),
    "is_connected-one-vertex": (lambda: is_connected(Graph(1, (0,))), True),
    "degree": (lambda: petersen_subsets().degree(3), 3),
    "permutation-times-int": (
        lambda: SWAP * 3,
        (TypeError, "unsupported operand type(s) for *: 'Permutation' and 'int'"),
    ),
    "permutation-repr": (lambda: repr(SWAP), "Permutation([1, 0, 2])"),
    "permutation-str": (lambda: str(SWAP), "(1 2)"),
    "bsgs-not-in": (lambda: SWAP in C3, False),
    "bsgs-in": (lambda: Permutation.from_cycles(3, [[1, 3, 2]]) in C3, True),
    "bsgs-repr": (lambda: repr(C3), "BSGS(degree=3, base=[0], order=3)"),
    "from_edges-loop": (lambda: Graph.from_edges(3, [(1, 1)]), (ValueError, "loop at vertex 1")),
    "from_cycles-degree-0": (
        lambda: Permutation.from_cycles(0, []),
        (ValueError, "permutation degree must be at least 1"),
    ),
    "from_cycles-float-point": (
        lambda: Permutation.from_cycles(3, [[1.0, 2]]),
        (ValueError, "cycle [1.0, 2] is not a sequence of integer points"),
    ),
    "from_cycles-str-point": (
        lambda: Permutation.from_cycles(3, [["1", 2]]),
        (ValueError, "cycle ['1', 2] is not a sequence of integer points"),
    ),
    "from_cycles-cycle-not-iterable": (
        lambda: Permutation.from_cycles(3, [5]),
        (ValueError, "cycle 5 is not a sequence of integer points"),
    ),
}


@pytest.mark.parametrize("call, want", CASES.values(), ids=list(CASES))
def test_guard_or_result(call, want):
    if isinstance(want, tuple):
        kind, message = want
        with pytest.raises(kind) as info:
            call()
        assert str(info.value) == message
    else:
        assert call() == want
