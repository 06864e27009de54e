"""Reference oracles for the S5 checks in ``autkit.verify``: the plain
versions, which enumerate the group themselves and multiply
``Permutation`` objects pair by pair, kept independent of the fast
image-table helpers so that differential tests can catch a bug in either.

A pair whose images differ in degree raises ``ValueError`` here (from
``Permutation.__mul__``); the fast path reports it as a failing pair."""

from __future__ import annotations

from typing import Iterable, Optional

from autkit import Permutation, closure
from autkit.verify import S5_ORDER, Action, induced_action, s5_generators


def check_homomorphism(
    generators: Optional[Iterable[Permutation]] = None,
    action: Action = induced_action,
) -> tuple[bool, int]:
    """Check action(g * h) == action(g) * action(h) for every pair of the
    full generated group (14,400 pairs for S5)."""
    gens = list(generators) if generators is not None else list(s5_generators())
    elements = closure(gens, cap=S5_ORDER)
    acted = {g: action(g) for g in elements}
    pairs = 0
    for g in elements:
        for h in elements:
            pairs += 1
            gh = g * h
            lhs = acted.get(gh)
            if lhs is None:
                lhs = action(gh)
            if lhs != acted[g] * acted[h]:
                return False, pairs
    return True, pairs


def check_kernel_trivial(action: Action = induced_action) -> bool:
    """True iff the identity of S5 is the only element acting trivially,
    checked exhaustively over all 120 elements."""
    ident10 = Permutation.identity(10)
    for g in closure(list(s5_generators()), cap=S5_ORDER):
        if action(g) == ident10 and not g.is_identity():
            return False
    return True
