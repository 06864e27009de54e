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


def _short_words(gens: list[Permutation], max_len: int) -> list[Permutation]:
    words = [Permutation.identity(gens[0].degree)]
    seen = set(words)
    frontier = list(words)
    for _ in range(max_len):
        layer = []
        for w in frontier:
            for g in gens:
                h = w * g
                if h not in seen:
                    seen.add(h)
                    layer.append(h)
        words.extend(layer)
        frontier = layer
    return words


def check_homomorphism(
    mode: str = "all-pairs",
    generators: Optional[Iterable[Permutation]] = None,
    action: Action = induced_action,
) -> tuple[bool, int]:
    """Check action(g * h) == action(g) * action(h).

    ``generators-only`` tests all pairs of words of length <= 3 in the
    generators; ``all-pairs`` tests every pair of the full generated
    group (14,400 pairs for S5).
    """
    gens = list(generators) if generators is not None else list(s5_generators())
    if mode == "generators-only":
        elements = _short_words(gens, 3)
    elif mode == "all-pairs":
        elements = closure(gens, cap=S5_ORDER)
    else:
        raise ValueError(f"unknown mode {mode!r}")
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
