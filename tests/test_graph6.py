import itertools
import random

import pytest

from autkit import (
    Graph,
    Graph6Error,
    edge_count,
    graph6_decode,
    graph6_encode,
    petersen_classic,
    petersen_subsets,
)

import reference_graphs
from conftest import all_masks, graph_from_mask, random_graph


def test_single_edge_is_A_underscore():
    g = Graph.from_edges(2, [(0, 1)])
    assert graph6_encode(g) == "A_"
    assert graph6_decode("A_") == g


def test_single_vertex_is_at_sign():
    g = Graph(1, (0,))
    assert graph6_encode(g) == "@"
    assert graph6_decode("@") == g


def test_known_petersen_strings():
    # the classic drawing's labelling encodes to the string published in
    # the common graph6 collections
    assert graph6_encode(petersen_classic()) == "IheA@GUAo"
    assert graph6_encode(petersen_subsets()) == "I@Q@YiWw?"
    assert graph6_decode("IheA@GUAo") == Graph(10, petersen_classic().adj)


def test_round_trip_exhaustive_up_to_5_vertices():
    for n in range(1, 6):
        for mask in all_masks(n):
            g = graph_from_mask(n, mask)
            assert graph6_decode(graph6_encode(g)) == g


def test_round_trip_random_up_to_20_vertices():
    rng = random.Random(20)
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 20))
        decoded = graph6_decode(graph6_encode(g))
        assert decoded == g
        assert edge_count(decoded) == edge_count(g)


def test_decode_tolerates_surrounding_whitespace():
    assert graph6_decode("A_\n") == Graph.from_edges(2, [(0, 1)])


def test_encode_rejects_large_graphs():
    with pytest.raises(ValueError):
        graph6_encode(Graph(63, (0,) * 63))


@pytest.mark.parametrize(
    "text",
    [
        "",  # empty
        "~??",  # long form
        "B",  # missing data characters
        "A_~",  # trailing junk
        "A\x1f",  # character below 63
        "A\x7f",  # character above 126
        "A@",  # nonzero padding bit (bit 1 of 6 used, pad must be 0)
    ],
)
def test_decode_rejects_malformed(text):
    with pytest.raises(Graph6Error):
        graph6_decode(text)


def decoded(decode, text):
    """The graph, or the message of the Graph6Error raised."""
    try:
        return decode(text)
    except Graph6Error as exc:
        return str(exc)


@pytest.mark.parametrize("first", ["!", ">", "\x7f"], ids=["far-below", "just-below", "just-above"])
def test_decode_names_an_invalid_vertex_count_character(first):
    # '>' and '\x7f' lie just outside the short form's '?'..'}' (0 to 62
    # vertices, '~' opening the long form): the message names the
    # character, alone or followed by data, as the independent decoder's
    want = f"invalid vertex-count character {first!r}"
    for text in (first, first + "?", first + "A_"):
        assert decoded(reference_graphs.graph6_decode, text) == want
        assert decoded(graph6_decode, text) == want


def corruptions(text, rng):
    """``text`` with each nonempty set of three faults: up to two data
    characters out of range, a padding bit set, and one data character
    dropped; a fault the text has no room for is left out."""
    n = ord(text[0]) - 63
    pad = -(n * (n - 1) // 2) % 6

    def out_of_range(t):
        chars = list(t)
        positions = rng.sample(range(1, len(t)), min(2, len(t) - 1))
        for i, bad in zip(positions, rng.sample("!0>\x7f\x80\u00e9", 2)):
            chars[i] = bad
        return "".join(chars)

    def padding(t):
        return t[:-1] + chr(63 + ((ord(t[-1]) - 63) | 1 << rng.randrange(pad)))

    def dropped(t):
        i = rng.randrange(1, len(t))
        return t[:i] + t[i + 1:]

    faults = [out_of_range, dropped] + ([padding] if pad else [])
    for k in range(1, len(faults) + 1):
        for chosen in itertools.combinations(faults, k):
            t = text
            for fault in chosen:
                if len(t) > 1:
                    t = fault(t)
            yield t


def test_decode_matches_the_bit_at_a_time_decoder():
    # the same graph, or the same message for the first fault in the
    # order: length, the first out-of-range character, padding
    rng = random.Random(62)
    messages = set()
    for n in range(63):
        for p in (0.1, 0.5, 0.9):
            g = random_graph(rng, n, p)
            text = graph6_encode(g)
            # the encoder against the independent decoder: both directions
            # share the column layout and the alphabet table, so a fault in
            # a shared piece cancels out in a round trip through autkit alone
            assert reference_graphs.graph6_decode(text) == g
            assert decoded(graph6_decode, text) == decoded(reference_graphs.graph6_decode, text)
            for bad in corruptions(text, rng):
                want = decoded(reference_graphs.graph6_decode, bad)
                assert decoded(graph6_decode, bad) == want
                messages.add(want.split()[0] if isinstance(want, str) else "graph")
    assert messages == {"graph", "expected", "out-of-range", "nonzero"}

