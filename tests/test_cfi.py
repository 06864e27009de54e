"""Cai-Fuerer-Immerman graphs (Combinatorica 12, 1992) as an oracle for the
group order and for isomorphism.

Over a connected base graph H, CFI(H) has |Aut| = 2^(|E|-|V|+1) * |Aut(H)|,
and the copy with one edge twisted has the same equitable refinement as
CFI(H) but is not isomorphic to it.  Both facts hold independently of the
search, so they check its group and its certificate on graphs whose
groups are too large for the brute-force oracle.

CFI(Q3) and CFI(Petersen) have 80 and 100 vertices, past the 62 that
short-form graph6 can carry, so the CLI checks hand the graphs to
``autkit.cli.main`` in process in place of its graph6 reader; everything
after reading runs as in ``autkit aut`` and ``autkit iso``."""

import itertools

import pytest

from autkit import Graph, are_isomorphic, automorphisms, is_automorphism, petersen_subsets, schreier_sims
from autkit import cli, search


def cfi(h, twisted=False):
    """CFI(h), or its twisted copy.

    Each vertex v of h with incident edges e_1..e_d becomes a gadget: two
    end vertices (v, e, 0) and (v, e, 1) per incident edge, and one middle
    vertex per even-size subset S of the incident edges, joined to
    (v, e, 1) for e in S and to (v, e, 0) otherwise.  Each edge uv of h
    joins (u, uv, b) to (v, uv, b) for b = 0, 1; the twisted copy crosses
    the two joins of h's first edge instead."""
    edges = h.edges()
    index = {}
    pairs = []

    def vertex(key):
        return index.setdefault(key, len(index))

    for v in range(h.n):
        incident = [e for e in edges if v in e]
        for bits in itertools.product((0, 1), repeat=len(incident)):
            if sum(bits) % 2 == 0:
                middle = vertex(("middle", v, bits))
                pairs.extend((middle, vertex((v, e, b))) for e, b in zip(incident, bits))
    for k, (u, v) in enumerate(edges):
        cross = int(twisted and k == 0)
        pairs.extend((vertex((u, (u, v), b)), vertex((v, (u, v), b ^ cross))) for b in (0, 1))
    return Graph.from_edges(len(index), pairs)


def cube():
    return Graph.from_edges(8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit])


#: base graph and |Aut(H)|
BASES = {
    "K4": (Graph.from_edges(4, itertools.combinations(range(4), 2)), 24),
    "Q3": (cube(), 48),
    "petersen": (petersen_subsets(), 120),
}


def expected_order(name):
    h, aut_h = BASES[name]
    return 2 ** (len(h.edges()) - h.n + 1) * aut_h


def run_cli_on(monkeypatch, capsys, args, graphs):
    """``autkit.cli.main(args)`` with each input path read as ``graphs[path]``."""
    monkeypatch.setattr(cli, "_read_graph", graphs.__getitem__)
    code = cli.main(args)
    return code, capsys.readouterr().out


def test_expected_orders():
    assert {name: expected_order(name) for name in BASES} == {"K4": 192, "Q3": 1536, "petersen": 7680}
    assert [cfi(h).n for h, _ in BASES.values()] == [40, 80, 100]


@pytest.mark.parametrize("name", sorted(BASES))
def test_cfi_order_from_aut_command(name, monkeypatch, capsys):
    code, out = run_cli_on(monkeypatch, capsys, ["aut"], {"-": cfi(BASES[name][0])})
    assert code == 0
    assert out.splitlines()[-1] == f"order {expected_order(name)}"


@pytest.mark.parametrize("name", sorted(BASES))
def test_cfi_order_from_search_group(name):
    g = cfi(BASES[name][0])
    gens = automorphisms(g)[0]
    assert all(is_automorphism(g, gen) for gen in gens)
    assert schreier_sims(gens).order() == expected_order(name)


@pytest.mark.parametrize("name", sorted(BASES))
def test_cfi_twisted_copy_is_not_isomorphic(name, monkeypatch, capsys):
    h = BASES[name][0]
    graphs = {"plain": cfi(h), "twisted": cfi(h, twisted=True)}
    assert run_cli_on(monkeypatch, capsys, ["iso", "plain", "twisted"], graphs) == (1, "non-isomorphic\n")


def test_certificate_collision_without_an_isomorphism_raises(monkeypatch):
    # with every leaf's certificate the same, the scan of the twisted copy
    # matches the first leaf of CFI(K4), which it cannot map onto: the
    # mapping check, not the certificate, must refuse it
    monkeypatch.setattr(search, "_cert_bytes", lambda nbrs, order: b"")
    h = BASES["K4"][0]
    with pytest.raises(RuntimeError, match="^certificate collision without an isomorphism; this is a bug$"):
        are_isomorphic(cfi(h), cfi(h, twisted=True))


# Pinned from the search before the BSGS became incremental.
GOLDEN_CFI_PETERSEN_AUT = (
    "(11 20)(12 19)(13 16)(15 18)(21 30)(22 29)(23 26)(25 28)(31 40)(32 39)(33 36)(35 38)(41 50)"
    "(42 49)(43 46)(45 48)(61 70)(62 69)(63 66)(65 68)(71 80)(72 79)(73 76)(75 78)\n"
    "(11 21)(12 22)(13 23)(14 24)(15 25)(16 26)(17 27)(18 28)(19 29)(20 30)(31 41)(32 42)(33 43)"
    "(34 44)(35 45)(36 46)(37 47)(38 48)(39 49)(40 50)(53 54)(56 57)(58 60)(61 71)(62 72)(63 73)"
    "(64 74)(65 75)(66 76)(67 77)(68 78)(69 79)(70 80)(83 84)(86 87)(88 90)(93 94)(96 97)(98 100)\n"
    "(11 15)(13 16)(14 17)(18 20)(21 28)(22 29)(24 27)(25 30)(31 40)(32 39)(33 36)(35 38)(71 80)"
    "(72 79)(73 76)(75 78)(91 95)(93 96)(94 97)(98 100)\n"
    "(11 20)(12 19)(13 16)(15 18)(31 35)(33 36)(34 37)(38 40)(41 48)(42 49)(44 47)(45 50)(71 80)"
    "(72 79)(73 76)(75 78)(81 85)(83 86)(84 87)(88 90)\n"
    "(11 20)(12 19)(13 16)(15 18)(41 50)(42 49)(43 46)(45 48)(51 55)(53 56)(54 57)(58 60)(61 65)"
    "(63 66)(64 67)(68 70)(71 78)(72 79)(74 77)(75 80)\n"
    "(3 4)(6 7)(8 10)(11 31)(12 32)(13 33)(14 34)(15 35)(16 36)(17 37)(18 38)(19 39)(20 40)"
    "(21 41)(22 42)(23 43)(24 44)(25 45)(26 46)(27 47)(28 48)(29 49)(30 50)(62 63)(65 68)(66 69)"
    "(72 73)(75 78)(76 79)(81 91)(82 92)(83 93)(84 94)(85 95)(86 96)(87 97)(88 98)(89 99)(90 100)\n"
    "(2 3)(5 8)(6 9)(12 13)(15 18)(16 19)(22 23)(25 28)(26 29)(31 61)(32 62)(33 63)(34 64)(35 65)"
    "(36 66)(37 67)(38 68)(39 69)(40 70)(41 71)(42 72)(43 73)(44 74)(45 75)(46 76)(47 77)(48 78)"
    "(49 79)(50 80)(51 81)(52 82)(53 83)(54 84)(55 85)(56 86)(57 87)(58 88)(59 89)(60 90)\n"
    "(1 5)(3 6)(4 7)(8 10)(11 20)(12 19)(13 16)(15 18)(21 28)(22 29)(24 27)(25 30)(31 40)(32 39)"
    "(33 36)(35 38)(41 48)(42 49)(44 47)(45 50)(71 80)(72 79)(73 76)(75 78)(81 88)(82 89)(84 87)"
    "(85 90)(91 98)(92 99)(94 97)(95 100)\n"
    "(1 11)(2 12)(3 13)(4 14)(5 15)(6 16)(7 17)(8 18)(9 19)(10 20)(33 34)(36 37)(38 40)(41 51)"
    "(42 52)(43 53)(44 54)(45 55)(46 56)(47 57)(48 58)(49 59)(50 60)(63 64)(66 67)(68 70)(71 81)"
    "(72 82)(73 83)(74 84)(75 85)(76 86)(77 87)(78 88)(79 89)(80 90)(92 93)(95 98)(96 99)\n"
    "order 7680\n"
)


def test_cfi_petersen_aut_golden(monkeypatch, capsys):
    graphs = {"-": cfi(BASES["petersen"][0])}
    assert run_cli_on(monkeypatch, capsys, ["aut"], graphs) == (0, GOLDEN_CFI_PETERSEN_AUT)
