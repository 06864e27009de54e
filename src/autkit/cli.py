"""Command-line frontend: graph generation, automorphism groups, canonical
forms, isomorphism testing, figure rendering, and the Petersen/S5 check.

Exit codes: 0 success (or VERIFIED), 1 negative mathematical result
(non-isomorphic / FALSIFIED), 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from typing import Optional

from .graphs import (
    Graph,
    _GRAPH6_MAX_VERTICES,
    _GRAPH6_TOO_LARGE,
    _dot_lines,
    graph6_decode,
    graph6_encode,
    johnson_general,
    kneser,
    petersen_classic,
    petersen_layout,
    petersen_subsets,
    to_dot,
)
from .search import are_isomorphic, automorphisms, canonical_form
from .verify import verify_petersen


def _read_graph(path: str) -> Graph:
    # bytes from a file and from stdin alike, so that both decode one way
    # and a non-ASCII byte gets the same message, which names it
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return graph6_decode(data.decode("ascii"))


def _emit(g: Graph, fmt: str) -> None:
    if fmt == "graph6":
        print(graph6_encode(g))
    else:
        # line by line: the whole text of a large graph would take several
        # times the memory of the graph itself
        sys.stdout.writelines(_dot_lines(g))


# Graph rows are as wide as their highest neighbour, so memory grows with
# n^2: K(18, 9) (48,620 vertices) peaks at about 195 MB in DOT, and the rows
# of K(19, 9) (92,378 vertices) alone take about 890 MB.
_MAX_GEN_VERTICES = 50_000
# Neighbour tuples and DOT lines grow with the edge count, and so does the
# time: K(2000, 1) (1,999,000 edges) takes about 4.6 s in DOT, and each
# doubling of n takes about 5 times as long.  The cap admits J(14, 7, 3)
# (2,102,100 edges), which takes about 3 s.
_MAX_GEN_EDGES = 4_000_000


def _check_size(args: argparse.Namespace) -> None:
    """Refuse a subset family before building it: past 62 vertices in
    graph6, which ``graph6_encode`` would refuse after the build, and past
    ``_MAX_GEN_VERTICES`` vertices, ``_MAX_GEN_EDGES`` edges or an n of
    ``_MAX_GEN_VERTICES`` in any format.  Invalid parameters are left to
    the family's constructor and its message.  The count C(n, k) stops
    past 10^18, within 60 steps of the product formula as C(n, i) >= 2^i
    for i <= n / 2: math.comb(20000000, 10000000) would take minutes.

    A k-subset has C(k, t) * C(n - k, k - t) neighbours meeting it in t
    members (t = 0 for kneser), so the edges number C(n, k) times that,
    halved.  C(n - k, k - t) comes first: it is 0 when k = n, where C(k, t)
    could take minutes.  The build's memory grows with n^2, and only k = 0
    and k = n give fewer than n vertices, so n is bounded after the rest."""
    count = 0
    if 0 <= args.k <= args.n and (args.t is None or 0 <= args.t < args.k):
        count = 1
        for i in range(min(args.k, args.n - args.k)):
            count = count * (args.n - i) // (i + 1)
            if count > 10**18:
                break
    if args.format == "graph6" and count > _GRAPH6_MAX_VERTICES:
        raise ValueError(_GRAPH6_TOO_LARGE)
    if count > _MAX_GEN_VERTICES:
        size = "more than 10^18" if count > 10**18 else count
        raise ValueError(f"the graph would have {size} vertices; gen builds at most {_MAX_GEN_VERTICES}")
    if count:
        k, t = args.k, args.t or 0
        outside = math.comb(args.n - k, k - t)
        edges = count * outside * math.comb(k, t) // 2 if outside else 0
        if edges > _MAX_GEN_EDGES:
            raise ValueError(f"the graph would have {edges} edges; gen builds at most {_MAX_GEN_EDGES}")
        if args.n > _MAX_GEN_VERTICES:
            raise ValueError(f"the ground set would have {args.n} points; gen builds at most {_MAX_GEN_VERTICES}")


def cmd_gen(args: argparse.Namespace) -> int:
    family = args.family
    given = {flag for flag, value in (("-n", args.n), ("-k", args.k), ("-t", args.t)) if value is not None}
    if family == "johnson":
        if given != {"-n", "-k", "-t"}:
            raise ValueError("johnson requires -n, -k and -t")
        _check_size(args)
        g = johnson_general(args.n, args.k, args.t)
    elif family == "kneser":
        if given != {"-n", "-k"}:
            raise ValueError("kneser requires -n and -k (and no -t)")
        _check_size(args)
        g = kneser(args.n, args.k)
    elif family == "petersen-subsets":
        if given:
            raise ValueError("petersen-subsets takes no parameters")
        g = petersen_subsets()
    else:
        if given:
            raise ValueError("petersen-classic takes no parameters")
        g = petersen_classic()
    _emit(g, args.format)
    return 0


def cmd_aut(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    gens, order = automorphisms(g)
    for gen in gens:
        print(gen.cycle_string())
    print(f"order {order}")
    return 0


def cmd_canon(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    print(canonical_form(g).text())
    return 0


def cmd_iso(args: argparse.Namespace) -> int:
    if args.input_a == args.input_b == "-":
        raise ValueError("only one input can be stdin (-)")
    g1 = _read_graph(args.input_a)
    g2 = _read_graph(args.input_b)
    sigma = are_isomorphic(g1, g2)
    if sigma is None:
        print("non-isomorphic")
        return 1
    print(" ".join(f"{v + 1}->{sigma(v) + 1}" for v in range(sigma.degree)))
    return 0


def cmd_verify_petersen(args: argparse.Namespace) -> int:
    # the report file is opened first, so that a path that cannot be
    # written fails before any line, the verdict included, is printed
    with contextlib.nullcontext() if args.json is None else open(args.json, "w", encoding="ascii") as fh:
        report = verify_petersen(run_brute=args.brute)
        stats = report.graph_stats
        print(
            "graph: n={n} edges={edges} regular_degree={regular_degree} "
            "girth={girth} diameter={diameter}".format(**stats)
        )
        for source, image in report.phi_generator_images.items():
            print(f"phi[{source}] = {image}")
        print(f"homomorphism pairs checked: {report.homomorphism_checked}")
        print(f"kernel trivial: {'yes' if report.kernel_trivial else 'no'}")
        print(f"image order {report.image_order}")
        print(f"search order {report.aut_order_search}")
        if report.aut_order_brute is not None:
            print(f"brute order {report.aut_order_brute}")
        print(report.verdict)
        if fh is not None:
            fh.write(report.to_json())
    return 0 if report.verdict == "VERIFIED" else 1


def cmd_render(args: argparse.Namespace) -> int:
    layout = petersen_layout() if args.layout == "default" else None
    dot = to_dot(petersen_subsets(), layout)
    if args.output is None:
        sys.stdout.write(dot)
    else:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(dot)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one in the process; parsing leaves it unchanged, and callers must too."""
    parser = argparse.ArgumentParser(
        prog="autkit",
        description="Permutation-group and graph-automorphism toolkit for small graphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_gen = sub.add_parser("gen", help="generate a graph family")
    p_gen.add_argument("family", choices=["johnson", "kneser", "petersen-subsets", "petersen-classic"])
    p_gen.add_argument("-n", type=int, default=None)
    p_gen.add_argument("-k", type=int, default=None)
    p_gen.add_argument("-t", type=int, default=None)
    p_gen.add_argument("--format", choices=["graph6", "dot"], default="graph6")
    p_gen.set_defaults(func=cmd_gen)

    p_aut = sub.add_parser("aut", help="automorphism generators and group order")
    p_aut.add_argument("input", nargs="?", default="-", help="graph6 file, or - for stdin")
    p_aut.set_defaults(func=cmd_aut)

    p_canon = sub.add_parser("canon", help="canonical certificate")
    p_canon.add_argument("input", nargs="?", default="-", help="graph6 file, or - for stdin")
    p_canon.set_defaults(func=cmd_canon)

    p_iso = sub.add_parser("iso", help="explicit isomorphism between two graphs")
    p_iso.add_argument("input_a", help="graph6 file, or - for stdin")
    p_iso.add_argument("input_b", help="graph6 file, or - for stdin")
    p_iso.set_defaults(func=cmd_iso)

    p_verify = sub.add_parser("verify-petersen", help="certify Aut(Petersen) is S5")
    p_verify.add_argument("--brute", action="store_true", help="also run the exhaustive 10! scan")
    p_verify.add_argument("--json", metavar="PATH", default=None, help="write the JSON report here")
    p_verify.set_defaults(func=cmd_verify_petersen)

    p_render = sub.add_parser("render", help="DOT drawing of the subset-model Petersen graph")
    p_render.add_argument("--layout", choices=["default", "none"], default="default")
    p_render.add_argument("-o", "--output", metavar="PATH", default=None)
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
