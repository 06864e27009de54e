import contextlib
import functools
import io
import json
import math
import re
import subprocess
import sys

import pytest

try:
    import resource
except ImportError:  # POSIX only
    resource = None

import autkit.cli
from autkit import (
    Graph,
    Permutation,
    edge_count,
    graph6_decode,
    graph6_encode,
    johnson_general,
    kneser,
    permute_graph,
    petersen_classic,
    petersen_subsets,
)

import reference_graphs
from autkit.cli import build_parser, main
from autkit.verify import verify_petersen
from conftest import run_cli
from test_search import CUBIC_36, hoffman_singleton

TRIANGLE_G6 = "Bw"


def test_gen_petersen_subsets_graph6():
    proc = run_cli(["gen", "petersen-subsets", "--format", "graph6"])
    assert proc.returncode == 0
    g = graph6_decode(proc.stdout)
    assert g.n == 10
    assert edge_count(g) == 15
    assert proc.stdout == "I@Q@YiWw?\n"


def test_gen_petersen_classic_graph6():
    proc = run_cli(["gen", "petersen-classic"])
    assert proc.returncode == 0
    assert proc.stdout == "IheA@GUAo\n"
    assert edge_count(graph6_decode(proc.stdout)) == 15


def test_gen_johnson_graph6():
    proc = run_cli(["gen", "johnson", "-n", "5", "-k", "3", "-t", "2", "--format", "graph6"])
    assert proc.returncode == 0
    assert edge_count(graph6_decode(proc.stdout)) == 30


def test_gen_kneser_dot():
    proc = run_cli(["gen", "kneser", "-n", "2", "-k", "1", "--format", "dot"])
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len([ln for ln in lines if "label=" in ln]) == 2
    assert len([ln for ln in lines if "--" in ln]) == 1


#: ``gen johnson -n 4 -k 2 -t 0 --format dot``: a perfect matching on the
#: 2-subsets of {1..4}, each joined to its complement
JOHNSON_4_2_0_DOT = """\
graph {
  0 [label="{1,2}"];
  1 [label="{1,3}"];
  2 [label="{1,4}"];
  3 [label="{2,3}"];
  4 [label="{2,4}"];
  5 [label="{3,4}"];
  0 -- 5;
  1 -- 4;
  2 -- 3;
}
"""


def test_gen_johnson_dot_golden():
    proc = run_cli(["gen", "johnson", "-n", "4", "-k", "2", "-t", "0", "--format", "dot"])
    assert proc.returncode == 0
    assert proc.stdout == JOHNSON_4_2_0_DOT


def test_gen_dot_matches_reference():
    # gen writes the DOT lines as they are made; the text is the one the
    # pairwise reference builds whole, for every family up to n = 7
    for n in range(1, 8):
        for k in range(1, n + 1):
            cases = [(["kneser", "-n", str(n), "-k", str(k)], 0)]
            cases += [(["johnson", "-n", str(n), "-k", str(k), "-t", str(t)], t) for t in range(k)]
            for args, t in cases:
                expected = reference_graphs.to_dot(reference_graphs.subset_graph(n, k, t))
                assert run_in_process(["gen", *args, "--format", "dot"]) == (0, expected, "")


def test_gen_rejects_bad_parameters():
    for args in (
        ["gen", "johnson", "-n", "5", "-k", "3"],  # missing -t
        ["gen", "kneser", "-n", "5", "-k", "3", "-t", "1"],  # stray -t
        ["gen", "petersen-subsets", "-n", "5"],  # takes no parameters
        ["gen", "johnson", "-n", "5", "-k", "6", "-t", "1"],  # k > n
    ):
        proc = run_cli(args)
        assert proc.returncode == 2
        assert proc.stderr.strip()


def test_gen_rejects_a_family_past_graph6_before_building_it():
    # K(18, 9) has 48,620 vertices: building it first would take minutes
    proc = run_cli(["gen", "kneser", "-n", "18", "-k", "9"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: graph6 short form supports at most 62 vertices\n"
    # a family past 62 vertices with an invalid -t keeps the constructor's message
    proc = run_cli(["gen", "johnson", "-n", "10", "-k", "5", "-t", "7"])
    assert proc.returncode == 2
    assert proc.stderr == "error: need 0 <= t < k <= n, got n=10, k=5, t=7\n"


def test_gen_rejects_a_family_past_the_vertex_cap_before_building_it(monkeypatch):
    # memory grows with the square of the vertex count, so a family past
    # the cap is refused in every format without running its constructor
    for name in ("kneser", "johnson_general"):
        monkeypatch.setattr(autkit.cli, name, lambda *args: pytest.fail("the family was built"))
    for args, count in (
        (["gen", "kneser", "-n", "19", "-k", "9", "--format", "dot"], 92378),
        (["gen", "johnson", "-n", "40", "-k", "20", "-t", "3", "--format", "dot"], 137846528820),
    ):
        assert run_in_process(args) == (
            2,
            "",
            f"error: the graph would have {count} vertices; gen builds at most 50000\n",
        )
    # K(18, 9), 48,620 vertices, is within the cap
    monkeypatch.setattr(autkit.cli, "kneser", lambda n, k: Graph(1, (0,)))
    assert run_in_process(["gen", "kneser", "-n", "18", "-k", "9", "--format", "dot"])[0] == 0


def test_gen_rejects_a_family_past_the_edge_cap_before_building_it(monkeypatch):
    # K(50000, 1) is the complete graph K_50000: within the vertex cap, but
    # its edges would take hours and about 20 GB
    for name in ("kneser", "johnson_general"):
        monkeypatch.setattr(autkit.cli, name, lambda *args: pytest.fail("the family was built"))
    assert run_in_process(["gen", "kneser", "-n", "50000", "-k", "1", "--format", "dot"]) == (
        2,
        "",
        "error: the graph would have 1249975000 edges; gen builds at most 4000000\n",
    )
    # J(14, 7, 3), 2,102,100 edges, is within the cap and reaches its constructor
    built = []
    monkeypatch.setattr(autkit.cli, "johnson_general", lambda *args: built.append(args) or Graph(1, (0,)))
    assert run_in_process(["gen", "johnson", "-n", "14", "-k", "7", "-t", "3", "--format", "dot"])[0] == 0
    assert built == [(14, 7, 3)]


def test_gen_refuses_a_one_vertex_family_past_the_ground_set_bound(monkeypatch):
    # k = 0 and k = n give one vertex and no edge, so the counts pass, but
    # the build's memory grows with n^2: K(10^9, 10^9) was killed for it
    for name in ("kneser", "johnson_general"):
        monkeypatch.setattr(autkit.cli, name, lambda *args: pytest.fail("the family was built"))
    for n in (50001, 1000000000):
        for family in (["kneser", "-k", "0"], ["kneser", "-k", str(n)], ["johnson", "-k", str(n), "-t", "3"]):
            for fmt in ([], ["--format", "dot"]):
                assert run_in_process(["gen", family[0], "-n", str(n), *family[1:], *fmt]) == (
                    2,
                    "",
                    f"error: the ground set would have {n} points; gen builds at most 50000\n",
                )
    # an n at the bound reaches the constructor
    built = []
    monkeypatch.setattr(autkit.cli, "kneser", lambda *args: built.append(args) or Graph(1, (0,)))
    assert run_in_process(["gen", "kneser", "-n", "50000", "-k", "50000", "--format", "dot"])[0] == 0
    assert built == [(50000, 50000)]


#: gen in a child interpreter that first lowers its own address-space limit
#: to 512 MiB, or keeps a lower one: it never raises a limit
LIMITED_MAIN = """\
import resource, sys
cap = 512 << 20
limits = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, tuple(cap if x == resource.RLIM_INFINITY else min(x, cap) for x in limits))
from autkit.cli import main
sys.exit(main(sys.argv[1:]))
"""

#: inputs that gen refuses, each with its message; built first, each would
#: run out of memory or time
REFUSED_GEN = {
    "johnson-past-the-vertex-cap": (
        ["johnson", "-n", "20000000", "-k", "10000000", "-t", "0"],
        "the graph would have more than 10^18 vertices; gen builds at most 50000",
    ),
    "kneser-past-the-edge-cap": (
        ["kneser", "-n", "50000", "-k", "1"],
        "the graph would have 1249975000 edges; gen builds at most 4000000",
    ),
    "kneser-past-the-ground-set-bound": (
        ["kneser", "-n", "1000000000", "-k", "1000000000"],
        "the ground set would have 1000000000 points; gen builds at most 50000",
    ),
    "kneser-empty-ground-set": (["kneser", "-n", "0", "-k", "0"], "ground set size must be positive"),
}


@pytest.mark.skipif(resource is None, reason="needs the resource module")
@pytest.mark.parametrize("args, message", REFUSED_GEN.values(), ids=list(REFUSED_GEN))
def test_gen_refuses_within_a_memory_limit(args, message):
    argv = [sys.executable, "-c", LIMITED_MAIN, "gen", *args, "--format", "dot"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "family, n, k, t",
    [
        # edgeless: K(9, 0) has one vertex, K(6, 4) no disjoint pair, and
        # J(6, 6, 5) one vertex
        ("kneser", 9, 0, None),
        ("kneser", 6, 4, None),
        ("johnson", 6, 6, 5),
        ("kneser", 7, 3, None),
        ("kneser", 12, 1, None),
        ("johnson", 7, 3, 1),
        ("johnson", 8, 4, 2),
        ("johnson", 9, 5, 0),
    ],
)
def test_gen_edge_cap_counts_the_edges_exactly(monkeypatch, family, n, k, t):
    # with the cap one below the family's edge count gen refuses it and
    # names the count; with the cap at the count it builds the family
    g = kneser(n, k) if t is None else johnson_general(n, k, t)
    m = edge_count(g)
    args = ["gen", family, "-n", str(n), "-k", str(k)] + ([] if t is None else ["-t", str(t)]) + ["--format", "dot"]
    monkeypatch.setattr(autkit.cli, "_MAX_GEN_EDGES", m - 1)
    assert run_in_process(args) == (2, "", f"error: the graph would have {m} edges; gen builds at most {m - 1}\n")
    monkeypatch.setattr(autkit.cli, "_MAX_GEN_EDGES", m)
    assert run_in_process(args)[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "kneser", "-n", "200000", "-k", "100000"],
        ["gen", "johnson", "-n", "20000000", "-k", "10000000", "-t", "0"],
    ],
    ids=["kneser", "johnson"],
)
def test_gen_rejects_a_huge_family_without_counting_it_exactly(monkeypatch, argv):
    # the count stops past 10^18: an exact one would take minutes for
    # C(20000000, 10000000), and C(200000, 100000) has more digits than
    # the interpreter prints
    for name in ("kneser", "johnson_general"):
        monkeypatch.setattr(autkit.cli, name, lambda *args: pytest.fail("the family was built"))
    assert run_in_process(argv + ["--format", "dot"]) == (
        2,
        "",
        "error: the graph would have more than 10^18 vertices; gen builds at most 50000\n",
    )
    assert run_in_process(argv) == (2, "", "error: graph6 short form supports at most 62 vertices\n")


def test_aut_petersen_reports_order_120():
    g6 = graph6_encode(petersen_subsets())
    proc = run_cli(["aut"], stdin_text=g6 + "\n")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[-1] == "order 120"
    for line in lines[:-1]:
        sigma = Permutation.from_cycle_string(10, line)
        assert permute_graph(petersen_subsets(), sigma).adj == petersen_subsets().adj


def test_aut_triangle():
    proc = run_cli(["aut"], stdin_text=TRIANGLE_G6)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "order 6"


def test_aut_single_vertex():
    proc = run_cli(["aut"], stdin_text="@")
    assert proc.returncode == 0
    assert proc.stdout == "()\norder 1\n"


@pytest.mark.parametrize(
    "g, tail",
    [
        (kneser(7, 3), ["order 5040"]),
        (johnson_general(7, 3, 1), ["order 40320"]),
        (hoffman_singleton(), ["order 252000"]),
        (CUBIC_36, ["()", "order 1"]),
        (Graph(1, (0,)), ["()", "order 1"]),
    ],
    ids=["K(7,3)", "J(7,3,1)", "hoffman-singleton", "cubic-36", "one-vertex"],
)
def test_aut_order_line_golden(g, tail, tmp_path):
    path = tmp_path / "g.g6"
    path.write_text(graph6_encode(g) + "\n", encoding="ascii")
    code, out, err = run_in_process(["aut", str(path)])
    assert (code, err) == (0, "")
    assert out.splitlines()[-len(tail):] == tail


#: ``autkit.cli.main`` with the recursion limit lowered after import,
#: below the depth of edgeless-62's first path (61)
SHALLOW_MAIN = "import sys, autkit.cli; sys.setrecursionlimit(45); sys.exit(autkit.cli.main(sys.argv[1:]))"


def test_a_first_path_deeper_than_the_recursion_limit_runs(tmp_path):
    # the search keeps its path on a stack of its own, so no call depth
    # grows with the depth of the tree; iso also pauses g1's walk at its
    # first leaf and resumes it, since the edgeless graph is not rigid
    path = str(tmp_path / "edgeless-62.g6")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(graph6_encode(Graph(62, (0,) * 62)) + "\n")

    def run(*args):
        proc = subprocess.run([sys.executable, "-c", SHALLOW_MAIN, *args], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, ""), args
        return proc.stdout.splitlines()

    *gens, order = run("aut", path)
    assert len(gens) == 61
    assert all(re.fullmatch(r"\(\d+ \d+\)", line) for line in gens)
    assert order == f"order {math.factorial(62)}"
    assert run("canon", path) == ["n=62:" + "0" * 474]
    assert run("iso", path, path) == [" ".join(f"{v}->{v}" for v in range(1, 63))]


def test_aut_rejects_malformed_graph6():
    proc = run_cli(["aut"], stdin_text="garbage!!")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


@pytest.mark.parametrize(
    "data",
    [b"\xff", b"I\xc3\xa9", b"IsP@OkWHG\xa0\n", b"IsP@OkWHG\r\n", b"garbage!!", b"IheA@GUAo\r\nIheA@GUAo\n"],
    ids=["0xff", "utf-8", "trailing-0xa0", "crlf", "garbage", "two-lines"],
)
def test_graph6_bytes_read_alike_from_file_and_stdin(data, tmp_path):
    # the same bytes give the same output and exit code either way, and a
    # non-ASCII byte is named in the message, UTF-8 text included
    path = tmp_path / "g.g6"
    path.write_bytes(data)
    from_file = run_cli(["aut", str(path)], stdin_text=b"")
    from_stdin = run_cli(["aut"], stdin_text=data)
    assert (from_stdin.returncode, from_stdin.stdout, from_stdin.stderr) == (
        from_file.returncode, from_file.stdout, from_file.stderr,
    )
    wide = [i for i, byte in enumerate(data) if byte > 127]
    if wide:
        i = wide[0]
        assert from_file.returncode == 2
        assert from_file.stderr.decode() == (
            f"error: 'ascii' codec can't decode byte {data[i]:#x} in position {i}: ordinal not in range(128)\n"
        )
    assert from_file.returncode == (0 if data.startswith(b"IsP@OkWHG\r") else 2)


def test_aut_names_multi_line_graph6_input(tmp_path):
    path = tmp_path / "two.g6"
    path.write_text("IheA@GUAo\nIheA@GUAo\n")
    proc = run_cli(["aut", str(path)])
    assert proc.returncode == 2
    assert proc.stderr == "error: expected one graph6 line, got 2; give one graph per input\n"


def test_aut_names_graph6_header():
    proc = run_cli(["aut"], stdin_text=">>graph6<<IheA@GUAo\n")
    assert proc.returncode == 2
    assert proc.stderr == "error: the optional '>>graph6<<' header is not supported; remove it\n"


def test_canon_is_relabeling_invariant(tmp_path):
    g = petersen_subsets()
    sigma = Permutation([3, 1, 4, 0, 2, 9, 5, 8, 6, 7])
    a = tmp_path / "a.g6"
    b = tmp_path / "b.g6"
    a.write_text(graph6_encode(g) + "\n")
    b.write_text(graph6_encode(permute_graph(g, sigma)) + "\n")
    out_a = run_cli(["canon", str(a)])
    out_b = run_cli(["canon", str(b)])
    assert out_a.returncode == out_b.returncode == 0
    assert out_a.stdout == out_b.stdout == "n=10:e0180c0d4a60\n"


def parse_mapping(line, n):
    images = [0] * n
    for pair in line.split():
        src, dst = pair.split("->")
        images[int(src) - 1] = int(dst) - 1
    return Permutation(images)


def test_iso_petersen_constructions(tmp_path):
    path = tmp_path / "classic.g6"
    path.write_text(graph6_encode(petersen_classic()) + "\n")
    proc = run_cli(["iso", "-", str(path)], stdin_text=graph6_encode(petersen_subsets()))
    assert proc.returncode == 0
    sigma = parse_mapping(proc.stdout.strip(), 10)
    assert permute_graph(petersen_subsets(), sigma).adj == petersen_classic().adj


def test_iso_non_isomorphic(tmp_path):
    path = tmp_path / "j2.g6"
    path.write_text(graph6_encode(johnson_general(5, 3, 2)) + "\n")
    proc = run_cli(["iso", "-", str(path)], stdin_text=graph6_encode(petersen_subsets()))
    assert proc.returncode == 1
    assert proc.stdout.strip() == "non-isomorphic"


def test_iso_non_isomorphic_cubic_pair(tmp_path):
    # Petersen and the pentagonal prism are both cubic on 10 vertices with
    # 15 edges, so the edge-count shortcut passes and the search decides
    a = tmp_path / "petersen.g6"
    b = tmp_path / "prism.g6"
    a.write_text(graph6_encode(petersen_subsets()) + "\n")
    b.write_text("IheAHCPBG\n")
    assert edge_count(graph6_decode("IheAHCPBG")) == 15
    proc = run_cli(["iso", str(a), str(b)])
    assert proc.returncode == 1
    assert proc.stdout == "non-isomorphic\n"


def test_iso_refuses_a_graph_without_vertices(tmp_path):
    # as aut and canon do, whatever the other input: "?" against "@" once
    # failed the size comparison first and printed non-isomorphic
    empty = tmp_path / "empty.g6"
    one = tmp_path / "one.g6"
    empty.write_text("?\n")
    one.write_text("@\n")
    for a, b in ((empty, one), (one, empty), (empty, empty)):
        proc = run_cli(["iso", str(a), str(b)])
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: graph must have at least one vertex\n")


def test_iso_rejects_stdin_for_both_inputs():
    # stdin can be read once; the second read would see empty text
    proc = run_cli(["iso", "-", "-"], stdin_text=graph6_encode(petersen_subsets()))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: only one input can be stdin (-)\n"


def test_verify_petersen_summary_and_exit_code(tmp_path):
    report_path = tmp_path / "report.json"
    proc = run_cli(["verify-petersen", "--json", str(report_path)])
    assert proc.returncode == 0
    assert "order 120" in proc.stdout
    assert "VERIFIED" in proc.stdout
    data = json.loads(report_path.read_text())
    assert list(data) == [
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
    assert data["verdict"] == "VERIFIED"
    assert data["aut_order_brute"] is None


def test_verify_petersen_falsified_exits_1(monkeypatch):
    # the classic labelling is Petersen, but phi's images are not its
    # automorphisms
    monkeypatch.setattr(autkit.cli, "verify_petersen", functools.partial(verify_petersen, graph=petersen_classic()))
    code, out, err = run_in_process(["verify-petersen"])
    assert (code, out.splitlines()[-1], err) == (1, "FALSIFIED", "")


def test_verify_petersen_prints_nothing_when_the_report_cannot_be_written(tmp_path):
    # the report file is opened before the first line is printed, so a
    # caller reading the last line never sees VERIFIED from a failed run
    path = tmp_path / "missing" / "r.json"
    code, out, err = run_in_process(["verify-petersen", "--json", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2] No such file or directory")
    assert not path.parent.exists()
    # a report that can be written leaves stdout as it is without one
    assert run_in_process(["verify-petersen", "--json", str(tmp_path / "r.json")]) == run_in_process(["verify-petersen"])


def test_render_default_layout(tmp_path):
    out = tmp_path / "petersen.dot"
    proc = run_cli(["render", "-o", str(out)])
    assert proc.returncode == 0
    text = out.read_text()
    pos_lines = [ln for ln in text.splitlines() if "pos=" in ln]
    assert len(pos_lines) == 10
    labels = {ln.split('label="')[1].split('"')[0] for ln in text.splitlines() if "label=" in ln}
    assert len(labels) == 10
    assert "{1,2,3}" in labels and "{3,4,5}" in labels


def test_render_no_layout():
    proc = run_cli(["render", "--layout", "none"])
    assert proc.returncode == 0
    assert "pos=" not in proc.stdout
    assert proc.stdout.count("--") == 15


def test_render_unwritable_path():
    proc = run_cli(["render", "-o", "/nonexistent-dir/out.dot"])
    assert proc.returncode == 2


def test_unknown_subcommand_is_usage_error():
    proc = run_cli(["frobnicate"])
    assert proc.returncode == 2


def test_cli_output_is_byte_deterministic():
    for args, stdin_text in (
        (["gen", "petersen-subsets"], None),
        (["aut"], graph6_encode(petersen_subsets())),
        (["canon"], graph6_encode(petersen_classic())),
        (["render"], None),
        (["verify-petersen"], None),
    ):
        first = run_cli(args, stdin_text=stdin_text)
        second = run_cli(args, stdin_text=stdin_text)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def run_in_process(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_main_in_one_process_matches_separate_processes(tmp_path, monkeypatch):
    # the shared parser carries nothing from one call to the next, usage
    # errors included
    monkeypatch.setenv("COLUMNS", "80")
    a = tmp_path / "a.g6"
    a.write_text(graph6_encode(petersen_subsets()) + "\n", encoding="ascii")
    b = tmp_path / "b.g6"
    b.write_text(graph6_encode(petersen_classic()) + "\n", encoding="ascii")
    calls = [
        ["aut", "--bogus"],
        ["aut", str(a)],
        ["canon", str(b)],
        ["iso", str(a), str(b)],
        ["verify-petersen"],
        ["gen", "kneser", "-n", "x"],
        ["verify-petersen", "--brute"],
        ["iso", "-", "-"],
        ["canon", str(a)],
    ]
    for args in calls:
        proc = run_cli(args)
        assert run_in_process(args) == (proc.returncode, proc.stdout, proc.stderr), args
