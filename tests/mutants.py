"""Mutation checks for the modules of ``src/autkit/``.

Each mutant replaces one exact snippet of its file, which must occur
there exactly once, in a temporary copy of ``src/``, and runs the tests
listed for it with ``PYTHONPATH`` at the copy; one of them must fail.  A
snippet that does not occur exactly once is an error, so a change that
moves or rewrites the code breaks the table loudly instead of letting a
mutant pass unnoticed.  Before the mutants, the listed tests must pass on
the unchanged copy, so that a failure is the mutant's.

Known survivors are listed with the reason they survive.  Only their
snippets are checked; they are not run.

Run from any directory, with pytest and hypothesis installed::

    python tests/mutants.py

The exit status is 0 when every mutant is killed.  pytest does not
collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "autkit")
SEARCH = "tests/test_search.py::"
CLI = "tests/test_cli.py::"
CFI = "tests/test_cfi.py::"
GRAPH6 = "tests/test_graph6.py::"
GRAPHS = "tests/test_graphs.py::"
GUARDS = "tests/test_guards.py::"
PERMS = "tests/test_perms.py::"
VERIFY = "tests/test_verify.py::"
#: hypothesis's report of a failing example imports libcst, which warns on
#: import with some mypy_extensions versions; as an error, that warning
#: would end pytest with an internal error (exit 3) instead of a failure
WARNINGS = ("-W", "error", "-W", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


class Mutant(NamedTuple):
    file: str
    name: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


class Survivor(NamedTuple):
    file: str
    name: str
    snippet: str
    replacement: str
    reason: str


MUTANTS = (
    # |Aut| as the product of the first path's stabilizer orbits
    Mutant(
        "search.py",
        "orbit replaced by {v}",
        "len(search._close_orbits({v}, path[:d]))",
        "len({v})",
        (
            CLI + "test_aut_petersen_reports_order_120",
            SEARCH + "test_search_order_matches_schreier_sims_random",
        ),
    ),
    Mutant(
        "search.py",
        "stabilizer filter dropped from the orbits",
        "search._close_orbits({v}, path[:d])",
        "search._close_orbits({v}, ())",
        (
            CLI + "test_aut_petersen_reports_order_120",
            SEARCH + "test_search_order_matches_schreier_sims_random",
        ),
    ),
    # refine's one guard: an empty cell would break the flat layout
    Mutant(
        "search.py",
        "empty cells let through refine's guard",
        "not all(cells) or ",
        "",
        (SEARCH + "test_partition_validation",),
    ),
    # refinement, the tree and its pruning
    Mutant(
        "search.py",
        "refinement resumes only at the next cell",
        "            if c < resume:\n                resume = c\n",
        "",
        (SEARCH + "test_refine_cells_matches_reference_random",),
    ),
    # a clean cell's last fragment starts clean, a dirty cell's dirty, and
    # refinement stops at n cells, a child starting with one more than its node
    Mutant(
        "search.py",
        "last fragment always clean",
        "dirty[c] = fe < ce or was",
        "dirty[c] = fe < ce",
        (SEARCH + "test_refine_matches_reference_on_random_partitions",),
    ),
    Mutant(
        "search.py",
        "refinement stops at n - 1 cells",
        "while i < n and cells < n:",
        "while i < n and cells < n - 1:",
        (SEARCH + "test_refine_matches_reference_on_random_partitions",),
    ),
    Mutant(
        "search.py",
        "a child starts with two cells more than its node",
        "target, cells + 1, trace",
        "target, cells + 2, trace",
        (SEARCH + "test_refine_cells_matches_reference_on_search_partitions", SEARCH + "test_canonical_form_golden"),
    ),
    Mutant(
        "search.py",
        "rightmost smallest target cell",
        "if 1 < end[i] - i < size:",
        "if 1 < end[i] - i <= size:",
        (SEARCH + "test_canonical_form_golden",),
    ),
    Mutant(
        "search.py",
        "no orbit pruning",
        "                    covered.add(path[len(prefix)])\n"
        "                    self._close_orbits(covered, prefix)\n",
        "                    covered.add(path[len(prefix)])\n",
        (SEARCH + "test_backjump_leaf_counts[petersen]", SEARCH + "test_every_generator_is_new[petersen]"),
    ),
    Mutant(
        "search.py",
        "no first-path backjump",
        "            jump = 0\n"
        "            while prefix[jump] == self.first_prefix[jump]:\n"
        "                jump += 1\n",
        "",
        (SEARCH + "test_backjump_leaf_counts[petersen]", SEARCH + "test_every_generator_is_new[petersen]"),
    ),
    Mutant(
        "search.py",
        "a leaf unwinds one frame too many",
        "del stack[jump + 1:]",
        "del stack[jump:]",
        (
            SEARCH + "test_backjump_leaf_counts[J(7,3,1)]",
            SEARCH + "test_search_order_matches_schreier_sims_random",
        ),
    ),
    Mutant(
        "search.py",
        "leaves never incremented",
        "        self.leaves += 1\n",
        "",
        (SEARCH + "test_backjump_leaf_counts", SEARCH + "test_iso_leaf_counts_on_rigid_pairs"),
    ),
    # the pause at the first leaf, the scan that are_isomorphic runs
    # there, and the one rule that ends every search with a target
    Mutant(
        "search.py",
        "walk never pauses",
        "if self.leaves == 1:",
        "if self.leaves == 0:",
        (CLI + "test_iso_non_isomorphic_cubic_pair",),
    ),
    Mutant(
        "search.py",
        "walk pauses at its second leaf",
        "if self.leaves == 1:",
        "if self.leaves == 2:",
        (SEARCH + "test_iso_leaf_counts_on_rigid_pairs",),
    ),
    Mutant(
        "search.py",
        "first graph's walk never resumed",
        "if scan.matches > 1 or scan.gens:",
        "if False:",
        (
            SEARCH + "test_target_search_leaf_counts",
            SEARCH + "test_are_isomorphic_matches_two_canonical_forms[petersen]",
        ),
    ),
    Mutant(
        "search.py",
        "first graph's walk always resumed",
        "if scan.matches > 1 or scan.gens:",
        "if True:",
        (SEARCH + "test_iso_leaf_counts_on_rigid_pairs",),
    ),
    Mutant(
        "search.py",
        "scan verdict ignores gens",
        "scan.matches > 1 or scan.gens",
        "scan.matches > 1",
        (SEARCH + "test_are_isomorphic_matches_two_canonical_forms[small-cubic]",),
    ),
    Mutant(
        "search.py",
        "scan stops at its first match",
        "self.matches == 2",
        "self.matches == 1",
        (
            SEARCH + "test_are_isomorphic_matches_two_canonical_forms[small-cubic]",
            SEARCH + "test_scan_finds_an_automorphism_exactly_when_there_is_one[small-cubic]",
        ),
    ),
    Mutant(
        "search.py",
        "first graph called rigid after a second match",
        "scan.matches > 1 or",
        "scan.matches > 2 or",
        (
            SEARCH + "test_target_search_leaf_counts",
            SEARCH + "test_are_isomorphic_matches_two_canonical_forms[small-cubic]",
        ),
    ),
    # the exhaustive scan, which places the vertices in breadth-first order
    # and draws each image from the neighbours of an earlier neighbour's
    # image; building ``earlier`` from rank[u] <= rank[v] is an equivalent
    # mutant, since a graph has no loops, so it is not listed
    Mutant(
        "search.py",
        "scan draws from the earlier neighbour's neighbours, not its image's",
        "nbrs[images[back[0]]]",
        "nbrs[back[0]]",
        (
            SEARCH + "test_brute_force_matches_permutation_oracle",
            SEARCH + "test_brute_force_matches_search_group_past_n7",
        ),
    ),
    Mutant(
        "search.py",
        "scan's earlier neighbours are the later ones",
        "if rank[u] < rank[v])",
        "if rank[u] > rank[v])",
        (
            SEARCH + "test_brute_force_matches_permutation_oracle",
            SEARCH + "test_brute_force_matches_search_group_past_n7",
        ),
    ),
    Mutant(
        "search.py",
        "scan wants no earlier neighbour's image",
        "want |= 1 << images[u]",
        "want |= 0",
        (
            SEARCH + "test_brute_force_matches_permutation_oracle",
            SEARCH + "test_brute_force_matches_search_group_past_n7",
        ),
    ),
    Mutant(
        "search.py",
        "scan leaves left unsorted",
        "sorted(found)",
        "found",
        (
            SEARCH + "test_brute_force_lexicographic_order",
            SEARCH + "test_brute_force_matches_permutation_oracle",
            SEARCH + "test_brute_force_matches_search_group_past_n7",
        ),
    ),
    # index order finds the same automorphisms and returns the same list
    # after the sort; only the count of partial maps shows it
    Mutant(
        "search.py",
        "scan in index order, not breadth-first",
        "for v in _bfs_distances(g, root):",
        "for v in (root,):",
        (SEARCH + "test_counts_file_matches_a_fresh_run",),
    ),
    # iso returns a mapping only after checking it: a certificate collision
    # would otherwise print a mapping that is no isomorphism
    Mutant(
        "search.py",
        "iso's mapping check skipped",
        "if permute_graph(g1, sigma).adj != g2.adj:",
        "if False:",
        (CFI + "test_certificate_collision_without_an_isomorphism_raises",),
    ),
    # graph6: both directions share the column layout and the alphabet, so
    # a fault in a shared piece needs a check against an independent one
    Mutant(
        "graphs.py",
        "encoder's column not reversed",
        ':0{j}b}"[::-1]',
        ':0{j}b}"',
        (GRAPH6 + "test_known_petersen_strings", GRAPH6 + "test_decode_matches_the_bit_at_a_time_decoder"),
    ),
    Mutant(
        "graphs.py",
        "alphabet shifted by one",
        "chr(63 + val)",
        "chr(64 + val)",
        (GRAPH6 + "test_decode_matches_the_bit_at_a_time_decoder", GRAPH6 + "test_known_petersen_strings"),
    ),
    Mutant(
        "graphs.py",
        "decoder's mirror loop dropped",
        "        while column:\n"
        "            low = column & -column\n"
        "            adj[low.bit_length() - 1] |= bit\n"
        "            column ^= low\n",
        "",
        (GRAPH6 + "test_single_edge_is_A_underscore", GRAPH6 + "test_decode_matches_the_bit_at_a_time_decoder"),
    ),
    # the short form's vertex-count character runs from '?' (0) to '}' (62)
    Mutant(
        "graphs.py",
        "vertex-count character's lower bound one below '?'",
        "if not 63 <= first <=",
        "if not 62 <= first <=",
        (GRAPH6 + "test_decode_names_an_invalid_vertex_count_character",),
    ),
    Mutant(
        "graphs.py",
        "vertex-count character's upper bound past '~'",
        "first <= 63 + _GRAPH6_MAX_VERTICES:",
        "first <= 65 + _GRAPH6_MAX_VERTICES:",
        (GRAPH6 + "test_decode_names_an_invalid_vertex_count_character",),
    ),
    # the short form's limit, stated once for the encoder, the decoder and
    # gen's size check
    Mutant(
        "graphs.py",
        "graph6 limit one past 62",
        "_GRAPH6_MAX_VERTICES = 62",
        "_GRAPH6_MAX_VERTICES = 63",
        (
            GRAPH6 + "test_encode_rejects_large_graphs",
            CLI + "test_gen_rejects_a_family_past_graph6_before_building_it",
            CLI + "test_gen_rejects_a_huge_family_without_counting_it_exactly",
        ),
    ),
    # the constructor's one walk over each row's set bits, which checks
    # symmetry and keeps the neighbour lists, and girth's search over them
    Mutant(
        "graphs.py",
        "symmetry check skipped",
        "if asymmetric:",
        "if False:",
        (GRAPHS + "test_graph_validation_messages", GRAPHS + "test_symmetry_check_matches_pairwise_reference"),
    ),
    Mutant(
        "graphs.py",
        "mirror test reads the walked bit itself",
        "if not adj[v] & mask:",
        "if not adj[u] & low:",
        (GRAPHS + "test_graph_validation_messages", GRAPHS + "test_symmetry_check_matches_pairwise_reference"),
    ),
    Mutant(
        "graphs.py",
        "a row's neighbours stored empty",
        "rows.append(tuple(row))",
        "rows.append(())",
        (GRAPHS + "test_neighbors_match_pairwise_reference",),
    ),
    Mutant(
        "graphs.py",
        "girth's avoided step not avoided",
        " and (x != start or y != avoid)",
        "",
        (GRAPHS + "test_girth_and_diameter_examples", GRAPHS + "test_girth_matches_edge_deletion_reference"),
    ),
    # the subset families' neighbour lists, built from each subset's
    # complement; kneser(n, 0) is the one family whose subsets keep all
    # their members
    Mutant(
        "graphs.py",
        "members kept in a neighbour's added part",
        "rest = [bit for bit in bits[1:] if not mask & bit]",
        "rest = bits[1:]",
        (GRAPHS + "test_subset_graphs_match_pairwise_reference",),
    ),
    Mutant(
        "graphs.py",
        "a subset that keeps every member listed as a neighbour",
        "if wanted_intersection < k:",
        "if True:",
        (GRAPHS + "test_subset_graphs_match_pairwise_reference",),
    ),
    # a k-subset is the tuple of its members: the empty ground set is the
    # one input past the k check that subsets refuses, and the label is
    # the set's members joined by commas
    Mutant(
        "graphs.py",
        "empty ground set admitted",
        "if n < 1:",
        "if n < 0:",
        (GUARDS + "test_guard_or_result[subsets-ground-0]", GUARDS + "test_guard_or_result[kneser-ground-0]"),
    ),
    Mutant(
        "graphs.py",
        "label members joined by a comma and a space",
        '",".join(map(str, s))',
        '", ".join(map(str, s))',
        (CLI + "test_gen_johnson_dot_golden",),
    ),
    # gen's size check, which must refuse graph6 past 62 vertices before
    # the build, whatever the count, and count a family's edges exactly
    Mutant(
        "cli.py",
        "graph6 branch of the size check dropped",
        '    if args.format == "graph6" and count > _GRAPH6_MAX_VERTICES:\n'
        "        raise ValueError(_GRAPH6_TOO_LARGE)\n",
        "",
        (CLI + "test_gen_rejects_a_huge_family_without_counting_it_exactly",),
    ),
    Mutant(
        "cli.py",
        "vertex cap doubled",
        "if count > _MAX_GEN_VERTICES:",
        "if count > 2 * _MAX_GEN_VERTICES:",
        (CLI + "test_gen_rejects_a_family_past_the_vertex_cap_before_building_it",),
    ),
    Mutant(
        "cli.py",
        "edge cap admits no family at the cap",
        "if edges > _MAX_GEN_EDGES:",
        "if edges >= _MAX_GEN_EDGES:",
        (CLI + "test_gen_edge_cap_counts_the_edges_exactly",),
    ),
    Mutant(
        "cli.py",
        "edges counted from both ends",
        "math.comb(k, t) // 2 if outside",
        "math.comb(k, t) if outside",
        (CLI + "test_gen_edge_cap_counts_the_edges_exactly",),
    ),
    Mutant(
        "cli.py",
        "ground-set bound dropped",
        "if args.n > _MAX_GEN_VERTICES:",
        "if False:",
        (CLI + "test_gen_refuses_a_one_vertex_family_past_the_ground_set_bound",),
    ),
    Mutant(
        "cli.py",
        "ground-set bound admits no n at the bound",
        "if args.n > _MAX_GEN_VERTICES:",
        "if args.n >= _MAX_GEN_VERTICES:",
        (CLI + "test_gen_refuses_a_one_vertex_family_past_the_ground_set_bound",),
    ),
    # exit 1 for a negative mathematical result
    Mutant(
        "cli.py",
        "iso exits 0 on a non-isomorphic pair",
        '        print("non-isomorphic")\n        return 1\n',
        '        print("non-isomorphic")\n        return 0\n',
        (CLI + "test_iso_non_isomorphic",),
    ),
    Mutant(
        "cli.py",
        "verify-petersen exits 0 on FALSIFIED",
        'return 0 if report.verdict == "VERIFIED" else 1',
        'return 0 if report.verdict == "VERIFIED" else 0',
        (CLI + "test_verify_petersen_falsified_exits_1",),
    ),
    # main turns every usage and I/O error into exit 2 with a message, and
    # a file and stdin decode alike
    Mutant(
        "cli.py",
        "main catches ValueError only",
        "except (ValueError, OSError) as exc:",
        "except ValueError as exc:",
        (CLI + "test_render_unwritable_path",),
    ),
    Mutant(
        "cli.py",
        "input decoded as latin-1",
        'data.decode("ascii")',
        'data.decode("latin-1")',
        (CLI + "test_graph6_bytes_read_alike_from_file_and_stdin",),
    ),
    # iso reads each input once, so stdin can serve one of them only
    Mutant(
        "cli.py",
        "both iso inputs read from stdin",
        'if args.input_a == args.input_b == "-":',
        "if False:",
        (CLI + "test_iso_rejects_stdin_for_both_inputs",),
    ),
    # closure, the order the verifier and the group oracle rely on
    Mutant(
        "perms.py",
        "closure's layer sort dropped",
        "        layer.sort()\n",
        "",
        (
            PERMS + "test_closure_is_deterministic_bfs_then_lex",
            PERMS + "test_closure_matches_permutation_product_reference",
        ),
    ),
    # membership sifts through every level of the chain
    Mutant(
        "perms.py",
        "membership sifted from level 1",
        "self._sift(p.images, 0)[0] == self._identity",
        "self._sift(p.images, 1)[0] == self._identity",
        (GUARDS + "test_guard_or_result[bsgs-in]", PERMS + "test_membership_agrees_with_closure"),
    ),
    # the verdict: each term that one probe alone fails
    Mutant(
        "verify.py",
        "verdict ignores whether φ lands in Aut",
        "        all_automorphisms\n        and hom_ok\n",
        "        hom_ok\n",
        (VERIFY + "test_verdict_falsified_when_phi_alone_leaves_aut",),
    ),
    # phi(S5) in Aut from the two generators' images, both of which count
    Mutant(
        "verify.py",
        "φ in Aut checked on (1 2)'s image only",
        "_phi_in_aut(g, [phi[s], phi[t]])",
        "_phi_in_aut(g, [phi[s]])",
        (
            VERIFY + "test_verdict_falsified_when_one_generator_image_leaves_aut",
            VERIFY + "test_verdict_matches_the_rule_that_checks_all_120_images",
        ),
    ),
    Mutant(
        "verify.py",
        "φ in Aut checked on (1 2 3 4 5)'s image only",
        "_phi_in_aut(g, [phi[s], phi[t]])",
        "_phi_in_aut(g, [phi[t]])",
        (
            VERIFY + "test_verdict_falsified_when_one_generator_image_leaves_aut",
            VERIFY + "test_verdict_matches_the_rule_that_checks_all_120_images",
        ),
    ),
    Mutant(
        "verify.py",
        "verdict ignores the search's order",
        "        and aut_order_search == S5_ORDER\n",
        "",
        (VERIFY + "test_verdict_falsified_when_the_search_order_alone_is_wrong",),
    ),
    # each fault a probe causes gives its check's fallback, not an exception
    Mutant(
        "verify.py",
        "homomorphism check lets CapacityError escape",
        "(CapacityError,), (False, 0)",
        "(), (False, 0)",
        (VERIFY + "test_verify_petersen_images_past_256_points_falsified",),
    ),
    Mutant(
        "verify.py",
        "image order lets CapacityError escape",
        "(CapacityError, ValueError), 0",
        "(ValueError,), 0",
        (VERIFY + "test_verdict_falsified_for_corrupted_generator_image",),
    ),
    Mutant(
        "verify.py",
        "image order lets ValueError escape",
        "(CapacityError, ValueError), 0",
        "(CapacityError,), 0",
        (VERIFY + "test_verify_petersen_mixed_degree_images_falsified",),
    ),
    Mutant(
        "verify.py",
        "search run on a graph without vertices",
        "schreier_sims(automorphisms(g)[0]).order() if g.n else 0",
        "schreier_sims(automorphisms(g)[0]).order()",
        (VERIFY + "test_verify_petersen_on_an_empty_probe_graph",),
    ),
    Mutant(
        "verify.py",
        "brute force run on a graph without vertices",
        "len(brute_force_automorphisms(g)) if g.n else 0",
        "len(brute_force_automorphisms(g))",
        (VERIFY + "test_verify_petersen_on_an_empty_probe_graph",),
    ),
    Mutant(
        "verify.py",
        "brute force lets CapacityError escape",
        "if g.n else 0, (CapacityError,), 0",
        "if g.n else 0, (), 0",
        (VERIFY + "test_verify_petersen_brute_on_a_graph_past_the_scan_cap",),
    ),
    # the verifier's exhaustive checks, on the Cayley rows of S5: row 0
    # pair by pair, then every pair one point at a time
    Mutant(
        "verify.py",
        "Cayley row composed in the wrong order",
        "rows[y] = rows[x].translate(s_table)",
        "rows[y] = s.translate(rows[x] + _IDENTITY_TABLE[n:])",
        (VERIFY + "test_cayley_rows_match_direct_products", VERIFY + "test_homomorphism_all_pairs"),
    ),
    Mutant(
        "verify.py",
        "generator's Cayley row composed as g_k * g_new",
        "index[g_bytes[new].translate(t)] for t in tables",
        "index[g.translate(tables[new])] for g in g_bytes",
        (VERIFY + "test_cayley_rows_match_direct_products", VERIFY + "test_homomorphism_all_pairs"),
    ),
    Mutant(
        "verify.py",
        "row-0 failure at a 0-based position",
        "return False, j + 1",
        "return False, j",
        (
            VERIFY + "test_homomorphism_pairs_match_tuple_reference_seeded_corruptions",
            VERIFY + "test_homomorphism_pairs_match_tuple_reference_on_mutated_tables",
        ),
    ),
    Mutant(
        "verify.py",
        "homomorphism failure at a 0-based position",
        "(diff.bit_length() + 7) // 8 + 1)",
        "(diff.bit_length() + 7) // 8)",
        (VERIFY + "test_checks_match_reference_true_and_corrupted_actions",),
    ),
    Mutant(
        "verify.py",
        "homomorphism failure taken at the first failing point, not the least over points",
        "(False, min(failures))",
        "(False, failures[0])",
        (
            VERIFY + "test_failing_position_is_the_least_over_points",
            VERIFY + "test_homomorphism_pairs_match_tuple_reference_on_mutated_tables",
        ),
    ),
    Mutant(
        "verify.py",
        "kernel compared with a degree-9 identity",
        "ident10 = tuple(range(10))",
        "ident10 = tuple(range(9))",
        (VERIFY + "test_kernel_of_trivial_action_is_everything",),
    ),
    # the group's one size cap, the byte index of a Cayley column
    Mutant(
        "verify.py",
        "group capped at S5's order",
        "closure(gens, cap=BYTE_POINTS)",
        "closure(gens, cap=S5_ORDER)",
        (VERIFY + "test_homomorphism_holds_on_a_group_of_240_elements",),
    ),
    Mutant(
        "verify.py",
        "group cap past the byte index",
        "closure(gens, cap=BYTE_POINTS)",
        "closure(gens, cap=2 * BYTE_POINTS)",
        (VERIFY + "test_homomorphism_past_256_elements_raises_capacity_error",),
    ),
)

SURVIVORS = (
    Survivor(
        "search.py",
        "the rest of an individualized cell starts dirty again",
        "dirty[target] = True",
        "dirty[target] = dirty[target + 1] = True",
        "the rest of the target cell splits nothing when the scan reaches"
        " it, so checking it as a splitter only repeats work: every output,"
        " trace and count stays the same",
    ),
    Survivor(
        "search.py",
        "no stop at a generator after a match",
        "(self.matches == 2 or self.gens)",
        "self.matches == 2",
        "a search that goes on past a generator it found after a match"
        " keeps its first match, which is best, and the generator that"
        " shows the first graph not rigid; on the 774 pairs of the iso"
        " corpora in tests/test_search.py it met no further leaf, so no"
        " output and no count in BENCH_counts.json changes",
    ),
    Survivor(
        "verify.py",
        "verdict ignores the kernel",
        "        and kernel_ok\n",
        "",
        "given the homomorphism, |image| = 120 / |kernel|, so a kernel that"
        " is not trivial gives an image order other than 120, which the"
        " verdict's image term already fails",
    ),
    Survivor(
        "verify.py",
        "verdict ignores the image order",
        "        and image_order == S5_ORDER\n",
        "",
        "given the homomorphism, the image has 120 elements exactly when the"
        " kernel is trivial, which the verdict's kernel term already checks",
    ),
    Survivor(
        "verify.py",
        "verdict ignores the brute-force order",
        "        and (aut_order_brute is None or aut_order_brute == S5_ORDER)\n",
        "",
        "the exhaustive count differs from the search's order only when the"
        " search is wrong; no test runs a wrong search, so on every probe"
        " graph the search term already decides",
    ),
)


def mutate(sources: dict[str, str], m: Mutant | Survivor) -> str:
    count = sources[m.file].count(m.snippet)
    if count != 1:
        raise ValueError(f"the snippet occurs {count} times in {m.file}, not once: {m.snippet!r}")
    return sources[m.file].replace(m.snippet, m.replacement)


def pytest(src: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit status for ``tests`` with the package imported from
    ``src``, with warnings as errors as in the tier-1 tests."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *WARNINGS, *tests]
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode


def main() -> int:
    files = dict.fromkeys(m.file for m in (*MUTANTS, *SURVIVORS))
    sources = {f: (ROOT / PACKAGE / f).read_text(encoding="utf-8") for f in files}
    try:
        mutated = [(m, mutate(sources, m)) for m in MUTANTS]
        for s in SURVIVORS:
            mutate(sources, s)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        # pytest exits 1 when a test fails; 0 is a pass, anything else an
        # error such as an unknown test id or a module that does not import
        everything = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        status = pytest(src, everything)
        if status != 0:
            print(f"error: the tests fail on the unchanged copy (pytest exit {status})", file=sys.stderr)
            return 2
        failed = 0
        for m, text in mutated:
            copy = Path(tmp, PACKAGE, m.file)
            copy.write_text(text, encoding="utf-8")
            status = pytest(src, m.tests)
            copy.write_text(sources[m.file], encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"ERROR (pytest exit {status})")
            print(f"{verdict}: {m.file}: {m.name}", flush=True)
            failed += status != 1
    for s in SURVIVORS:
        print(f"known survivor: {s.file}: {s.name}: {s.reason}")
    print(f"{len(mutated) - failed} of {len(mutated)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
