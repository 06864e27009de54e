import autkit
from autkit import graphs, perms, search, verify

LAYERS = (graphs, perms, search, verify)


def test_package_exports_are_the_layer_exports():
    assert len(set(autkit.__all__)) == len(autkit.__all__)
    assert set(autkit.__all__) == {name for module in LAYERS for name in module.__all__}


def test_every_exported_name_resolves():
    # the benchmark's tracer looks up every listed name of each layer
    for module in LAYERS:
        for name in module.__all__:
            assert getattr(autkit, name) is getattr(module, name)


def test_public_names_are_pinned():
    # the package's public surface: adding or removing a name is a contract
    # change, to be made here and named in CHANGES.md
    assert set(autkit.__all__) == {
        # graphs
        "Graph",
        "Graph6Error",
        "subsets",
        "johnson_general",
        "kneser",
        "petersen_subsets",
        "petersen_classic",
        "edge_count",
        "is_regular",
        "girth",
        "diameter",
        "is_connected",
        "permute_graph",
        "is_automorphism",
        "graph6_encode",
        "graph6_decode",
        "to_dot",
        "petersen_layout",
        # perms
        "Permutation",
        "BSGS",
        "CapacityError",
        "schreier_sims",
        "closure",
        # search
        "CanonicalForm",
        "refine",
        "automorphisms",
        "canonical_form",
        "are_isomorphic",
        "brute_force_automorphisms",
        # verify
        "VerificationReport",
        "s5_generators",
        "induced_action",
        "check_homomorphism",
        "check_kernel_trivial",
        "verify_petersen",
    }
