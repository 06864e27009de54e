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
