import subprocess
import sys

import pytest
from hypothesis import settings

from autkit import Graph, petersen_subsets

# Fixed example sequence and no timing deadline, so every run of the suite
# checks the same cases and a slow machine cannot fail a property test.
settings.register_profile("autkit", derandomize=True, deadline=None, database=None)
settings.load_profile("autkit")


def graph_from_mask(n, mask):
    """Graph on n vertices from an upper-triangle bitmask, row-major:
    bit 0 is the pair (0,1), bit 1 is (0,2), ..."""
    adj = [0] * n
    pos = 0
    for u in range(n):
        for v in range(u + 1, n):
            if (mask >> pos) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            pos += 1
    return Graph(n, tuple(adj))


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def all_masks(n):
    return range(1 << (n * (n - 1) // 2))


def run_cli(args, stdin_text=None):
    return subprocess.run(
        [sys.executable, "-m", "autkit", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
    )


@pytest.fixture
def petersen():
    return petersen_subsets()
