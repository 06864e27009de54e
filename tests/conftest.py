import contextlib
import signal
import subprocess
import sys
import threading

import pytest
from hypothesis import settings

from autkit import Graph, petersen_subsets

# Fixed example sequence and no timing deadline, so every run of the suite
# checks the same cases and a slow machine cannot fail a property test.
settings.register_profile("autkit", derandomize=True, deadline=None, database=None)
settings.load_profile("autkit")

#: per-test wall-clock limit; the slowest test takes about 2.5 s on a
#: shared 2-core Xeon, so only a hang (a Schreier-Sims build that never
#: stops adding strong generators, say) comes near it
TEST_TIME_LIMIT_S = 60


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the enclosed code through ``pytest.fail`` once it has run for
    ``seconds`` of wall-clock time.  Uses SIGALRM, so it acts only on POSIX
    in the main thread; elsewhere the code runs without a limit."""
    if not hasattr(signal, "setitimer") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expired(signum, frame):
        pytest.fail(f"ran past its {seconds} s time limit", pytrace=False)

    handler = signal.signal(signal.SIGALRM, expired)
    timer = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *timer)
        signal.signal(signal.SIGALRM, handler)


@pytest.fixture(autouse=True)
def per_test_time_limit():
    with time_limit(TEST_TIME_LIMIT_S):
        yield


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


def random_cubic(rng, n):
    """A uniform random simple cubic graph on n vertices (pairing model,
    rejecting pairings with loops or multiple edges)."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = list(zip(points[::2], points[1::2]))
        edges = {(min(u, v), max(u, v)) for u, v in pairs}
        if len(edges) == len(pairs) and all(u != v for u, v in pairs):
            return Graph.from_edges(n, sorted(edges))


def all_masks(n):
    return range(1 << (n * (n - 1) // 2))


def run_cli(args, stdin_text=None):
    """``python -m autkit args``; with bytes on stdin, stdout and stderr
    come back as bytes too."""
    return subprocess.run(
        [sys.executable, "-m", "autkit", *args],
        input=stdin_text,
        capture_output=True,
        text=not isinstance(stdin_text, bytes),
    )


@pytest.fixture
def petersen():
    return petersen_subsets()
