import signal
import time

import pytest

from conftest import TEST_TIME_LIMIT_S, time_limit

posix_only = pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")


@posix_only
def test_every_test_runs_under_the_limit():
    remaining, interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TEST_TIME_LIMIT_S
    assert interval == 0


@posix_only
def test_time_limit_fails_a_busy_loop():
    start = time.perf_counter()
    with pytest.raises(pytest.fail.Exception, match="0.05 s time limit"):
        with time_limit(0.05):
            while time.perf_counter() - start < 5:
                pass
    assert time.perf_counter() - start < 1


@posix_only
def test_time_limit_restores_the_outer_timer():
    with time_limit(10):
        pass
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 10 < remaining <= TEST_TIME_LIMIT_S
