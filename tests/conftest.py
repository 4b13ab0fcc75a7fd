"""Checks shared by every test module."""

import os
import tracemalloc

import pytest


@pytest.fixture(autouse=True)
def no_child_process_is_left():
    """Fail a test after which this process has a child, running or not
    yet waited for: every process a test forks must be reaped by it."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid == 0:
        pytest.fail("the test left a child process running")
    pytest.fail(f"the test left child {pid} unreaped (wait status "
                f"{status})")


@pytest.fixture
def traced_peak():
    """peak(n, call): (the peak call() traces past what was held when it
    started, in arrays of n float64, and call's result).  Tracing stops
    however call ends."""
    def peak(n, call):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = call()
            arrays = (tracemalloc.get_traced_memory()[1] - before) / (8 * n)
        finally:
            tracemalloc.stop()
        return arrays, result
    return peak
