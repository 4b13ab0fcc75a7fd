"""Checks shared by every test module."""

import os

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
