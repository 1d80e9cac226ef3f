"""A CPU-time budget for every test and for collection, so code that spins fails
instead of stalling the run."""

import contextlib
import signal

import pytest

#: CPU seconds one test, or the whole collection, may use; the slowest test takes under 2 s
BUDGET_S = 60.0


class _OverBudget(BaseException):
    """A test ran past its CPU-time budget.  Not an Exception, so neither an
    `except Exception` in the code under test nor hypothesis's shrinking catches it."""


def _expire(signum, frame):
    raise _OverBudget("the test ran past its CPU-time budget")


@contextlib.contextmanager
def _cpu_time_budget():
    # ITIMER_VIRTUAL counts this process's user CPU time and leaves ITIMER_REAL and
    # SIGALRM to the tests that set their own wall-clock deadlines
    previous = signal.signal(signal.SIGVTALRM, _expire)
    signal.setitimer(signal.ITIMER_VIRTUAL, BUDGET_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
        signal.signal(signal.SIGVTALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_collection():
    # a test module that spins at import becomes its own collection error
    with _cpu_time_budget():
        yield


@pytest.fixture(autouse=True)
def cpu_time_budget():
    with _cpu_time_budget():
        yield
