import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

# runs pytest with this directory's conftest.py as a plugin and a 0.2 s budget
SMALL_BUDGET_RUN = """
import sys, pytest, conftest
conftest.BUDGET_S = 0.2
sys.exit(pytest.main(sys.argv[1:], plugins=[conftest]))
"""


def test_a_spinning_test_is_stopped():
    signal.setitimer(signal.ITIMER_VIRTUAL, 0.05)  # conftest.py disarms it after the test
    with pytest.raises(BaseException, match="CPU-time budget") as err:
        while True:
            pass
    assert not isinstance(err.value, Exception)


def test_each_test_starts_with_the_whole_budget_armed():
    import conftest
    remaining, interval = signal.getitimer(signal.ITIMER_VIRTUAL)
    # the kernel rounds the timer up to its next tick, a few ms past BUDGET_S
    assert remaining == pytest.approx(conftest.BUDGET_S, abs=1.0) and interval == 0.0
    assert signal.getsignal(signal.SIGVTALRM) is conftest._expire


def run_with_small_budget(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent)}
    return subprocess.run([sys.executable, "-c", SMALL_BUDGET_RUN, "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors", str(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)


def test_a_test_that_spins_fails_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_spin.py").write_text(
        "def test_spin():\n    while True:\n        pass\n\n\ndef test_fine():\n    pass\n")
    done = run_with_small_budget(tmp_path)
    assert "FAILED test_spin.py::test_spin - conftest._OverBudget" in done.stdout
    assert "1 failed, 1 passed" in done.stdout
    assert done.returncode == 1


def test_a_module_that_spins_at_import_is_a_collection_error(tmp_path):
    (tmp_path / "test_spin.py").write_text("while True:\n    pass\n")
    (tmp_path / "test_fine.py").write_text("def test_fine():\n    pass\n")
    done = run_with_small_budget(tmp_path)
    assert "ERROR test_spin.py - conftest._OverBudget" in done.stdout
    assert "1 passed, 1 error" in done.stdout
    assert done.returncode == 1
