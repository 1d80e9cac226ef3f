import signal

import pytest


def test_a_spinning_test_is_stopped():
    signal.setitimer(signal.ITIMER_VIRTUAL, 0.05)  # conftest.py disarms it after the test
    with pytest.raises(BaseException, match="CPU-time budget") as err:
        while True:
            pass
    assert not isinstance(err.value, Exception)
