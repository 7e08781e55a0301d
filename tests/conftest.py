import signal
import sys

import pytest

from algebroid import exactalg, tracker
from algebroid.surface import DefiningEquation


@pytest.fixture(scope="session")
def sqrt_z():
    """W^2 - z = 0: the 2-valued square root."""
    return DefiningEquation.from_strings(["0", "-z"])


@pytest.fixture(scope="session")
def recip_z():
    """W - 1/z = 0: meromorphic with a simple pole at 0."""
    return DefiningEquation.from_strings(["-1/z"])


@pytest.fixture(scope="session")
def circle_eq():
    """W^2 - (1 + z^2) = 0: branch points at +-i, nonzero period at infinity."""
    return DefiningEquation.from_strings(["0", "-(1+z^2)"])


@pytest.fixture(scope="session")
def split_eq():
    """W^2 - z^2 = 0: reducible, branches +-z."""
    return DefiningEquation.from_strings(["0", "-z^2"])


@pytest.fixture
def time_limit():
    """time_limit(seconds) makes the test raise TimeoutError once that much
    wall time has passed, so that a test of a known hang fails and does not
    stall the suite. Runs in the main thread only, on a platform with
    SIGALRM; the timer is disarmed when the test ends."""

    def expire(signum, frame):
        raise TimeoutError("the test ran past its time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(name) gives the list that collects the z of every later
    call name(eq, z, ...) of the algebroid function name (fiber_at, germ_at),
    or the argument of a call name(arg) (discriminant), patched in every
    algebroid module that imports it."""

    def start(name):
        zs = []
        real = getattr(tracker, name, None) or getattr(exactalg, name)

        def counted(first, *args, **kwargs):
            zs.append(args[0] if args else first)
            return real(first, *args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "algebroid" and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
        return zs

    return start
