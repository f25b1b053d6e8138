import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from robustport import (CoefficientFn, GridSpec, MarketModel, PowerUtility,
                        UncertaintyRectangle)


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test that leaves a thread alive which it did not find: a path
    engine pool that outlived its batch would keep a process from exiting."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    assert not left, f"threads left alive: {left}"


@pytest.fixture(scope="session")
def smoke_rect():
    return UncertaintyRectangle(0.1, 0.3, 0.2, 0.4)


@pytest.fixture(scope="session")
def smoke_model():
    return MarketModel(b=CoefficientFn.constant(0.0),
                       beta=CoefficientFn.constant(0.0),
                       r=CoefficientFn.constant(0.0), rho=0.5)


@pytest.fixture(scope="session")
def smoke_util():
    return PowerUtility(0.5)


@pytest.fixture(scope="session")
def smoke_grid():
    return GridSpec(horizon=1.0, n_t=2001, n_y=201, y_radius=3.0, theta=0.5)


@pytest.fixture(scope="session")
def ramp_model():
    return MarketModel(b=CoefficientFn.ramp(0.0, 0.2, 2.0),
                       beta=CoefficientFn.ramp(0.1, -0.1, 2.0),
                       r=CoefficientFn.constant(0.01), rho=0.5)


@pytest.fixture(scope="session")
def dip_model():
    """b is 0 outside (0.001, 0.009) and dips to -0.5 at 0.005, so
    b + mu_minus = -0.4 there for smoke_rect's mu_minus 0.1."""
    zero = CoefficientFn.constant(0.0)
    b = CoefficientFn.piecewise(0.0, 0.0, 1.0, [(0.001, 0.0), (0.005, -0.5), (0.009, 0.0)])
    return MarketModel(b=b, beta=zero, r=zero, rho=0.5)
