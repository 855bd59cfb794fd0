import numpy as np
import pytest
from hypothesis import settings

from secest import ChannelParams, LinearSystem, ScalarSystem

# Property tests draw the same examples on every run and leave no example
# database behind; the example count keeps them to a few seconds.
settings.register_profile("secest", derandomize=True, database=None, deadline=None,
                          max_examples=40)
settings.load_profile("secest")

ACCEPTANCE_LINES = []


def record_acceptance(line: str):
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def scalar_sys():
    # a=1.2, c=q=r=1: boundedness threshold at rate 1 - 1/1.44 = 11/36
    return ScalarSystem(1.2, 1.0, 1.0, 1.0).to_linear()


@pytest.fixture
def second_order_sys():
    A = np.array([[1.2, 1.0], [0.0, 1.1]])
    Q = np.array([[1.0, 0.5], [0.5, 2.0]])
    return LinearSystem(A=A, C=np.array([[1.0, 0.0]]), Q=Q, R=1.0, Sigma0=Q)


@pytest.fixture
def near_unit_plants():
    """Seeded n = 2, 3 plants with A scaled to rho(A) = 1 + k ulp, |k| <= 3.

    Different eigenvalue routes round rho differently in the last bit, so
    the instability verdict on these plants is decided by roundoff.
    """
    eps = np.finfo(float).eps
    rng = np.random.default_rng(20161018)
    plants = []
    for i in range(200):
        n = 2 + i % 2
        A = rng.standard_normal((n, n))
        A *= (1.0 + int(rng.integers(-3, 4)) * eps) / np.max(np.abs(np.linalg.eigvals(A)))
        plants.append(LinearSystem(A=A, C=np.eye(n)[:1], Q=np.eye(n), R=1.0, Sigma0=np.eye(n)))
    return plants


@pytest.fixture
def channel_96():
    return ChannelParams(0.9, 0.6)


@pytest.fixture
def channel_97():
    return ChannelParams(0.9, 0.7)
