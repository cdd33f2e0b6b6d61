import contextlib
import signal
from dataclasses import replace

import hypothesis
import numpy as np
import pytest

from bohmsim.model import Configuration, ScenarioParams
from bohmsim.scenario import preset

hypothesis.settings.register_profile(
    "suite", max_examples=50, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("suite")


@pytest.fixture(scope="session")
def fig2_params() -> ScenarioParams:
    return preset("fig2").params


@pytest.fixture(scope="session")
def fig3_params() -> ScenarioParams:
    return preset("fig3").params


@pytest.fixture(scope="session")
def fig4_params() -> ScenarioParams:
    return preset("fig4").params


def fig4_n_particles(n: int) -> ScenarioParams:
    """The fig4 scenario with a rigid pointer of n particles; n = 0 has no pointer."""
    params = preset("fig4").params
    return params.with_rigid_pointer(n) if n else replace(params, pointer_velocities=())


def spread_z0(n: int, sigma_hat0: float = 0.0) -> tuple[float, ...]:
    """n distinct pointer starts whose scaled sum is exactly sigma_hat0."""
    if n == 1:
        return (sigma_hat0,)
    dev = 0.2 * np.linspace(-1.0, 1.0, n)
    dev -= dev.mean()
    return tuple(dev + sigma_hat0 / np.sqrt(n))


def config(t, x, y, z=()) -> Configuration:
    return Configuration(t, x, y, tuple(z))


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the body once it has run ``seconds``, so a hang fails.

    Uses SIGALRM: POSIX only, and pytest must run the test in the main thread.
    """
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
