import contextlib
import signal
import time
from dataclasses import replace

import hypothesis
import numpy as np
import pytest

from bohmsim import cli, validate
from bohmsim.analysis import surreal_fraction_vs_N
from bohmsim.integrate import IntegratorOptions, Trajectory, run_ensemble
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


@pytest.fixture(scope="session")
def fig4_ensemble() -> list[Trajectory]:
    """The fig4 preset's ensemble at its own options, integrated once per session.

    Its arrays are read-only, so a test that writes to them fails instead of
    changing what later tests read.
    """
    sc = preset("fig4")
    trajs = run_ensemble(sc.ensemble, sc.params, sc.integrator)
    for traj in trajs:
        for value in vars(traj).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
    return trajs


@pytest.fixture
def serve_fig4_ensemble(fig4_ensemble, monkeypatch):
    """``validate`` and ``cli`` get ``fig4_ensemble`` from ``run_ensemble`` on the
    fig4 preset's own arguments, and integrate every other ensemble as usual."""
    sc = preset("fig4")
    for module in (validate, cli):
        def served(spec, params, opts=IntegratorOptions(), integrate=module.run_ensemble):
            if (spec, params, opts) == (sc.ensemble, sc.params, sc.integrator):
                return fig4_ensemble
            return integrate(spec, params, opts)

        monkeypatch.setattr(module, "run_ensemble", served)


@pytest.fixture(scope="session")
def fig4_centred_sweep() -> tuple[list[tuple[int, float]], float]:
    """``surreal_fraction_vs_N`` on the fig4 base at N = 1 and 10, Sigma_hat'(0) = 0,
    with its wall seconds: run once per session."""
    t0 = time.perf_counter()
    rows = surreal_fraction_vs_N(preset("fig4").params, [1, 10], sigma_hat0=0.0)
    return rows, time.perf_counter() - t0


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
