import contextlib
import functools
import importlib.util
import json
import signal
import time
from dataclasses import replace
from pathlib import Path

import hypothesis
import numpy as np
import pytest

from bohmsim import cli, rk45, validate
from bohmsim.analysis import surreal_fraction_vs_N
from bohmsim.integrate import IntegratorOptions, Trajectory, run_ensemble
from bohmsim.model import Configuration, ScenarioParams
from bohmsim.scenario import preset, preset_names

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_presets.json"


def _load_run_figures():
    spec = importlib.util.spec_from_file_location("run_figures",
                                                  ROOT / "scripts" / "run_figures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_figures = _load_run_figures()

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


def _read_only(trajs: list[Trajectory]) -> list[Trajectory]:
    for traj in trajs:
        for value in vars(traj).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
    return trajs


@pytest.fixture(scope="session")
def fig4_ensemble() -> list[Trajectory]:
    """The fig4 preset's ensemble at its own options, integrated once per session.

    Its arrays are read-only, so a test that writes to them fails instead of
    changing what later tests read.
    """
    sc = preset("fig4")
    return _read_only(run_ensemble(sc.ensemble, sc.params, sc.integrator))


# each preset's own run_ensemble arguments: (spec, params, opts)
PRESET_ARGS = frozenset((sc.ensemble, sc.params, sc.integrator)
                        for sc in map(preset, preset_names()))


@pytest.fixture(scope="session")
def preset_ensembles(fig4_ensemble) -> dict:
    """Preset ensembles by their ``run_ensemble`` arguments, read-only, each made once
    per session: fig4's is ``fig4_ensemble``, the others are added on first use."""
    sc = preset("fig4")
    return {(sc.ensemble, sc.params, sc.integrator): fig4_ensemble}


def _serve(monkeypatch, ensembles: dict) -> None:
    for module in (validate, cli):
        def served(spec, params, opts=IntegratorOptions(), integrate=module.run_ensemble):
            key = (spec, params, opts)
            if key not in PRESET_ARGS:
                return integrate(spec, params, opts)
            if key not in ensembles:
                ensembles[key] = _read_only(integrate(spec, params, opts))
            return ensembles[key]

        monkeypatch.setattr(module, "run_ensemble", served)


@pytest.fixture
def serve_preset_ensembles(preset_ensembles, monkeypatch):
    """``validate`` and ``cli`` get a preset's ensemble from ``preset_ensembles`` when
    they call ``run_ensemble`` on that preset's own arguments, and integrate every
    other ensemble as usual."""
    _serve(monkeypatch, preset_ensembles)


@pytest.fixture(scope="session")
def preset_runs(tmp_path_factory, preset_ensembles) -> Path:
    """Every preset simulated and plotted, as ``scripts/run_figures.py`` does, once
    per session; the root that holds one run directory per preset."""
    root = tmp_path_factory.mktemp("presets")
    with pytest.MonkeyPatch.context() as monkeypatch:
        _serve(monkeypatch, preset_ensembles)
        assert run_figures.run_presets(preset_names(), root) == 0
    return root


@functools.cache
def golden() -> tuple[dict, bool]:
    """``tests/golden_presets.json``, and whether this environment is the one it was made in."""
    want = json.loads(GOLDEN.read_text())
    return want, want["environment"] == run_figures.environment()


def check_golden_reading(suite: str, detail: str) -> None:
    """A validate suite's reading is the golden one, where the golden bits hold."""
    want, exact = golden()
    if exact:
        assert detail == want["validate"][suite], suite
    else:
        print(f"{suite}: not compared with {GOLDEN.name}, made in another environment")


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
    return params.with_rigid_pointer(n) if n else replace(params, pointer_groups=())


def spread_z0(n: int, sigma_hat0: float = 0.0) -> tuple[float, ...]:
    """n distinct pointer starts whose scaled sum is exactly sigma_hat0."""
    if n == 1:
        return (sigma_hat0,)
    dev = 0.2 * np.linspace(-1.0, 1.0, n)
    dev -= dev.mean()
    return tuple(dev + sigma_hat0 / np.sqrt(n))


def config(t, x, y, z=()) -> Configuration:
    return Configuration(t, x, y, tuple(z))


class Form:
    """The system ``f(t, y)``, answering its slope in one form.  What ``rk45.solve`` steps
    for each answer:

    * ``tuple``: a tuple of floats, stepped in arrays, as every answer but the pair form's;
    * ``np.ndarray``: an array, stepped in arrays;
    * ``PAIR``: the pair form's (core, lin, basis) for a two-component system (x, z),
      stepped in floats as (x, beta).  lin = 1, B1 = 1 and B2 = 0, and the core answers
      alpha = 1 and c = 0: so z is z(t0) + beta, and a is the slope of z.  ``solve``
      hands ``rk45.solve`` the state (x, 0, z) and maps its samples back to (x, z).

    ``seen`` holds (t, kind, copy) of every state handed in, as (x, z) of kind "core" to a
    core."""

    PAIR = "pair"

    def __init__(self, answer, f):
        self.answer, self.f, self.seen, self.asked = answer, f, [], []

    def __call__(self, t, y):
        if self.answer is self.PAIR:
            self.asked.append(type(y))
            return self.core, np.ones(1), np.array([[1.0], [0.0]])
        self.seen.append((t, type(y), np.array(y)))
        v = self.f(t, y)
        return tuple(map(float, v)) if self.answer is tuple else np.array(v, dtype=float)

    def core(self, t, x, u, w):
        # lin . Z = 1 u + w is z; the slope of Z is 0 Z + a B1 + 0 B2, with a the slope of z
        z = u + w
        self.seen.append((t, "core", np.array([x, z])))
        vx, vz = map(float, self.f(t, (x, z)))
        return vx, 0.0, vz, 0.0, 1.0

    def solve(self, t0, y0, *args, **kwargs) -> rk45.SolverResult:
        """``rk45.solve`` of this system from ``y0``, on (x, z) whatever the answer."""
        if self.answer is not self.PAIR:
            return rk45.solve(self, t0, y0, *args, **kwargs)
        x0, z0 = y0
        res = rk45.solve(self, t0, [x0, 0.0, z0], *args, **kwargs)
        return replace(res, y=res.y + [0.0, z0])

    def reached(self) -> bool:
        """``solve`` handed over y0 as an array, then every later state in the answer's
        form: an array after a tuple or an array, (x, z) to the core after a pair answer."""
        kinds = {kind for _, kind, _ in self.seen}
        if self.answer is self.PAIR:
            return self.asked == [np.ndarray] and kinds == {"core"}
        return kinds == {np.ndarray}


def every_form(f, dim: int = 2) -> list[Form]:
    """``f`` answering a tuple and an array, and, on two components, the pair answer."""
    return [Form(tuple, f), Form(np.ndarray, f), *[Form(Form.PAIR, f)] * (dim == 2)]


def pair_rhs(kern):
    """The right-hand side that ``integrate_trajectory`` steps for an analytic backend:
    the kernel's pair answer, whatever the state."""
    answer = kern.coefficients, kern.dxi, kern.pz_basis
    return lambda t, y: answer


class DeadlineExceeded(Exception):
    """A body ran past its ``deadline``.  Not a TimeoutError: that is an OSError, which
    ``cli.main`` reports as exit 2, so a hang inside ``main`` would read as a refusal."""


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise DeadlineExceeded in the body once it has run ``seconds``, so a hang fails.

    Uses SIGALRM: POSIX only, and pytest must run the test in the main thread.
    """
    def expire(signum, frame):
        raise DeadlineExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
