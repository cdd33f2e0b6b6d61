"""Each benchmark check passes on the program's output and fails on a wrong one.

Run from the repository root:

    python3 -m pytest perfbench/test_checks.py -q
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from bohmsim.analysis import classify_ensemble  # noqa: E402
from bohmsim.integrate import integrate_trajectory, sample_initials  # noqa: E402
from bohmsim.model import Configuration  # noqa: E402
from bohmsim.scenario import preset, with_n_particles  # noqa: E402
from bohmsim.svgplot import Curve, render_chart  # noqa: E402
from bohmsim.validate import random_configurations  # noqa: E402
from bohmsim.velocity import velocity_analytic, velocity_numeric  # noqa: E402
from bohmsim.runio import write_run  # noqa: E402
from workloads import _csv_columns  # noqa: E402


def fig4_params(n: int):
    return with_n_particles(preset("fig4"), n).params


@pytest.fixture(scope="module")
def fig3_pair():
    sc = preset("fig3")
    inits = sample_initials(sc.ensemble, sc.params)
    k = sc.ensemble.count_per_slit
    return sc, [integrate_trajectory(inits[i], sc.params) for i in (0, k)]


def test_y_closed_form_catches_a_shift_of_1e_6(fig3_pair):
    sc, (traj, _) = fig3_pair
    xi_y = sc.params.xi_y
    assert checks.y_closed_form(traj.t, traj.y, traj.initial.y, xi_y, "ok") == []
    assert checks.y_closed_form(traj.t, traj.y + 1e-6, traj.initial.y, xi_y, "shifted")


def test_mirror_pair_catches_a_broken_reflection(fig3_pair):
    sc, (up, lo) = fig3_pair
    rel_tol = sc.integrator.rel_tol
    assert checks.mirror_pair(vars(up), vars(lo), rel_tol, "ok") == []
    bent = dict(vars(lo), x=lo.x + 1e-6)
    assert checks.mirror_pair(vars(up), bent, rel_tol, "bent")


def test_crossed_reads_sign_changes():
    assert checks.crossed(np.array([1.0, 0.5, -0.2]))
    assert checks.crossed(np.array([1.0, 0.0, 0.3]))
    assert not checks.crossed(np.array([1.0, 0.2, 0.4]))


def test_csv_roundtrip_catches_a_flipped_bit(tmp_path, fig3_pair):
    sc, trajs = fig3_pair
    write_run(tmp_path, sc, trajs, classify_ensemble(trajs))
    path = tmp_path / "traj_000.csv"
    cols = _csv_columns(trajs[0])
    assert checks.csv_roundtrip(path, cols) == []

    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    bits = np.array([float(cells[1])]).view(np.uint64) ^ np.uint64(1)
    cells[1] = f"{float(bits.view(np.float64)[0]):.17g}"
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert checks.csv_roundtrip(path, cols)


def test_svg_curves_counts_polylines_and_rejects_broken_xml(tmp_path):
    t = np.linspace(0.0, 1.0, 5)
    path = tmp_path / "chart.svg"
    path.write_text(render_chart([Curve(t, t), Curve(t, -t, "lower")], "two", "x", "y"))
    assert checks.svg_curves(path, 2) == []
    assert checks.svg_curves(path, 3)
    path.write_text(path.read_text()[:-20])
    assert checks.svg_curves(path, 2)


def test_born_mixture_matches_the_quoted_variance():
    (m, v), _ = checks.born_mixture(7.5, fig4_params(1))
    assert m * m + v == pytest.approx(21.0625)


def _born_samples(sigma: float):
    samples = []
    for n in (1, 10, 100, 1000):
        params = fig4_params(n)
        starts = inputs.born_starts(11, n, 16, params.d_prime, sigma=sigma)
        xs = np.array([x0 for x0, _, _ in starts])
        sig = np.array([z0.sum() / math.sqrt(n) for _, _, z0 in starts])
        samples.append((params, 0.0, xs, sig))
    return samples


def test_born_moments_catch_starts_drawn_with_sigma_1():
    assert checks.born_moments(_born_samples(inputs.BORN_SIGMA), "ok") == []
    assert checks.born_moments(_born_samples(1.0), "sigma 1")


def test_closure_and_reconstruction_catch_a_moved_pointer():
    params = fig4_params(10)
    z0 = tuple(inputs.pointer_draws(3, 10, 1)[0])
    red = integrate_trajectory(Configuration(0.0, 3.1, 0.0, z0), params, backend="reduced")
    assert checks.closure(red.z, red.sigma_hat, "ok") == []
    moved = red.z.copy()
    moved[:, 0] += 1e-9
    assert checks.closure(moved, red.sigma_hat, "moved")
    assert checks.max_gap(red.z, moved, 1e-12, "moved")
    assert checks.max_gap(red.z, red.z, 0.0, "same") == []


def test_backend_agreement_catches_an_x_shift_of_2e_5():
    params = fig4_params(4)
    init = Configuration(0.0, -3.0, 0.0, tuple(inputs.pointer_draws(3, 4, 1)[0]))
    full = integrate_trajectory(init, params, backend="full-analytic")
    red = integrate_trajectory(init, params, backend="reduced")
    assert checks.backend_agreement(full, red, "ok") == []
    assert checks.backend_agreement(replace(full, x=full.x + 2e-5), red, "shifted")


def test_velocity_agreement_catches_an_analytic_error_of_1e_5():
    params = preset("fig4").params
    configs = random_configurations(params, 5, inputs.oracle_rng(5, 0))
    va = np.concatenate([velocity_analytic(c, params).as_array() for c in configs])
    vn = np.concatenate([velocity_numeric(c, params).as_array() for c in configs])
    assert checks.velocity_agreement(va, vn, "ok") == []
    assert checks.velocity_agreement(va + 1e-5, vn, "perturbed")
