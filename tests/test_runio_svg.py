"""Run directories, CSV fidelity, manifest reproducibility, SVG determinism."""

import dataclasses
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from bohmsim import runio, svgplot
from bohmsim.analysis import classify_ensemble
from bohmsim.integrate import EnsembleSpec, run_ensemble
from bohmsim.runio import read_manifest, read_trajectory_csv, write_run, write_trajectory_csv
from bohmsim.scenario import load_scenario, preset
from bohmsim.svgplot import Curve, render_chart

# doubles whose 17-digit text is easy to get wrong: signed zero, the smallest
# subnormal, a tiny normal, the extremes and a value with no exact binary form
EDGE_VALUES = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]


def csv_oracle(traj) -> str:
    """The trajectory CSV as one format call per cell: the reference for the writer."""
    reduced = traj.backend == "reduced"
    names = ["Sigma_hat"] if reduced else [f"Z_{j + 1}" for j in range(traj.params.n_particles)]
    lines = [",".join(["t_prime", "X", "Y", *names, "logOmega", "deltaS"])]
    for i in range(traj.n_samples):
        pointer = [traj.sigma_hat[i]] if reduced else list(traj.z[i])
        cells = [traj.t[i], traj.x[i], traj.y[i], *pointer, traj.log_omega[i],
                 traj.delta_s[i]]
        lines.append(",".join(f"{float(v):.17g}" for v in cells))
    return "\n".join(lines) + "\n"


def with_edge_values(traj, **fields):
    """``traj`` with every sample column cycling through EDGE_VALUES."""
    def edge(shape, shift):
        return np.resize(np.roll(EDGE_VALUES, shift), shape)
    n = traj.n_samples
    return dataclasses.replace(
        traj, x=edge(n, 1), y=edge(n, 2), sigma_hat=edge(n, 3), log_omega=edge(n, 4),
        delta_s=edge(n, 5), **fields)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    sc = preset("fig4")
    sc = type(sc)(sc.name, sc.params,
                  EnsembleSpec(count_per_slit=2, z_init=sc.ensemble.z_init,
                               backend="full-analytic"),
                  sc.integrator)
    trajs = run_ensemble(sc.ensemble, sc.params, sc.integrator)
    out = tmp_path_factory.mktemp("run")
    manifest = write_run(out, sc, trajs, classify_ensemble(trajs))
    return sc, trajs, out, manifest


class TestCsv:
    def test_full_double_precision_round_trip(self, small_run):
        _, trajs, out, manifest = small_run
        path = out / manifest["trajectories"][0]["file"]
        assert path.read_text().partition("\n")[0].split(",") == manifest["columns"]
        cols = read_trajectory_csv(path, manifest["columns"])
        traj = trajs[0]
        assert np.array_equal(cols["t_prime"], traj.t)
        assert np.array_equal(cols["X"], traj.x)
        assert np.array_equal(cols["Y"], traj.y)
        assert np.array_equal(cols["Z_1"], traj.z[:, 0])
        assert np.array_equal(cols["logOmega"], traj.log_omega)
        assert np.array_equal(cols["deltaS"], traj.delta_s)

    def test_reduced_backend_writes_sigma_hat(self, tmp_path):
        sc = preset("fig9")
        sc = type(sc)(sc.name, sc.params,
                      EnsembleSpec(count_per_slit=1, z_init=sc.ensemble.z_init,
                                   backend="reduced"),
                      sc.integrator)
        trajs = run_ensemble(sc.ensemble, sc.params, sc.integrator)
        manifest = write_run(tmp_path, sc, trajs, classify_ensemble(trajs))
        assert "Sigma_hat" in manifest["columns"]
        path = tmp_path / "traj_000.csv"
        assert path.read_text().partition("\n")[0].split(",") == manifest["columns"]
        cols = read_trajectory_csv(path, ["Sigma_hat"])
        assert np.array_equal(cols["Sigma_hat"], trajs[0].sigma_hat)

    @pytest.mark.parametrize("n_z, n_rows", [
        (3, None), (0, None),
        (6, None),                   # 11 cells a row: whole blocks of rows, then a remainder
        (runio._BLOCK_CELLS, 2),     # each row wider than a block's cell budget
    ], ids=["Z_n", "Sigma_hat", "blocks-and-a-remainder", "rows-wider-than-a-block"])
    def test_bytes_equal_one_format_call_per_cell(self, small_run, tmp_path, n_z, n_rows):
        traj = small_run[1][0]
        if n_rows is not None:
            traj = dataclasses.replace(traj, t=traj.t[:n_rows])
        if n_z:     # n_z pointer columns, each cycling the edge values
            params = traj.params.with_rigid_pointer(n_z)
            z = np.resize(EDGE_VALUES, (traj.n_samples, n_z))
            traj = with_edge_values(traj, params=params, z=z)
            rows_per_block = runio._BLOCK_CELLS // (n_z + 5)
            if n_rows is None:   # whole blocks, then a remainder
                assert traj.n_samples > rows_per_block and traj.n_samples % rows_per_block
            else:                # a row holds more cells than a block
                assert rows_per_block == 0
        else:
            traj = with_edge_values(traj, backend="reduced")
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        oracle = csv_oracle(traj)
        assert path.read_text().splitlines() == oracle.splitlines()
        assert path.read_bytes() == oracle.encode()
        # and back, bit for bit, -0.0 included
        pointer = [f"Z_{j + 1}" for j in range(n_z)] if n_z else ["Sigma_hat"]
        cols = read_trajectory_csv(path, ["t_prime", "X", "Y", *pointer, "logOmega"])
        assert cols["t_prime"].tobytes() == traj.t.tobytes()
        assert cols["X"].tobytes() == traj.x.tobytes()
        assert cols["logOmega"].tobytes() == traj.log_omega.tobytes()
        if n_z:
            assert np.column_stack([cols[c] for c in pointer]).tobytes() == traj.z.tobytes()
        else:
            assert cols["Sigma_hat"].tobytes() == traj.sigma_hat.tobytes()


class TestManifest:
    def test_contents(self, small_run):
        sc, trajs, out, manifest = small_run
        loaded = read_manifest(out)
        assert loaded == json.loads(json.dumps(manifest))  # written = returned
        assert loaded["n_trajectories"] == 4
        # the scenario's one copy is scenario.json; the manifest only names it
        assert loaded["name"] == sc.name and "scenario" not in loaded
        assert sorted(p.name for p in out.glob("*.json")) == ["manifest.json", "scenario.json"]
        assert load_scenario(out / "scenario.json") == sc
        assert loaded["backend"] == "full-analytic"
        assert loaded["t_cross"] == pytest.approx(3.0)
        assert loaded["fast_pointer_E"] == pytest.approx(0.12)
        cls = loaded["classification"]
        assert 0.0 <= cls["bounce_fraction"] <= 1.0
        assert cls["bounce_fraction"] + cls["crossing_fraction"] == pytest.approx(1.0)
        assert set(loaded["timing"]) == {"write_s"} and loaded["timing"]["write_s"] >= 0

    def test_solver_health_per_trajectory(self, small_run):
        _, trajs, out, _ = small_run
        records = read_manifest(out)["trajectories"]
        for rec, traj in zip(records, trajs, strict=True):
            s = traj.stats
            assert (rec["steps"], rec["rejected"], rec["node_backoffs"]) == \
                   (s.n_steps, s.n_rejected, s.n_node_backoffs)
            assert (rec["rhs_evals"], rec["capped_steps"]) == (s.n_rhs_evals, s.n_capped)
            assert 0 < rec["capped_steps"] <= rec["steps"]
            assert (rec["h_min"], rec["h_max"]) == (s.h_min, s.h_max)
            assert 0 < rec["h_min"] <= rec["h_max"]
            assert rec["x_margin"] == float(np.min(np.abs(traj.x)))

    def test_x_margin_is_the_closest_approach_to_the_plane(self, preset_runs):
        # fig2 (uncoupled): every trajectory bounces, the closest at 0.020 from X' = 0
        records = read_manifest(preset_runs / "fig2")["trajectories"]
        for rec in records:
            x = read_trajectory_csv(preset_runs / "fig2" / rec["file"], ["X"])["X"]
            assert rec["x_margin"] == float(np.min(np.abs(x)))
            assert rec["crossed_plane"] is False
        assert round(min(rec["x_margin"] for rec in records), 3) == 0.020

    def test_reproducible_bytes_excluding_timing(self, small_run, tmp_path):
        sc, _, out, _ = small_run
        trajs = run_ensemble(sc.ensemble, sc.params, sc.integrator)
        write_run(tmp_path, sc, trajs, classify_ensemble(trajs), timing={"total_s": 123.0})
        for f in sorted(out.glob("traj_*.csv")):
            assert (tmp_path / f.name).read_bytes() == f.read_bytes()
        a = json.loads((out / "manifest.json").read_text())
        b = json.loads((tmp_path / "manifest.json").read_text())
        assert set(b.pop("timing")) == {"total_s", "write_s"}
        a.pop("timing")
        assert a == b

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_manifest(tmp_path)


class TestSvg:
    def test_deterministic_bytes(self):
        x = np.linspace(0.0, 7.5, 40)
        curves = [Curve(x, np.sin(x), "upper"), Curve(x, -np.sin(x), "lower")]
        a = render_chart(curves, "panel", "Y'", "X'")
        b = render_chart(curves, "panel", "Y'", "X'")
        assert a == b

    def test_valid_xml_with_styles(self):
        x = np.linspace(0.0, 1.0, 5)
        svg = render_chart([Curve(x, x, "upper"), Curve(x, 1 - x, "lower")],
                           "t", "a", "b")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        lines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(lines) == 2
        assert lines[0].get("stroke") == "#1f4e9c"
        assert lines[0].get("stroke-dasharray") is None
        assert lines[1].get("stroke") == "#c0392b"
        assert lines[1].get("stroke-dasharray") == "6 4"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_chart([], "t", "a", "b")

    def test_polylines_equal_one_format_call_per_point(self):
        rng = np.random.default_rng(20261018)
        curves = [Curve(rng.uniform(-3.0, 9.0, 600), rng.normal(0.0, 1e3, 600), "upper"),
                  Curve(rng.uniform(-1e-9, 1e-9, 400), rng.uniform(-1.0, 1.0, 400), "lower"),
                  Curve(np.array([-0.0, 0.0, 1.0]), np.array([0.0, -0.0, 2.5]), "gray")]
        svg = render_chart(curves, "t", "a", "b")
        lines = [el.get("points") for el in ET.fromstring(svg).iter()
                 if el.tag.endswith("polyline")]
        assert lines == polyline_oracle(curves)


def polyline_oracle(curves) -> list[str]:
    """Polyline points as render_chart once formatted them, one point at a time."""
    xlo = min(float(np.min(c.x)) for c in curves)
    xhi = max(float(np.max(c.x)) for c in curves)
    ylo = min(float(np.min(c.y)) for c in curves)
    yhi = max(float(np.max(c.y)) for c in curves)
    xpad, ypad = 0.04 * (xhi - xlo), 0.06 * (yhi - ylo)
    xlo, xhi, ylo, yhi = xlo - xpad, xhi + xpad, ylo - ypad, yhi + ypad
    pw = svgplot._W - svgplot._ML - svgplot._MR
    ph = svgplot._H - svgplot._MT - svgplot._MB

    def px(v: float) -> float:
        return svgplot._ML + (v - xlo) / (xhi - xlo) * pw

    def py(v: float) -> float:
        return svgplot._MT + (yhi - v) / (yhi - ylo) * ph

    return [" ".join(f"{px(float(a)):.2f},{py(float(b)):.2f}" for a, b in zip(c.x, c.y))
            for c in curves]
