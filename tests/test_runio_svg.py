"""Run directories, CSV fidelity, manifest reproducibility, SVG determinism."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from bohmsim.integrate import EnsembleSpec, run_ensemble
from bohmsim.runio import read_manifest, read_trajectory_csv, write_run
from bohmsim.scenario import preset
from bohmsim.svgplot import Curve, render_chart


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    sc = preset("fig4")
    sc = type(sc)(sc.name, sc.params,
                  EnsembleSpec(count_per_slit=2, z_init=sc.ensemble.z_init,
                               backend="full-analytic"),
                  sc.integrator, sc.outputs)
    trajs = run_ensemble(sc.ensemble, sc.params, sc.integrator)
    out = tmp_path_factory.mktemp("run")
    manifest = write_run(out, sc, trajs)
    return sc, trajs, out, manifest


class TestCsv:
    def test_full_double_precision_round_trip(self, small_run):
        _, trajs, out, manifest = small_run
        cols = read_trajectory_csv(out / manifest["trajectories"][0]["file"])
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
                      sc.integrator, sc.outputs)
        trajs = run_ensemble(sc.ensemble, sc.params, sc.integrator)
        manifest = write_run(tmp_path, sc, trajs)
        assert "Sigma_hat" in manifest["columns"]
        cols = read_trajectory_csv(tmp_path / "traj_000.csv")
        assert np.array_equal(cols["Sigma_hat"], trajs[0].sigma_hat)


class TestManifest:
    def test_contents(self, small_run):
        sc, trajs, out, manifest = small_run
        loaded = read_manifest(out)
        assert loaded == json.loads(json.dumps(manifest))  # written = returned
        assert loaded["n_trajectories"] == 4
        assert loaded["backend"] == "full-analytic"
        assert loaded["t_cross"] == pytest.approx(3.0)
        assert loaded["fast_pointer_E"] == pytest.approx(0.12)
        cls = loaded["classification"]
        assert 0.0 <= cls["bounce_fraction"] <= 1.0
        assert cls["bounce_fraction"] + cls["crossing_fraction"] == pytest.approx(1.0)

    def test_solver_health_per_trajectory(self, small_run):
        _, trajs, out, _ = small_run
        records = read_manifest(out)["trajectories"]
        for rec, traj in zip(records, trajs, strict=True):
            s = traj.stats
            assert (rec["steps"], rec["rejected"], rec["node_backoffs"]) == \
                   (s.n_steps, s.n_rejected, s.n_node_backoffs)
            assert (rec["rhs_evals"], rec["capped_steps"]) == (s.n_rhs_evals, s.n_capped)
            assert 0 < rec["capped_steps"] <= rec["steps"]

    def test_reproducible_bytes_excluding_timing(self, small_run, tmp_path):
        sc, _, out, _ = small_run
        trajs = run_ensemble(sc.ensemble, sc.params, sc.integrator)
        write_run(tmp_path, sc, trajs, timing={"total_s": 123.0})
        for f in sorted(out.glob("traj_*.csv")):
            assert (tmp_path / f.name).read_bytes() == f.read_bytes()
        a = json.loads((out / "manifest.json").read_text())
        b = json.loads((tmp_path / "manifest.json").read_text())
        a.pop("timing"), b.pop("timing")
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
