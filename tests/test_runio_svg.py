"""Run directories, CSV fidelity, manifest reproducibility, SVG determinism."""

import dataclasses
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from bohmsim import svgplot
from bohmsim.integrate import EnsembleSpec, run_ensemble
from bohmsim.runio import (pointer_columns, read_manifest, read_trajectory_csv, write_run,
                           write_trajectory_csv)
from bohmsim.scenario import preset
from bohmsim.svgplot import Curve, render_chart

# doubles whose 17-digit text is easy to get wrong: signed zero, the smallest
# subnormal, a tiny normal, the extremes and a value with no exact binary form
EDGE_VALUES = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]


def csv_oracle(traj, stride=1) -> str:
    """The trajectory CSV as one format call per cell: the reference for the writer."""
    n = traj.n_samples
    rows = [*range(0, n, stride), *([n - 1] if (n - 1) % stride else [])]
    lines = [",".join(["t_prime", "X", "Y",
                       *pointer_columns(traj.backend, traj.params.n_particles),
                       "logOmega", "deltaS"])]
    for i in rows:
        pointer = [traj.sigma_hat[i]] if traj.backend == "reduced" else list(traj.z[i])
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

    # 513 samples: stride 7 leaves the last one off the grid, stride 8 lands on it
    @pytest.mark.parametrize("stride, rows", [(7, [*range(0, 513, 7), 512]),
                                              (8, list(range(0, 513, 8)))])
    def test_stride_keeps_every_kth_row_and_the_last(self, small_run, tmp_path, stride,
                                                     rows):
        sc, trajs, _, _ = small_run
        sc = dataclasses.replace(sc, outputs=dataclasses.replace(sc.outputs, stride=stride))
        manifest = write_run(tmp_path, sc, trajs)
        for rec, traj in zip(manifest["trajectories"], trajs, strict=True):
            assert traj.n_samples == 513
            path = tmp_path / rec["file"]
            assert path.read_text() == csv_oracle(traj, stride)
            cols = read_trajectory_csv(path)
            assert cols["t_prime"].tobytes() == traj.t[rows].tobytes()
            assert cols["X"].tobytes() == traj.x[rows].tobytes()
            assert cols["Z_1"].tobytes() == traj.z[rows, 0].tobytes()
            assert cols["deltaS"].tobytes() == traj.delta_s[rows].tobytes()

    @pytest.mark.parametrize("pointer", ["Z_n", "Sigma_hat"])
    def test_bytes_equal_one_format_call_per_cell(self, small_run, tmp_path, pointer):
        traj = small_run[1][0]
        if pointer == "Z_n":     # three pointer columns, each cycling the edge values
            params = traj.params.with_rigid_pointer(3)
            z = np.resize(EDGE_VALUES, (traj.n_samples, 3))
            traj = with_edge_values(traj, params=params, z=z)
        else:
            traj = with_edge_values(traj, backend="reduced")
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        oracle = csv_oracle(traj)
        assert path.read_text().splitlines() == oracle.splitlines()
        assert path.read_bytes() == oracle.encode()
        cols = read_trajectory_csv(path)   # and back, bit for bit, -0.0 included
        assert cols["X"].tobytes() == traj.x.tobytes()
        assert cols["logOmega"].tobytes() == traj.log_omega.tobytes()
        if pointer == "Z_n":
            assert np.column_stack([cols[f"Z_{j}"] for j in (1, 2, 3)]).tobytes() == \
                traj.z.tobytes()
        else:
            assert cols["Sigma_hat"].tobytes() == traj.sigma_hat.tobytes()


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

    def test_reproducible_bytes_excluding_timing(self, small_run, tmp_path):
        sc, _, out, _ = small_run
        trajs = run_ensemble(sc.ensemble, sc.params, sc.integrator)
        write_run(tmp_path, sc, trajs, timing={"total_s": 123.0})
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
