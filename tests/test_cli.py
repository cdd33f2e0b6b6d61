"""Command-line behavior: exit codes, outputs, overrides, validation hooks."""

import json
import math

import numpy as np
import pytest

from bohmsim import cli, runio
from bohmsim._kernel import GuidanceKernel
from bohmsim.cli import main
from bohmsim.integrate import integrate_trajectory, run_ensemble
from bohmsim.model import Configuration, fast_pointer_E
from bohmsim.reduced import sigma_hat_of
from bohmsim.runio import read_manifest, read_trajectory_csv
from bohmsim.scenario import (load_scenario, preset, preset_names, scenario_to_dict,
                              with_n_particles)
from bohmsim.svgplot import Curve, render_chart
from bohmsim.validate import SUITES, check_backend_equivalence
from conftest import deadline


# pointer sizes that parse but fail at once: 10**12 pairs at malloc, 10**23 in the
# conversion to an index; never a size that could really be allocated
OVERSIZED_N = [10**12, 10**23]


def assert_refused_naming(n, capsys, tmp_path):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(n) in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


def trimmed_scenario(tmp_path, name="fig3", count=2, backend=None):
    sc = preset(name)
    data = scenario_to_dict(sc)
    data["ensemble"]["count_per_slit"] = count
    if backend:
        data["ensemble"]["backend"] = backend
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


class TestSimulate:
    def test_preset_run_writes_everything(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--preset", "fig2", "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert manifest["classification"]["crossing_fraction"] == 0.0
        assert manifest["n_trajectories"] == 18
        assert (out / "traj_017.csv").is_file()
        assert load_scenario(out / "scenario.json") == preset("fig2")

    @pytest.mark.parametrize("name", ["fig4", "fig9", "fig12"])
    def test_e_is_the_pointer_sums(self, name, tmp_path, capsys):
        # the pointer sum moves at Xi sqrt(N): E = 0.12, 0.379 and 1.697
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(trimmed_scenario(tmp_path, name, count=1)),
                     "--out", str(out)]) == 0
        params = preset(name).params
        e = read_manifest(out)["fast_pointer_E"]
        assert e == pytest.approx(fast_pointer_E(params) * math.sqrt(params.n_particles),
                                  rel=1e-12)
        assert f"  E={e:g}\n" in capsys.readouterr().out

    def test_scenario_file_and_json_output(self, tmp_path, capsys):
        path = trimmed_scenario(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(path), "--out", str(out), "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["classification"]["crossing_fraction"] == 1.0

    def test_numeric_backend_matches_analytic_classification(self, tmp_path):
        path = trimmed_scenario(tmp_path)
        outs = {}
        for backend in ("full-analytic", "full-numeric"):
            out = tmp_path / backend
            assert main(["simulate", "--scenario", str(path), "--backend", backend,
                         "--out", str(out)]) == 0
            outs[backend] = read_manifest(out)
        a, b = outs["full-analytic"], outs["full-numeric"]
        assert a["classification"] == b["classification"]
        for ra, rb in zip(a["trajectories"], b["trajectories"]):
            assert ra["crossed_plane"] == rb["crossed_plane"]
            assert ra["final_direction"] == rb["final_direction"]

    @pytest.mark.parametrize("backend", ["full-analytic", "full-numeric"])
    def test_launch_on_a_node_is_excluded(self, tmp_path, backend):
        # at d' = 0.8 the middle launch of each slit is X' = +/-0, an exact node: equal
        # branch amplitudes, and delta_S = (Xi+ - Xi-) Z' = pi at Z' = pi/20
        data = scenario_to_dict(preset("fig4"))
        data["params"]["d_prime"] = 0.8
        data["ensemble"].update(count_per_slit=3, backend=backend,
                                z_init={"mode": "common", "value": math.pi / 20})
        path = tmp_path / "node.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
        assert read_manifest(out)["classification"]["excluded"] == 2
        assert main(["plot", str(out)]) == 0

    @pytest.mark.parametrize("backend", ["full-analytic", "full-numeric", "reduced"])
    def test_pointerless_scenario(self, tmp_path, capsys, backend):
        # N = 0, the bare two-slit: the full backends run it, the reduced one refuses it
        data = scenario_to_dict(preset("fig2"))
        data["params"]["pointer_groups"] = []
        data["ensemble"]["backend"] = backend
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "run"
        code = main(["simulate", "--scenario", str(path), "--out", str(out)])
        if backend == "reduced":
            assert code == 2 and not out.exists()
            assert "Traceback" not in capsys.readouterr().err
        else:
            assert code == 0
            assert read_manifest(out)["n_trajectories"] == 18
            assert len(list(out.glob("traj_*.csv"))) == 18

    @pytest.mark.parametrize("key, value, code", [
        ("xi_x", 1e200, 3), ("xi_y", 1e-200, 3), ("mu", 1e150, 3),    # slope norm overflows
        ("r", 1e-200, 2), ("r", 1e200, 2), ("R", 1e200, 2),           # a scale over/underflows
        ("d_prime", 1e308, 2), ("d_prime", 5e-324, 2),    # the horizon or its stride does
        ("mu", 1e200, 2)])                                # a_z t_end = 1.5e200 >= 2^511
    def test_extreme_parameter_exits_cleanly(self, tmp_path, capsys, key, value, code):
        # positive and finite, but a derived scale, the horizon or the first slope is not
        self.assert_extreme_exits_cleanly(tmp_path, capsys, {key: value}, "full-analytic", code)

    @pytest.mark.parametrize("name", ["fig4", "fig7"])
    @pytest.mark.parametrize("key", ["xi_x", "xi_y", "r", "R", "mu", "d_prime"])
    @pytest.mark.parametrize("value", [1e-300, 1e-200, 1e200, 1e300])
    def test_far_parameter_ends_in_seconds(self, tmp_path, capsys, name, key, value):
        # every accepted input ends: a complete run, a refusal or an abort, never a spent
        # step budget.  A horizon of 2^512 used to take steps below its float spacing
        data = scenario_to_dict(preset(name))
        data["ensemble"]["count_per_slit"] = 1
        data["params"][key] = value
        for backend in ("full-analytic", "full-numeric", "reduced"):
            data["ensemble"]["backend"] = backend
            path = tmp_path / f"{backend}.json"
            path.write_text(json.dumps(data))
            with deadline(5):
                code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / backend)])
            assert code in (0, 2, 3), backend
            assert "Traceback" not in capsys.readouterr().err

    # exit codes on (full-analytic, full-numeric, reduced): a large Xi makes fig4's first
    # slope overflow (3) and the FD stencil refuse it (2); fig7's two one-particle pointers
    # give a kernel term that is not finite (2) and have no reduced twin (2)
    @pytest.mark.parametrize("name, scale, codes", [
        pytest.param(name, scale, codes, id=f"{name}-{scale:g}")
        for name, small, large in (("fig4", (0, 0, 0), (3, 2, 3)), ("fig7", (0, 0, 2), (2, 2, 2)))
        for scale, codes in ((1e-300, small), (1e-200, small), (1e200, large), (1e300, large))])
    def test_far_pointer_ends_in_seconds(self, tmp_path, capsys, name, scale, codes):
        # every Xi of the pointer scaled at once: a complete run, a refusal or an abort
        data = scenario_to_dict(preset(name))
        data["ensemble"]["count_per_slit"] = 1
        groups = data["params"]["pointer_groups"]
        data["params"]["pointer_groups"] = [[count, xi_p * scale, xi_m * scale]
                                            for count, xi_p, xi_m in groups]
        for backend, code in zip(("full-analytic", "full-numeric", "reduced"), codes):
            data["ensemble"]["backend"] = backend
            path = tmp_path / f"{backend}.json"
            path.write_text(json.dumps(data))
            with deadline(5):
                assert main(["simulate", "--scenario", str(path),
                             "--out", str(tmp_path / backend)]) == code, backend
            assert "Traceback" not in capsys.readouterr().err
            assert (tmp_path / backend).exists() == (code == 0)

    def test_horizon_the_kernel_cannot_square_exits_2(self, tmp_path, capsys):
        # t_end = 7.5e-10 but a_x t_end = 5 d'/xi_x = 1.5e161, above 2^511 = 6.7e153
        self.assert_extreme_exits_cleanly(tmp_path, capsys, {"xi_x": 1e-160, "xi_y": 1e-170},
                                          "full-analytic", 2)

    @pytest.mark.parametrize("groups, backend, code", [
        ([[1, 1e308, -1e308]], "full-analytic", 2),  # Xi+ - Xi- overflows
        ([[1, 1e308, 0.0]], "full-analytic", 2),     # dG = |gamma+|^2 - |gamma-|^2 overflows
        ([[4, 5e307, -5e307]], "reduced", 2),        # the twin's Xi sqrt(N) doubled overflows
        # every kernel term is finite, but the FD step cannot resolve the phase Xi Z'
        ([[1, 1e200, -1e200]], "full-numeric", 2), ([[1, 1e155, -1e155]], "full-numeric", 2)],
        ids=["dxi", "dg", "twin-dxi", "fd-squares", "fd-noise"])
    def test_extreme_pointer_exits_cleanly(self, tmp_path, capsys, groups, backend, code):
        params = {"pointer_groups": groups}
        self.assert_extreme_exits_cleanly(tmp_path, capsys, params, backend, code)

    def test_non_finite_fd_slope_exits_3(self, tmp_path, capsys):
        # the FD route's squared residuals overflow at Z' = 1e200: the stepper aborts
        z_init = {"mode": "common", "value": 1e200}
        self.assert_extreme_exits_cleanly(tmp_path, capsys, {}, "full-numeric", 3, z_init)

    @staticmethod
    def assert_extreme_exits_cleanly(tmp_path, capsys, params, backend, code, z_init=None):
        data = scenario_to_dict(preset("fig4"))
        data["ensemble"].update(count_per_slit=1, backend=backend)
        if z_init is not None:
            data["ensemble"]["z_init"] = z_init
        data["params"].update(params)
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("integration aborted: " if code == 3 else "error: ")
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["extreme.json"]

    def test_seed_and_n_overrides(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--preset", "fig4", "--n", "10", "--seed", "5",
                     "--out", str(out)]) == 0
        sc = load_scenario(out / "scenario.json")
        assert sc.params.n_particles == 10
        assert sc.ensemble.z_init.mode == "gaussian"
        assert sc.ensemble.z_init.seed == 5

    def test_config_errors_exit_2(self, tmp_path):
        assert main(["simulate", "--scenario", str(tmp_path / "missing.json")]) == 2
        assert main(["simulate", "--preset", "fig7", "--backend", "reduced",
                     "--out", str(tmp_path / "x")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1}')
        assert main(["simulate", "--scenario", str(bad)]) == 2
        both = trimmed_scenario(tmp_path)
        assert main(["simulate", "--preset", "fig2", "--scenario", str(both)]) == 2

    def test_reduced_refusal_names_the_backend(self, tmp_path, capsys):
        # fig7's pointer is not rigid, so it has no one-particle twin
        out = tmp_path / "x"
        assert main(["simulate", "--preset", "fig7", "--backend", "reduced",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ensemble.backend = 'reduced': requires a single rigid "
                              "pointer")
        assert not out.exists()

    def test_name_outside_runs_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "elsewhere"
        data = scenario_to_dict(preset("fig7"))
        data["name"] = str(target)
        path = tmp_path / "abs.json"
        path.write_text(json.dumps(data))
        assert main(["simulate", "--scenario", str(path)]) == 2
        assert not target.exists()
        assert not (tmp_path / "runs").exists()

    def test_out_below_a_regular_file_exits_2_before_integrating(self, tmp_path, monkeypatch,
                                                                  capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")

        def never(*args):
            raise AssertionError("integrated although the output path cannot be made")

        monkeypatch.setattr(cli, "run_ensemble", never)
        assert main(["simulate", "--preset", "fig2", "--out", str(blocker / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(blocker) in err
        assert "Traceback" not in err
        assert blocker.read_text() == "not a directory\n"

    # a grid that parses but cannot be allocated: the request fails at malloc, so no
    # memory is touched
    @pytest.mark.parametrize("block, key, value, size", [
        ("ensemble", "count_per_slit", 10**15, "7.11 PiB"),
    ], ids=["launch-grid"])
    def test_grid_too_large_to_allocate_exits_2_naming_its_size(self, tmp_path, capsys,
                                                                 block, key, value, size):
        data = scenario_to_dict(preset("fig2"))
        data[block][key] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: Unable to allocate {size}")
        assert not out.exists()

    # the reduced twin steps three floats at any N, but a launch still carries the N starts
    @pytest.mark.parametrize("n, backend", [*((n, ()) for n in OVERSIZED_N),
                                            (10**23, ("--backend", "reduced"))],
                             ids=[*map(str, OVERSIZED_N), f"reduced-{10**23}"])
    def test_pointer_too_large_to_allocate_exits_2_naming_n(self, tmp_path, monkeypatch,
                                                            capsys, n, backend):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--preset", "fig4", *backend, "--n", str(n),
                     "--out", "run"]) == 2
        assert_refused_naming(n, capsys, tmp_path)

    def test_run_metadata_does_not_grow_with_n(self, tmp_path):
        # the pointer is one group at any N: the scenario copies differ by the digits of
        # the count and of the common start Sigma_hat'(0)/sqrt(N), and the manifests,
        # timing aside, hold the same keys and list lengths
        files, digits = {}, 0
        for sign, n in ((-1, 10), (1, 100_000)):
            out = tmp_path / str(n)
            assert main(["simulate", "--preset", "fig12", "--n", str(n), "--out", str(out)]) == 0
            manifest = read_manifest(out)
            del manifest["timing"]
            files[n] = (out / "scenario.json").read_bytes(), manifest
            digits += sign * (len(str(n)) + len(repr(load_scenario(out / "scenario.json")
                                                      .ensemble.z_init.value)))

        def layout(value):
            if isinstance(value, dict):
                return {k: layout(v) for k, v in value.items()}
            return [layout(v) for v in value] if isinstance(value, list) else None

        (small, small_manifest), (big, big_manifest) = files[10], files[100_000]
        assert len(big) - len(small) == digits
        assert layout(big_manifest) == layout(small_manifest)
        assert "scenario" not in big_manifest and big_manifest["name"] == "fig12"
        assert (load_scenario(tmp_path / "100000" / "scenario.json").params.pointer_groups
                == ((100_000, 10.0, -10.0),))

    def test_failed_write_leaves_the_previous_run_whole(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--preset", "fig7", "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        write_csv, written = runio.write_trajectory_csv, []

        def failing(path, traj):
            if len(written) == 3:
                raise OSError(28, "No space left on device", str(path))
            written.append(path)
            write_csv(path, traj)

        monkeypatch.setattr(runio, "write_trajectory_csv", failing)
        assert main(["simulate", "--preset", "fig2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out}: ") and "No space left" in err
        assert "Traceback" not in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]   # no staging left

    def test_rerun_replaces_the_whole_run(self, tmp_path, serve_preset_ensembles):
        # fig4 writes 18 CSVs, fig7 two; one stale CSV is made a directory
        out = tmp_path / "run"
        assert main(["simulate", "--preset", "fig4", "--out", str(out)]) == 0
        (out / "traj_003.csv").unlink()
        (out / "traj_003.csv").mkdir()
        assert main(["simulate", "--preset", "fig7", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "scenario.json", "traj_000.csv", "traj_001.csv"]
        assert read_manifest(out)["name"] == "fig7"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]

    @pytest.mark.parametrize("out_name, reason", [
        ("../other", "no manifest.json"),
        (".", "working directory"),
        ("..", "working directory"),
    ], ids=["holds-other-files", "cwd", "holds-cwd"])
    def test_out_that_cannot_take_a_run_exits_2_before_integrating(self, tmp_path, monkeypatch,
                                                                   capsys, out_name, reason):
        (tmp_path / "here").mkdir()
        (tmp_path / "other").mkdir()
        keep = tmp_path / "other" / "notes.txt"
        keep.write_text("user file\n")
        monkeypatch.chdir(tmp_path / "here")

        def never(*args):
            raise AssertionError("integrated although --out cannot take the run")

        monkeypatch.setattr(cli, "run_ensemble", never)
        assert main(["simulate", "--preset", "fig2", "--out", out_name]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out_name}: ") and reason in err
        assert keep.read_text() == "user file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["here", "other"]

    def test_empty_out_directory_takes_the_run(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        assert main(["simulate", "--preset", "fig7", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "scenario.json", "traj_000.csv", "traj_001.csv"]

    def test_reproducible_csv_bytes(self, tmp_path):
        # a rerun of the preset, and a run of the first run's own scenario copy
        a = tmp_path / "a"
        assert main(["simulate", "--preset", "fig4", "--seed", "11", "--out", str(a)]) == 0
        ma = read_manifest(a)
        ma.pop("timing")
        csvs = sorted(p.name for p in a.glob("traj_*.csv"))
        assert csvs
        for again in (["--preset", "fig4", "--seed", "11"],
                      ["--scenario", str(a / "scenario.json")]):
            b = tmp_path / "b"
            assert main(["simulate", *again, "--out", str(b)]) == 0
            assert sorted(p.name for p in b.glob("traj_*.csv")) == csvs
            for name in csvs:
                assert (b / name).read_bytes() == (a / name).read_bytes()
            mb = read_manifest(b)
            mb.pop("timing")
            assert mb == ma


class TestPlot:
    def test_two_panels_for_single_pointer(self, tmp_path, serve_preset_ensembles):
        out = tmp_path / "run"
        main(["simulate", "--preset", "fig4", "--out", str(out)])
        manifest = read_manifest(out)
        assert len(list(out.glob("traj_*.csv"))) == 18
        assert manifest["classification"]["bounce_fraction"] >= 0.7
        assert main(["plot", str(out)]) == 0
        assert (out / "test_particle.svg").is_file()
        assert (out / "pointer.svg").is_file()

    @pytest.mark.parametrize("flags, drawn, panels", [
        (["--preset", "fig4"], ["X", "Y", "Z_1"],
         [("pointer.svg", "Z_1", "pointer", "Z'")]),
        (["--preset", "fig9"], ["X", "Y", "Sigma_hat"],
         [("pointer.svg", "Sigma_hat", "pointer average", "Sigma_hat'")]),
        (["--preset", "fig7"], ["X", "Y", "Z_1", "Z_2"],
         [("pointer_1.svg", "Z_1", "pointer 1", "Z'_1"),
          ("pointer_2.svg", "Z_2", "pointer 2", "Z'_2")]),
        # a rigid pointer's Sigma_hat' panel is summed from all of its Z'_n
        (["--preset", "fig4", "--n", "3", "--backend", "full-analytic"],
         ["X", "Y", "Z_1", "Z_2", "Z_3"],
         [("pointer.svg", None, "pointer average", "Sigma_hat'")]),
    ], ids=["fig4", "fig9", "fig7", "fig4-n3-full-analytic"])
    def test_each_csv_read_once(self, tmp_path, monkeypatch, serve_preset_ensembles,
                                flags, drawn, panels):
        out = tmp_path / "run"
        assert main(["simulate", *flags, "--out", str(out)]) == 0
        manifest = read_manifest(out)
        calls = []

        def counting(path, /, columns):   # the path positional: the benchmark's tracer reads it
            calls.append((path.name, list(columns)))
            return read_trajectory_csv(path, columns)

        monkeypatch.setattr(cli, "read_trajectory_csv", counting)
        assert main(["plot", str(out)]) == 0
        # each CSV parsed once, in exactly the columns drawn
        assert sorted(calls) == [(r["file"], drawn) for r in manifest["trajectories"]]
        # the panels are exactly what the CSVs give when charted one by one
        runs = [(read_trajectory_csv(out / r["file"], manifest["columns"]), r["initial_slit"])
                for r in manifest["trajectories"]]
        name = manifest["name"]
        for svg, col, title, ylabel in [("test_particle.svg", "X", "test particle", "X'"),
                                        *panels]:
            curves = [Curve(cols["Y"], cols[col] if col else
                            sigma_hat_of(np.column_stack([cols[c] for c in drawn[2:]])), slit)
                      for cols, slit in runs]
            expected = render_chart(curves, f"{name}: {title}", "Y'", ylabel).encode()
            assert (out / svg).read_bytes() == expected
        assert sorted(p.name for p in out.glob("*.svg")) == \
            sorted(["test_particle.svg", *(svg for svg, *_ in panels)])

    def test_pointer_panel_draws_the_engines_sigma_hat(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert main(["simulate", "--preset", "fig4", "--n", "20", "--seed", "3",
                     "--out", str(out)]) == 0
        charts = {}

        def capture(curves, title, xlabel, ylabel):
            charts[title] = curves
            return render_chart(curves, title, xlabel, ylabel)

        monkeypatch.setattr(cli, "render_chart", capture)
        assert main(["plot", str(out)]) == 0
        sc = load_scenario(out / "scenario.json")
        engine = run_ensemble(sc.ensemble, sc.params, sc.integrator)
        drawn = charts[f"{sc.name}: pointer average"]
        assert [c.y.tobytes() for c in drawn] == [t.sigma_hat.tobytes() for t in engine]

    def test_three_panels_for_two_pointers(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--preset", "fig7", "--out", str(out)])
        assert main(["plot", str(out)]) == 0
        for name in ("test_particle.svg", "pointer_1.svg", "pointer_2.svg"):
            assert (out / name).is_file()

    def test_mixed_xi_pointer_gets_one_panel_per_particle(self, tmp_path):
        # every pair is (+Xi_n, -Xi_n), but Xi differs between particles: not one
        # rigid pointer, so there is no Sigma_hat' panel
        data = scenario_to_dict(preset("fig4"))
        data["params"]["pointer_groups"] = [[1, 10.0, -10.0], [1, 5.0, -5.0]]
        data["ensemble"]["count_per_slit"] = 1
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
        assert main(["plot", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.svg")) == [
            "pointer_1.svg", "pointer_2.svg", "test_particle.svg"]

    def test_sigma_panel_for_reduced(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--preset", "fig9", "--out", str(out)])
        main(["plot", str(out)])
        assert "Sigma_hat" in (out / "pointer.svg").read_text()

    def test_missing_run_exits_2(self, tmp_path):
        assert main(["plot", str(tmp_path / "nope")]) == 2

    def test_empty_run_exits_2(self, tmp_path):
        from bohmsim.analysis import ClassificationSummary
        from bohmsim.runio import write_run
        write_run(tmp_path, preset("fig4"), [],
                  ClassificationSummary((), 0.0, 0.0, 0.0, 0))
        assert main(["plot", str(tmp_path)]) == 2

    def test_empty_trajectory_csv_exits_2_naming_the_file(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--preset", "fig7", "--out", str(out)]) == 0
        (out / "traj_000.csv").write_text("")
        assert main(["plot", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "traj_000.csv" in err

    @pytest.mark.parametrize("damage", ["header-only", "extra-cell", "short-row",
                                        "missing-column"])
    def test_malformed_trajectory_csv_exits_2_naming_the_file(self, tmp_path, capsys,
                                                              damage):
        out = tmp_path / "run"
        assert main(["simulate", "--preset", "fig7", "--out", str(out)]) == 0
        csv = out / "traj_000.csv"
        header, *rows = csv.read_text().splitlines()
        if damage == "header-only":
            rows = []
        elif damage == "extra-cell":       # every row one cell longer than the header
            rows = [r + ",0" for r in rows]
        elif damage == "short-row":        # one row a cell short
            rows[1] = rows[1].rsplit(",", 1)[0]
        else:                              # a drawn column renamed in the header
            header = header.replace(",Z_2,", ",Q_2,")
        csv.write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        assert main(["plot", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "traj_000.csv" in err
        assert not list(out.glob("*.svg"))


class TestBench:
    def test_table_and_check(self, capsys):
        assert main(["bench", "--n-list", "1,64", "--backends", "reduced",
                     "--repetitions", "1"]) == 0
        out = capsys.readouterr().out
        assert "reduced core max/min ratio" in out
        assert "per RHS" in out.splitlines()[0] and out.count(" us ") == 2

    def test_json_records(self, capsys):
        assert main(["bench", "--n-list", "1,16", "--backends", "reduced",
                     "--repetitions", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 2
        assert payload["reduced_core_ratio"] > 0

    def test_zero_repetitions_exit_2(self):
        assert main(["bench", "--repetitions", "0"]) == 2

    def test_unknown_backend_exit_2(self):
        assert main(["bench", "--backends", "quantum-leap"]) == 2

    def test_empty_backend_list_exit_2(self, capsys):
        assert main(["bench", "--backends", ",", "--n-list", "1"]) == 2
        assert "backend" in capsys.readouterr().err

    @pytest.mark.parametrize("backend, n_list", [("full-analytic", (1, 4)),
                                                 ("reduced", (4, 10_000))])
    def test_steps_are_those_of_fig3_at_n(self, capsys, backend, n_list):
        # the bench scenario is preset fig3 with its pointer resized to N,
        # launched from the upper slit centre with every Z'_n = 0
        assert main(["bench", "--json", "--backends", backend, "--repetitions", "1",
                     "--n-list", ",".join(map(str, n_list))]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        for record, n in zip(records, n_list, strict=True):
            sc = with_n_particles(preset("fig3"), n)
            init = Configuration(0.0, sc.params.d_prime, 0.0, (0.0,) * n)
            traj = integrate_trajectory(init, sc.params, sc.integrator, backend)
            assert (record["backend"], record["n_particles"], record["steps"]) == \
                (backend, n, traj.stats.n_steps)
            assert record["rhs_evals"] == traj.stats.n_rhs_evals

    @pytest.mark.parametrize("n", OVERSIZED_N)
    def test_pointer_too_large_to_allocate_exits_2_naming_n(self, tmp_path, monkeypatch,
                                                            capsys, n):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--n-list", str(n)]) == 2
        assert_refused_naming(n, capsys, tmp_path)

    def test_macroscopic_reduced_bench(self, capsys):
        # a pointer of 10**23 particles is stated in O(1), and its twin steps in O(1)
        assert main(["bench", "--backends", "reduced", "--n-list", f"1,{10**23}",
                     "--repetitions", "1", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert [r["n_particles"] for r in records] == [1, 10**23]
        assert all(r["steps"] > 0 for r in records)

    def test_non_integer_n_list_names_the_flag(self, capsys):
        assert main(["bench", "--n-list", "1,x"]) == 2
        err = capsys.readouterr().err
        assert "--n-list" in err and "'x'" in err


class TestValidate:
    # the real suites run in the acceptance gate and tests/test_validate.py
    def test_single_suite(self, capsys, monkeypatch):
        monkeypatch.setitem(SUITES, "tau-scaling", lambda: (True, "fitted exponent stub"))
        assert main(["validate", "--only", "tau-scaling"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] tau-scaling" in out

    def test_failing_suite_exit_1(self, capsys, monkeypatch):
        for name in list(SUITES):
            monkeypatch.setitem(SUITES, name, lambda: (True, "stub"))
        monkeypatch.setitem(SUITES, "y-oracle", lambda: (False, "stub defect"))
        assert main(["validate"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines].count("[PASS]") == len(SUITES) - 1
        assert any(line.startswith("[FAIL] y-oracle") and "stub defect" in line
                   for line in lines)

    def test_unknown_suite_exit_2(self):
        assert main(["validate", "--only", "vibes"]) == 2

    def test_injected_sign_error_detected(self, monkeypatch):
        # backend-equivalence must notice a corrupted analytic route
        velocity = GuidanceKernel.velocity

        def flipped(kern, t, state):
            v = np.array(velocity(kern, t, state))
            v[2:] *= -1.0  # the pointer moves the wrong way
            return v

        monkeypatch.setattr(GuidanceKernel, "velocity", flipped)
        ok, detail = check_backend_equivalence()
        assert not ok
        assert "over 3000 configurations, 0 raised NodeError" in detail


def fuzz_scenarios(count=30, seed=20261018):
    """Scenario dicts drawn from one seeded generator.

    Single-pointer runs at N = 1, 3 or 50 on full-analytic or reduced, and
    two-pointer runs; one launch point per slit and a gaussian pointer draw.
    A launch-grid half-width and a horizon are still drawn, and not written,
    so that every other draw keeps the seed's sequence.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        data = scenario_to_dict(preset("fig4"))
        data["name"] = f"fuzz{i}"
        p = data["params"]
        p.update(xi_x=rng.uniform(2.0, 20.0), xi_y=rng.uniform(2.0, 20.0),
                 r=rng.uniform(0.5, 2.0), R=rng.uniform(0.1, 1.5),
                 mu=rng.uniform(0.2, 2.0), d_prime=rng.uniform(1.0, 4.0))
        xi = float(rng.uniform(0.0, 20.0))
        if rng.random() < 0.25:
            groups, backend = [[1, xi, 0.0], [1, 0.0, xi]], "full-analytic"
        else:
            groups = [[int(rng.choice([1, 3, 50])), xi, -xi]]
            backend = str(rng.choice(["full-analytic", "reduced"]))
        p["pointer_groups"] = groups
        rng.uniform(0.0, 1.5)   # the retired ensemble.extent
        data["ensemble"].update(count_per_slit=1,
                                z_init={"mode": "gaussian", "seed": int(rng.integers(1000))},
                                backend=backend)
        rng.uniform(0.8, 3.0)   # the retired integrator.t_end, in units of t'_cross
        out.append(data)
    return out


@pytest.mark.parametrize("data", fuzz_scenarios(), ids=lambda d: d["name"])
def test_fuzzed_scenario_runs_whole_or_writes_nothing(tmp_path, data, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "run"
    rc = main(["simulate", "--scenario", str(path), "--out", str(out)])
    if rc == 0:
        manifest = read_manifest(out)
        assert manifest["n_trajectories"] == 2
        assert all((out / r["file"]).is_file() for r in manifest["trajectories"])
    else:
        assert rc in (2, 3), capsys.readouterr().err
        assert not out.exists()


_DROP = object()


def _key_paths(block, prefix=()):
    for key, value in block.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _get(data, path):
    for key in path:
        data = data[key]
    return data


def _set(path, value):
    """A mutation that sets the key at ``path`` to ``value``, or deletes it for _DROP.

    A retired key is not in the file: dropping it changes nothing, and setting
    it puts it back, together with its retired block.
    """
    def mutate(data):
        parent = data
        for key in path[:-1]:
            if value is _DROP and key not in parent:
                return
            parent = parent.setdefault(key, {})
        if value is _DROP:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = value
    return mutate


def _walked(name):
    """The preset's scenario dict with the retired keys back in their old places:
    ``integrator.abs_tol`` and ``integrator.max_step_frac`` after ``rel_tol``, where
    every version-4 file held them, then ``integrator.t_end`` and ``integrator.stride``,
    and ``ensemble.extent`` after ``count_per_slit``, where every version-5 file held
    them, ``integrator.node_eps`` where every version-2 file held it, the
    ``outputs`` block where every version-3 file held it, and ``params.n_particles``
    after the pointer, where every version-6 file held it.  The version-6 pointer
    key is walked under its version-7 name, ``params.pointer_groups``."""
    data = scenario_to_dict(preset(name))
    data["params"]["n_particles"] = preset(name).params.n_particles
    ensemble = data["ensemble"]
    data["ensemble"] = {"count_per_slit": ensemble.pop("count_per_slit"), **V5_ENSEMBLE,
                        **ensemble}
    data["integrator"] = {**data["integrator"], **V4_INTEGRATOR, **V5_INTEGRATOR,
                          "node_eps": 1e-13}
    data["outputs"] = dict(V3_OUTPUTS)
    return data


def _wrong_type(value):
    if isinstance(value, (bool, int, float)) or value is None:
        return str(value)
    return [] if isinstance(value, dict) else 5


def file_mutations(seed=20261018):
    """(preset, mutation, must_refuse) for every key of the preset scenario files.

    Each key is taken from one preset that has it, chosen by a seeded
    generator. It is dropped, nulled and given a wrong JSON type; number
    fields also get NaN and +/-Infinity. Wrong types and non-finite numbers
    must be refused; a dropped or nulled key may fall back to its default.
    The walk also visits the retired keys of ``_walked`` in their old
    places, so every other key keeps its preset: set to any value, null
    included, a retired key is refused as unknown, and dropped, the file is
    a current one.
    """
    rng = np.random.default_rng(seed)
    owners: dict[tuple, list[str]] = {}
    for name in preset_names():
        for path in _key_paths(_walked(name)):
            owners.setdefault(path, []).append(name)
    cases = []
    for path, names in owners.items():
        name = str(rng.choice(names))
        value = _get(_walked(name), path)
        retired = path not in set(_key_paths(scenario_to_dict(preset(name))))
        label = f"{name}:{'.'.join(path)}"
        cases += [pytest.param(name, _set(path, _DROP), False, id=f"{label}=drop"),
                  pytest.param(name, _set(path, None), retired, id=f"{label}=null"),
                  pytest.param(name, _set(path, _wrong_type(value)), True,
                               id=f"{label}=wrong-type")]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            cases += [pytest.param(name, _set(path, v), True, id=f"{label}={v}")
                      for v in (math.nan, math.inf, -math.inf)]
    return cases


V1_OUTPUTS = {"formats": ["csv", "json"], "path": None, "stride": 1}
V3_OUTPUTS = {"svg": False, "stride": 1}
V4_INTEGRATOR = {"abs_tol": 1e-10, "max_step_frac": 0.02}
V5_INTEGRATOR = {"t_end": None, "stride": None}
V5_ENSEMBLE = {"extent": 0.8}
# files that once gave a traceback, hung, or ran with a setting silently changed
REPROS = [
    ("ensemble-null", "fig4", _set(("ensemble",), None)),
    ("outputs-list", "fig4", _set(("outputs",), [])),
    ("formats-5", "fig4", _set(("outputs", "formats"), 5)),
    ("formats-svg-only", "fig4", _set(("outputs", "formats"), ["svg"])),
    ("rel_tol-nan", "fig4", _set(("integrator", "rel_tol"), math.nan)),
    ("max_step_frac-nan", "fig4", _set(("integrator", "max_step_frac"), math.nan)),
    ("node_eps-nan", "fig4", _set(("integrator", "node_eps"), math.nan)),
    ("name-null", "fig4", _set(("name",), None)),
    ("count_per_slit-2.7", "fig4", _set(("ensemble", "count_per_slit"), 2.7)),
    ("seed-1.5", "fig4", _set(("ensemble", "z_init"), {"mode": "gaussian", "seed": 1.5})),
    ("explicit-too-short", "fig7", _set(("ensemble", "z_init", "values"), [0.01])),
    ("schema-1", "fig4", lambda d: d.update(schema_version=1, outputs=V1_OUTPUTS)),
    ("schema-3", "fig4", lambda d: d.update(schema_version=3, outputs=V3_OUTPUTS)),
]


@pytest.mark.parametrize(
    "name, mutate, must_refuse",
    [pytest.param(n, m, True, id=i) for i, n, m in REPROS] + file_mutations())
def test_malformed_scenario_file_runs_whole_or_exits_2(tmp_path, capsys, name, mutate,
                                                       must_refuse):
    data = scenario_to_dict(preset(name))
    data["ensemble"]["count_per_slit"] = 1      # keeps the runs that go through short
    mutate(data)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "run"
    with deadline(60):
        rc = main(["simulate", "--scenario", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    if rc == 0 and not must_refuse:
        manifest = read_manifest(out)
        assert all((out / r["file"]).is_file() for r in manifest["trajectories"])
    else:
        assert rc == 2, err
        assert err.startswith("error: ")
        assert not out.exists()
