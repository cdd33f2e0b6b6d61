"""Command-line behavior: exit codes, outputs, overrides, validation hooks."""

import json
import math

import numpy as np
import pytest

from bohmsim import cli
from bohmsim._kernel import GuidanceKernel
from bohmsim.cli import main
from bohmsim.integrate import integrate_trajectory
from bohmsim.model import Configuration
from bohmsim.runio import read_manifest, read_trajectory_csv
from bohmsim.scenario import (load_scenario, preset, preset_names, scenario_to_dict,
                              with_n_particles)
from bohmsim.svgplot import Curve, render_chart
from bohmsim.validate import SUITES, check_backend_equivalence
from conftest import deadline


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

    def test_short_horizon_exits_2_before_integrating(self, tmp_path):
        data = scenario_to_dict(preset("fig7"))
        data["integrator"]["t_end"] = 1.0
        path = tmp_path / "short.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
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

    def test_bad_thread_count_names_the_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BOHM_SIM_THREADS", "abc")
        assert main(["simulate", "--preset", "fig7", "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "BOHM_SIM_THREADS" in err and "'abc'" in err

    def test_negative_thread_count_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BOHM_SIM_THREADS", "-3")
        out = tmp_path / "run"
        assert main(["simulate", "--preset", "fig7", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "BOHM_SIM_THREADS" in err and "'-3'" in err
        assert not out.exists()

    def test_reproducible_csv_bytes(self, tmp_path):
        args = ["simulate", "--preset", "fig4", "--seed", "11"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for f in sorted(a.glob("traj_*.csv")):
            assert (b / f.name).read_bytes() == f.read_bytes()
        ma, mb = read_manifest(a), read_manifest(b)
        ma.pop("timing"), mb.pop("timing")
        assert ma == mb


class TestPlot:
    def test_two_panels_for_single_pointer(self, tmp_path, serve_fig4_ensemble):
        out = tmp_path / "run"
        main(["simulate", "--preset", "fig4", "--out", str(out)])
        manifest = read_manifest(out)
        assert len(list(out.glob("traj_*.csv"))) == 18
        assert manifest["classification"]["bounce_fraction"] >= 0.7
        assert main(["plot", str(out)]) == 0
        assert (out / "test_particle.svg").is_file()
        assert (out / "pointer.svg").is_file()

    def test_each_csv_read_once(self, tmp_path, monkeypatch, serve_fig4_ensemble):
        out = tmp_path / "run"
        assert main(["simulate", "--preset", "fig4", "--out", str(out)]) == 0
        manifest = read_manifest(out)
        calls = []

        def counting(path):
            calls.append(path)
            return read_trajectory_csv(path)

        monkeypatch.setattr(cli, "read_trajectory_csv", counting)
        assert main(["plot", str(out)]) == 0
        assert sorted(p.name for p in calls) == [r["file"] for r in manifest["trajectories"]]
        # the panels are exactly what the CSVs give when charted one by one
        runs = [(read_trajectory_csv(out / r["file"]), r["initial_slit"])
                for r in manifest["trajectories"]]
        for svg, col, title, ylabel in (
                ("test_particle.svg", "X", "fig4: test particle", "X'"),
                ("pointer.svg", "Z_1", "fig4: pointer", "Z'")):
            curves = [Curve(cols["Y"], cols[col], slit) for cols, slit in runs]
            expected = render_chart(curves, title, "Y'", ylabel).encode()
            assert (out / svg).read_bytes() == expected

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
        data["params"]["n_particles"] = 2
        data["params"]["pointer_velocities"] = [[10.0, -10.0], [5.0, -5.0]]
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

    @pytest.mark.parametrize("damage", ["header-only", "extra-cell", "short-row"])
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
        else:                              # one row a cell short
            rows[1] = rows[1].rsplit(",", 1)[0]
        csv.write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        assert main(["plot", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "traj_000.csv" in err
        assert not list(out.glob("*.svg"))

    def test_svg_format_in_scenario_renders_at_simulate_time(self, tmp_path):
        sc = preset("fig4")
        data = scenario_to_dict(sc)
        data["ensemble"]["count_per_slit"] = 2
        data["outputs"] = {"svg": True}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
        assert (out / "test_particle.svg").is_file()


class TestBench:
    def test_table_and_check(self, capsys):
        assert main(["bench", "--n-list", "1,64", "--backends", "reduced",
                     "--repetitions", "1"]) == 0
        out = capsys.readouterr().out
        assert "reduced core max/min ratio" in out

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

    def test_injected_sign_error_detected(self):
        # backend-equivalence must notice a corrupted analytic route
        params = preset("fig4").params
        flipped_kern = GuidanceKernel(params.with_rigid_pointer(params.n_particles,
                                                                -params.rigid_xi()))

        def flipped(kern, t, state, node_floor):
            return flipped_kern.velocity(t, state, node_floor)

        ok, detail = check_backend_equivalence(count=40, presets=("fig4",),
                                               analytic_fn=flipped)
        assert not ok

    def test_clean_backend_equivalence_passes(self):
        ok, detail = check_backend_equivalence(count=40, presets=("fig4",))
        assert ok, detail


def fuzz_scenarios(count=30, seed=20261018):
    """Scenario dicts drawn from one seeded generator.

    Single-pointer runs at N = 1, 3 or 50 on full-analytic or reduced, and
    two-pointer runs; one launch point per slit and a gaussian pointer draw.
    Some horizons fall below t'_cross, which must be refused at load.
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
            pairs, backend = [[xi, 0.0], [0.0, xi]], "full-analytic"
        else:
            n = int(rng.choice([1, 3, 50]))
            pairs = [[xi, -xi]] * n
            backend = str(rng.choice(["full-analytic", "reduced"]))
        p["n_particles"] = len(pairs)
        p["pointer_velocities"] = pairs
        data["ensemble"].update(count_per_slit=1, extent=float(rng.uniform(0.0, 1.5)),
                                z_init={"mode": "gaussian", "seed": int(rng.integers(1000))},
                                backend=backend)
        t_cross = p["d_prime"] * p["r"] ** 2 * p["xi_y"] / p["xi_x"]
        data["integrator"]["t_end"] = float(rng.uniform(0.8, 3.0)) * t_cross
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
    """A mutation that sets the key at ``path`` to ``value``, or deletes it for _DROP."""
    def mutate(data):
        parent = _get(data, path[:-1])
        if value is _DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return mutate


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
    """
    rng = np.random.default_rng(seed)
    owners: dict[tuple, list[str]] = {}
    for name in preset_names():
        for path in _key_paths(scenario_to_dict(preset(name))):
            owners.setdefault(path, []).append(name)
    cases = []
    for path, names in owners.items():
        name = str(rng.choice(names))
        value = _get(scenario_to_dict(preset(name)), path)
        label = f"{name}:{'.'.join(path)}"
        cases += [pytest.param(name, _set(path, _DROP), False, id=f"{label}=drop"),
                  pytest.param(name, _set(path, None), False, id=f"{label}=null"),
                  pytest.param(name, _set(path, _wrong_type(value)), True,
                               id=f"{label}=wrong-type")]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            cases += [pytest.param(name, _set(path, v), True, id=f"{label}={v}")
                      for v in (math.nan, math.inf, -math.inf)]
    return cases


V1_OUTPUTS = {"formats": ["csv", "json"], "path": None, "stride": 1}
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
