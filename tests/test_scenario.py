"""Scenario schema strictness, round-trips and the canonical presets."""

import math

import pytest

from bohmsim.model import fast_pointer_E
from bohmsim.scenario import (SCHEMA_VERSION, ScenarioError, load_scenario, preset,
                              preset_names, save_scenario, scenario_from_dict,
                              scenario_to_dict, with_backend, with_n_particles, with_seed)


class TestRoundTrip:
    @pytest.mark.parametrize("name", preset_names())
    def test_dict_round_trip(self, name):
        sc = preset(name)
        assert scenario_from_dict(scenario_to_dict(sc)) == sc

    def test_file_round_trip(self, tmp_path):
        sc = preset("fig7")
        path = tmp_path / "scenario.json"
        save_scenario(sc, path)
        again = load_scenario(path)
        assert again == sc
        save_scenario(again, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == path.read_text()


class TestStrictness:
    def test_unknown_top_level_key(self):
        data = scenario_to_dict(preset("fig4"))
        data["extra"] = 1
        with pytest.raises(ScenarioError, match="extra"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("block", ["params", "ensemble", "integrator"])
    def test_unknown_nested_key(self, block):
        data = scenario_to_dict(preset("fig4"))
        data[block]["bogus"] = 1
        with pytest.raises(ScenarioError, match="bogus"):
            scenario_from_dict(data)

    def test_particle_count_mismatch(self):
        # N is the sum of the group counts: a file that states n_particles is refused
        data = scenario_to_dict(preset("fig4"))
        data["params"]["n_particles"] = 3
        with pytest.raises(ScenarioError, match="n_particles"):
            scenario_from_dict(data)

    def test_schema_version_pinned(self):
        data = scenario_to_dict(preset("fig4"))
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ScenarioError, match="schema_version"):
            scenario_from_dict(data)
        # a version-1 file is refused with a message that names what changed
        data.update(schema_version=1, outputs={"formats": ["csv", "json"], "path": None})
        with pytest.raises(ScenarioError, match="outputs.formats"):
            scenario_from_dict(data)
        # so is a version-2 file, every one of which holds integrator.node_eps
        v2 = scenario_to_dict(preset("fig4"))
        v2["schema_version"] = 2
        v2["integrator"]["node_eps"] = 1e-13
        with pytest.raises(ScenarioError, match=r"integrator\.node_eps"):
            scenario_from_dict(v2)
        # and a version-3 file, every one of which holds the outputs block
        v3 = scenario_to_dict(preset("fig4"))
        v3.update(schema_version=3, outputs={"svg": False, "stride": 1})
        with pytest.raises(ScenarioError) as refused:
            scenario_from_dict(v3)
        for named in ("outputs block", "outputs.svg", "bohmsim plot", "outputs.stride",
                      "integrator.stride"):
            assert named in str(refused.value)
        # and a version-4 file, every one of which holds abs_tol and max_step_frac
        v4 = scenario_to_dict(preset("fig4"))
        v4["schema_version"] = 4
        v4["integrator"].update(abs_tol=1e-10, max_step_frac=0.02)
        with pytest.raises(ScenarioError) as refused:
            scenario_from_dict(v4)
        for named in ("integrator.abs_tol", "rel_tol / 100", "integrator.max_step_frac", "0.02"):
            assert named in str(refused.value)
        # and a version-5 file, every one of which holds t_end, stride and extent
        v5 = scenario_to_dict(preset("fig4"))
        v5["schema_version"] = 5
        v5["integrator"].update(t_end=None, stride=None)
        v5["ensemble"]["extent"] = 0.8
        with pytest.raises(ScenarioError) as refused:
            scenario_from_dict(v5)
        for named in ("integrator.t_end at 2.5 t'_cross", "integrator.stride at t_end / 512",
                      "ensemble.extent at 0.8"):
            assert named in str(refused.value)
        # and a version-6 file, every one of which holds pointer_velocities and n_particles
        v6 = scenario_to_dict(preset("fig4"))
        v6["schema_version"] = 6
        v6["params"].update(pointer_velocities=[[10.0, -10.0]], n_particles=1)
        del v6["params"]["pointer_groups"]
        with pytest.raises(ScenarioError) as refused:
            scenario_from_dict(v6)
        for named in ("params.pointer_velocities", "params.pointer_groups",
                      "[[count, Xi+, Xi-], ...]", "params.n_particles"):
            assert named in str(refused.value)
        # a current file that sets any of the five holds an unknown key
        for block, key, old in (("integrator", "t_end", v5), ("integrator", "stride", v5),
                                ("ensemble", "extent", v5), ("params", "n_particles", v6),
                                ("params", "pointer_velocities", v6)):
            data = scenario_to_dict(preset("fig4"))
            data[block][key] = old[block][key]
            with pytest.raises(ScenarioError, match=f"unknown key.*{key}"):
                scenario_from_dict(data)
        # read as the current version, the retired block is an unknown key
        v3["schema_version"] = SCHEMA_VERSION
        with pytest.raises(ScenarioError, match="unknown key.*outputs"):
            scenario_from_dict(v3)

    def test_bad_physics_rejected(self):
        data = scenario_to_dict(preset("fig4"))
        data["params"]["xi_y"] = -1.0
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_malformed_values_rejected(self):
        for mutate in (
            lambda d: d["params"].__setitem__("xi_x", None),
            lambda d: d["params"].__setitem__("pointer_groups", [[1.0]]),
            lambda d: d["ensemble"]["z_init"].update(mode="gaussian", seed=None),
            lambda d: d["integrator"].__setitem__("rel_tol", "fast"),
            lambda d: d["integrator"].__setitem__("rel_tol", float("nan")),
            lambda d: d["ensemble"].__setitem__("count_per_slit", True),
            lambda d: d["params"].__setitem__("pointer_groups", [[1, "10", -10.0]]),
            lambda d: d["params"].__setitem__("pointer_groups", [[1.0, 10.0, -10.0]]),
            lambda d: d["params"].__setitem__("pointer_groups", [[True, 10.0, -10.0]]),
            lambda d: d["params"].__setitem__("pointer_groups", [[0, 10.0, -10.0]]),
            lambda d: d["ensemble"].__setitem__("z_init", {"mode": "explicit",
                                                          "values": [0.1, 0.2]}),
        ):
            data = scenario_to_dict(preset("fig4"))
            mutate(data)
            with pytest.raises(ScenarioError):
                scenario_from_dict(data)

    @pytest.mark.parametrize("change", [
        dict(),                                                        # fig7: two pointers
        dict(pointer_groups=[[4, 5e307, -5e307]]),                      # twin's 2 Xi sqrt(N)
    ], ids=["no-twin", "twin-overflows"])
    def test_reduced_backend_checks_its_twin_at_load(self, change):
        data = scenario_to_dict(preset("fig7"))
        data["params"].update(change)
        data["ensemble"].update(backend="reduced", z_init={"mode": "common", "value": 0.0})
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)
        data["ensemble"]["backend"] = "full-analytic"
        assert scenario_from_dict(data).ensemble.backend == "full-analytic"

    @pytest.mark.parametrize("name", ["/abs/dir", "../up", "a/../../b", "", "."])
    def test_name_leaving_run_root_rejected(self, name):
        data = scenario_to_dict(preset("fig4"))
        data["name"] = name
        with pytest.raises(ScenarioError, match="name"):
            scenario_from_dict(data)

    def test_relative_nested_name_accepted(self):
        data = scenario_to_dict(preset("fig4"))
        data["name"] = "sweeps/fig4-a"
        assert scenario_from_dict(data).name == "sweeps/fig4-a"

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError):
            preset("fig99")


class TestPresetCatalog:
    def test_all_figures_present(self):
        names = preset_names()
        for k in range(2, 13):
            assert f"fig{k}" in names

    def test_caption_parameters(self):
        p3 = preset("fig3").params
        assert (p3.xi_x, p3.xi_y, p3.r, p3.R, p3.mu, p3.d_prime) == (10, 10, 1, 1, 1, 3)
        assert p3.single_pointer_xi == 10.0
        assert fast_pointer_E(p3) == pytest.approx(3.0)

        p4 = preset("fig4").params
        assert p4.R == 0.2
        assert fast_pointer_E(p4) == pytest.approx(0.12)
        assert preset("fig4").ensemble.z_init.value == 0.0

        assert preset("fig5").ensemble.z_init.value == 0.3
        assert preset("fig5-text").ensemble.z_init.value == 0.5
        assert preset("fig6") == preset("fig5").__class__(
            "fig6", preset("fig5").params, preset("fig5").ensemble, preset("fig5").integrator)

        p7 = preset("fig7")
        assert p7.params.pointer_groups == ((1, 10.0, 0.0), (1, 0.0, 10.0))
        assert p7.ensemble.z_init.values == (0.01, 0.01)
        assert p7.ensemble.count_per_slit == 1
        assert preset("fig8").ensemble.z_init.values == (0.5, 0.9)

        for name, n, sig in (("fig9", 10, 0.0), ("fig10", 10, 0.3),
                             ("fig11", 10, 1.0), ("fig12", 200, 0.3)):
            sc = preset(name)
            assert sc.params.n_particles == n
            assert sc.ensemble.backend == "reduced"
            assert sc.ensemble.z_init.value * math.sqrt(n) == pytest.approx(sig, abs=1e-12)

    def test_uncoupled_preset(self):
        assert preset("fig2").params.single_pointer_xi == 0.0


class TestOverrides:
    def test_with_backend(self):
        sc = with_backend(preset("fig4"), "full-numeric")
        assert sc.ensemble.backend == "full-numeric"
        with pytest.raises(ScenarioError):
            with_backend(preset("fig4"), "warp-drive")

    def test_with_n_preserves_sigma_hat(self):
        sc = with_n_particles(preset("fig10"), 40)
        assert sc.params.n_particles == 40
        assert sc.ensemble.z_init.value * math.sqrt(40) == pytest.approx(0.3, abs=1e-12)

    def test_with_n_rejects_two_pointer(self):
        with pytest.raises(ScenarioError):
            with_n_particles(preset("fig7"), 5)

    def test_with_seed(self):
        sc = with_seed(preset("fig4"), 99)
        assert sc.ensemble.z_init.mode == "gaussian"
        assert sc.ensemble.z_init.seed == 99
