"""Scenario files: loading, validation messages, round trips, profiles."""

import glob
import os

import numpy as np
import pytest
import yaml

from conftest import SCENARIO_DIR, scenario_path
from hiercontrol import scenario
from hiercontrol.errors import ValidationError
from hiercontrol.grids import build_grid
from hiercontrol.scenario import (
    _TOLERANCE_DEFAULTS,
    Scenario,
    emit_scenario,
    evaluate_profile,
    load_scenario,
    scenario_from_tree,
    scenario_to_tree,
)

SHIPPED = [
    "heat_1d",
    "heat_2d",
    "heat_lq_16x32",
    "heat_lq_24x48",
    "advection_lq_16x32",
    "gradient_diffusion",
    "mild_quasilinear",
]


# (key path, malformed value, key the error names)
_MALFORMED = [
    (("grid", "dim"), "one", "grid.dim"),
    (("grid", "cells"), "sixteen", "grid.cells"),
    (("grid", "cells"), 64.5, "grid.cells"),
    (("grid", "steps"), 32.5, "grid.steps"),
    (("seed",), "abc", "seed"),
    (("tolerances", "max_outer"), "twelve", "tolerances.max_outer"),
    (("tolerances", "cg_max"), "many", "tolerances.cg_max"),
    (("data", "y0", "modes"), "one", "data.y0.modes"),
    (("data", "y0", "amplitude"), [0.3], "data.y0.amplitude"),
    (("nonlinearity", "params"), {"a0": "one"}, "nonlinearity.params.a0"),
    (("regions", "omega0"), [0.3, "high"], "regions.omega0"),
    (("data", "y0", "modes"), 1.5, "data.y0.modes"),
    (("data", "y0", "amplitud"), 0.3, "data.y0.amplitud"),
    (("nonlinearity", "params"), {"a0": 1.0, "qq": 5.0}, "nonlinearity.params.qq"),
    (("data", "y0"), {"profile": "bump", "width": 0}, "data.y0.width"),
    (("data", "y0"), {"profile": "bump", "width": -0.25}, "data.y0.width"),
    (("data", "y0"), {"profile": "gauss", "sigma": -0.1}, "data.y0.sigma"),
    (("data", "y0", "modes"), 0, "data.y0.modes"),
    (("data", "y1_target", "center"), [0.6, 0.6], "data.y1_target.center"),
]

# the same on the 2D heat_2d scenario, whose per-axis lists take two entries
_MALFORMED_2D = [
    (("data", "y0"), {"profile": "bump", "center": [0.5]}, "data.y0.center"),
    (("data", "y0"), {"profile": "bump", "center": [0.5, 0.5, 0.9]}, "data.y0.center"),
    (("data", "y0", "modes"), [1], "data.y0.modes"),
    (("data", "y0", "modes"), [1, 0], "data.y0.modes"),
]
_CASES = [("heat_lq_16x32", *c) for c in _MALFORMED] + [("heat_2d", *c) for c in _MALFORMED_2D]


def _doc_yaml_blocks():
    doc = os.path.join(SCENARIO_DIR, "..", "docs", "scenario_format.md")
    with open(doc, "r", encoding="utf-8") as fh:
        text = fh.read()
    return [part.split("```", 1)[0] for part in text.split("```yaml")[1:]]


class TestYamlLoader:
    # the scenario loader parses with libyaml where PyYAML has it; the tree
    # must be the one yaml.safe_load builds
    def test_loader_is_the_fastest_safe_one(self):
        assert scenario._LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.cfg"))), ids=os.path.basename
    )
    def test_shipped_trees_equal_safe_load(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        assert yaml.load(text, Loader=scenario._LOADER) == yaml.safe_load(text)

    def test_documented_blocks_equal_safe_load(self):
        blocks = _doc_yaml_blocks()
        assert len(blocks) >= 5
        for block in blocks:
            assert yaml.load(block, Loader=scenario._LOADER) == yaml.safe_load(block), block


def _base_tree(name="heat_lq_16x32"):
    with open(scenario_path(name), "r", encoding="utf-8") as fh:
        return yaml.safe_load(fh)


class TestShipped:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_loads_and_builds(self, name):
        s = load_scenario(scenario_path(name))
        assert isinstance(s, Scenario)
        assert s.name == name
        problem = s.build_problem()
        assert problem.grid.dim == s.dim
        weights = s.build_carleman_weights(problem)
        assert weights.lam > 0.0

    @pytest.mark.parametrize("name", SHIPPED)
    def test_round_trip_identity(self, name, tmp_path):
        s = load_scenario(scenario_path(name))
        out = os.path.join(tmp_path, "echo.cfg")
        emit_scenario(s, out)
        again = load_scenario(out)
        assert again == s

    def test_tree_round_trip(self):
        s = load_scenario(scenario_path("heat_1d"))
        assert scenario_from_tree(scenario_to_tree(s)) == s


class TestValidation:
    def test_unknown_top_level_key(self):
        tree = _base_tree()
        tree["surprise"] = 1
        with pytest.raises(ValidationError, match="surprise"):
            scenario_from_tree(tree)

    def test_missing_region(self):
        tree = _base_tree()
        del tree["regions"]["omega_prime"]
        with pytest.raises(ValidationError, match="omega_prime"):
            scenario_from_tree(tree)

    def test_unknown_region_key(self):
        tree = _base_tree()
        tree["regions"]["omega_extra"] = [0.1, 0.2]
        with pytest.raises(ValidationError, match="omega_extra"):
            scenario_from_tree(tree)

    def test_inclusion_violated(self):
        tree = _base_tree()
        tree["regions"]["omega0_tilde"] = [0.2, 0.8]  # not inside omega0
        with pytest.raises(ValidationError, match="omega0"):
            scenario_from_tree(tree)

    def test_disjoint_focus_named(self):
        tree = _base_tree()
        tree["regions"]["omega"] = [0.02, 0.3]
        tree["regions"]["omega_prime"] = [0.05, 0.25]
        with pytest.raises(ValidationError, match="disjoint"):
            scenario_from_tree(tree)

    def test_negative_follower_weight(self):
        tree = _base_tree()
        tree["weights"]["mu1"] = -1.0
        with pytest.raises(ValidationError, match="mu1"):
            scenario_from_tree(tree)

    def test_bad_interval(self):
        tree = _base_tree()
        tree["regions"]["omega1"] = [0.35, 0.1]
        with pytest.raises(ValidationError, match="omega1"):
            scenario_from_tree(tree)

    def test_unknown_profile(self):
        tree = _base_tree()
        tree["data"]["y0"] = {"profile": "sawtooth"}
        with pytest.raises(ValidationError, match="sawtooth|profile"):
            scenario_from_tree(tree)

    @pytest.mark.parametrize("profile,field", [
        ("zero", "amplitude"),
        ("sine", "width"),
        ("bump", "sigma"),
        ("gauss", "width"),
        ("csv", "modes"),
    ])
    def test_profile_rejects_a_field_it_does_not_read(self, profile, field):
        tree = _base_tree()
        tree["data"]["y0"] = {"profile": profile, field: 0.2}
        with pytest.raises(ValidationError, match=f"data\\.y0\\.{field}"):
            scenario_from_tree(tree)

    def test_profile_fields_are_read(self):
        # an integral float is an integer mode, and sigma sets the gauss width
        tree = _base_tree()
        tree["data"]["y0"] = {"profile": "sine", "amplitude": 0.3, "modes": 2.0}
        tree["data"]["y1_target"] = {"profile": "gauss", "amplitude": 0.1, "center": 0.6,
                                     "sigma": 0.05}
        s = scenario_from_tree(tree)
        assert dict(s.y0)["modes"] == 2 and type(dict(s.y0)["modes"]) is int
        problem = s.build_problem()
        x = problem.grid.nodes[:, 0]
        np.testing.assert_allclose(problem.y0.values, 0.3 * np.sin(2 * np.pi * x), atol=1e-15)
        peak = problem.targets[0].values[0]
        assert x[np.argmax(peak)] == pytest.approx(0.6, abs=problem.grid.h)

    def test_unknown_preset_caught_at_load(self):
        tree = _base_tree()
        tree["nonlinearity"]["preset"] = "warp-drive"
        with pytest.raises(ValidationError):
            scenario_from_tree(tree)

    def test_parse_error_carries_position(self, tmp_path):
        bad = os.path.join(tmp_path, "bad.cfg")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("name: x\ngrid: {dim: 1, cells: 16\n")
        with pytest.raises(ValidationError, match="line"):
            load_scenario(bad)

    @pytest.mark.parametrize("text,where", [
        ("name: x\ngrid: {dim: 1, cells: 16\n", "line 3, column 1"),
        ("name: x\ngrid: dim: 1\n", "line 2, column 10"),
    ])
    def test_parse_error_names_line_and_column(self, tmp_path, text, where):
        bad = os.path.join(tmp_path, "bad.cfg")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write(text)
        with pytest.raises(ValidationError, match=f"parse error in .*bad.cfg at {where}:"):
            load_scenario(bad)

    def test_missing_file(self):
        with pytest.raises(ValidationError, match="cannot read"):
            load_scenario(os.path.join(SCENARIO_DIR, "no_such.cfg"))

    def test_dim_message_names_admitted_dims(self, monkeypatch):
        tree = _base_tree()
        tree["grid"]["dim"] = 3
        with pytest.raises(ValidationError, match="grid.dim must be 1 or 2, got 3"):
            scenario_from_tree(tree)
        # the message is built from the tuple, so a new dimension edits only it
        monkeypatch.setattr(scenario, "ADMITTED_DIMS", (1,))
        tree["grid"]["dim"] = 2
        with pytest.raises(ValidationError, match="grid.dim must be 1, got 2"):
            scenario_from_tree(tree)

    def test_grid_bounds(self):
        tree = _base_tree()
        tree["grid"]["cells"] = 4
        with pytest.raises(ValidationError, match="cells"):
            scenario_from_tree(tree)
        tree = _base_tree()
        tree["grid"]["dim"] = 3
        with pytest.raises(ValidationError, match="dim"):
            scenario_from_tree(tree)
        # an integral float is an integer
        tree = _base_tree()
        tree["grid"]["cells"] = 16.0
        tree["seed"] = 3.0
        tree.setdefault("tolerances", {})["cg_max"] = 50.0
        s = scenario_from_tree(tree)
        assert (s.cells, s.seed, s.tolerance("cg_max")) == (16, 3, 50)
        assert all(type(v) is int for v in (s.cells, s.seed, s.tolerance("cg_max")))

    @pytest.mark.parametrize("base,path,value,key", _CASES, ids=[f"{k}={v}" for _, _, v, k in _CASES])
    def test_malformed_number_names_its_key(self, tmp_path, capsys, base, path, value, key):
        from hiercontrol.cli import main

        tree = _base_tree(base)
        node = tree
        for part in path[:-1]:
            node = node.setdefault(part, {})
        node[path[-1]] = value
        bad = os.path.join(tmp_path, "bad.cfg")
        with open(bad, "w", encoding="utf-8") as fh:
            yaml.safe_dump(tree, fh)
        with pytest.raises(ValidationError, match=key.replace(".", "\\.")):
            load_scenario(bad)
        assert main(["weights", "--config", bad, "--out", os.path.join(tmp_path, "out")]) == 2
        assert key in capsys.readouterr().err


class TestAliasesAndDefaults:
    def test_preset_alias(self):
        tree = _base_tree()
        tree["nonlinearity"] = {"preset": "heat+cubic-f", "params": {"a0": 1.0, "c": 0.2}}
        s = scenario_from_tree(tree)
        assert s.preset == "cubic-f"

    def test_tolerance_defaults(self):
        s = load_scenario(scenario_path("heat_lq_16x32"))
        assert s.tolerance("nash_tol") == 1e-12  # overridden in the file
        assert s.tolerance("outer_tol") == 1e-8
        assert s.tolerance("cg_tol") == 1e-8
        assert s.tolerance("max_outer") == 12

    def test_documented_defaults_match_the_loader(self):
        # the YAML block under "## `tolerances`" in docs/scenario_format.md
        doc = os.path.join(SCENARIO_DIR, "..", "docs", "scenario_format.md")
        with open(doc, "r", encoding="utf-8") as fh:
            text = fh.read()
        section = text.split("## `tolerances`", 1)[1]
        block = section.split("```yaml", 1)[1].split("```", 1)[0]
        assert yaml.safe_load(block)["tolerances"] == _TOLERANCE_DEFAULTS

    def test_unknown_tolerance_key(self):
        tree = _base_tree()
        tree["tolerances"]["zeal"] = 1.0
        with pytest.raises(ValidationError, match="zeal"):
            scenario_from_tree(tree)


class TestProfiles:
    def test_sine(self):
        g = build_grid(1, 16)
        vals = evaluate_profile(g, {"profile": "sine", "amplitude": 2.0, "modes": 2}, "data.y0")
        expected = 2.0 * np.sin(2.0 * np.pi * g.nodes[:, 0])
        np.testing.assert_allclose(vals, expected, atol=1e-14)

    def test_zero(self):
        g = build_grid(1, 16)
        vals = evaluate_profile(g, {"profile": "zero"}, "data.y0")
        assert np.abs(vals).max() == 0.0

    def test_bump_support(self):
        g = build_grid(1, 64)
        spec = {"profile": "bump", "amplitude": 1.0, "center": 0.5, "width": 0.25}
        vals = evaluate_profile(g, spec, "data.y0")
        x = g.nodes[:, 0]
        assert np.all(vals[np.abs(x - 0.5) >= 0.125] == 0.0)
        assert vals[np.argmin(np.abs(x - 0.5))] == pytest.approx(1.0)

    def test_gauss_peak(self):
        g = build_grid(1, 64)
        spec = {"profile": "gauss", "amplitude": 0.7, "center": 0.5, "sigma": 0.2}
        vals = evaluate_profile(g, spec, "data.y0")
        assert vals.max() == pytest.approx(0.7, rel=1e-6)

    def test_csv_escape_hatch(self, tmp_path):
        g = build_grid(1, 8)
        path = os.path.join(tmp_path, "profile.csv")
        rng = np.random.default_rng(0)
        data = rng.standard_normal(g.n_nodes)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,value\n")
            for x, v in zip(g.nodes[:, 0], data):
                fh.write(f"{x},{v}\n")
        vals = evaluate_profile(g, {"profile": "csv", "path": path}, "data.y0")
        np.testing.assert_allclose(vals, data, rtol=1e-15)

    def test_csv_wrong_length(self, tmp_path):
        g = build_grid(1, 8)
        path = os.path.join(tmp_path, "short.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,value\n0.0,1.0\n")
        with pytest.raises(ValidationError, match="node"):
            evaluate_profile(g, {"profile": "csv", "path": path}, "data.y0")


class TestBuildProducts:
    def test_problem_data_respects_boundary(self):
        s = load_scenario(scenario_path("heat_1d"))
        problem = s.build_problem()
        assert np.abs(problem.y0.values[problem.grid.boundary]).max() == 0.0

    def test_equality_is_semantic(self):
        s1 = load_scenario(scenario_path("heat_lq_16x32"))
        s2 = load_scenario(scenario_path("heat_lq_16x32"))
        assert s1 == s2 and s1 is not s2
        s3 = load_scenario(scenario_path("heat_lq_24x48"))
        assert s1 != s3
