import filecmp
import json
import shutil

import numpy as np
import pytest

from gfflab.cli import main, validate
from gfflab.environment import Conductances


def _write(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def _base(tmp_path, out="run1"):
    return {
        "dimension": 3,
        "lambda": 0.5,
        "law": {"kind": "constant", "value": 1.0},
        "master_seed": 42,
        "out": str(tmp_path / out),
    }


def test_validate_ok(tmp_path):
    cfg = _base(tmp_path)
    assert validate(cfg) == []
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 0


def test_validate_rejects_unknown_tolerances(tmp_path):
    cfg = _base(tmp_path)
    cfg["tolerances"] = {"green_const": 2.0}
    assert main(["validate", "--config", _write(tmp_path, cfg)]) == 0
    cfg["tolerances"] = {"se_unit": 3.0}
    assert any("se_unit" in s for s in validate(cfg))
    assert main(["validate", "--config", _write(tmp_path, cfg)]) == 2


def test_validate_diagnostics():
    bad = {"dimension": 2, "lambda": 1.5, "law": {"kind": "nope"}}
    issues = validate(bad)
    assert any("dimension" in s for s in issues)
    assert any("lambda" in s for s in issues)
    assert any("master_seed" in s for s in issues)
    assert any("law" in s for s in issues)


def test_validate_nesting_diagnostic(tmp_path):
    cfg = _base(tmp_path)
    cfg["homogenize"] = {
        "A": {"kind": "euclidean_ball", "center": [0, 0, 0], "radius": 3.0},
        "B": {"kind": "euclidean_ball", "center": [0, 0, 0], "radius": 2.0},
        "N_list": [4],
    }
    issues = validate(cfg, "homogenize")
    assert any("escapes B" in s for s in issues)


def test_validate_scale_compatibility(tmp_path):
    cfg = _base(tmp_path)
    cfg["scales"] = {"I": 3, "J": 1, "ell_star": 100}
    issues = validate(cfg, "scales")
    assert any("compatible" in s for s in issues)


def test_missing_config_exit_code():
    assert main(["env", "--config", "/nonexistent.json"]) == 2


def test_invalid_config_exit_code(tmp_path):
    cfg = _base(tmp_path)
    cfg["lambda"] = 2.0
    path = _write(tmp_path, cfg)
    assert main(["env", "--config", path]) == 2


def test_env_run_constant_weights(tmp_path):
    cfg = _base(tmp_path)
    cfg["env"] = {"window_lo": [-3, -3, -3], "window_hi": [3, 3, 3]}
    path = _write(tmp_path, cfg)
    assert main(["env", "--config", path]) == 0
    env = Conductances.load(tmp_path / "run1" / "environment.bin")
    for a in range(3):
        assert np.all(env.weights[a] == 1.0)
    manifest = json.loads((tmp_path / "run1" / "manifest.json").read_text())
    assert manifest["environment_hash"] == env.content_hash()


def test_potential_run_singleton_capacity(tmp_path):
    cfg = _base(tmp_path)
    cfg["potential"] = {"A_center": [0, 0, 0], "A_radius": 0,
                        "B_center": [0, 0, 0], "B_radius": 0}
    path = _write(tmp_path, cfg)
    assert main(["potential", "--config", path]) == 0
    rows = (tmp_path / "run1" / "capacity.csv").read_text().splitlines()
    assert rows[1] == "A_radius,B_radius,capacity"
    assert float(rows[2].split(",")[2]) == pytest.approx(6.0)


def test_gff_and_percolation_runs(tmp_path):
    cfg = _base(tmp_path)
    cfg["law"] = {"kind": "iid_uniform", "low": 0.5, "high": 1.0}
    cfg["gff"] = {"radius": 1, "count": 32}
    cfg["percolation"] = {"L_grid": [1], "alpha_grid": [0.0, 0.5],
                          "replicas": 64, "padding": 2}
    path = _write(tmp_path, cfg)
    assert main(["gff", "--config", path]) == 0
    assert main(["percolation", "--config", path]) == 0
    out = tmp_path / "run1"
    assert (out / "fields.bin").exists()
    assert (out / "crossing.csv").exists()
    header = (out / "crossing.csv").read_text().splitlines()[1]
    assert header == "alpha,L,crossing_prob,se,replicas,seed"


def test_geometry_error_exit_code(tmp_path):
    cfg = _base(tmp_path)
    # A escapes the M-box: the runner should fail with the geometry code
    cfg["disconnect"] = {
        "A": {"kind": "euclidean_ball", "center": [0, 0, 0], "radius": 0.5},
        "M": 1.0, "alpha": 0.3, "alpha_star_ref": 0.5, "epsilon": 0.1,
        "delta_shell": 2.0, "N": 3,
        "direct_replicas": 8, "tilted_replicas": 8,
    }
    path = _write(tmp_path, cfg)
    assert main(["disconnect", "--config", path]) == 4


def test_reproducible_outputs(tmp_path):
    cfg = _base(tmp_path, out="a")
    cfg["law"] = {"kind": "iid_uniform", "low": 0.5, "high": 1.0}
    cfg["gff"] = {"radius": 1, "count": 16}
    path = _write(tmp_path, cfg, "a.json")
    cfg2 = dict(cfg)
    cfg2["out"] = str(tmp_path / "b")
    path2 = _write(tmp_path, cfg2, "b.json")
    assert main(["gff", "--config", path]) == 0
    assert main(["gff", "--config", path2]) == 0
    for name in ["fields.bin", "field_summary.csv"]:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_seed_override_changes_outputs(tmp_path):
    cfg = _base(tmp_path, out="c")
    cfg["law"] = {"kind": "iid_uniform", "low": 0.5, "high": 1.0}
    cfg["gff"] = {"radius": 1, "count": 16}
    path = _write(tmp_path, cfg, "c.json")
    assert main(["gff", "--config", path, "--out", str(tmp_path / "c")]) == 0
    assert main(["gff", "--config", path, "--out", str(tmp_path / "d"),
                 "--seed-override", "43"]) == 0
    assert (tmp_path / "c" / "fields.bin").read_bytes() != \
        (tmp_path / "d" / "fields.bin").read_bytes()


def _adjacent_classify(cfg):
    cfg["law"] = {"kind": "iid_uniform", "low": 0.5, "high": 1.0}
    cfg["percolation"] = {
        "L_grid": [1], "alpha_grid": [0.0], "replicas": 8, "padding": 2,
        "classify": {"L": 4, "K": 5, "centers": [[0, 0, 0], [4, 0, 0]],
                     "gamma": 0.5, "delta": 0.0, "a": 1.0},
    }
    return cfg


def test_validate_command_checks_every_section(tmp_path, capsys):
    cfg = _adjacent_classify(_base(tmp_path))
    cfg["homogenize"] = {
        "A": {"kind": "euclidean_ball", "center": [0, 0, 0], "radius": 3.0},
        "B": {"kind": "euclidean_ball", "center": [0, 0, 0], "radius": 2.0},
        "N_list": [4],
    }
    assert main(["validate", "--config", _write(tmp_path, cfg)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert any("escapes B" in s for s in lines)
    assert any("percolation.classify" in s and "separation" in s for s in lines)
    assert lines[-1] == "2 issue(s)"


def test_unseparated_classify_grid_fails_before_running(tmp_path):
    cfg = _adjacent_classify(_base(tmp_path))
    assert main(["percolation", "--config", _write(tmp_path, cfg)]) == 2
    assert not (tmp_path / "run1").exists()


def test_missing_command_section_exit_code(tmp_path):
    cfg = _base(tmp_path)
    assert any("'gff'" in s for s in validate(cfg, "gff"))
    assert main(["gff", "--config", _write(tmp_path, cfg)]) == 2
    assert not (tmp_path / "run1").exists()


def test_missing_required_key_exit_code(tmp_path, capsys):
    cfg = _base(tmp_path)
    cfg["percolation"] = {"L_grid": [1], "alpha_grid": [0.0]}
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert "percolation: missing key(s) replicas" in capsys.readouterr().out
    assert main(["percolation", "--config", path]) == 2
    assert not (tmp_path / "run1").exists()
    # optional subsections and keys bring their own required keys
    cfg["percolation"]["replicas"] = 8
    cfg["percolation"]["connectivity"] = {"alpha": 0.2, "replicas": 8}
    cfg["disconnect"] = {
        "A": {"kind": "euclidean_ball", "center": [0, 0, 0], "radius": 0.5},
        "M": 1.5, "alpha": 0.3, "alpha_star_ref": 0.5, "epsilon": 0.1,
        "N": 3, "direct_replicas": 8, "tilted_replicas": 8,
        "eta": {"kind": "radial_bump", "center": [0, 0, 0], "radius": 1.0},
    }
    assert validate(cfg) == ["percolation.connectivity: missing key(s) z_list",
                             "disconnect+eta: missing key(s) Delta"]
    assert main(["disconnect", "--config", _write(tmp_path, cfg)]) == 2
    assert not (tmp_path / "run1").exists()


@pytest.mark.parametrize("command, section, message", [
    ("disconnect",
     {"A": {"kind": "euclidean_ball", "center": [0, 0, 0], "radius": 0.5},
      "M": "2", "alpha": 0.3, "alpha_star_ref": 0.5, "epsilon": 0.1, "N": 3,
      "direct_replicas": 8, "tilted_replicas": 8},
     "disconnect: M must be of JSON type number"),
    ("percolation", {"L_grid": [1], "alpha_grid": [0.0], "replicas": "10"},
     "percolation: replicas must be of JSON type integer"),
    ("gff", {"radius": 1, "count": 2.5},
     "gff: count must be of JSON type integer"),
])
def test_wrong_json_type_exit_code(tmp_path, capsys, command, section, message):
    _assert_exits_2_before_any_output(tmp_path, capsys, command, section, message)


def _assert_exits_2_before_any_output(tmp_path, capsys, command, section,
                                      message):
    cfg = _base(tmp_path)
    cfg[command] = section
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert message in capsys.readouterr().out.splitlines()
    assert main([command, "--config", path]) == 2
    assert not (tmp_path / "run1").exists()


_DISCONNECT = {"A": {"kind": "euclidean_ball", "center": [0, 0, 0], "radius": 0.5},
               "M": 1.5, "alpha": 0.3, "alpha_star_ref": 0.5, "epsilon": 0.1,
               "N": 3, "direct_replicas": 8, "tilted_replicas": 8}
_PERCOLATION = {"L_grid": [1], "alpha_grid": [0.0], "replicas": 4}
_HOMOGENIZE = {"A": {"kind": "euclidean_ball", "center": [0, 0, 0], "radius": 0.5},
               "B": {"kind": "euclidean_ball", "center": [0, 0, 0], "radius": 2.0},
               "N_list": [2]}
_DIFFUSIVITY = {"t_horizon": 1.0, "replicas": 4, "mode": "vsrw"}


@pytest.mark.parametrize("command, section, message", [
    ("gff", {"radius": 1, "count": 0}, "gff: count must be >= 1"),
    ("percolation", {**_PERCOLATION, "replicas": 0},
     "percolation: replicas must be >= 1"),
    ("percolation", {**_PERCOLATION, "connectivity":
                     {"alpha": 0.2, "z_list": [[1, 0, 0]], "replicas": 0}},
     "percolation.connectivity: replicas must be >= 1"),
    ("disconnect", {**_DISCONNECT, "direct_replicas": 0},
     "disconnect: direct_replicas must be >= 1"),
    ("disconnect", {**_DISCONNECT, "tilted_replicas": 0},
     "disconnect: tilted_replicas must be >= 1"),
    ("homogenize", {**_HOMOGENIZE, "diffusivity": {**_DIFFUSIVITY, "mode": "warp"}},
     "homogenize.diffusivity: mode must be in vsrw csrw"),
    ("homogenize", {**_HOMOGENIZE, "diffusivity": {**_DIFFUSIVITY, "t_horizon": -1}},
     "homogenize.diffusivity: t_horizon must be > 0"),
    ("homogenize", {**_HOMOGENIZE, "diffusivity": {**_DIFFUSIVITY, "replicas": 0}},
     "homogenize.diffusivity: replicas must be >= 2"),
    ("homogenize", {**_HOMOGENIZE, "diffusivity": {**_DIFFUSIVITY, "replicas": 1}},
     "homogenize.diffusivity: replicas must be >= 2"),
])
def test_out_of_range_value_exits_2(tmp_path, capsys, command, section, message):
    _assert_exits_2_before_any_output(tmp_path, capsys, command, section, message)


def test_negative_padding_exits_2_before_any_output(tmp_path, capsys):
    for sub in (None, "connectivity"):
        cfg = _base(tmp_path)
        cfg["percolation"] = {"L_grid": [2], "alpha_grid": [0.0, 0.5],
                              "replicas": 8, "padding": -3}
        path = "percolation"
        if sub:
            cfg["percolation"]["padding"] = 0
            cfg["percolation"][sub] = {"alpha": 0.0, "z_list": [[1, 0, 0]],
                                       "replicas": 4, "padding": -1}
            path += "." + sub
        cfg_path = _write(tmp_path, cfg)
        assert main(["validate", "--config", cfg_path]) == 2
        assert (f"{path}: padding must be >= 0"
                in capsys.readouterr().out.splitlines())
        assert main(["percolation", "--config", cfg_path]) == 2
        assert not (tmp_path / "run1").exists()


def test_optional_key_of_the_wrong_type_exits_2(tmp_path, capsys):
    cfg = _base(tmp_path)
    cfg["percolation"] = {"L_grid": [1], "alpha_grid": [0.0], "replicas": 4,
                          "padding": "2"}
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert ("percolation: padding must be of JSON type integer"
            in capsys.readouterr().out.splitlines())
    assert main(["percolation", "--config", path]) == 2
    assert not (tmp_path / "run1").exists()
    cfg = _base(tmp_path)
    cfg["tolerances"] = {"green_const": "1"}
    cfg["gff"] = {"radius": 1, "count": 2, "center": 0}
    cfg["homogenize"] = {
        "A": {"kind": "euclidean_ball", "center": [0, 0, 0], "radius": 0.5},
        "B": {"kind": "euclidean_ball", "center": [0, 0, 0], "radius": 2.0},
        "N_list": [2], "quadrature_step": None,
        "reference": {"shape": "annulus", "sigma2": 2.0, "R": "2"},
        "diffusivity": {"t_horizon": 1, "replicas": 4, "mode": 1},
    }
    cfg["disconnect"] = {
        "A": {"kind": "euclidean_ball", "center": [0, 0, 0], "radius": 0.5},
        "M": 1.5, "alpha": 0.3, "alpha_star_ref": 0.5, "epsilon": 0.1,
        "N": 3, "direct_replicas": 8, "tilted_replicas": 8,
        "B": "ball", "delta_shell": "0.25", "eps_ladder": 0.1,
    }
    assert validate(cfg) == [
        "tolerances: green_const must be of JSON type number",
        "gff: center must be of JSON type list",
        "homogenize: quadrature_step must be of JSON type number",
        "homogenize.reference: R must be of JSON type number",
        "homogenize.diffusivity: mode must be of JSON type string",
        "disconnect: B must be of JSON type object",
        "disconnect: delta_shell must be of JSON type number",
        "disconnect: eps_ladder must be of JSON type list"]


def test_a_bool_and_a_non_object_section_have_the_wrong_type(tmp_path):
    cfg = _base(tmp_path)
    cfg["gff"] = {"radius": True, "count": 4}
    assert validate(cfg) == ["gff: radius must be of JSON type number"]
    cfg["gff"] = 3
    cfg["percolation"] = {"L_grid": [1], "alpha_grid": [0.0], "replicas": 4,
                          "classify": 5}
    assert validate(cfg) == ["gff must be of JSON type object",
                             "percolation.classify must be of JSON type object"]
    cfg = _base(tmp_path)
    cfg["scales"] = {"I": "3", "J": 1, "ell_star": 100}
    issues = validate(cfg)
    assert len(issues) == 1 and issues[0].startswith("scales: ")
