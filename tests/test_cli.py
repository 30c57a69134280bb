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
    main(["validate", "--config", _write(tmp_path, cfg)])
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
