import filecmp
import json
import shutil

import numpy as np
import pytest

from gfflab import cli
from gfflab.cli import main, validate
from gfflab.environment import Conductances, EnvironmentLaw


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


def test_validate_rejects_unknown_sections(tmp_path):
    # no command reads them, so they would pass unchecked
    cfg = _base(tmp_path)
    cfg["scales"] = {"I": 3, "J": 1, "ell_star": 100}
    cfg["percolaton"] = {"L_grid": [1], "alpha_grid": [0.0], "replicas": 4}
    cfg["gff"] = {"radius": 1, "count": 2}
    unknown = ["unknown section 'scales'", "unknown section 'percolaton'"]
    assert validate(cfg) == unknown
    assert validate(cfg, "gff") == unknown
    assert main(["gff", "--config", _write(tmp_path, cfg)]) == 2
    assert not (tmp_path / "run1").exists()


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


def test_disconnect_manifest_records_its_environment(tmp_path):
    from gfflab.homogenization import _DisconnectionInstance
    from gfflab.lattice import shape_from_spec

    cfg = _base(tmp_path)
    cfg["law"] = {"kind": "iid_uniform", "low": 0.5, "high": 1.0}
    cfg["disconnect"] = dict(_DISCONNECT)
    assert main(["disconnect", "--config", _write(tmp_path, cfg)]) == 0
    inst = _DisconnectionInstance(
        EnvironmentLaw.iid_uniform(0.5, 1.0), shape_from_spec(_DISCONNECT["A"]),
        _DISCONNECT["M"], _DISCONNECT["N"], 0.5, cfg["master_seed"])
    manifest = json.loads((tmp_path / "run1" / "manifest.json").read_text())
    assert manifest["environment_hash"] == inst.env.content_hash()


def test_disconnect_exits_3_when_a_draw_fails(tmp_path, monkeypatch, capsys):
    from gfflab.potential import DirichletOperator, SolverError

    calls = []
    real = DirichletOperator.sample_gaussian

    def failing(self, rng, count):
        calls.append(count)
        if len(calls) == 2:
            raise SolverError("second draw fails")
        return real(self, rng, count)

    monkeypatch.setattr(DirichletOperator, "sample_gaussian", failing)
    cfg = _base(tmp_path)
    cfg["disconnect"] = dict(_DISCONNECT)
    assert main(["disconnect", "--config", _write(tmp_path, cfg)]) == 3
    assert "solver failure: second draw fails" in capsys.readouterr().err
    assert len(calls) == 2


def test_disconnect_draws_each_field_once(tmp_path, monkeypatch):
    from gfflab.potential import DirichletOperator

    drawn = []
    real = DirichletOperator.sample_gaussian

    def counting(self, rng, count):
        drawn.append(count)
        return real(self, rng, count)

    monkeypatch.setattr(DirichletOperator, "sample_gaussian", counting)
    cfg = _base(tmp_path)
    cfg["disconnect"] = {**_DISCONNECT, "eps_ladder": [0.6], "Delta": 0.05,
                         "eta": {"kind": "radial_bump", "center": [0, 0, 0],
                                 "radius": 1.0}}
    assert main(["disconnect", "--config", _write(tmp_path, cfg)]) == 0
    out = tmp_path / "run1"
    ladder = (out / "disconnect_ladder.csv").read_text().splitlines()[2:]
    assert len(ladder) == 2  # the ladder's epsilon and the main one
    # the repulsion statistics reuse the main epsilon's tilted fields
    assert (out / "repulsion_summary.json").exists()
    assert sum(drawn) == (_DISCONNECT["direct_replicas"]
                          + len(ladder) * _DISCONNECT["tilted_replicas"])


def test_potential_run_singleton_capacity(tmp_path):
    cfg = _base(tmp_path)
    cfg["potential"] = {"A_center": [0, 0, 0], "A_radius": 0,
                        "B_center": [0, 0, 0], "B_radius": 0}
    path = _write(tmp_path, cfg)
    assert main(["potential", "--config", path]) == 0
    rows = (tmp_path / "run1" / "capacity.csv").read_text().splitlines()
    assert rows[1] == "A_radius,B_radius,capacity"
    assert float(rows[2].split(",")[2]) == pytest.approx(6.0)


def test_potential_nesting_reads_the_corners_ball_truncates_to(tmp_path):
    # radius 0.5 about the origin is the one site 0, inside [0, 2]^3
    cfg = _base(tmp_path)
    cfg["potential"] = {**_POTENTIAL, "A_radius": 0.5, "B_center": [1, 1, 1],
                        "B_radius": 1}
    assert validate(cfg, "potential") == []
    assert main(["potential", "--config", _write(tmp_path, cfg)]) == 0


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
    # a 2 x 2 grid of adjacent boxes
    cfg["law"] = {"kind": "iid_uniform", "low": 0.5, "high": 1.0}
    cfg["percolation"] = {
        "L_grid": [1], "alpha_grid": [0.0], "replicas": 8, "padding": 2,
        "classify": {"L": 2, "K": 5,
                     "centers": [[0, 0, 0], [2, 0, 0], [0, 2, 0], [2, 2, 0]],
                     "gamma": 0.5, "delta": 0.0, "a": 1.0},
    }
    return cfg


def test_validate_command_checks_every_section(tmp_path, capsys):
    cfg = _adjacent_classify(_base(tmp_path))
    cfg["percolation"]["classify"]["centers"][-1] = [2, 1, 0]
    cfg["homogenize"] = {
        "A": {"kind": "euclidean_ball", "center": [0, 0, 0], "radius": 3.0},
        "B": {"kind": "euclidean_ball", "center": [0, 0, 0], "radius": 2.0},
        "N_list": [4],
    }
    assert main(["validate", "--config", _write(tmp_path, cfg)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert any("escapes B" in s for s in lines)
    assert any("percolation.classify" in s and "lattice" in s for s in lines)
    assert lines[-1] == "2 issue(s)"


def test_adjacent_classify_grid_runs(tmp_path):
    cfg = _adjacent_classify(_base(tmp_path))
    assert main(["percolation", "--config", _write(tmp_path, cfg)]) == 0
    rows = (tmp_path / "run1" / "box_classification.csv").read_text().splitlines()
    assert rows[1] == "z0,z1,z2,psi_good,xi_good"
    centers = cfg["percolation"]["classify"]["centers"]
    assert [[int(v) for v in r.split(",")[:3]] for r in rows[2:]] == centers


def test_classify_field_is_drawn_around_the_boxes(tmp_path, monkeypatch):
    # a lone box far from the origin: the field's domain is the box of
    # half-width K L + 1 around it, not a ball around the origin
    drawn = []
    plain = cli.sample_gff
    monkeypatch.setattr(cli, "sample_gff",
                        lambda env, U, *a: drawn.append(U) or plain(env, U, *a))
    cfg = _adjacent_classify(_base(tmp_path))
    cfg["percolation"]["classify"]["centers"] = [[200, 0, 0]]
    assert main(["percolation", "--config", _write(tmp_path, cfg)]) == 0
    reach = 5 * 2 + 1
    lo, hi = drawn[-1].bounding_box()
    assert lo.tolist() == [200 - reach, -reach, -reach]
    assert hi.tolist() == [200 + reach, reach, reach]
    assert len(drawn[-1]) == (2 * reach + 1) ** 3


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
    ("percolation", {"L_grid": ["a"], "alpha_grid": [0.0], "replicas": 4},
     "percolation: L_grid must be a non-empty list of integers >= 1"),
    ("percolation", {"L_grid": [1], "alpha_grid": ["x"], "replicas": 4},
     "percolation: alpha_grid must be a non-empty list of numbers"),
    ("percolation", {"L_grid": [1], "alpha_grid": [0.0], "replicas": 4,
                     "connectivity": {"alpha": 0.2, "z_list": [[0, 0]],
                                      "replicas": 4}},
     "percolation.connectivity: z_list must be a non-empty list of sites of "
     "3 integers each"),
    ("env", {"window_lo": ["a", 0, 0], "window_hi": [1, 1, 1]},
     "env: window_lo must be a site of 3 integers"),
    ("env", {"window_lo": [0, 0], "window_hi": [1, 1, 1]},
     "env: window_lo must be a site of 3 integers"),
    ("gff", {"radius": 1, "count": 2, "center": [0, 0]},
     "gff: center must be a site of 3 integers"),
    ("potential", {"A_center": [0, 0], "A_radius": 0, "B_center": [0, 0, 0],
                   "B_radius": 1},
     "potential: A_center must be a site of 3 integers"),
    ("percolation", {"L_grid": [1], "alpha_grid": [0.0], "replicas": 4,
                     "classify": {"L": 2, "K": 5, "centers": [[0, 0]],
                                  "gamma": 0.5, "delta": 0.0, "a": 1.0}},
     "percolation.classify: centers must be a non-empty list of sites of "
     "3 integers each"),
    ("solidify", {"A_radius": 1, "B_radius": 4, "offset": 1,
                  "puncture_fractions": ["a"]},
     "solidify: puncture_fractions must be a non-empty list of numbers >= 0 "
     "and < 1"),
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
_POTENTIAL = {"A_center": [0, 0, 0], "A_radius": 1, "B_center": [0, 0, 0],
              "B_radius": 2}
_SOLIDIFY = {"A_radius": 1, "B_radius": 4, "offset": 1, "puncture_fractions": [0.5]}
_SOLIDIFY_ESCAPES = "solidify: the hitting windows around A escape ball B"


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
    ("disconnect", {**_DISCONNECT, "N": 0}, "disconnect: N must be >= 1"),
    ("percolation", {**_PERCOLATION, "L_grid": []},
     "percolation: L_grid must be a non-empty list of integers >= 1"),
    ("env", {"window_lo": [0, 0, 0], "window_hi": [1, -1, 1]},
     "env: window_hi must be >= window_lo in every coordinate"),
    ("solidify", {"A_radius": 1, "B_radius": 4, "offset": 1,
                  "puncture_fractions": [0.5, 1.5]},
     "solidify: puncture_fractions must be a non-empty list of numbers >= 0 "
     "and < 1"),
    ("disconnect", {**_DISCONNECT, "tilted_replicas": 1, "Delta": 0.05,
                    "eta": {"kind": "radial_bump", "center": [0, 0, 0],
                            "radius": 1.0}},
     "disconnect+eta: tilted_replicas must be >= 2"),
    ("potential", {**_POTENTIAL, "A_radius": -1}, "potential: A_radius must be >= 0"),
    ("potential", {**_POTENTIAL, "B_radius": -0.5}, "potential: B_radius must be >= 0"),
    ("potential", {**_POTENTIAL, "A_radius": 3}, "potential: ball A escapes ball B"),
    ("potential", {**_POTENTIAL, "A_center": [2, 0, 0]},
     "potential: ball A escapes ball B"),
    ("gff", {"radius": -1, "count": 2}, "gff: radius must be >= 0"),
    ("solidify", {**_SOLIDIFY, "A_radius": -1}, "solidify: A_radius must be >= 0"),
    ("solidify", {**_SOLIDIFY, "B_radius": -4}, "solidify: B_radius must be >= 0"),
    ("solidify", {**_SOLIDIFY, "offset": -1}, "solidify: offset must be >= 0"),
    ("solidify", {**_SOLIDIFY, "A_radius": 3, "B_radius": 2}, _SOLIDIFY_ESCAPES),
    ("solidify", {**_SOLIDIFY, "A_radius": 2, "offset": 1.5, "B_radius": 4},
     _SOLIDIFY_ESCAPES),
    ("solidify", {**_SOLIDIFY, "A_radius": 0, "offset": 0, "B_radius": 0},
     _SOLIDIFY_ESCAPES),
    ("solidify", {**_SOLIDIFY, "A_radius": 1, "offset": 2, "B_radius": 5},
     _SOLIDIFY_ESCAPES),
    ("percolation", {**_PERCOLATION, "L_grid": [2, 1, 2]},
     "percolation: L_grid must not repeat a value"),
    ("percolation", {**_PERCOLATION, "classify": {
        "L": 2, "K": 5, "centers": [[0, 0, 0]], "gamma": 0.0, "delta": 0.0, "a": 1.0}},
     "percolation.classify: levels must satisfy delta < gamma"),
    ("homogenize", {**_HOMOGENIZE, "reference": {"shape": "cube", "sigma2": 1.0}},
     "homogenize.reference: shape must be in ball annulus"),
    ("homogenize", {**_HOMOGENIZE, "reference": {"shape": "annulus", "sigma2": 1.0,
                                                 "R": 1.0}},
     "homogenize.reference: annulus needs R > r"),
])
def test_out_of_range_value_exits_2(tmp_path, capsys, command, section, message):
    _assert_exits_2_before_any_output(tmp_path, capsys, command, section, message)


def test_reference_needs_dimension_3(tmp_path):
    cfg = _base(tmp_path)
    cfg["homogenize"] = {**_HOMOGENIZE, "reference": {"shape": "ball", "sigma2": 1.0}}
    assert validate(cfg) == []
    cfg["dimension"] = 4
    assert "homogenize.reference: needs dimension 3" in validate(cfg)


@pytest.mark.parametrize("A_radius, offset, B_radius", [(1.5, 1, 3), (2, 1.5, 5)])
def test_solidify_at_the_nesting_bound_runs(tmp_path, A_radius, offset, B_radius):
    # floor(A) + floor(offset) + floor(max(2 offset, 2)) == floor(B) + 1
    cfg = _base(tmp_path)
    cfg["solidify"] = {**_SOLIDIFY, "A_radius": A_radius, "offset": offset,
                       "B_radius": B_radius}
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 0
    assert main(["solidify", "--config", path]) == 0
    assert (tmp_path / "run1" / "solidify.csv").exists()


@pytest.mark.parametrize("law, message", [
    ({"kind": "constant", "value": True}, "law: value must be of JSON type number"),
    ({"kind": "constant", "value": "1.0"}, "law: value must be of JSON type number"),
    ({"kind": "iid_uniform", "low": 0.5, "high": 1.0, "p": 0.3},
     "law: iid_uniform takes exactly the keys low, high"),
    (["constant", 1.0], "law must be of JSON type object"),
])
def test_law_parameters_are_checked_like_config_keys(tmp_path, capsys, law,
                                                     message):
    cfg = _base(tmp_path)
    cfg["law"] = law
    cfg["env"] = {"window_lo": [0, 0, 0], "window_hi": [1, 1, 1]}
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert message in capsys.readouterr().out.splitlines()
    assert main(["env", "--config", path]) == 2
    assert not (tmp_path / "run1").exists()


_NOT_A_NUMBER = "disconnect: eps_ladder entries must be of JSON type number"


@pytest.mark.parametrize("ladder, messages", [
    ([[1]], [_NOT_A_NUMBER]),
    (["x"], [_NOT_A_NUMBER]),
    ([0.05, 0.05, True],
     [_NOT_A_NUMBER, "disconnect: eps_ladder must not repeat a value"]),
])
def test_eps_ladder_entries_are_distinct_numbers(tmp_path, capsys, ladder, messages):
    cfg = _base(tmp_path)
    cfg["disconnect"] = {**_DISCONNECT, "eps_ladder": ladder}
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert capsys.readouterr().out.splitlines()[:-1] == messages
    assert main(["disconnect", "--config", path]) == 2
    assert not (tmp_path / "run1").exists()


_BAD_LADDER = ("homogenize: N_list must be a non-empty, strictly increasing "
               "list of integers >= 1")
_ETA = {"Delta": 0.05}


@pytest.mark.parametrize("command, section, message", [
    ("homogenize", {**_HOMOGENIZE, "N_list": []}, _BAD_LADDER),
    ("homogenize", {**_HOMOGENIZE, "N_list": [12, 8]}, _BAD_LADDER),
    ("homogenize", {**_HOMOGENIZE, "N_list": [0, 8]}, _BAD_LADDER),
    ("homogenize", {**_HOMOGENIZE, "eta": {"kind": "cone", "radius": 1.0}},
     "homogenize.eta: unknown test function kind 'cone'"),
    ("disconnect", {**_DISCONNECT, **_ETA, "eta": {"kind": "radial_bump"}},
     "disconnect.eta: missing key 'radius'"),
    ("disconnect", {**_DISCONNECT, **_ETA, "eta": {"kind": "cone", "radius": 1.0}},
     "disconnect.eta: unknown test function kind 'cone'"),
])
def test_ladder_and_eta_are_checked_before_any_output(tmp_path, capsys, command,
                                                      section, message):
    cfg = _base(tmp_path)
    cfg[command] = section
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert capsys.readouterr().out.splitlines()[:-1] == [message]
    assert main([command, "--config", path]) == 2
    assert not (tmp_path / "run1").exists()


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
    assert validate(cfg) == ["unknown section 'scales'"]


_IDENTITY_KEYS = ["d", "lambda", "law", "offset", "seed", "version",
                  "window_hi", "window_lo"]


@pytest.mark.parametrize("command, section, roles", [
    ("homogenize", {**_HOMOGENIZE, "N_list": [2, 3], "diffusivity": _DIFFUSIVITY},
     ["capacity_N2", "capacity_N3", "diffusivity"]),
    ("percolation", {**_PERCOLATION, "padding": 2,
                     "connectivity": {"alpha": 0.2, "z_list": [[1, 0, 0]],
                                      "replicas": 4, "padding": 2},
                     "classify": {"L": 2, "K": 5, "centers": [[0, 0, 0]],
                                  "gamma": 0.5, "delta": 0.0, "a": 1.0}},
     ["crossing", "connectivity", "classify"]),
])
def test_manifest_names_every_sampled_environment(tmp_path, command, section,
                                                  roles):
    from gfflab.environment import environment_for_sites, sample_environment
    from gfflab.lattice import blow_up, shape_from_spec

    cfg = _base(tmp_path)
    cfg["law"] = {"kind": "iid_uniform", "low": 0.5, "high": 1.0}
    cfg[command] = section
    assert main([command, "--config", _write(tmp_path, cfg)]) == 0
    manifest = json.loads((tmp_path / "run1" / "manifest.json").read_text())
    envs = manifest["environments"]
    assert sorted(envs) == sorted(roles)
    for ident in envs.values():
        assert sorted(ident) == _IDENTITY_KEYS
        assert ident["seed"] == 42 and ident["lambda"] == 0.5
        assert ident["law"] == {"kind": "iid_uniform", "params": [0.5, 1.0]}
    windows = {json.dumps([e["window_lo"], e["window_hi"]]) for e in envs.values()}
    assert len(windows) == len(roles)
    law = EnvironmentLaw.iid_uniform(0.5, 1.0)
    if command == "homogenize":
        assert manifest["environment_hash"] is None
        B_3 = blow_up(shape_from_spec(section["B"]), 3)
        assert envs["capacity_N3"] == environment_for_sites(law, B_3, 42, 0.5).identity()
    else:
        # the identity regenerates the environment the hash was taken of
        crossing = envs["crossing"]
        env = sample_environment(law, (crossing["window_lo"], crossing["window_hi"]),
                                 42, 0.5)
        assert env.content_hash() == manifest["environment_hash"]
