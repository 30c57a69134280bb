import json
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from gfflab.cli import main
from gfflab.environment import EnvironmentLaw, environment_for_sites
from gfflab import homogenization, potential
from gfflab.homogenization import (
    _DisconnectionInstance,
    _shifted_weights,
    _unshift,
    annulus_pairing_quadrature,
    annulus_potential,
    capacity_scaling,
    continuum_capacity_reference,
    disconnection_rate_experiment,
    estimate_diffusivity,
    eta_from_spec,
    repulsion_experiment,
)
from gfflab.lattice import blow_up, euclidean_ball, linf_box
from gfflab.potential import DirichletOperator, band_pays, harmonic_potential
from gfflab.streams import stream

CONST = EnvironmentLaw.constant(1.0)
RANDOM = EnvironmentLaw.iid_uniform(0.5, 1.0)


# -- test functions -----------------------------------------------------------


def test_radial_bump_support_and_values():
    eta = eta_from_spec({"kind": "radial_bump", "center": [0, 0, 0],
                         "radius": 1.0, "amplitude": 2.0})
    pts = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0],
                    [2.0, 0.0, 0.0]])
    vals = eta(pts)
    assert vals[0] == pytest.approx(2.0)
    assert 0 < vals[1] < 2.0
    assert vals[2] == 0.0 and vals[3] == 0.0


def test_poly_bump():
    eta = eta_from_spec({"kind": "poly_bump", "center": [0, 0, 0],
                         "radius": 2.0, "terms": [[[1, 0, 0], 1.0]]})
    pts = np.array([[0.5, 0, 0], [-0.5, 0, 0.0]])
    vals = eta(pts)
    assert vals[0] == pytest.approx(-vals[1])


def test_mollified_indicator():
    eta = eta_from_spec({"kind": "mollified_indicator", "center": [0, 0, 0],
                         "radius": 1.0, "width": 0.5})
    pts = np.array([[0.0, 0, 0], [1.2, 0, 0], [1.6, 0, 0]])
    vals = eta(pts)
    assert vals[0] == 1.0
    assert 0 < vals[1] < 1.0
    assert vals[2] == 0.0


def test_eta_unknown_kind():
    with pytest.raises(ValueError):
        eta_from_spec({"kind": "sinusoid"})


# -- continuum references -------------------------------------------------------


def test_continuum_reference_values():
    assert continuum_capacity_reference("ball", 1.0, 3, r=1.0) == pytest.approx(2 * math.pi)
    ann = continuum_capacity_reference("annulus", 2.0, 3, r=0.5, R=2.0)
    assert ann == pytest.approx(2 * math.pi * 2.0 * 0.5 * 2.0 / 1.5)
    # annulus converges to the ball value as R grows
    far = continuum_capacity_reference("annulus", 1.0, 3, r=1.0, R=1e6)
    assert far == pytest.approx(2 * math.pi, rel=1e-5)
    # linear in the covariance scale
    assert continuum_capacity_reference("ball", 2.0, 3, r=1.0) == pytest.approx(4 * math.pi)
    with pytest.raises(ValueError):
        continuum_capacity_reference("ball", 1.0, 4)
    with pytest.raises(ValueError):
        continuum_capacity_reference("annulus", 1.0, 3, r=2.0, R=1.0)


def test_annulus_potential_shape():
    pts = np.array([[0.2, 0, 0], [1.0, 0, 0], [1.5, 0, 0], [2.5, 0, 0]])
    vals = annulus_potential(pts, 1.0, 2.0)
    assert vals[0] == 1.0 and vals[1] == 1.0
    assert 0 < vals[2] < 1 and vals[3] == 0.0


def test_quadrature_oracle_consistency():
    eta = eta_from_spec({"kind": "radial_bump", "center": [0, 0, 0],
                         "radius": 0.4, "amplitude": 1.0})
    coarse = annulus_pairing_quadrature(0.5, 2.0, eta, step=0.1)
    fine = annulus_pairing_quadrature(0.5, 2.0, eta, step=0.05)
    # eta is supported inside the r-ball where the potential is 1: the
    # pairing converges to the plain integral of eta
    grid = np.arange(-0.4, 0.4, 0.01) + 0.005
    xs, ys, zs = np.meshgrid(grid, grid, grid, indexing="ij")
    pts = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    direct = eta(pts).sum() * 0.01 ** 3
    assert fine == pytest.approx(direct, rel=0.02)
    assert abs(fine - coarse) < 0.05 * abs(fine) + 1e-4


# -- scaling sweeps -------------------------------------------------------------


def test_capacity_scaling_small_ladder():
    sweep = capacity_scaling(CONST, 0.5, euclidean_ball([0, 0, 0], 0.5),
                             euclidean_ball([0, 0, 0], 2.0), [4, 8], seed=0)
    vals = [r.scaled_capacity for r in sweep.results]
    assert len(vals) == 2 and vals[1] > vals[0] > 0
    for r in sweep.results:
        A_N = blow_up(euclidean_ball([0, 0, 0], 0.5), r.N)
        B_N = blow_up(euclidean_ball([0, 0, 0], 2.0), r.N)
        op = DirichletOperator(environment_for_sites(CONST, B_N, 0, 0.5),
                               B_N.difference(A_N))
        picked = band_pays(op.n, op.bandwidth, 1, False)
        assert (r.unknowns, r.backend) == (op.n, "band" if picked else "cg")


def test_capacity_scaling_assembles_one_laplacian_per_scale(monkeypatch):
    assembled = []
    plain = potential.killed_laplacian

    def spy(env, U):
        assembled.append(len(U))
        return plain(env, U)

    monkeypatch.setattr(potential, "killed_laplacian", spy)
    sweep = capacity_scaling(RANDOM, 0.5, euclidean_ball([0, 0, 0], 0.5),
                             euclidean_ball([0, 0, 0], 2.0), [4, 6], seed=3)
    assert assembled == [r.unknowns for r in sweep.results]


def test_capacity_scaling_guards():
    with pytest.raises(ValueError):
        capacity_scaling(CONST, 0.5, euclidean_ball([0, 0, 0], 0.5),
                         euclidean_ball([0, 0, 0], 2.0), [8, 4], seed=0)
    with pytest.raises(ValueError):
        capacity_scaling(CONST, 0.5, euclidean_ball([0, 0, 0], 2.5),
                         euclidean_ball([0, 0, 0], 2.0), [4], seed=0)


def test_pairing_trivial_cases():
    # test function supported outside B pairs to zero at every N
    eta_out = eta_from_spec({"kind": "radial_bump", "center": [5.0, 0, 0],
                             "radius": 0.5})
    sweep = capacity_scaling(CONST, 0.5, euclidean_ball([0, 0, 0], 0.5),
                             euclidean_ball([0, 0, 0], 2.0), [4, 8], seed=0,
                             eta=eta_out)
    assert all(r.pairing == 0.0 for r in sweep.results)
    # nonnegative test function pairs nonnegatively
    eta_in = eta_from_spec({"kind": "radial_bump", "center": [0, 0, 0],
                            "radius": 1.0})
    sweep2 = capacity_scaling(CONST, 0.5, euclidean_ball([0, 0, 0], 0.5),
                              euclidean_ball([0, 0, 0], 2.0), [4, 8], seed=0,
                              eta=eta_in)
    assert all(r.pairing >= 0.0 for r in sweep2.results)


def test_each_dirichlet_problem_is_solved_once(tmp_path, monkeypatch):
    solves = []
    plain_solve = DirichletOperator.solve

    def counting_solve(self, rhs):
        solves.append(rhs)
        return plain_solve(self, rhs)

    monkeypatch.setattr(DirichletOperator, "solve", counting_solve)
    bump = {"kind": "radial_bump", "center": [0, 0, 0], "radius": 1.5}
    cfg = {"dimension": 3, "lambda": 0.5, "master_seed": 42,
           "law": {"kind": "iid_uniform", "low": 0.5, "high": 1.0},
           "homogenize": {
               "A": {"kind": "euclidean_ball", "center": [0, 0, 0], "radius": 0.5},
               "B": {"kind": "euclidean_ball", "center": [0, 0, 0], "radius": 2.0},
               "N_list": [4, 6], "eta": bump}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["homogenize", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    # one solve per N serves both the capacity and the pairing
    assert len(solves) == 2
    rows = (tmp_path / "out" / "potential_pairing.csv").read_text().splitlines()
    pairings = dict(map(float, row.split(",")) for row in rows[2:])
    eta = eta_from_spec(bump)
    expected = {}
    for N in (4, 6):
        A_N = blow_up(A_SHAPE, N)
        B_N = blow_up(euclidean_ball([0, 0, 0], 2.0), N)
        h = harmonic_potential(environment_for_sites(RANDOM, B_N, 42, 0.5), A_N, B_N)
        expected[N] = float(np.sum(h * eta(B_N.coords / float(N)))) / N ** 3
    assert pairings == expected

    # one tilt solve serves the whole epsilon ladder
    solves.clear()
    rep = disconnection_rate_experiment(
        _DisconnectionInstance(RANDOM, A_SHAPE, M=1.5, N=4, lam=0.5, seed=22),
        alpha=0.35, alpha_star_ref=0.5, epsilon=0.05, delta_shell=0.25,
        direct_replicas=50, tilted_replicas=50, eps_ladder=[0.05, 0.8, 1.6])
    assert len(rep.ladder) == 3 and len(solves) == 1

    # one instance and tilt serve both experiments of `gfflab disconnect`,
    # with the outputs of two unshared experiments
    solves.clear()
    geometry = dict(alpha=0.35, alpha_star_ref=0.5, epsilon=0.05,
                    delta_shell=0.25, tilted_replicas=60)
    cfg["disconnect"] = dict(geometry, A=cfg["homogenize"]["A"], M=1.5, N=4,
                             direct_replicas=60, eta=bump, Delta=0.05)
    path.write_text(json.dumps(cfg))
    out = tmp_path / "disc"
    assert main(["disconnect", "--config", str(path), "--out", str(out)]) == 0
    assert len(solves) == 2  # the tilt profile and h_{A_N,B_N}

    def instance():
        return _DisconnectionInstance(RANDOM, A_SHAPE, M=1.5, N=4, lam=0.5, seed=42)

    alone = disconnection_rate_experiment(instance(), direct_replicas=60, **geometry)
    summary = json.loads((out / "disconnect_summary.json").read_text())
    assert summary == {k: v for k, v in alone.__dict__.items() if k != "ladder"}
    alone = repulsion_experiment(instance(), eta_spec=bump, Delta=0.05, **geometry)
    assert json.loads((out / "repulsion_summary.json").read_text()) == alone.__dict__


# -- diffusivity ----------------------------------------------------------------


def test_diffusivity_quick():
    est = estimate_diffusivity(CONST, 0.5, t_horizon=25.0, replicas=2500,
                               seed=4, mode="vsrw")
    assert np.abs(np.diag(est.matrix) - 2.0).max() < 0.15
    assert est.discarded <= 25
    est2 = estimate_diffusivity(CONST, 0.5, t_horizon=25.0, replicas=2500,
                                seed=4, mode="csrw")
    assert np.abs(np.diag(est2.matrix) - 1.0 / 3.0).max() < 0.03
    off = est2.matrix - np.diag(np.diag(est2.matrix))
    off_se = est2.se - np.diag(np.diag(est2.se))
    assert np.all(np.abs(off) <= 5 * off_se + 1e-12)


def test_diffusivity_mode_guard():
    with pytest.raises(ValueError):
        estimate_diffusivity(CONST, 0.5, 10.0, 10, 0, mode="warp")


def test_diffusivity_walk_step_budget(monkeypatch):
    monkeypatch.setattr(potential, "MAX_WALK_STEPS", 5)
    with pytest.raises(potential.SolverError):
        estimate_diffusivity(CONST, 0.5, 25.0, 50, 4)


# -- disconnection and repulsion pipelines ---------------------------------------


A_SHAPE = euclidean_ball([0, 0, 0], 0.5)


def test_disconnection_zero_tilt_degenerates_to_direct():
    rep = disconnection_rate_experiment(
        _DisconnectionInstance(RANDOM, A_SHAPE, M=1.5, N=4, lam=0.5, seed=21),
        alpha=0.35, alpha_star_ref=0.35, epsilon=0.0, delta_shell=0.0,
        direct_replicas=1500, tilted_replicas=1500)
    # strength 0: weights are identically one, IS estimate equals the
    # tilted frequency exactly
    assert rep.entropy_H == 0.0
    assert rep.is_estimate == pytest.approx(rep.tilted_freq, abs=1e-12)
    assert rep.ess == pytest.approx(rep.tilted_replicas * rep.tilted_freq ** 2
                                    / max(rep.tilted_freq, 1e-300), rel=1e-9)


def test_disconnection_small_instance_agreement():
    rep = disconnection_rate_experiment(
        _DisconnectionInstance(RANDOM, A_SHAPE, M=1.5, N=4, lam=0.5, seed=22),
        alpha=0.35, alpha_star_ref=0.5, epsilon=0.05, delta_shell=0.25,
        direct_replicas=4000, tilted_replicas=4000, eps_ladder=[0.05, 0.8, 1.6])
    comb = math.hypot(rep.direct_se, rep.is_se)
    assert abs(rep.direct_estimate - rep.is_estimate) <= 3 * comb
    freqs = [p.tilted_freq for p in rep.ladder[:3]]
    ses = [p.tilted_se for p in rep.ladder[:3]]
    for k in range(2):
        assert freqs[k + 1] >= freqs[k] - 2 * math.hypot(ses[k], ses[k + 1])
    assert rep.entropy_bound_ok
    assert rep.cap_tilt_scaled > 0
    assert rep.rate_reference_eps >= rep.rate_reference


def test_repulsion_experiment_small():
    eta = {"kind": "radial_bump", "center": [0, 0, 0], "radius": 1.0}
    rep = repulsion_experiment(
        _DisconnectionInstance(RANDOM, A_SHAPE, M=1.5, N=4, lam=0.5, seed=23),
        alpha=0.35, alpha_star_ref=0.5, epsilon=0.1, delta_shell=0.25,
        tilted_replicas=4000, eta_spec=eta, Delta=0.05)
    assert rep.tilt_mean_ok
    assert rep.pairing_tilt_reference < 0  # downward push by construction
    assert rep.n_disconnected > 0
    assert np.isfinite(rep.conditional_mean)
    assert rep.deviation_is_estimate >= 0


def test_repulsion_zero_test_function():
    eta = {"kind": "radial_bump", "center": [0, 0, 0], "radius": 1.0,
           "amplitude": 0.0}
    rep = repulsion_experiment(
        _DisconnectionInstance(RANDOM, A_SHAPE, M=1.5, N=4, lam=0.5, seed=24),
        alpha=0.35, alpha_star_ref=0.5, epsilon=0.1, delta_shell=0.25,
        tilted_replicas=400, eta_spec=eta, Delta=0.05)
    assert rep.pairing_mean_tilted == 0.0
    assert rep.pairing_tilt_reference == 0.0
    assert rep.profile_pairing == 0.0


def test_importance_weights_summed_in_log_domain(monkeypatch):
    logw = stream(26, "logw").normal(size=40)
    keep = np.arange(40) % 3 != 0
    w0, top0 = _shifted_weights(logw, keep)
    assert w0.max() == 1.0 and np.all(w0[~keep] == 0.0)
    for c in (-800.0, 800.0):  # np.exp(logw + c) underflows to 0 / overflows
        w, top = _shifted_weights(logw + c, keep)
        assert np.allclose(w, w0, rtol=1e-12, atol=0.0)
        assert top == pytest.approx(top0 + c, rel=1e-15)
    # x * exp(top) where exp(top) alone overflows but the product does not
    assert _unshift(1e-10, 720.0) == pytest.approx(
        math.exp(360.0) * (math.exp(360.0) * 1e-10), rel=1e-12)
    assert _unshift(1.0, 800.0) == math.inf and _unshift(0.0, 800.0) == 0.0

    # through the experiment: tilts of entropy 0.5 and 500, where the raw
    # squared weights underflow to 0 and the raw ESS and SE read 0
    inst = _DisconnectionInstance(RANDOM, A_SHAPE, M=1.5, N=4, lam=0.5, seed=25)
    cap = inst.tilt_function(0.25)[1]
    strengths = [math.sqrt(2 * H / cap) for H in (0.5, 500.0)]
    seen = []
    plain = homogenization.tilt_log_weights

    def spy(env, U, f, samples, op=None):
        out = plain(env, U, f, samples, op=op)
        seen.append((out, inst.disconnected(samples, 0.35)))
        return out

    monkeypatch.setattr(homogenization, "tilt_log_weights", spy)
    rep = disconnection_rate_experiment(
        inst, alpha=0.35, alpha_star_ref=0.35, epsilon=strengths[0],
        delta_shell=0.25, direct_replicas=10, tilted_replicas=300,
        eps_ladder=strengths)
    assert len(seen) == 2
    for (lw, disc), point in zip(seen, rep.ladder):
        with np.errstate(under="ignore"):
            raw = np.exp(lw) * disc
            raw2 = (raw ** 2).sum()
        ess = math.exp(2 * logsumexp(lw[disc]) - logsumexp(2 * lw[disc]))
        assert 0 < point.ess <= 300 and point.ess == pytest.approx(ess, rel=1e-12)
        assert 0 < point.is_estimate == pytest.approx(raw.mean(), rel=1e-12)
        assert 0 < point.is_se < math.inf
        if raw2 > 0:
            assert point.ess == pytest.approx(raw.sum() ** 2 / raw2, rel=1e-12)
            assert point.is_se == pytest.approx(
                math.sqrt((raw2 / 300 - raw.mean() ** 2) / 300), rel=1e-9)
    assert (np.exp(seen[1][0]) ** 2).sum() == 0.0  # the strong tilt underflows

    # a tilt of entropy 5000, under which the estimate itself underflows to
    # 0: the rate proxy comes from the log estimate, logsumexp - log n
    seen.clear()
    rep = disconnection_rate_experiment(
        inst, alpha=0.35, alpha_star_ref=0.35,
        epsilon=math.sqrt(2 * 5000.0 / cap), delta_shell=0.25,
        direct_replicas=10, tilted_replicas=300)
    (lw, disc), = seen
    assert rep.is_estimate == 0.0 and disc.any()
    log_est = logsumexp(lw[disc]) - math.log(300)
    assert math.isfinite(rep.rate_proxy_is)
    assert rep.rate_proxy_is == pytest.approx(-4.0 ** (2 - 3) * log_est, rel=1e-12)


def test_disconnection_geometry_guards():
    with pytest.raises(ValueError, match="touches the enclosing shell"):
        _DisconnectionInstance(RANDOM, euclidean_ball([0, 0, 0], 2.0), M=1.0,
                               N=4, lam=0.5, seed=1)
    inst = _DisconnectionInstance(RANDOM, A_SHAPE, M=1.5, N=4, lam=0.5, seed=1)
    with pytest.raises(ValueError, match="escapes the killing region"):
        disconnection_rate_experiment(
            inst, alpha=0.3, alpha_star_ref=0.5, epsilon=0.1, delta_shell=5.0,
            direct_replicas=10, tilted_replicas=10)
