"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line and enforcing the stated tolerance and runtime budget.

Statistical checks use fixed seeds, so every run is reproducible; the
standard-error multipliers are the configured defaults (5 for single-
estimator checks, 3 for cross-estimator agreement).
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg as sla

from gfflab.cli import main as cli_main
from gfflab.environment import Conductances, EnvironmentLaw, sample_environment
from gfflab.gff import decompose_matrix, sample_matrix, tilt_log_weights
from gfflab.homogenization import (
    annulus_pairing_quadrature,
    capacity_scaling,
    continuum_capacity_reference,
    disconnection_rate_experiment,
    estimate_diffusivity,
    eta_from_spec,
    _DisconnectionInstance,
)
from gfflab.interfaces import (
    capacity_ratio_check,
    check_porous_interface,
    complement_profile,
    density_dichotomy_holds,
    density_grid,
    escape_probability,
    nested_punctured_interfaces,
)
from gfflab.lattice import SiteSet, ball, box_sites, euclidean_ball
from gfflab.percolation import decoupling_check, threshold_event
from gfflab.potential import (
    DirichletOperator,
    capacity,
    dirichlet_form,
    equilibrium_measure,
    green_killed,
    harmonic_potential,
    heat_kernel_killed,
    killed_laplacian,
)
from gfflab.streams import stream

LAW = EnvironmentLaw.iid_uniform(0.5, 1.0)
LAM = 0.5


def _report(num: int, desc: str, ok: bool, budget: float, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[AC{num:02d}] {status} ({elapsed:.1f}s / budget {budget:.0f}s) {desc}")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_exact_identity_suite():
    t0 = time.time()
    ok = True
    for seed in range(25):
        rng = stream(seed, "ac1")
        span = rng.integers(4, 7, size=3)        # boxes between 4^3 and 6^3
        B = box_sites(np.zeros(3, dtype=np.int64), span - 1)
        r_a = int(rng.integers(0, 2))
        center = span // 2
        A = ball(center, r_a, 3).intersection(B)
        env = sample_environment(LAW, (np.array([-1] * 3), span + 1),
                                 seed=seed, lam=LAM)
        opB = DirichletOperator(env, B)
        G = green_killed(env, B, "full_matrix", op=opB)
        ok &= np.abs(G - G.T).max() <= 1e-10
        h = harmonic_potential(env, A, B)
        e = equilibrium_measure(env, A, B, h=h)
        cap = dirichlet_form(env, B, h)
        ok &= abs(cap - e.sum()) <= 1e-8
        e_full = np.zeros(len(B))
        e_full[B.locate(A.coords)] = e
        ok &= np.abs(G @ e_full - h).max() <= 1e-8
        if seed % 5 == 0:
            in_A = A.contains_mask(B.coords)
            for _ in range(100):
                f = rng.standard_normal(len(B))
                f[in_A] = 1.0
                ok &= dirichlet_form(env, B, f) >= cap - 1e-10
    _report(1, "exact identities: symmetry, capacity triple, last exit, "
               "variational minimality (25 seeds)", ok, 60, time.time() - t0)


def test_criterion_02_dense_oracles():
    t0 = time.time()
    ok = True
    for seed in (0, 1):
        env = sample_environment(LAW, box_sites([-3] * 3, [3] * 3),
                                 seed=seed, lam=LAM)
        U = ball([0, 0, 0], 2)  # 5^3
        G = green_killed(env, U, "full_matrix")
        dense = np.linalg.inv(killed_laplacian(env, U).toarray())
        ok &= np.abs(G - dense).max() <= 1e-10
        t, tol = 1.9, 1e-12
        q = heat_kernel_killed(env, U, t, [1, 0, -1], tol=tol)
        omega = env.site_weights(U.coords)
        P = np.diag(1 / omega) @ (np.diag(omega) - killed_laplacian(env, U).toarray())
        oracle = sla.expm(t * (P - np.eye(len(U))))[U.index_of([1, 0, -1])] / omega
        ok &= np.abs(q - oracle).max() <= tol
    _report(2, "sparse Green vs dense inverse (1e-10); heat kernel vs "
               "matrix exponential (configured tol)", ok, 60, time.time() - t0)


def test_criterion_03_gff_law_checks():
    t0 = time.time()
    n = 20_000
    env = sample_environment(LAW, box_sites([-2] * 3, [7] * 3), seed=3, lam=LAM)
    U = box_sites([0, 0, 0], [5, 5, 5])          # 6^3
    op = DirichletOperator(env, U)
    S = op.sample_gaussian(stream(3, "ac3"), n)
    G = green_killed(env, U, "full_matrix", op=op)
    cov_se = np.sqrt((np.outer(np.diag(G), np.diag(G)) + G ** 2) / n)
    emp = S @ S.T / n
    ok = bool((np.abs(emp - G) / cov_se).max() <= 5)
    mean_ok = bool((np.abs(S.mean(axis=1)) / np.sqrt(np.diag(G) / n)).max() <= 5)
    # domain Markov: local field of the inner 4^3 box
    inner = box_sites([1, 1, 1], [4, 4, 4])
    xi, psi = decompose_matrix(env, U, inner, S)
    ii = U.locate(inner.coords)
    Gin = green_killed(env, inner, "full_matrix")
    se_in = np.sqrt((np.outer(np.diag(Gin), np.diag(Gin)) + Gin ** 2) / n)
    psi_ok = bool((np.abs(psi[ii] @ psi[ii].T / n - Gin) / se_in).max() <= 5)
    out_idx = np.nonzero(~inner.contains_mask(U.coords))[0]
    cross = psi[ii] @ S[out_idx].T / n
    cr_se = np.sqrt(np.outer(np.diag(Gin), np.diag(G)[out_idx]) / n)
    indep_ok = bool((np.abs(cross) / cr_se).max() <= 5)
    _report(3, "field law: covariance, mean, local-field covariance and "
               "independence (2e4 samples)", ok and mean_ok and psi_ok and indep_ok,
            300, time.time() - t0)


def test_criterion_04_tilting_exactness():
    t0 = time.time()
    env = sample_environment(LAW, box_sites([-3] * 3, [4] * 3), seed=4, lam=LAM)
    U = box_sites([-1, -1, -1], [2, 2, 2])       # 4^3
    op = DirichletOperator(env, U)
    n = 20_000
    f = 0.12 * np.ones(len(U))
    vals = sample_matrix(env, U, n, stream(4, "gff-tilted"), op=op) + f[:, None]
    w = np.exp(tilt_log_weights(env, U, f, vals, op=op))
    mean_se = vals.std(axis=1, ddof=1) / math.sqrt(n)
    mean_ok = bool((np.abs(vals.mean(axis=1) - f) / mean_se).max() <= 5)
    i0 = U.index_of([0, 0, 0])
    is_terms = w * (vals[i0] <= 0.0)
    direct = sample_matrix(env, U, n, stream(4, "ac4-direct"), op=op)[i0] <= 0.0
    comb = math.hypot(is_terms.std(ddof=1) / math.sqrt(n),
                      direct.std(ddof=1) / math.sqrt(n))
    is_ok = abs(is_terms.mean() - direct.mean()) <= 3 * comb
    _report(4, "tilted mean matches the shift; IS and direct estimates agree",
            mean_ok and is_ok, 300, time.time() - t0)


def test_criterion_05_decoupling_harness():
    t0 = time.time()
    dom = box_sites([0, 0, 0], [9, 9, 9])        # 10^3
    env = sample_environment(LAW, dom, seed=5, lam=LAM)
    K1 = SiteSet([[1, 1, 1]])
    K2 = SiteSet([[8, 8, 8]])
    rep = decoupling_check(env, dom, K1, K2, delta=0.2,
                           event1=threshold_event(dom, K1, 0.0),
                           event2=threshold_event(dom, K2, 0.0),
                           replicas=100_000, seed=5)
    ok = rep.holds_upper and rep.holds_lower
    _report(5, "two-sided decoupling inequality violation within 3 combined "
               "SE (distant single-site increasing events)", ok, 600,
            time.time() - t0)


def test_criterion_06_density_laws():
    t0 = time.time()
    rng = np.random.default_rng(6)
    U0 = ball([0, 0, 0], 9).union(ball([11, 4, -2], 5))
    prof = complement_profile(U0)
    member = lambda pts: ~U0.contains_mask(pts)
    lip_ok = True
    for _ in range(100):
        x = rng.integers(-6, 6, size=3)
        y = rng.integers(-3, 3, size=3)
        level = int(rng.integers(0, 5))
        gap = abs(prof.density(x, level) - prof.density(x + y, level))
        lip_ok &= gap <= 2.0 ** (-level) * np.abs(y).sum() + 1e-12
    c0 = 3 * 2 ** 2
    avg_ok = True
    for _ in range(6):
        x = rng.integers(-4, 4, size=3)
        level = int(rng.integers(2, 5))          # up to l = 4
        lp = int(rng.integers(0, level))
        r = 2 ** level
        fine = density_grid(member, x - r, x + r, level=lp, d=3)
        avg_ok &= abs(prof.density(x, level) - fine.mean()) \
            <= c0 * 2.0 ** (lp - level) + 1e-12
    dich_ok = True
    checked = 0
    while checked < 1000:
        c = rng.integers(-10, 10, size=3)
        U0s = ball(c, int(rng.integers(2, 9)))
        x = rng.integers(-6, 6, size=3)
        level = int(rng.integers(1, 4))
        lp = int(rng.integers(0, level))
        r = 2 ** level
        vals = density_grid(lambda p: ~U0s.contains_mask(p), x - r, x + r,
                            level=lp, d=3)
        beta = vals.mean()
        hi = min(beta, 1 - beta)
        if hi <= 0:
            continue
        dich_ok &= density_dichotomy_holds(vals, rng.uniform(0.0, hi))
        checked += 1
    _report(6, "density laws: Lipschitz exact, averaging with c0 = d 2^(d-1) "
               "at l <= 4, dichotomy on 1000 instances",
            lip_ok and avg_ok and dich_ok, 120, time.time() - t0)


def test_criterion_07_solidification_desk_scale():
    t0 = time.time()
    env = sample_environment(LAW, box_sites([-9] * 3, [9] * 3), seed=7, lam=LAM)
    B_env = ball([0, 0, 0], 8)
    ok = True
    n_specs = 0
    for trial in range(5):
        rng = stream(7, "ac7", trial)
        r_a = int(rng.integers(1, 3))
        offset = int(rng.integers(2, 4))
        A_N = ball([0, 0, 0], r_a)
        fracs = [0.0] + sorted(rng.uniform(0.1, 0.8, size=3).tolist())
        specs = nested_punctured_interfaces(A_N, offset, fracs, rng)
        sups = []
        for sp in specs:
            esc = escape_probability(env, A_N, sp.Sigma, B_env)
            sups.append(esc.sup_escape)
            chain = capacity_ratio_check(env, A_N, sp.Sigma, B_env)
            ok &= chain.ok
            n_specs += 1
        ok &= sups[0] <= 1e-8                    # sealed shell
        ok &= all(sups[i] <= sups[i + 1] + 1e-12 for i in range(len(sups) - 1))
    ok &= n_specs >= 20
    _report(7, f"solidification: sealed-shell escape <= 1e-8, coupled "
               f"puncture monotonicity, capacity chain on {n_specs} specs",
            ok, 600, time.time() - t0)


def test_criterion_08_homogenization_annulus():
    t0 = time.time()
    A = euclidean_ball([0, 0, 0], 0.5)
    B = euclidean_ball([0, 0, 0], 2.0)
    ref = continuum_capacity_reference("annulus", 2.0, 3, r=0.5, R=2.0)
    eta = eta_from_spec({"kind": "radial_bump", "center": [0, 0, 0],
                         "radius": 1.8})
    oracle = annulus_pairing_quadrature(0.5, 2.0, eta, step=0.02)
    sweep = capacity_scaling(EnvironmentLaw.constant(1.0), LAM, A, B,
                             [8, 16, 32], seed=8, reference=ref,
                             cauchy_factor=1.0, eta=eta, oracle=oracle)
    cauchy_ok = sweep.cauchy_ok
    within = bool(sweep.within_reference)
    pair_ok = bool(sweep.within_oracle)
    _report(8, f"annulus capacity ladder Cauchy={cauchy_ok}, "
               f"{sweep.results[-1].scaled_capacity:.3f} vs ref {ref:.3f} "
               f"(10%); pairing {sweep.results[-1].pairing:.4f} vs quadrature "
               f"{oracle:.4f} (10%)",
            cauchy_ok and within and pair_ok, 1800, time.time() - t0)


def test_criterion_09_diffusivity():
    t0 = time.time()
    vs = estimate_diffusivity(EnvironmentLaw.constant(1.0), LAM, 40.0,
                              10_000, seed=9, mode="vsrw")
    cs = estimate_diffusivity(EnvironmentLaw.constant(1.0), LAM, 40.0,
                              10_000, seed=10, mode="csrw")
    vs_ok = bool(np.abs(vs.matrix - 2.0 * np.eye(3)).max() <= 0.05 * 2.0)
    cs_ok = bool(np.abs(cs.matrix - np.eye(3) / 3.0).max() <= 0.05 / 3.0)
    _report(9, f"diffusivity: VSRW diag {np.diag(vs.matrix).round(3)} vs 2I, "
               f"CSRW diag {np.diag(cs.matrix).round(4)} vs I/3 (5%)",
            vs_ok and cs_ok, 600, time.time() - t0)


def test_criterion_10_disconnection_pipeline():
    t0 = time.time()
    A = euclidean_ball([0, 0, 0], 0.5)
    # pilot: pick a level where direct Monte Carlo is comfortably feasible
    inst = _DisconnectionInstance(LAW, A, M=2.0, N=6, lam=LAM, seed=10)
    pilot = sample_matrix(inst.env, inst.domain, 2000,
                          stream(10, "ac10-pilot"), op=inst.op)
    alpha = 0.4
    for cand in (0.2, 0.25, 0.3, 0.35, 0.4):
        if inst.disconnected(pilot, cand).mean() >= 0.02:
            alpha = cand
            break
    rep = disconnection_rate_experiment(
        inst, alpha=alpha, alpha_star_ref=alpha + 0.15, epsilon=0.05,
        delta_shell=1.0 / 6.0, direct_replicas=100_000, tilted_replicas=10_000,
        eps_ladder=[0.05, 0.6, 1.2, 2.0])
    hits = rep.direct_estimate * rep.direct_replicas
    enough_hits = hits >= 100
    comb = math.hypot(rep.direct_se, rep.is_se)
    agree = abs(rep.direct_estimate - rep.is_estimate) <= 3 * comb
    freqs = [p.tilted_freq for p in rep.ladder]
    ses = [p.tilted_se for p in rep.ladder]
    trend = all(freqs[k + 1] >= freqs[k] - 2 * math.hypot(ses[k], ses[k + 1])
                for k in range(3)) and freqs[3] >= 0.9
    _report(10, f"disconnection at alpha={alpha}: direct "
                f"{rep.direct_estimate:.4f} vs IS {rep.is_estimate:.4f} "
                f"(3 SE, ESS {rep.ess:.0f}); tilted freq ladder "
                f"{[round(f_, 3) for f_ in freqs]} -> 1; entropy bound ok="
                f"{rep.entropy_bound_ok}",
            enough_hits and agree and trend and rep.entropy_bound_ok,
            1800, time.time() - t0)


def test_criterion_11_reproducibility(tmp_path):
    t0 = time.time()
    import json
    config = {
        "dimension": 3, "lambda": 0.5,
        "law": {"kind": "iid_uniform", "low": 0.5, "high": 1.0},
        "master_seed": 777,
        "gff": {"radius": 2, "count": 64},
        "percolation": {"L_grid": [1, 2], "alpha_grid": [0.0, 0.4],
                        "replicas": 200, "padding": 2},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["gff", "--config", str(path), "--out", str(out)]) == 0
        assert cli_main(["percolation", "--config", str(path),
                         "--out", str(out)]) == 0
        outs.append(out)
    byte_ok = True
    for fname in ("fields.bin", "field_summary.csv", "crossing.csv"):
        byte_ok &= (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    # keyed environments: window extension and shift consistency
    law = EnvironmentLaw.iid_uniform(0.5, 1.0)
    small = sample_environment(law, box_sites([-2] * 3, [2] * 3), 99, LAM)
    big = sample_environment(law, box_sites([-5] * 3, [6] * 3), 99, LAM)
    env_ok = small.edge_weight([0, 0, 0], [1, 0, 0]) == \
        big.edge_weight([0, 0, 0], [1, 0, 0])
    sh = small.shift([1, -1, 0])
    env_ok &= sh.edge_weight([0, 0, 0], [0, 1, 0]) == \
        big.edge_weight([1, -1, 0], [1, 0, 0])
    _report(11, "byte-identical CLI re-runs; shift/window-consistent keyed "
                "environments", byte_ok and env_ok, 300, time.time() - t0)
