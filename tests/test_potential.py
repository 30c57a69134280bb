import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack

from gfflab.environment import EnvironmentLaw, sample_environment
from gfflab.lattice import SiteSet, ball, boundary, box_sites, neighbor_steps
from gfflab.potential import (
    BAND_BYTES,
    CG_TOL,
    DirichletOperator,
    STOPS,
    SolverError,
    StoppingRules,
    _band_back_substitute,
    _band_forward_substitute,
    _jump,
    band_pays,
    boundary_flux_rhs,
    capacity,
    capacity_unkilled_approx,
    dirichlet_form,
    energy_W,
    equilibrium_measure,
    green_killed,
    harmonic_extension,
    harmonic_potential,
    heat_kernel_killed,
    hitting_frequency,
    killed_laplacian,
    poisson_truncation,
    walk_simulate,
)
from gfflab.streams import stream

LAW = EnvironmentLaw.iid_uniform(0.5, 1.0)


@pytest.fixture(scope="module")
def env():
    return sample_environment(LAW, box_sites([-8] * 3, [8] * 3), seed=7, lam=0.5)


@pytest.fixture(scope="module")
def const_env():
    return sample_environment(EnvironmentLaw.constant(1.0),
                              box_sites([-8] * 3, [8] * 3), seed=0, lam=0.5)


def test_green_singleton(const_env):
    U = SiteSet([[0, 0, 0]])
    g = green_killed(const_env, U, "full_matrix")
    assert g[0, 0] == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_green_zero_off_domain(env):
    U = ball([0, 0, 0], 1)
    col = green_killed(env, U, "column", y=[5, 5, 5])
    assert np.all(col == 0.0)
    assert green_killed(env, U, "entry", x=[5, 5, 5], y=[0, 0, 0]) == 0.0


def test_green_dense_oracle_and_symmetry(env):
    U = ball([0, 0, 0], 1)
    G = green_killed(env, U, "full_matrix")
    dense = np.linalg.inv(killed_laplacian(env, U).toarray())
    assert np.abs(G - dense).max() < 1e-10
    assert np.abs(G - G.T).max() < 1e-10
    assert G.min() > 0  # positivity on U x U


def test_green_domain_monotone(env):
    V = ball([0, 0, 0], 1)
    U = ball([0, 0, 0], 2)
    GV = green_killed(env, V, "full_matrix")
    GU = green_killed(env, U, "full_matrix")
    iv = U.locate(V.coords)
    assert np.all(GV <= GU[np.ix_(iv, iv)] + 1e-12)


def test_strong_markov_decomposition(env):
    V = ball([0, 0, 0], 1)
    U = ball([0, 0, 0], 2)
    GU = green_killed(env, U, "full_matrix")
    GV = green_killed(env, V, "full_matrix")
    dV = boundary(V, "external").intersection(U)
    exit_cols = harmonic_extension(env, V, dV, np.eye(len(dV)))
    iv = U.locate(V.coords)
    idv = U.locate(dV.coords)
    # g_U(x, y) = g_V(x, y) + sum_z P_x[X_{T_V} = z, T_V < T_U] g_U(z, y)
    lhs = GU[np.ix_(iv, iv)]
    rhs = GV + exit_cols @ GU[np.ix_(idv, iv)]
    assert np.abs(lhs - rhs).max() < 1e-10


def test_harmonic_potential_basic(env):
    A = ball([0, 0, 0], 1)
    h = harmonic_potential(env, A, A)
    assert np.all(h == 1.0)
    B = ball([0, 0, 0], 4)
    h = harmonic_potential(env, A, B)
    assert np.all((h >= -1e-12) & (h <= 1 + 1e-12))
    assert np.all(h[B.locate(A.coords)] == 1.0)
    with pytest.raises(ValueError):
        harmonic_potential(env, ball([9, 9, 9], 1), B)


def test_harmonic_potential_decay_and_mc_oracle(const_env):
    A = SiteSet([[0, 0, 0]])
    B = ball([0, 0, 0], 6)
    h = harmonic_potential(const_env, A, B)
    # decays with |x|
    vals = [h[B.index_of([r, 0, 0])] for r in range(0, 5)]
    assert all(vals[i + 1] < vals[i] for i in range(4))
    x = [2, 0, 0]
    freq, se = hitting_frequency(const_env, x, StoppingRules(hit=A, exit=B),
                                 stream(3, "mc"), 10_000)
    assert abs(freq - h[B.index_of(x)]) < 5 * se


def test_equilibrium_measure_identities(env):
    A = ball([0, 0, 0], 1)
    B = ball([0, 0, 0], 2)  # 5^3 box
    h = harmonic_potential(env, A, B)
    e = equilibrium_measure(env, A, B, h=h)
    assert e.min() > -1e-12
    assert abs(e.sum() - dirichlet_form(env, B, h)) < 1e-8
    # the flux read from the edges at A is the assembled L_B h on A
    ref = (killed_laplacian(env, B) @ h)[B.locate(A.coords)]
    np.testing.assert_allclose(e, ref, rtol=1e-12, atol=1e-14)
    # supported on the internal boundary: interior sites carry no mass
    interior = A.difference(boundary(A, "internal"))
    if not interior.is_empty:
        assert np.abs(e[A.locate(interior.coords)]).max() < 1e-12


def test_equilibrium_singleton(const_env):
    U0 = SiteSet([[0, 0, 0]])
    e = equilibrium_measure(const_env, U0, U0)
    assert e[0] == pytest.approx(6.0)


def test_capacity_values_and_monotonicity(env, const_env):
    U0 = SiteSet([[0, 0, 0]])
    assert capacity(const_env, U0, U0) == pytest.approx(6.0)
    B = ball([0, 0, 0], 2)
    assert capacity(env, U0, B) <= capacity(env, ball([0, 0, 0], 1), B) + 1e-12


def test_capacity_dense_oracle(const_env):
    A = ball([0, 0, 0], 1)
    B = ball([0, 0, 0], 8)
    cap = capacity(const_env, A, B)
    # cap = sum of L_B h over A via the dense operator
    h = harmonic_potential(const_env, A, B)
    L = killed_laplacian(const_env, B).toarray()
    assert abs(cap - h @ L @ h) < 1e-10
    assert 0 < cap <= 6.0 * len(A)


def test_variational_minimality(env):
    A = ball([0, 0, 0], 1)
    B = ball([0, 0, 0], 3)
    cap = capacity(env, A, B)
    rng = stream(4, "variational")
    in_A = A.contains_mask(B.coords)
    for _ in range(100):
        f = rng.standard_normal(len(B))
        f[in_A] = 1.0
        assert dirichlet_form(env, B, f) >= cap - 1e-10


def test_capacity_unkilled_approx():
    A = ball([0, 0, 0], 1)
    rep = capacity_unkilled_approx(LAW, 0.5, A, [3, 5, 7], seed=7)
    assert rep.monotone_ok
    assert rep.value == rep.values[-1]
    assert rep.error_bounds[0] > rep.error_bounds[-1] > 0
    # error bound decays like R^(2-d) in the distance
    dist = [r + 1 - 1 for r in [3, 5, 7]]
    implied = [b * d for b, d in zip(rep.error_bounds, dist)]
    # cap^2 shrinks too, so bound * dist is decreasing as well
    assert implied[0] > implied[-1]


def test_unkilled_singleton_green_identity(const_env):
    # cap_B({0}) * g_B(0, 0) = 1
    U0 = SiteSet([[0, 0, 0]])
    B = ball([0, 0, 0], 7)
    cap = capacity(const_env, U0, B)
    g00 = green_killed(const_env, B, "entry", x=[0, 0, 0], y=[0, 0, 0])
    assert cap * g00 == pytest.approx(1.0, abs=1e-10)


def test_dirichlet_form_basics(env, const_env):
    U0 = SiteSet([[0, 0, 0]])
    assert dirichlet_form(const_env, U0, np.ones(1)) == pytest.approx(6.0)
    B = ball([0, 0, 0], 3)
    assert dirichlet_form(env, B, np.full(len(B), 2.5)) > 0  # boundary edges count
    rng = stream(5, "forms")
    f1, f2, g1 = rng.standard_normal((3, len(B)))
    lhs = dirichlet_form(env, B, f1 + f2, g1)
    rhs = dirichlet_form(env, B, f1, g1) + dirichlet_form(env, B, f2, g1)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_dirichlet_form_is_killed_laplacian_form(env):
    # a box with a hole plus an isolated site: edges leave the set
    # outwards, into the hole and from the isolated site
    S = ball([0, 0, 0], 3).difference(ball([1, 0, 0], 1)).union(
        SiteSet([[6, 6, 6]]))
    L = killed_laplacian(env, S)
    f, g = stream(6, "forms-identity").standard_normal((2, len(S)))
    assert dirichlet_form(env, S, f, g) == pytest.approx(f @ L @ g, rel=1e-12)
    assert dirichlet_form(env, S, f) == pytest.approx(f @ L @ f, rel=1e-12)


def test_constant_function_gradient(env):
    # edges inside a constant region contribute nothing: compare a padded
    # constant against its energy from boundary edges only
    B = ball([0, 0, 0], 2)
    inner = ball([0, 0, 0], 1)
    f = np.zeros(len(B))
    f[B.locate(inner.coords)] = 3.0
    manual = 0.0
    for x in boundary(inner, "internal"):
        for a in range(3):
            for sgn in (1, -1):
                nb = np.asarray(x) + sgn * np.eye(3, dtype=np.int64)[a]
                if not inner.contains_mask(nb[None, :])[0]:
                    manual += env.edge_weight(x, nb) * 9.0
    assert dirichlet_form(env, B, f) == pytest.approx(manual)


def test_energy_W(env, const_env):
    U0 = SiteSet([[0, 0, 0]])
    assert energy_W(const_env, U0, np.array([1.0])) == pytest.approx(1.0 / 6.0)
    U = ball([0, 0, 0], 1)
    assert energy_W(env, U, np.zeros(len(U))) == 0.0
    h = stream(6, "W").standard_normal(len(U))
    dense = np.linalg.inv(killed_laplacian(env, U).toarray())
    assert abs(energy_W(env, U, h) - h @ dense @ h) < 1e-10


def test_energy_dirichlet_inequality(env):
    # |sum f h| <= W(h) E(f) shape: checked with the killed form
    U = ball([0, 0, 0], 2)
    rng = stream(7, "ineq")
    h = rng.standard_normal(len(U))
    W = energy_W(env, U, h)
    for _ in range(20):
        f = rng.standard_normal(len(U))
        lhs = abs(np.dot(f, h))
        # scale-invariant version: lhs^2 <= W * E(f)
        assert lhs ** 2 <= W * dirichlet_form(env, U, f) * (1 + 1e-9)


def test_last_exit_decomposition(env):
    A = ball([0, 0, 0], 1)
    B = ball([0, 0, 0], 3)
    h = harmonic_potential(env, A, B)
    e = equilibrium_measure(env, A, B, h=h)
    G = green_killed(env, B, "full_matrix")
    e_full = np.zeros(len(B))
    e_full[B.locate(A.coords)] = e
    assert np.abs(G @ e_full - h).max() < 1e-8


# -- heat kernel -------------------------------------------------------------


def test_poisson_truncation():
    with pytest.raises(ValueError):
        poisson_truncation(1.0, 0.0)
    assert poisson_truncation(0.0, 1e-12) == 0
    K = poisson_truncation(5.0, 1e-10)
    from scipy.stats import poisson
    assert poisson.sf(K, 5.0) < 1e-10


def test_heat_kernel_t0(env):
    U = ball([0, 0, 0], 1)
    q = heat_kernel_killed(env, U, 0.0, [0, 0, 0])
    omega = env.site_weights(U.coords)
    expected = np.zeros(len(U))
    expected[U.index_of([0, 0, 0])] = 1.0 / omega[U.index_of([0, 0, 0])]
    assert np.abs(q - expected).max() < 1e-15


def test_heat_kernel_single_state(env):
    U = SiteSet([[0, 0, 0]])
    t = 1.3
    q = heat_kernel_killed(env, U, t, [0, 0, 0])
    assert q[0] == pytest.approx(np.exp(-t) / env.site_weight([0, 0, 0]), rel=1e-12)


def test_heat_kernel_dense_oracle(env):
    U = ball([0, 0, 0], 1)
    t, tol = 2.1, 1e-12
    q = heat_kernel_killed(env, U, t, [1, 0, 0], tol=tol)
    omega = env.site_weights(U.coords)
    L = killed_laplacian(env, U).toarray()
    P = np.diag(1.0 / omega) @ (np.diag(omega) - L)
    oracle = sla.expm(t * (P - np.eye(len(U))))[U.index_of([1, 0, 0])] / omega
    assert np.abs(q - oracle).max() < tol
    # symmetry and sub-probability row mass
    q2 = heat_kernel_killed(env, U, t, [0, 1, 0], tol=tol)
    assert abs(q[U.index_of([0, 1, 0])] - q2[U.index_of([1, 0, 0])]) < 10 * tol
    assert (q * omega).sum() <= 1.0 + 1e-12


def test_heat_kernel_bad_tol(env):
    with pytest.raises(ValueError):
        heat_kernel_killed(env, ball([0, 0, 0], 1), 1.0, [0, 0, 0], tol=0.0)


# -- walks -------------------------------------------------------------------


def test_walk_exit_singleton(env):
    rules = StoppingRules(exit=SiteSet([[0, 0, 0]]))
    path = walk_simulate(env, [0, 0, 0], rules, stream(8, "walk"))
    assert path.stop_reason == "exit"
    assert len(path.skeleton) == 2
    assert np.abs(path.skeleton[1] - path.skeleton[0]).sum() == 1
    assert len(path.holding_times) == 1 and path.holding_times[0] > 0


def test_walk_requires_termination_rule():
    with pytest.raises(ValueError):
        StoppingRules(hit=SiteSet([[0, 0, 0]]))


def test_walk_radius_alone_terminates(const_env):
    path = walk_simulate(const_env, [0, 0, 0], StoppingRules(radius=2),
                         stream(16, "walk"))
    assert path.stop_reason == "radius"
    assert np.abs(path.skeleton[-1]).max() == 2
    assert np.abs(path.skeleton[:-1]).max() < 2


def test_stopping_rules_rank_hit_over_exit_over_radius():
    rules = StoppingRules(hit=SiteSet([[0, 0, 0], [3, 0, 0]]),
                          exit=ball([0, 0, 0], 2), radius=1)
    pos = np.array([[0, 0, 0], [3, 0, 0], [3, 3, 0], [1, 0, 0], [1, 0, 0]])
    origin = np.array([[0, 0, 0]] * 4 + [[1, 0, 0]])
    assert [STOPS[k] for k in rules.fired(pos, origin)] == [
        "hit", "hit", "exit", "radius", None]


def test_walk_hit_priority(env):
    A = SiteSet([[0, 0, 0]])
    rules = StoppingRules(hit=A, exit=ball([0, 0, 0], 3))
    path = walk_simulate(env, [0, 0, 0], rules, stream(9, "walk"))
    assert path.stop_reason == "hit" and len(path.skeleton) == 1


def test_walk_time_cap(env):
    rules = StoppingRules(time_cap=0.5)
    path = walk_simulate(env, [0, 0, 0], rules, stream(10, "walk"))
    assert path.stop_reason == "time_cap"
    assert path.total_time == pytest.approx(0.5)
    assert np.all(path.holding_times > 0)


def test_walk_neighbor_frequencies(const_env):
    rng = stream(11, "freq")
    counts = np.zeros(6)
    n = 12_000
    for _ in range(n):
        path = walk_simulate(const_env, [0, 0, 0],
                             StoppingRules(exit=SiteSet([[0, 0, 0]])), rng)
        step = path.skeleton[1]
        axis = int(np.nonzero(step)[0][0])
        counts[2 * axis + (0 if step[axis] > 0 else 1)] += 1
    se = np.sqrt((1 / 6) * (5 / 6) / n)
    assert np.abs(counts / n - 1 / 6).max() < 5 * se


def test_walk_vsrw_holding_rate(const_env):
    # VSRW at unit conductances holds for Exp(6): mean 1/6
    rng = stream(12, "vsrw")
    rules = StoppingRules(exit=ball([0, 0, 0], 4))
    totals = []
    for _ in range(4000):
        path = walk_simulate(const_env, [0, 0, 0], rules, rng, mode="vsrw")
        totals.append(path.holding_times[0])
    mean = np.mean(totals)
    assert abs(mean - 1 / 6) < 5 * np.std(totals) / np.sqrt(len(totals))


def test_hitting_frequency_cross_oracle(env):
    A = ball([0, 0, 0], 0)
    B = ball([0, 0, 0], 4)
    h = harmonic_potential(env, A, B)
    x = [2, 1, 0]
    freq, se = hitting_frequency(env, x, StoppingRules(hit=A, exit=B),
                                 stream(13, "hf"), 10_000)
    assert abs(freq - h[B.index_of(x)]) < 5 * se


def test_walk_window_edge_error():
    small = sample_environment(EnvironmentLaw.constant(1.0),
                               box_sites([-1] * 3, [1] * 3), 0, lam=0.5)
    rules = StoppingRules(time_cap=1e9)
    with pytest.raises(SolverError):
        walk_simulate(small, [0, 0, 0], rules, stream(14, "edge"))


def test_hitting_frequency_rejects_a_time_cap(env):
    rules = StoppingRules(hit=ball([0, 0, 0], 0), exit=ball([0, 0, 0], 3),
                          time_cap=5.0)
    with pytest.raises(ValueError):
        hitting_frequency(env, [1, 0, 0], rules, stream(18, "cap"), 10)


def test_hitting_frequency_window_edge_error():
    small = sample_environment(EnvironmentLaw.constant(1.0),
                               box_sites([-1] * 3, [1] * 3), 0, lam=0.5)
    rules = StoppingRules(hit=SiteSet([[5, 5, 5]]), radius=3)
    with pytest.raises(SolverError):
        hitting_frequency(small, [0, 0, 0], rules, stream(17, "edge"), 100)


# -- operator backends --------------------------------------------------------


def test_cg_backend_matches_direct(env):
    U = ball([0, 0, 0], 2)
    direct = DirichletOperator(env, U)
    direct._get_lu()
    assert direct.backend == "band"
    iterative = DirichletOperator(env, U)
    rhs = stream(15, "cg").standard_normal(len(U))
    x = iterative._pcg(rhs)
    assert iterative.backend == "cg"
    assert np.abs(direct.solve(rhs) - x).max() < 1e-8


def test_factor_free_draw_needs_no_factor(env, monkeypatch):
    U = ball([0, 0, 0], 2)
    op = DirichletOperator(env, U)

    def refuse():
        raise AssertionError("a factor-free draw must not factor")

    monkeypatch.setattr(op, "_get_lu", refuse)
    x = op.sample_factor_free(stream(16, "s"), 2)
    assert x.shape == (op.n, 2) and op._lu is None and op.backend == "cg"
    F = op._get_incidence()
    rhs = F.T @ stream(16, "s").standard_normal((F.shape[0], 2))
    residual = np.linalg.norm(op.matrix @ x - rhs, axis=0)
    assert np.all(residual <= CG_TOL * np.linalg.norm(rhs, axis=0))


def test_band_rule_outcomes():
    # (n, bw) of l-infinity boxes of side s: n = s^3, lexicographic bw = s^2
    assert not band_pays(43 ** 3, 43 ** 2, 1, False)  # one classify draw
    assert band_pays(25 ** 3, 25 ** 2, 500, False)  # a disconnect chunk
    assert band_pays(5 ** 3, 5 ** 2, 1, False)  # AC01's small boxes
    # bw = 1000: 200k sites are just over BAND_BYTES, 199k just under
    assert 199_000 * 1001 * 8 <= BAND_BYTES < 200_000 * 1001 * 8
    assert band_pays(199_000, 1000, 500, False)
    for count in (1, 500, 10 ** 9):
        assert not band_pays(200_000, 1000, count, False)
    assert band_pays(43 ** 3, 43 ** 2, 1, True)  # the factor already exists


def test_band_over_the_byte_budget_is_never_allocated():
    # two rows of M sites: (0, 0, z) and (1, 0, z) are M apart in site order
    M = 10_000
    U = SiteSet(np.concatenate([np.stack([np.full(M, a), np.zeros(M, int),
                                          np.arange(M)], axis=1) for a in (0, 1)]))
    thin = sample_environment(LAW, box_sites([-1, -1, -1], [2, 1, M]), seed=7, lam=0.5)
    op = DirichletOperator(thin, U)
    assert op.bandwidth == M and op.n * (M + 1) * 8 > BAND_BYTES
    with pytest.raises(SolverError):
        op._get_lu()
    x = op.sample_gaussian(stream(22, "thin"), 3)
    rhs = stream(22, "thin-rhs").standard_normal(op.n)
    residual = op.matrix @ op.solve(rhs) - rhs
    assert x.shape == (op.n, 3) and op._lu is None
    assert np.linalg.norm(residual) <= CG_TOL * np.linalg.norm(rhs)


def test_band_rule_picks_each_call_and_keeps_the_factor():
    wide = sample_environment(LAW, box_sites([-10] * 3, [10] * 3), seed=7, lam=0.5)
    op = DirichletOperator(wide, box_sites([-9] * 3, [9] * 3))
    assert not band_pays(op.n, op.bandwidth, 1, False)
    assert band_pays(op.n, op.bandwidth, 64, False)
    rhs = stream(19, "rule").standard_normal((op.n, 64))
    x = op.solve(rhs[:, 0])
    assert op._lu is None and op.backend == "cg"
    block = op.solve(rhs)
    assert op._lu is not None and op.backend == "band"
    assert np.abs(block[:, 0] - x).max() <= 1e-8 * np.abs(x).max()
    # one right-hand side now takes the factor too: agreement far below CG_TOL
    one = op.solve(rhs[:, 1])
    assert np.abs(one - block[:, 1]).max() <= 1e-14 * np.abs(one).max()


def test_many_rhs_band_solve_matches_dense(env):
    U = ball([0, 0, 0], 3)
    op = DirichletOperator(env, U)
    assert band_pays(op.n, op.bandwidth, 40, False)
    rhs = stream(21, "band-solve").standard_normal((op.n, 40))
    x = op.solve(rhs)
    assert op.backend == "band"
    dense = np.linalg.solve(op.matrix.toarray(), rhs)
    assert np.abs(x - dense).max() <= 1e-12 * np.abs(dense).max()


def _band_domains():
    B = ball([0, 0, 0], 3)
    return {
        "full_box": box_sites([0, 0, 0], [3, 3, 3]),
        "ball_with_holes": SiteSet(B.coords[np.abs(B.coords).sum(axis=1) % 5 != 2]),
        "single_site": SiteSet([[0, 0, 0]]),
        "isolated_sites": SiteSet([[0, 0, 0], [2, 0, 0], [0, 2, 2]]),
    }


@pytest.mark.parametrize("name", sorted(_band_domains()))
def test_blocked_back_substitution_matches_dense_and_dtbtrs(env, name):
    op = DirichletOperator(env, _band_domains()[name])
    R, n, bw = op._get_lu(), op.n, op.bandwidth
    if name == "full_box":
        assert bw > 0 and n % bw == 0
    elif name == "ball_with_holes":
        assert bw > 0 and n % bw != 0  # a partial top block
    else:
        assert bw == 0
    i, j = np.triu_indices(n)
    inside = j - i <= bw
    U = np.zeros((n, n))
    U[i[inside], j[inside]] = R[bw + i[inside] - j[inside], j[inside]]
    assert np.abs(U.T @ U - op.matrix.toarray()).max() < 1e-12
    for count in sorted({1, max(bw - 1, 1), 2 * bw + 3}):
        z = stream(17, name, count).standard_normal((n, count))
        x = z.copy()
        _band_back_substitute(R, x.T)
        dense = sla.solve_triangular(U, z)
        banded, info = lapack.dtbtrs(R, z, uplo="U", trans="N", diag="N")
        assert info == 0
        for ref in (dense, banded):
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        # the forward sweep solves with U^T on the same blocks
        x = z.copy()
        _band_forward_substitute(R, x.T)
        dense = sla.solve_triangular(U, z, trans="T")
        banded, info = lapack.dtbtrs(R, z, uplo="U", trans="T", diag="N")
        assert info == 0
        for ref in (dense, banded):
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


def test_band_solve_with_a_partial_block_and_one_rhs_matches_dense(env):
    op = DirichletOperator(env, _band_domains()["ball_with_holes"])
    op._get_lu()
    assert op.n % op.bandwidth != 0
    dense_op = op.matrix.toarray()
    rng = stream(20, "band-solve")
    for rhs in (rng.standard_normal(op.n), rng.standard_normal((op.n, 1)),
                rng.standard_normal((op.n, 2 * op.bandwidth + 3))):
        kept = rhs.copy()
        x = op.solve(rhs)
        assert op.backend == "band"
        assert x.shape == rhs.shape and np.array_equal(rhs, kept)
        dense = np.linalg.solve(dense_op, rhs)
        assert np.abs(x - dense).max() <= 1e-12 * np.abs(dense).max()


def test_sample_gaussian_reproducible_and_guarded(env):
    op = DirichletOperator(env, _band_domains()["ball_with_holes"])
    a = op.sample_gaussian(stream(18, "s"), 7)
    assert op.backend == "band"
    b = op.sample_gaussian(stream(18, "s"), 7)
    assert a.shape == (op.n, 7) and a.tobytes() == b.tobytes()
    assert op.sample_gaussian(stream(18, "s"), 0).shape == (op.n, 0)
    op._lu = op._get_lu().copy(order="F")
    op._lu[-1, 5] = 0.0
    with pytest.raises(SolverError):
        op.sample_gaussian(stream(18, "s"), 1)


def test_boundary_flux_rhs_is_a_killed_laplacian_block(env):
    # rhs = -L_V[U, D \ U] v with V = U u D: U has a hole at the origin, the
    # data sit in the hole, beyond every face and on U itself (unused there)
    U = ball([0, 0, 0], 2).difference(SiteSet([[0, 0, 0]]))
    outer = ball([0, 0, 0], 3)
    keep = stream(30, "flux-sites").random(len(outer)) < 0.6
    D = SiteSet(np.vstack([outer.coords[keep], [[0, 0, 0]], 3 * neighbor_steps(3)]))
    V = U.union(D)
    L = killed_laplacian(env, V).toarray()
    ext = D.difference(U)
    block = -L[np.ix_(V.locate(U.coords), V.locate(ext.coords))]
    v = stream(30, "flux-values").standard_normal((len(D), 2))
    expect = block @ v[D.locate(ext.coords)]
    for values, ref in ((v, expect), (v[:, 1], expect[:, 1])):
        rhs = boundary_flux_rhs(env, U, D, values)
        assert rhs.shape == ref.shape
        assert np.abs(rhs - ref).max() <= 1e-12 * np.abs(ref).max()


def test_jump_rule_at_cumulative_weight_boundaries():
    # dyadic weights, so the cumulative sums c_m and omega = c_5 are exact
    w = np.array([0.5, 0.25, 1.0, 0.125, 0.75, 0.375])
    c = np.cumsum(w)
    u = np.concatenate([[0.0], c[:-1], c[:-1] - 2.0 ** -10, [c[-1]]])
    step = np.concatenate([[0], np.arange(1, 6), np.arange(5), [5]])
    pos = np.tile([2, -1, 0], (len(u), 1))
    moved = _jump(pos, np.tile(w, (len(u), 1)), u)
    assert np.array_equal(moved, pos + neighbor_steps(3)[step])


def test_incidence_factor_identity(env):
    U = ball([0, 0, 0], 2)
    op = DirichletOperator(env, U)
    F = op._get_incidence()
    assert np.abs((F.T @ F - op.matrix).toarray()).max() < 1e-12


def test_vector_text_dump_round_trip(env, tmp_path):
    from gfflab.potential import dump_vector, load_vector
    U = ball([0, 0, 0], 1)
    vals = stream(20, "dump").standard_normal(len(U))
    path = tmp_path / "vec.txt"
    dump_vector(path, U, vals)
    assert np.array_equal(load_vector(path), vals)
