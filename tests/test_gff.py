import numpy as np
import pytest
from scipy.stats import kstest, norm

from gfflab.environment import EnvironmentLaw, sample_environment
from gfflab.gff import (
    BoxCollection,
    decompose_matrix,
    sample_gff,
    sample_matrix,
    tilt_log_weights,
)
from gfflab.lattice import SiteSet, ball, box_sites
from gfflab.potential import DirichletOperator, as_operator, green_killed
from gfflab.streams import stream

LAW = EnvironmentLaw.iid_uniform(0.5, 1.0)


@pytest.fixture(scope="module")
def env():
    return sample_environment(LAW, box_sites([-8] * 3, [8] * 3), seed=7, lam=0.5)


def _cov_se(G, n):
    return np.sqrt((np.outer(np.diag(G), np.diag(G)) + G ** 2) / n)


def test_sampler_moments(env):
    U = ball([0, 0, 0], 1)
    op = DirichletOperator(env, U)
    n = 20_000
    S = op.sample_gaussian(stream(1, "cov"), n)
    G = green_killed(env, U, "full_matrix", op=op)
    mean_se = np.sqrt(np.diag(G) / n)
    assert np.abs(S.mean(axis=1) / mean_se).max() < 5
    emp = (S @ S.T) / n
    assert (np.abs(emp - G) / _cov_se(G, n)).max() < 5


def test_sampler_deterministic(env):
    U = ball([0, 0, 0], 1)
    a = sample_gff(env, U, 3, seed=42)
    b = sample_gff(env, U, 3, seed=42)
    for s1, s2 in zip(a, b):
        assert np.array_equal(s1.values, s2.values)
    c = sample_gff(env, U, 3, seed=43)
    assert not np.array_equal(a[0].values, c[0].values)


def test_sampler_ks(env):
    U = ball([0, 0, 0], 2)
    op = DirichletOperator(env, U)
    n = 5000
    S = op.sample_gaussian(stream(2, "ks"), n)
    G_diag = np.array([green_killed(env, U, "entry", x=s, y=s, op=op) for s in
                       [U.site_of(i) for i in [0, 17, 54, 62, 80, 99, 100, 110, 120, 124]]])
    idx = [0, 17, 54, 62, 80, 99, 100, 110, 120, 124]
    for k, i in enumerate(idx):
        stat = kstest(S[i] / np.sqrt(G_diag[k]), "norm")
        assert stat.pvalue >= 0.01


def test_incidence_sampler_law(env):
    # the factor-free draw L_U^{-1} F^T z produces the same law
    U = ball([0, 0, 0], 1)
    op = DirichletOperator(env, U)
    n = 20_000
    S = op.sample_factor_free(stream(3, "inc"), n)
    assert op._lu is None
    G = green_killed(env, U, "full_matrix")
    assert (np.abs(S @ S.T / n - G) / _cov_se(G, n)).max() < 5


def test_decompose_fields(env):
    U = ball([0, 0, 0], 2)
    inner = ball([0, 0, 0], 1)
    phi = sample_gff(env, U, 1, seed=5)[0]
    xi, psi = decompose_matrix(env, U, inner, phi.values)
    out = ~inner.contains_mask(U.coords)
    assert np.all(psi[out] == 0.0)
    assert np.allclose(xi[out], phi.values[out])
    assert np.allclose(xi + psi, phi.values)


def test_decompose_constant_field(env):
    U = ball([0, 0, 0], 2)
    inner = ball([0, 0, 0], 1)
    xi, psi = decompose_matrix(env, U, inner, np.full(len(U), 2.2))
    assert np.abs(xi - 2.2).max() < 1e-10
    assert np.abs(psi).max() < 1e-10


def test_decompose_boundary_guard(env):
    U = ball([0, 0, 0], 2)
    phi = sample_gff(env, U, 1, seed=5)[0]
    with pytest.raises(ValueError):
        # the boundary of U' touches the domain boundary
        decompose_matrix(env, U, U, phi.values)
    with pytest.raises(ValueError):
        decompose_matrix(env, U, ball([9, 9, 9], 1), phi.values)


def test_domain_markov_covariances(env):
    U = ball([0, 0, 0], 2)
    inner = ball([0, 0, 0], 1)
    op = DirichletOperator(env, U)
    n = 20_000
    phis = op.sample_gaussian(stream(6, "dm"), n)
    xi, psi = decompose_matrix(env, U, inner, phis)
    ii = U.locate(inner.coords)
    Gin = green_killed(env, inner, "full_matrix")
    emp = psi[ii] @ psi[ii].T / n
    assert (np.abs(emp - Gin) / _cov_se(Gin, n)).max() < 5
    # psi independent of the field outside the subdomain
    out_idx = np.nonzero(~inner.contains_mask(U.coords))[0]
    G = green_killed(env, U, "full_matrix", op=op)
    cross = psi[ii] @ phis[out_idx].T / n
    cross_se = np.sqrt(np.outer(np.diag(Gin), np.diag(G)[out_idx]) / n)
    assert (np.abs(cross) / cross_se).max() < 5


def _tilted(env, U, f, count, seed, op=None):
    """Draws of phi + f on the "gff-tilted" stream, (n, count), and their
    log-weights, built as the disconnection pipeline builds them."""
    op = as_operator(env, U, op)
    shifted = sample_matrix(env, U, count, stream(seed, "gff-tilted"), op=op)
    shifted += f[:, None]
    return shifted, tilt_log_weights(env, U, f, shifted, op=op)


def test_tilted_sample_mean_and_weights(env):
    U = ball([0, 0, 0], 1)
    f = np.zeros(len(U))
    f[U.index_of([0, 0, 0])] = 0.8
    f[U.index_of([1, 0, 0])] = -0.3
    n = 6000
    vals, _ = _tilted(env, U, f, n, seed=9)
    mean_se = vals.std(axis=1, ddof=1) / np.sqrt(n)
    assert (np.abs(vals.mean(axis=1) - f) / np.maximum(mean_se, 1e-12)).max() < 5


def test_tilt_zero_is_plain(env):
    U = ball([0, 0, 0], 1)
    tilted, logw = _tilted(env, U, np.zeros(len(U)), 50, seed=10)
    assert np.all(logw == 0.0)
    plain = sample_matrix(env, U, 50, stream(10, "gff-tilted"))
    assert np.array_equal(plain, tilted)


def test_importance_identity(env):
    # reweighted tilted estimator reproduces the plain probability; the
    # tilt is kept gentle (small energy) so the weights are well behaved
    U = ball([0, 0, 0], 1)
    op = DirichletOperator(env, U)
    f = 0.15 * np.ones(len(U))
    n = 8000
    vals, logw = _tilted(env, U, f, n, seed=11, op=op)
    w = np.exp(logw)
    i0 = U.index_of([0, 0, 0])
    est_terms = w * (vals[i0] <= 0.0)
    est = est_terms.mean()
    se = est_terms.std(ddof=1) / np.sqrt(n)
    g00 = green_killed(env, U, "entry", x=[0, 0, 0], y=[0, 0, 0], op=op)
    exact = norm.cdf(0.0, scale=np.sqrt(g00))
    assert abs(est - exact) <= 3 * se + 1e-3


def test_two_estimator_agreement(env):
    # IS vs direct Monte Carlo on a half-space event, 4^3-scale box
    U = box_sites([-1, -1, -1], [2, 2, 2])
    op = DirichletOperator(env, U)
    f = 0.1 * np.ones(len(U))
    n = 10_000
    vals, logw = _tilted(env, U, f, n, seed=12, op=op)
    w = np.exp(logw)
    i0 = U.index_of([0, 0, 0])
    is_terms = w * (vals[i0] <= 0.0)
    direct = sample_matrix(env, U, n, stream(13, "direct"), op=op)[i0] <= 0.0
    se = np.hypot(is_terms.std(ddof=1) / np.sqrt(n),
                  direct.std(ddof=1) / np.sqrt(n))
    assert abs(is_terms.mean() - direct.mean()) <= 3 * se


def test_log_weight_formula(env):
    U = ball([0, 0, 0], 1)
    op = DirichletOperator(env, U)
    f = stream(14, "lw").standard_normal(len(U)) * 0.2
    samples = op.sample_gaussian(stream(15, "lw2"), 4) + f[:, None]
    lw = tilt_log_weights(env, U, f, samples, op=op)
    from gfflab.potential import dirichlet_form
    for j in range(4):
        manual = -dirichlet_form(env, U, f, samples[:, j]) + \
            0.5 * dirichlet_form(env, U, f, f)
        assert lw[j] == pytest.approx(manual, rel=1e-10)


# -- box collections ----------------------------------------------------------


def test_box_collection_validation():
    with pytest.raises(ValueError):
        BoxCollection(L=2, K=4, centers=((0, 0, 0),))  # U box must hold D box
    with pytest.raises(ValueError):
        BoxCollection(L=2, K=5, centers=((1, 0, 0),))  # off-lattice center
    coll = BoxCollection(L=2, K=5, centers=((0, 0, 0),))
    assert len(coll.box_B((0, 0, 0))) == 8
    assert len(coll.box_D((0, 0, 0))) == 14 ** 3
