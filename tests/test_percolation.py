import numpy as np
import pytest
from scipy.stats import norm

from gfflab.environment import EnvironmentLaw, sample_environment
from gfflab.gff import BoxCollection, FieldSample, sample_gff
from gfflab.lattice import SiteSet, ball, box_sites, linf_sphere
from gfflab.percolation import (
    LevelSet,
    _seed_clusters,
    classify_boxes,
    components,
    connectivity_function,
    crossing_probability,
    decoupling_check,
    disconnection_event,
    is_connected,
    level_set,
    threshold_event,
)
from gfflab.potential import green_killed
from gfflab.streams import stream

LAW = EnvironmentLaw.iid_uniform(0.5, 1.0)


@pytest.fixture(scope="module")
def env():
    return sample_environment(LAW, box_sites([-12] * 3, [12] * 3), seed=7, lam=0.5)


def _field(domain, values):
    return FieldSample(domain, np.asarray(values, dtype=np.float64))


def test_level_set_extremes_and_monotone(env):
    U = ball([0, 0, 0], 1)
    phi = sample_gff(env, U, 1, seed=1)[0]
    assert level_set(phi, phi.values.min() - 1).mask.all()
    assert not level_set(phi, phi.values.max() + 1).mask.any()
    lo = level_set(phi, 0.1).mask
    hi = level_set(phi, 0.4).mask
    assert np.all(hi <= lo)


def test_components_cases():
    dom = ball([0, 0, 0], 1)
    empty = level_set(_field(dom, -np.ones(len(dom))), 0.0)
    assert components(empty).n_components == 0
    full = level_set(_field(dom, np.ones(len(dom))), 0.0)
    lab = components(full)
    assert lab.n_components == 1
    assert list(lab.sizes.values()) == [27]
    assert list(lab.diameters.values()) == [2]
    # diagonal neighbors do not connect
    two = SiteSet([[0, 0, 0], [1, 1, 0]])
    lab2 = components(level_set(_field(two, [1.0, 1.0]), 0.0))
    assert lab2.n_components == 2


def test_components_canonical_and_idempotent():
    dom = box_sites([0, 0, 0], [3, 0, 0])
    vals = np.array([1.0, 1.0, -1.0, 1.0])
    lab = components(level_set(_field(dom, vals), 0.0))
    assert lab.label.tolist() == [0, 0, -1, 3]
    lab2 = components(level_set(_field(dom, vals), 0.0))
    assert np.array_equal(lab.label, lab2.label)


def test_is_connected_conventions():
    dom = box_sites([0, 0, 0], [4, 0, 0])
    S = level_set(_field(dom, [1, 1, 1, -1, 1]), 0.0)
    a = SiteSet([[0, 0, 0]])
    b = SiteSet([[2, 0, 0]])
    c = SiteSet([[4, 0, 0]])
    assert is_connected(a, b, S)
    assert not is_connected(a, c, S)
    assert is_connected(a, b, S) == is_connected(b, a, S)
    # zero-length path: shared in-set site
    assert is_connected(a, a.union(b), S)
    # endpoints must lie in the set
    S2 = level_set(_field(dom, [-1, 1, 1, 1, 1]), 0.0)
    assert not is_connected(a, c, S2)


def _bfs_clusters(sites):
    """Oracle: nearest-neighbor clusters of a set of site tuples, by BFS."""
    left = set(sites)
    clusters = []
    while left:
        start = left.pop()
        cluster, todo = {start}, [start]
        while todo:
            x = todo.pop()
            for a in range(len(x)):
                for sgn in (1, -1):
                    y = x[:a] + (x[a] + sgn,) + x[a + 1:]
                    if y in left:
                        left.remove(y)
                        cluster.add(y)
                        todo.append(y)
        clusters.append(cluster)
    return clusters


def test_connectivity_kernels_match_bfs_oracle():
    rng = np.random.default_rng(2024)
    shape = (6, 5, 7)
    box = [tuple(int(v) for v in x) for x in np.ndindex(*shape)]
    # non-box domain: the box with holes, plus sites that touch it only
    # diagonally or sit apart
    keep = [x for x in box if rng.random() > 0.15]
    extra = [(-1, -1, 0), (6, 5, 3), (-1, 2, -1), (9, 9, 9), (10, 9, 9)]
    dom = SiteSet(keep + extra)
    for alpha in (-0.6, 0.0, 0.3, 0.8):
        # replica-parallel kernel on a full box
        mask = rng.standard_normal((4,) + shape) >= alpha
        seed = tuple(rng.integers(0, n, 3) for n in shape)
        cl = _seed_clusters(mask.copy(), seed)
        seeds = set(zip(*(s.tolist() for s in seed)))
        for j in range(mask.shape[0]):
            want = np.zeros(shape, dtype=bool)
            for c in _bfs_clusters(x for x in box if mask[j][x]):
                if c & seeds:
                    want[tuple(np.array(sorted(c)).T)] = True
            assert np.array_equal(cl[j], want)
        # components() and is_connected on the non-box domain
        S = level_set(_field(dom, rng.standard_normal(len(dom))), alpha)
        lab = components(S)
        want_label = -np.ones(len(dom), dtype=np.int64)
        sizes, diams = {}, {}
        for c in _bfs_clusters(map(tuple, S.sites.coords.tolist())):
            pts = np.array(sorted(c))
            idx = dom.locate(pts)
            canon = int(idx.min())
            want_label[idx] = canon
            sizes[canon] = len(c)
            diams[canon] = int((pts.max(axis=0) - pts.min(axis=0)).max())
        assert np.array_equal(lab.label, want_label)
        assert lab.sizes == sizes and lab.diameters == diams
        for _ in range(5):
            H = SiteSet(dom.coords[rng.choice(len(dom), 3, replace=False)])
            K = SiteSet(dom.coords[rng.choice(len(dom), 3, replace=False)])
            hl = set(want_label[dom.locate(H.coords)].tolist()) - {-1}
            kl = set(want_label[dom.locate(K.coords)].tolist()) - {-1}
            assert is_connected(H, K, S) == bool(hl & kl)


def test_disconnection_event_cases():
    dom = ball([0, 0, 0], 3)
    A = SiteSet([[0, 0, 0]])
    S_N = linf_sphere(3, 3)
    # blocking shell of low values
    vals = np.ones(len(dom))
    vals[dom.locate(linf_sphere(2, 3).coords)] = -1.0
    assert disconnection_event(_field(dom, vals), 0.0, A, S_N)
    assert not disconnection_event(_field(dom, np.ones(len(dom))), 0.0, A, S_N)
    # alpha above the maximum empties the level set
    assert disconnection_event(_field(dom, vals), 5.0, A, S_N)
    # alpha below the minimum connects everything
    assert not disconnection_event(_field(dom, vals), -5.0, A, S_N)
    with pytest.raises(ValueError):
        disconnection_event(_field(dom, vals), 0.0, ball([0, 0, 0], 9), S_N)


def test_disconnection_monotone_in_alpha(env):
    dom = ball([0, 0, 0], 4)
    A = SiteSet([[0, 0, 0]])
    S_N = linf_sphere(4, 3)
    phi = sample_gff(env, dom, 1, seed=3)[0]
    flags = [disconnection_event(phi, a, A, S_N)
             for a in np.linspace(-2, 2, 17)]
    # once disconnected, raising the level keeps it disconnected
    assert flags == sorted(flags)


def test_crossing_probability_extremes_and_monotone(env):
    one = crossing_probability(env, -50.0, 2, [0, 0, 0], 100, seed=1)
    zero = crossing_probability(env, 50.0, 2, [0, 0, 0], 100, seed=1)
    assert one.estimate == 1.0 and zero.estimate == 0.0
    sweep = crossing_probability(env, [0.0, 0.4, 0.8, 1.2], [2], [0, 0, 0],
                                 500, seed=2)
    vals = [r.estimate for r in sweep.estimates]
    assert all(vals[i + 1] <= vals[i] for i in range(len(vals) - 1))


def test_crossing_sweep_reports_grid(env):
    sweep = crossing_probability(env, [0.2, 0.6], [1, 2], [0, 0, 0], 300, seed=4)
    assert len(sweep.estimates) == 4
    assert sweep.alpha_grid == [0.2, 0.6] and sweep.L_grid == [1, 2]
    if sweep.alpha_double_star_estimate is not None:
        assert sweep.alpha_double_star_estimate in sweep.alpha_grid


def test_crossing_sweep_ties_are_not_a_decrease(env):
    # every estimate is 1 at alpha = -50 and 0 at alpha = 50: nothing
    # strictly decreases across L, so no grid alpha qualifies
    sweep = crossing_probability(env, [-50.0, 50.0], [1, 2], [0, 0, 0], 50, seed=1)
    assert [r.estimate for r in sweep.estimates] == [1.0, 0.0, 1.0, 0.0]
    assert sweep.alpha_double_star_estimate is None


def test_crossing_padding_guard(env):
    with pytest.raises(ValueError):
        crossing_probability(env, 0.0, 10, [0, 0, 0], 10, seed=1)


def test_connectivity_function(env):
    rep = connectivity_function(env, 0.4, [0, 0, 0],
                                [[0, 0, 0], [1, 0, 0], [3, 0, 0], [5, 0, 0]],
                                L=4, replicas=4000, seed=5)
    ests = {e.z: (e.estimate, e.se) for e in rep.estimates}
    p0, se0 = ests[(0, 0, 0)]
    # z = 0 reduces to the Gaussian one-point marginal
    dom = ball([0, 0, 0], 5 + 4)
    g00 = green_killed(env, dom, "entry", x=[0, 0, 0], y=[0, 0, 0])
    exact = norm.sf(0.4 / np.sqrt(g00))
    assert abs(p0 - exact) <= 3 * se0 + 1e-3
    # connectivity cannot exceed the one-point probability
    for z, (p, _) in ests.items():
        assert p <= p0 + 1e-12
    assert rep.decay_rate is None or rep.decay_rate > 0


def test_classify_boxes_synthetic(env):
    # fields built by hand: psi-values come from the decomposition of the
    # constructed sample, so drive the classification through phi directly
    L, K = 4, 5
    dom = box_sites([-24] * 3, [24] * 3)
    envd = sample_environment(LAW, dom, seed=9, lam=0.5)
    grid = BoxCollection(L=L, K=K, centers=((0, 0, 0),))
    # very high field: giant cluster at any level, xi stays near phi
    hi = _field(dom, np.full(len(dom), 10.0))
    cls = classify_boxes(envd, hi, grid, gamma=0.5, delta=0.25, a=1.0)
    # harmonic average of a constant 10 is 10 > -a, so xi-good holds
    assert cls.xi_good[(0, 0, 0)] is True
    # psi of a constant field is ~0 everywhere: no cluster at gamma=0.5
    assert cls.psi_good[(0, 0, 0)] is False
    # zero field: xi == 0 > -a, psi == 0 fails the cluster condition
    zero = _field(dom, np.zeros(len(dom)))
    cls0 = classify_boxes(envd, zero, grid, gamma=0.5, delta=0.25, a=1.0)
    assert cls0.xi_good[(0, 0, 0)] is True
    assert cls0.psi_good[(0, 0, 0)] is False
    with pytest.raises(ValueError):
        classify_boxes(envd, zero, grid, gamma=0.2, delta=0.5, a=1.0)


def test_classify_boxes_cluster_condition(env):
    # real sample at a low gamma: the psi cluster condition is the only
    # discriminating clause for a single box with no neighbors
    L, K = 4, 5
    dom = box_sites([-20] * 3, [20] * 3)
    envd = sample_environment(LAW, dom, seed=10, lam=0.5)
    grid = BoxCollection(L=L, K=K, centers=((0, 0, 0),))
    phi = sample_gff(envd, dom, 1, seed=6)[0]
    cls = classify_boxes(envd, phi, grid, gamma=-3.0, delta=-3.5, a=50.0)
    assert cls.psi_good[(0, 0, 0)] is True  # level set is the whole box
    assert cls.xi_good[(0, 0, 0)] is True


def test_decoupling_single_site_events(env):
    dom = box_sites([0, 0, 0], [9, 9, 9])
    envd = sample_environment(LAW, dom, seed=11, lam=0.5)
    K1 = SiteSet([[1, 1, 1]])
    K2 = SiteSet([[8, 8, 8]])
    e1 = threshold_event(dom, K1, 0.0)
    e2 = threshold_event(dom, K2, 0.0)
    rep = decoupling_check(envd, dom, K1, K2, delta=0.2, event1=e1, event2=e2,
                           replicas=30_000, seed=12)
    assert rep.bad_method == "exact-single-site"
    assert rep.holds_upper and rep.holds_lower
    assert rep.p2_minus <= rep.p2_plus  # increasing event, shifted field


def test_decoupling_full_event(env):
    dom = box_sites([0, 0, 0], [7, 7, 7])
    envd = sample_environment(LAW, dom, seed=13, lam=0.5)
    K1 = SiteSet([[1, 1, 1]])
    K2 = SiteSet([[6, 6, 6]])
    e1 = threshold_event(dom, K1, 0.0)

    def always(fields):
        return np.ones(fields.shape[1], dtype=bool)

    rep = decoupling_check(envd, dom, K1, K2, delta=0.3, event1=e1,
                           event2=always, replicas=5000, seed=14)
    # E2 certain: joint = E[f1], products = E[f1] up to the bad term
    assert rep.p2_minus == 1.0 and rep.p2_plus == 1.0
    assert rep.holds_upper and rep.holds_lower


def test_decoupling_overlap_guard(env):
    dom = box_sites([0, 0, 0], [5, 5, 5])
    envd = sample_environment(LAW, dom, seed=15, lam=0.5)
    K = SiteSet([[1, 1, 1]])
    e = threshold_event(dom, K, 0.0)
    with pytest.raises(ValueError):
        decoupling_check(envd, dom, K, K, 0.1, e, e, 10, seed=1)


def test_classification_deterministic(env):
    dom = box_sites([-20] * 3, [20] * 3)
    envd = sample_environment(LAW, dom, seed=16, lam=0.5)
    grid = BoxCollection(L=4, K=5, centers=((0, 0, 0),))
    phi = sample_gff(envd, dom, 1, seed=17)[0]
    a = classify_boxes(envd, phi, grid, gamma=-0.2, delta=-0.4, a=1.0)
    b = classify_boxes(envd, phi, grid, gamma=-0.2, delta=-0.4, a=1.0)
    assert a.psi_good == b.psi_good and a.xi_good == b.xi_good


def test_good_chain_implies_level_path(env):
    # along a chain of boxes that are psi-good and xi-good, the level set
    # at delta - a carries a path between the end boxes within the D-boxes
    L, K = 4, 5
    dom = box_sites([-24, -20, -20], [28, 20, 20])
    envd = sample_environment(LAW, dom, seed=18, lam=0.5)
    grid = BoxCollection(L=L, K=K, centers=((0, 0, 0), (4 * K + 1) * L * np.eye(3, dtype=int)[0]))
    # adjacent chain needs unseparated boxes: build it directly instead
    centers = ((0, 0, 0), (L, 0, 0))
    chain = BoxCollection.__new__(BoxCollection)
    object.__setattr__(chain, "L", L)
    object.__setattr__(chain, "K", K)
    object.__setattr__(chain, "centers", centers)
    gamma, delta, a = -0.6, -0.8, 1.5
    found = 0
    for seed in range(6):
        phi = sample_gff(envd, dom, 1, seed=seed)[0]
        cls = classify_boxes(envd, phi, chain, gamma, delta, a)
        if all(cls.psi_good[z] and cls.xi_good[z] for z in centers):
            found += 1
            union_D = chain.box_D(centers[0]).union(chain.box_D(centers[1]))
            idx = dom.locate(union_D.coords)
            lev = LevelSet(union_D, delta - a, phi.values[idx] >= delta - a)
            assert is_connected(chain.box_B(centers[0]),
                                chain.box_B(centers[1]), lev)
    assert found >= 1  # the construction must actually fire
