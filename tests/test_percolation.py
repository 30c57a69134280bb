import threading

import numpy as np
import pytest
from scipy import ndimage
from scipy.stats import norm

from gfflab.environment import EnvironmentLaw, sample_environment
from gfflab import percolation
from gfflab.gff import (BoxCollection, FieldSample, decompose_matrix, sample_gff,
                        sample_matrix)
from gfflab.lattice import (SiteSet, ball, box_sites, empty_set, linf_sphere,
                            neighbor_steps)
from gfflab.percolation import (
    LevelSet,
    _big_components,
    _draw_blocks,
    _seed_clusters,
    classify_boxes,
    connectivity_function,
    crossing_probability,
    decoupling_check,
    is_connected,
    level_set,
    threshold_event,
)
from gfflab.potential import DirichletOperator, SolverError, green_killed
from gfflab.streams import stream

LAW = EnvironmentLaw.iid_uniform(0.5, 1.0)


@pytest.fixture(scope="module")
def env():
    return sample_environment(LAW, box_sites([-12] * 3, [12] * 3), seed=7, lam=0.5)


def test_draw_blocks_split_replicas_like_successive_sample_calls(env):
    U = ball([0, 0, 0], 2)
    op = DirichletOperator(env, U)
    rng = stream(5, "blocks")
    tagged = list(_draw_blocks(op, [(rng, 7)], 3))
    assert [i for i, _ in tagged] == [0, 0, 0]
    blocks = [b for _, b in tagged]
    assert [b.shape for b in blocks] == [(len(U), 3), (len(U), 3), (len(U), 1)]
    twin = stream(5, "blocks")
    for b, k in zip(blocks, (3, 3, 1)):
        assert np.array_equal(b, sample_matrix(env, U, k, twin, op=op))
    assert rng.bit_generator.state == twin.bit_generator.state
    assert list(_draw_blocks(op, [(stream(5, "blocks"), 0)], 3)) == []
    assert [b.shape[1] for _, b in
            _draw_blocks(op, [(stream(5, "blocks"), 4)], 8)] == [4]
    # two streams: every block of the first, then every block of the
    # second, each equal to the draw from its own serial twin
    tagged = list(_draw_blocks(op, [(stream(5, "a"), 5), (stream(5, "b"), 4)], 3))
    assert [(i, b.shape[1]) for i, b in tagged] == [(0, 3), (0, 2), (1, 3), (1, 1)]
    twins = [stream(5, "a"), stream(5, "b")]
    for i, b in tagged:
        assert np.array_equal(b, sample_matrix(env, U, b.shape[1], twins[i], op=op))


def test_draw_blocks_surfaces_a_worker_failure_and_joins_on_close(env, monkeypatch):
    op = DirichletOperator(env, ball([0, 0, 0], 2))
    factored_on = []
    real_lu = DirichletOperator._get_lu

    def recording(self):
        if self._lu is None:
            factored_on.append(threading.current_thread())
        return real_lu(self)

    monkeypatch.setattr(DirichletOperator, "_get_lu", recording)
    baseline = threading.active_count()
    blocks = _draw_blocks(op, [(stream(5, "blocks"), 9)], 3)
    next(blocks)
    blocks.close()
    assert threading.active_count() == baseline
    assert factored_on == [threading.current_thread()]

    drawn_on = []
    real = DirichletOperator.sample_gaussian

    def failing(self, rng, count):
        drawn_on.append(threading.current_thread())
        if len(drawn_on) == 2:
            raise SolverError("second draw fails")
        return real(self, rng, count)

    monkeypatch.setattr(DirichletOperator, "sample_gaussian", failing)
    blocks = _draw_blocks(op, [(stream(5, "blocks"), 9)], 3)
    next(blocks)
    with pytest.raises(SolverError, match="second draw fails"):
        next(blocks)
    assert threading.active_count() == baseline
    # the worker, never the caller, draws
    assert len(drawn_on) == 2 and threading.current_thread() not in drawn_on


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
    # the clusters of l-infinity diameter >= min_diam, as one set
    assert _big_components(empty_set(3), 0).is_empty
    full = ball([0, 0, 0], 1)
    assert len(_big_components(full, 2)) == 27
    assert _big_components(full, 2.5).is_empty
    # diagonal neighbors do not connect: two clusters of diameter 0
    two = SiteSet([[0, 0, 0], [1, 1, 0]])
    assert len(_big_components(two, 0)) == 2
    assert _big_components(two, 1).is_empty


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


def test_connectivity_kernels_match_bfs_oracle(monkeypatch):
    rng = np.random.default_rng(2024)
    shape = (6, 5, 7)
    # 7 replicas labelled 3 per call: the last slice is partial
    monkeypatch.setattr(percolation, "LABEL_SITES", 3 * 6 * 5 * 7)
    box = [tuple(int(v) for v in x) for x in np.ndindex(*shape)]
    # non-box domain: the box with holes, plus sites that touch it only
    # diagonally or sit apart
    keep = [x for x in box if rng.random() > 0.15]
    extra = [(-1, -1, 0), (6, 5, 3), (-1, 2, -1), (9, 9, 9), (10, 9, 9)]
    dom = SiteSet(keep + extra)
    for alpha in (-0.6, 0.0, 0.3, 0.8):
        # replica-parallel kernel on a full box
        mask = rng.standard_normal((7,) + shape) >= alpha
        seed = tuple(rng.integers(0, n, 3) for n in shape)
        every = tuple(np.indices(shape).reshape(3, -1))
        cl = _seed_clusters(mask, seed, every).reshape(mask.shape)
        some = tuple(a[::3] for a in every)
        assert np.array_equal(_seed_clusters(mask, seed, some),
                              cl.reshape(7, -1)[:, ::3])
        seeds = set(zip(*(s.tolist() for s in seed)))
        for j in range(mask.shape[0]):
            want = np.zeros(shape, dtype=bool)
            for c in _bfs_clusters(x for x in box if mask[j][x]):
                if c & seeds:
                    want[tuple(np.array(sorted(c)).T)] = True
            assert np.array_equal(cl[j], want)
        # _big_components and is_connected on the non-box domain
        S = level_set(_field(dom, rng.standard_normal(len(dom))), alpha)
        clusters = _bfs_clusters(map(tuple, S.sites.coords.tolist()))
        want_label = -np.ones(len(dom), dtype=np.int64)
        diams = []
        for k, c in enumerate(clusters):
            pts = np.array(sorted(c))
            want_label[dom.locate(pts)] = k
            diams.append(int((pts.max(axis=0) - pts.min(axis=0)).max()))
        for min_diam in (0, 1, 2):
            big = _big_components(S.sites, min_diam)
            assert set(map(tuple, big.coords.tolist())) == {
                x for c, diam in zip(clusters, diams) if diam >= min_diam for x in c}
        for _ in range(5):
            H = SiteSet(dom.coords[rng.choice(len(dom), 3, replace=False)])
            K = SiteSet(dom.coords[rng.choice(len(dom), 3, replace=False)])
            hl = set(want_label[dom.locate(H.coords)].tolist()) - {-1}
            kl = set(want_label[dom.locate(K.coords)].tolist()) - {-1}
            assert is_connected(H, K, S) == bool(hl & kl)


@pytest.mark.parametrize("sites, calls", [(1, 7), (6 * 5 * 7 + 1, 7),
                                           (3 * 6 * 5 * 7, 3), (7 * 6 * 5 * 7, 1)])
def test_seed_clusters_does_not_depend_on_the_slice(monkeypatch, sites, calls):
    rng = np.random.default_rng(77)
    shape = (6, 5, 7)
    mask = rng.standard_normal((7,) + shape) >= 0.1
    seed = tuple(rng.integers(0, n, 4) for n in shape)
    target = tuple(rng.integers(0, n, 40) for n in shape)
    # reference: each replica labelled alone
    cross = ndimage.generate_binary_structure(3, 1)
    want = np.empty((7, 40), dtype=bool)
    for j in range(7):
        labels, _ = ndimage.label(mask[j], cross)
        hit = set(labels[seed].tolist()) - {0}
        want[j] = np.isin(labels[target], list(hit))
    real, sliced = ndimage.label, []

    def spy(block, structure):
        sliced.append(len(block))
        return real(block, structure)

    monkeypatch.setattr(percolation, "LABEL_SITES", sites)
    monkeypatch.setattr(ndimage, "label", spy)
    got = _seed_clusters(mask, seed, target)
    assert got.shape == (7, 40) and np.array_equal(got, want)
    assert len(sliced) == calls and sum(sliced) == 7
    assert 0 < want.sum() < want.size


def test_disconnection_event_cases():
    dom = ball([0, 0, 0], 3)
    A = SiteSet([[0, 0, 0]])
    S_N = linf_sphere(3, 3)
    # blocking shell of low values
    vals = np.ones(len(dom))
    vals[dom.locate(linf_sphere(2, 3).coords)] = -1.0
    assert not is_connected(A, S_N, level_set(_field(dom, vals), 0.0))
    assert is_connected(A, S_N, level_set(_field(dom, np.ones(len(dom))), 0.0))
    # alpha above the maximum empties the level set
    assert not is_connected(A, S_N, level_set(_field(dom, vals), 5.0))
    # alpha below the minimum connects everything
    assert is_connected(A, S_N, level_set(_field(dom, vals), -5.0))


def test_disconnection_monotone_in_alpha(env):
    dom = ball([0, 0, 0], 4)
    A = SiteSet([[0, 0, 0]])
    S_N = linf_sphere(4, 3)
    phi = sample_gff(env, dom, 1, seed=3)[0]
    flags = [not is_connected(A, S_N, level_set(phi, a))
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


def test_crossing_sweep_bisects_and_counts_like_a_per_level_loop(env, monkeypatch):
    # an unsorted grid with a repeated level; m = 6 levels need at most
    # ceil(log2(7)) = 3 labellings per replica
    alphas = [0.9, -50.0, 0.6, 0.6, 50.0, 0.0]
    x, replicas, seed = [0, 0, 0], 300, 13
    blocks, real_draw, real_kernel = [], percolation._draw_blocks, _seed_clusters

    def draw_spy(op, streams, chunk):
        for i, block in real_draw(op, streams, chunk):
            blocks.append([block.shape[1], 0])
            yield i, block

    def kernel_spy(mask, seed_sites, target):
        blocks[-1][1] += len(mask)
        return real_kernel(mask, seed_sites, target)

    monkeypatch.setattr(percolation, "_draw_blocks", draw_spy)
    monkeypatch.setattr(percolation, "_seed_clusters", kernel_spy)
    sweep = crossing_probability(env, alphas, [1, 2], x, replicas, seed)
    monkeypatch.undo()
    assert [k for k, _ in blocks] == [256, 44, 256, 44]
    assert all(k <= labelled <= 3 * k for k, labelled in blocks)
    cross = ndimage.generate_binary_structure(3, 1)
    for L in (1, 2):
        # per-level oracle on the same draws: every replica, every level
        domain = ball(x, 2 * L + 4)
        op = DirichletOperator(env, domain)
        rng = stream(seed, "crossing", L)
        rows = domain.locate(ball(x, 2 * L).coords)
        lo = np.subtract(x, 2 * L)
        inner = tuple((ball(x, L).coords - lo).T)
        outer = tuple((linf_sphere(2 * L, 3, center=x).coords - lo).T)
        hits = np.zeros(len(alphas), dtype=np.int64)
        for done in range(0, replicas, 256):
            block = sample_matrix(env, domain, min(256, replicas - done), rng, op=op)
            for col in block[rows].T:
                box = col.reshape((4 * L + 1,) * 3)
                for ia, av in enumerate(alphas):
                    labels, _ = ndimage.label(box >= av, cross)
                    hits[ia] += bool((set(labels[inner].tolist()) - {0})
                                     & set(labels[outer].tolist()))
        got = [r.estimate for r in sweep.estimates if r.L == L]
        assert got == (hits / replicas).tolist()
        assert [r.alpha for r in sweep.estimates if r.L == L] == alphas
        assert hits[1] == replicas and hits[4] == 0 and hits[2] == hits[3]
        assert 0 < hits[0] < hits[2] < replicas


def test_crossing_sweep_estimate_is_the_smallest_qualifying_level(env):
    # at this seed 0.3 does not decrease across L while 1.1 and 1.3 do;
    # an unsorted grid with a repeated level reports what the sorted one does
    for grid in ([0.3, 1.1, 1.3], [1.3, 1.1, 1.1, 0.3]):
        sweep = crossing_probability(env, grid, [2, 1], [0, 0, 0], 300, seed=4)
        p = {(r.alpha, r.L): r.estimate for r in sweep.estimates}
        assert p[0.3, 2] >= p[0.3, 1] and p[1.3, 2] < p[1.3, 1]
        assert sweep.alpha_double_star_estimate == 1.1


def test_crossing_padding_guard(env):
    with pytest.raises(ValueError):
        crossing_probability(env, 0.0, 10, [0, 0, 0], 10, seed=1)


def test_negative_padding_is_rejected(env):
    with pytest.raises(ValueError, match="padding must be nonnegative"):
        crossing_probability(env, 0.0, 2, [0, 0, 0], 10, seed=1, padding=-3)
    with pytest.raises(ValueError, match="padding must be nonnegative"):
        connectivity_function(env, 0.0, [0, 0, 0], [[-2, 0, 0]], 10, seed=1,
                              padding=-1)


def test_crossing_matches_the_event_on_the_whole_padded_domain(env):
    # oracle: redraw each replica's field on ball(x, 2L + padding) and
    # decide B(x, L) <-> sphere(x, 2L) over the whole padded domain
    x, padding, replicas, seed = [1, -2, 0], 3, 60, 11
    alphas = [0.5, 0.7, 0.9, 1.1]
    sweep = crossing_probability(env, alphas, [1, 2], x, replicas, seed,
                                 padding=padding)
    for L in (1, 2):
        domain = ball(x, 2 * L + padding)
        op = DirichletOperator(env, domain)
        rng = stream(seed, "crossing", L)
        inner, target = ball(x, L), linf_sphere(2 * L, 3, center=x)
        hits = dict.fromkeys(alphas, 0)
        for done in range(0, replicas, 256):
            block = sample_matrix(env, domain, min(256, replicas - done), rng, op=op)
            for col in block.T:
                for av in alphas:
                    hits[av] += is_connected(inner, target,
                                             level_set(_field(domain, col), av))
        got = {r.alpha: round(r.estimate * replicas)
               for r in sweep.estimates if r.L == L}
        assert got == hits
        assert 0 < min(hits.values()) < max(hits.values()) < replicas


def test_connectivity_function(env):
    rep = connectivity_function(env, 0.4, [0, 0, 0],
                                [[0, 0, 0], [1, 0, 0], [3, 0, 0], [5, 0, 0]],
                                replicas=4000, seed=5)
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
    op = DirichletOperator(envd, dom)  # one factor serves the six draws
    centers = ((0, 0, 0), (L, 0, 0))
    chain = BoxCollection(L=L, K=K, centers=centers)
    gamma, delta, a = -0.6, -0.8, 1.5
    found = 0
    for seed in range(6):
        phi = sample_gff(envd, dom, 1, seed=seed, op=op)[0]
        cls = classify_boxes(envd, phi, chain, gamma, delta, a)
        if all(cls.psi_good[z] and cls.xi_good[z] for z in centers):
            found += 1
            union_D = chain.box_D(centers[0]).union(chain.box_D(centers[1]))
            idx = dom.locate(union_D.coords)
            lev = LevelSet(union_D, delta - a, phi.values[idx] >= delta - a)
            assert is_connected(chain.box_B(centers[0]),
                                chain.box_B(centers[1]), lev)
    assert found >= 1  # the construction must actually fire


def _classify_each_box_alone(env, phi, grid, gamma, delta, a):
    """Reference flags: every box's clusters, a neighbor's included, are
    computed afresh from that box's own decomposition."""
    U, L = phi.sites, grid.L
    centers = [tuple(z) for z in grid.centers]

    def fields(z):
        xi, psi = decompose_matrix(env, U, grid.box_U(z), phi.values[:, None])
        return xi[:, 0], psi[:, 0]

    def clusters(z):
        B = grid.box_B(z)  # lexicographic coords: a C-order (L,)*d grid
        grid_mask = (fields(z)[1][U.locate(B.coords)] >= gamma).reshape((L,) * U.d)
        labels, _ = ndimage.label(grid_mask)
        big = [k + 1 for k, box in enumerate(ndimage.find_objects(labels))
               if max(s.stop - s.start for s in box) - 1 >= L / 10.0]
        return SiteSet(B.coords[np.isin(labels.ravel(), big)], U.d)

    psi_good, xi_good = {}, {}
    for z in centers:
        xi, psi = fields(z)
        D = grid.box_D(z)
        d_idx = U.locate(D.coords)
        xi_good[z] = bool(xi[d_idx].min() > -a)
        own = clusters(z)
        good = not own.is_empty
        lev = LevelSet(D, delta, psi[d_idx] >= delta)
        for step in neighbor_steps(U.d):
            nb = tuple(int(v) for v in np.add(z, L * step))
            if good and nb in centers:
                other = clusters(nb)
                good = not other.is_empty and is_connected(own, other, lev)
        psi_good[z] = good
    return psi_good, xi_good


def test_classify_finds_each_box_clusters_once(monkeypatch):
    L, K = 2, 5
    centers = ((0, 0, 0), (L, 0, 0), (2 * L, 0, 0))
    chain = BoxCollection(L=L, K=K, centers=centers)
    dom = box_sites([-11, -11, -11], [14, 11, 11])
    envd = sample_environment(LAW, dom, seed=18, lam=0.5)
    op = DirichletOperator(envd, dom)
    calls = []

    def spy(mask_sites, min_diam):
        calls.append(len(mask_sites))
        return _big_components(mask_sites, min_diam)

    flags = []
    for seed, gamma in ((0, -0.6), (1, 0.0), (2, 0.6)):
        phi = sample_gff(envd, dom, 1, seed=seed, op=op)[0]
        ref = _classify_each_box_alone(envd, phi, chain, gamma, gamma - 0.2, 1.5)
        monkeypatch.setattr(percolation, "_big_components", spy)
        calls.clear()
        cls = classify_boxes(envd, phi, chain, gamma, gamma - 0.2, 1.5)
        monkeypatch.undo()
        assert len(calls) == len(centers)
        assert (cls.psi_good, cls.xi_good) == ref
        flags += [cls.psi_good[z] for z in centers]
    assert any(flags) and not all(flags)  # both outcomes of the wiring test
