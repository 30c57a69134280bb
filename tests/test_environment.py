import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfflab.environment import Conductances, EnvironmentLaw, sample_environment
from gfflab.interfaces import PorousInterface, check_porous_interface
from gfflab.lattice import SiteSet, ball, box_sites, neighbor_steps
from gfflab.percolation import connectivity_function, crossing_probability

WINDOW = box_sites([-3, -3, -3], [3, 3, 3])

LAWS = [
    EnvironmentLaw.constant(1.0),
    EnvironmentLaw.constant(0.5),
    EnvironmentLaw.iid_uniform(0.5, 1.0),
    EnvironmentLaw.iid_two_point(0.5, 1.0, 0.3),
    EnvironmentLaw.checkerboard(0.5, 1.0),
]


@pytest.mark.parametrize("law", LAWS)
def test_uniform_ellipticity(law):
    env = sample_environment(law, WINDOW, seed=7, lam=0.5)
    for a in range(3):
        assert env.weights[a].min() >= 0.5
        assert env.weights[a].max() <= 1.0


@given(st.integers(0, 2 ** 32), st.sampled_from(range(len(LAWS))))
@settings(max_examples=15, deadline=None)
def test_ellipticity_property(seed, law_idx):
    env = sample_environment(LAWS[law_idx], box_sites([-1, -1, -1], [1, 1, 1]),
                             seed=seed, lam=0.5)
    for a in range(3):
        assert env.weights[a].min() >= 0.5 and env.weights[a].max() <= 1.0


def test_law_parameter_validation():
    with pytest.raises(ValueError):
        sample_environment(EnvironmentLaw.iid_uniform(0.2, 1.0), WINDOW, 0, lam=0.5)
    with pytest.raises(ValueError):
        sample_environment(EnvironmentLaw.constant(1.5), WINDOW, 0, lam=0.5)
    with pytest.raises(ValueError):
        EnvironmentLaw.iid_two_point(0.5, 1.0, 1.5)


def test_constant_and_two_point_degenerate():
    env = sample_environment(EnvironmentLaw.constant(1.0), WINDOW, 3, lam=0.5)
    assert env.site_weight([0, 0, 0]) == 6.0
    envl = sample_environment(EnvironmentLaw.constant(0.5), WINDOW, 3, lam=0.5)
    assert envl.site_weight([0, 0, 0]) == pytest.approx(3.0)
    deg = sample_environment(EnvironmentLaw.iid_two_point(0.5, 1.0, 0.0),
                             WINDOW, 3, lam=0.5)
    assert np.all(deg.weights[0] == 0.5)


def test_symmetry_of_edge_query():
    env = sample_environment(EnvironmentLaw.iid_uniform(0.5, 1.0), WINDOW, 5, lam=0.5)
    for x, y in [([0, 0, 0], [1, 0, 0]), ([1, 2, -1], [1, 1, -1])]:
        assert env.edge_weight(x, y) == env.edge_weight(y, x)
    with pytest.raises(ValueError):
        env.edge_weight([0, 0, 0], [1, 1, 0])


def test_seed_and_window_consistency():
    law = EnvironmentLaw.iid_uniform(0.5, 1.0)
    a = sample_environment(law, WINDOW, seed=9, lam=0.5)
    b = sample_environment(law, WINDOW, seed=9, lam=0.5)
    assert a.content_hash() == b.content_hash()
    c = sample_environment(law, WINDOW, seed=10, lam=0.5)
    assert a.content_hash() != c.content_hash()
    # an edge keeps its weight when the window grows or shifts
    big = sample_environment(law, box_sites([-6, -6, -6], [8, 8, 8]), seed=9, lam=0.5)
    assert a.edge_weight([0, 0, 0], [0, 1, 0]) == big.edge_weight([0, 0, 0], [0, 1, 0])


@pytest.mark.parametrize("law", LAWS)
def test_slabwise_sampling_matches_site_set_construction(law):
    # reference: the padded window as one lexicographic SiteSet
    lo, hi, off = np.array([-3, -2, 0]), np.array([2, 4, 3]), np.array([5, -1, 2])
    grid = box_sites(lo - 1, hi + 1)
    weights = [law.evaluate((grid.coords + off).T, a, 11).reshape(tuple(hi - lo + 3))
               for a in range(3)]
    ref = Conductances(lo, hi, 0.5, weights, law, seed=11, offset=off)
    env = sample_environment(law, (lo, hi), 11, 0.5, offset=off)
    assert env.content_hash() == ref.content_hash()


def test_shift_identity_and_composition():
    law = EnvironmentLaw.iid_uniform(0.5, 1.0)
    env = sample_environment(law, WINDOW, seed=9, lam=0.5)
    assert np.array_equal(env.shift([0, 0, 0]).weights[1], env.weights[1])
    lhs = env.shift([1, 0, 0]).shift([0, 2, -1])
    rhs = env.shift([1, 2, -1])
    for a in range(3):
        assert np.array_equal(lhs.weights[a], rhs.weights[a])
    # tau_x omega at {y, z} reads the original at {x+y, x+z}
    sh = env.shift([1, 0, 0])
    assert sh.edge_weight([0, 0, 0], [0, 1, 0]) == env.edge_weight([1, 0, 0], [1, 1, 0])


def test_constant_shift_invariant():
    env = sample_environment(EnvironmentLaw.constant(0.75), WINDOW, 0, lam=0.5)
    sh = env.shift([2, -1, 3])
    for a in range(3):
        assert np.array_equal(sh.weights[a], env.weights[a])


def test_checkerboard_shift_swaps_classes():
    env = sample_environment(EnvironmentLaw.checkerboard(0.5, 1.0), WINDOW, 0, lam=0.5)
    sh = env.shift([1, 0, 0])
    for a in range(3):
        swapped = np.where(env.weights[a] == 0.5, 1.0, 0.5)
        assert np.array_equal(sh.weights[a], swapped)


def test_site_weight_mixed():
    env = sample_environment(EnvironmentLaw.iid_uniform(0.5, 1.0), WINDOW, 1, lam=0.5)
    x = np.array([0, 0, 0])
    total = 0.0
    for a in range(3):
        e = np.zeros(3, dtype=np.int64)
        e[a] = 1
        total += env.edge_weight(x, x + e) + env.edge_weight(x, x - e)
    assert env.site_weight(x) == pytest.approx(total)
    assert 3.0 <= env.site_weight(x) <= 6.0


def test_neighbor_weights_follow_the_step_table():
    env = sample_environment(EnvironmentLaw.iid_uniform(0.5, 1.0), WINDOW, 2, lam=0.5)
    steps = neighbor_steps(3)
    eye = np.eye(3, dtype=np.int64)
    assert np.array_equal(steps[0::2], eye) and np.array_equal(steps[1::2], -eye)
    X = WINDOW.coords
    nw = env.neighbor_weights(X)
    assert nw.shape == (len(X), 6)
    for k, s in enumerate(steps):
        assert np.array_equal(nw[:, k], [env.edge_weight(x, x + s) for x in X])
    assert np.array_equal(nw.sum(axis=1), env.site_weights(X))


def test_save_load_round_trip(tmp_path):
    env = sample_environment(EnvironmentLaw.iid_two_point(0.5, 1.0, 0.4),
                             WINDOW, seed=11, lam=0.5)
    path = tmp_path / "env.bin"
    env.save(path)
    back = Conductances.load(path)
    assert back.content_hash() == env.content_hash()
    assert (tmp_path / "env.bin.json").exists()
    assert back.law.kind == "iid_two_point"


def test_stored_bytes_and_hash_are_pinned(tmp_path):
    # recorded from the per-axis storage; the stacked array must not move them
    env = sample_environment(EnvironmentLaw.iid_uniform(0.5, 1.0),
                             ([-2, -1, 0], [1, 2, 2]), 11, 0.5, offset=[3, -2, 1])
    assert env.content_hash() == (
        "1505f99259a7994d6ca9a961eda899639b4a12235109866fa00de7d18894826c")
    env.save(tmp_path / "environment.bin")
    assert hashlib.sha256((tmp_path / "environment.bin").read_bytes()).hexdigest() == (
        "af2d07730608eed065b281571f2d52fc43b38b062179fc0caa33570ec5b3feda")
    back = Conductances.load(tmp_path / "environment.bin")
    assert np.array_equal(back.weights, env.weights)


# recorded from the row-by-row hash, before the open-grid form
PINNED = [
    "91c0eca0853189aa09ef8042b25f45b4623369f56bd4e6dcecebbca66db70396",
    "7ba4ba3617054a078336973112c3f2e9832ac7c069b1d82ace169d0d67bd8222",
    "b6832413eb073ef5fbee74b483ad462d0ff3b9e6918282c46583eefe86f3ff2b",
    "0efb7245e9749a2f9b68f1046b23c2cc4329e15149a1e4b2da884d6f51ab5c9b",
    "fb42ffc1807bd0f911ab9d02342930c14bee820b6b3366fac68dcf22d2936a96",
]


@pytest.mark.parametrize("law, digest", [
    pytest.param(law, digest, id=f"law{i}")
    for i, (law, digest) in enumerate(zip(LAWS, PINNED))])
def test_content_hash_is_pinned_for_every_law(law, digest):
    env = sample_environment(law, ([-4, -2, 0], [3, 5, 2]), 12345, 0.5,
                             offset=[7, -3, 2])
    assert env.content_hash() == digest


def test_out_of_window_access_raises():
    env = sample_environment(EnvironmentLaw.constant(1.0), WINDOW, 0, lam=0.5)
    with pytest.raises(ValueError):
        env.site_weight([10, 0, 0])


def test_covers_compares_the_bounding_box_with_the_window():
    env = sample_environment(LAWS[2], WINDOW, seed=7, lam=0.5)
    assert env.covers(WINDOW)
    assert env.covers(SiteSet([[3, -3, 0], [0, 3, 3]]))
    assert not env.covers(SiteSet([[0, 0, 0], [4, 0, 0]]))
    assert not env.covers(SiteSet([[0, -4, 0]]))


def test_window_guards_accept_the_edge_and_reject_one_site_beyond():
    env = sample_environment(LAWS[2], WINDOW, seed=7, lam=0.5)
    # each domain below reaches x = 3 = env.hi[0] at the origin, x = 4 shifted
    crossing_probability(env, 0.0, 1, [0, 0, 0], 4, seed=1, padding=1)
    with pytest.raises(ValueError, match="insufficient environment padding"):
        crossing_probability(env, 0.0, 1, [1, 0, 0], 4, seed=1, padding=1)
    connectivity_function(env, 0.0, [0, 0, 0], [[1, 0, 0]], 4, seed=1, padding=2)
    with pytest.raises(ValueError, match="window too small"):
        connectivity_function(env, 0.0, [1, 0, 0], [[1, 0, 0]], 4, seed=1,
                              padding=2)
    for x, ok in (([0, 0, 0], True), ([1, 0, 0], False)):
        U0 = ball(x, 0, 3)
        spec = PorousInterface(U0, U0, epsilon=3, chi=0.0)
        if ok:
            assert check_porous_interface(env, spec).ok
        else:
            with pytest.raises(ValueError, match="hitting window exceeds"):
                check_porous_interface(env, spec)
