import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gfflab.lattice import (
    SiteSet,
    ball,
    blow_up,
    boundary,
    box_sites,
    euclidean_ball,
    half_space,
    linf_box,
    linf_sphere,
    neighbor_steps,
    shape_from_spec,
    shape_intersection,
    shape_union,
)


def test_ball_sizes():
    assert len(ball([0, 0, 0], 0)) == 1
    assert len(ball([0, 0, 0], 1)) == 27
    b = ball([5, 5, 5], 2)
    assert len(b) == 125
    assert b.coords.min() == 3 and b.coords.max() == 7


@given(st.integers(0, 4), st.lists(st.integers(-20, 20), min_size=3, max_size=3))
@settings(max_examples=30, deadline=None)
def test_ball_cardinality_property(r, center):
    assert len(ball(center, r)) == (2 * r + 1) ** 3


def test_boundaries():
    singleton = SiteSet([[0, 0, 0]])
    assert len(boundary(singleton, "external")) == 6
    assert boundary(singleton, "internal") == singleton
    b = ball([0, 0, 0], 1)
    inner = boundary(b, "internal")
    assert len(inner) == 26  # every non-center site of the 3x3x3 ball
    assert [0, 0, 0] not in inner
    ext = boundary(b, "external")
    assert ext.intersection(b).is_empty
    assert inner.issubset(b)


def test_blow_up():
    assert len(blow_up(linf_box([0, 0, 0], 1.0), 2)) == 125
    eb = blow_up(euclidean_ball([0, 0, 0], 1.0), 1)
    assert len(eb) == 7  # origin plus the six unit vectors
    assert [1, 0, 0] in eb and [1, 1, 0] not in eb


def test_blow_up_monotone():
    small = euclidean_ball([0.0, 0.0, 0.0], 0.8)
    large = euclidean_ball([0.0, 0.0, 0.0], 1.3)
    for N in (1, 3, 5):
        assert blow_up(small, N).issubset(blow_up(large, N))


def test_sphere_mode():
    s = linf_sphere(6, 3)
    assert np.all(np.abs(s.coords).max(axis=1) == 6)
    assert len(linf_sphere(0, 3)) == 1


def test_index_round_trip():
    b = ball([1, -2, 3], 2)
    for i in [0, 17, len(b) - 1]:
        assert b.index_of(b.site_of(i)) == i
    idx = b.locate(b.coords)
    assert np.array_equal(idx, np.arange(len(b)))
    assert b.locate([[99, 99, 99]])[0] == -1


def test_set_algebra():
    a = ball([0, 0, 0], 1)
    b = ball([1, 0, 0], 1)
    u = a.union(b)
    assert len(u) == len(a) + len(b) - len(a.intersection(b))
    assert a.difference(b).intersection(b).is_empty
    assert a.translate([2, 0, 0]) == ball([2, 0, 0], 1)


def test_deterministic_lex_order():
    rng = np.random.default_rng(0)
    pts = rng.integers(-5, 5, size=(60, 3))
    s1 = SiteSet(pts)
    s2 = SiteSet(pts[::-1])
    assert np.array_equal(s1.coords, s2.coords)
    assert np.array_equal(s1.coords, np.unique(pts, axis=0))
    assert np.all(np.diff(s1._keys) > 0)


@pytest.mark.parametrize("order", ["sorted", "unsorted", "duplicated"])
def test_ordered_input_is_kept_without_a_sort(order, monkeypatch):
    rng = np.random.default_rng(3)
    ref = np.unique(rng.integers(-5, 5, size=(60, 3)), axis=0)
    pts = {"sorted": ref.copy(),
           "unsorted": ref[rng.permutation(len(ref))],
           "duplicated": np.vstack([ref, ref[::4]])}[order]
    unique, sorts = np.unique, []
    monkeypatch.setattr(np, "unique",
                        lambda *a, **k: sorts.append(1) or unique(*a, **k))
    s = SiteSet(pts)
    monkeypatch.undo()
    assert len(sorts) == (order != "sorted")
    assert np.array_equal(s.coords, ref)
    assert np.array_equal(s._keys, np.unique(s._pack(pts)))
    # the set keeps its own copy: writing to the input changes nothing
    pts[:] = 0
    assert np.array_equal(s.coords, ref)
    assert np.array_equal(s.locate(ref), np.arange(len(ref)))


@given(st.lists(st.tuples(*[st.integers(-4, 4)] * 3), max_size=40))
@example([])
@example([(2, -1, 0)])
@settings(max_examples=40, deadline=None)
def test_neighbors_is_locate_of_the_shifted_coords(sites):
    s = SiteSet(np.array(sites, dtype=np.int64).reshape(-1, 3), d=3)
    table = s.neighbors()
    assert table.dtype == np.int64 and table.shape == (len(s), 6)
    for k, step in enumerate(neighbor_steps(3)):
        assert np.array_equal(table[:, k], s.locate(s.coords + step))


def test_dimension_guard():
    with pytest.raises(ValueError):
        SiteSet([[1, 2]])


def test_half_space_and_composites():
    hs = half_space([1.0, 0.0, 0.0], 0.0)
    assert hs.contains(np.array([[0.0, 5.0, 5.0], [0.1, 0.0, 0.0]])).tolist() == [True, False]
    with pytest.raises(ValueError):
        blow_up(hs, 2)
    u = shape_union(euclidean_ball([0, 0, 0], 1.0), euclidean_ball([3, 0, 0], 1.0))
    assert len(blow_up(u, 1)) == 14
    inter = shape_intersection(linf_box([0, 0, 0], 2.0), hs)
    pts = blow_up(inter, 1)
    assert np.all(pts.coords[:, 0] <= 0)


def test_shape_from_spec_round_trip():
    spec = {"kind": "union", "parts": [
        {"kind": "euclidean_ball", "center": [0, 0, 0], "radius": 1.0},
        {"kind": "linf_box", "center": [2, 2, 2], "half_width": 0.5},
    ]}
    s = shape_from_spec(spec)
    assert len(blow_up(s, 2)) > 0


def test_inflate():
    b = euclidean_ball([0, 0, 0], 1.0)
    assert b.inflate(0.5).radius == 1.5
    bx = linf_box([0, 0, 0], 1.0).inflate(0.25)
    assert bx.half_width == 1.25
