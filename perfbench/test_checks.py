"""Tests of the benchmark's own helpers: run with `python3 -m pytest perfbench`.

The reference Laplacian here is built entry by entry from the raw
conductance array and inverted densely, on a box of a few hundred sites.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from tracing import Tracer, layer_metrics, self_times, span_cost  # noqa: E402


def _weights(rng, side: int):
    # window [0, side-1]^3, stored as in gfflab with origin lo - 1
    shape = (side + 2,) * 3
    return [rng.uniform(0.5, 1.0, shape) for _ in range(3)], np.full(3, -1)


def _dense_laplacian(weights, origin, coords):
    n, d = coords.shape
    index = {tuple(x): i for i, x in enumerate(coords)}
    L = np.zeros((n, n))
    for i, x in enumerate(coords):
        for a in range(d):
            for sgn in (1, -1):
                y = x.copy()
                y[a] += sgn
                base = x if sgn == 1 else y
                w = weights[a][tuple(base - origin)]
                L[i, i] += w
                if tuple(y) in index:
                    L[i, index[tuple(y)]] -= w
    return L


@pytest.fixture
def small_box():
    rng = np.random.default_rng(7)
    weights, origin = _weights(rng, 7)
    coords = checks.box([0, 0, 0], [6, 6, 6])  # 343 sites
    return weights, origin, coords


def test_laplacian_matches_entrywise_assembly(small_box):
    weights, origin, coords = small_box
    L = checks.laplacian(weights, origin, coords).toarray()
    assert np.allclose(L, _dense_laplacian(weights, origin, coords), atol=1e-15)


@pytest.mark.parametrize("direct_limit", [10**6, 0])
def test_solve_matches_dense_inverse(small_box, monkeypatch, direct_limit):
    weights, origin, coords = small_box
    monkeypatch.setattr(checks, "DIRECT_LIMIT", direct_limit)  # 0 forces CG
    G = np.linalg.inv(_dense_laplacian(weights, origin, coords))
    rhs = np.zeros(len(coords))
    rhs[171] = 1.0
    col = checks.solve(checks.laplacian(weights, origin, coords), rhs)
    assert np.allclose(col, G[:, 171], rtol=1e-9, atol=1e-12)


def test_capacity_matches_green_function_formula(small_box):
    # cap_B(A) = 1^T (G_B restricted to A)^{-1} 1, G_B the dense inverse
    weights, origin, B = small_box
    A = checks.box([2, 2, 2], [4, 3, 3])
    h, cap = checks.equilibrium_potential(weights, origin, A, B)
    G = np.linalg.inv(_dense_laplacian(weights, origin, B))
    in_A = checks.member(B, A)
    e = np.linalg.solve(G[np.ix_(in_A, in_A)], np.ones(in_A.sum()))
    assert cap == pytest.approx(e.sum(), rel=1e-10)
    assert np.all(h[in_A] == 1.0) and np.all((h >= 0) & (h <= 1 + 1e-12))


def test_blow_up_ball_is_closed():
    pts = checks.blow_up_ball(0.5, 8)  # |x| <= 4, boundary included
    grid = checks.box([-6] * 3, [6] * 3)
    expected = grid[np.sum(grid ** 2, axis=1) <= 16]
    assert np.array_equal(pts, expected)


# ---------------------------------------------------------------------------
# Span arithmetic


SPANS = [
    ["cli.main", 0.0, 10.0, -1],
    ["potential.DirichletOperator.solve", 1.0, 4.0, 0],
    ["potential.DirichletOperator._get_lu", 1.5, 3.0, 1],
    ["percolation.label", 5.0, 6.0, 0],
    ["potential.DirichletOperator.solve", 6.0, 6.5, 0],
    ["potential.DirichletOperator.sample_gaussian", 7.0, 8.0, 0],
    ["potential.DirichletOperator.sample_gaussian", 8.0, 8.5, 0],
]
NOTES = {
    "1": {"rhs": 2, "domain": "a"},
    "4": {"rhs": 1, "domain": "a"},
    "5": {"operator": 0, "draws": 10},
    "6": {"operator": 0, "draws": 25},
}


def test_self_times_subtract_direct_children_only():
    assert self_times(SPANS) == [4.0, 1.5, 1.5, 1.0, 0.5, 1.0, 0.5]


def test_layer_metrics_of_hand_built_tree():
    m = layer_metrics(SPANS, NOTES)
    assert m["potential.solve_s"] == 3.5  # 1.5 + 1.5 (factor) + 0.5
    assert m["potential.solve_calls"] == 2 and m["potential.solve_rhs"] == 3
    assert m["potential.repeat_solve_share"] == 0.5
    assert m["percolation.label_s"] == 1.0 and m["percolation.label_calls"] == 1
    assert m["potential.sample_first_s"] == 1.0
    assert m["potential.sample_ms_per_draw"] == pytest.approx(1000 * 0.5 / 25)
    assert m["potential.draws"] == 35
    assert m["cli.self_s"] == 4.0 and m["trace.wall_s"] == 10.0
    layers = sum(v for k, v in m.items()
                 if k.endswith(".self_s") and not k.startswith("cli."))
    assert layers + m["cli.self_s"] == m["trace.wall_s"]


def test_tracer_records_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("percolation.label", lambda: None)
    outer = tracer.wrap("cli.main", lambda: (inner(), inner()))
    outer()
    assert tracer.spans == [["cli.main", 0.0, 5.0, -1],
                            ["percolation.label", 1.0, 2.0, 0],
                            ["percolation.label", 3.0, 4.0, 0]]


def test_install_rebinds_imported_names_and_uninstall_restores():
    import gfflab.gff as gff
    import gfflab.percolation as percolation
    from scipy import ndimage

    original = gff.sample_matrix
    tracer = Tracer()
    tracer.install()
    try:
        assert percolation.sample_matrix is gff.sample_matrix
        assert percolation.sample_matrix is not original
        ndimage.label(np.ones((2, 2), dtype=bool))
        assert [s[0] for s in tracer.spans] == ["percolation.label"]
    finally:
        tracer.uninstall()
    assert gff.sample_matrix is original and percolation.sample_matrix is original


def test_span_cost_is_a_positive_per_call_time():
    assert 0.0 < span_cost() < 1e-3
