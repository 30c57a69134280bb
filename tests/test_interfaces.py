import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfflab.environment import EnvironmentLaw, sample_environment
from gfflab.interfaces import (
    DensityProfile,
    PorousInterface,
    build_shell_interface,
    capacity_ratio_check,
    check_porous_interface,
    complement_profile,
    density_dichotomy_holds,
    density_grid,
    escape_probability,
    nested_punctured_interfaces,
)
from gfflab.lattice import ball, box_sites, empty_set, half_space
from gfflab.streams import stream

LAW = EnvironmentLaw.iid_uniform(0.5, 1.0)


@pytest.fixture(scope="module")
def env():
    return sample_environment(LAW, box_sites([-12] * 3, [12] * 3), seed=7, lam=0.5)


# -- local densities ----------------------------------------------------------


def test_local_density_extremes():
    everything = DensityProfile(lambda pts: np.ones(len(pts), dtype=bool), d=3)
    assert everything.density([0, 0, 0], 3) == 1.0
    assert DensityProfile(empty_set(3)).density([0, 0, 0], 2) == 0.0


def test_local_density_half_space():
    hs = half_space([-1.0, 0.0, 0.0], -1.0)  # x1 >= 1
    val = DensityProfile(lambda pts: hs.contains(pts), d=3).density([0, 0, 0], 0)
    assert val == pytest.approx(9 / 27)


@given(st.integers(0, 3),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3),
       st.lists(st.integers(-2, 2), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_lipschitz_bound(level, x, y):
    prof = DensityProfile(ball([1, 0, -1], 3))
    x, y = np.asarray(x), np.asarray(y)
    gap = abs(prof.density(x, level) - prof.density(x + y, level))
    assert gap <= 2.0 ** (-level) * np.abs(y).sum() + 1e-12


def test_density_grid_matches_pointwise():
    U0 = ball([0, 0, 0], 3).union(ball([4, 2, 0], 2))
    member = lambda pts: ~U0.contains_mask(pts)
    grid = density_grid(member, [-2, -2, -2], [2, 2, 2], level=1, d=3)
    prof = complement_profile(U0)
    for x in [(-2, -2, -2), (0, 0, 0), (2, 1, 0)]:
        gi = tuple(np.asarray(x) + 2)
        assert grid[gi] == pytest.approx(prof.density(x, 1))


def test_averaging_property():
    # |sigma_l(x) - average of sigma_l' over the l-ball| <= c0 2^(l'-l)
    c0 = 3 * 2 ** 2
    U0 = ball([0, 0, 0], 9).union(ball([12, 5, -3], 6))
    member = lambda pts: ~U0.contains_mask(pts)
    prof = complement_profile(U0)
    rng = np.random.default_rng(3)
    for _ in range(8):
        x = rng.integers(-6, 6, size=3)
        level = int(rng.integers(2, 5))
        coarse = prof.density(x, level)
        lp = int(rng.integers(0, level))
        r = 2 ** level
        fine = density_grid(member, x - r, x + r, level=lp, d=3)
        assert abs(coarse - fine.mean()) <= c0 * 2.0 ** (lp - level) + 1e-12


def test_dichotomy_on_samples():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(120):
        centers = rng.integers(-10, 10, size=(rng.integers(1, 4), 3))
        radii = rng.integers(1, 8, size=len(centers))
        U0 = ball(centers[0], int(radii[0]))
        for c, r in zip(centers[1:], radii[1:]):
            U0 = U0.union(ball(c, int(r)))
        member = lambda pts: ~U0.contains_mask(pts)
        x = rng.integers(-6, 6, size=3)
        level = int(rng.integers(1, 4))
        lp = int(rng.integers(0, level))
        r = 2 ** level
        vals = density_grid(member, x - r, x + r, level=lp, d=3)
        beta = vals.mean()
        hi = min(beta, 1 - beta)
        if hi <= 0:
            continue
        delta = rng.uniform(0.0, hi)
        assert density_dichotomy_holds(vals, delta)
        checked += 1
    assert checked >= 60


def test_dichotomy_guard():
    with pytest.raises(ValueError):
        density_dichotomy_holds(np.array([0.5, 0.5]), 0.9)


# -- porous interfaces ---------------------------------------------------------


def test_porous_interface_hit_certain(env):
    A_N = ball([0, 0, 0], 2)
    spec = build_shell_interface(A_N, 2, 0.0, stream(1, "s"))
    sup = PorousInterface(spec.U0, spec.S, epsilon=3, chi=0.9)
    chk = check_porous_interface(env, sup)
    assert chk.ok and chk.min_hitting == pytest.approx(1.0)


def test_porous_interface_empty(env):
    A_N = ball([0, 0, 0], 2)
    spec = build_shell_interface(A_N, 2, 0.0, stream(1, "s"))
    chk = check_porous_interface(
        env, PorousInterface(spec.U0, empty_set(3), 3, 0.5))
    assert not chk.ok and chk.min_hitting == 0.0


def test_porous_exact_vs_mc(env):
    A_N = ball([0, 0, 0], 1)
    spec = build_shell_interface(A_N, 2, 0.4, stream(2, "s"))
    exact = check_porous_interface(env, spec, mode="exact")
    mc = check_porous_interface(env, spec, mode="mc", replicas=8000, seed=3)
    for site, val in exact.per_site.items():
        se = max(np.sqrt(val * (1 - val) / 8000), 1e-4)
        assert abs(mc.per_site[site] - val) < 5 * se + 0.01


def test_build_shell_fraction_guard():
    with pytest.raises(ValueError):
        build_shell_interface(ball([0, 0, 0], 1), 1, 1.0, stream(4, "s"))


def test_escape_probability_cases(env):
    A_N = ball([0, 0, 0], 2)
    B_env = ball([0, 0, 0], 9)
    rng = stream(5, "shell")
    specs = nested_punctured_interfaces(A_N, 2, [0.0, 0.25, 0.5, 0.75], rng)
    sups = [escape_probability(env, A_N, sp.Sigma, B_env).sup_escape
            for sp in specs]
    assert sups[0] <= 1e-8  # full shell seals the set
    assert all(sups[i] <= sups[i + 1] + 1e-12 for i in range(len(sups) - 1))
    empty = escape_probability(env, A_N, empty_set(3), B_env)
    assert empty.sup_escape == 1.0


def test_escape_far_field_bound(env):
    A_N = ball([0, 0, 0], 1)
    B_env = ball([0, 0, 0], 9)
    spec = build_shell_interface(A_N, 2, 0.2, stream(6, "s"))
    rep = escape_probability(env, A_N, spec.Sigma, B_env, green_const=2.0)
    assert rep.far_field_bound > 0
    rep2 = escape_probability(env, A_N, spec.Sigma, B_env, green_const=1.0)
    assert rep2.far_field_bound == pytest.approx(rep.far_field_bound / 2.0)


def test_capacity_ratio_chain(env):
    A_N = ball([0, 0, 0], 2)
    B_env = ball([0, 0, 0], 8)
    rng = stream(7, "ratio")
    for spec in nested_punctured_interfaces(A_N, 2, [0.0, 0.3, 0.6], rng):
        rep = capacity_ratio_check(env, A_N, spec.Sigma, B_env)
        assert rep.ok
        assert rep.cap_sigma >= rep.inf_hit * rep.cap_A - 1e-8
    same = capacity_ratio_check(env, A_N, A_N, B_env)
    assert same.inf_hit == pytest.approx(1.0)
    assert abs(same.dirichlet_gap) < 1e-9
    assert abs(same.cap_sigma - same.cap_A) < 1e-9
