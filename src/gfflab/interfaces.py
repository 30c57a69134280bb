"""Local density functions, porous interfaces, and the capacity
diagnostics that make interfaces "solid".

The local density of a set U_1 at a site is its share of a dyadic ball
around the site. A porous interface is any bounded set that a walk
started on the boundary of a segmentation U_0 hits with probability at
least chi before moving epsilon away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import SiteSet, as_coords, ball, boundary
from .environment import Conductances
from .potential import (
    StoppingRules,
    capacity,
    dirichlet_form,
    harmonic_potential,
    hitting_frequency,
)
from .streams import stream


# ---------------------------------------------------------------------------
# Local density functions


class DensityProfile:
    """Cached local densities of a set (or predicate) U_1.

    sigma_l(x) = |B(x, 2^l) cap U_1| / |B(x, 2^l)|. U_1 may be a SiteSet
    or a vectorized predicate over (n, d) integer points (used for
    half-spaces and complements).
    """

    def __init__(self, U1, d: int | None = None):
        if isinstance(U1, SiteSet):
            self.d = U1.d
            self._member = U1.contains_mask
        else:
            if d is None:
                raise ValueError("predicate-backed density needs a dimension")
            self.d = d
            self._member = U1
        self._cache: dict = {}

    def density(self, x, level: int) -> float:
        x = tuple(int(v) for v in as_coords(x, self.d)[0])
        key = (x, int(level))
        if key not in self._cache:
            B = ball(np.asarray(x), 2 ** int(level), self.d)
            count = int(np.count_nonzero(self._member(B.coords)))
            self._cache[key] = count / len(B)
        return self._cache[key]


def complement_profile(U0: SiteSet) -> DensityProfile:
    """Density profile of the complement of U0."""
    return DensityProfile(lambda pts: ~U0.contains_mask(pts), d=U0.d)


def _window_sum(arr: np.ndarray, r: int, axis: int) -> np.ndarray:
    """Sliding sums over windows of 2r+1 along one axis (valid region)."""
    c = np.cumsum(arr, axis=axis, dtype=np.int64)
    full = 2 * r + 1
    n = arr.shape[axis]
    hi = [slice(None)] * arr.ndim
    hi[axis] = slice(full - 1, n)
    out = c[tuple(hi)].copy()
    lo = [slice(None)] * arr.ndim
    lo[axis] = slice(0, n - full)
    tail = [slice(None)] * arr.ndim
    tail[axis] = slice(1, None)
    out[tuple(tail)] -= c[tuple(lo)]
    return out


def density_grid(profile_member, lo, hi, level: int, d: int) -> np.ndarray:
    """sigma_l on every site of the box [lo, hi], by exact window sums.

    profile_member: vectorized membership test of U_1 over (n, d) points.
    Equivalent to `DensityProfile.density` per site, but O(volume) overall;
    the density-law checks (AC06) read it.
    """
    lo = as_coords(lo, d)[0]
    hi = as_coords(hi, d)[0]
    r = 2 ** int(level)
    from .lattice import box_sites
    padded = box_sites(lo - r, hi + r)
    mask = profile_member(padded.coords).reshape(tuple(hi - lo + 1 + 2 * r))
    counts = mask.astype(np.int64)
    for axis in range(d):
        counts = _window_sum(counts, r, axis)
    return counts / float((2 * r + 1) ** d)


def density_dichotomy_holds(sigma_values: np.ndarray, delta: float) -> bool:
    """Two-sided spread/concentration dichotomy of a density sample.

    With beta' the mean of the finer-scale densities over the ball,
    either both tails {sigma > beta'+delta} and {sigma < beta'-delta}
    carry mass >= delta/2, or the middle band carries >= 1/4 - delta/2.
    Valid for 0 <= delta <= beta' ^ (1 - beta').
    """
    vals = np.asarray(sigma_values, dtype=np.float64).ravel()
    beta = vals.mean()
    if not 0.0 <= delta <= min(beta, 1.0 - beta) + 1e-12:
        raise ValueError("delta outside the admissible range")
    frac_hi = np.mean(vals > beta + delta)
    frac_lo = np.mean(vals < beta - delta)
    frac_mid = np.mean((vals >= beta - delta) & (vals <= beta + delta))
    clause_i = frac_hi >= delta / 2 - 1e-15 and frac_lo >= delta / 2 - 1e-15
    clause_ii = frac_mid >= 0.25 - delta / 2 - 1e-15
    return bool(clause_i or clause_ii)


# ---------------------------------------------------------------------------
# Porous interfaces


@dataclass
class PorousInterface:
    U0: SiteSet
    Sigma: SiteSet
    epsilon: int
    chi: float

    @property
    def S(self) -> SiteSet:
        return boundary(self.U0, "external")


@dataclass
class PorousCheck:
    ok: bool
    min_hitting: float
    worst_site: tuple | None
    per_site: dict


def check_porous_interface(env: Conductances, spec: PorousInterface,
                           mode: str = "exact", replicas: int = 10_000,
                           seed: int = 0) -> PorousCheck:
    """Verify P_x[hit Sigma before moving epsilon away] >= chi on the
    segmentation boundary.

    exact mode solves one small Dirichlet problem per boundary site on
    the window B(x, eps-1) (the radius stopping time is realized as the
    exit of that window); mc mode runs batched skeleton walks.
    """
    S = spec.S
    eps = int(spec.epsilon)
    if eps < 1:
        raise ValueError("epsilon must be a positive integer")
    worst = (2.0, None)
    per_site = {}
    for x in S:
        window = ball(np.asarray(x), eps - 1, env.d)
        if not env.covers(window):
            raise ValueError("hitting window exceeds the environment")
        target = spec.Sigma.intersection(window)
        if target.is_empty:
            val = 0.0
        elif mode == "exact":
            h = harmonic_potential(env, target, window)
            val = float(h[window.index_of(x)])
        elif mode == "mc":
            rng = stream(seed, "porous", *x)
            rules = StoppingRules(hit=spec.Sigma, radius=eps)
            val, _ = hitting_frequency(env, x, rules, rng, replicas)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        per_site[x] = val
        if val < worst[0]:
            worst = (val, x)
    return PorousCheck(worst[0] >= spec.chi, worst[0], worst[1], per_site)


def build_shell_interface(A_N: SiteSet, offset: int, puncture_fraction: float,
                          rng: np.random.Generator) -> PorousInterface:
    """Test interface: thicken A_N by `offset` (l-infinity dilation), take
    the internal boundary shell, and knock out a uniformly random
    fraction of its sites. epsilon/chi are measured, not prescribed;
    run check_porous_interface to fill them in."""
    if not 0.0 <= puncture_fraction < 1.0:
        raise ValueError("puncture fraction must lie in [0, 1)")
    blocks = [ball(row, offset, A_N.d).coords for row in A_N.coords]
    U0 = SiteSet(np.vstack(blocks), A_N.d)
    shell = boundary(U0, "internal")
    keep = np.ones(len(shell), dtype=bool)
    n_remove = int(math.floor(puncture_fraction * len(shell)))
    if n_remove > 0:
        drop = rng.choice(len(shell), size=n_remove, replace=False)
        keep[drop] = False
    Sigma = SiteSet(shell.coords[keep], A_N.d)
    return PorousInterface(U0, Sigma, epsilon=max(2 * offset, 2), chi=0.0)


def nested_punctured_interfaces(A_N: SiteSet, offset: int, fractions,
                                rng: np.random.Generator) -> list[PorousInterface]:
    """Coupled family: one random removal order, increasing fractions,
    so the interfaces are nested (larger fraction = subset)."""
    base = build_shell_interface(A_N, offset, 0.0, rng)
    shell = base.Sigma
    order = rng.permutation(len(shell))
    out = []
    for frac in fractions:
        if not 0.0 <= frac < 1.0:
            raise ValueError("puncture fraction must lie in [0, 1)")
        n_remove = int(math.floor(frac * len(shell)))
        keep = np.ones(len(shell), dtype=bool)
        keep[order[:n_remove]] = False
        out.append(PorousInterface(base.U0, SiteSet(shell.coords[keep], A_N.d),
                                   base.epsilon, 0.0))
    return out


# ---------------------------------------------------------------------------
# Escape probabilities and the capacity comparison chain


@dataclass
class EscapeReport:
    sup_escape: float
    per_site: np.ndarray
    far_field_bound: float


def escape_probability(env: Conductances, A_N: SiteSet, Sigma: SiteSet,
                       B_env: SiteSet, green_const: float = 1.0) -> EscapeReport:
    """sup over A_N of P_x[no hit of Sigma before leaving B_env].

    This finite-volume quantity is an upper proxy for the never-hitting
    probability; the reported far-field bound (configurable Green
    constant) quantifies the one-sided truncation error.
    """
    for part in (A_N, Sigma):
        if not part.issubset(B_env):
            raise ValueError("geometry must sit inside the environment box")
    if Sigma.is_empty:
        return EscapeReport(1.0, np.ones(len(A_N)), 0.0)
    h = harmonic_potential(env, Sigma, B_env)
    vals = 1.0 - h[B_env.locate(A_N.coords)]
    cap_sigma = capacity(env, Sigma, B_env, h=h)
    lo, hi = B_env.bounding_box()
    slo, shi = Sigma.bounding_box()
    dist = max(int(min(np.min(shi - lo), np.min(hi - slo))), 1)
    bound = green_const * cap_sigma / dist ** (A_N.d - 2)
    return EscapeReport(float(vals.max()), vals, bound)


@dataclass
class CapacityRatioReport:
    cap_sigma: float
    cap_A: float
    inf_hit: float
    chain_slack: float        # cap(Sigma) - inf_hit * cap(A), must be >= -tol
    dirichlet_gap: float      # E(h_A - h_Sigma) - (cap Sigma - cap A)
    ok: bool
    tol: float


def capacity_ratio_check(env: Conductances, A_N: SiteSet, Sigma: SiteSet,
                         B_env: SiteSet) -> CapacityRatioReport:
    """Finite-volume capacity comparison of an interface with the set it
    surrounds: cap(Sigma) >= inf_{A_N} P[hit Sigma] * cap(A_N), an exact
    identity chain through the last-exit decomposition, plus the
    Dirichlet-difference bookkeeping term. `ok` allows a slack of -1e-8."""
    hS = harmonic_potential(env, Sigma, B_env)
    hA = harmonic_potential(env, A_N, B_env)
    cap_S = capacity(env, Sigma, B_env, h=hS)
    cap_A = capacity(env, A_N, B_env, h=hA)
    inf_hit = float(hS[B_env.locate(A_N.coords)].min())
    slack = cap_S - inf_hit * cap_A
    gap = dirichlet_form(env, B_env, hA - hS) - (cap_S - cap_A)
    # gap = 2 (cap_A - E(h_A, h_Sigma)); with Gauss-Green this is
    # 2 (cap_A - sum h_Sigma e_A) <= 2 (1 - inf_hit) cap_A
    return CapacityRatioReport(cap_S, cap_A, inf_hit, slack, gap,
                               slack >= -1e-8, 1e-8)
