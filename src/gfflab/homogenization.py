"""Scaling experiments: capacity and potential homogenization, walk
diffusivity, continuum references, and the tilted-measure disconnection
pipeline with its repulsion statistics.

Each Dirichlet problem is solved once: one potential h_{A_N,B_N} per
scale gives both the capacity and the pairing <h, eta>, and one unit tilt
profile serves every strength of a disconnection epsilon ladder.

A `_DisconnectionInstance` is the unit of a disconnection run: it holds
the environment, the geometry (A_N, S_N, B_N, the M N box), the box's
operator and the seed of every draw stream, so one instance serves
`gfflab disconnect` whole. Its one Monte Carlo loop draws `CHUNK` fields
per block through `percolation._draw_blocks`; the chunk fixes which
normals each draw consumes, so it is a constant of the outputs, not a
knob. The direct loop and the tilted loop of every epsilon of the ladder
are one pipeline, one stream each in that order, so the first block of
each tilted stream is drawn while the previous stream's last block is
labelled; the per-epsilon tilt shifts are fixed before it starts. The
tilted fields of the main epsilon also give the repulsion statistics.

All "as N grows" statements are rendered as Cauchy/trend verdicts over a
finite ladder of scales; nothing here certifies an asymptotic constant.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .lattice import SiteSet, blow_up, box_sites, linf_box, linf_sphere
from .environment import EnvironmentLaw, environment_for_sites, sample_environment
from .potential import (STOPS, DirichletOperator, SolverError, StoppingRules,
                        _walk, capacity, harmonic_extension, harmonic_potential)
from .gff import tilt_log_weights
from .percolation import _draw_blocks, _seed_clusters
from .streams import binomial_se, stream


# ---------------------------------------------------------------------------
# Test functions (continuous, compactly supported), given as small specs


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def eta_from_spec(spec: dict):
    """Pointwise-evaluable test function from its config form.

    kinds: radial_bump {center, radius, amplitude}; poly_bump adds
    integer exponent monomials; mollified_indicator {center, radius,
    width, metric in {euclidean, linf}}.
    """
    kind = spec.get("kind")
    center = np.asarray(spec.get("center", (0.0, 0.0, 0.0)), dtype=np.float64)
    if kind == "radial_bump":
        radius = float(spec["radius"])
        amp = float(spec.get("amplitude", 1.0))

        def bump(pts):
            r2 = np.sum((np.asarray(pts, dtype=np.float64) - center) ** 2, axis=1)
            u = r2 / radius ** 2
            out = np.zeros(len(u))
            inside = u < 1.0
            out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - u[inside]))
            return out

        return bump
    if kind == "poly_bump":
        base = eta_from_spec({"kind": "radial_bump", "center": center.tolist(),
                              "radius": spec["radius"],
                              "amplitude": spec.get("amplitude", 1.0)})
        terms = [(np.asarray(e, dtype=np.int64), float(c))
                 for e, c in spec["terms"]]

        def poly(pts):
            pts = np.asarray(pts, dtype=np.float64)
            val = np.zeros(len(pts))
            for expo, coef in terms:
                val += coef * np.prod(pts ** expo[None, :], axis=1)
            return val * base(pts)

        return poly
    if kind == "mollified_indicator":
        radius = float(spec["radius"])
        width = float(spec["width"])
        metric = spec.get("metric", "euclidean")

        def moll(pts):
            diff = np.asarray(pts, dtype=np.float64) - center
            if metric == "euclidean":
                dist = np.sqrt(np.sum(diff ** 2, axis=1))
            else:
                dist = np.max(np.abs(diff), axis=1)
            return _smoothstep((radius - dist) / width + 1.0) * (dist < radius + width)

        return moll
    raise ValueError(f"unknown test function kind {kind!r}")


# ---------------------------------------------------------------------------
# Capacity scaling and pairings


@dataclass
class ScaleResult:
    N: int
    scaled_capacity: float
    solve_seconds: float
    unknowns: int
    backend: str
    environment: dict  # Conductances.identity() of the scale's environment
    pairing: float | None = None


@dataclass
class ScalingSweep:
    N_list: list
    results: list
    rel_changes: list
    cauchy_ok: bool
    reference: float | None = None
    within_reference: bool | None = None
    pairing_rel_changes: list | None = None
    pairing_cauchy_ok: bool | None = None
    oracle: float | None = None
    within_oracle: bool | None = None


def _cauchy(vals: list, factor: float) -> tuple[list, bool]:
    """Relative changes along a ladder, and whether each one is at most
    `factor` times the one before it."""
    rel = [abs(vals[i + 1] - vals[i]) / max(abs(vals[i + 1]), 1e-300)
           for i in range(len(vals) - 1)]
    return rel, all(rel[i + 1] <= factor * rel[i] + 1e-12
                    for i in range(len(rel) - 1))


def capacity_scaling(law: EnvironmentLaw, lam: float, A, B, N_list, seed: int,
                     reference: float | None = None,
                     cauchy_factor: float = 0.5,
                     eta=None, oracle: float | None = None) -> ScalingSweep:
    """N^(2-d) cap_{B_N}(A_N) along an N ladder over one keyed environment.

    The same seed keys every scale, so the sweep sees a single
    conductance realization viewed at all N (the statements being probed
    are per-realization). Given a test function `eta`, the potential
    h_{A_N,B_N} solved for the capacity also gives the Riemann pairing
    N^(-d) sum_x h(x) eta(x/N). The last capacity is held to `reference`
    and the last pairing to `oracle`, each within 10%. Cauchy verdict,
    for either series: each relative change is at most `cauchy_factor`
    times the previous one.
    """
    N_list = [int(N) for N in N_list]
    if sorted(N_list) != N_list or len(set(N_list)) != len(N_list):
        raise ValueError("N ladder must be strictly increasing")

    def one_scale(N: int) -> ScaleResult:
        A_N = blow_up(A, N)
        B_N = blow_up(B, N)
        # the one membership lookup of the scale: A_N in B_N and h on A_N
        in_A = A_N.contains_mask(B_N.coords)
        if A_N.is_empty or np.count_nonzero(in_A) < len(A_N):
            raise ValueError(f"blow-up at N={N} violates the nesting A in B")
        env = environment_for_sites(law, B_N, seed, lam)
        t0 = time.perf_counter()
        U = SiteSet(B_N.coords[~in_A], B_N.d)
        op = DirichletOperator(env, U) if not U.is_empty else None
        h = in_A.astype(np.float64)
        if op is not None:
            h[~in_A] = harmonic_extension(env, U, A_N, np.ones(len(A_N)), op=op)
        cap = capacity(env, A_N, B_N, h=h)
        dt = time.perf_counter() - t0
        d = A_N.d
        pairing = (None if eta is None
                   else float(np.sum(h * eta(B_N.coords / float(N)))) / N ** d)
        return ScaleResult(N, N ** (2 - d) * cap, dt, len(U),
                           op.backend if op else "none", env.identity(), pairing)

    results = [one_scale(N) for N in N_list]
    vals = [r.scaled_capacity for r in results]
    sweep = ScalingSweep(N_list, results, *_cauchy(vals, cauchy_factor))
    if reference is not None:
        sweep.reference = reference
        sweep.within_reference = abs(vals[-1] - reference) <= 0.10 * abs(reference)
    if eta is not None:
        pairs = [r.pairing for r in results]
        sweep.pairing_rel_changes, sweep.pairing_cauchy_ok = _cauchy(pairs, cauchy_factor)
        if oracle is not None:
            sweep.oracle = oracle
            sweep.within_oracle = abs(pairs[-1] - oracle) <= 0.10 * abs(oracle)
    return sweep


def continuum_capacity_reference(shape: str, sigma2: float, d: int = 3,
                                 r: float = 1.0, R: float | None = None) -> float:
    """Closed-form homogenized capacities for isotropic covariance
    sigma2 * I in d = 3: ball -> 2 pi sigma2 r; annulus-killed ->
    2 pi sigma2 r R / (R - r)."""
    if d != 3:
        raise ValueError("closed forms are implemented for d = 3 only")
    if shape == "ball":
        return 2.0 * math.pi * sigma2 * r
    if shape == "annulus":
        if R is None or R <= r:
            raise ValueError("annulus needs R > r")
        return 2.0 * math.pi * sigma2 * r * R / (R - r)
    raise ValueError(f"unsupported shape {shape!r}")


def annulus_potential(pts: np.ndarray, r: float, R: float) -> np.ndarray:
    """Closed-form harmonic potential of the r-ball killed at the R-ball
    (isotropic case): (1/|x| - 1/R) / (1/r - 1/R), clamped to [0, 1]."""
    dist = np.sqrt(np.sum(np.asarray(pts, dtype=np.float64) ** 2, axis=1))
    out = np.zeros(len(dist))
    out[dist <= r] = 1.0
    mid = (dist > r) & (dist < R)
    out[mid] = (1.0 / dist[mid] - 1.0 / R) / (1.0 / r - 1.0 / R)
    return out


def annulus_pairing_quadrature(r: float, R: float, f, step: float) -> float:
    """Midpoint-rule integral of the closed-form potential against f,
    independent of every lattice computation."""
    edges = np.arange(-R, R + step, step)
    mids = (edges[:-1] + edges[1:]) / 2.0
    total = 0.0
    cell = step ** 3
    for x0 in mids:
        yy, zz = np.meshgrid(mids, mids, indexing="ij")
        pts = np.stack([np.full(yy.size, x0), yy.ravel(), zz.ravel()], axis=1)
        total += float(np.sum(annulus_potential(pts, r, R) * f(pts))) * cell
    return total


# ---------------------------------------------------------------------------
# Walk diffusivity


@dataclass
class DiffusivityEstimate:
    matrix: np.ndarray
    se: np.ndarray
    mode: str
    t_horizon: float
    replicas: int
    discarded: int
    environment: dict  # Conductances.identity() of the walk window


def estimate_diffusivity(law: EnvironmentLaw, lam: float, t_horizon: float,
                         replicas: int, seed: int, mode: str = "vsrw",
                         d: int = 3) -> DiffusivityEstimate:
    """Empirical covariance of X_t / sqrt(t) over independent walk
    replicas, variable- or constant-speed clocks.

    The window has half-width ceil(6 sqrt(2 t)) + 2, six standard
    deviations of each coordinate of X_t, whose variance is at most 2 t
    (two edges of weight <= 1 per axis). Its guard is the radius rule:
    replicas that move window_half - 1 from the origin are discarded and
    counted; more than 1% discards is treated as a geometry error.
    """
    if mode not in ("vsrw", "csrw"):
        raise ValueError("mode must be 'vsrw' or 'csrw'")
    if not t_horizon > 0:
        raise ValueError("t_horizon must be > 0")
    if replicas < 2:  # the standard error divides by replicas - 1
        raise ValueError("replicas must be >= 2")
    window_half = int(math.ceil(6.0 * math.sqrt(2.0 * t_horizon))) + 2
    env = sample_environment(law, ([-window_half] * d, [window_half] * d),
                             seed, lam)
    rules = StoppingRules(radius=window_half - 1, time_cap=t_horizon)
    flat, why = _walk(env, np.zeros(d, dtype=np.int64), replicas, rules,
                      stream(seed, "diffusivity", mode), mode)
    kept = why != STOPS.index("radius")
    n_disc = int((~kept).sum())
    if n_disc > 0.01 * replicas:
        raise SolverError(
            f"{n_disc} of {replicas} replicas hit the window; enlarge it")
    X = env.sites_at(flat[kept]).astype(np.float64)
    prod = np.einsum("ki,kj->kij", X, X) / t_horizon
    mat = prod.mean(axis=0)
    se = prod.std(axis=0, ddof=1) / math.sqrt(kept.sum())
    return DiffusivityEstimate(mat, se, mode, t_horizon, replicas, n_disc,
                               env.identity())


# ---------------------------------------------------------------------------
# Disconnection pipeline: direct Monte Carlo and tilted importance sampling


@dataclass
class LadderPoint:
    epsilon: float
    tilted_freq: float
    tilted_se: float
    is_estimate: float
    is_se: float
    ess: float
    entropy_H: float


@dataclass
class RepulsionReport:
    pairing_mean_tilted: float
    pairing_se_tilted: float
    pairing_tilt_reference: float
    tilt_mean_ok: bool
    conditional_mean: float
    conditional_se: float
    profile_pairing: float
    deviation_is_estimate: float
    deviation_is_se: float
    n_disconnected: int
    delta: float


@dataclass
class DisconnectionReport:
    N: int
    M: float
    alpha: float
    alpha_star_ref: float
    epsilon: float
    delta_shell: float
    direct_estimate: float
    direct_se: float
    direct_replicas: int
    is_estimate: float
    is_se: float
    tilted_freq: float
    tilted_se: float
    ess: float
    tilted_replicas: int
    entropy_H: float
    entropy_bound_log: float
    entropy_bound_se: float
    log_direct: float
    entropy_bound_ok: bool
    cap_tilt_scaled: float
    rate_proxy_direct: float
    rate_proxy_is: float
    rate_reference: float
    rate_reference_eps: float
    ladder: list = field(default_factory=list)
    repulsion: RepulsionReport | None = None


CHUNK = 500  # draws per block of every stream of the disconnection pipeline


class _DisconnectionInstance:
    """Environment, geometry, operator, seed and event kernel of one
    disconnection run: the environment of `law` keyed by `seed` on the
    M N box, A_N and the shell S_N, and the killing region B_N (default
    the M-box)."""

    def __init__(self, law: EnvironmentLaw, A_shape, M: float, N: int,
                 lam: float, seed: int, B_shape=None, d: int = 3):
        self.N = int(N)
        self.M = float(M)
        self.seed = int(seed)
        self.A_shape = A_shape
        self.radius = int(math.floor(M * N))
        self.domain = box_sites([-self.radius] * d, [self.radius] * d)
        self.env = environment_for_sites(law, self.domain, seed, lam)
        self.A_N = blow_up(A_shape, N, d=d)
        self.S_N = linf_sphere(self.radius, d)
        if self.A_N.is_empty:
            raise ValueError("blow-up of A is empty at this N")
        if int(np.abs(self.A_N.coords).max()) >= self.radius:
            raise ValueError("A_N touches the enclosing shell")
        self.B_shape = B_shape if B_shape is not None else linf_box([0.0] * d, M)
        self.B_N = blow_up(self.B_shape, N, d=d)
        if not self.B_N.issubset(self.domain):
            raise ValueError("killing region B_N escapes the sample box")
        self.op = DirichletOperator(self.env, self.domain)
        lo, hi = self.domain.bounding_box()
        self._shape = tuple(hi - lo + 1)
        self._seed = tuple((self.A_N.coords - lo).T)
        self._target = tuple((self.S_N.coords - lo).T)
        self._tilts: dict[float, tuple[np.ndarray, float]] = {}

    def tilt_function(self, delta_shell: float) -> tuple[np.ndarray, float]:
        """Unit tilt profile over the domain, the harmonic potential of the
        delta-inflated A_N killed outside B_N, and its Dirichlet energy.
        Solved once per delta_shell; callers scale, never modify, it."""
        if delta_shell not in self._tilts:
            A = self.A_shape.inflate(delta_shell) if delta_shell > 0 else self.A_shape
            Ad_N = blow_up(A, self.N, d=self.domain.d)
            if not Ad_N.issubset(self.B_N):
                raise ValueError("inflated set escapes the killing region")
            h = harmonic_potential(self.env, Ad_N, self.B_N)
            g = np.zeros(len(self.domain))
            g[self.domain.locate(self.B_N.coords)] = h
            self._tilts[delta_shell] = g, float(g @ (self.op.matrix @ g))
        return self._tilts[delta_shell]

    def disconnected(self, fields: np.ndarray, alpha: float) -> np.ndarray:
        """Bool per column: no level-set path from A_N to the shell."""
        mask = (fields >= alpha).T.reshape((fields.shape[1],) + self._shape)
        return ~_seed_clusters(mask, self._seed, self._target).any(axis=1)


def _shifted_weights(logw: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, float]:
    """Importance weights exp(logw - top) where `keep` holds (0 elsewhere),
    with top the largest kept log-weight. Sums of the shifted weights and
    their squares neither overflow nor underflow to 0 however strong the
    tilt; `_unshift` restores the scale."""
    w = np.zeros(logw.shape)
    if not keep.any():
        return w, 0.0
    top = float(logw[keep].max())
    w[keep] = np.exp(logw[keep] - top)
    return w, top


_LOG_MAX = math.log(np.finfo(np.float64).max)


def _unshift(x: float, top: float) -> float:
    """x * exp(top), finite whenever the product is representable."""
    if x <= 0:
        return 0.0
    v = top + math.log(x)
    return math.exp(v) if v < _LOG_MAX else math.inf


def disconnection_rate_experiment(inst: _DisconnectionInstance, alpha: float,
                                  alpha_star_ref: float, epsilon: float,
                                  delta_shell: float, direct_replicas: int,
                                  tilted_replicas: int, eps_ladder=None,
                                  eta_spec=None, Delta=None) -> DisconnectionReport:
    """Direct and entropically tilted estimation of the probability that
    the level set disconnects the blown-up set from the enclosing shell.

    The tilt pushes the field down by (alpha_star_ref - alpha + epsilon)
    times the harmonic potential of the inflated set, the finite-size
    stand-in for the construction behind the large-deviation lower
    bound; likelihood ratios are exact, so the importance-sampling
    estimator is unbiased for any epsilon. Environment, geometry and
    seed all come from `inst`, whose tilt profile is solved once.

    Given a test function `eta_spec` and a deviation threshold `Delta`,
    the tilted fields of the main epsilon also give the repulsion
    statistics (`_repulsion`), with the flags and weights of the same draws.
    """
    if eta_spec is not None and tilted_replicas < 2:  # the repulsion SE divides by n - 1
        raise ValueError("tilted_replicas must be >= 2 with eta_spec")
    N, M, d, seed = inst.N, inst.M, inst.domain.d, inst.seed
    ladder_eps = list(eps_ladder) if eps_ladder is not None else [epsilon]
    if epsilon not in ladder_eps:
        ladder_eps.append(epsilon)
    main = ladder_eps.index(epsilon)
    g, cap_tilt = inst.tilt_function(delta_shell)
    shifts = [-(alpha_star_ref - alpha + eps) * g for eps in ladder_eps]
    if eta_spec is not None:
        eta_tilde = eta_from_spec(eta_spec)(inst.domain.coords / N) / N ** d
        # h_{A_N,B_N} is the tilt profile of delta_shell 0, which is 0 off B_N
        h_A, _ = inst.tilt_function(0.0)
        profile = -(alpha_star_ref - alpha) * float(h_A @ eta_tilde)
        pairs = []
    # stream 0 is the direct loop, stream 1 + j the tilted loop of ladder_eps[j]
    streams = [(stream(seed, "disconnect-direct"), direct_replicas)] + [
        (stream(seed, "disconnect-tilted", repr(float(eps))), tilted_replicas)
        for eps in ladder_eps]
    hits = 0
    discs = [[] for _ in ladder_eps]
    logws = [[] for _ in ladder_eps]
    for i, block in _draw_blocks(inst.op, streams, CHUNK):
        if i == 0:
            hits += int(inst.disconnected(block, alpha).sum())
            continue
        f = shifts[i - 1]
        block += f[:, None]
        discs[i - 1].append(inst.disconnected(block, alpha))
        logws[i - 1].append(tilt_log_weights(inst.env, inst.domain, f, block,
                                             op=inst.op))
        if eta_spec is not None and i - 1 == main:
            pairs.append(block.T @ eta_tilde)
    p_direct = hits / direct_replicas
    se_direct = binomial_se(p_direct, direct_replicas)

    ladder = []
    for j, eps in enumerate(ladder_eps):
        strength = alpha_star_ref - alpha + eps
        H = 0.5 * strength ** 2 * cap_tilt
        disc = np.concatenate(discs[j])
        wd, top = _shifted_weights(np.concatenate(logws[j]), disc)
        wsum = float(wd.sum())
        w2sum = float((wd ** 2).sum())
        n = tilted_replicas
        is_est = _unshift(wsum / n, top)
        is_se = _unshift(math.sqrt(max(w2sum / n - (wsum / n) ** 2, 0.0) / n), top)
        freq = int(disc.sum()) / n
        ess = wsum ** 2 / w2sum if w2sum > 0 else 0.0
        ladder.append(LadderPoint(float(eps), freq, binomial_se(freq, n),
                                  is_est, is_se, ess, H))
        if j == main:
            # log of the estimate, finite even where is_est underflows to 0
            log_is = top + math.log(wsum / n) if wsum > 0 else -math.inf
            repulsion = None if eta_spec is None else _repulsion(
                np.concatenate(pairs), disc, wd, top,
                float(shifts[j] @ eta_tilde), profile, Delta)

    mp = ladder[main]
    # relative-entropy lower bound evaluated at the tilted frequency
    if mp.tilted_freq > 0:
        bound = math.log(mp.tilted_freq) - (mp.entropy_H + 1.0 / math.e) / mp.tilted_freq
        dbound = (1.0 / mp.tilted_freq
                  + (mp.entropy_H + 1.0 / math.e) / mp.tilted_freq ** 2)
        bound_se = dbound * mp.tilted_se
    else:
        bound, bound_se = -math.inf, 0.0
    log_direct = math.log(p_direct) if p_direct > 0 else -math.inf
    slack = 3.0 * (se_direct / max(p_direct, 1e-300)) + 3.0 * bound_se
    bound_ok = log_direct >= bound - slack

    cap_scaled = N ** (2 - d) * cap_tilt
    rate_dir = -N ** (2 - d) * log_direct if np.isfinite(log_direct) else math.inf
    rate_is = -N ** (2 - d) * log_is if np.isfinite(log_is) else math.inf
    return DisconnectionReport(
        N=N, M=M, alpha=alpha, alpha_star_ref=alpha_star_ref, epsilon=epsilon,
        delta_shell=delta_shell, direct_estimate=p_direct, direct_se=se_direct,
        direct_replicas=direct_replicas, is_estimate=mp.is_estimate,
        is_se=mp.is_se, tilted_freq=mp.tilted_freq, tilted_se=mp.tilted_se,
        ess=mp.ess, tilted_replicas=tilted_replicas, entropy_H=mp.entropy_H,
        entropy_bound_log=bound, entropy_bound_se=bound_se,
        log_direct=log_direct, entropy_bound_ok=bound_ok,
        cap_tilt_scaled=cap_scaled, rate_proxy_direct=rate_dir,
        rate_proxy_is=rate_is,
        rate_reference=0.5 * (alpha_star_ref - alpha) ** 2 * cap_scaled,
        rate_reference_eps=0.5 * (alpha_star_ref - alpha + epsilon) ** 2 * cap_scaled,
        ladder=ladder, repulsion=repulsion,
    )


def _repulsion(pair, disc, wd, top, tilt_ref, profile_pairing, Delta) -> RepulsionReport:
    """The tilted draws' pairings with eta, disconnection flags and shifted
    weights against the tilt pairing (within 5 standard errors) and the
    profile pairing -(ref - alpha) <h_{A_N,B_N}, eta>, with and without
    conditioning on disconnection."""
    n = len(pair)
    mean_t = float(pair.mean())
    se_t = float(pair.std(ddof=1) / math.sqrt(n))
    tilt_ok = abs(mean_t - tilt_ref) <= 5.0 * se_t

    if wd.sum() > 0:
        cond_mean = float((wd * pair).sum() / wd.sum())
        resid = wd * (pair - cond_mean)
        cond_se = float(np.sqrt((resid ** 2).sum()) / wd.sum())
    else:
        cond_mean, cond_se = math.nan, math.nan

    dev = np.abs(pair - profile_pairing) >= Delta
    dev_w = wd * dev
    dev_est = _unshift(float(dev_w.mean()), top)
    dev_se = _unshift(float(dev_w.std(ddof=1) / math.sqrt(n)), top)
    return RepulsionReport(
        pairing_mean_tilted=mean_t, pairing_se_tilted=se_t,
        pairing_tilt_reference=tilt_ref, tilt_mean_ok=tilt_ok,
        conditional_mean=cond_mean, conditional_se=cond_se,
        profile_pairing=profile_pairing, deviation_is_estimate=dev_est,
        deviation_is_se=dev_se, n_disconnected=int(disc.sum()), delta=Delta,
    )
