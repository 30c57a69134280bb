"""Scaling experiments: capacity and potential homogenization, walk
diffusivity, continuum references, and the tilted-measure disconnection
and repulsion pipelines.

All "as N grows" statements are rendered as Cauchy/trend verdicts over a
finite ladder of scales; nothing here certifies an asymptotic constant.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .lattice import blow_up, box_sites, linf_box, linf_sphere
from .environment import Conductances, EnvironmentLaw, environment_for_sites, sample_environment
from .potential import DirichletOperator, SolverError, dirichlet_form, harmonic_potential
from .gff import sample_matrix, tilt_log_weights
from .percolation import _seed_clusters
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


@dataclass
class ScalingSweep:
    N_list: list
    results: list
    rel_changes: list
    cauchy_ok: bool
    reference: float | None = None
    within_reference: bool | None = None


def capacity_scaling(law: EnvironmentLaw, lam: float, A, B, N_list, seed: int,
                     reference: float | None = None,
                     reference_rtol: float = 0.10,
                     cauchy_factor: float = 0.5,
                     threads: int = 1) -> ScalingSweep:
    """N^(2-d) cap_{B_N}(A_N) along an N ladder over one keyed environment.

    The same seed keys every scale, so the sweep sees a single
    conductance realization viewed at all N (the statements being probed
    are per-realization). Cauchy verdict: the last relative change drops
    below `cauchy_factor` times the previous one. The per-N solves are
    independent and run on a small worker pool when threads > 1; results
    do not depend on the execution order.
    """
    N_list = [int(N) for N in N_list]
    if sorted(N_list) != N_list or len(set(N_list)) != len(N_list):
        raise ValueError("N ladder must be strictly increasing")

    def one_scale(N: int) -> ScaleResult:
        A_N = blow_up(A, N)
        B_N = blow_up(B, N)
        if A_N.is_empty or not A_N.issubset(B_N):
            raise ValueError(f"blow-up at N={N} violates the nesting A in B")
        env = environment_for_sites(law, B_N, seed, lam)
        t0 = time.perf_counter()
        U = B_N.difference(A_N)
        op = DirichletOperator(env, U) if not U.is_empty else None
        h = harmonic_potential(env, A_N, B_N, op=op)
        cap = dirichlet_form(env, B_N, h)
        dt = time.perf_counter() - t0
        d = A_N.d
        return ScaleResult(N, N ** (2 - d) * cap, dt, len(U),
                           op.backend if op else "none")

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_scale, N_list))
    else:
        results = [one_scale(N) for N in N_list]
    vals = [r.scaled_capacity for r in results]
    rel = [abs(vals[i + 1] - vals[i]) / max(abs(vals[i + 1]), 1e-300)
           for i in range(len(vals) - 1)]
    cauchy_ok = all(rel[i + 1] <= cauchy_factor * rel[i] + 1e-12
                    for i in range(len(rel) - 1)) if len(rel) >= 2 else True
    sweep = ScalingSweep(N_list, results, rel, cauchy_ok)
    if reference is not None:
        sweep.reference = reference
        sweep.within_reference = abs(vals[-1] - reference) <= reference_rtol * abs(reference)
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


@dataclass
class PairingResult:
    N: int
    pairing: float


@dataclass
class PairingSweep:
    results: list
    rel_changes: list
    cauchy_ok: bool
    oracle: float | None = None
    within_oracle: bool | None = None


def potential_pairing_convergence(law: EnvironmentLaw, lam: float, A, B, f,
                                  N_list, seed: int,
                                  oracle: float | None = None,
                                  oracle_rtol: float = 0.10,
                                  cauchy_factor: float = 0.5) -> PairingSweep:
    """Riemann pairings N^(-d) sum_x h_{A_N,B_N}(x) f(x/N) along N."""
    results = []
    for N in [int(N) for N in N_list]:
        A_N = blow_up(A, N)
        B_N = blow_up(B, N)
        env = environment_for_sites(law, B_N, seed, lam)
        h = harmonic_potential(env, A_N, B_N)
        vals = f(B_N.coords / float(N))
        d = B_N.d
        results.append(PairingResult(N, float(np.sum(h * vals)) / N ** d))
    vals = [r.pairing for r in results]
    rel = [abs(vals[i + 1] - vals[i]) / max(abs(vals[i + 1]), 1e-300)
           for i in range(len(vals) - 1)]
    cauchy_ok = all(rel[i + 1] <= cauchy_factor * rel[i] + 1e-12
                    for i in range(len(rel) - 1)) if len(rel) >= 2 else True
    sweep = PairingSweep(results, rel, cauchy_ok)
    if oracle is not None:
        sweep.oracle = oracle
        sweep.within_oracle = abs(vals[-1] - oracle) <= oracle_rtol * abs(oracle)
    return sweep


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


def estimate_diffusivity(law: EnvironmentLaw, lam: float, t_horizon: float,
                         replicas: int, seed: int, mode: str = "vsrw",
                         window_half: int | None = None,
                         d: int = 3) -> DiffusivityEstimate:
    """Empirical covariance of X_t / sqrt(t) over independent walk
    replicas, variable- or constant-speed clocks.

    Replicas that touch the window edge are discarded and counted; more
    than 1% discards is treated as a geometry error.
    """
    if mode not in ("vsrw", "csrw"):
        raise ValueError("mode must be 'vsrw' or 'csrw'")
    if window_half is None:
        window_half = int(math.ceil(6.0 * math.sqrt(2.0 * d * t_horizon))) + 2
    window = box_sites([-window_half] * d, [window_half] * d)
    env = sample_environment(law, window, seed, lam)
    rng = stream(seed, "diffusivity", mode)
    pos = np.zeros((replicas, d), dtype=np.int64)
    clock = np.zeros(replicas)
    active = np.ones(replicas, dtype=bool)
    discarded = np.zeros(replicas, dtype=bool)
    offsets = np.zeros((2 * d, d), dtype=np.int64)
    for a in range(d):
        offsets[2 * a, a] = 1
        offsets[2 * a + 1, a] = -1
    guard = window_half - 1
    while np.any(active):
        idx = np.nonzero(active)[0]
        p = pos[idx]
        cols = []
        for a in range(d):
            step = np.zeros(d, dtype=np.int64)
            step[a] = 1
            cols.append(env.forward(p, a))
            cols.append(env.forward(p - step, a))
        w = np.stack(cols, axis=1)
        omega = w.sum(axis=1)
        rate = omega if mode == "vsrw" else np.ones_like(omega)
        zeta = rng.exponential(1.0 / rate)
        done = clock[idx] + zeta >= t_horizon
        clock[idx] += zeta
        active[idx[done]] = False
        move = idx[~done]
        if move.size == 0:
            continue
        wm = w[~done]
        u = rng.random(move.size)[:, None] * omega[~done][:, None]
        choice = (np.cumsum(wm, axis=1) <= u).sum(axis=1)
        choice = np.minimum(choice, 2 * d - 1)
        pos[move] += offsets[choice]
        out = np.abs(pos[move]).max(axis=1) >= guard
        discarded[move[out]] = True
        active[move[out]] = False
    kept = ~discarded
    n_disc = int(discarded.sum())
    if n_disc > 0.01 * replicas:
        raise SolverError(
            f"{n_disc} of {replicas} replicas hit the window; enlarge it")
    X = pos[kept].astype(np.float64)
    prod = np.einsum("ki,kj->kij", X, X) / t_horizon
    mat = prod.mean(axis=0)
    se = prod.std(axis=0, ddof=1) / math.sqrt(kept.sum())
    return DiffusivityEstimate(mat, se, mode, t_horizon, replicas, n_disc)


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


class _DisconnectionInstance:
    """Shared geometry, operator and event kernel for one (A, M, N)."""

    def __init__(self, env_or_law, A_shape, M: float, N: int, lam=None,
                 seed: int = 0, B_shape=None, d: int = 3):
        self.N = int(N)
        self.M = float(M)
        self.radius = int(math.floor(M * N))
        self.domain = box_sites([-self.radius] * d, [self.radius] * d)
        if isinstance(env_or_law, Conductances):
            self.env = env_or_law
            if not self.domain.issubset(self.env.window):
                raise ValueError("environment window too small for the box")
        else:
            if lam is None:
                raise ValueError("a law needs the ellipticity parameter lam")
            self.env = environment_for_sites(env_or_law, self.domain, seed, lam)
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
        self._target = (slice(None),) + tuple((self.S_N.coords - lo).T)

    def tilt_function(self, strength: float, delta_shell: float, A_shape) -> np.ndarray:
        Ad = A_shape.inflate(delta_shell) if delta_shell > 0 else A_shape
        Ad_N = blow_up(Ad, self.N, d=self.domain.d)
        if not Ad_N.issubset(self.B_N):
            raise ValueError("inflated set escapes the killing region")
        h = harmonic_potential(self.env, Ad_N, self.B_N)
        f = np.zeros(len(self.domain))
        f[self.domain.locate(self.B_N.coords)] = h
        self._cap_tilt = dirichlet_form(self.env, self.domain, f)
        return -strength * f

    def disconnected(self, fields: np.ndarray, alpha: float) -> np.ndarray:
        """Bool per column: no level-set path from A_N to the shell."""
        mask = (fields >= alpha).T.reshape((fields.shape[1],) + self._shape)
        return ~_seed_clusters(mask, self._seed)[self._target].any(axis=1)


def disconnection_rate_experiment(env_or_law, A_shape, M: float, alpha: float,
                                  alpha_star_ref: float, epsilon: float,
                                  delta_shell: float, N: int,
                                  direct_replicas: int, tilted_replicas: int,
                                  seed: int, lam: float | None = None,
                                  B_shape=None, eps_ladder=None,
                                  chunk: int = 500, d: int = 3) -> DisconnectionReport:
    """Direct and entropically tilted estimation of the probability that
    the level set disconnects the blown-up set from the enclosing shell.

    The tilt pushes the field down by (alpha_star_ref - alpha + epsilon)
    times the harmonic potential of the inflated set, the finite-size
    stand-in for the construction behind the large-deviation lower
    bound; likelihood ratios are exact, so the importance-sampling
    estimator is unbiased for any epsilon.
    """
    inst = _DisconnectionInstance(env_or_law, A_shape, M, N, lam=lam,
                                  seed=seed, B_shape=B_shape, d=d)
    rng = stream(seed, "disconnect-direct")
    hits = 0
    done = 0
    while done < direct_replicas:
        k = min(chunk, direct_replicas - done)
        block = sample_matrix(inst.env, inst.domain, k, rng, op=inst.op)
        hits += int(inst.disconnected(block, alpha).sum())
        done += k
    p_direct = hits / direct_replicas
    se_direct = binomial_se(p_direct, direct_replicas)

    ladder_eps = list(eps_ladder) if eps_ladder is not None else [epsilon]
    if epsilon not in ladder_eps:
        ladder_eps.append(epsilon)
    ladder = []
    main_point = None
    for eps in ladder_eps:
        strength = alpha_star_ref - alpha + eps
        f = inst.tilt_function(strength, delta_shell, A_shape)
        H = 0.5 * strength ** 2 * inst._cap_tilt
        trng = stream(seed, "disconnect-tilted", repr(float(eps)))
        wsum = 0.0
        w2sum = 0.0
        hits_t = 0
        done_t = 0
        while done_t < tilted_replicas:
            k = min(chunk, tilted_replicas - done_t)
            block = sample_matrix(inst.env, inst.domain, k, trng, op=inst.op) + f[:, None]
            disc = inst.disconnected(block, alpha)
            logw = tilt_log_weights(inst.env, inst.domain, f, block, op=inst.op)
            wd = np.exp(logw) * disc
            wsum += float(wd.sum())
            w2sum += float((wd ** 2).sum())
            hits_t += int(disc.sum())
            done_t += k
        n = tilted_replicas
        is_est = wsum / n
        is_se = math.sqrt(max(w2sum / n - is_est ** 2, 0.0) / n)
        freq = hits_t / n
        ess = wsum ** 2 / w2sum if w2sum > 0 else 0.0
        point = LadderPoint(float(eps), freq, binomial_se(freq, n),
                            is_est, is_se, ess, H)
        ladder.append(point)
        if eps == epsilon:
            main_point = point

    mp = main_point
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

    cap_scaled = N ** (2 - d) * inst._cap_tilt
    rate_dir = -N ** (2 - d) * log_direct if np.isfinite(log_direct) else math.inf
    rate_is = (-N ** (2 - d) * math.log(mp.is_estimate)
               if mp.is_estimate > 0 else math.inf)
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
        ladder=ladder,
    )


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


def repulsion_experiment(env_or_law, A_shape, M: float, alpha: float,
                         alpha_star_ref: float, epsilon: float,
                         delta_shell: float, N: int, tilted_replicas: int,
                         seed: int, eta_spec: dict, Delta: float,
                         lam: float | None = None, B_shape=None,
                         chunk: int = 500, se_mult: float = 5.0,
                         d: int = 3) -> RepulsionReport:
    """Behavior of the macroscopic field average under the tilted law.

    Pairs the empirical field with a test function, checks that the
    unconditional tilted mean matches the deterministic tilt pairing,
    and reports the disconnection-conditioned, reweighted mean next to
    the finite-volume profile pairing -(ref - alpha) <h_{A_N,B_N}, eta>.
    """
    inst = _DisconnectionInstance(env_or_law, A_shape, M, N, lam=lam,
                                  seed=seed, B_shape=B_shape, d=d)
    eta = eta_from_spec(eta_spec)
    eta_tilde = eta(inst.domain.coords / float(N)) / float(N) ** d
    strength = alpha_star_ref - alpha + epsilon
    f = inst.tilt_function(strength, delta_shell, A_shape)
    h_A = harmonic_potential(inst.env, inst.A_N, inst.B_N)
    eta_on_B = eta(inst.B_N.coords / float(N)) / float(N) ** d
    profile_pairing = -(alpha_star_ref - alpha) * float(np.sum(h_A * eta_on_B))

    trng = stream(seed, "repulsion-tilted")
    pair_vals = []
    disc_flags = []
    logws = []
    done_t = 0
    while done_t < tilted_replicas:
        k = min(chunk, tilted_replicas - done_t)
        block = sample_matrix(inst.env, inst.domain, k, trng, op=inst.op) + f[:, None]
        pair_vals.append(block.T @ eta_tilde)
        disc_flags.append(inst.disconnected(block, alpha))
        logws.append(tilt_log_weights(inst.env, inst.domain, f, block, op=inst.op))
        done_t += k
    pair = np.concatenate(pair_vals)
    disc = np.concatenate(disc_flags)
    w = np.exp(np.concatenate(logws))
    n = tilted_replicas

    mean_t = float(pair.mean())
    se_t = float(pair.std(ddof=1) / math.sqrt(n))
    tilt_ref = float(f @ eta_tilde)
    tilt_ok = abs(mean_t - tilt_ref) <= se_mult * se_t

    wd = w * disc
    if wd.sum() > 0:
        cond_mean = float((wd * pair).sum() / wd.sum())
        resid = wd * (pair - cond_mean)
        cond_se = float(np.sqrt((resid ** 2).sum()) / wd.sum())
    else:
        cond_mean, cond_se = math.nan, math.nan

    dev = np.abs(pair - profile_pairing) >= Delta
    dev_w = w * (dev & disc)
    dev_est = float(dev_w.mean())
    dev_se = float(dev_w.std(ddof=1) / math.sqrt(n))
    return RepulsionReport(
        pairing_mean_tilted=mean_t, pairing_se_tilted=se_t,
        pairing_tilt_reference=tilt_ref, tilt_mean_ok=tilt_ok,
        conditional_mean=cond_mean, conditional_se=cond_se,
        profile_pairing=profile_pairing, deviation_is_estimate=dev_est,
        deviation_is_se=dev_se, n_disconnected=int(disc.sum()), delta=Delta,
    )
