"""Discrete potential theory on finite domains of the weighted lattice.

The single normalization used everywhere: the killed Green function is
the inverse of the killed weighted Laplacian L_U, where

    L_U[x, x] = omega_x,   L_U[x, y] = -omega_{x,y}  (x ~ y, both in U).

One symmetric positive-definite solve therefore serves Green functions,
harmonic potentials, capacities and field covariances alike.

Solver policy: exact sparse factorization (SuperLU, symmetric mode) up
to `factor_limit` unknowns, Jacobi-preconditioned conjugate gradients
beyond.

Gaussian sampling (Rue 2001): with L_U = U^T U the banded Cholesky
factor, x = U^{-1} z for z standard normal has covariance L_U^{-1}. All
draws of one call share a single back-substitution over row blocks of
the band's height, a BLAS-3 triangular multiply and solve per block, so
the band is read once per call, not once per draw. When the band does
not fit in memory, an exact incidence splitting through the LU solve is
used instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, cholesky_banded

from .lattice import SiteSet, as_coords, ball
from .environment import Conductances
from .streams import binomial_se

DEFAULT_FACTOR_LIMIT = 160_000
DEFAULT_BANDED_LIMIT = 200_000_000  # stored band entries
DEFAULT_CG_TOL = 1e-10


class SolverError(RuntimeError):
    pass


def killed_laplacian(env: Conductances, U: SiteSet) -> sp.csr_matrix:
    """Assemble L_U (diagonal = full site weight, so leaving U kills)."""
    n = len(U)
    diag = env.site_weights(U.coords)
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    vals = [diag]
    for a in range(U.d):
        step = np.zeros(U.d, dtype=np.int64)
        step[a] = 1
        j = U.locate(U.coords + step)
        mask = j >= 0
        if not np.any(mask):
            continue
        i = np.nonzero(mask)[0]
        w = env.forward(U.coords[mask], a)
        rows.extend([i, j[mask]])
        cols.extend([j[mask], i])
        vals.extend([-w, -w])
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return mat.tocsr()


class DirichletOperator:
    """Killed Laplacian over a site set with a reusable solver handle."""

    def __init__(self, env: Conductances, U: SiteSet, *,
                 factor_limit: int = DEFAULT_FACTOR_LIMIT,
                 banded_limit: int = DEFAULT_BANDED_LIMIT,
                 cg_tol: float = DEFAULT_CG_TOL):
        if U.is_empty:
            raise ValueError("domain must be non-empty")
        self.env = env
        self.sites = U
        self.matrix = killed_laplacian(env, U)
        self.n = len(U)
        self.cg_tol = cg_tol
        self.banded_limit = banded_limit
        off = self.matrix.tocoo()
        self.bandwidth = int(np.abs(off.row - off.col).max()) if off.nnz else 0
        self._lu = None
        self._chol_band = None
        self._incidence = None
        self.backend = "splu" if self.n <= factor_limit else "cg"
        self.solve_count = 0

    # -- linear solves -------------------------------------------------------

    def _get_lu(self):
        if self._lu is None:
            self._lu = spla.splu(
                self.matrix.tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        return self._lu

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve L_U x = rhs; rhs may be a vector or an (n, k) block."""
        rhs = np.asarray(rhs, dtype=np.float64)
        single = rhs.ndim == 1
        if rhs.shape[0] != self.n:
            raise ValueError("right-hand side has wrong length")
        self.solve_count += 1
        if self.backend == "splu":
            return self._get_lu().solve(rhs)
        block = rhs[:, None] if single else rhs
        inv_diag = 1.0 / self.matrix.diagonal()
        precond = spla.LinearOperator((self.n, self.n), matvec=lambda v: inv_diag * v)
        cols = []
        for k in range(block.shape[1]):
            x, info = spla.cg(self.matrix, block[:, k], rtol=self.cg_tol,
                              atol=0.0, M=precond, maxiter=20 * self.n)
            if info != 0:
                raise SolverError(f"conjugate gradients failed to converge (info={info})")
            cols.append(x)
        out = np.stack(cols, axis=1)
        return out[:, 0] if single else out

    # -- Gaussian sampling with covariance L_U^{-1} ----------------------------

    def _banded_feasible(self) -> bool:
        return self.n * (self.bandwidth + 1) <= self.banded_limit

    def _get_chol_band(self):
        if self._chol_band is None:
            bw = self.bandwidth
            ab = np.zeros((bw + 1, self.n))
            coo = self.matrix.tocoo()
            upper = coo.col >= coo.row
            r, c, v = coo.row[upper], coo.col[upper], coo.data[upper]
            ab[bw - (c - r), c] = v
            self._chol_band = cholesky_banded(ab, lower=False)
        return self._chol_band

    def _get_incidence(self):
        # F with F^T F = L_U: one row per in-domain edge plus killing rows
        if self._incidence is None:
            U, env = self.sites, self.env
            rows, cols, vals = [], [], []
            row_count = 0
            interior = np.zeros(self.n)
            for a in range(U.d):
                step = np.zeros(U.d, dtype=np.int64)
                step[a] = 1
                j = U.locate(U.coords + step)
                mask = j >= 0
                i = np.nonzero(mask)[0]
                w = env.forward(U.coords[mask], a)
                interior[i] += w
                interior[j[mask]] += w
                m = len(i)
                r = row_count + np.arange(m)
                rows.extend([r, r])
                cols.extend([i, j[mask]])
                s = np.sqrt(w)
                vals.extend([s, -s])
                row_count += m
            kill = self.matrix.diagonal() - interior
            kill = np.clip(kill, 0.0, None)
            k_idx = np.nonzero(kill > 0)[0]
            r = row_count + np.arange(len(k_idx))
            rows.append(r)
            cols.append(k_idx)
            vals.append(np.sqrt(kill[k_idx]))
            row_count += len(k_idx)
            self._incidence = sp.coo_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(row_count, self.n),
            ).tocsr()
        return self._incidence

    def sample_gaussian(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """(n, count) draws of N(0, L_U^{-1}), exact given the factorization."""
        if self._banded_feasible():
            R = self._get_chol_band()
            if not R[-1].all():
                raise SolverError("banded Cholesky factor has a zero pivot")
            z = rng.standard_normal((self.n, count))
            _band_back_substitute(R, z.T)
            return z
        if self.backend == "splu":
            F = self._get_incidence()
            z = rng.standard_normal((F.shape[0], count))
            return self._get_lu().solve(F.T @ z)
        raise SolverError(
            "sampling needs a factorization; domain exceeds the factor limit"
        )


def _band_back_substitute(R: np.ndarray, y: np.ndarray) -> None:
    """Overwrite y (k, n) with the solution x of x U^T = y, i.e. each row
    r with U^{-1} r, where R is U in LAPACK upper band storage (bw + 1, n).

    R is Fortran-ordered, so U[r, c] sits at R.ravel("F")[bw + r + c*bw]:
    the diagonal block of rows [s, s + bw) and the block to its right are
    each a contiguous Fortran bw x bw window, whose upper and lower
    triangles respectively are the band. Blocks run from the bottom; the
    top rows left over when bw does not divide n get a zero-filled copy.
    """
    bw, n = R.shape[0] - 1, R.shape[1]
    if bw == 0:
        y /= R[0]
        return
    flat = R.ravel(order="F")

    def window(r: int, c: int, cols: int = bw) -> np.ndarray:
        off = bw + r + c * bw
        return flat[off:off + bw * cols].reshape(bw, cols, order="F")

    for s in range(n - bw, -1, -bw):
        blk = slice(s, s + bw)
        if s + bw < n:
            y[:, blk] -= blas.dtrmm(1.0, window(s, s + bw), y[:, s + bw:s + 2 * bw],
                                    side=1, lower=1, trans_a=1)
        y[:, blk] = blas.dtrsm(1.0, window(s, s), y[:, blk], side=1, trans_a=1,
                               overwrite_b=1)
    top = n % bw
    if top:
        rows = np.triu(np.tril(window(0, 0, top + bw)[:top], bw))
        y[:, :top] -= y[:, top:top + bw] @ rows[:, top:].T
        y[:, :top] = blas.dtrsm(1.0, rows[:, :top], y[:, :top], side=1,
                                trans_a=1, overwrite_b=1)


def as_operator(env, U, op=None) -> DirichletOperator:
    if op is not None:
        if op.sites != U:
            raise ValueError("supplied operator was built for a different domain")
        return op
    return DirichletOperator(env, U)


# ---------------------------------------------------------------------------
# Green functions


def green_killed(env: Conductances, U: SiteSet, mode: str = "full_matrix",
                 x=None, y=None, op: DirichletOperator | None = None):
    """Killed Green function g_U = L_U^{-1}, zero off U.

    mode: 'full_matrix' (dense (n, n)), 'column' (vector over U for the
    site y), or 'entry' (scalar g_U(x, y)).
    """
    if U.is_empty:
        raise ValueError("domain must be non-empty")
    if mode == "full_matrix":
        opU = as_operator(env, U, op)
        return opU.solve(np.eye(len(U)))
    if mode == "column":
        iy = U.locate(as_coords(y, U.d))[0]
        if iy < 0:
            return np.zeros(len(U))
        rhs = np.zeros(len(U))
        rhs[iy] = 1.0
        return as_operator(env, U, op).solve(rhs)
    if mode == "entry":
        ix = U.locate(as_coords(x, U.d))[0]
        if ix < 0:
            return 0.0
        col = green_killed(env, U, "column", y=y, op=op)
        return float(col[ix])
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Harmonic potentials, equilibrium measures, capacities


def boundary_flux_rhs(env: Conductances, U: SiteSet, data_sites: SiteSet,
                      data_values: np.ndarray) -> np.ndarray:
    """Right-hand side for the Dirichlet problem on U with the given
    boundary data (zero on unlisted exterior sites)."""
    values = np.asarray(data_values, dtype=np.float64)
    single = values.ndim == 1
    block = values[:, None] if single else values
    rhs = np.zeros((len(U), block.shape[1]))
    for a in range(U.d):
        step = np.zeros(U.d, dtype=np.int64)
        step[a] = 1
        for sgn in (1, -1):
            nb = U.coords + sgn * step
            j = data_sites.locate(nb)
            mask = (j >= 0) & (U.locate(nb) < 0)
            if not np.any(mask):
                continue
            origin = U.coords[mask] if sgn == 1 else nb[mask]
            w = env.forward(origin, a)
            rhs[mask] += w[:, None] * block[j[mask]]
    return rhs[:, 0] if single else rhs


def harmonic_extension(env: Conductances, U: SiteSet, data_sites: SiteSet,
                       data_values: np.ndarray,
                       op: DirichletOperator | None = None) -> np.ndarray:
    """Solve the discrete Dirichlet problem on U with exterior data.

    data_values may be (m,) or (m, k) for k simultaneous data sets.
    """
    rhs = boundary_flux_rhs(env, U, data_sites, data_values)
    return as_operator(env, U, op).solve(rhs)


def harmonic_potential(env: Conductances, A: SiteSet, B: SiteSet,
                       op: DirichletOperator | None = None) -> np.ndarray:
    """h(x) = P_x[hit A before exiting B], returned over B (1 on A)."""
    if A.is_empty:
        raise ValueError("target set A must be non-empty")
    if not A.issubset(B):
        raise ValueError("A must be contained in B")
    h = np.zeros(len(B))
    in_A = A.contains_mask(B.coords)
    h[in_A] = 1.0
    U = SiteSet(B.coords[~in_A], B.d)
    if not U.is_empty:
        hU = harmonic_extension(env, U, A, np.ones(len(A)), op=op)
        h[~in_A] = hU
    return h


def apply_killed_laplacian(env: Conductances, S: SiteSet, values: np.ndarray) -> np.ndarray:
    """(L_S v)(x) for v given over S (zero outside)."""
    return killed_laplacian(env, S) @ np.asarray(values, dtype=np.float64)


def equilibrium_measure(env: Conductances, A: SiteSet, B: SiteSet,
                        h: np.ndarray | None = None,
                        op: DirichletOperator | None = None) -> np.ndarray:
    """Killed equilibrium measure e_{A,B} on A (Laplacian flux of h_{A,B})."""
    if h is None:
        h = harmonic_potential(env, A, B, op=op)
    flux = apply_killed_laplacian(env, B, h)
    idx = B.locate(A.coords)
    if np.any(idx < 0):
        raise ValueError("A must be contained in B")
    return flux[idx]


def dirichlet_form(env: Conductances, sites: SiteSet, f: np.ndarray,
                   g: np.ndarray | None = None) -> float:
    """Energy (1/2) sum over ordered neighbor pairs of w (df)(dg).

    f, g live on `sites` and extend by zero; every edge with at least one
    endpoint in `sites` contributes.
    """
    f = np.asarray(f, dtype=np.float64)
    g = f if g is None else np.asarray(g, dtype=np.float64)
    total = 0.0
    for a in range(sites.d):
        step = np.zeros(sites.d, dtype=np.int64)
        step[a] = 1
        # edges whose origin is a member
        w = env.forward(sites.coords, a)
        j = sites.locate(sites.coords + step)
        f1 = np.where(j >= 0, f[np.maximum(j, 0)], 0.0)
        g1 = np.where(j >= 0, g[np.maximum(j, 0)], 0.0)
        total += float(np.sum(w * (f1 - f) * (g1 - g)))
        # edges entering from a non-member origin (other endpoint zero)
        back = sites.coords - step
        outside = sites.locate(back) < 0
        if np.any(outside):
            w2 = env.forward(back[outside], a)
            total += float(np.sum(w2 * f[outside] * g[outside]))
    return total


def capacity(env: Conductances, A: SiteSet, B: SiteSet,
             op: DirichletOperator | None = None,
             h: np.ndarray | None = None) -> float:
    """cap_B(A) as the Dirichlet energy of the harmonic potential."""
    if h is None:
        h = harmonic_potential(env, A, B, op=op)
    return dirichlet_form(env, B, h)


def energy_W(env: Conductances, U: SiteSet, h: np.ndarray,
             op: DirichletOperator | None = None) -> float:
    """Quadratic form h^T g_U h (finite-volume energy of a charge h on U)."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape[0] != len(U):
        raise ValueError("charge vector must align with U")
    return float(h @ as_operator(env, U, op).solve(h))


def dump_vector(path, sites: SiteSet, values: np.ndarray) -> None:
    """Debug text dump: one `index value` line per site, in site order."""
    values = np.asarray(values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={len(sites)} d={sites.d}\n")
        for i in range(len(sites)):
            fh.write(f"{i} {format(float(values[i]), '.17g')}\n")


def load_vector(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.split() for line in fh if not line.startswith("#")]
    out = np.empty(len(rows))
    for idx, val in rows:
        out[int(idx)] = float(val)
    return out


@dataclass
class UnkilledCapacityReport:
    radii: list
    values: list
    error_bounds: list
    monotone_ok: bool
    value: float
    error_bound: float


def capacity_unkilled_approx(law, lam: float, A: SiteSet, radii, seed: int,
                             green_const: float = 1.0,
                             monotone_tol: float = 1e-9) -> UnkilledCapacityReport:
    """Finite-volume approximations cap_{B(0,R)}(A) along growing radii.

    The reported one-sided error bound, green_const * cap^2 / dist^(d-2),
    uses a configurable stand-in for the non-constructive Green constant.
    """
    from .environment import environment_for_sites

    radii = [int(r) for r in radii]
    if sorted(radii) != radii:
        raise ValueError("radii must be increasing")
    amax = int(np.abs(A.coords).max())
    values, bounds = [], []
    for R in radii:
        B = ball(np.zeros(A.d, dtype=np.int64), R, A.d)
        if not A.issubset(B):
            raise ValueError("A must fit inside every ball")
        env = environment_for_sites(law, B, seed, lam)
        cap = capacity(env, A, B)
        dist = R + 1 - amax
        values.append(cap)
        bounds.append(green_const * cap ** 2 / dist ** (A.d - 2))
    diffs = np.diff(values)
    monotone_ok = bool(np.all(diffs <= monotone_tol))
    return UnkilledCapacityReport(radii, values, bounds, monotone_ok,
                                  values[-1], bounds[-1])


# ---------------------------------------------------------------------------
# Heat kernel by uniformization


def poisson_truncation(t: float, tol: float) -> int:
    """Smallest K with Chernoff tail bound P[Poisson(t) > K] < tol."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if t == 0:
        return 0
    K = max(int(math.ceil(t)), 1)
    while True:
        # exp(-t) (e t / K)^K, valid for K >= t
        log_tail = -t + K + K * math.log(t / K)
        if log_tail < math.log(tol):
            return K
        K += 1


def heat_kernel_killed(env: Conductances, U: SiteSet, t: float, x,
                       tol: float = 1e-12) -> np.ndarray:
    """q_{t,U}(x, .) over U: e^{-t} sum_k (t^k/k!) P_U^k delta_x / omega.

    Truncation index from the Poisson Chernoff tail, so the discarded
    mass is below `tol` deterministically.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t > 700:
        raise ValueError("uniformization underflows for t > 700")
    ix = U.index_of(x)
    omega = env.site_weights(U.coords)
    L = killed_laplacian(env, U)
    # one-step CSRW matrix restricted to U
    P = sp.diags(1.0 / omega) @ (sp.diags(omega) - L)
    K = poisson_truncation(t, tol)
    v = np.zeros(len(U))
    v[ix] = 1.0
    weight = math.exp(-t)
    acc = weight * v
    for k in range(1, K + 1):
        v = P.T @ v
        weight *= t / k
        acc = acc + weight * v
    return acc / omega


# ---------------------------------------------------------------------------
# Random walk simulation


@dataclass
class StoppingRules:
    """First rule to fire stops the walk; exit or time_cap must be set."""

    hit: SiteSet | None = None
    exit: SiteSet | None = None
    radius: int | None = None
    time_cap: float | None = None

    def __post_init__(self):
        if self.exit is None and self.time_cap is None:
            raise ValueError("an exit rule or a time cap is required")


@dataclass
class WalkPath:
    skeleton: np.ndarray
    holding_times: np.ndarray
    stop_reason: str
    total_time: float


def _jump_distribution(env: Conductances, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-walker neighbor weights (k, 2d) and site weights (k,)."""
    d = pos.shape[1]
    cols = []
    for a in range(d):
        step = np.zeros(d, dtype=np.int64)
        step[a] = 1
        cols.append(env.forward(pos, a))
        cols.append(env.forward(pos - step, a))
    w = np.stack(cols, axis=1)
    return w, w.sum(axis=1)


def _step_offsets(d: int) -> np.ndarray:
    # matches the column order of _jump_distribution
    out = np.zeros((2 * d, d), dtype=np.int64)
    for a in range(d):
        out[2 * a, a] = 1
        out[2 * a + 1, a] = -1
    return out


def walk_simulate(env: Conductances, start, rules: StoppingRules,
                  rng: np.random.Generator, mode: str = "csrw",
                  max_steps: int = 10_000_000) -> WalkPath:
    """One trajectory of the constant- (or variable-) speed walk.

    Skeleton transitions jump from y to a neighbor z with probability
    omega_{y,z} / omega_y; holding times are Exp(1) for the CSRW and
    Exp(omega_y) for the VSRW. Hitting, exit and radius rules are
    skeleton events; the time cap uses the clock.
    """
    if mode not in ("csrw", "vsrw"):
        raise ValueError("mode must be 'csrw' or 'vsrw'")
    pos = as_coords(start, env.d)[0].copy()
    origin = pos.copy()
    skeleton = [pos.copy()]
    holdings: list[float] = []
    elapsed = 0.0
    offsets = _step_offsets(env.d)
    for _ in range(max_steps):
        if rules.hit is not None and pos in rules.hit:
            return WalkPath(np.array(skeleton), np.array(holdings), "hit", elapsed)
        if rules.exit is not None and pos not in rules.exit:
            return WalkPath(np.array(skeleton), np.array(holdings), "exit", elapsed)
        if rules.radius is not None and np.abs(pos - origin).max() >= rules.radius:
            return WalkPath(np.array(skeleton), np.array(holdings), "radius", elapsed)
        try:
            w, omega = _jump_distribution(env, pos[None, :])
        except ValueError as exc:
            raise SolverError("walk reached the environment window edge") from exc
        rate = 1.0 if mode == "csrw" else float(omega[0])
        zeta = rng.exponential(1.0 / rate)
        if rules.time_cap is not None and elapsed + zeta >= rules.time_cap:
            return WalkPath(np.array(skeleton), np.array(holdings), "time_cap",
                            rules.time_cap)
        elapsed += zeta
        holdings.append(zeta)
        u = rng.random() * omega[0]
        k = int(np.searchsorted(np.cumsum(w[0]), u, side="right"))
        k = min(k, 2 * env.d - 1)
        pos = pos + offsets[k]
        skeleton.append(pos.copy())
    raise SolverError("walk exceeded the step budget without stopping")


def hitting_frequency(env: Conductances, start, target: SiteSet,
                      domain: SiteSet | None, rng: np.random.Generator,
                      replicas: int, radius: int | None = None,
                      max_steps: int = 10_000_000) -> tuple[float, float]:
    """Batched skeleton Monte Carlo for P[H_target before exit/radius].

    Returns (frequency, binomial standard error). All replicas advance in
    lock step; each replica freezes once its first rule fires.
    """
    if domain is None and radius is None:
        raise ValueError("need a bounded domain or a radius to terminate")
    d = env.d
    start = as_coords(start, d)[0]
    pos = np.tile(start, (replicas, 1))
    origin = pos.copy()
    active = np.ones(replicas, dtype=bool)
    hit = np.zeros(replicas, dtype=bool)
    offsets = _step_offsets(d)
    for _ in range(max_steps):
        if not np.any(active):
            break
        idx = np.nonzero(active)[0]
        p = pos[idx]
        now_hit = target.contains_mask(p)
        hit[idx[now_hit]] = True
        active[idx[now_hit]] = False
        idx = idx[~now_hit]
        p = p[~now_hit]
        if idx.size and domain is not None:
            out = ~domain.contains_mask(p)
            active[idx[out]] = False
            idx = idx[~out]
            p = p[~out]
        if idx.size and radius is not None:
            far = np.abs(p - origin[idx]).max(axis=1) >= radius
            active[idx[far]] = False
            idx = idx[~far]
            p = p[~far]
        if not idx.size:
            continue
        w, omega = _jump_distribution(env, p)
        u = rng.random(idx.size)[:, None] * omega[:, None]
        choice = (np.cumsum(w, axis=1) <= u).sum(axis=1)
        choice = np.minimum(choice, 2 * d - 1)
        pos[idx] = p + offsets[choice]
    else:
        raise SolverError("batched walk exceeded the step budget")
    freq = hit.mean()
    return float(freq), binomial_se(freq, replicas)
