"""Discrete potential theory on finite domains of the weighted lattice.

The single normalization used everywhere: the killed Green function is
the inverse of the killed weighted Laplacian L_U, where

    L_U[x, x] = omega_x,   L_U[x, y] = -omega_{x,y}  (x ~ y, both in U).

One symmetric positive-definite solve therefore serves Green functions,
harmonic potentials, capacities and field covariances alike.

Edges are enumerated by two tables, both (n, 2d) in the step order of
`lattice.neighbor_steps`: `Conductances.neighbor_weights` reads the 2d
edge weights at each site in one gather (walk steps take the same offsets
at flat indices, `neighbor_weights_at`), and `SiteSet.neighbors` gives
the dense index of each neighbor x + s in U, -1 outside U. The two tables
side by side are L_U: `killed_laplacian` writes them into CSR row by row,
whose columns already ascend in reversed step order. The same tables give
the incidence factor's edges and killing rows, and the boundary flux,
which looks up data and gathers weights only at the sites with a neighbor
outside U. Dirichlet energies are quadratic forms of L_U.

Capacities are read from the flux on A: the equilibrium measure is
(L_B h)(x) = sum_y omega_{x,y} (h(x) - h(y)) at each x of A, taken from
the neighbor weights of A alone, and cap_B(A) is its sum. Since h is
harmonic off A and 1 on A, that sum is the energy h^T L_B h, with no
matrix assembled on B.

Solver policy: two mechanisms, the band Cholesky factor L_U = U^T U and
conjugate gradients on the red-black reduced system, and one rule,
`band_pays`, choosing per call from the size n, the bandwidth bw and the
number of right-hand sides or draws. A call goes through the band factor
when it already exists, or when factoring (~ n bw^2) is cheaper than that
many CG solves and the band fits BAND_BYTES; every other call runs CG. So
a block of hundreds of draws factors, and a single solve on a large domain
does not. A band solve is two blocked sweeps over all its right-hand
sides at once, forward through U^T and back through U, each a BLAS-3
triangular multiply and solve per row block of the band's height.

CG runs on the even sites alone. Nearest neighbours differ in the parity
of their coordinate sum, so ordered even sites first L_U is
[[D_e, -W], [-W^T, D_o]] with D_e and D_o diagonal (L_U is 2-cyclic).
Eliminating the odd sites leaves the Schur complement
S = D_e - W D_o^{-1} W^T, solved by CG with Jacobi preconditioner D_e;
the odd values follow in one product. This takes about half the
iterations of Jacobi PCG on L_U (Hageman & Young, Applied Iterative
Methods, 1981, ch. 9), each of about the same cost.

Gaussian sampling (Rue 2001): x = U^{-1} z for z standard normal has
covariance L_U^{-1}. All draws of one call share a single
back-substitution over row blocks of the band's height, a BLAS-3
triangular multiply and solve per block, so the band is read once per
call, not once per draw. Without a factor the draw is x = L_U^{-1} F^T z,
F the incidence factor with F^T F = L_U and z one standard normal per row
of F, solved by CG: again covariance L_U^{-1}, with no factor built.

Walks: one loop, `_walk`, steps every walker, in lock step for a batch
(`hitting_frequency`, `homogenization.estimate_diffusivity`) and alone,
with its path recorded, for `walk_simulate`. All walkers start at one
site; each is its flat index into the environment window, moved by
s @ strides, its weights one unchecked take. `StoppingRules.codes` stops
them: one int8 per window site, built once per walk, reads hit, then
exit, then radius, and EDGE on the window's outer layers, where no rule
fires. A walker on EDGE, or `MAX_WALK_STEPS` steps without stopping,
raises `SolverError`; the time cap reads the clock, which runs only with
a walk mode. Flat indices become sites once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, cholesky_banded

from .lattice import SiteSet, as_coords, ball, neighbor_steps
from .environment import Conductances
from .streams import binomial_se

BAND_BYTES = 1_600_000_000  # largest band factor ever allocated
CG_TOL = 1e-10
CG_COLUMNS = 64  # right-hand sides per CG block, so work arrays stay n x 64
# Cost model of `band_pays`. On a domain of extent s = n / bw along its
# slowest axis (the side of a box, whose lexicographic bandwidth bw is a
# cross-section), reduced CG takes about 2.5 s iterations of two sparse
# products with W each, so one solve costs ~ n^2 / bw, against n bw^2 for
# the band factor. Timed on 2 vCPU (OpenBLAS), factoring costs as much as k
# CG draws with k = 13-14 on 25^3, 27-29 on 35^3 and 36 on 41^3 boxes, that
# is bw^3 / (k n) = 1100-1900; the rule factors when bw^3 <= 4000 count n,
# which was fitted to Jacobi PCG on L_U at twice the iterations.
PCG_PER_FACTOR = 4000
MAX_WALK_STEPS = 10_000_000


class SolverError(RuntimeError):
    pass


def killed_laplacian(env: Conductances, U: SiteSet) -> sp.csr_matrix:
    """Assemble L_U (diagonal = full site weight, so leaving U kills)
    straight into CSR from U's neighbor table: the columns of row x ascend
    as x - e_0, ..., x - e_{d-1}, x, x + e_{d-1}, ..., x + e_0, each kept
    when it lies in U."""
    n = len(U)
    nw = env.neighbor_weights(U.coords)
    vals = np.hstack([-nw[:, 1::2], nw.sum(axis=1)[:, None], -nw[:, -2::-2]])
    del nw  # each table is dropped once copied: the assembly sets the memory peak
    nb = U.neighbors()
    cols = np.hstack([nb[:, 1::2], np.arange(n)[:, None], nb[:, -2::-2]])
    del nb
    keep = cols >= 0
    data = vals[keep]
    del vals
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sp.csr_matrix((data, cols[keep], indptr), shape=(n, n))


def band_pays(n: int, bw: int, count: int, factored: bool) -> bool:
    """Whether `count` solves or draws on an n-site operator of bandwidth
    bw go through its band Cholesky factor rather than CG.

    Always once the factor exists; never when the band exceeds
    BAND_BYTES; otherwise when factoring (~ n bw^2) costs less than
    `count` CG solves (~ n^2 / bw each, in units PCG_PER_FACTOR times
    dearer). Break-even is 4 draws on a 25^3 box and 20 on 43^3.
    """
    if factored:
        return True
    if n * (bw + 1) * 8 > BAND_BYTES:
        return False
    return bw ** 3 <= PCG_PER_FACTOR * count * n


class DirichletOperator:
    """Killed Laplacian over a site set with a reusable solver handle."""

    def __init__(self, env: Conductances, U: SiteSet):
        if U.is_empty:
            raise ValueError("domain must be non-empty")
        self.env = env
        self.sites = U
        self.matrix = killed_laplacian(env, U)
        self.n = len(U)
        # each row's last column is its farthest, L_U being symmetric
        last = self.matrix.indices[self.matrix.indptr[1:] - 1]
        self.bandwidth = int((last - np.arange(self.n)).max())
        self._lu = None
        self._incidence = None
        self._split = None

    @property
    def backend(self) -> str:
        """'band' once the band factor exists, 'cg' before."""
        return "cg" if self._lu is None else "band"

    def _band_pays(self, count: int) -> bool:
        return band_pays(self.n, self.bandwidth, count, self._lu is not None)

    def _get_lu(self) -> np.ndarray:
        """U with U^T U = L_U, in LAPACK upper band storage (bw + 1, n),
        Fortran-ordered; factored on first use, in place."""
        if self._lu is None:
            bw = self.bandwidth
            if self.n * (bw + 1) * 8 > BAND_BYTES:
                raise SolverError(f"band factor of {self.n} x {bw + 1} entries "
                                  f"exceeds {BAND_BYTES} bytes")
            ab = np.zeros((bw + 1, self.n), order="F")
            up = sp.triu(self.matrix, format="coo")
            ab[bw - (up.col - up.row), up.col] = up.data
            self._lu = cholesky_banded(ab, overwrite_ab=True, lower=False,
                                       check_finite=False)
        if not self._lu[-1].all():
            raise SolverError("band Cholesky factor has a zero pivot")
        return self._lu

    # -- linear solves -------------------------------------------------------

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve L_U x = rhs; rhs may be a vector or an (n, k) block."""
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape[0] != self.n:
            raise ValueError("right-hand side has wrong length")
        if not self._band_pays(1 if rhs.ndim == 1 else rhs.shape[1]):
            return self._pcg(rhs)
        R = self._get_lu()
        x = rhs.copy()
        y = (x[:, None] if x.ndim == 1 else x).T
        _band_forward_substitute(R, y)
        _band_back_substitute(R, y)
        return x

    def _get_split(self):
        # the red-black split of L_U (module docstring): indices of the
        # even and odd sites, their diagonals D_e, D_o as columns, and
        # W = -L_U[even, odd] in CSR
        if self._split is None:
            even = self.sites.coords.sum(axis=1) % 2 == 0
            e, o = np.nonzero(even)[0], np.nonzero(~even)[0]
            diag = self.matrix.diagonal()[:, None]
            self._split = (e, o, diag[e], diag[o], -self.matrix[e][:, o])
        return self._split

    def _pcg(self, rhs: np.ndarray) -> np.ndarray:
        """Conjugate gradients on the Schur complement of the even sites,
        S x_e = b_e + W D_o^{-1} b_o with S = D_e - W D_o^{-1} W^T and
        Jacobi preconditioner D_e, then x_o = D_o^{-1} (b_o + W^T x_e).
        The odd equations then hold exactly, so the residual of L_U x = b
        is the reduced one; each of CG_COLUMNS right-hand sides at a time
        stops at CG_TOL |b|, b its full column."""
        e, o, De, Do, W = self._get_split()
        block = rhs[:, None] if rhs.ndim == 1 else rhs
        out = np.empty_like(block)

        def dot(a, b):
            return np.einsum("ij,ij->j", a, b)

        for s in range(0, block.shape[1], CG_COLUMNS):
            cols = slice(s, s + CG_COLUMNS)
            b = block[:, cols]
            stop = CG_TOL * np.linalg.norm(b, axis=0)
            bo = b[o] / Do
            r = b[e] + W @ bo
            x = np.zeros_like(r)
            z = r / De
            p, rz = z, dot(r, z)
            for _ in range(20 * self.n):
                live = np.linalg.norm(r, axis=0) > stop
                if not live.any():
                    break
                Sp = De * p - W @ ((W.T @ p) / Do)
                alpha = np.divide(rz, dot(p, Sp), out=np.zeros_like(rz), where=live)
                x += alpha * p
                r -= alpha * Sp
                z = r / De
                rz, rz_old = dot(r, z), rz
                p = z + np.divide(rz, rz_old, out=np.zeros_like(rz), where=live) * p
            else:
                raise SolverError("conjugate gradients failed to converge")
            out[e, cols] = x
            out[o, cols] = bo + (W.T @ x) / Do
        return out[:, 0] if rhs.ndim == 1 else out

    # -- Gaussian sampling with covariance L_U^{-1} ----------------------------

    def _get_incidence(self):
        # F with F^T F = L_U: one row per edge {x, x + e_a} of U, axis by axis,
        # then one killing row per site with edges leaving U, root of their sum
        if self._incidence is None:
            nb = self.sites.neighbors()
            nw = self.env.neighbor_weights(self.sites.coords)
            kill = (nw * (nb < 0)).sum(axis=1)
            inner = nb[:, ::2].T >= 0  # (d, n), row-major: the edges in row order
            i = np.broadcast_to(np.arange(self.n), inner.shape)[inner]
            j, w = nb[:, ::2].T[inner], nw[:, ::2].T[inner]
            del nb, nw, inner
            k_idx = np.nonzero(kill)[0]
            m, r, s = len(w), np.arange(len(w)), np.sqrt(w)
            self._incidence = sp.coo_matrix(
                (np.concatenate([s, -s, np.sqrt(kill[k_idx])]),
                 (np.concatenate([r, r, m + np.arange(len(k_idx))]),
                  np.concatenate([i, j, k_idx]))),
                shape=(m + len(k_idx), self.n),
            ).tocsr()
        return self._incidence

    def sample_gaussian(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """(n, count) exact draws of N(0, L_U^{-1}), through the band
        factor when `band_pays`, else factor-free."""
        if not self._band_pays(count):
            return self.sample_factor_free(rng, count)
        z = rng.standard_normal((self.n, count))
        _band_back_substitute(self._get_lu(), z.T)
        return z

    def sample_factor_free(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """(n, count) draws x = L_U^{-1} F^T z, z standard normal with one
        entry per row of the incidence factor F: Cov x = L_U^{-1}."""
        F = self._get_incidence()
        return self._pcg(F.T @ rng.standard_normal((F.shape[0], count)))


def _band_window(R: np.ndarray):
    """window(r, c, cols=bw), the block U[r:r + bw, c:c + cols] of the U
    that R holds in Fortran-ordered LAPACK upper band storage (bw + 1, n).

    U[r, c] sits at R.ravel("F")[bw + r + c*bw], so every such block is a
    contiguous Fortran view of R; only its entries inside the band are U's.
    The diagonal block of rows [s, s + bw) and the block to its right hold
    the band in their upper and lower triangles respectively.
    """
    bw = R.shape[0] - 1
    flat = R.ravel(order="F")

    def window(r: int, c: int, cols: int = bw) -> np.ndarray:
        off = bw + r + c * bw
        return flat[off:off + bw * cols].reshape(bw, cols, order="F")

    return window


def _band_back_substitute(R: np.ndarray, y: np.ndarray) -> None:
    """Overwrite y (k, n) with the solution x of x U^T = y, i.e. each row
    r with U^{-1} r, where R is U in LAPACK upper band storage (bw + 1, n).

    Blocks of bw rows run from the bottom, each a BLAS-3 multiply by the
    block to its right and a triangular solve (see `_band_window`); the
    top rows left over when bw does not divide n get a zero-filled copy.
    """
    bw, n = R.shape[0] - 1, R.shape[1]
    if bw == 0:
        y /= R[0]
        return
    window = _band_window(R)
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


def _band_forward_substitute(R: np.ndarray, y: np.ndarray) -> None:
    """Overwrite y (k, n) with the solution x of x U = y, i.e. each row
    r with U^{-T} r: the transpose of `_band_back_substitute`, on the same
    windows of R. Blocks run from the top, after the `n % bw` leftover
    rows, so both sweeps cut the rows alike.
    """
    bw, n = R.shape[0] - 1, R.shape[1]
    if bw == 0:
        y /= R[0]
        return
    window = _band_window(R)
    top = n % bw
    if top:
        rows = np.triu(np.tril(window(0, 0, top + bw)[:top], bw))
        y[:, :top] = blas.dtrsm(1.0, rows[:, :top], y[:, :top], side=1,
                                overwrite_b=1)
        y[:, top:top + bw] -= y[:, :top] @ rows[:, top:]
    for s in range(top, n, bw):
        blk = slice(s, s + bw)
        if s >= bw:
            y[:, blk] -= blas.dtrmm(1.0, window(s - bw, s), y[:, s - bw:s],
                                    side=1, lower=1)
        y[:, blk] = blas.dtrsm(1.0, window(s, s), y[:, blk], side=1,
                               overwrite_b=1)


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
    boundary data (zero on unlisted exterior sites). Only the sites x of
    U with x + s outside U are looked up in the data, step by step."""
    values = np.asarray(data_values, dtype=np.float64)
    single = values.ndim == 1
    block = values[:, None] if single else values
    rhs = np.zeros((len(U), block.shape[1]))
    outside = U.neighbors() < 0
    for k, step in enumerate(neighbor_steps(U.d)):
        ext = np.nonzero(outside[:, k])[0]
        j = data_sites.locate(U.coords[ext] + step)
        i = ext[j >= 0]
        if i.size:
            w = env.neighbor_weights(U.coords[i])[:, k, None]
            rhs[i] += w * block[j[j >= 0]]
    return rhs[:, 0] if single else rhs


def harmonic_extension(env: Conductances, U: SiteSet, data_sites: SiteSet,
                       data_values: np.ndarray,
                       op: DirichletOperator | None = None) -> np.ndarray:
    """Solve the discrete Dirichlet problem on U with exterior data.

    data_values may be (m,) or (m, k) for k simultaneous data sets.
    """
    rhs = boundary_flux_rhs(env, U, data_sites, data_values)
    return as_operator(env, U, op).solve(rhs)


def harmonic_potential(env: Conductances, A: SiteSet, B: SiteSet) -> np.ndarray:
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
        h[~in_A] = harmonic_extension(env, U, A, np.ones(len(A)))
    return h


def equilibrium_measure(env: Conductances, A: SiteSet, B: SiteSet,
                        h: np.ndarray | None = None) -> np.ndarray:
    """Killed equilibrium measure e_{A,B} on A: the flux (L_B h)(x) of
    h = h_{A,B} (zero off B) out of each x in A, over the edges at x."""
    idx = B.locate(A.coords)
    if np.any(idx < 0):
        raise ValueError("A must be contained in B")
    if h is None:
        h = harmonic_potential(env, A, B)
    nb = B.locate((A.coords[:, None, :] + neighbor_steps(A.d)).reshape(-1, A.d))
    h_nb = np.where(nb >= 0, h[nb], 0.0).reshape(len(A), -1)
    return (env.neighbor_weights(A.coords) * (h[idx][:, None] - h_nb)).sum(axis=1)


def dirichlet_form(env: Conductances, sites: SiteSet, f: np.ndarray,
                   g: np.ndarray | None = None) -> float:
    """Energy (1/2) sum over ordered neighbor pairs of w (df)(dg).

    f, g live on `sites` and extend by zero, so every edge with at least
    one endpoint in `sites` contributes: the energy is f^T L_S g.
    """
    f = np.asarray(f, dtype=np.float64)
    g = f if g is None else np.asarray(g, dtype=np.float64)
    return float(f @ (killed_laplacian(env, sites) @ g))


def capacity(env: Conductances, A: SiteSet, B: SiteSet,
             h: np.ndarray | None = None) -> float:
    """cap_B(A), the total mass of the equilibrium measure; equal to the
    Dirichlet energy of the harmonic potential h (given or solved)."""
    return float(equilibrium_measure(env, A, B, h=h).sum())


@dataclass
class UnkilledCapacityReport:
    radii: list
    values: list
    error_bounds: list
    monotone_ok: bool
    value: float
    error_bound: float


def capacity_unkilled_approx(law, lam: float, A: SiteSet, radii,
                             seed: int) -> UnkilledCapacityReport:
    """Finite-volume approximations cap_{B(0,R)}(A) along growing radii.

    The reported one-sided error bound, cap^2 / dist^(d-2), fixes the
    non-constructive Green constant at 1; the values count as monotone
    when no step up exceeds 1e-9.
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
        bounds.append(cap ** 2 / dist ** (A.d - 2))
    monotone_ok = bool(np.all(np.diff(values) <= 1e-9))
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


STOPS = (None, "hit", "exit", "radius", "time_cap")
EDGE = -1  # stop code of the window's outer layers, where no step is stored


@dataclass
class StoppingRules:
    """The first rule to fire stops a walk; exit, radius or time_cap is set."""

    hit: SiteSet | None = None
    exit: SiteSet | None = None
    radius: int | None = None
    time_cap: float | None = None

    def __post_init__(self):
        if self.exit is None and self.radius is None and self.time_cap is None:
            raise ValueError("an exit rule, a radius or a time cap is required")

    def codes(self, env: Conductances, start: np.ndarray) -> np.ndarray:
        """Per flat index of env's window, the first skeleton rule to fire
        on a walk from `start`, hit then exit then radius (an index into
        STOPS), else EDGE on the outer layers, else 0; flat index -1 (off
        the window) reads a last entry, EDGE."""
        codes = np.full(np.prod(env.shape) + 1, EDGE, dtype=np.int8)
        window = codes[:-1].reshape(env.shape)
        window[(slice(1, -1),) * env.d] = 0
        if self.radius is not None:
            far = np.zeros(env.shape, dtype=bool)
            s = start - env.origin  # offsets from the start, axis by axis
            for x in np.ix_(*map(np.arange, -s, env.shape - s)):
                far |= np.abs(x) >= self.radius
            window[far] = 3
        if self.exit is not None:
            inside = np.zeros(codes.size, dtype=bool)
            inside[env.flat_index(self.exit.coords, 0)] = True
            codes[~inside] = 2
        if self.hit is not None:
            codes[env.flat_index(self.hit.coords, 0)] = 1
        codes[-1] = EDGE
        return codes


@dataclass
class WalkPath:
    skeleton: np.ndarray
    holding_times: np.ndarray
    stop_reason: str
    total_time: float


def _jump(pos: np.ndarray, w: np.ndarray, u: np.ndarray,
          steps: np.ndarray) -> np.ndarray:
    """Walker i at pos[i] takes step m of `steps` (flat, in the order of
    `neighbor_steps`) for the first m with u_i < c_m, c the cumulative sums
    of its neighbor weights w[i] and u_i in [0, omega_i]: u_i = c_m takes
    step m + 1, u_i = omega_i the last."""
    m = (np.cumsum(w, axis=1) <= u[:, None]).sum(axis=1)
    return pos + steps[np.minimum(m, w.shape[1] - 1)]


def _walk(env: Conductances, start: np.ndarray, count: int, rules: StoppingRules,
          rng: np.random.Generator, mode: str | None = None,
          _path: list | None = None):
    """Step `count` walkers from the site `start` in lock step until
    `rules` stop each; return their final flat indices (see
    `Conductances.sites_at`) and stop reasons (indices into STOPS). With a
    mode, each step draws the holding times, Exp(1) for 'csrw' or
    Exp(omega_y) for 'vsrw', before one uniform per mover; a time cap
    needs a mode. With a mode, a `_path` list gets one (holding times, new
    flat indices) pair of the movers per step."""
    if mode is None and rules.time_cap is not None:
        raise ValueError("a time cap needs a walk mode")
    codes = rules.codes(env, start)
    pos = np.repeat(env.flat_index(start, 0), count)
    steps = neighbor_steps(env.d) @ env.strides
    why = np.zeros(count, dtype=np.int8)
    clock = np.zeros(count)
    idx = np.arange(count)
    for _ in range(MAX_WALK_STEPS):
        why[idx] = stop = codes[pos[idx]]
        if (stop == EDGE).any():
            raise SolverError("walk reached the environment window edge")
        idx = idx[stop == 0]
        if not idx.size:
            return pos, why
        p = pos[idx]
        w = env.neighbor_weights_at(p)
        omega = w.sum(axis=1)
        if mode is not None:
            rate = omega if mode == "vsrw" else np.ones_like(omega)
            hold = rng.exponential(1.0 / rate)
            clock[idx] += hold
            if rules.time_cap is not None:
                go = clock[idx] < rules.time_cap
                why[idx[~go]] = STOPS.index("time_cap")
                idx, p, w, omega, hold = idx[go], p[go], w[go], omega[go], hold[go]
        pos[idx] = _jump(p, w, rng.random(idx.size) * omega, steps)
        if _path is not None:
            _path.append((hold, pos[idx]))
    raise SolverError("walk exceeded the step budget without stopping")


def walk_simulate(env: Conductances, start, rules: StoppingRules,
                  rng: np.random.Generator, mode: str = "csrw") -> WalkPath:
    """One trajectory of the constant- (or variable-) speed walk.

    Skeleton transitions jump from y to a neighbor z with probability
    omega_{y,z} / omega_y; holding times are Exp(1) for the CSRW and
    Exp(omega_y) for the VSRW. Hitting, exit and radius rules are
    skeleton events; the time cap uses the clock. The walk is `_walk`'s,
    with one walker and its path recorded.
    """
    if mode not in ("csrw", "vsrw"):
        raise ValueError("mode must be 'csrw' or 'vsrw'")
    origin = as_coords(start, env.d)[0]
    path = [(np.empty(0), env.flat_index(origin, 0))]
    why = STOPS[_walk(env, origin, 1, rules, rng, mode, path)[1][0]]
    holding, flat = (np.concatenate(part) for part in zip(*path))
    elapsed = float(np.cumsum(holding)[-1]) if holding.size else 0.0
    return WalkPath(env.sites_at(flat), holding, why,
                    rules.time_cap if why == "time_cap" else elapsed)


def hitting_frequency(env: Conductances, start, rules: StoppingRules,
                      rng: np.random.Generator, replicas: int) -> tuple[float, float]:
    """Batched skeleton Monte Carlo for P[the walk from `start` stops by
    the hit rule of `rules`]: (frequency, binomial standard error)."""
    why = _walk(env, as_coords(start, env.d)[0], replicas, rules, rng)[1]
    freq = (why == STOPS.index("hit")).mean()
    return float(freq), binomial_se(freq, replicas)
