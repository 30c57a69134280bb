"""Level sets of the field, cluster structure, crossing and connectivity
estimators, good/bad box classification, and the decoupling harness.

Connectivity is always nearest-neighbor (|x-y|_1 = 1); diagonal sites do
not touch. Component diameters are l-infinity diameters of the site set.

One kernel, `_seed_clusters`, answers every connectivity question:
over a (k,)+box boolean block it returns which target sites lie in a
cluster that touches a seed set. Crossing events, the two-point
function, `is_connected` (one replica, on the bounding box of a SiteSet)
and the wiring test of the box classification (one replica per D-box)
are one reduction of its output each. The disconnection event of
`homogenization` is up to three: a crop around the seed that can only
prove disconnection, a slab through it that can only prove connection,
and the whole box for the draws neither settles (proofs in that
module). It labels the replicas of a block in cache-sized slices,
one `ndimage.label` call per slice, over a structure whose replica axis
couples nothing. The one other labelling, in `_big_components`, keeps
the clusters of a box's level set whose diameter reaches a threshold.

The crossing event {B(x,L) <-> the sphere |y - x|_inf = 2L} is labelled
on ball(x, 2L) alone, although the field is drawn on the padded domain:
a nearest-neighbor step moves |y - x|_inf by at most 1, so a path from
B(x,L) meets that sphere before it can leave the ball.

Every Monte Carlo estimator draws its fields through one pipeline,
`_draw_blocks`: for each of a list of (generator, replicas) streams, that
many draws from one operator, in blocks of at most `chunk` columns. A
block of k draws consumes k * n normals at once, so the chunk of a call
site fixes which draw sees which normals and is part of the site's
output; each site keeps its own. One worker thread per call draws block
b + 1 while the caller labels block b, and it alone touches the
generators, in the serial order of blocks and shapes, so every output is
identical to drawing inline. It starts a block only once the caller has
taken the one before, so at most two blocks are live: the caller's and
the one being drawn. A caller must not draw from a pipeline's
generators inside its loop.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.special import ndtr

from .lattice import SiteSet, as_coords, ball, linf_sphere, neighbor_steps
from .environment import Conductances
from .potential import (
    DirichletOperator,
    green_killed,
    harmonic_extension,
)
from .gff import FieldSample, BoxCollection, decompose_matrix, sample_matrix
from .streams import binomial_se, stream


@dataclass
class LevelSet:
    domain: SiteSet
    alpha: float
    mask: np.ndarray  # bool over domain

    @property
    def sites(self) -> SiteSet:
        return SiteSet(self.domain.coords[self.mask], self.domain.d)


def level_set(phi: FieldSample, alpha: float) -> LevelSet:
    """Sites of the sample domain where the field is at least alpha."""
    return LevelSet(phi.sites, float(alpha), phi.values >= alpha)


def is_connected(H: SiteSet, K: SiteSet, S: LevelSet) -> bool:
    """True iff some cluster of S meets both H and K (path sites,
    endpoints included, all inside S): one `_seed_clusters` call."""
    dom = S.domain
    lo, hi = dom.bounding_box()
    grid = np.zeros((1,) + tuple(hi - lo + 1), dtype=bool)
    grid[(0,) + tuple((dom.coords[S.mask] - lo).T)] = True
    seed, target = (tuple((X.coords[dom.contains_mask(X.coords)] - lo).T)
                    for X in (H, K))
    return bool(_seed_clusters(grid, seed, target).any())


# ---------------------------------------------------------------------------
# Replica-parallel level-set connectivity kernel


# Sites per `ndimage.label` call: a slice of replicas this large keeps its
# int32 labels cache-sized (256 KB). Labelling a whole block in one call
# costs more time and memory than labelling it replica by replica.
LABEL_SITES = 1 << 16


def _seed_clusters(mask: np.ndarray, seed, target) -> np.ndarray:
    """(k, len(target)) bool over a (k,)+box boolean block: whether each
    target site's nearest-neighbor cluster, within its own replica,
    contains a seed site. `seed` and `target` are index tuples into one
    replica's box; only the target sites are read back from the labels.

    Replicas are labelled in slices of max(1, LABEL_SITES // box sites),
    one call per slice, with a structure that couples no two replicas."""
    box = mask.shape[1:]
    struct = np.zeros((3,) + (3,) * len(box), dtype=bool)
    struct[1] = ndimage.generate_binary_structure(len(box), 1)
    s_idx = np.ravel_multi_index(seed, box)
    t_idx = np.ravel_multi_index(target, box)
    per = max(1, LABEL_SITES // math.prod(box))
    out = np.empty((mask.shape[0], t_idx.size), dtype=bool)
    for j in range(0, mask.shape[0], per):
        labels, n = ndimage.label(mask[j:j + per], struct)
        flat = labels.reshape(labels.shape[0], -1)
        touch = np.zeros(n + 1, dtype=bool)
        touch[flat[:, s_idx]] = True
        touch[0] = False
        out[j:j + per] = touch[flat[:, t_idx]]
    return out


def _draw_blocks(op: DirichletOperator, streams, chunk: int):
    """Yield (i, block) for each stream i = (rng, replicas) in list order:
    its `replicas` field draws on op's domain as (n, k) blocks of
    k = min(chunk, draws left) columns, from successive normals of rng.

    One worker thread draws the next block while the caller holds this
    one. The band factor, when a block's draw pays for it, is built here
    on the calling thread while the worker is idle, never inside it."""
    jobs = [(i, rng, min(chunk, replicas - done))
            for i, (rng, replicas) in enumerate(streams)
            for done in range(0, replicas, chunk)]
    if not jobs:
        return
    with ThreadPoolExecutor(1) as pool:

        def submit(i, rng, k):
            if op._band_pays(k):
                op._get_lu()
            return i, pool.submit(sample_matrix, op.env, op.sites, k, rng, op=op)

        pending = submit(*jobs[0])
        for job in jobs[1:] + [None]:
            i, future = pending
            block = future.result()
            if job is not None:
                pending = submit(*job)
            yield i, block


# ---------------------------------------------------------------------------
# Crossing probability and connectivity function estimators


@dataclass
class CrossingEstimate:
    alpha: float
    L: int
    estimate: float
    se: float
    replicas: int
    seed: int


@dataclass
class CrossingSweep:
    estimates: list
    alpha_grid: list
    L_grid: list
    alpha_double_star_estimate: float | None


def crossing_probability(env: Conductances, alpha, L, x, replicas: int,
                         seed: int, padding: int = 4
                         ) -> "CrossingEstimate | CrossingSweep":
    """Monte Carlo frequency of {B(x,L) <-> boundary of B(x,2L)} in the
    level set, with binomial standard errors.

    Scalar (alpha, L) gives a single estimate. Passing grids for both
    runs a coupled sweep (one Gaussian sample serves every alpha) and
    reports the smallest grid alpha whose crossing probability strictly
    decreases across all tested L; that value is an estimator tied to
    this grid, never a certified constant.

    The event is decreasing in alpha, field by field: {field >= a} only
    shrinks as a grows. So a replica's outcome over the sorted grid is
    the number of levels it crosses, found by bisection, all replicas of
    a block together: at most ceil(log2(m + 1)) labellings per field for
    m levels, and the counts equal those of labelling every level.

    The field is drawn on ball(x, 2L + padding), but only its rows on
    ball(x, 2L) are labelled. That is the same event, replica by replica:
    a nearest-neighbor path changes |y - x|_inf by at most 1 per step, so
    it reaches the sphere |y - x|_inf = 2L before it can leave ball(x, 2L).
    """
    if padding < 0:
        raise ValueError("padding must be nonnegative")
    sweep = np.ndim(alpha) > 0 or np.ndim(L) > 0
    alphas = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    Ls = np.atleast_1d(np.asarray(L, dtype=np.int64))
    order = np.argsort(alphas, kind="stable")
    sa = alphas[order]
    x = as_coords(x, env.d)[0]
    results: list[CrossingEstimate] = []
    for Lv in Ls:
        Lv = int(Lv)
        domain = ball(x, 2 * Lv + padding, env.d)
        if not env.covers(domain):
            raise ValueError("insufficient environment padding for the crossing event")
        rows = domain.locate(ball(x, 2 * Lv, env.d).coords)
        shape = (4 * Lv + 1,) * env.d
        lo = x - 2 * Lv
        inner = tuple((ball(x, Lv, env.d).coords - lo).T)
        target = tuple((linf_sphere(2 * Lv, env.d, center=x).coords - lo).T)
        op = DirichletOperator(env, domain)
        hits = np.zeros(len(alphas), dtype=np.int64)
        for _, block in _draw_blocks(op, [(stream(seed, "crossing", Lv), replicas)], 256):
            field = block[rows].T.reshape((block.shape[1],) + shape)
            # bisection: each replica crosses sa[:lo] and none of sa[hi:]
            lo = np.zeros(len(field), dtype=np.int64)
            hi = np.full(len(field), len(sa))
            while (live := np.nonzero(lo < hi)[0]).size:
                mid = (lo[live] + hi[live] + 1) // 2
                level = sa[mid - 1].reshape((-1,) + (1,) * env.d)
                crossed = _seed_clusters(field[live] >= level, inner,
                                         target).any(axis=1)
                lo[live] = np.where(crossed, mid, lo[live])
                hi[live] = np.where(crossed, hi[live], mid - 1)
            hits[order] += (lo[:, None] > np.arange(len(sa))).sum(axis=0)
        for ia, av in enumerate(alphas):
            p = hits[ia] / replicas
            results.append(CrossingEstimate(float(av), Lv, float(p),
                                            binomial_se(p, replicas),
                                            replicas, seed))
    if not sweep:
        return results[0]
    est = None
    if len(Ls) >= 2:
        for ia in order:
            # results run L by L, each over the whole grid
            vals = [results[il * len(alphas) + ia].estimate
                    for il in np.argsort(Ls, kind="stable")]
            if all(vals[i + 1] < vals[i] for i in range(len(vals) - 1)):
                est = float(alphas[ia])
                break
    return CrossingSweep(results, [float(a) for a in alphas],
                         [int(v) for v in Ls], est)


@dataclass
class ConnectivityEstimate:
    z: tuple
    estimate: float
    se: float


@dataclass
class ConnectivityReport:
    estimates: list
    decay_rate: float | None
    alpha: float


def connectivity_function(env: Conductances, alpha: float, x, z_list,
                          replicas: int, seed: int, padding: int = 4
                          ) -> ConnectivityReport:
    """Two-point function P[x <-> x+z in the level set], one estimate per
    displacement, plus the fitted exponential decay rate of log p in
    |z|_inf (reported for comparison with stretched-exponential forms)."""
    if padding < 0:
        raise ValueError("padding must be nonnegative")
    x = as_coords(x, env.d)[0]
    zs = [as_coords(z, env.d)[0] for z in z_list]
    reach = max(int(np.abs(z).max()) for z in zs)
    domain = ball(x, reach + padding, env.d)
    if not env.covers(domain):
        raise ValueError("environment window too small for the displacement list")
    op = DirichletOperator(env, domain)
    lo, hi = domain.bounding_box()
    shape = tuple(hi - lo + 1)
    hits = np.zeros(len(zs), dtype=np.int64)
    x_idx = tuple(x - lo)
    z_idx = tuple((np.array(zs) + x - lo).T)
    for _, block in _draw_blocks(op, [(stream(seed, "connectivity"), replicas)], 256):
        mask = (block >= alpha).T.reshape((block.shape[1],) + shape)
        hits += _seed_clusters(mask, x_idx, z_idx).sum(axis=0)
    ests = []
    for iz, z in enumerate(zs):
        p = hits[iz] / replicas
        ests.append(ConnectivityEstimate(tuple(int(v) for v in z), float(p),
                                         binomial_se(p, replicas)))
    rate = None
    pos = [(np.abs(np.asarray(e.z)).max(), e.estimate) for e in ests
           if e.estimate > 0 and np.abs(np.asarray(e.z)).max() > 0]
    if len(pos) >= 2:
        dist = np.array([p[0] for p in pos], dtype=np.float64)
        logp = np.log([p[1] for p in pos])
        rate = float(-np.polyfit(dist, logp, 1)[0])
    return ConnectivityReport(ests, rate, float(alpha))


# ---------------------------------------------------------------------------
# psi-good / xi-good box classification


@dataclass
class BoxClassification:
    centers: list
    psi_good: dict
    xi_good: dict
    gamma: float
    delta: float
    a: float


def _big_components(mask_sites: SiteSet, min_diam: float) -> SiteSet:
    """The sites of the clusters of diameter >= min_diam, as one set,
    labelled on the grid of the set's bounding box."""
    if mask_sites.is_empty:
        return mask_sites
    lo, hi = mask_sites.bounding_box()
    pos = tuple((mask_sites.coords - lo).T)
    grid = np.zeros(tuple(hi - lo + 1), dtype=bool)
    grid[pos] = True
    labels, _ = ndimage.label(grid)
    big = [k + 1 for k, box in enumerate(ndimage.find_objects(labels))
           if max(sl.stop - sl.start for sl in box) - 1 >= min_diam]
    return SiteSet(mask_sites.coords[np.isin(labels[pos], big)], mask_sites.d)


def classify_boxes(env: Conductances, phi: FieldSample, grid: BoxCollection,
                   gamma: float, delta: float, a: float) -> BoxClassification:
    """Goodness flags for every box of an L-grid, which may be contiguous.

    A box is psi-good when its gamma-level local-field set holds a
    cluster of l-infinity diameter >= L/10 and, for each grid neighbor,
    such clusters on both sides are wired together inside the D-box at
    level delta (one `_seed_clusters` call per box, with every
    neighbor's clusters as targets). xi-goodness asks the harmonic
    average to stay above -a on the D-box. Both flags are deterministic
    functions of the stored decomposition fields.
    """
    if not delta < gamma:
        raise ValueError("levels must satisfy delta < gamma")
    U = phi.sites
    centers = [tuple(int(v) for v in z) for z in grid.center_array()]
    L = grid.L
    psi_D, xi_D = {}, {}  # each box's fields on its D-box, in C order
    big = {}  # the sites of each box's big gamma-clusters
    for z in centers:
        xi, psi = decompose_matrix(env, U, grid.box_U(z), phi.values[:, None])
        d_idx = U.locate(grid.box_D(z).coords)
        if np.any(d_idx < 0):
            raise ValueError("insufficient padding around a D-box")
        psi_D[z], xi_D[z] = psi[d_idx, 0], xi[d_idx, 0]
        Bz = grid.box_B(z)
        own = SiteSet(Bz.coords[psi[U.locate(Bz.coords), 0] >= gamma], U.d)
        big[z] = _big_components(own, L / 10.0)
    psi_good = {}
    xi_good = {}
    for z in centers:
        xi_good[z] = bool(xi_D[z].min() > -a)
        nbs = [big[nb] for step in neighbor_steps(U.d)
               if (nb := tuple(int(v) for v in np.add(z, L * step))) in big]
        good = not big[z].is_empty
        if good and nbs:
            lo = np.subtract(z, 3 * L)  # D_z holds B_z and each neighbor's B
            mask = (psi_D[z] >= delta).reshape((1,) + (7 * L,) * U.d)
            targets = tuple((np.vstack([nb.coords for nb in nbs]) - lo).T)
            hit = _seed_clusters(mask, tuple((big[z].coords - lo).T), targets)[0]
            ends = np.cumsum([len(nb) for nb in nbs])[:-1]
            good = all(part.any() for part in np.split(hit, ends))
        psi_good[z] = good
    return BoxClassification(centers, psi_good, xi_good, gamma, delta, a)


# ---------------------------------------------------------------------------
# Quenched decoupling harness


def threshold_event(domain: SiteSet, sites: SiteSet, level: float):
    """Increasing indicator {phi_x >= level for all listed sites}."""
    idx = domain.locate(sites.coords)
    if np.any(idx < 0):
        raise ValueError("event support must lie in the domain")

    def evaluate(fields: np.ndarray) -> np.ndarray:
        return np.all(fields[idx, :] >= level, axis=0)

    return evaluate


@dataclass
class DecouplingReport:
    p_joint: float
    se_joint: float
    p1: float
    se1: float
    p2_minus: float
    p2_plus: float
    se2_minus: float
    se2_plus: float
    p_bad_harmonic: float
    bad_method: str
    upper_violation: float
    lower_violation: float
    combined_se_upper: float
    combined_se_lower: float
    holds_upper: bool
    holds_lower: bool


def decoupling_check(env: Conductances, domain: SiteSet, K1: SiteSet,
                     K2: SiteSet, delta: float, event1, event2,
                     replicas: int, seed: int) -> DecouplingReport:
    """Two-sided comparison of the joint law of increasing events on
    disjoint boxes against the product law at sprinkled levels.

    Checks, within 3 combined standard errors,

        E[f1 f2] <= E[f1] E[f2(. + delta)] + 2 P[bad],
        E[f1 f2] >= E[f1] E[f2(. - delta)] - 2 P[bad],

    where `bad` is the event that the harmonic average of the field seen
    from outside K1 exceeds delta/2 somewhere on K2. P[bad] is computed
    from the exact Gaussian law of that harmonic average (closed form for
    a single-site K1, dense-covariance Monte Carlo otherwise).
    """
    if not K1.intersection(K2).is_empty:
        raise ValueError("event boxes must be disjoint")
    op = DirichletOperator(env, domain)
    n1 = n12 = n2m = n2p = 0
    for _, block in _draw_blocks(op, [(stream(seed, "decoupling"), replicas)], 512):
        e1 = event1(block)
        e2 = event2(block)
        n1 += int(e1.sum())
        n12 += int((e1 & e2).sum())
        n2m += int(event2(block - delta).sum())
        n2p += int(event2(block + delta).sum())
    p1, p12 = n1 / replicas, n12 / replicas
    p2m, p2p = n2m / replicas, n2p / replicas

    def se(p):
        return binomial_se(p, replicas)

    # exact law of the harmonic average on K2 sourced by K1
    U1c = domain.difference(K1)
    hit_cols = harmonic_extension(env, U1c, K1, np.eye(len(K1)))
    k2_in_U1c = U1c.locate(K2.coords)
    H = hit_cols[k2_in_U1c, :]  # (|K2|, |K1|) hitting distribution
    G = np.zeros((len(K1), len(K1)))
    for j in range(len(K1)):
        col = green_killed(env, domain, "column", y=K1.coords[j], op=op)
        G[:, j] = col[domain.locate(K1.coords)]
    if len(K1) == 1:
        sup_scale = float(np.abs(H).max()) * math.sqrt(max(G[0, 0], 0.0))
        p_bad = 2.0 * ndtr(-(delta / 2.0 / sup_scale)) if sup_scale > 0 else 0.0
        method = "exact-single-site"
    else:
        grs = stream(seed, "decoupling-gauss")
        w, V = np.linalg.eigh(H @ G @ H.T)
        root = V @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
        draws = root @ grs.standard_normal((len(K2), 200_000))
        p_bad = float((np.abs(draws).max(axis=0) > delta / 2.0).mean())
        method = "gaussian-mc"

    up_rhs = p1 * p2p + 2 * p_bad
    lo_rhs = p1 * p2m - 2 * p_bad
    se_up = math.sqrt(se(p12) ** 2 + (p2p * se(p1)) ** 2 + (p1 * se(p2p)) ** 2)
    se_lo = math.sqrt(se(p12) ** 2 + (p2m * se(p1)) ** 2 + (p1 * se(p2m)) ** 2)
    upper_violation = max(0.0, p12 - up_rhs)
    lower_violation = max(0.0, lo_rhs - p12)
    return DecouplingReport(
        p_joint=p12, se_joint=se(p12), p1=p1, se1=se(p1),
        p2_minus=p2m, p2_plus=p2p, se2_minus=se(p2m), se2_plus=se(p2p),
        p_bad_harmonic=p_bad, bad_method=method,
        upper_violation=upper_violation, lower_violation=lower_violation,
        combined_se_upper=se_up, combined_se_lower=se_lo,
        holds_upper=upper_violation <= 3.0 * se_up,
        holds_lower=lower_violation <= 3.0 * se_lo,
    )
