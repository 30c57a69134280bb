"""Level sets of the field, cluster structure, crossing and connectivity
estimators, good/bad box classification, and the decoupling harness.

Connectivity is always nearest-neighbor (|x-y|_1 = 1); diagonal sites do
not touch. Component diameters are l-infinity diameters of the site set.

One kernel, `_seed_clusters`, answers every replica-parallel level-set
question: over a (k,)+box boolean block it returns the sites whose
cluster touches a seed set. Crossing events, the two-point function and
the disconnection event of `homogenization` are one reduction of its
output each. `components()` labels a level set of any SiteSet on the
grid of its bounding box, which serves `is_connected` and the box
classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.stats import norm

from .lattice import SiteSet, as_coords, ball, linf_sphere
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


@dataclass
class ComponentLabeling:
    """Labels over the domain; -1 off the set. Canonical label of a
    component is the smallest dense site index it contains."""

    domain: SiteSet
    label: np.ndarray
    sizes: dict
    diameters: dict

    @property
    def n_components(self) -> int:
        return len(self.sizes)


def components(S: LevelSet) -> ComponentLabeling:
    """Union of nearest-neighbor clusters of the level set, labelled on
    the grid of the set's bounding box."""
    dom = S.domain
    label = -np.ones(len(dom), dtype=np.int64)
    in_idx = np.nonzero(S.mask)[0]
    if in_idx.size == 0:
        return ComponentLabeling(dom, label, {}, {})
    pts = dom.coords[in_idx]
    lo = pts.min(axis=0)
    pos = tuple((pts - lo).T)
    grid = np.zeros(tuple(pts.max(axis=0) - lo + 1), dtype=bool)
    grid[pos] = True
    labels, _ = ndimage.label(grid)
    raw = labels[pos]
    # in_idx ascends, so a label's first occurrence is its smallest index
    _, first = np.unique(raw, return_index=True)
    canon = in_idx[first]
    label[in_idx] = canon[raw - 1]
    sizes = np.bincount(raw)[1:]
    diams = [max(sl.stop - sl.start for sl in box) - 1
             for box in ndimage.find_objects(labels)]
    return ComponentLabeling(dom, label,
                             dict(zip(canon.tolist(), sizes.tolist())),
                             dict(zip(canon.tolist(), diams)))


def is_connected(H: SiteSet, K: SiteSet, S: LevelSet,
                 labeling: ComponentLabeling | None = None) -> bool:
    """True iff some cluster of S meets both H and K (path sites,
    endpoints included, all inside S)."""
    if labeling is None:
        labeling = components(S)
    lab = labeling.label
    hi = S.domain.locate(H.coords)
    ki = S.domain.locate(K.coords)
    hl = set(lab[hi[hi >= 0]].tolist()) - {-1}
    kl = set(lab[ki[ki >= 0]].tolist()) - {-1}
    return len(hl & kl) > 0


def disconnection_event(phi: FieldSample, alpha: float, A_N: SiteSet,
                        S_N: SiteSet) -> bool:
    """True iff no level-set path joins A_N to the enclosing shell S_N."""
    for part in (A_N, S_N):
        if not part.issubset(phi.sites):
            raise ValueError("geometry not contained in the sample domain")
    return not is_connected(A_N, S_N, level_set(phi, alpha))


# ---------------------------------------------------------------------------
# Replica-parallel level-set connectivity kernel


def _seed_clusters(mask: np.ndarray, seed) -> np.ndarray:
    """Sites of a (k,)+box boolean block whose nearest-neighbor cluster,
    within their own replica, contains a seed site; `seed` is an index
    tuple into one replica's box. The answer overwrites `mask`, which is
    returned, so a block costs no second copy. ndimage.label's default
    structure is the nearest-neighbor cross."""
    for j in range(mask.shape[0]):
        labels, n = ndimage.label(mask[j])
        touch = np.zeros(n + 1, dtype=bool)
        touch[labels[seed]] = True
        touch[0] = False
        mask[j] = touch[labels]
    return mask


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
                         seed: int, padding: int = 4,
                         chunk: int = 256) -> "CrossingEstimate | CrossingSweep":
    """Monte Carlo frequency of {B(x,L) <-> boundary of B(x,2L)} in the
    level set, with binomial standard errors.

    Scalar (alpha, L) gives a single estimate. Passing grids for both
    runs a coupled sweep (one Gaussian sample serves every alpha) and
    reports the smallest grid alpha whose crossing probability strictly
    decreases across all tested L; that value is an estimator tied to
    this grid, never a certified constant.
    """
    sweep = np.ndim(alpha) > 0 or np.ndim(L) > 0
    alphas = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    Ls = np.atleast_1d(np.asarray(L, dtype=np.int64))
    x = as_coords(x, env.d)[0]
    results: list[CrossingEstimate] = []
    for Lv in Ls:
        Lv = int(Lv)
        domain = ball(x, 2 * Lv + padding, env.d)
        if not domain.issubset(env.window):
            raise ValueError("insufficient environment padding for the crossing event")
        lo, hi = domain.bounding_box()
        shape = tuple(hi - lo + 1)
        inner = tuple((ball(x, Lv, env.d).coords - lo).T)
        target = (slice(None),) + tuple(
            (linf_sphere(2 * Lv, env.d, center=x).coords - lo).T)
        op = DirichletOperator(env, domain)
        rng = stream(seed, "crossing", Lv)
        hits = np.zeros(len(alphas), dtype=np.int64)
        done = 0
        while done < replicas:
            k = min(chunk, replicas - done)
            block = sample_matrix(env, domain, k, rng, op=op)
            for ia, av in enumerate(alphas):
                mask = (block >= av).T.reshape((k,) + shape)
                hits[ia] += _seed_clusters(mask, inner)[target].any(axis=1).sum()
            done += k
        for ia, av in enumerate(alphas):
            p = hits[ia] / replicas
            results.append(CrossingEstimate(float(av), Lv, float(p),
                                            binomial_se(p, replicas),
                                            replicas, seed))
    if not sweep:
        return results[0]
    est = None
    if len(Ls) >= 2:
        for av in alphas:
            vals = [r.estimate for r in results if r.alpha == av]
            vals = [v for _, v in sorted(zip(Ls, vals))]
            if all(vals[i + 1] < vals[i] for i in range(len(vals) - 1)):
                est = float(av)
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
    L: int


def connectivity_function(env: Conductances, alpha: float, x, z_list, L: int,
                          replicas: int, seed: int, padding: int = 4,
                          chunk: int = 256) -> ConnectivityReport:
    """Two-point function P[x <-> x+z in the level set], one estimate per
    displacement, plus the fitted exponential decay rate of log p in
    |z|_inf (reported for comparison with stretched-exponential forms)."""
    x = as_coords(x, env.d)[0]
    zs = [as_coords(z, env.d)[0] for z in z_list]
    reach = max(int(np.abs(z).max()) for z in zs)
    domain = ball(x, reach + padding, env.d)
    if not domain.issubset(env.window):
        raise ValueError("environment window too small for the displacement list")
    op = DirichletOperator(env, domain)
    rng = stream(seed, "connectivity")
    lo, hi = domain.bounding_box()
    shape = tuple(hi - lo + 1)
    hits = np.zeros(len(zs), dtype=np.int64)
    x_idx = tuple(x - lo)
    z_idx = (slice(None),) + tuple((np.array(zs) + x - lo).T)
    done = 0
    while done < replicas:
        k = min(chunk, replicas - done)
        block = sample_matrix(env, domain, k, rng, op=op)
        mask = (block >= alpha).T.reshape((k,) + shape)
        hits += _seed_clusters(mask, x_idx)[z_idx].sum(axis=0)
        done += k
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
    return ConnectivityReport(ests, rate, float(alpha), int(L))


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


def _big_components(mask_sites: SiteSet, min_diam: float) -> list[SiteSet]:
    lev = LevelSet(mask_sites, 0.0, np.ones(len(mask_sites), dtype=bool))
    lab = components(lev)
    out = []
    for canon, diam in lab.diameters.items():
        if diam >= min_diam:
            members = mask_sites.coords[lab.label == canon]
            out.append(SiteSet(members, mask_sites.d))
    return out


def classify_boxes(env: Conductances, phi: FieldSample, grid: BoxCollection,
                   gamma: float, delta: float, a: float) -> BoxClassification:
    """Goodness flags for every box of a (contiguous) L-grid.

    A box is psi-good when its gamma-level local-field set holds a
    cluster of l-infinity diameter >= L/10 and, for each grid neighbor,
    such clusters on both sides are wired together inside the D-box at
    level delta. xi-goodness asks the harmonic average to stay above -a
    on the D-box. Both flags are deterministic functions of the stored
    decomposition fields.
    """
    if not delta < gamma:
        raise ValueError("levels must satisfy delta < gamma")
    U = phi.sites
    centers = [tuple(int(v) for v in z) for z in grid.center_array()]
    L = grid.L
    psi_fields = {}
    xi_fields = {}
    for z in centers:
        Vz = grid.box_U(z)
        xi, psi = decompose_matrix(env, U, Vz, phi.values[:, None])
        psi_fields[z] = psi[:, 0]
        xi_fields[z] = xi[:, 0]
    psi_good = {}
    xi_good = {}
    center_set = set(centers)
    for z in centers:
        Dz = grid.box_D(z)
        d_idx = U.locate(Dz.coords)
        if np.any(d_idx < 0):
            raise ValueError("insufficient padding around a D-box")
        xi_good[z] = bool(xi_fields[z][d_idx].min() > -a)
        Bz = grid.box_B(z)
        b_idx = U.locate(Bz.coords)
        own = SiteSet(Bz.coords[psi_fields[z][b_idx] >= gamma], U.d)
        big_own = _big_components(own, L / 10.0) if not own.is_empty else []
        good = len(big_own) > 0
        if good:
            delta_mask = psi_fields[z][d_idx] >= delta
            Sdelta = LevelSet(Dz, delta, delta_mask)
            lab = components(Sdelta)
            for znb in _grid_neighbors(z, L):
                if znb not in center_set:
                    continue
                Bnb = grid.box_B(znb)
                nb_idx = U.locate(Bnb.coords)
                nb_set = SiteSet(Bnb.coords[psi_fields[znb][nb_idx] >= gamma], U.d)
                big_nb = _big_components(nb_set, L / 10.0) if not nb_set.is_empty else []
                if not big_nb:
                    good = False
                    break
                H = SiteSet(np.vstack([c.coords for c in big_own]), U.d)
                Kn = SiteSet(np.vstack([c.coords for c in big_nb]), U.d)
                if not is_connected(H, Kn, Sdelta, labeling=lab):
                    good = False
                    break
        psi_good[z] = good
    return BoxClassification(centers, psi_good, xi_good, gamma, delta, a)


def _grid_neighbors(z: tuple, L: int) -> list[tuple]:
    out = []
    for a in range(len(z)):
        for sgn in (1, -1):
            nb = list(z)
            nb[a] += sgn * L
            out.append(tuple(nb))
    return out


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
                     replicas: int, seed: int, se_mult: float = 3.0,
                     chunk: int = 512) -> DecouplingReport:
    """Two-sided comparison of the joint law of increasing events on
    disjoint boxes against the product law at sprinkled levels.

    Checks, within Monte Carlo error,

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
    rng = stream(seed, "decoupling")
    n1 = n12 = 0
    n2m = n2p = 0
    done = 0
    while done < replicas:
        k = min(chunk, replicas - done)
        block = sample_matrix(env, domain, k, rng, op=op)
        e1 = event1(block)
        e2 = event2(block)
        n1 += int(e1.sum())
        n12 += int((e1 & e2).sum())
        n2m += int(event2(block - delta).sum())
        n2p += int(event2(block + delta).sum())
        done += k
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
        p_bad = 2.0 * norm.sf(delta / 2.0 / sup_scale) if sup_scale > 0 else 0.0
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
        holds_upper=upper_violation <= se_mult * se_up,
        holds_lower=lower_violation <= se_mult * se_lo,
    )
