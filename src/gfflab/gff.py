"""Gaussian free field on finite domains: exact sampling, the harmonic
average / local field decomposition, measure tilting, and the Gaussian
functionals built from separated box collections.

The field on a finite domain U is the centered Gaussian vector with
covariance g_U = L_U^{-1}; everything outside U is frozen to zero
(finite-volume convention used throughout the package).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import SiteSet, as_coords, box_sites, boundary
from .environment import Conductances
from .potential import (
    DirichletOperator,
    as_operator,
    equilibrium_measure,
    harmonic_extension,
    harmonic_potential,
)
from .streams import stream


@dataclass
class FieldSample:
    """One field realization over `sites` (zero outside)."""

    sites: SiteSet
    values: np.ndarray


@dataclass
class Decomposition:
    """phi = xi + psi with psi the local field of the subdomain."""

    subdomain: SiteSet
    xi: np.ndarray
    psi: np.ndarray


def sample_matrix(env: Conductances, U: SiteSet, count: int,
                  rng: np.random.Generator,
                  op: DirichletOperator | None = None) -> np.ndarray:
    """(n, count) independent draws of the field on U."""
    return as_operator(env, U, op).sample_gaussian(rng, count)


def sample_gff(env: Conductances, U: SiteSet, count: int, seed: int,
               op: DirichletOperator | None = None) -> list[FieldSample]:
    """Independent field samples; deterministic in (operator, count, seed)."""
    rng = stream(seed, "gff")
    mat = sample_matrix(env, U, count, rng, op=op)
    return [FieldSample(U, mat[:, j].copy()) for j in range(count)]


def decompose(phi: FieldSample, env: Conductances, Uprime: SiteSet) -> Decomposition:
    """Split phi into its harmonic average and local field over Uprime.

    xi solves the Dirichlet problem on Uprime with boundary data phi;
    psi = phi - xi vanishes off Uprime. Requires the external boundary
    of Uprime to stay inside the sample domain.
    """
    xi, psi = decompose_matrix(env, phi.sites, Uprime, phi.values)
    return Decomposition(Uprime, xi, psi)


def decompose_matrix(env: Conductances, U: SiteSet, Uprime: SiteSet,
                     values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized decomposition of an (n, k) block of samples.

    Returns (xi, psi) as (n, k) blocks aligned with U.
    """
    ext = boundary(Uprime, "external")
    if not Uprime.issubset(U) or not ext.issubset(U):
        raise ValueError("subdomain padding insufficient inside the sample domain")
    xi = values.copy()
    inner = harmonic_extension(env, Uprime, U, values)
    xi[U.locate(Uprime.coords)] = inner
    return xi, values - xi


def tilt_log_weights(env: Conductances, U: SiteSet, f: np.ndarray,
                     samples: np.ndarray,
                     op: DirichletOperator | None = None) -> np.ndarray:
    """log dP/dP~ evaluated on tilted samples (columns of `samples`).

    With E the Dirichlet form, log w = -E(f, phi~) + E(f, f)/2, so that
    the reweighted tilted expectation of any event is its plain
    probability, exactly.
    """
    opU = as_operator(env, U, op)
    Lf = opU.matrix @ np.asarray(f, dtype=np.float64)
    quad = 0.5 * float(np.asarray(f) @ Lf)
    return -(samples.T @ Lf) + quad


def tilted_sample(env: Conductances, U: SiteSet, f: np.ndarray, count: int,
                  seed: int, op: DirichletOperator | None = None
                  ) -> list[tuple[FieldSample, float]]:
    """Samples of phi + f with exact importance log-weights."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape[0] != len(U):
        raise ValueError("tilt function must align with the domain")
    opU = as_operator(env, U, op)
    rng = stream(seed, "gff-tilted")
    base = sample_matrix(env, U, count, rng, op=opU)
    shifted = base + f[:, None]
    logw = tilt_log_weights(env, U, f, shifted, op=opU)
    return [(FieldSample(U, shifted[:, j].copy()), float(logw[j]))
            for j in range(count)]


# ---------------------------------------------------------------------------
# Separated box collections and the associated Gaussian functionals


@dataclass(frozen=True)
class BoxCollection:
    """Centers on L Z^d with derived boxes B_z in D_z in U_z.

    B_z = z + [0, L)^d, D_z = z + [-3L, 4L)^d,
    U_z = z + [-KL+1, KL-1)^d; centers must be (4K+1)L-separated so the
    local fields of distinct boxes are independent.
    """

    L: int
    K: int
    centers: tuple

    def __post_init__(self):
        if self.K * self.L - 1 < 4 * self.L:
            raise ValueError("K too small: the harmonic-average box must contain D_z")
        cs = np.asarray(self.centers, dtype=np.int64)
        if cs.ndim != 2:
            raise ValueError("centers must be a list of lattice points")
        if np.any(cs % self.L != 0):
            raise ValueError("centers must lie on the lattice L Z^d")
        sep = (4 * self.K + 1) * self.L
        for i in range(len(cs)):
            for j in range(i + 1, len(cs)):
                if np.abs(cs[i] - cs[j]).max() < sep:
                    raise ValueError("collection violates the separation constraint")

    def center_array(self) -> np.ndarray:
        return np.asarray(self.centers, dtype=np.int64)

    def box_B(self, z) -> SiteSet:
        z = as_coords(z)[0]
        return box_sites(z, z + self.L - 1)

    def box_D(self, z) -> SiteSet:
        z = as_coords(z)[0]
        return box_sites(z - 3 * self.L, z + 4 * self.L - 1)

    def box_U(self, z) -> SiteSet:
        z = as_coords(z)[0]
        return box_sites(z - self.K * self.L + 1, z + self.K * self.L - 2)

    def union_B(self, d: int) -> SiteSet:
        parts = [self.box_B(z).coords for z in self.centers]
        return SiteSet(np.vstack(parts), d)

    def validate_inside(self, domain: SiteSet) -> None:
        for z in self.centers:
            if not self.box_U(z).issubset(domain):
                raise ValueError("a harmonic-average box escapes the domain")


@dataclass
class ZFunctionalReport:
    """Exact second-order data and sampled values of the box functional."""

    lambda_weights: dict
    cap_C: float
    var_zm: float
    var_pairing: float
    cov_zm_pairing: float
    var_zmbr: float
    var_times_cap: float
    exact_mean: float
    sample_zm: np.ndarray = field(default_factory=lambda: np.empty(0))
    sample_zinf: np.ndarray = field(default_factory=lambda: np.empty(0))
    mean_zinf: float = float("nan")
    se_zinf: float = float("nan")
    mean_bound_quantity: float = float("nan")


def functional_Z(env: Conductances, domain: SiteSet, collection: BoxCollection,
                 m: dict | None = None,
                 eta_site_values: np.ndarray | None = None,
                 beta: float = 0.0, rho: float = 0.0,
                 count: int = 0, seed: int = 0) -> ZFunctionalReport:
    """Weighted harmonic-average functional over a separated collection.

    Evaluates Z_m = sum_z lambda(z) xi^z_{m(z)} with lambda(z) =
    e_C(B_z)/cap(C), C the union of the B_z, its beta/rho-adjusted variant
    against a site-weighted test function, the exact (solve-based)
    variances, and, when `count` > 0, sampled values including inf_m Z_m.
    """
    collection.validate_inside(domain)
    centers = [tuple(int(v) for v in z) for z in collection.center_array()]
    opD = DirichletOperator(env, domain)
    C = collection.union_B(domain.d)
    hC = harmonic_potential(env, C, domain)
    eC = equilibrium_measure(env, C, domain, h=hC)
    cap_C = float(eC.sum())
    lam = {}
    for z in centers:
        in_box = collection.box_B(z).contains_mask(C.coords)
        lam[z] = float(eC[in_box].sum()) / cap_C

    if m is None:
        m = {z: z for z in centers}
    for z in centers:
        if tuple(m[z]) not in collection.box_D(z):
            raise ValueError("m(z) must lie in the D-box of z")

    # Green columns at the marked points, one block solve
    marks = np.array([m[z] for z in centers], dtype=np.int64)
    mark_idx = domain.locate(marks)
    rhs = np.zeros((len(domain), len(centers)))
    rhs[mark_idx, np.arange(len(centers))] = 1.0
    gcols = opD.solve(rhs)

    # per-box harmonic extensions of the Green columns: E[(xi^z_{m(z)})^2]
    var_zm = 0.0
    sub_ops = {}
    for k, z in enumerate(centers):
        Vz = collection.box_U(z)
        sub_ops[z] = DirichletOperator(env, Vz)
        ext = harmonic_extension(env, Vz, domain, gcols[:, k], op=sub_ops[z])
        at_m = ext[Vz.locate(marks[k][None, :])[0]]
        var_zm += lam[z] ** 2 * float(at_m)
    for i, zi in enumerate(centers):
        for j, zj in enumerate(centers):
            if i == j:
                continue
            var_zm += lam[zi] * lam[zj] * float(gcols[mark_idx[j], i])

    var_pair = 0.0
    cov = 0.0
    if eta_site_values is not None:
        eta_site_values = np.asarray(eta_site_values, dtype=np.float64)
        v = opD.solve(eta_site_values)
        var_pair = float(eta_site_values @ v)
        for z in centers:
            Vz = sub_ops[z].sites
            ext = harmonic_extension(env, Vz, domain, v, op=sub_ops[z])
            cov += lam[z] * float(ext[Vz.locate(np.asarray(m[z])[None, :])[0]])
    var_zmbr = ((1.0 + rho) ** 2 * var_zm + beta ** 2 * var_pair
                - 2.0 * (1.0 + rho) * beta * cov)

    report = ZFunctionalReport(
        lambda_weights=lam,
        cap_C=cap_C,
        var_zm=var_zm,
        var_pairing=var_pair,
        cov_zm_pairing=cov,
        var_zmbr=var_zmbr,
        var_times_cap=var_zm * cap_C,
        exact_mean=0.0,
    )

    if count > 0:
        rng = stream(seed, "z-functional")
        phis = opD.sample_gaussian(rng, count)
        zm = np.zeros(count)
        zinf = np.zeros(count)
        for k, z in enumerate(centers):
            Vz = sub_ops[z].sites
            xi = harmonic_extension(env, Vz, domain, phis, op=sub_ops[z])
            zm += lam[z] * xi[Vz.locate(marks[k][None, :])[0], :]
            Dz_idx = Vz.locate(collection.box_D(z).coords)
            Dz_idx = Dz_idx[Dz_idx >= 0]
            zinf += lam[z] * xi[Dz_idx, :].min(axis=0)
        report.sample_zm = zm
        report.sample_zinf = zinf
        report.mean_zinf = float(zinf.mean())
        report.se_zinf = float(zinf.std(ddof=1) / np.sqrt(count))
        report.mean_bound_quantity = abs(report.mean_zinf) * np.sqrt(
            cap_C / len(centers))
    return report
