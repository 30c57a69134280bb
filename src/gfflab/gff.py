"""Gaussian free field on finite domains: exact sampling, the harmonic
average / local field decomposition, measure tilting, and the box grids
on which the local fields are classified.

The field on a finite domain U is the centered Gaussian vector with
covariance g_U = L_U^{-1}; everything outside U is frozen to zero
(finite-volume convention used throughout the package).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import SiteSet, as_coords, box_sites, boundary
from .environment import Conductances
from .potential import DirichletOperator, as_operator, harmonic_extension
from .streams import stream


@dataclass
class FieldSample:
    """One field realization over `sites` (zero outside)."""

    sites: SiteSet
    values: np.ndarray


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


# ---------------------------------------------------------------------------
# Box grids


@dataclass(frozen=True)
class BoxCollection:
    """Centers on L Z^d with derived boxes B_z in D_z in U_z.

    B_z = z + [0, L)^d, D_z = z + [-3L, 4L)^d,
    U_z = z + [-KL+1, KL-1)^d. Centers may be adjacent, so the boxes
    B_z may tile a region, as `percolation.classify_boxes` reads them.
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
