"""Uniformly elliptic conductances on a finite window.

Every nearest-neighbor edge carries a weight in [lam, 1]. Weights are a
pure function of the absolute edge coordinates, the law and the seed
(coordinate-keyed hashing), so overlapping windows agree edge for edge
and lattice shifts can be evaluated without storing the infinite
configuration.

Storage layout: for each axis a, `weights[a]` holds the weight of the
edge {x, x + e_a} for every x in the padded window [lo-1, hi+1]^d. All
edges incident to window sites are therefore available.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .lattice import SiteSet, as_coords, box_sites, check_dimension
from .streams import keyed_uniform

_MAGIC = b"GFFLABENV1\n"


@dataclass(frozen=True)
class EnvironmentLaw:
    """Edge-weight law; all attainable values must lie in [lam, 1]."""

    kind: str
    params: tuple

    @classmethod
    def constant(cls, c: float) -> "EnvironmentLaw":
        return cls("constant", (float(c),))

    @classmethod
    def iid_uniform(cls, low: float, high: float) -> "EnvironmentLaw":
        return cls("iid_uniform", (float(low), float(high)))

    @classmethod
    def iid_two_point(cls, a: float, b: float, p: float) -> "EnvironmentLaw":
        if not 0.0 <= p <= 1.0:
            raise ValueError("two-point probability must be in [0, 1]")
        return cls("iid_two_point", (float(a), float(b), float(p)))

    @classmethod
    def checkerboard(cls, a: float, b: float) -> "EnvironmentLaw":
        return cls("checkerboard", (float(a), float(b)))

    def value_range(self) -> tuple[float, float]:
        if self.kind == "constant":
            return self.params[0], self.params[0]
        if self.kind == "iid_uniform":
            return min(self.params), max(self.params)
        if self.kind in ("iid_two_point", "checkerboard"):
            a, b = self.params[0], self.params[1]
            return min(a, b), max(a, b)
        raise ValueError(f"unknown law kind {self.kind!r}")

    def validate(self, lam: float) -> None:
        if not 0.0 < lam < 1.0:
            raise ValueError("lambda must lie in (0, 1)")
        lo, hi = self.value_range()
        if lo < lam - 1e-12 or hi > 1.0 + 1e-12:
            raise ValueError(
                f"law values [{lo}, {hi}] escape the ellipticity window [{lam}, 1]"
            )

    def evaluate(self, origins: np.ndarray, axis: int, seed: int) -> np.ndarray:
        """Weights of the edges {x, x+e_axis} for the given origin rows."""
        if self.kind == "constant":
            return np.full(origins.shape[0], self.params[0])
        if self.kind == "checkerboard":
            a, b = self.params
            even = (origins.sum(axis=1) % 2) == 0
            return np.where(even, a, b)
        u = keyed_uniform(origins, axis, seed)
        if self.kind == "iid_uniform":
            low, high = self.params
            return low + (high - low) * u
        if self.kind == "iid_two_point":
            a, b, p = self.params
            return np.where(u < p, b, a)
        raise ValueError(f"unknown law kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": list(self.params)}

    @classmethod
    def from_dict(cls, spec: dict) -> "EnvironmentLaw":
        return cls(spec["kind"], tuple(float(v) for v in spec["params"]))


class Conductances:
    """One realization of edge weights over a padded finite window."""

    def __init__(self, lo, hi, lam: float, weights, law: EnvironmentLaw | None,
                 seed: int = 0, offset=None, d: int | None = None):
        self.lo = as_coords(lo, d)[0]
        self.hi = as_coords(hi, d)[0]
        self.d = check_dimension(self.lo.shape[0])
        self.lam = float(lam)
        self.law = law
        self.seed = int(seed)
        self.offset = (np.zeros(self.d, dtype=np.int64) if offset is None
                       else as_coords(offset, self.d)[0])
        self.origin = self.lo - 1  # array index 0 corresponds to this site
        self.weights = weights
        shape = tuple(self.hi - self.lo + 3)
        for a in range(self.d):
            if self.weights[a].shape != shape:
                raise ValueError("weight array shape does not match window")
            wmin, wmax = float(self.weights[a].min()), float(self.weights[a].max())
            if wmin < self.lam - 1e-12 or wmax > 1.0 + 1e-12:
                raise ValueError("stored weights violate uniform ellipticity")

    # -- access ------------------------------------------------------------

    @property
    def window(self) -> SiteSet:
        return box_sites(self.lo, self.hi)

    def _index(self, sites: np.ndarray) -> tuple:
        idx = sites - self.origin
        if np.any(idx < 0) or np.any(idx >= np.asarray(self.weights[0].shape)):
            raise ValueError("site outside the stored environment window")
        return tuple(idx.T)

    def forward(self, sites, axis: int) -> np.ndarray:
        """Weight of {x, x+e_axis} for each row x (vectorized)."""
        pts = as_coords(sites, self.d)
        return self.weights[axis][self._index(pts)]

    def edge_weight(self, x, y) -> float:
        x = as_coords(x, self.d)[0]
        y = as_coords(y, self.d)[0]
        diff = y - x
        if np.abs(diff).sum() != 1:
            raise ValueError("not a nearest-neighbor edge")
        axis = int(np.nonzero(diff)[0][0])
        origin = x if diff[axis] == 1 else y
        return float(self.weights[axis][self._index(origin[None, :])][0])

    def site_weights(self, sites) -> np.ndarray:
        """omega_x = sum of the 2d incident edge weights."""
        pts = as_coords(sites, self.d)
        total = np.zeros(pts.shape[0])
        for a in range(self.d):
            step = np.zeros(self.d, dtype=np.int64)
            step[a] = 1
            total += self.forward(pts, a)
            total += self.forward(pts - step, a)
        return total

    def site_weight(self, x) -> float:
        return float(self.site_weights(as_coords(x, self.d))[0])

    # -- transformations ----------------------------------------------------

    def shift(self, x) -> "Conductances":
        """Environment tau_x(omega): edge {y,z} reads the original {x+y, x+z}."""
        if self.law is None:
            raise ValueError("shift needs a keyed law to regenerate weights")
        step = as_coords(x, self.d)[0]
        return sample_environment(self.law, (self.lo, self.hi), self.seed,
                                  self.lam, offset=self.offset + step)

    # -- provenance and serialization ----------------------------------------

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(self._header(), sort_keys=True).encode())
        for a in range(self.d):
            h.update(np.ascontiguousarray(self.weights[a], dtype="<f8").tobytes())
        return h.hexdigest()

    def _header(self) -> dict:
        return {
            "version": 1,
            "d": self.d,
            "lambda": self.lam,
            "law": self.law.to_dict() if self.law is not None else None,
            "seed": self.seed,
            "offset": [int(v) for v in self.offset],
            "window_lo": [int(v) for v in self.lo],
            "window_hi": [int(v) for v in self.hi],
        }

    def save(self, path) -> None:
        """Binary weights (little-endian f8, axis-major) plus JSON sidecar."""
        header = json.dumps(self._header(), sort_keys=True)
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write((header + "\n").encode("utf-8"))
            for a in range(self.d):
                fh.write(np.ascontiguousarray(self.weights[a], dtype="<f8").tobytes())
        with open(str(path) + ".json", "w", encoding="utf-8") as fh:
            fh.write(header + "\n")

    @classmethod
    def load(cls, path) -> "Conductances":
        with open(path, "rb") as fh:
            if fh.read(len(_MAGIC)) != _MAGIC:
                raise ValueError("not an environment file")
            header = json.loads(fh.readline().decode("utf-8"))
            lo = np.asarray(header["window_lo"], dtype=np.int64)
            hi = np.asarray(header["window_hi"], dtype=np.int64)
            shape = tuple(hi - lo + 3)
            count = int(np.prod(shape))
            weights = []
            for _ in range(header["d"]):
                buf = fh.read(count * 8)
                weights.append(np.frombuffer(buf, dtype="<f8").reshape(shape).copy())
        law = EnvironmentLaw.from_dict(header["law"]) if header["law"] else None
        return cls(lo, hi, header["lambda"], weights, law,
                   seed=header["seed"], offset=header["offset"])


def _window_bounds(window) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(window, SiteSet):
        lo, hi = window.bounding_box()
        if len(window) != int(np.prod(hi - lo + 1)):
            raise ValueError("window must be a full box")
        return lo, hi
    lo, hi = window
    return np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)


def sample_environment(law: EnvironmentLaw, window, seed: int, lam: float,
                       offset=None) -> Conductances:
    """Draw the conductances of every edge touching the window.

    Deterministic in (law, window, seed): the weight of an edge depends
    only on its absolute coordinates, so two overlapping windows agree.
    """
    lo, hi = _window_bounds(window)
    d = check_dimension(lo.shape[0])
    law.validate(lam)
    off = np.zeros(d, dtype=np.int64) if offset is None else as_coords(offset, d)[0]
    shape = tuple(hi - lo + 3)
    # the padded window slab by slab along axis 0, each slab's origins in
    # lexicographic order, so memory is one slab of coordinates
    rest = np.meshgrid(*[np.arange(lo[a] - 1, hi[a] + 2) + off[a]
                         for a in range(1, d)], indexing="ij")
    slab = np.empty((rest[0].size, d), dtype=np.int64)
    for a in range(1, d):
        slab[:, a] = rest[a - 1].ravel()
    weights = [np.empty(shape) for _ in range(d)]
    for i in range(shape[0]):
        slab[:, 0] = lo[0] - 1 + i + off[0]
        for a in range(d):
            weights[a][i] = law.evaluate(slab, a, seed).reshape(shape[1:])
    return Conductances(lo, hi, lam, weights, law, seed=seed, offset=off, d=d)


def environment_for_sites(law: EnvironmentLaw, sites: SiteSet, seed: int,
                          lam: float, margin: int = 1) -> Conductances:
    """Environment on the bounding box of `sites` plus a margin."""
    lo, hi = sites.bounding_box()
    return sample_environment(law, (lo - margin, hi + margin), seed, lam)
