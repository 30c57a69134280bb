"""Uniformly elliptic conductances on a finite window.

Every nearest-neighbor edge carries a weight in [lam, 1]. Weights are a
pure function of the absolute edge coordinates, the law and the seed
(coordinate-keyed hashing), so overlapping windows agree edge for edge
and lattice shifts can be evaluated without storing the infinite
configuration.

Storage layout: one C-contiguous float64 array `weights`, shape (d,) +
`shape`, with `weights[a][x - origin]` the weight of the edge {x, x + e_a}
for every x in the padded window [lo-1, hi+1]^d (origin = lo - 1), so all
edges incident to window sites are available. The flat index of x is
(x - origin) @ `strides`, and a step s adds s @ strides. A read is one
`take` at flat indices plus offsets fixed per environment, checked from
sites (`_gather`) or unchecked (`neighbor_weights_at`, for walkers).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .lattice import SiteSet, as_coords, check_dimension, neighbor_steps
from .streams import keyed_uniform

_MAGIC = b"GFFLABENV1\n"


@dataclass(frozen=True)
class EnvironmentLaw:
    """Edge-weight law; all attainable values must lie in [lam, 1]."""

    kind: str
    params: tuple

    # the parameter names of each kind, in the order its constructor takes them
    PARAMS = {"constant": ("value",), "iid_uniform": ("low", "high"),
              "iid_two_point": ("a", "b", "p"), "checkerboard": ("a", "b")}

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
        """The least and the largest weight: every parameter but the
        two-point probability p is an attainable weight."""
        if self.kind not in self.PARAMS:
            raise ValueError(f"unknown law kind {self.kind!r}")
        values = [v for k, v in zip(self.PARAMS[self.kind], self.params) if k != "p"]
        return min(values), max(values)

    def validate(self, lam: float) -> None:
        if not 0.0 < lam < 1.0:
            raise ValueError("lambda must lie in (0, 1)")
        lo, hi = self.value_range()
        if lo < lam - 1e-12 or hi > 1.0 + 1e-12:
            raise ValueError(
                f"law values [{lo}, {hi}] escape the ellipticity window [{lam}, 1]"
            )

    def evaluate(self, columns, axis: int, seed: int) -> np.ndarray:
        """Weights of the edges {x, x+e_axis} at the origins x whose
        coordinate columns broadcast together (see `keyed_uniform`), in
        their broadcast shape; a site list of shape (n, d) is `coords.T`."""
        if self.kind == "constant":
            return np.full(np.broadcast(*columns).shape, self.params[0])
        if self.kind == "checkerboard":
            a, b = self.params
            even = (sum(columns) % 2) == 0
            return np.where(even, a, b)
        u = keyed_uniform(columns, axis, seed)
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
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self.shape = self.hi - self.lo + 3
        if self.weights.shape != (self.d, *self.shape):
            raise ValueError("weight array shape does not match window")
        if (self.weights.min() < self.lam - 1e-12
                or self.weights.max() > 1.0 + 1e-12):
            raise ValueError("stored weights violate uniform ellipticity")
        # the edge {x, x + s} of step s = +-e_a sits _steps[k] past the flat
        # index of x, at its lower end x + min(s, 0)
        self.strides = np.array(self.weights.strides[1:]) // 8
        self._steps = (np.minimum(neighbor_steps(self.d), 0) @ self.strides
                       + np.repeat(np.arange(self.d), 2) * self.weights[0].size)

    # -- access ------------------------------------------------------------

    def covers(self, sites: SiteSet) -> bool:
        """Whether every site of a non-empty set lies in the window [lo, hi]."""
        lo, hi = sites.bounding_box()
        return bool(np.all(lo >= self.lo) and np.all(hi <= self.hi))

    def flat_index(self, sites, low: int) -> np.ndarray:
        """The flat index of each row x; -1 where x - origin leaves [low, shape)."""
        idx = as_coords(sites, self.d) - self.origin
        inside = ((idx >= low) & (idx < self.shape)).all(axis=1)
        return np.where(inside, idx @ self.strides, -1)

    def sites_at(self, flat) -> np.ndarray:
        """The (k, d) sites at flat indices: `flat_index` inverted."""
        return np.stack(np.unravel_index(flat, tuple(self.shape)), axis=1) + self.origin

    def _gather(self, sites, offsets, low: int) -> np.ndarray:
        """The stored weights at the flat index of each row x plus
        `offsets`, shape (k,) + offsets.shape; x - origin must lie in
        [low, shape) on every axis."""
        flat = self.flat_index(sites, low)
        if (flat < 0).any():
            raise ValueError("site outside the stored environment window")
        return self._take(flat, offsets)

    def _take(self, flat, offsets) -> np.ndarray:
        return self.weights.ravel().take(np.add.outer(flat, offsets))

    def edge_weight(self, x, y) -> float:
        x = as_coords(x, self.d)[0]
        diff = as_coords(y, self.d)[0] - x
        if np.abs(diff).sum() != 1:
            raise ValueError("not a nearest-neighbor edge")
        axis = int(np.nonzero(diff)[0][0])
        lower = np.minimum(x, x + diff)
        return float(self._gather(lower, self._steps[2 * axis], 0)[0])

    def neighbor_weights(self, sites) -> np.ndarray:
        """(k, 2d) weights of the edges {x, x + s} for each row x, one
        column per step s of `neighbor_steps(d)`, in its order. The edge
        is stored at its lower end x + min(s, 0)."""
        return self._gather(sites, self._steps, 1)

    def neighbor_weights_at(self, flat) -> np.ndarray:
        """`neighbor_weights` at flat indices of sites in [lo, hi], unchecked."""
        return self._take(flat, self._steps)

    def site_weights(self, sites) -> np.ndarray:
        """omega_x = sum of the 2d incident edge weights."""
        return self.neighbor_weights(sites).sum(axis=1)

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
        h.update(json.dumps(self.identity(), sort_keys=True).encode())
        h.update(self.weights.astype("<f8", copy=False))
        return h.hexdigest()

    def identity(self) -> dict:
        """The keys that determine every stored weight: law, seed, lambda,
        offset and window (the header of a saved environment)."""
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
        header = json.dumps(self.identity(), sort_keys=True)
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write((header + "\n").encode("utf-8"))
            fh.write(self.weights.astype("<f8", copy=False))
        with open(str(path) + ".json", "w", encoding="utf-8") as fh:
            fh.write(header + "\n")

    @classmethod
    def load(cls, path) -> "Conductances":
        with open(path, "rb") as fh:
            if fh.read(len(_MAGIC)) != _MAGIC:
                raise ValueError("not an environment file")
            header = json.loads(fh.readline().decode("utf-8"))
            shape = (header["d"], *np.subtract(header["window_hi"],
                                               header["window_lo"]) + 3)
            weights = np.frombuffer(fh.read(8 * int(np.prod(shape))), dtype="<f8")
        law = EnvironmentLaw.from_dict(header["law"]) if header["law"] else None
        return cls(header["window_lo"], header["window_hi"], header["lambda"],
                   weights.reshape(shape).astype(np.float64), law,
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
    # the padded window slab by slab along axis 0, each slab an open grid:
    # the scalar x0 and one broadcast column per further axis, so the hash
    # of each coordinate prefix is shared and memory is one slab of weights
    axes = [np.arange(lo[a] - 1, hi[a] + 2) + off[a] for a in range(d)]
    grid = np.ix_(*axes[1:])
    weights = np.empty((d,) + shape)
    for i, x0 in enumerate(axes[0]):
        for a in range(d):
            weights[a, i] = law.evaluate((x0, *grid), a, seed)
    return Conductances(lo, hi, lam, weights, law, seed=seed, offset=off, d=d)


def environment_for_sites(law: EnvironmentLaw, sites: SiteSet, seed: int,
                          lam: float) -> Conductances:
    """Environment on the bounding box of `sites` plus a one-site margin
    on every side."""
    lo, hi = sites.bounding_box()
    return sample_environment(law, (lo - 1, hi + 1), seed, lam)
