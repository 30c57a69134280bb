"""Finite sublattices of Z^d: site sets, balls, boundaries, blow-ups.

Sites are integer d-vectors, d >= 3. A :class:`SiteSet` stores its members
in lexicographic order, which fixes the dense index used for matrix
assembly and makes every downstream computation reproducible.

Adjacency is always the nearest-neighbor one, |x - y|_1 = 1. Balls and
distances are l-infinity unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_DIMENSION = 3


def check_dimension(d: int) -> int:
    d = int(d)
    if d < MIN_DIMENSION:
        raise ValueError(f"dimension must be >= {MIN_DIMENSION}, got {d}")
    return d


def as_coords(sites, d: int | None = None) -> np.ndarray:
    """Coerce input to an (n, d) int64 coordinate array."""
    arr = np.asarray(sites, dtype=np.int64)
    if arr.ndim == 1:
        if arr.size == 0:
            if d is None:
                raise ValueError("empty site list needs an explicit dimension")
            return np.empty((0, d), dtype=np.int64)
        arr = arr[None, :]
    if d is not None and arr.shape[1] != d:
        raise ValueError(f"expected dimension {d}, got {arr.shape[1]}")
    return arr


class SiteSet:
    """Finite, lexicographically ordered set of lattice sites.

    index_map is implicit: the i-th row of `coords` has dense index i.
    Membership and neighbor lookups go through packed integer keys, so
    they vectorize over large arrays. Key order is lexicographic order,
    so input that is already ordered and free of duplicates (boxes,
    subsets of ordered sets) is kept as given, with no sort; the set
    always holds its own copy of the coordinates.

    The packing window is the bounding box padded by one site, so the
    neighbors of members have keys too: `neighbors` tabulates every x + s
    from the keys of x alone, one `searchsorted` per axis. Boundaries, L_U,
    its incidence factor and boundary fluxes all read that one table.
    """

    __slots__ = ("coords", "d", "_lo", "_span", "_keys")

    def __init__(self, sites, d: int | None = None):
        coords = as_coords(sites, d)
        self.d = check_dimension(coords.shape[1] if d is None else d)
        if coords.shape[0] > 0:
            # packing window pads by one so neighbor queries stay in range
            self._lo = coords.min(axis=0) - 1
            self._span = coords.max(axis=0) - self._lo + 2
            if float(np.prod(self._span.astype(np.float64))) >= 2.0 ** 62:
                raise ValueError("site set bounding box too large to index")
            # packed-key order is lexicographic order, so sorting the keys
            # sorts the rows
            keys = self._pack(coords)
            if np.all(keys[1:] > keys[:-1]):
                self._keys, coords = keys, coords.copy()
            else:
                self._keys, first = np.unique(keys, return_index=True)
                coords = coords[first]
        else:
            self._lo = np.zeros(self.d, dtype=np.int64)
            self._span = np.ones(self.d, dtype=np.int64)
            self._keys = np.empty(0, dtype=np.int64)
        self.coords = coords

    def _pack(self, pts: np.ndarray) -> np.ndarray:
        off = pts - self._lo
        key = off[:, 0].copy()
        for a in range(1, self.d):
            key *= self._span[a]
            key += off[:, a]
        return key

    def __len__(self) -> int:
        return self.coords.shape[0]

    def __iter__(self):
        for row in self.coords:
            yield tuple(int(v) for v in row)

    def __contains__(self, site) -> bool:
        pts = as_coords(site, self.d)
        return bool(self.contains_mask(pts)[0])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SiteSet)
            and self.d == other.d
            and self.coords.shape == other.coords.shape
            and bool(np.array_equal(self.coords, other.coords))
        )

    def __repr__(self) -> str:
        return f"SiteSet(n={len(self)}, d={self.d})"

    def locate(self, pts) -> np.ndarray:
        """Dense indices of query points; -1 where absent."""
        pts = as_coords(pts, self.d)
        n = pts.shape[0]
        if len(self) == 0 or n == 0:
            return np.full(n, -1, dtype=np.int64)
        inside = np.all((pts >= self._lo) & (pts < self._lo + self._span), axis=1)
        safe = np.where(inside[:, None], pts, self._lo[None, :])
        keys = self._pack(safe)
        pos = np.searchsorted(self._keys, keys)
        pos_c = np.minimum(pos, len(self) - 1)
        hit = inside & (self._keys[pos_c] == keys)
        out = np.where(hit, pos_c, -1)
        return out.astype(np.int64)

    def contains_mask(self, pts) -> np.ndarray:
        return self.locate(pts) >= 0

    def neighbors(self) -> np.ndarray:
        """(n, 2d) dense indices of x + s for every member x and step s of
        `neighbor_steps(d)`, in its order, -1 where absent. Within the
        padded window x + e_a packs to key(x) + the stride of axis a, so
        each axis takes one search; x - e_a is the reverse of that edge."""
        n = len(self)
        out = np.full((n, 2 * self.d), -1, dtype=np.int64)
        strides = np.cumprod(np.append(1, self._span[:0:-1]))[::-1]
        for a in range(self.d):
            keys = self._keys + strides[a]
            pos = np.minimum(np.searchsorted(self._keys, keys), n - 1)
            hit = np.nonzero(self._keys[pos] == keys)[0]
            out[hit, 2 * a] = pos[hit]
            out[pos[hit], 2 * a + 1] = hit
        return out

    def index_of(self, site) -> int:
        idx = int(self.locate(as_coords(site, self.d))[0])
        if idx < 0:
            raise KeyError(f"site {site} not in set")
        return idx

    def site_of(self, index: int) -> tuple:
        return tuple(int(v) for v in self.coords[index])

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.is_empty:
            raise ValueError("empty set has no bounding box")
        return self.coords.min(axis=0), self.coords.max(axis=0)

    def union(self, other: "SiteSet") -> "SiteSet":
        return SiteSet(np.vstack([self.coords, other.coords]), self.d)

    def difference(self, other: "SiteSet") -> "SiteSet":
        keep = ~other.contains_mask(self.coords)
        return SiteSet(self.coords[keep], self.d)

    def intersection(self, other: "SiteSet") -> "SiteSet":
        keep = other.contains_mask(self.coords)
        return SiteSet(self.coords[keep], self.d)

    def issubset(self, other: "SiteSet") -> bool:
        return bool(np.all(other.contains_mask(self.coords)))

    def translate(self, x) -> "SiteSet":
        shift = as_coords(x, self.d)[0]
        return SiteSet(self.coords + shift, self.d)


def empty_set(d: int) -> SiteSet:
    return SiteSet(np.empty((0, d), dtype=np.int64), d=d)


def _box_coords(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The (n, d) sites of the box [lo, hi] in lexicographic order."""
    axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(lo, hi)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


def box_sites(lo, hi) -> SiteSet:
    """All integer sites of the box [lo, hi] (both ends inclusive)."""
    lo = as_coords(lo)[0]
    hi = as_coords(hi)[0]
    if np.any(hi < lo):
        return empty_set(lo.shape[0])
    return SiteSet(_box_coords(lo, hi), d=lo.shape[0])


def ball(x, r: int, d: int | None = None) -> SiteSet:
    """Closed l-infinity ball of radius r, (2r+1)^d sites."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    center = as_coords(x, d)[0]
    return box_sites(center - r, center + r)


def linf_sphere(radius: int, d: int, center=None) -> SiteSet:
    """Sites at l-infinity distance exactly `radius` from the center."""
    if center is None:
        center = np.zeros(d, dtype=np.int64)
    if radius == 0:
        return SiteSet(as_coords(center, d), d=d)
    outer = ball(center, radius, d)
    inner = ball(center, radius - 1, d)
    return outer.difference(inner)


_NEIGHBOR_STEPS_CACHE: dict[int, np.ndarray] = {}


def neighbor_steps(d: int) -> np.ndarray:
    """The step table +e_0, -e_0, +e_1, -e_1, ..., shape (2d, d), read-only:
    every neighbor enumeration of the package follows its order."""
    if d not in _NEIGHBOR_STEPS_CACHE:
        steps = np.kron(np.eye(d, dtype=np.int64), [[1], [-1]])
        steps.flags.writeable = False
        _NEIGHBOR_STEPS_CACHE[d] = steps
    return _NEIGHBOR_STEPS_CACHE[d]


def boundary(K: SiteSet, kind: str = "external") -> SiteSet:
    """External or internal nearest-neighbor boundary of K."""
    if K.is_empty:
        return empty_set(K.d)
    outside = K.neighbors() < 0
    if kind == "external":
        cand = K.coords[:, None, :] + neighbor_steps(K.d)[None, :, :]
        return SiteSet(cand[outside], K.d)
    if kind == "internal":
        return SiteSet(K.coords[outside.any(axis=1)], K.d)
    raise ValueError(f"unknown boundary kind {kind!r}")


# ---------------------------------------------------------------------------
# Continuum shapes and their discrete blow-ups


@dataclass(frozen=True)
class EuclideanBall:
    center: tuple
    radius: float

    def contains(self, pts: np.ndarray) -> np.ndarray:
        diff = np.asarray(pts, dtype=np.float64) - np.asarray(self.center)
        return np.einsum("ij,ij->i", diff, diff) <= self.radius ** 2

    def bounds(self):
        c = np.asarray(self.center, dtype=np.float64)
        return c - self.radius, c + self.radius

    def inflate(self, delta: float) -> "EuclideanBall":
        return EuclideanBall(self.center, self.radius + delta)


@dataclass(frozen=True)
class LinfBox:
    center: tuple
    half_width: float

    def contains(self, pts: np.ndarray) -> np.ndarray:
        diff = np.abs(np.asarray(pts, dtype=np.float64) - np.asarray(self.center))
        return np.max(diff, axis=1) <= self.half_width

    def bounds(self):
        c = np.asarray(self.center, dtype=np.float64)
        return c - self.half_width, c + self.half_width

    def inflate(self, delta: float) -> "LinfBox":
        # Minkowski sum with a Euclidean delta-ball is not a box; the
        # enclosing box (half_width + delta) is used, which contains it.
        return LinfBox(self.center, self.half_width + delta)


@dataclass(frozen=True)
class HalfSpace:
    """{x : normal . x <= offset}; unbounded, usable only as a test set."""

    normal: tuple
    offset: float

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(pts, dtype=np.float64) @ np.asarray(self.normal) <= self.offset

    def bounds(self):
        raise ValueError("half-space is unbounded")

    def inflate(self, delta: float) -> "HalfSpace":
        nrm = float(np.linalg.norm(self.normal))
        return HalfSpace(self.normal, self.offset + delta * nrm)


@dataclass(frozen=True)
class ShapeUnion:
    parts: tuple

    def contains(self, pts: np.ndarray) -> np.ndarray:
        mask = self.parts[0].contains(pts)
        for p in self.parts[1:]:
            mask = mask | p.contains(pts)
        return mask

    def bounds(self):
        los, his = zip(*(p.bounds() for p in self.parts))
        return np.min(los, axis=0), np.max(his, axis=0)

    def inflate(self, delta: float) -> "ShapeUnion":
        return ShapeUnion(tuple(p.inflate(delta) for p in self.parts))


@dataclass(frozen=True)
class ShapeIntersection:
    parts: tuple

    def contains(self, pts: np.ndarray) -> np.ndarray:
        mask = self.parts[0].contains(pts)
        for p in self.parts[1:]:
            mask = mask & p.contains(pts)
        return mask

    def bounds(self):
        los, his = [], []
        for p in self.parts:
            try:
                lo, hi = p.bounds()
            except ValueError:
                continue
            los.append(lo)
            his.append(hi)
        if not los:
            raise ValueError("intersection of unbounded shapes")
        return np.max(los, axis=0), np.min(his, axis=0)

    def inflate(self, delta: float) -> "ShapeIntersection":
        # superset of the true Minkowski inflation; exact for primitives
        return ShapeIntersection(tuple(p.inflate(delta) for p in self.parts))


def euclidean_ball(center, radius: float) -> EuclideanBall:
    return EuclideanBall(tuple(float(c) for c in center), float(radius))


def linf_box(center, half_width: float) -> LinfBox:
    return LinfBox(tuple(float(c) for c in center), float(half_width))


def half_space(normal, offset: float) -> HalfSpace:
    return HalfSpace(tuple(float(c) for c in normal), float(offset))


def shape_union(*parts) -> ShapeUnion:
    return ShapeUnion(tuple(parts))


def shape_intersection(*parts) -> ShapeIntersection:
    return ShapeIntersection(tuple(parts))


def blow_up(shape, N: int, d: int | None = None) -> SiteSet:
    """Integer points x with x/N in the shape (closed-set convention)."""
    if N <= 0:
        raise ValueError("N must be positive")
    lo, hi = shape.bounds()  # raises for unbounded shapes
    d = lo.shape[0] if d is None else d
    ilo = np.floor(np.asarray(lo) * N).astype(np.int64)
    ihi = np.ceil(np.asarray(hi) * N).astype(np.int64)
    grid = _box_coords(ilo, ihi)
    return SiteSet(grid[shape.contains(grid / float(N))], d=d)


def shape_from_spec(spec: dict):
    """Build a shape from its config dictionary form."""
    kind = spec.get("kind")
    if kind == "euclidean_ball":
        return euclidean_ball(spec["center"], spec["radius"])
    if kind == "linf_box":
        return linf_box(spec["center"], spec["half_width"])
    if kind == "half_space":
        return half_space(spec["normal"], spec["offset"])
    if kind == "union":
        return shape_union(*(shape_from_spec(p) for p in spec["parts"]))
    if kind == "intersection":
        return shape_intersection(*(shape_from_spec(p) for p in spec["parts"]))
    raise ValueError(f"unknown shape kind {kind!r}")
