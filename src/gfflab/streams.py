"""Deterministic randomness: coordinate-keyed uniforms and replica streams.

Two kinds of randomness are used throughout the package:

* values attached to fixed lattice coordinates (edge weights), produced by
  a counter-style integer hash of the coordinates, so that enlarging,
  shifting or regenerating a window never changes the value seen by a
  given edge. `keyed_uniform` takes the coordinates as columns that
  broadcast together, so a product grid of sites hashes each shared
  prefix of coordinates once;
* ordinary ``numpy.random.Generator`` streams for Monte Carlo replicas,
  derived from a master seed plus a tuple of labels through
  ``SeedSequence`` spawn keys, so replicas are independent and the
  consumption order of one stream cannot affect another.

`binomial_se` is the standard error every Monte Carlo frequency reports.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer of a uint64 array or scalar, as a new array."""
    x = np.array(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= _MIX1
        x ^= x >> np.uint64(27)
        x *= _MIX2
        x ^= x >> np.uint64(31)
    return x


def keyed_uniform(columns, channel: int, seed: int) -> np.ndarray:
    """Uniform[0,1) values keyed by integer coordinates.

    columns: k integer arrays (or scalars) that broadcast together, the
    j-th holding coordinate j; a site list of shape (n, k) is passed as
    its k columns, `coords.T`. Each site is hashed together with
    `channel` (e.g. an edge axis) and `seed`, coordinate by coordinate,
    so the value depends only on the coordinates, never on the layout or
    call order. The hash state after coordinates 0..j has the broadcast
    shape of the first j + 1 columns: on an open grid (`np.ix_`) each
    prefix of a site is mixed once, not once per site.
    """
    with np.errstate(over="ignore"):
        h = mix64((np.uint64(seed) ^ _GAMMA) + np.uint64(channel) * _GAMMA)
        for col in columns:
            h = mix64(h ^ (np.asarray(col, dtype=np.int64).view(np.uint64) + _GAMMA))
    return (h >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def _label_words(label) -> tuple[int, ...]:
    if isinstance(label, (int, np.integer)):
        return (int(label) & 0xFFFFFFFF, (int(label) >> 32) & 0xFFFFFFFF)
    digest = hashlib.sha256(str(label).encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[4 * i:4 * i + 4], "little") for i in range(4))


def stream(seed: int, *labels) -> np.random.Generator:
    """Independent Generator for (seed, labels).

    Labels may be ints or strings; strings are hashed. Distinct label
    tuples give statistically independent streams for the same seed.
    """
    key: tuple[int, ...] = ()
    for lab in labels:
        key = key + _label_words(lab)
    ss = np.random.SeedSequence(entropy=int(seed) & (2 ** 64 - 1), spawn_key=key)
    return np.random.default_rng(ss)


def binomial_se(p: float, n: int) -> float:
    """Standard error sqrt(p(1-p)/n) of a frequency p over n replicas,
    floored above zero so that p in {0, 1} still reports a positive SE."""
    return math.sqrt(max(p * (1.0 - p), 1e-300) / n)
