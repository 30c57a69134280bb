"""Workload table: one `gfflab` command and a config derived from a seed.

Every workload uses the law iid_uniform(0.5, 1) with lambda = 0.5. The
benchmark seed only picks `master_seed`; sizes, replica counts and N
ladders are fixed, so the work done per run does not depend on it.
"""

from __future__ import annotations

import hashlib

LAMBDA = 0.5
LAW = {"kind": "iid_uniform", "low": 0.5, "high": 1.0}
BUMP = {"kind": "radial_bump", "center": [0.0, 0.0, 0.0], "radius": 1.5}

# Fixed level of the disconnect workload; disconnection frequency is a few
# percent there for every environment tried.
DISCONNECT_ALPHA = 0.3


def _ball(radius: float) -> dict:
    return {"kind": "euclidean_ball", "center": [0.0, 0.0, 0.0],
            "radius": radius}


def master_seed(workload: str, seed: int) -> int:
    """Program seed for a benchmark seed; distinct per workload."""
    digest = hashlib.sha256(f"{workload}:{int(seed)}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _disconnect() -> dict:
    alpha = DISCONNECT_ALPHA
    return {"A": _ball(0.5), "M": 2.0, "N": 6, "alpha": alpha,
            "alpha_star_ref": alpha + 0.15, "epsilon": 0.05,
            "delta_shell": 0.25, "direct_replicas": 5000,
            "tilted_replicas": 1000, "eps_ladder": [0.05, 0.6, 1.2],
            "eta": BUMP, "Delta": 0.05}


def _homogenize() -> dict:
    return {"A": _ball(0.5), "B": _ball(2.0), "N_list": [8, 12, 24],
            "eta": BUMP,
            "diffusivity": {"t_horizon": 40, "replicas": 10000,
                            "mode": "vsrw"}}


def _percolation() -> dict:
    return {"L_grid": [2, 3], "alpha_grid": [0.0, 0.3, 0.6, 0.9, 1.2, 1.5],
            "replicas": 2000,
            "connectivity": {"alpha": 0.2, "replicas": 2000,
                             "z_list": [[0, 0, 0], [1, 0, 0], [2, 0, 0],
                                        [4, 0, 0], [6, 0, 0]]},
            "classify": {"L": 4, "K": 5, "centers": [[0, 0, 0]],
                         "gamma": 0.5, "delta": 0.0, "a": 1.0}}


SECTIONS = {
    "disconnect": _disconnect,
    "homogenize": _homogenize,
    "percolation": _percolation,
}


def make_config(workload: str, seed: int) -> dict:
    if workload not in SECTIONS:
        raise ValueError(f"unknown workload {workload!r}")
    return {"dimension": 3, "lambda": LAMBDA, "law": dict(LAW),
            "master_seed": master_seed(workload, seed),
            workload: SECTIONS[workload]()}
