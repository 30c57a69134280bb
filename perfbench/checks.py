"""Checks of the workload outputs against computations made apart from gfflab.

The benchmark takes only the conductance arrays from gfflab (and, for the
box flags, the one field draw, regenerated with `gfflab.gff.sample_gff`).
It assembles the killed Laplacian from those arrays itself, solves with
SciPy, blows up shapes and evaluates the test function itself, and
compares with the command's CSV/JSON outputs. No check reads a stored
copy of an earlier output.

An operation is one checked output. `Ops` evaluates each check in
isolation: an exception (a missing output file, say) fails that
operation only, and with `skip=True` every operation fails unevaluated,
which is how a command that exited non-zero is counted.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy import ndimage

# Relative tolerance between the program's and the benchmark's solves. CG
# on either side stops at a relative residual of 1e-10 or below; energies
# and pairings then agree far inside this.
REL_TOL = 1e-6
# Standard errors allowed between the direct and the importance-sampling
# disconnection estimates. At 3 SE a correct program fails this gate in
# about 0.27% of seeds, and a comparison repeats each workload over dozens
# of seeds; 4 SE keeps false alarms near 6e-5 per seed.
IS_SE_MULT = 4.0
# Standard errors for the checks on statistical outputs with an exact mean.
SE_MULT = 5.0
DIRECT_LIMIT = 40_000  # unknowns solved by sparse LU; Jacobi CG beyond


class Ops:
    """Ordered (name, ok) results plus the error text of failed checks."""

    def __init__(self, skip: bool):
        self.skip = skip
        self.results: list[tuple[str, bool]] = []
        self.errors: list[str] = []

    def check(self, name: str, fn) -> None:
        if self.skip:
            self.results.append((name, False))
            return
        try:
            ok, reason = bool(fn()), "check failed"
        except Exception as exc:  # one bad output fails one operation
            ok, reason = False, repr(exc)
        if not ok:
            self.errors.append(f"{name}: {reason}")
        self.results.append((name, ok))

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok in self.results)


# ---------------------------------------------------------------------------
# Lattice helpers, independent of gfflab.lattice


def box(lo, hi) -> np.ndarray:
    """Sites of [lo, hi]^3 (inclusive) in lexicographic order."""
    axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def blow_up_ball(radius: float, N: int) -> np.ndarray:
    """Integer x in Z^3 with x/N in the closed Euclidean ball of `radius` at 0."""
    r = int(math.ceil(radius * N)) + 1
    pts = box([-r] * 3, [r] * 3)
    scaled = pts / float(N)
    return pts[np.einsum("ij,ij->i", scaled, scaled) <= radius ** 2]


def bump(pts: np.ndarray, radius: float) -> np.ndarray:
    """exp(1 - 1/(1 - |x|^2/radius^2)) inside the ball, else 0."""
    u = np.sum(np.asarray(pts, dtype=np.float64) ** 2, axis=1) / radius ** 2
    out = np.zeros(len(u))
    inside = u < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside]))
    return out


def member(coords: np.ndarray, subset: np.ndarray) -> np.ndarray:
    """Bool per row of `coords`: is it a row of `subset`?"""
    lo = np.minimum(coords.min(axis=0), subset.min(axis=0))
    span = np.maximum(coords.max(axis=0), subset.max(axis=0)) - lo + 1
    weights = np.cumprod(np.concatenate([[1], span[:0:-1]]))[::-1]
    return np.isin((coords - lo) @ weights, (subset - lo) @ weights)


# ---------------------------------------------------------------------------
# Killed Laplacian and solves


def laplacian(weights, origin, coords: np.ndarray) -> sp.csr_matrix:
    """Killed Laplacian over the rows of `coords`.

    `weights[a][x - origin]` is the conductance of the edge {x, x + e_a}.
    The diagonal is the full site weight, so leaving the set kills.
    """
    coords = np.asarray(coords, dtype=np.int64)
    n, d = coords.shape
    origin = np.asarray(origin, dtype=np.int64)
    if np.any(coords - 1 < origin) or np.any(coords - origin >= weights[0].shape):
        raise ValueError("sites outside the conductance window")
    lo = coords.min(axis=0) - 1
    index = np.full(tuple(coords.max(axis=0) - lo + 2), -1, dtype=np.int64)
    index[tuple((coords - lo).T)] = np.arange(n)
    diag = np.zeros(n)
    rows, cols, vals = [np.arange(n)], [np.arange(n)], []
    for a in range(d):
        step = np.zeros(d, dtype=np.int64)
        step[a] = 1
        up = weights[a][tuple((coords - origin).T)]
        diag += up + weights[a][tuple((coords - step - origin).T)]
        j = index[tuple((coords + step - lo).T)]
        has = j >= 0
        i = np.nonzero(has)[0]
        rows += [i, j[has]]
        cols += [j[has], i]
        vals += [-up[has], -up[has]]
    vals.insert(0, diag)
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))


def solve(matrix: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Sparse LU up to DIRECT_LIMIT unknowns, Jacobi CG at rtol 1e-12 beyond."""
    n = matrix.shape[0]
    if n <= DIRECT_LIMIT:
        return spla.spsolve(sp.csc_matrix(matrix), rhs)
    inv_diag = 1.0 / matrix.diagonal()
    precond = spla.LinearOperator((n, n), matvec=lambda v: inv_diag * v)
    x, info = spla.cg(matrix, rhs, rtol=1e-12, atol=0.0, M=precond,
                      maxiter=20 * n)
    if info != 0:
        raise RuntimeError(f"reference CG did not converge (info={info})")
    return x


def equilibrium_potential(weights, origin, A: np.ndarray, B: np.ndarray):
    """(h, cap): h = P[hit A before leaving B] over the rows of B, and
    cap_B(A) = h^T L_B h, the Dirichlet energy of h extended by zero."""
    L = laplacian(weights, origin, B)
    in_A = member(B, A)
    h = in_A.astype(np.float64)
    U = np.nonzero(~in_A)[0]
    L_U = L[U][:, U]
    h[U] = solve(L_U, -(L[U][:, np.nonzero(in_A)[0]] @ np.ones(in_A.sum())))
    return h, float(h @ (L @ h))


def rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# Output readers


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [{k: float(v) if k != "backend" else v for k, v in row.items()}
            for row in csv.DictReader(lines)]


def read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _law(config: dict):
    from gfflab.environment import EnvironmentLaw

    return EnvironmentLaw.iid_uniform(config["law"]["low"], config["law"]["high"])


def _conductances(config: dict, lo, hi):
    """The program's conductances on the box [lo, hi]."""
    from gfflab.environment import sample_environment

    return sample_environment(_law(config), (np.asarray(lo), np.asarray(hi)),
                              config["master_seed"], config["lambda"])


def _ball_potential(config: dict, A: np.ndarray, B: np.ndarray):
    e = _conductances(config, B.min(axis=0) - 1, B.max(axis=0) + 1)
    return equilibrium_potential(e.weights, e.origin, A, B)


# ---------------------------------------------------------------------------
# Workload checks


def check_homogenize(out: Path, config: dict, ops: Ops) -> None:
    sec = config["homogenize"]
    d = config["dimension"]
    rA, rB = sec["A"]["radius"], sec["B"]["radius"]
    eta = sec["eta"]
    Ns = [int(N) for N in sec["N_list"]]

    @functools.cache
    def own(N):
        B = blow_up_ball(rB, N)
        h, cap = _ball_potential(config, blow_up_ball(rA, N), B)
        return B, h, cap

    def column(name, key, value):
        return {int(r["N"]): r[value] for r in read_csv(out / name)}[key]

    for N in (Ns[0], Ns[-1]):
        ops.check(f"homogenize.capacity[N={N}]", lambda N=N: rel_close(
            column("capacity_scaling.csv", N, "scaled_capacity"),
            N ** (2 - d) * own(N)[2]))
    N0 = Ns[0]
    ops.check(f"homogenize.pairing[N={N0}]", lambda: rel_close(
        column("potential_pairing.csv", N0, "pairing"),
        float(own(N0)[1] @ bump(own(N0)[0] / N0, eta["radius"])) / N0 ** d))
    for N in Ns:
        def bounded(N=N):
            B = blow_up_ball(rB, N)
            top = float(bump(B / N, eta["radius"]).sum()) / N ** d
            return 0.0 <= column("potential_pairing.csv", N, "pairing") <= top
        ops.check(f"homogenize.pairing_range[N={N}]", bounded)

    low, high = config["law"]["low"], config["law"]["high"]
    reuss = 2.0 / (math.log(high / low) / (high - low))  # 2 / E[1/w]
    voigt = high + low  # 2 E[w]
    for i in range(d):
        for j in range(d):
            def entry(i=i, j=j):
                rows = read_csv(out / "diffusivity.csv")
                r = next(r for r in rows if r["i"] == i and r["j"] == j)
                slack = SE_MULT * r["se"]
                if i == j:
                    return reuss - slack <= r["a_hat"] <= voigt + slack
                return abs(r["a_hat"]) <= slack
            ops.check(f"homogenize.diffusivity[{i},{j}]", entry)


def check_disconnect(out: Path, config: dict, ops: Ops) -> None:
    sec = config["disconnect"]
    d = config["dimension"]
    N = int(sec["N"])
    R = int(math.floor(sec["M"] * N))
    alpha, ref = sec["alpha"], sec["alpha_star_ref"]

    @functools.cache
    def own():
        # The tilt is the potential of A inflated by delta_shell, killed
        # outside the M-box, which is the whole sample box.
        domain = box([-R] * d, [R] * d)
        A = blow_up_ball(sec["A"]["radius"] + sec["delta_shell"], N)
        h, cap = _ball_potential(config, A, domain)
        eta = sec["eta"]
        pairing = float(h @ bump(domain / N, eta["radius"])) / N ** d
        return cap, pairing

    summary = functools.cache(lambda: read_json(out / "disconnect_summary.json"))
    repulsion = functools.cache(lambda: read_json(out / "repulsion_summary.json"))

    def agree():
        s = summary()
        comb = math.hypot(s["direct_se"], s["is_se"])
        return abs(s["direct_estimate"] - s["is_estimate"]) <= IS_SE_MULT * comb
    ops.check("disconnect.direct_vs_is", agree)

    strength = ref - alpha + sec["epsilon"]
    ops.check("disconnect.cap_tilt_scaled", lambda: rel_close(
        summary()["cap_tilt_scaled"], N ** (2 - d) * own()[0]))
    ops.check("disconnect.pairing_tilt_reference", lambda: rel_close(
        repulsion()["pairing_tilt_reference"], -strength * own()[1]))

    def tilt_mean():
        r = repulsion()
        return r["tilt_mean_ok"] and abs(
            r["pairing_mean_tilted"] + strength * own()[1]
        ) <= SE_MULT * r["pairing_se_tilted"]
    ops.check("disconnect.tilt_mean", tilt_mean)

    n = int(sec["tilted_replicas"])
    for k, eps in enumerate(sec["eps_ladder"]):
        def row(k=k, eps=eps):
            r = read_csv(out / "disconnect_ladder.csv")[k]
            hits = r["tilted_freq"] * n
            return (r["epsilon"] == eps and abs(hits - round(hits)) < 1e-6
                    and 0 <= r["ess"] <= n
                    and rel_close(r["entropy_H"],
                                  0.5 * (ref - alpha + eps) ** 2 * own()[0]))
        ops.check(f"disconnect.ladder[eps={eps}]", row)


def _normal_sf(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def check_percolation(out: Path, config: dict, ops: Ops) -> None:
    sec = config["percolation"]
    d = config["dimension"]
    replicas = int(sec["replicas"])
    crossing = functools.cache(lambda: read_csv(out / "crossing.csv"))

    for L in sec["L_grid"]:
        for k, a in enumerate(sec["alpha_grid"]):
            def row(L=L, k=k, a=a):
                rows = [r for r in crossing() if r["L"] == L]
                est = rows[k]["crossing_prob"]
                hits = est * replicas
                return (rows[k]["alpha"] == a and abs(hits - round(hits)) < 1e-6
                        and 0.0 <= est <= 1.0
                        and (k == 0 or est <= rows[k - 1]["crossing_prob"]))
            ops.check(f"percolation.crossing[L={L},alpha={a}]", row)

        def straddles(L=L):
            est = [r["crossing_prob"] for r in crossing() if r["L"] == L]
            return not all(e == 1.0 for e in est) and not all(e == 0.0 for e in est)
        ops.check(f"percolation.crossing_straddles[L={L}]", straddles)

    csec = sec["connectivity"]
    zs = [tuple(int(v) for v in z) for z in csec["z_list"]]
    connectivity = functools.cache(lambda: {
        (int(r["z0"]), int(r["z1"]), int(r["z2"])): r["connectivity"]
        for r in read_csv(out / "connectivity.csv")})
    for z in zs:
        ops.check(f"percolation.connectivity[z={z}]",
                  lambda z=z: connectivity()[z] <= connectivity()[(0,) * d])

    def at_origin():
        R = max(max(abs(v) for v in z) for z in zs) + csec.get("padding", 4)
        dom = box([-R] * d, [R] * d)
        e = _conductances(config, [-R - 1] * d, [R + 1] * d)
        rhs = np.zeros(len(dom))
        origin = len(dom) // 2
        rhs[origin] = 1.0
        g00 = float(solve(laplacian(e.weights, e.origin, dom), rhs)[origin])
        p = _normal_sf(csec["alpha"] / math.sqrt(g00))
        se = math.sqrt(p * (1.0 - p) / int(csec["replicas"]))
        return abs(connectivity()[(0,) * d] - p) <= SE_MULT * se
    ops.check("percolation.connectivity_origin_law", at_origin)

    ksec = sec["classify"]
    centers = [tuple(int(v) for v in c) for c in ksec["centers"]]
    flags = functools.cache(lambda: _box_flags(config, ksec))
    written = functools.cache(lambda: {
        tuple(int(r[f"z{a}"]) for a in range(d)): (bool(r["psi_good"]), bool(r["xi_good"]))
        for r in read_csv(out / "box_classification.csv")})
    for z in centers:
        ops.check(f"percolation.psi_good[z={z}]",
                  lambda z=z: written()[z][0] == flags()[z][0])
        ops.check(f"percolation.xi_good[z={z}]",
                  lambda z=z: written()[z][1] == flags()[z][1])


def _box_flags(config: dict, ksec: dict) -> dict:
    """psi/xi-goodness of each box of a one-box classify section, from the
    field the command drew, regenerated with gfflab's sampler."""
    from gfflab.environment import environment_for_sites
    from gfflab.gff import sample_gff
    from gfflab.lattice import ball

    d = config["dimension"]
    L, K = int(ksec["L"]), int(ksec["K"])
    centers = [np.asarray(c, dtype=np.int64) for c in ksec["centers"]]
    if len(centers) != 1:
        raise ValueError("the box-flag check handles one box (no neighbors)")
    span = max(abs(int(v)) for c in centers for v in c) + K * L + 1
    seed, lam = config["master_seed"], config["lambda"]
    dom_set = ball([0] * d, span, d)
    kenv = environment_for_sites(_law(config), dom_set, seed, lam)
    phi = sample_gff(kenv, dom_set, 1, seed)[0].values

    dom = box([-span] * d, [span] * d)
    z = centers[0]
    V = member(dom, box(z - K * L + 1, z + K * L - 2))
    Lap = laplacian(kenv.weights, kenv.origin, dom)
    inner, outer = np.nonzero(V)[0], np.nonzero(~V)[0]
    xi = phi.copy()
    xi[inner] = solve(Lap[inner][:, inner], -(Lap[inner][:, outer] @ phi[outer]))
    psi = phi - xi
    xi_good = bool(xi[member(dom, box(z - 3 * L, z + 4 * L - 1))].min() > -ksec["a"])
    own = (psi[member(dom, box(z, z + L - 1))] >= ksec["gamma"]).reshape((L,) * d)
    labels, _ = ndimage.label(own, structure=ndimage.generate_binary_structure(d, 1))
    diameters = [max(s.stop - s.start - 1 for s in sl)
                 for sl in ndimage.find_objects(labels)]
    psi_good = any(diam >= L / 10.0 for diam in diameters)
    return {tuple(int(v) for v in z): (psi_good, xi_good)}


CHECKS = {
    "disconnect": check_disconnect,
    "homogenize": check_homogenize,
    "percolation": check_percolation,
}


def run_checks(workload: str, out: Path, config: dict, command_ok: bool) -> Ops:
    ops = Ops(skip=not command_ok)
    CHECKS[workload](out, config, ops)
    return ops
