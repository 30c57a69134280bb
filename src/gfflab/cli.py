"""Config-driven experiment runner.

Every subcommand reads one JSON config, validates it, runs the matching
pipeline and writes CSV/JSON/binary outputs plus a run manifest into the
output directory. All randomness derives from master_seed, so re-running
an identical config reproduces every numeric output byte for byte.

Exit codes: 0 ok, 2 config invalid, 3 solver failure, 4 geometry error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .lattice import ball, box_sites, shape_from_spec
from .environment import EnvironmentLaw, environment_for_sites, sample_environment
from .potential import SolverError, capacity, harmonic_potential
from .gff import BoxCollection, sample_gff
from .percolation import classify_boxes, connectivity_function, crossing_probability
from .interfaces import (
    build_shell_interface,
    capacity_ratio_check,
    check_porous_interface,
    escape_probability,
)
from .homogenization import (
    _DisconnectionInstance,
    annulus_pairing_quadrature,
    capacity_scaling,
    continuum_capacity_reference,
    disconnection_rate_experiment,
    estimate_diffusivity,
    eta_from_spec,
    repulsion_experiment,
)
from .streams import stream

EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_GEOMETRY = 0, 2, 3, 4

DEFAULT_TOLERANCES = {"green_const": 1.0}


def config_hash(config: dict) -> str:
    """Hash of the experiment content; the output location is not part
    of the experiment identity."""
    payload = {k: v for k, v in config.items() if k != "out"}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def law_from_config(config: dict) -> EnvironmentLaw:
    spec = dict(config["law"])
    kind = spec.pop("kind")
    if kind == "constant":
        return EnvironmentLaw.constant(spec["value"])
    if kind == "iid_uniform":
        return EnvironmentLaw.iid_uniform(spec["low"], spec["high"])
    if kind == "iid_two_point":
        return EnvironmentLaw.iid_two_point(spec["a"], spec["b"], spec["p"])
    if kind == "checkerboard":
        return EnvironmentLaw.checkerboard(spec["a"], spec["b"])
    raise ValueError(f"unknown law kind {kind!r}")


# Keys each command reads without a default, with their JSON types (a
# bool is none of them). A type may carry a condition on the value:
# "integer >= 1", "number > 0", "string in vsrw csrw". A "sec.sub" row
# checks an optional subsection when present; a "sec+key" row applies
# when sec has key.
COUNT = "integer >= 1"  # a Monte Carlo count
REQUIRED_KEYS = {
    "env": {"window_lo": "list", "window_hi": "list"},
    "potential": {"A_center": "list", "A_radius": "number",
                  "B_center": "list", "B_radius": "number"},
    "gff": {"radius": "number", "count": COUNT},
    "percolation": {"L_grid": "list", "alpha_grid": "list", "replicas": COUNT},
    "percolation.connectivity": {"alpha": "number", "z_list": "list",
                                 "replicas": COUNT},
    "percolation.classify": {"L": "integer", "K": "integer", "centers": "list",
                             "gamma": "number", "delta": "number", "a": "number"},
    "solidify": {"A_radius": "number", "B_radius": "number", "offset": "number",
                 "puncture_fractions": "list"},
    "homogenize": {"A": "object", "B": "object", "N_list": "list"},
    "homogenize.reference": {"shape": "string", "sigma2": "number"},
    # replicas >= 2: the standard error divides by replicas - 1
    "homogenize.diffusivity": {"t_horizon": "number > 0",
                               "replicas": "integer >= 2"},
    "disconnect": {"A": "object", "M": "number", "alpha": "number",
                   "alpha_star_ref": "number", "epsilon": "number", "N": "integer",
                   "direct_replicas": COUNT, "tilted_replicas": COUNT},
    "disconnect+eta": {"Delta": "number"},
}

# Keys read with a default, type-checked when present.
OPTIONAL_KEYS = {
    "gff": {"center": "list"},
    "percolation": {"padding": "integer >= 0"},
    "percolation.connectivity": {"padding": "integer >= 0"},
    "homogenize": {"quadrature_step": "number", "eta": "object"},
    "homogenize.reference": {"r": "number", "R": "number"},
    "homogenize.diffusivity": {"mode": "string in vsrw csrw"},
    "disconnect": {"B": "object", "eta": "object", "delta_shell": "number",
                   "eps_ladder": "list"},
}

JSON_TYPES = {"integer": int, "number": (int, float), "list": list,
              "object": dict, "string": str}
CONDITIONS = {">=": lambda v, args: v >= float(args[0]),
              ">": lambda v, args: v > float(args[0]),
              "in": lambda v, args: v in args}


def _type_error(value, t: str) -> str | None:
    """Why `value` fails the type t, or None when it fits."""
    base, *cond = t.split()
    if isinstance(value, bool) or not isinstance(value, JSON_TYPES[base]):
        return f"must be of JSON type {base}"
    if cond and not CONDITIONS[cond[0]](value, cond[1:]):
        return f"must be {' '.join(cond)}"
    return None


def _missing_keys(name: str, sec) -> list[str]:
    bad = []
    for path in dict.fromkeys([*REQUIRED_KEYS, *OPTIONAL_KEYS]):
        head, _, sub = path.partition(".")
        section, _, when = head.partition("+")
        if section != name:
            continue
        if not isinstance(sec, dict):
            return [f"{name} must be of JSON type object"]
        if (not when or when in sec) and (not sub or sub in sec):
            part = sec[sub] if sub else sec
            if not isinstance(part, dict):
                bad.append(f"{path} must be of JSON type object")
                continue
            required = REQUIRED_KEYS.get(path, {})
            missing = [k for k in required if k not in part]
            if missing:
                bad.append(f"{path}: missing key(s) {', '.join(missing)}")
            bad += [f"{path}: {k} {why}"
                    for k, t in {**required, **OPTIONAL_KEYS.get(path, {})}.items()
                    if k in part and (why := _type_error(part[k], t))]
    return bad


def validate(config: dict, command: str | None = None) -> list[str]:
    """Schema and cross-field diagnostics; never runs a solver.

    Checks the section of `command`, which must be present, or every
    section the config contains when `command` is None."""
    bad: list[str] = []
    d = config.get("dimension")
    if not isinstance(d, int) or d < 3:
        bad.append("dimension must be an integer >= 3")
    lam = config.get("lambda")
    if not isinstance(lam, (int, float)) or not 0 < lam < 1:
        bad.append("lambda must lie in (0, 1)")
    if "master_seed" not in config or not isinstance(config["master_seed"], int):
        bad.append("master_seed must be an integer")
    tol = config.get("tolerances", {})
    if not isinstance(tol, dict) or set(tol) - set(DEFAULT_TOLERANCES):
        bad.append(f"tolerances: keys must be among {sorted(DEFAULT_TOLERANCES)}, "
                   f"got {tol!r}")
    else:
        bad += [f"tolerances: {k} must be of JSON type number"
                for k, v in tol.items() if _type_error(v, "number")]
    if "law" not in config:
        bad.append("missing law specification")
    else:
        try:
            law = law_from_config(config)
            if isinstance(lam, (int, float)) and 0 < lam < 1:
                law.validate(lam)
        except (KeyError, ValueError) as exc:
            bad.append(f"law: {exc}")
    if command is not None and command not in config:
        bad.append(f"config has no {command!r} section")
    for name in [n for n in config if command in (None, n)]:
        sec = config[name]
        missing = _missing_keys(name, sec)
        if missing:
            bad.extend(missing)
            continue
        if name in ("homogenize", "disconnect"):
            try:
                A = shape_from_spec(sec["A"])
                loA, hiA = A.bounds()
            except (KeyError, ValueError) as exc:
                bad.append(f"{name}.A: {exc}")
                continue
            if "B" in sec:
                try:
                    B = shape_from_spec(sec["B"])
                    loB, hiB = B.bounds()
                    if np.any(loA < loB) or np.any(hiA > hiB):
                        bad.append(f"{name}: bounding box of A escapes B")
                except ValueError as exc:
                    bad.append(f"{name}.B: {exc}")
            if name == "disconnect":
                if max(abs(float(v)) for v in np.concatenate([loA, hiA])) >= sec["M"]:
                    bad.append("disconnect: A must sit strictly inside the M-box")
        if name == "scales":
            from .interfaces import scale_system
            try:
                sy = scale_system(sec["I"], sec["J"], sec["ell_star"],
                                  L=sec.get("L"), d=d or 3)
                if not sy.compatible:
                    bad.append(
                        "scales: ell_star is not (I,J,L)-compatible: "
                        f"ell0 - (I+1)(J+1)L = {sy.ell0 - (sy.I + 1) * (sy.J + 1) * sy.L}"
                        f" must exceed ell_min = {sy.ell_min_value}")
            except (KeyError, TypeError, ValueError) as exc:
                bad.append(f"scales: {exc}")
        if name == "percolation" and "classify" in sec:
            ksec = sec["classify"]
            try:
                BoxCollection(L=int(ksec["L"]), K=int(ksec["K"]),
                              centers=tuple(tuple(c) for c in ksec["centers"]))
            except (KeyError, TypeError, ValueError) as exc:
                bad.append(f"percolation.classify: {exc}")
    return bad


def write_csv(path: Path, header: list[str], rows: list, chash: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


class Runner:
    def __init__(self, config: dict, out_dir: Path):
        self.config = config
        self.out = out_dir
        self.out.mkdir(parents=True, exist_ok=True)
        self.chash = config_hash(config)
        self.d = config["dimension"]
        self.lam = float(config["lambda"])
        self.law = law_from_config(config)
        self.seed = int(config["master_seed"])
        self.tol = dict(DEFAULT_TOLERANCES)
        self.tol.update(config.get("tolerances", {}))
        self.files: list[str] = []
        self.env_hash: str | None = None

    def _record(self, name: str) -> Path:
        self.files.append(name)
        return self.out / name

    def run_env(self) -> None:
        sec = self.config["env"]
        window = box_sites(sec["window_lo"], sec["window_hi"])
        env = sample_environment(self.law, window, self.seed, self.lam)
        self.env_hash = env.content_hash()
        env.save(self._record("environment.bin"))
        self.files.append("environment.bin.json")

    def run_potential(self) -> None:
        sec = self.config["potential"]
        A = ball(sec["A_center"], sec["A_radius"], self.d)
        B = ball(sec["B_center"], sec["B_radius"], self.d)
        env = environment_for_sites(self.law, B, self.seed, self.lam)
        self.env_hash = env.content_hash()
        h = harmonic_potential(env, A, B)
        cap = capacity(env, A, B, h=h)
        write_csv(self._record("capacity.csv"),
                  ["A_radius", "B_radius", "capacity"],
                  [[sec["A_radius"], sec["B_radius"], cap]], self.chash)
        rows = [[*B.site_of(i), float(h[i])] for i in range(len(B))]
        write_csv(self._record("potential.csv"),
                  [f"x{a}" for a in range(self.d)] + ["h"], rows, self.chash)

    def run_gff(self) -> None:
        sec = self.config["gff"]
        U = ball(sec.get("center", [0] * self.d), sec["radius"], self.d)
        env = environment_for_sites(self.law, U, self.seed, self.lam)
        self.env_hash = env.content_hash()
        samples = sample_gff(env, U, sec["count"], self.seed)
        mat = np.stack([s.values for s in samples], axis=1)
        path = self._record("fields.bin")
        with open(path, "wb") as fh:
            header = json.dumps({"d": self.d, "sites": len(U),
                                 "count": sec["count"]})
            fh.write((header + "\n").encode())
            fh.write(np.ascontiguousarray(mat, dtype="<f8").tobytes())
        rows = [[*U.site_of(i), float(mat[i].mean()), float(mat[i].var(ddof=1))]
                for i in range(len(U))]
        write_csv(self._record("field_summary.csv"),
                  [f"x{a}" for a in range(self.d)] + ["mean", "variance"],
                  rows, self.chash)

    def run_percolation(self) -> None:
        sec = self.config["percolation"]
        L_grid = sec["L_grid"]
        alpha_grid = sec["alpha_grid"]
        pad = sec.get("padding", 4)
        Lmax = max(L_grid)
        window = ball([0] * self.d, 2 * Lmax + pad + 1, self.d)
        env = environment_for_sites(self.law, window, self.seed, self.lam)
        self.env_hash = env.content_hash()
        sweep = crossing_probability(env, alpha_grid, L_grid, [0] * self.d,
                                     sec["replicas"], self.seed, padding=pad)
        rows = [[r.alpha, r.L, r.estimate, r.se, r.replicas, r.seed]
                for r in sweep.estimates]
        write_csv(self._record("crossing.csv"),
                  ["alpha", "L", "crossing_prob", "se", "replicas", "seed"],
                  rows, self.chash)
        with open(self._record("crossing_summary.json"), "w") as fh:
            json.dump({"alpha_double_star_estimate": sweep.alpha_double_star_estimate,
                       "alpha_grid": sweep.alpha_grid, "L_grid": sweep.L_grid,
                       "note": "grid-bracketing estimate, not a certified value"},
                      fh, indent=2, sort_keys=True)
        if "connectivity" in sec:
            csec = sec["connectivity"]
            cwin = ball([0] * self.d,
                        max(abs(int(v)) for z in csec["z_list"] for v in z)
                        + csec.get("padding", 4) + 1, self.d)
            cenv = environment_for_sites(self.law, cwin, self.seed, self.lam)
            rep = connectivity_function(cenv, csec["alpha"], [0] * self.d,
                                        csec["z_list"], csec["replicas"], self.seed,
                                        padding=csec.get("padding", 4))
            rows = [[rep.alpha, *e.z, e.estimate, e.se] for e in rep.estimates]
            write_csv(self._record("connectivity.csv"),
                      ["alpha"] + [f"z{a}" for a in range(self.d)]
                      + ["connectivity", "se"], rows, self.chash)
        if "classify" in sec:
            ksec = sec["classify"]
            L, K = int(ksec["L"]), int(ksec["K"])
            centers = [tuple(c) for c in ksec["centers"]]
            span = max(abs(int(v)) for c in centers for v in c) + K * L + 1
            dom = ball([0] * self.d, span, self.d)
            kenv = environment_for_sites(self.law, dom, self.seed, self.lam)
            grid = BoxCollection(L=L, K=K, centers=tuple(centers))
            phi = sample_gff(kenv, dom, 1, self.seed)[0]
            cls = classify_boxes(kenv, phi, grid, ksec["gamma"],
                                 ksec["delta"], ksec["a"])
            rows = [[*z, int(cls.psi_good[z]), int(cls.xi_good[z])]
                    for z in cls.centers]
            write_csv(self._record("box_classification.csv"),
                      [f"z{a}" for a in range(self.d)]
                      + ["psi_good", "xi_good"], rows, self.chash)

    def run_solidify(self) -> None:
        sec = self.config["solidify"]
        A_N = ball([0] * self.d, sec["A_radius"], self.d)
        B_env = ball([0] * self.d, sec["B_radius"], self.d)
        env = environment_for_sites(self.law, B_env, self.seed, self.lam)
        self.env_hash = env.content_hash()
        rng = stream(self.seed, "solidify")
        rows = []
        for frac in sec["puncture_fractions"]:
            spec = build_shell_interface(A_N, sec["offset"], frac, rng)
            chk = check_porous_interface(env, spec, mode="exact")
            esc = escape_probability(env, A_N, spec.Sigma, B_env,
                                     green_const=self.tol["green_const"])
            ratio = capacity_ratio_check(env, A_N, spec.Sigma, B_env)
            rows.append([frac, chk.min_hitting, esc.sup_escape,
                         esc.far_field_bound, ratio.cap_sigma, ratio.cap_A,
                         ratio.inf_hit, int(ratio.ok)])
        write_csv(self._record("solidify.csv"),
                  ["puncture_fraction", "min_hitting", "sup_escape",
                   "far_field_bound", "cap_sigma", "cap_A", "inf_hit",
                   "chain_ok"], rows, self.chash)

    def run_homogenize(self) -> None:
        sec = self.config["homogenize"]
        ref = sec.get("reference")
        reference = oracle = None
        if ref is not None:
            reference = continuum_capacity_reference(
                ref["shape"], ref["sigma2"], self.d,
                r=ref.get("r", 1.0), R=ref.get("R"))
        eta = eta_from_spec(sec["eta"]) if "eta" in sec else None
        if eta is not None and ref is not None and ref["shape"] == "annulus":
            oracle = annulus_pairing_quadrature(
                ref.get("r", 1.0), ref["R"], eta,
                step=sec.get("quadrature_step", 0.02))
        sweep = capacity_scaling(self.law, self.lam, shape_from_spec(sec["A"]),
                                 shape_from_spec(sec["B"]), sec["N_list"],
                                 self.seed, reference=reference, eta=eta,
                                 oracle=oracle)
        rows = [[r.N, r.scaled_capacity, r.solve_seconds, r.unknowns, r.backend]
                for r in sweep.results]
        write_csv(self._record("capacity_scaling.csv"),
                  ["N", "scaled_capacity", "solve_time", "unknowns", "backend"],
                  rows, self.chash)
        out = {"cauchy_ok": sweep.cauchy_ok, "rel_changes": sweep.rel_changes,
               "reference": sweep.reference,
               "within_reference": sweep.within_reference}
        if eta is not None:
            write_csv(self._record("potential_pairing.csv"),
                      ["N", "pairing"],
                      [[r.N, r.pairing] for r in sweep.results], self.chash)
            out["pairing_cauchy_ok"] = sweep.pairing_cauchy_ok
            out["pairing_oracle"] = sweep.oracle
            out["pairing_within_oracle"] = sweep.within_oracle
        if "diffusivity" in sec:
            dsec = sec["diffusivity"]
            est = estimate_diffusivity(self.law, self.lam, dsec["t_horizon"],
                                       dsec["replicas"], self.seed,
                                       mode=dsec.get("mode", "vsrw"), d=self.d)
            write_csv(self._record("diffusivity.csv"),
                      ["i", "j", "a_hat", "se"],
                      [[i, j, est.matrix[i, j], est.se[i, j]]
                       for i in range(self.d) for j in range(self.d)],
                      self.chash)
            out["diffusivity_discarded"] = est.discarded
        with open(self._record("homogenize_summary.json"), "w") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)

    def run_disconnect(self) -> None:
        sec = self.config["disconnect"]
        B = shape_from_spec(sec["B"]) if "B" in sec else None
        # one environment, factor and tilt solve serve both experiments
        inst = _DisconnectionInstance(self.law, shape_from_spec(sec["A"]),
                                      sec["M"], sec["N"], self.lam, self.seed,
                                      B_shape=B, d=self.d)
        tilt = (sec["alpha"], sec["alpha_star_ref"], sec["epsilon"],
                sec.get("delta_shell", 0.0))
        report = disconnection_rate_experiment(
            inst, *tilt, sec["direct_replicas"], sec["tilted_replicas"],
            eps_ladder=sec.get("eps_ladder"))
        rows = [[p.epsilon, p.tilted_freq, p.tilted_se, p.is_estimate,
                 p.is_se, p.ess, p.entropy_H] for p in report.ladder]
        write_csv(self._record("disconnect_ladder.csv"),
                  ["epsilon", "tilted_freq", "tilted_se", "is_estimate",
                   "is_se", "ess", "entropy_H"], rows, self.chash)
        summary = {k: v for k, v in report.__dict__.items() if k != "ladder"}
        with open(self._record("disconnect_summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, default=float)
        if "eta" in sec:
            rep = repulsion_experiment(inst, *tilt, sec["tilted_replicas"],
                                       sec["eta"], sec["Delta"])
            with open(self._record("repulsion_summary.json"), "w") as fh:
                json.dump(rep.__dict__, fh, indent=2, sort_keys=True,
                          default=float)

    def manifest(self, command: str, t0: float) -> None:
        data = {
            "command": command,
            "config_hash": self.chash,
            "environment_hash": self.env_hash,
            "outputs": self.files,
            "wall_clock_seconds": time.time() - t0,
            "versions": {"gfflab": __version__, "numpy": np.__version__,
                         "scipy": scipy.__version__},
            "config": self.config,
        }
        with open(self.out / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)


COMMANDS = {
    "env": Runner.run_env,
    "potential": Runner.run_potential,
    "gff": Runner.run_gff,
    "percolation": Runner.run_percolation,
    "solidify": Runner.run_solidify,
    "homogenize": Runner.run_homogenize,
    "disconnect": Runner.run_disconnect,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gfflab",
        description="Experiment runner for the random-conductance free-field laboratory.")
    sub = parser.add_subparsers(dest="command", required=True)
    names = ["validate"] + sorted(COMMANDS)
    for name in names:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed-override", type=int, default=None)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed_override is not None:
        config["master_seed"] = args.seed_override

    issues = validate(config, None if args.command == "validate" else args.command)
    if args.command == "validate":
        for line in issues:
            print(line)
        print("ok" if not issues else f"{len(issues)} issue(s)")
        return EXIT_CONFIG if issues else EXIT_OK
    if issues:
        for line in issues:
            print(f"invalid config: {line}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out or config.get("out", "gfflab-out"))
    runner = Runner(config, out_dir)
    t0 = time.time()
    try:
        COMMANDS[args.command](runner)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"geometry/config error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    runner.manifest(args.command, t0)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
