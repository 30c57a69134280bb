"""In-memory span tracing of gfflab, installed from outside the package.

`install` wraps every public function of each gfflab module, plus a few
named methods and private kernels, by attribute substitution. It then
rebinds every name that points at a wrapped function in every gfflab
module, so names that one module imported from another (say
`sample_matrix` in `percolation`) are traced too. `scipy.ndimage.label`
is wrapped as the span `percolation.label`, the level-set labelling
kernel.

A span is `[name, start, end, parent]`, with `parent` the index of the
enclosing span or -1. Spans stay in memory until `dump`. Self times and
the per-layer metrics are derived from the span list alone, so the same
arithmetic serves a live run and a hand-built tree. `span_cost` times
the wrapper itself, from which the tracing overhead of a command is its
span count times that cost.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import json
import statistics
import time

import numpy as np

MODULES = ("lattice", "environment", "streams", "potential", "gff",
           "percolation", "homogenization", "interfaces")

# Private callables and methods traced besides the public functions.
EXTRA = {
    "lattice": ["SiteSet.__init__"],
    "potential": ["DirichletOperator.__init__", "DirichletOperator.solve",
                  "DirichletOperator.sample_gaussian",
                  "DirichletOperator._get_lu"],
    "percolation": ["_big_components"],
    "homogenization": ["_DisconnectionInstance.__init__",
                       "_DisconnectionInstance.tilt_function",
                       "_DisconnectionInstance.disconnected"],
}

ROOT = "cli.main"
LABEL = "percolation.label"

# Per-layer time metrics: sum of the self times of the listed spans.
SELF_GROUPS = {
    "potential.solve_s": ["potential.DirichletOperator.solve",
                          "potential.DirichletOperator._get_lu"],
    "potential.assemble_s": ["potential.killed_laplacian",
                             "potential.DirichletOperator.__init__"],
    "potential.dirichlet_form_s": ["potential.dirichlet_form"],
    "percolation.label_s": [LABEL],
    "percolation.crossing_s": ["percolation.crossing_probability",
                               "percolation.crossing_events_batch",
                               "percolation.grid_levelset_connected"],
    "percolation.connectivity_s": ["percolation.connectivity_function"],
    "homogenization.disconnected_s": [
        "homogenization._DisconnectionInstance.disconnected"],
    "percolation.components_s": ["percolation.components"],
    "percolation.classify_s": ["percolation.classify_boxes",
                               "percolation._big_components",
                               "percolation.is_connected"],
    "gff.decompose_s": ["gff.decompose_matrix", "gff.decompose"],
    "homogenization.diffusivity_s": ["homogenization.estimate_diffusivity"],
    "lattice.siteset_s": ["lattice.SiteSet.__init__"],
    "environment.sample_s": ["environment.sample_environment",
                             "environment.environment_for_sites",
                             "streams.keyed_uniform", "streams.mix64"],
    "gff.tilt_weights_s": ["gff.tilt_log_weights"],
    "homogenization.tilt_function_s": [
        "homogenization._DisconnectionInstance.tilt_function"],
    "homogenization.capacity_scaling_s": ["homogenization.capacity_scaling"],
    "homogenization.pairing_s": [
        "homogenization.potential_pairing_convergence"],
}

# Per-layer counts: (span name, note key); a key of None counts calls.
COUNTS = {
    "potential.draws": ("potential.DirichletOperator.sample_gaussian", "draws"),
    "potential.solve_calls": ("potential.DirichletOperator.solve", None),
    "potential.solve_rhs": ("potential.DirichletOperator.solve", "rhs"),
    "potential.operators": ("potential.DirichletOperator.__init__", None),
    "percolation.label_calls": (LABEL, None),
    "percolation.components_calls": ("percolation.components", None),
    "homogenization.walk_replicas": ("homogenization.estimate_diffusivity",
                                     "replicas"),
    "lattice.sites": ("lattice.SiteSet.__init__", "sites"),
    "environment.edges": ("environment.sample_environment", "edges"),
}

# Rounds and calls per round of the timed loop in `span_cost`.
COST_ROUNDS = 7
COST_CALLS = 20_000

SAMPLE = "potential.DirichletOperator.sample_gaussian"
SOLVE = "potential.DirichletOperator.solve"

_operator_keys = itertools.count()


def _note_sample(args, result):
    op = args["self"]
    key = op.__dict__.setdefault("_perfbench_key", next(_operator_keys))
    return {"operator": key, "draws": int(args["count"])}


def _note_solve(args, result):
    shape = np.shape(args["rhs"])
    sites = args["self"].sites
    digest = hashlib.blake2b(sites.coords.tobytes(), digest_size=8)
    return {"rhs": 1 if len(shape) == 1 else int(shape[1]),
            "domain": f"{len(sites)}:{digest.hexdigest()}"}


NOTES = {
    SAMPLE: _note_sample,
    SOLVE: _note_solve,
    "lattice.SiteSet.__init__": lambda a, r: {"sites": len(a["self"])},
    "environment.sample_environment":
        lambda a, r: {"edges": int(sum(w.size for w in r.weights))},
    "homogenization.estimate_diffusivity":
        lambda a, r: {"replicas": int(a["replicas"])},
}


class Tracer:
    """Span recorder; single-threaded, like the command it wraps."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.notes: dict[int, dict] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        sig = inspect.signature(fn) if note is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(rec)
            self._stack.append(idx)
            rec[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = self.clock()
                self._stack.pop()
            if note is not None:
                self.notes[idx] = note(sig.bind(*args, **kwargs).arguments,
                                       result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from scipy import ndimage

        mods = {m: importlib.import_module(f"gfflab.{m}") for m in MODULES}
        swaps: dict[int, tuple] = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    swaps[id(obj)] = (obj, self.wrap(f"{short}.{name}", obj))
            for qual in EXTRA.get(short, []):
                owner_name, _, attr = qual.rpartition(".")
                if owner_name:
                    owner = getattr(mod, owner_name)
                    self._set(owner, attr,
                              self.wrap(f"{short}.{qual}", vars(owner)[attr]))
                else:
                    obj = getattr(mod, attr)
                    swaps[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        everyone = [importlib.import_module("gfflab"),
                    importlib.import_module("gfflab.cli"), *mods.values()]
        for mod in everyone:
            for name, obj in list(vars(mod).items()):
                if id(obj) in swaps and swaps[id(obj)][0] is obj:
                    self._set(mod, name, swaps[id(obj)][1])
        self._set(ndimage, "label", self.wrap(LABEL, ndimage.label))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans,
                       "notes": {str(k): v for k, v in self.notes.items()}}, fh)


def span_cost() -> float:
    """Seconds one traced call adds to a plain call.

    Median over rounds of a timed loop on a wrapped no-op; it covers the
    wrapper's bookkeeping and clock reads, not the note callbacks, which
    run on a few dozen spans per command.
    """
    def noop():
        return None

    traced = Tracer().wrap("probe", noop)
    costs = []
    for _ in range(COST_ROUNDS):
        t0 = time.perf_counter()
        for _ in range(COST_CALLS):
            noop()
        t1 = time.perf_counter()
        for _ in range(COST_CALLS):
            traced()
        costs.append((time.perf_counter() - t1 - (t1 - t0)) / COST_CALLS)
    return statistics.median(costs)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i]
            for i, (_, start, end, _p) in enumerate(spans)]


def layer_metrics(spans, notes) -> dict[str, float]:
    """Per-layer metrics of one traced command whose root span is ROOT."""
    notes = {int(k): v for k, v in notes.items()}
    own = self_times(spans)
    by_name: dict[str, float] = {}
    for (name, *_), t in zip(spans, own):
        by_name[name] = by_name.get(name, 0.0) + t
    out = {metric: sum(by_name.get(n, 0.0) for n in names)
           for metric, names in SELF_GROUPS.items()}
    for metric, (span_name, key) in COUNTS.items():
        hits = [i for i, s in enumerate(spans) if s[0] == span_name]
        out[metric] = float(len(hits) if key is None
                            else sum(notes[i][key] for i in hits if i in notes))

    seen_ops: set = set()
    first_s = rest_s = 0.0
    rest_draws = 0
    seen_domains: set = set()
    solves = repeats = 0
    for i, (name, start, end, _) in enumerate(spans):
        if name == SAMPLE and i in notes:
            if notes[i]["operator"] in seen_ops:
                rest_s += end - start
                rest_draws += notes[i]["draws"]
            else:
                seen_ops.add(notes[i]["operator"])
                first_s += end - start
        elif name == SOLVE and i in notes:
            solves += 1
            repeats += notes[i]["domain"] in seen_domains
            seen_domains.add(notes[i]["domain"])
    out["potential.sample_first_s"] = first_s
    out["potential.sample_ms_per_draw"] = (1000.0 * rest_s / rest_draws
                                           if rest_draws else 0.0)
    out["potential.repeat_solve_share"] = repeats / solves if solves else 0.0

    modules = {m: 0.0 for m in MODULES}
    root_self = 0.0
    wall = 0.0
    for (name, start, end, parent), t in zip(spans, own):
        if name == ROOT and parent < 0:
            root_self += t
            wall += end - start
        else:
            modules[name.split(".", 1)[0]] += t
    out["cli.self_s"] = root_self
    for m, t in modules.items():
        out[f"{m}.self_s"] = t
    out["trace.wall_s"] = wall
    out["trace.spans"] = float(len(spans))
    return out
